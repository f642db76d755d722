"""Regenerate perfbench/reference.json from the current compsim sources.

    python3 perfbench/make_reference.py

For each workload it stores (mean, se) of every checked per-user metric from
one run at seed REF_SEED with SCALE times the benchmark's trials or drops,
the appendix pass/fail pattern of the bound command, and the sha256 of the
benchmark-size CSV output for seeds 0 .. SHA_SEEDS - 1. It then checks every
one of those seeds against the new reference and prints the largest z-score
seen, so a reference that would reject a correct program shows here first.
Regenerate only when the program's expected output changes on purpose.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import sys

import bench
import checks
from run import REFERENCE, WORKLOAD_NAMES


# The reference run: SCALE times the trials, at a seed outside the usual range.
SCALE = 8
REF_SEED = 1000003
SHA_SEEDS = 32  # seeds 0 .. 31 get a stored CSV digest


def main() -> int:
    scratch = bench.prepare()
    try:
        import workloads

        reference = {}
        clean = True
        for name in WORKLOAD_NAMES:
            cls = workloads.WORKLOADS[name]
            big = cls(REF_SEED, scratch, scale=SCALE)
            big.setup()
            result = big.analyze(big.iterate(big.workers))
            entry = {"seed": REF_SEED, "scale": SCALE, "size": big.size(),
                     "stats": {k: list(v) for k, v in sorted(result.stats.items())}}
            if result.appendix:
                entry["appendix"] = {k: v["passed"] for k, v in sorted(result.appendix.items())}
            entry["sha256"] = {}
            worst = 0.0
            for seed in range(SHA_SEEDS):
                w = cls(seed, scratch)
                raw = w.iterate(w.workers)
                entry["sha256"][str(seed)] = hashlib.sha256("".join(raw.csvs).encode()).hexdigest()
                got = w.analyze(raw)
                for key, (mean, se) in got.stats.items():
                    ref_mean, ref_se = entry["stats"][key]
                    worst = max(worst, abs(mean - ref_mean) / math.hypot(se, ref_se))
                problems = checks.compare_stats(got.stats, entry["stats"])
                if "appendix" in entry:
                    problems += checks.compare_appendix(got.appendix, entry["appendix"])
                for p in problems:
                    clean = False
                    print(f"{name} seed {seed}: {p}", file=sys.stderr)
            print(f"{name}: {len(entry['stats'])} checked means, largest |z| over "
                  f"{SHA_SEEDS} seeds {worst:.2f}")
            reference[name] = entry
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        return 0 if clean else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
