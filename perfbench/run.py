"""Run one benchmark workload once and print its metrics.

    python3 perfbench/run.py --workload sweep-bound --seed 1 --seconds 60 --trace 0

Run from anywhere; compsim is imported from ``src/`` of this checkout, with
BLAS pinned to one thread per process. Standard output ends with two JSON
lines: details (provenance, CSV digest, problems found, raw samples), then
the result ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from a
separate traced run. Exits 2, printing no result, when the checkout holds
no compsim sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

import bench

# The keys of workloads.WORKLOADS, which can only be imported after bench.prepare.
WORKLOAD_NAMES = ("sweep-bound", "codebook-drops")
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((bench.SRC / "compsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in bench.BLAS_ENV},
        "git_commit": _git_commit(bench.ROOT),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "workload_size": workload.size(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        scratch = bench.prepare()
    except bench.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, scratch: Path) -> int:
    import workloads  # only now: bench.prepare has pinned BLAS threads

    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[args.workload]
    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    details = {"workload": args.workload, "trace": args.trace}
    if args.trace:
        run = bench.traced(workload, args.seconds, reference, workloads.make_tracer())
        metrics = workloads.layer_metrics(workload, run)
        iterations = run.iterations
        table = workloads.trace_table(run)
        trace_file = bench.WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "table": table,
            "spans": run.tracer.log,
        }), encoding="utf-8")
        details["trace_file"] = str(trace_file.relative_to(bench.ROOT))
        for name, row in list(table.items())[:12]:
            print(f"{name:40s} calls {row['calls']:8d}  self {row['self_s']:9.4f} s  "
                  f"share {row['self_share']:6.1%}", file=sys.stderr)
    else:
        metrics, iterations, samples = bench.end_to_end(workload, args.seconds, reference)
        details.update(samples)

    digests = {i.digest for i in iterations if i.digest is not None}
    problems = sorted({p for i in iterations for p in i.problems})
    if len(digests) > 1:
        problems.append(f"repeated iterations wrote {len(digests)} different CSV outputs")
    digest = digests.pop() if len(digests) == 1 else None
    expected = reference["sha256"].get(str(args.seed))
    details.update({
        "provenance": provenance(workload, args.seed),
        "sha256": digest,
        "sha256_matches_reference": None if expected is None or digest is None
        else digest == expected,
        "problems": problems,
    })
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(iterations),
        "failed": sum(i.failed for i in iterations),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
