"""Run every workload over several seeds and summarize the end-to-end metrics.

    python3 perfbench/summary.py --runs 10 --trace --out perfbench/baseline.json

Each run is a separate ``perfbench/run.py`` process, one at a time. Prints,
per workload and metric, the unit, median, quartiles, spread (interquartile
range over median, as ``statistics.quantiles(values, n=4)`` gives them) against
the metric's bound, and the sample count, then the same figures for the
wall-clock trial rate and time to CSV, which are not gated. ``--trace`` adds one traced run per
workload and prints its per-layer metrics and largest self-time shares.
``--compare OLD.json`` checks each median against an earlier summary's within
the bounds of BENCHMARK.json. Exits 1 if any run fails, any correctness check
fails, or a comparison exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Wall-clock figures every run reports beside its metrics; shown, not gated.
WALL = ("wall_trials_per_s", "wall_time_to_csv_s")


def run_one(workload: str, seed: int, seconds: int, trace: int):
    """(details, result) of one run.py process, or None when it printed none."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"  {workload} seed {seed}: exit {proc.returncode}, no result", file=sys.stderr)
        return None
    return json.loads(lines[-2]), json.loads(lines[-1])


def describe(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "n": len(values), "values": values}


def worse_by(old: float, new: float, better: str) -> float:
    """Share of ``old`` by which ``new`` is worse; negative when it is better."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args(argv)

    ok = True
    summary = {"command": "python3 perfbench/summary.py " + " ".join(argv or sys.argv[1:]),
               "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in names:
        samples: dict[str, list] = {m["name"]: [] for m in spec["end_to_end"]}
        wall: dict[str, list] = {name: [] for name in WALL}
        correct = sha_matches = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = run_one(workload, seed, spec["run_seconds"], 0)
            if out is None:
                ok = False
                continue
            details, result = out
            summary.setdefault("provenance", details["provenance"])
            correct += result["correct"]
            sha_matches += details["sha256_matches_reference"] is True
            for name in samples:
                samples[name].append(result["metrics"][name]["value"])
            for name in wall:
                wall[name].append(details[name])
        ok &= correct == args.runs
        entry = {"correct_runs": correct, "sha256_matches": sha_matches,
                 "end_to_end": {}, "seeds": [args.first_seed, args.first_seed + args.runs - 1]}
        print(f"\n{workload}: {correct}/{args.runs} runs correct, "
              f"{sha_matches} CSV digests match the reference")
        print(f"  {'metric':16s} {'unit':9s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s} {'n':>3s}")
        for m in spec["end_to_end"]:
            if not samples[m["name"]]:
                continue
            d = describe(samples[m["name"]])
            entry["end_to_end"][m["name"]] = {"unit": m["unit"], **d}
            flag = "" if d["spread"] < m["bound"] / 3 else "  (spread >= bound/3)"
            print(f"  {m['name']:16s} {m['unit']:9s} {d['median']:12.6g} {d['q1']:12.6g} "
                  f"{d['q3']:12.6g} {d['spread']:8.2%} {m['bound']:6.1%} {d['n']:3d}{flag}")
        entry["wall"] = {name: describe(v) for name, v in wall.items() if v}
        for name, d in entry["wall"].items():
            print(f"  {name:26s} {d['median']:12.6g} {d['q1']:12.6g} {d['q3']:12.6g} "
                  f"{d['spread']:8.2%}  not gated")
        if args.trace:
            out = run_one(workload, args.first_seed, spec["run_seconds"], 1)
            if out is None:
                ok = False
            else:
                details, result = out
                ok &= result["correct"]
                entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
                table = json.loads((ROOT / details["trace_file"]).read_text())["table"]
                entry["self_share"] = {k: round(v["self_share"], 4) for k, v in table.items()}
                print(f"  traced run, seed {args.first_seed}:")
                for k, v in result["metrics"].items():
                    print(f"    {k:50s} {v['value']:12.6g} {v['unit']}")
                print("    largest self-time shares: " + ", ".join(
                    f"{k} {v:.1%}" for k, v in list(entry["self_share"].items())[:5]))
        summary["workloads"][workload] = entry

    if args.compare:
        old = json.loads(args.compare.read_text())["workloads"]
        print(f"\nmedians against {args.compare}:")
        for workload, entry in summary["workloads"].items():
            for m in spec["end_to_end"]:
                if workload not in old or m["name"] not in entry["end_to_end"]:
                    continue
                before = old[workload]["end_to_end"][m["name"]]["median"]
                after = entry["end_to_end"][m["name"]]["median"]
                worse = worse_by(before, after, m["better"])
                verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
                ok &= worse <= m["bound"]
                print(f"  {workload:16s} {m['name']:16s} {before:12.6g} -> {after:12.6g} "
                      f"worse by {worse:7.2%} (bound {m['bound']:.1%}) {verdict}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
