"""Measure the benchmark's own run-to-run spread and record it.

    python3 perfbench/steady.py --label set1 [--runs 10] [--workload NAME ...]
    python3 perfbench/steady.py --label counts --trace-repeat

Run from the root of a checkout.  Each run is a fresh `run.py` process with
its own seed (first-seed, first-seed + 1, ...), one at a time.  For every
(workload, end-to-end metric) the record holds the values, their quartiles
from `statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json.  With --trace-repeat each
workload is traced twice on one seed and the exact counts are compared.
Results are merged into `perfbench/steadiness.json` under --label.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, WORKLOAD_NAMES

RECORD = HERE / "steadiness.json"
EXACT_COUNTS = (
    "grid.fft_calls",
    "partition.decompose_calls",
    "partition.decompose_unique_ratio",
    "cubes.table_builds",
)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread_of(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-repeat", action="store_true")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    out = record.setdefault(args.label, {})
    ok = True
    for workload in args.workload or WORKLOAD_NAMES:
        if args.trace_repeat:
            a, b = (run_once(workload, args.first_seed, seconds, 1) for _ in range(2))
            counts = {k: [a["metrics"][k]["value"], b["metrics"][k]["value"]] for k in EXACT_COUNTS}
            same = all(x == y for x, y in counts.values())
            ok = ok and same and a["correct"] and b["correct"]
            out[workload] = {"seed": args.first_seed, "counts": counts, "identical": same,
                             "correct": [a["correct"], b["correct"]]}
            print(f"{workload}: exact counts {'repeat' if same else 'DIFFER'} {counts}")
            continue
        runs = [run_once(workload, s, seconds, 0)
                for s in range(args.first_seed, args.first_seed + args.runs)]
        entry = {"seeds": [args.first_seed, args.first_seed + args.runs - 1],
                 "correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": [r["attempted"] for r in runs]}
        ok = ok and entry["correct"]
        for name, bound in bounds.items():
            s = spread_of([r["metrics"][name]["value"] for r in runs])
            s["bound"] = bound
            entry[name] = s
            flag = "" if name == "setup_s" or s["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"{workload:15} {name:14} median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"(bound {bound}){flag}", flush=True)
        out[workload] = entry
        RECORD.write_text(json.dumps(record, indent=1) + "\n")
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
