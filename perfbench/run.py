"""Benchmark harness for logbesov.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/` next
to this directory.  One process runs one workload, closed loop with a
single client: the next op starts when the previous one returns.

--trace 0 sets up SETUP_REPS times, runs one untimed warm-up op, then
times ops for S seconds and prints the end-to-end metrics.  --trace 1
wraps every layer (see tracer.py), runs one set-up and the workload's
fixed traced pass, then times untraced ops for the rest of S seconds, and
prints the per-layer metrics, including the tracing overhead.

Op times are gated relative to the workload's reference kernel
(workloads.ReferenceKernel), timed between consecutive ops: on a shared
machine whose speed drifts by a third within a minute, the ratio holds
where wall seconds do not.  Wall-clock figures are printed on the summary
lines.  NumPy's huge-page advice is switched off for the process, so the
page size of large arrays does not depend on how fragmented the machine's
memory happens to be.

Every op is checked against the reference pinned for its input (gate.py).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Lines before it echo the
environment and summarise the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 3
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PAGE_PIN = {"NUMPY_MADVISE_HUGEPAGE": "0"}
WARMUP_OPS = 1
WORKLOAD_NAMES = ("growth-exact", "growth-packets", "verdict-large", "verdict-2d")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": THREAD_CAPS,
        "page_pin": PAGE_PIN,
    }


@dataclass
class Loop:
    outs: list = field(default_factory=list)  # (input, output or exception)
    durations: list = field(default_factory=list)  # wall seconds per op
    ratios: list = field(default_factory=list)  # op time / reference-kernel time
    kernels: list = field(default_factory=list)  # reference-kernel seconds, between ops
    results: int = 0


def call_op(wl, state, inp):
    """One op; an op that raises is a failed op, not a crash: (exception, 0)."""
    import workloads

    try:
        return workloads.run_op(wl, state, inp)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return exc, 0


def closed_loop(wl, state, schedule, seconds: float, kernel, first: int = 0, warmup: int = 0) -> Loop:
    """Run ops back to back for `seconds` (at least one), timing the reference
    kernel between ops; each op's ratio divides its time by the mean of the
    kernel times just before and just after it.  The first `warmup` ops are
    checked but neither timed nor counted against `seconds`."""
    loop = Loop()
    for i in range(first, first + warmup):
        inp = schedule[i % len(schedule)]
        loop.outs.append((inp, call_op(wl, state, inp)[0]))
    k_before = kernel()
    loop.kernels.append(k_before)
    start = perf_counter()
    i = first + warmup
    while not loop.durations or perf_counter() - start < seconds:
        inp = schedule[i % len(schedule)]
        t0 = perf_counter()
        out, n = call_op(wl, state, inp)
        duration = perf_counter() - t0
        k_after = kernel()
        loop.kernels.append(k_after)
        loop.outs.append((inp, out))
        loop.durations.append(duration)
        loop.ratios.append(duration / (0.5 * (k_before + k_after)))
        loop.results += n
        k_before = k_after
        i += 1
    return loop


def gate_ops(wl, reference: dict, outs) -> tuple[int, list[str], list[str]]:
    """(failed ops, inputs of the other ops whose known defect showed, failure messages)."""
    import gate
    import workloads

    failed, defects, messages = 0, [], []
    for inp, out in outs:
        key = wl.key(inp)
        if isinstance(out, Exception):
            problems, shown = [f"raised {out!r}"], False
        elif key not in reference:
            problems, shown = ["no pinned reference"], False
        else:
            problems, shown = gate.check(workloads.record(wl, out), reference[key])
        if problems:
            failed += 1
            messages.append(f"{key}: " + "; ".join(problems[:3]))
        elif shown:
            defects.append(key)
    return failed, defects, messages


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    i = int(pos)
    j = min(i + 1, len(s) - 1)
    return s[i] + (s[j] - s[i]) * (pos - i)


def op_tail(values: list[float], unit: str) -> str:
    """The highest percentile with 10 samples beyond it, with its sample count;
    omitted when that percentile would fall below the median."""
    n = len(values)
    if n < 20:
        return f"tail omitted ({n} samples, 20 needed)"
    return f"p{100.0 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.4f} {unit} over {n} samples"


def loop_summary(loop: Loop) -> list[str]:
    busy = sum(loop.durations)
    return [
        f"ops {len(loop.durations)}, {loop.results} results in {busy:.2f} s of op time: "
        f"results_per_s {loop.results / busy:.4f}, op_p10_s {quantile(loop.durations, 0.1):.4f}, "
        f"op_p50_s {quantile(loop.durations, 0.5):.4f}, op_tail_s {op_tail(loop.durations, 's')}",
        f"kernel-relative: op_p50_ref {quantile(loop.ratios, 0.5):.4f}, "
        f"op_tail_ref {op_tail(loop.ratios, 'ref')}",
    ]


def timed_run(wl, schedule, seconds: float, import_s: float) -> dict:
    import workloads

    kernel = workloads.ReferenceKernel(wl)
    prep_s, state = [], None
    for _ in range(SETUP_REPS):
        state = None
        gc.collect()
        t0 = perf_counter()
        state = workloads.prepare(wl, schedule)
        prep_s.append(perf_counter() - t0)
    loop = closed_loop(wl, state, schedule, seconds, kernel, warmup=WARMUP_OPS)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "op_p50_ref": (statistics.median(loop.ratios), "ref"),
        "results_per_ref": (loop.results * statistics.fmean(loop.kernels) / sum(loop.durations), "1/ref"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (import_s + statistics.median(prep_s), "s"),
    }
    summary = [
        f"setup: imports {import_s:.3f} s, set-up reps "
        + ", ".join(f"{t:.3f}" for t in prep_s)
        + " s",
        *loop_summary(loop),
    ]
    return {"outs": loop.outs, "metrics": metrics, "summary": summary, "coverage": []}


def traced_run(wl, schedule, seconds: float, seed: int) -> dict:
    import workloads
    from tracer import PER_LAYER, Tracer

    kernel = workloads.ReferenceKernel(wl)
    tracer = Tracer()
    start = perf_counter()
    tracer.install()
    try:
        state = workloads.prepare(wl, schedule)
        traced = Loop()
        for i in range(wl.trace_ops):
            tracer.op = i
            one = closed_loop(wl, state, schedule, 0.0, kernel, first=i)
            traced.outs += one.outs
            traced.ratios += one.ratios
    finally:
        tracer.uninstall()
    remaining = seconds - (perf_counter() - start)
    loop = closed_loop(wl, state, schedule, remaining, kernel)
    values = tracer.metrics()
    values["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced.ratios) / statistics.median(loop.ratios) - 1.0
    )
    missing = [name for name in wl.expect_nonzero if not values.get(name)]
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"trace-{wl.name}-seed{seed}.jsonl"
    with open(spans_path, "w") as fh:
        for name, t0, t1, parent, op in tracer.spans:
            fh.write(json.dumps({"op": op, "name": name, "start": t0 - start,
                                 "end": t1 - start, "parent": parent}) + "\n")
    summary = [
        f"traced pass: set-up + {wl.trace_ops} ops, {len(tracer.spans)} spans -> "
        f"{spans_path.relative_to(ROOT)}",
        "untraced rest: " + loop_summary(loop)[0],
    ]
    summary += [f"  {name:<36} {values[name]:>16.6g} {unit}" for name, (unit, _) in PER_LAYER.items()]
    if missing:
        summary.append("coverage: no span or count for " + ", ".join(missing))
    metrics = {name: (values[name], unit) for name, (unit, _) in PER_LAYER.items()}
    return {"outs": traced.outs + loop.outs, "metrics": metrics, "summary": summary,
            "coverage": missing}


def main(argv=None) -> int:
    sys.dont_write_bytecode = True
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "logbesov" / "__init__.py").is_file():
        print(f"perfbench: {SRC} holds no logbesov package; run from a checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_CAPS | PAGE_PIN)  # before numpy loads
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import logbesov
    import gate
    import workloads

    import_s = perf_counter() - t0
    if not Path(logbesov.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported {logbesov.__file__}, not the checkout's", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    reference = gate.load_reference(wl.name)
    schedule = wl.schedule(args.seed)
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment()))
    print("schedule " + " | ".join(wl.key(inp) for inp in schedule))
    if args.trace:
        run = traced_run(wl, schedule, args.seconds, args.seed)
    else:
        run = timed_run(wl, schedule, args.seconds, import_s)
    failed, defects, messages = gate_ops(wl, reference, run["outs"])
    attempted = len(run["outs"])
    for line in run["summary"]:
        print(line)
    print(f"fail_rate {failed + len(defects)}/{attempted}: {len(defects)} ops show the pinned "
          f"known defect, {failed} fail the gate")
    if defects:
        print(f"known defect ({gate.NAN_BRACKET}) on inputs: " + ", ".join(sorted(set(defects))))
    for msg in messages[:10]:
        print(f"FAILED {msg}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not run["coverage"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
