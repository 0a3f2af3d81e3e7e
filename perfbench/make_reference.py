"""Pin the reference output of every pool input of the benchmark's workloads.

    python3 perfbench/make_reference.py [--workload NAME ...]

Run from the root of a checkout.  Writes `perfbench/reference/<name>.json`:
one entry per pool input, keyed like the harness keys its ops.  A verdict
whose bracket has a NaN lower bound is pinned as the known defect
`gate.NAN_BRACKET`; the harness then accepts NaN or a finite bound there.
Regenerate only when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from time import perf_counter

from run import PAGE_PIN, SRC, THREAD_CAPS, WORKLOAD_NAMES, environment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    os.environ.update(THREAD_CAPS | PAGE_PIN)
    sys.path.insert(0, str(SRC))
    import gate
    import workloads

    for name in args.workload or WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name]
        t0 = perf_counter()
        state = workloads.prepare(wl, wl.pool)
        entries = {}
        for inp in wl.pool:
            out, _ = workloads.run_op(wl, state, inp)
            rec = gate.normalise(workloads.record(wl, out))
            entry = {"record": rec}
            if wl.kind == "verdict" and math.isnan(rec["bracket"][0]):
                entry["known_defect"] = gate.NAN_BRACKET
            entries[wl.key(inp)] = entry
        defects = sorted(k for k, e in entries.items() if "known_defect" in e)
        payload = {
            "workload": name,
            "environment": environment(),
            "known_defects": defects,
            "entries": entries,
        }
        gate.REFERENCE_DIR.mkdir(exist_ok=True)
        with open(gate.reference_path(name), "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(entries)} entries, {len(defects)} known defects, "
              f"{perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
