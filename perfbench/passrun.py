"""One pass of one workload, in a fresh process.

    python3 perfbench/passrun.py --workload W --scenarios DIR --work DIR
        [--setup-reps N] [--trace] [--probe-defects]

Imports gluecat from the checkout's ``src/``, times the set-up
``--setup-reps`` times, runs every operation of the workload once and
checks its output against ``golden.json``.  Prints one JSON object as
the last line of standard output.  ``run.py`` starts it; run it by hand
only to debug.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads as wl
from hostspeed import HostSpeed
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_gluecat():
    sys.path.insert(0, str(SRC))
    import gluecat
    import gluecat.cli

    if Path(gluecat.__file__).resolve().parent != SRC / "gluecat":
        raise SystemExit(f"gluecat was imported from {gluecat.__file__}, not from {SRC}")
    return gluecat, gluecat.cli


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--scenarios", required=True, type=Path)
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--setup-reps", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe-defects", action="store_true")
    args = ap.parse_args()
    workload = args.workload

    gluecat, cli = import_gluecat()
    golden = wl.load_golden()
    defects = wl.KNOWN_DEFECTS.get(workload, {})
    scenario = {name: args.scenarios / f"{name}.json" for name in (*wl.WORKLOADS[workload], *defects)}

    speed = HostSpeed()
    speed.start()

    setup = []
    for _ in range(args.setup_reps):
        t0 = time.perf_counter()
        for name in wl.WORKLOADS[workload]:
            wl.setup_workbench(gluecat, scenario[name], with_serre=workload != "original-large")
        setup.append((t0, time.perf_counter()))

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    ops = []
    for i, (scn, label) in enumerate(wl.list_ops(workload, golden)):
        if tracer is not None:
            tracer.op = i
        t0, c0 = time.perf_counter(), time.process_time()
        error = None
        try:
            if workload == "verify-fixtures":
                output, cells = wl.run_verify(cli, scenario[scn], args.work / "report.json")
            elif workload == "original-large":
                output, cells = wl.run_original(gluecat, scenario[scn])
            else:
                output, cells = wl.run_apply(cli, scenario[scn], label)
        except Exception as exc:  # an op that raises is a failed op, not a failed benchmark
            output, cells, error = None, 0, f"{type(exc).__name__}: {exc}"
        t1, cpu = time.perf_counter(), time.process_time() - c0
        expected = golden[workload][scn][label] if workload == "apply-cold" else golden[workload][scn]
        if error is None and output != expected:
            error = f"output differs from golden: {output} != {expected}"
        ops.append({"scenario": scn, "label": label, "span": (t0, t1), "cpu": cpu,
                    "cells": cells, "error": error})
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    speed.stop()

    # "wall" is the measured time; "time" is the same at nominal host speed
    def timed(t0, t1):
        return {"wall": t1 - t0, "time": speed.correct(t0, t1)}

    for op in ops:
        op.update(timed(*op.pop("span")))
    result = {"ops": ops, "setup": [timed(*s) for s in setup], "maxrss_kb": maxrss_kb,
              "kernel_s": speed.mean(), "defects": {}}

    t0 = time.perf_counter()
    if args.probe_defects:
        for scn in defects:
            try:
                wl.run_original(gluecat, scenario[scn])
                result["defects"][scn] = "no error"
            except Exception as exc:  # the defect is expected to raise; record what it raised
                result["defects"][scn] = f"{type(exc).__name__}: {exc}"
    result["probe_s"] = time.perf_counter() - t0

    if tracer is not None:
        tracer.dump(args.work / f"spans-{workload}")
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
