"""gluecat benchmark: one command, one workload, one JSON line.

    python3 perfbench/run.py --workload verify-fixtures --seed 17 --seconds 35 --trace 0

Run from the root of a source checkout.  Each pass of the workload runs
in a fresh single-threaded process (``passrun.py``); the run repeats
whole passes, closed loop with one client, while another pass still fits
in ``--seconds`` (at least one).  With ``--trace 1`` it runs one plain
pass and one traced pass and reports the per-layer metrics instead.

The metric names and units come from ``BENCHMARK.json``.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it are a readable summary.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from hostspeed import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
DEADLINE_S = 170          # the whole run must end well within 180 s
SETUP_REPS = 10           # set-up repetitions per plain pass


def run_pass(workload: str, scenarios: Path, deadline: float, *, trace=False, probe=False, setup_reps=0) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
           "--scenarios", str(scenarios), "--work", str(WORK), "--setup-reps", str(setup_reps)]
    cmd += ["--trace"] * trace + ["--probe-defects"] * probe
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[dict], key: str = "time") -> dict[str, float]:
    """The end-to-end figures from op times at nominal host speed (or raw ``wall``).

    Each op counts once, with its median over the passes, so the figures
    do not depend on how many passes fitted in the run.
    """
    runs = {}
    for p in passes:
        for op in p["ops"]:
            runs.setdefault((op["scenario"], op["label"]), []).append(op)
    times = [statistics.median(op[key] for op in ops) for ops in runs.values()]
    cells = [statistics.median(op["cells"] * (op["error"] is None) for op in ops) for ops in runs.values()]
    return {
        "cells_per_s": sum(cells) / sum(times),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1000 * statistics.median(times),
        "op_p90_ms": 1000 * percentile(times, 90),
        "setup_s": statistics.median(s[key] for p in passes for s in p["setup"]),
        "peak_rss_mb": max(p["maxrss_kb"] for p in passes) / 1024,
    }


def per_layer(plain: dict, traced: dict) -> dict[str, float]:
    """The traced pass's layer figures, plus per-scenario times of the plain pass."""
    out = dict(traced["layers"])
    for scn in {op["scenario"] for op in plain["ops"]}:
        mine = [op for op in plain["ops"] if op["scenario"] == scn]
        out[f"scenario.{scn}.wall_s"] = sum(op["wall"] for op in mine)
        out[f"scenario.{scn}.cpu_s"] = sum(op["cpu"] for op in mine)
    plain_time = sum(op["time"] for op in plain["ops"])
    out["trace.overhead_frac"] = sum(op["time"] for op in traced["ops"]) / plain_time - 1
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "gluecat" / "__init__.py").is_file():
        print(f"error: no gluecat sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    deadline = time.monotonic() + DEADLINE_S
    scenarios = WORK / "scenarios"
    wl.write_scenarios((*wl.WORKLOADS[args.workload], *wl.KNOWN_DEFECTS.get(args.workload, {})),
                       args.seed, scenarios)

    start = time.monotonic()
    passes = [run_pass(args.workload, scenarios, deadline, probe=True, setup_reps=SETUP_REPS)]
    if args.trace:
        traced = run_pass(args.workload, scenarios, deadline, trace=True)
        values, wanted = per_layer(passes[0], traced), spec["per_layer"]
        passes.append(traced)
    else:
        last = time.monotonic() - start - passes[0]["probe_s"]
        while time.monotonic() - start + last <= args.seconds:
            t0 = time.monotonic()
            passes.append(run_pass(args.workload, scenarios, deadline, setup_reps=SETUP_REPS))
            last = time.monotonic() - t0
        values, wanted = end_to_end(passes), spec["end_to_end"]
        raw = end_to_end(passes, key="wall")

    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["error"] is not None]
    for op in failed[:10]:
        print(f"FAILED {op['scenario']} {op['label']}: {op['error']}")
    print(f"{args.workload}: {len(passes)} pass(es), {len(ops)} ops, "
          f"failed_frac {len(failed)}/{len(ops)} = {len(failed) / len(ops):.4f}")
    kernel = [p["kernel_s"] for p in passes]
    print(f"host speed: reference kernel mean {1e3 * statistics.fmean(kernel):.4f} ms "
          f"over {len(kernel)} pass(es), nominal {1e3 * NOMINAL_S:.4f} ms")
    for scn, outcome in passes[0]["defects"].items():
        expected = wl.KNOWN_DEFECTS[args.workload][scn]
        state = "still present" if outcome.startswith(expected + ":") else "CHANGED"
        print(f"known defect {scn} ({state}; expected {expected}): {outcome}")

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        line = f"  {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']}"
        if not args.trace:
            line += f"   (raw wall clock: {raw[m['name']]:.6g})"
        print(line)
    if args.trace:
        table = WORK / f"layers-{args.workload}.json"
        table.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"  every traced figure ({len(values)}): {table.relative_to(ROOT)}; "
              f"spans: {(WORK / f'spans-{args.workload}.npz').relative_to(ROOT)}")
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
