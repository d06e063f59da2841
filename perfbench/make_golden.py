"""Record the golden outputs the benchmark checks against.

    python3 perfbench/make_golden.py

Runs every operation of every workload once on the seed-17 scenario
templates and writes ``golden.json``.  Re-record only when a change is
meant to alter gluecat's outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads as wl
from passrun import import_gluecat

HERE = Path(__file__).resolve().parent


def apply_labels(gluecat, scenario: Path) -> list[str]:
    """'<functor> <object>' for every functor and every menu object of its source."""
    from gluecat.recollement import FunctorExpr, default_menu
    from gluecat.reflect import NEW_ADJOINT_EXPRS
    from gluecat.serre import INDUCED_EXPRS

    _, rec = wl.build_recollement(gluecat, scenario)
    gluecat.attach_serre(rec)  # registers T and T~, as apply does
    labels = []
    for name in wl.FUNCTOR_NAMES:
        expr = INDUCED_EXPRS.get(name) or NEW_ADJOINT_EXPRS.get(name) or FunctorExpr((name,))
        src_tag, _ = expr.signature(rec.registry)
        labels.extend(f"{name} {obj}" for obj, _ in default_menu(rec, src_tag))
    return labels


def main() -> int:
    gluecat, cli = import_gluecat()
    scen = wl.SCENARIO_DIR
    golden: dict = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        report = Path(tmp) / "report.json"
        golden["verify-fixtures"] = {
            name: wl.run_verify(cli, scen / f"{name}.json", report)[0]
            for name in wl.WORKLOADS["verify-fixtures"]
        }
    golden["original-large"] = {
        name: wl.run_original(gluecat, scen / f"{name}.json")[0]
        for name in wl.WORKLOADS["original-large"]
    }
    golden["apply-cold"] = {
        name: {label: wl.run_apply(cli, scen / f"{name}.json", label)[0]
               for label in apply_labels(gluecat, scen / f"{name}.json")}
        for name in wl.WORKLOADS["apply-cold"]
    }
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"apply ops: {sum(len(v) for v in golden['apply-cold'].values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
