"""Byte-identity gate: ``gluecat verify`` must reproduce the golden report.

The benchmark's ``perfbench/golden.json`` records the SHA-256 of the
seed-17 ``verify`` report of each fixture.  A change that is meant to
keep behaviour (a refactor or an optimisation) must leave these digests
unchanged.  All three fixtures run here; F3, the Kronecker quiver, is
the only one with parallel arrows.

It also records the digest of the original-diagram cells of the larger
scenarios.  A3 e={2} and D4 (arrows into the centre, e = centre) run
here; D4 is the only shape with a branching vertex.

For ``gluecat apply`` it records the homology of every functor on every
menu object of F2, A4 e={4} and D4.  A slice runs here: each of the
sixteen functors on the first menu object of its source category, each
call building its own workbench as the command does.
"""

import hashlib
import json
from pathlib import Path

import pytest

from gluecat import PrimeField, build_recollement, default_menus, original_diagram, path_algebra, verify_axioms
from gluecat.algebra import Quiver
from gluecat.cli import _build_workbench, _functor_expr, main
from gluecat.recollement import default_menu
from gluecat.scenarios import load_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["F1", "F2", "F3"])
def test_verify_report_matches_golden_digest(tmp_path, capsys, name):
    scenario = json.loads((PERFBENCH / "scenarios" / f"{name}.json").read_text(encoding="utf-8"))
    scenario["seed"] = 17
    scenario_path = tmp_path / f"{name}.json"
    scenario_path.write_text(json.dumps(scenario, indent=2) + "\n", encoding="utf-8")
    report = tmp_path / "report.json"
    assert main(["verify", str(scenario_path), "--report", str(report), "--quiet"]) == 0
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == golden["verify-fixtures"][name]["report_sha256"]


@pytest.mark.parametrize("name", ["A3-e2", "D4-centre"])
def test_original_diagram_cells_match_golden_digest(name):
    scn = load_scenario(str(PERFBENCH / "scenarios" / f"{name}.json"))
    assert scn.seed == 17
    algebra = path_algebra(Quiver(scn.vertices, tuple(scn.arrows)), PrimeField(scn.p))
    rec = build_recollement(algebra, scn.e_vertices, gldim_cap=scn.gldim_cap, seed=scn.seed, attempts=scn.attempts)
    report = verify_axioms(original_diagram(rec), default_menus(rec), seed=scn.seed,
                           attempts=scn.attempts, matrix_pairs=scn.matrix_pairs)
    cells = [c.to_dict() for c in report.sorted_cells()]
    digest = hashlib.sha256(json.dumps(cells, sort_keys=True).encode()).hexdigest()
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
    assert digest == golden["original-large"][name]["cells_sha256"]


# the functor names ``gluecat apply`` accepts, aliases excluded
FUNCTOR_NAMES = ("i_*", "i^*", "i^!", "j_!", "j^*", "j_*", "T", "T~",
                 "S", "S~", "U", "U~", "i_!", "j^?", "i_?", "j^!")


@pytest.mark.parametrize("name", ["F2", "A4-e4", "D4-centre"])
def test_apply_matches_golden_on_the_first_menu_object(capsys, name):
    path = PERFBENCH / "scenarios" / f"{name}.json"
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))["apply-cold"][name]
    rec, _ = _build_workbench(load_scenario(str(path)))
    for functor in FUNCTOR_NAMES:
        src_tag, _ = _functor_expr(rec, functor).signature(rec.registry)
        label = f"{functor} {default_menu(rec, src_tag)[0][0]}"
        assert main(["apply", str(path), *label.split(" ", 1)]) == 0
        out = capsys.readouterr().out.strip().splitlines()[-1]
        assert json.loads(out) == golden[label], label
