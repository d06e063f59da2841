"""Byte-identity gate: ``gluecat verify`` must reproduce the golden report.

The benchmark's ``perfbench/golden.json`` records the SHA-256 of the
seed-17 ``verify`` report of each fixture.  A change that is meant to
keep behaviour (a refactor or an optimisation) must leave these digests
unchanged.  All three fixtures run here; F3, the Kronecker quiver, is
the only one with parallel arrows.

The full ``verify`` reports of the five larger scenarios (A3 e={2},
A4 e={3,4}, A4 e={4}, A5 e={5} and D4) are pinned here by digest, run on
their files as they are and with all three diagrams.  The files verify
the original diagram only, so the second run is what checks the
reflected diagrams on a branching vertex (D4) and with |e| = 2.

It also records the digest of the original-diagram cells of the larger
scenarios.  A3 e={2} and D4 (arrows into the centre, e = centre) run
here; D4 is the only shape with a branching vertex.

For ``gluecat apply`` it records the homology of every functor on every
menu object of F2, A4 e={4} and D4.  Two slices run here, each call
building its own workbench as the command does: each of the sixteen
functors on the first menu object of its source category, and one
functor per source category (T on A, S on B, U on C) on every menu
object, which reaches every kind of menu object.

The fixture verify runs and both ``apply`` slices run under the
``dense_laws`` fixture: every algebra, module and bimodule they build,
also those the library builds unchecked as proved, must pass the dense
oracles.

The ``verify`` report of the frontier scenario K3 (three arrows 1→2,
p = 32003, all three diagrams) is pinned in ``tests/test_scripts.py``.
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
from gluecat.serre import SERRE_FUNCTORS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["F1", "F2", "F3"])
def test_verify_report_matches_golden_digest(tmp_path, capsys, dense_laws, name):
    scenario = json.loads((PERFBENCH / "scenarios" / f"{name}.json").read_text(encoding="utf-8"))
    scenario["seed"] = 17
    scenario_path = tmp_path / f"{name}.json"
    scenario_path.write_text(json.dumps(scenario, indent=2) + "\n", encoding="utf-8")
    report = tmp_path / "report.json"
    assert main(["verify", str(scenario_path), "--report", str(report), "--quiet"]) == 0
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == golden["verify-fixtures"][name]["report_sha256"]


# SHA-256 of the ``verify`` report of each larger scenario, by whether
# the reflected diagrams are verified too
LARGER_REPORTS = {
    ("A3-e2", False): "a171a41c810d8a149fe77785b692445a085021c00ff433b8612d6e21a7b65697",
    ("A4-e34", False): "332910a872379cce7337e71b6599b531dcd581adade6d7d7fc82bacea744b780",
    ("A4-e4", False): "17a2f1fe49fc10e3c596944b5c3162186ec9f8828e34364306be6a3431407561",
    ("A5-e5", False): "56dcfff370b398fb4eba3a5df5771cb4713738373d406213982fe58b0c028f7f",
    ("D4-centre", False): "9889d6af450182a0a0580072e9cf4943c806c31a035b1ccef48aee6526a17880",
    ("A3-e2", True): "54d678b98a7a38774dbbac66417a38d6d333b05c8116bd550cc3653bd276a734",
    ("A4-e34", True): "ad3029d5f472870b04cd4031637250fb556c8d256213652d3bb64b501e691175",
    ("A4-e4", True): "bd9115d75fbf824dff6b682ab17d4acf227e2a43603f6de931f7a26e7abe1717",
    ("A5-e5", True): "3aeb11de915c308fea52175c5f74cb675280a489ec4deecc816c65dba251b8fb",
    ("D4-centre", True): "8ed5e51a9739d33c84cc322e0f45a6a0bdd978e853a7d160ef594707959caac3",
}


@pytest.mark.parametrize("name, reflected", sorted(LARGER_REPORTS))
def test_larger_verify_report_matches_its_digest(tmp_path, capsys, name, reflected):
    scenario = PERFBENCH / "scenarios" / f"{name}.json"
    if reflected:
        data = json.loads(scenario.read_text(encoding="utf-8"))
        data["variants"] = ["original", "upper", "lower"]
        scenario = tmp_path / f"{name}.json"
        scenario.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    report = tmp_path / "report.json"
    assert main(["verify", str(scenario), "--report", str(report), "--quiet"]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == LARGER_REPORTS[name, reflected]


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
def test_apply_matches_golden_on_the_first_menu_object(capsys, dense_laws, name):
    path = PERFBENCH / "scenarios" / f"{name}.json"
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))["apply-cold"][name]
    rec, _ = _build_workbench(load_scenario(str(path)))
    for functor in FUNCTOR_NAMES:
        src_tag, _ = _functor_expr(rec, functor).signature(rec.registry)
        label = f"{functor} {default_menu(rec, src_tag)[0][0]}"
        assert main(["apply", str(path), *label.split(" ", 1)]) == 0
        out = capsys.readouterr().out.strip().splitlines()[-1]
        assert json.loads(out) == golden[label], label


@pytest.mark.parametrize("name", ["F2", "A4-e4", "D4-centre"])
def test_apply_matches_golden_on_every_menu_object(capsys, dense_laws, name):
    path = PERFBENCH / "scenarios" / f"{name}.json"
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))["apply-cold"][name]
    rec, _ = _build_workbench(load_scenario(str(path)))
    for tag, (functor, _) in SERRE_FUNCTORS.items():
        for entry, _ in default_menu(rec, tag):
            label = f"{functor} {entry}"
            assert main(["apply", str(path), functor, entry]) == 0
            out = capsys.readouterr().out.strip().splitlines()[-1]
            assert json.loads(out) == golden[label], label
