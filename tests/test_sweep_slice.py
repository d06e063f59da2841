"""The A3 slice of the small-tree sweep (``scripts/sweep.py``), in-process.

Each of the four orientations of A3, with each single-vertex e, is
verified through ``cli.main`` with all three diagrams at p = 32003.  Every
case exits 0 and its report is pinned by SHA-256.  The orientation
2→1, 3→2 with e = {1} is the one where a map out of i_*(B:cone), a plain
complex equal to a replacement, once reached a lift.  Derived Hom on the
projectives and simples of A, B and C agrees with the resolution oracle
``ext_dims``.  Every algebra, module and bimodule a case builds passes
the dense oracles (the ``dense_laws`` fixture).
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from gluecat.cli import _build_workbench, main
from gluecat.complexes import stalk_complex
from gluecat.modules import projectives
from gluecat.scenarios import parse_scenario

from oracles import ext_dims, simples

SWEEP = Path(__file__).resolve().parent.parent / "scripts" / "sweep.py"

# SHA-256 of the ``verify`` report of each case, named as the sweep
# names it
A3_REPORTS = {
    "A3 1>2,2>3 e=1": "3da7b613a283f64fb8239f835c2c8e9340e35ab7ec207551305051aba6c2eff2",
    "A3 1>2,2>3 e=2": "910387e051b440198f08e55e8fe5cfcd4b47886f7a41330f4eb5e46dd3a1ae62",
    "A3 1>2,2>3 e=3": "328369d11447de8070ccedec8d8eb635b10c929848bd842442b161e3ba013abb",
    "A3 1>2,3>2 e=1": "579a2d60fa728511031b9105cbb053cc0d5c445475e199068d8544d731b17c87",
    "A3 1>2,3>2 e=2": "6dd8671c12f05658c93c17398d72386f5e49e6410ff7eb94dc60560496ea7c15",
    "A3 1>2,3>2 e=3": "b50212d8f806f3f7914ae4914e80c2b6b3279b4800e1b31d480327ed157fc52b",
    "A3 2>1,2>3 e=1": "6113762a1ea094187364ab1300a71b10186e10361891d82d38f899dccf297d20",
    "A3 2>1,2>3 e=2": "d17247e8f5afd07c8929a5da9b3631f195214ce78ad9fb295598ff474dc85491",
    "A3 2>1,2>3 e=3": "29c5a55a143d6e5f1e3f6ab35e1e347d13946f60dbcb965e7fd6cb39ff44b055",
    "A3 2>1,3>2 e=1": "ef49238f7f76f9f93c4165935722a461f2b8cf29db3e517210993b69d4b85c3e",
    "A3 2>1,3>2 e=2": "faeefd80819afe39809f68f66ce6a65cfdc9e2a7a2a00e8871d03d69f69732f1",
    "A3 2>1,3>2 e=3": "7536899934e34f6eae6032cfc9ec50282a99566d6017766f7c13c04db537e0b1",
}


def _a3_cases() -> dict:
    spec = importlib.util.spec_from_file_location("sweep", SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return dict(sweep.cases("A3"))


A3_CASES = _a3_cases()


def test_the_slice_is_every_a3_case_of_the_sweep():
    assert set(A3_CASES) == set(A3_REPORTS)


@pytest.mark.parametrize("name", sorted(A3_REPORTS))
def test_a3_case_passes_with_its_report(tmp_path, capsys, dense_laws, name):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(A3_CASES[name]), encoding="utf-8")
    report = tmp_path / "report.json"
    assert main(["verify", str(path), "--report", str(report), "--quiet"]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == A3_REPORTS[name]


@pytest.mark.parametrize("name", sorted(A3_REPORTS))
def test_a3_case_derived_hom_matches_ext_oracle(name):
    rec, _ = _build_workbench(parse_scenario(A3_CASES[name]))
    for algebra in (rec.algebra, rec.quotient_algebra, rec.corner_algebra):
        mods = projectives(algebra) + simples(algebra)
        for m in mods:
            for n in mods:
                # A3 and its quotient and corner are hereditary, so
                # nothing lies beyond Ext^1
                oracle = ext_dims(m, n, 2)
                got = rec.ctx.derived_hom_dims(stalk_complex(m), stalk_complex(n))
                assert got == {k: d for k, d in enumerate(oracle) if d}, (name, m.name, n.name)
