"""Cell shapes that no report digest holds.

The golden and sweep digests cover healthy runs, whose cells all pass.
The cells pinned here are the others: the "no adjunction witness" cells
of the negative-control diagrams, the error cells an exception becomes
(with their ``expected`` and ``note``), the vacuous cells of empty
menus, the cell of a degenerate Serre pairing and the cells of a cone
whose homology differs from the third vertex of its triangle.  Each entry of
``CELL_SHAPES`` is the SHA-256 of the JSON of a report's sorted cells.

Every report is built once, in the module-scoped ``reports`` fixture.
"""

import hashlib
import json
from pathlib import Path

import pytest

from gluecat.algebra import Quiver, path_algebra
from gluecat.field import PrimeField
from gluecat.recollement import (
    PipelineFunctor,
    build_recollement,
    default_menu,
    default_menus,
    original_diagram,
    primitive_adjunctions,
    verify_axioms,
)
from gluecat.reflect import NEW_ADJOINT_EXPRS, assemble_reflected
from gluecat.serre import (
    SingularPairingError,
    attach_serre,
    intrinsic_nakayama_crosscheck,
    serre_axiom_check,
)

CELL_SHAPES = {
    "mismatched-third-vertex":
        "0a995713ef902e351b87c7a33b0e1cf4e9d78f34c9d3e6f7ae15598ba462d695",
    "swapped-i^*-i^!":
        "b4d4ca7531736405dcf61b5133cef87013c5cf668bfd621e36e898cbbe9c3dfb",
    "substituted-i_?-upper":
        "b9955331e8c9238c027b7d3acf497ff4f90a012c6d1ddf5c197c4589c8276be7",
    "broken-forward_matrix":
        "6b435de8f4c920b3d1427c865b7001c0d9228c9c24886260e5adf452e82b6f1a",
    "broken-counit-(i^*, i_*)":
        "d8df72cd745ef6b6ac58ec8a25abdf4659c5979392b98f28af7d2f34ea5d83ed",
    "broken-counit-(i_*, i^!)":
        "2e35e48be0b19bbfd0de20a8653086b9f5b009014a32d3b12d704a22c91e86f7",
    "exhausted-forward_matrix":
        "072a6dbc3735a76537c6b60e2788da48e2abf9854c87f34a609ce86ece41b3fb",
    "exhausted-serre-T":
        "8188f508eaca18a1142117fda372a4edf85cd6e39ebdae8fcedd849e7c760e51",
    "exhausted-nakayama-S":
        "0bafdbfb9ba65e90fb38ac394791e36cf3cdc6650690705adb47f201558b1fa0",
    "empty-menu-original":
        "6821944ec3a5e2fe2c4b406ed23a6d9a2e57f9cbd0d5d4472e43e0d880418e65",
    "empty-menu-serre-T":
        "4f12d3e4484a01d842f914283d2e1d979acdcf8c6b4b2b1aa2e56688d97c84f6",
    "singular-S-gram":
        "69996699dda004a74e227269ec6923ec3162139cf3d90b730b967358c9530eea",
}


def _workbench(n, arrows, e):
    rec = build_recollement(path_algebra(Quiver(n, arrows), PrimeField(32003)), e, seed=17)
    return rec, attach_serre(rec)


def _raiser(exc):
    def raise_it(*args, **kwargs):
        raise exc

    return raise_it


def _f2_controls(out):
    """The two negative controls of ``scripts/corruption_demo.py`` (and
    of acceptance criterion 6), and an original diagram whose third
    vertex of R1.4a is j_! j^* where j_* j^* belongs."""
    rec, sd = _workbench(3, ((0, 1), (1, 2)), [2])
    menus = default_menus(rec)
    swapped = original_diagram(rec)
    swapped.pairs["P1"].F, swapped.pairs["P1"].provider = swapped.emb_right, None
    swapped.pairs["P2"].G, swapped.pairs["P2"].provider = swapped.emb_left, None
    out["swapped-i^*-i^!"] = verify_axioms(swapped, menus, seed=17)
    upper = assemble_reflected(rec, sd, "upper")
    upper.quot_left = PipelineFunctor(rec, NEW_ADJOINT_EXPRS["i_?"], "i_?")
    upper.pairs["P3"].F, upper.pairs["P3"].provider = upper.quot_left, None
    out["substituted-i_?-upper"] = verify_axioms(upper, menus, seed=17)
    mismatched = original_diagram(rec)
    mismatched.quot_right = mismatched.quot_left
    out["mismatched-third-vertex"] = verify_axioms(mismatched, menus, seed=17)


def _f1_guards(out):
    """The reports of the guard tests, an empty-menu report of each
    suite and a degenerate S pairing, all on F1."""
    rec, sd = _workbench(2, ((0, 1),), [1])
    menus = default_menus(rec)
    broken = _raiser(ZeroDivisionError("broken witness"))
    for key, pair, method in [
        ("broken-forward_matrix", "(i^*, i_*)", "forward_matrix"),
        ("broken-counit-(i^*, i_*)", "(i^*, i_*)", "counit"),
        ("broken-counit-(i_*, i^!)", "(i_*, i^!)", "counit"),
        ("exhausted-forward_matrix", "(i^*, i_*)", "forward_matrix"),
    ]:
        providers = primitive_adjunctions(rec)
        if key.startswith("exhausted"):
            setattr(providers[pair], method, _raiser(MemoryError("Unable to allocate 3.12 GiB")))
        else:
            setattr(providers[pair], method, broken)
        out[key] = verify_axioms(original_diagram(rec, providers), menus, seed=11)

    exhausted = _raiser(MemoryError("Unable to allocate 974 MiB"))
    ctx, menu_a = sd.ctx, menus["A"]
    victim, dims = menu_a[0][1], ctx.derived_hom_dims
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            ctx, "derived_hom_dims", lambda x, y: exhausted() if x is y is victim else dims(x, y)
        )
        out["exhausted-serre-T"] = serre_axiom_check(sd, "T", menu_a, seed=31, pairing_pairs=4)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ctx, "derived_iso_certificate", exhausted)
        out["exhausted-nakayama-S"] = intrinsic_nakayama_crosscheck(sd, "S", seed=17)

    empty = {tag: [] for tag in ("A", "B", "C")}
    out["empty-menu-original"] = verify_axioms(original_diagram(rec), empty, seed=17)
    out["empty-menu-serre-T"] = serre_axiom_check(sd, "T", [], seed=31)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            "gluecat.serre.serre_pairing",
            _raiser(SingularPairingError("induced S-pairing is degenerate")),
        )
        one = default_menu(rec, "B")[:1]
        out["singular-S-gram"] = serre_axiom_check(sd, "S", one, seed=31)


@pytest.fixture(scope="module")
def reports():
    out = {}
    _f2_controls(out)
    _f1_guards(out)
    return out


def _digest(report) -> str:
    cells = [c.to_dict() for c in report.sorted_cells()]
    return hashlib.sha256(json.dumps(cells, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(CELL_SHAPES))
def test_cell_shapes_are_pinned(reports, key):
    assert _digest(reports[key]) == CELL_SHAPES[key]


def test_the_pinned_reports_hold_the_shapes(reports):
    # each report holds the cells it is pinned for
    def actuals(key):
        return {str(c.actual) for c in reports[key].cells}

    for key in ("swapped-i^*-i^!", "substituted-i_?-upper"):
        assert "no adjunction witness" in actuals(key)
    assert {c.axiom for c in reports["swapped-i^*-i^!"].cells
            if c.actual == "no adjunction witness"} == {"R1.3", "R1.4a", "EssIm"}
    assert {c.axiom for c in reports["substituted-i_?-upper"].cells
            if c.actual == "no adjunction witness"} >= {"R1.3", "R1.4b"}
    assert "error: ZeroDivisionError: broken witness" in actuals("broken-counit-(i_*, i^!)")
    assert "error: MemoryError: Unable to allocate 974 MiB" in actuals("exhausted-serre-T")
    for key in ("empty-menu-original", "empty-menu-serre-T"):
        assert [c.objects for c in reports[key].cells] == ["(empty menu)"]
    mismatch = [c for c in reports["mismatched-third-vertex"].cells if c.verdict == "fail"]
    assert "cone homology mismatch" in {c.note for c in mismatch}
    gram = [c for c in reports["singular-S-gram"].cells if c.axiom == "S.gram"]
    assert [(c.actual, c.verdict, c.note) for c in gram] == [
        ("induced S-pairing is degenerate", "fail", "")
    ]


def test_readme_documents_every_axiom_and_note(reports):
    # together the pinned reports reach every axiom code of the three
    # suites and every note a cell can carry
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Report cells", 1)[1].split("\n## ", 1)[0]
    rows = {line.split("|")[1].strip() for line in section.splitlines() if line.startswith("| ")}
    for rep in reports.values():
        for c in rep.cells:
            assert c.axiom in rows, c.axiom
            assert f"`{c.note}`" in section or (c.note == "" and '`""`' in section), c.note
