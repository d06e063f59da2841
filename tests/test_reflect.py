import numpy as np
import pytest

from gluecat.algebra import Quiver, path_algebra
from gluecat.complexes import homology_dims, stalk_complex
from gluecat.field import PrimeField
from gluecat.modules import projective_module, regular_module, simple_module
from gluecat.recollement import (
    FunctorExpr,
    build_recollement,
    default_menus,
    original_diagram,
    verify_axioms,
)
from gluecat.reflect import (
    MIRROR_ROWS,
    NEW_ADJOINT_EXPRS,
    CompositeAdjunction,
    assemble_reflected,
    composite_adjunctions,
)
from gluecat.serre import INDUCED_EXPRS, SERRE_FUNCTORS, attach_serre
from oracles import composite_pair_by_formula


@pytest.fixture(scope="module")
def setup_f1():
    gf = PrimeField(32003)
    a = path_algebra(Quiver(2, ((0, 1),)), gf)
    rec = build_recollement(a, [1], seed=17)
    sd = attach_serre(rec)
    return rec, sd


@pytest.fixture(scope="module")
def setup_f2():
    gf = PrimeField(32003)
    a = path_algebra(Quiver(3, ((0, 1), (1, 2))), gf)
    rec = build_recollement(a, [2], seed=17)
    sd = attach_serre(rec)
    return rec, sd


def test_new_adjoint_pipelines_expand_as_printed():
    assert NEW_ADJOINT_EXPRS["i_!"].steps == ("i_*", "T", "i^!", "i_*", "T~")
    assert NEW_ADJOINT_EXPRS["j^?"].steps == ("T", "j^*", "j_*", "T~", "j^*")
    assert NEW_ADJOINT_EXPRS["i_?"].steps == ("i_*", "T~", "i^*", "i_*", "T")
    assert NEW_ADJOINT_EXPRS["j^!"].steps == ("T~", "j^*", "j_!", "T", "j^*")


def _mirror_steps(sd, pair, side):
    """The steps of the new adjoint that the row (pair, side) describes:
    R (G,) L for a new left adjoint of F, L (F,) R for a new right adjoint
    of G, with R and L the right and left Serre functors of the categories
    where F lands and starts."""
    prim = sd.adjunctions[pair]
    right = SERRE_FUNCTORS[prim.F.tgt_tag][0]
    left = SERRE_FUNCTORS[prim.F.src_tag][1]
    r_steps, l_steps = (INDUCED_EXPRS[n].steps if n in INDUCED_EXPRS else (n,) for n in (right, left))
    if side == "left":
        return r_steps + (prim.G.name,) + l_steps
    return l_steps + (prim.F.name,) + r_steps


def test_mirror_rows_agree_with_the_new_adjoint_expressions(setup_f1):
    _, sd = setup_f1
    rows = [(pair, side) for pair in sd.adjunctions for side in ("left", "right")]
    for new, row in MIRROR_ROWS.items():
        # the table's row, and no other, expands to the printed pipeline
        matching = [r for r in rows if _mirror_steps(sd, *r) == NEW_ADJOINT_EXPRS[new].steps]
        assert matching == [row], new


def test_pipeline_signatures(setup_f1):
    rec, _ = setup_f1
    assert NEW_ADJOINT_EXPRS["i_!"].signature(rec.registry) == ("B", "A")
    assert NEW_ADJOINT_EXPRS["j^?"].signature(rec.registry) == ("A", "C")
    assert NEW_ADJOINT_EXPRS["i_?"].signature(rec.registry) == ("B", "A")
    assert NEW_ADJOINT_EXPRS["j^!"].signature(rec.registry) == ("A", "C")


def test_composite_adjunction_dims_f1(setup_f1):
    rec, sd = setup_f1
    ctx = rec.ctx
    comp = composite_adjunctions(sd)
    a = rec.algebra
    b_reg = stalk_complex(regular_module(rec.quotient_algebra), name="B")
    p1 = stalk_complex(projective_module(a, 0)[0], name="P1")
    p2 = stalk_complex(projective_module(a, 1)[0], name="P2")
    prov = comp["(i_!, i^*)"]
    # Hom(i_! B, P1) vs Hom(B, i^* P1): both dimension 1
    d1 = ctx.derived_hom_dims(prov.F_apply(b_reg), p1)
    d2 = ctx.derived_hom_dims(b_reg, prov.G_apply(p1))
    assert d1.get(0, 0) == 1 and d1 == d2
    m = prov.forward_matrix(b_reg, p1)
    assert m.shape == (1, 1) and m[0, 0] != 0
    # Hom(i_! B, P2) vs Hom(B, i^* P2): both zero (i^* P2 = 0)
    d3 = ctx.derived_hom_dims(prov.F_apply(b_reg), p2)
    d4 = ctx.derived_hom_dims(b_reg, prov.G_apply(p2))
    assert d3 == {} and d4 == {}
    assert prov.forward_matrix(b_reg, p2).shape == (0, 0)


def _adjunction_dim_tables(ctx, prov, xs, ys, window):
    for xn, x in xs:
        fx = prov.F_apply(x)
        for yn, y in ys:
            gy = prov.G_apply(y)
            lhs = ctx.derived_hom_dims(fx, y)
            rhs = ctx.derived_hom_dims(x, gy)
            for n in window:
                assert lhs.get(n, 0) == rhs.get(n, 0), (prov.name, xn, yn, n)


def test_all_four_composite_adjunction_dim_tables_f1(setup_f1):
    rec, sd = setup_f1
    ctx = rec.ctx
    comp = composite_adjunctions(sd)
    menus = default_menus(rec)
    window = range(-4, 5)
    sub = {tag: menus[tag][:4] for tag in menus}
    _adjunction_dim_tables(ctx, comp["(i_!, i^*)"], sub["B"], sub["A"], window)
    _adjunction_dim_tables(ctx, comp["(j^?, j_!)"], sub["A"], sub["C"], window)
    _adjunction_dim_tables(ctx, comp["(i^!, i_?)"], sub["A"], sub["B"], window)
    _adjunction_dim_tables(ctx, comp["(j_*, j^!)"], sub["C"], sub["A"], window)


def test_composite_matrices_mutually_inverse_f1(setup_f1):
    rec, sd = setup_f1
    comp = composite_adjunctions(sd)
    fld = rec.algebra.field
    a = rec.algebra
    s2 = stalk_complex(simple_module(a, 1), name="S2")
    b_reg = stalk_complex(regular_module(rec.quotient_algebra), name="B")
    c_reg = stalk_complex(regular_module(rec.corner_algebra), name="C")
    cases = [
        (comp["(i_!, i^*)"], b_reg, s2),
        (comp["(j^?, j_!)"], s2, c_reg),
        (comp["(i^!, i_?)"], s2, b_reg),
        (comp["(j_*, j^!)"], c_reg, s2),
    ]
    for prov, x, y in cases:
        fwd = prov.forward_matrix(x, y)
        bwd = prov.backward_matrix(x, y)
        if fwd.size:
            assert np.array_equal(fld.matmul(fwd, bwd), fld.identity(fwd.shape[0]))


@pytest.mark.parametrize("label", ["original", "upper", "lower"])
def test_layout_pairs_match_their_providers(setup_f1, label):
    rec, sd = setup_f1
    if label == "original":
        diagram = original_diagram(rec)
    else:
        diagram = assemble_reflected(rec, sd, label)
    assert diagram.label == label
    for key in ("P1", "P2", "P3", "P4"):
        pair = diagram.pairs[key]
        assert pair.provider.name == pair.label
        assert pair.F.expr == pair.provider.f_expr
        assert pair.G.expr == pair.provider.g_expr


def test_upper_variant_positions(setup_f1):
    rec, sd = setup_f1
    reflected = assemble_reflected(rec, sd, "upper")
    assert reflected.emb.label == "j_!"
    assert reflected.quot.label == "i^*"
    assert reflected.quot_right.label == "i_*"
    assert reflected.emb_right.label == "j^*"


def test_lower_variant_positions(setup_f1):
    rec, sd = setup_f1
    reflected = assemble_reflected(rec, sd, "lower")
    assert reflected.emb.label == "j_*"
    assert reflected.quot.label == "i^!"
    assert reflected.quot_right.label == "i_?"
    assert reflected.emb_left.label == "j^*"


def test_both_variants_share_outer_functors(setup_f1):
    rec, sd = setup_f1
    up = assemble_reflected(rec, sd, "upper")
    lo = assemble_reflected(rec, sd, "lower")
    assert up.quot_right.label == "i_*" and lo.quot_left.label == "i_*"
    assert up.emb_right.label == "j^*" and lo.emb_left.label == "j^*"


def test_upper_vanishing_f1(setup_f1):
    rec, sd = setup_f1
    c_reg = stalk_complex(regular_module(rec.corner_algebra), name="C")
    out = rec.apply_expr(FunctorExpr(("j_!", "i^*")), c_reg)
    assert homology_dims(out) == {}


def test_lower_vanishing_f1(setup_f1):
    rec, sd = setup_f1
    c_reg = stalk_complex(regular_module(rec.corner_algebra), name="C")
    out = rec.apply_expr(FunctorExpr(("j_*", "i^!")), c_reg)
    assert homology_dims(out) == {}


@pytest.mark.parametrize("variant", ["upper", "lower"])
def test_reflected_recollement_verifies_f1(setup_f1, variant):
    rec, sd = setup_f1
    reflected = assemble_reflected(rec, sd, variant)
    menus = default_menus(rec)
    report = verify_axioms(reflected, menus, seed=19)
    bad = [c for c in report.cells if c.verdict != "pass"]
    assert not bad, [f"{c.axiom} {c.objects} {c.note}: {c.actual}" for c in bad[:8]]


def test_corrupted_reflected_fails_f2(setup_f2):
    rec, sd = setup_f2
    reflected = assemble_reflected(rec, sd, "upper")
    # substitute i_? for i_! in the quot_left position, dims only
    from gluecat.recollement import PipelineFunctor

    reflected.quot_left = PipelineFunctor(rec, NEW_ADJOINT_EXPRS["i_?"], "i_?")
    reflected.pairs["P3"].F = reflected.quot_left
    reflected.pairs["P3"].provider = None
    menus = default_menus(rec)
    report = verify_axioms(reflected, menus, seed=19)
    r11_fail = [c for c in report.cells if c.axiom == "R1.1" and c.verdict == "fail"]
    assert r11_fail


def test_double_reflection_dimension_tables_f1(setup_f1):
    # reflecting the upper diagram reproduces adjunction tables: the
    # re-reflected left adjoints pair against j^? and i_! at dimension level
    rec, sd = setup_f1
    ctx = rec.ctx
    menus = default_menus(rec)
    window = range(-4, 5)
    # left adjoint of j^? via the upper diagram's own Serre data: T~ j_! U
    re_l1 = FunctorExpr(("j_!", "T", "j^*", "j_!", "T~"))
    # left adjoint of i_! : S~ i^* T
    re_l2 = FunctorExpr(("T", "i^*", "i_*", "T~", "i^*"))
    jq = NEW_ADJOINT_EXPRS["j^?"]
    il = NEW_ADJOINT_EXPRS["i_!"]
    for nn, n in menus["C"][:3]:
        ln = rec.apply_expr(re_l1, n)
        for xn, x in menus["A"][:3]:
            lhs = ctx.derived_hom_dims(ln, x)
            rhs = ctx.derived_hom_dims(n, rec.apply_expr(jq, x))
            for k in window:
                assert lhs.get(k, 0) == rhs.get(k, 0), (nn, xn, k)
    for xn, x in menus["A"][:3]:
        lx = rec.apply_expr(re_l2, x)
        for bn, b in menus["B"][:3]:
            lhs = ctx.derived_hom_dims(lx, b)
            rhs = ctx.derived_hom_dims(x, rec.apply_expr(il, b))
            for k in window:
                assert lhs.get(k, 0) == rhs.get(k, 0), (xn, bn, k)


@pytest.fixture(scope="module")
def suite_matrix_pairs():
    """Each ``(provider, x, y, (forward, backward))`` that
    ``CompositeAdjunction._matrix_pair`` built during the F1–F3 suites."""
    from gluecat.cli import run_suite
    from gluecat.scenarios import fixture_scenario, parse_scenario

    built = []
    matrix_pair = CompositeAdjunction._matrix_pair

    def recording(self, x, y):
        out = matrix_pair(self, x, y)
        built.append((self, x, y, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CompositeAdjunction, "_matrix_pair", recording)
        for name in ("F1", "F2", "F3"):
            run_suite(parse_scenario(fixture_scenario(name)))
    return built


def test_every_suite_matrix_pair_matches_its_own_formula(suite_matrix_pairs):
    seen = set()
    for prov, x, y, (fwd, bwd) in suite_matrix_pairs:
        ref_fwd, ref_bwd = composite_pair_by_formula(prov.sd, prov.name, x, y)
        for got, ref in ((fwd, ref_fwd), (bwd, ref_bwd)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert np.array_equal(got, ref), (prov.name, x.name, y.name)
        if fwd.size:
            seen.add(prov.name)
    assert seen == {"(i_!, i^*)", "(j^?, j_!)", "(i^!, i_?)", "(j_*, j^!)"}
