import itertools
from pathlib import Path

import numpy as np
import pytest

import gluecat.modules as modules
import gluecat.recollement as recollement
from gluecat.algebra import Quiver, path_algebra
from gluecat.complexes import BoundedComplex, ChainMap, Mor, cone, homology_dims, stalk_complex
from gluecat.field import PrimeField
from gluecat.modules import projective_module, regular_module, simple_module, tensor_over
from gluecat.recollement import (
    FunctorExpr,
    NotStratifyingError,
    TagMismatchError,
    build_recollement,
    default_menus,
    original_diagram,
    primitive_adjunctions,
    verify_axioms,
)

from gluecat.scenarios import fixture_scenario, load_scenario, parse_scenario

from oracles import (
    coords_one_by_one,
    global_dimension_by_simples,
    multiply,
    paths_between_sets,
    paths_through,
    paths_with_source,
    paths_with_target,
    solve,
    stratifying_certificate_by_search,
    truncated_path_algebra,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "perfbench" / "scenarios"


@pytest.fixture(scope="module")
def rec_f1():
    gf = PrimeField(32003)
    a = path_algebra(Quiver(2, ((0, 1),)), gf)
    return build_recollement(a, [1], seed=17)


@pytest.fixture(scope="module")
def rec_f2():
    gf = PrimeField(32003)
    a = path_algebra(Quiver(3, ((0, 1), (1, 2))), gf)
    return build_recollement(a, [2], seed=17)


@pytest.fixture(scope="module")
def rec_f3():
    gf = PrimeField(32003)
    a = path_algebra(Quiver(2, ((0, 1), (0, 1))), gf)
    return build_recollement(a, [1], seed=17)


# with |e| >= 2 some adjunction formulas meet degrees where one of the two
# complexes is zero; those components are zero, not a lookup error
@pytest.fixture(scope="module")
def rec_a3_e12():
    a = path_algebra(Quiver(3, ((0, 1), (1, 2))), PrimeField(32003))
    return build_recollement(a, [0, 1], seed=17)


@pytest.fixture(scope="module")
def rec_a4_e34():
    a = path_algebra(Quiver(4, ((0, 1), (1, 2), (2, 3))), PrimeField(32003))
    return build_recollement(a, [2, 3], seed=17)


@pytest.mark.parametrize("name", ["F1", "F2", "F3", "A4-e4", "D4-centre"])
def test_global_dimensions_build_no_cover(name, monkeypatch):
    # global_dimension reads the projectives and the generators of the
    # radical, so on these hereditary algebras it builds no cover; the
    # per-simple route built one per syzygy
    if name.startswith("F"):
        scn = parse_scenario(fixture_scenario(name))
    else:
        scn = load_scenario(str(SCENARIOS / f"{name}.json"))
    a = path_algebra(Quiver(scn.vertices, tuple(scn.arrows)), PrimeField(scn.p))
    inside, during, total = [], [], []
    build_cover, gldim = modules._build_cover, recollement.global_dimension

    def spy_cover(m):
        total.append(m.name)
        if inside:
            during.append(m.name)
        return build_cover(m)

    def spy_gldim(alg, cap):
        inside.append(alg)
        try:
            return gldim(alg, cap)
        finally:
            inside.pop()

    monkeypatch.setattr(modules, "_build_cover", spy_cover)
    monkeypatch.setattr(recollement, "global_dimension", spy_gldim)
    rec = build_recollement(a, scn.e_vertices, gldim_cap=scn.gldim_cap, seed=scn.seed)
    assert total and during == []
    algebras = {"A": rec.algebra, "B": rec.quotient_algebra, "C": rec.corner_algebra}
    assert rec.global_dimensions == {k: global_dimension_by_simples(x, scn.gldim_cap) for k, x in algebras.items()}


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------


def test_f1_builder_dimensions(rec_f1):
    arrows = [(0, 1)]
    assert rec_f1.quotient_algebra.dim == 1
    assert rec_f1.corner_algebra.dim == len(paths_between_sets(2, arrows, [1], [1])) == 1
    assert rec_f1.eA_rows.shape[0] == len(paths_with_target(2, arrows, 1)) == 2
    assert rec_f1.Ae_rows.shape[0] == len(paths_with_source(2, arrows, 1)) == 1
    assert rec_f1.ideal_rows.shape[0] == len(paths_through(2, arrows, [1])) == 2
    assert rec_f1.stratifying_certificate.certified


def test_f2_builder_dimensions(rec_f2):
    assert rec_f2.quotient_algebra.dim == 3
    assert rec_f2.corner_algebra.dim == 1
    assert rec_f2.global_dimensions == {"A": 1, "B": 1, "C": 0}


def test_f3_builder_dimensions(rec_f3):
    arrows = [(0, 1), (0, 1)]
    assert rec_f3.eA_rows.shape[0] == len(paths_with_target(2, arrows, 1)) == 3
    assert rec_f3.Ae_rows.shape[0] == 1
    assert rec_f3.ideal_rows.shape[0] == len(paths_through(2, arrows, [1])) == 3


def test_middle_vertex_of_a3_is_stratifying(alg_a3):
    # hereditary algebras have stratifying idempotent ideals, even for
    # vertex sets that are not successor-closed
    rec = build_recollement(alg_a3, [1], seed=3)
    assert rec.stratifying_certificate.certified


def test_non_stratifying_algebra_is_rejected():
    # kA_3 with the relation (2->3)(1->2) = 0, e at the middle vertex:
    # Ae (x)_C eA has dimension 4 but AeA only 3
    from gluecat.algebra import Algebra

    gf = PrimeField(32003)
    labels = ["e1", "e2", "e3", "a", "b"]
    mul = np.zeros((5, 5, 5), dtype=np.int64)
    for i in range(3):
        mul[i, i, i] = 1
    mul[1, 3, 3] = 1  # e2 * a = a
    mul[3, 0, 3] = 1  # a * e1 = a
    mul[2, 4, 4] = 1  # e3 * b = b
    mul[4, 1, 4] = 1  # b * e2 = b
    unit = np.array([1, 1, 1, 0, 0], dtype=np.int64)
    a = Algebra(gf, labels, mul, unit, [0, 1, 2], name="kA3/(ba)")
    with pytest.raises(NotStratifyingError):
        build_recollement(a, [1], seed=3)


SWEEP_QUIVERS = {
    "A3": Quiver(3, ((0, 1), (1, 2))),
    "A3 alternating": Quiver(3, ((0, 1), (2, 1))),
    "A4": Quiver(4, ((0, 1), (1, 2), (2, 3))),
    "D4": Quiver(4, ((0, 3), (1, 3), (2, 3))),
}

# (quiver, k of kQ/J^k or None for kQ) -> the 0-based vertex sets e with
# one or two vertices whose ideal AeA is not stratifying
NOT_STRATIFYING = {
    ("A3", 2): {(1,)},
    ("A4", 2): {(1,), (2,), (0, 2), (1, 2), (1, 3)},
    ("A4", 3): {(1,), (2,), (1, 2)},
}


def _mu_on_pure_tensors(rec):
    """Degree 0 of the multiplication Ae (x)^L_C eA -> AeA, evaluated on
    the pure tensor v (x) w behind each class, through ``mul_table``, and
    solved for in the basis of AeA one class at a time."""
    a, fld = rec.algebra, rec.algebra.field
    rep = rec.ctx.replacement(stalk_complex(rec.Ae.as_right_module()))
    t = tensor_over(rep.p.term(0), rec.eA)
    out = fld.zeros(t.module.dim, rec.ideal_rows.shape[0])
    for s, row in enumerate(t.section):
        (amb,) = np.flatnonzero(row)
        i, l = divmod(int(amb), t.w_dim)
        v = fld.matmul(rep.qis.comp(0)[i], rec.Ae_rows)
        out[s] = solve(fld, rec.ideal_rows.T, multiply(a, v, rec.eA_rows[l]))
    return out


def test_stratifying_certificate_sweep_matches_the_search():
    # every e of one or two vertices on A3, A3 alternating, A4 and D4 and
    # their truncations kQ/J^2 and kQ/J^3: the multiplication map is
    # certified exactly when a random search certifies some map
    fld = PrimeField(32003)
    rejected = {}
    for (name, q), k in itertools.product(SWEEP_QUIVERS.items(), (None, 2, 3)):
        a = path_algebra(q, fld) if k is None else truncated_path_algebra(q, fld, k)
        subsets = itertools.chain(*(itertools.combinations(range(q.n), r) for r in (1, 2)))
        for e in subsets:
            search = stratifying_certificate_by_search(a, list(e), seed=17)
            try:
                rec = build_recollement(a, list(e), seed=17)
            except NotStratifyingError:
                rejected.setdefault((name, k), set()).add(e)
                assert search is None or not search.certified, (name, k, e)
                continue
            assert search is not None and search.certified, (name, k, e)
            cert = rec.stratifying_certificate
            assert cert.certified and cert.attempts_used == 0 and cert.cone_homology == {}
            mu = cert.map
            assert list(mu.comps) == [0]
            assert np.array_equal(mu.comp(0), _mu_on_pure_tensors(rec)), (name, k, e)
            zero = rec.ctx.certificate_for_map(ChainMap(mu.source, mu.target, {}))
            assert not zero.certified
    assert rejected == NOT_STRATIFYING


def test_stratifying_map_that_is_not_linear_is_a_library_bug(rec_f2, monkeypatch):
    # a product table that breaks A-linearity raises RuntimeError, not
    # NotStratifyingError
    def scrambled(t, q0, ae_ea, *rest):
        return multiplication(t, q0, ae_ea[:, ::-1], *rest)

    multiplication = recollement._multiplication_map
    monkeypatch.setattr(recollement, "_multiplication_map", scrambled)
    with pytest.raises(RuntimeError, match="not A-linear|leaves AeA") as info:
        build_recollement(rec_f2.algebra, [1, 2])
    assert not isinstance(info.value, NotStratifyingError)


# ----------------------------------------------------------------------
# functor evaluation
# ----------------------------------------------------------------------


def test_jstar_on_projectives(rec_f1):
    a = rec_f1.algebra
    p2 = stalk_complex(projective_module(a, 1)[0])
    p1 = stalk_complex(projective_module(a, 0)[0])
    out2 = rec_f1.functor("j^*").apply(p2)
    out1 = rec_f1.functor("j^*").apply(p1)
    assert homology_dims(out2) == {0: 1}
    assert homology_dims(out1) == {}


def test_istar_on_projectives(rec_f1):
    a = rec_f1.algebra
    p1 = stalk_complex(projective_module(a, 0)[0])
    p2 = stalk_complex(projective_module(a, 1)[0])
    assert homology_dims(rec_f1.functor("i^*").apply(p1)) == {0: 1}
    assert homology_dims(rec_f1.functor("i^*").apply(p2)) == {}


def test_jlower_shriek_of_regular_corner(rec_f1):
    c_reg = stalk_complex(regular_module(rec_f1.corner_algebra))
    out = rec_f1.functor("j_!").apply(c_reg)
    # j_! C = eA = P2
    assert homology_dims(out) == {0: 2}


def test_istar_lower_restriction(rec_f1):
    b_reg = stalk_complex(regular_module(rec_f1.quotient_algebra))
    out = rec_f1.functor("i_*").apply(b_reg)
    assert out.algebra is rec_f1.algebra
    assert homology_dims(out) == {0: 1}


def test_tag_mismatch_rejected(rec_f1):
    b_reg = stalk_complex(regular_module(rec_f1.quotient_algebra))
    with pytest.raises(TagMismatchError):
        rec_f1.apply_expr(FunctorExpr(("j^*",)), b_reg)
    with pytest.raises(TagMismatchError):
        FunctorExpr(("i_*", "j_!")).signature(rec_f1.registry)


def test_apply_expr_rejects_ill_typed_composite(rec_f1):
    # the signature check runs before any step is applied
    b_reg = stalk_complex(regular_module(rec_f1.quotient_algebra))
    with pytest.raises(TagMismatchError, match="step j_! expects C input"):
        rec_f1.apply_expr(FunctorExpr(("i_*", "j_!")), b_reg)


def test_apply_expr_checks_every_call_until_an_expression_passes(rec_f1):
    # a checked expression keeps its source algebra; a failing one is
    # checked again on every call, and wrong input is refused every time
    b_reg = stalk_complex(regular_module(rec_f1.quotient_algebra))
    a_reg = stalk_complex(regular_module(rec_f1.algebra))
    bad = FunctorExpr(("i_*", "j_!"))
    for _ in range(2):
        with pytest.raises(TagMismatchError, match="step j_! expects C input"):
            rec_f1.apply_expr(bad, b_reg)
        assert bad not in rec_f1._sources
    good = FunctorExpr(("i_*", "j^*"))
    rec_f1.apply_expr(good, b_reg)
    assert rec_f1._sources[good] is rec_f1.quotient_algebra
    for _ in range(2):
        with pytest.raises(TagMismatchError, match="object over"):
            rec_f1.apply_expr(good, a_reg)


def test_signature_runs_once_per_expression_over_a_suite(monkeypatch):
    from gluecat.cli import run_suite
    from gluecat.recollement import Recollement
    from gluecat.scenarios import fixture_scenario, parse_scenario

    signatures, applied = [], []
    signature, apply_expr = FunctorExpr.signature, Recollement.apply_expr

    def counting_signature(self, registry):
        signatures.append(self)
        return signature(self, registry)

    def counting_apply(self, expr, x):
        applied.append((id(self), expr))
        return apply_expr(self, expr, x)

    monkeypatch.setattr(FunctorExpr, "signature", counting_signature)
    monkeypatch.setattr(Recollement, "apply_expr", counting_apply)
    run_suite(parse_scenario(fixture_scenario("F1")))
    assert len(signatures) == len(set(applied)) == len(set(signatures))
    assert len(applied) > 10 * len(signatures)


def test_ishriek_and_jstar_compose(rec_f2):
    # j^* i_* = 0 on the regular B-module
    b_reg = stalk_complex(regular_module(rec_f2.quotient_algebra))
    out = rec_f2.apply_expr(FunctorExpr(("i_*", "j^*")), b_reg)
    assert homology_dims(out) == {}


# ----------------------------------------------------------------------
# adjunction providers
# ----------------------------------------------------------------------


def _batched_rows_check(provider, x, y):
    """forward_matrix and backward_matrix reduce all their classes at
    once; each row must be the coordinates of that class on its own."""
    lhs, rhs = provider.lhs_space(x, y), provider.rhs_space(x, y)
    fwd = provider.forward_matrix(x, y)
    bwd = provider.backward_matrix(x, y)
    assert np.array_equal(fwd, coords_one_by_one(rhs, [provider.forward(x, y, m) for m in lhs.basis_mors()]))
    assert np.array_equal(bwd, coords_one_by_one(lhs, [provider.backward(x, y, m) for m in rhs.basis_mors()]))
    return fwd, bwd


def _roundtrip_check(provider, x, y):
    ctx = provider.ctx
    fld = x.field
    fwd, bwd = _batched_rows_check(provider, x, y)
    assert fwd.shape[0] == fwd.shape[1], (provider.name, fwd.shape)
    assert np.array_equal(fld.matmul(fwd, bwd), fld.identity(fwd.shape[0]))
    assert np.array_equal(fld.matmul(bwd, fwd), fld.identity(bwd.shape[0]))
    lhs = ctx.derived_hom_dims(provider.F_apply(x), y)
    rhs = ctx.derived_hom_dims(x, provider.G_apply(y))
    assert lhs == rhs


def test_star_pullback_adjunction_f1(rec_f1):
    providers = primitive_adjunctions(rec_f1)
    prov = providers["(i^*, i_*)"]
    a = rec_f1.algebra
    p1 = stalk_complex(projective_module(a, 0)[0], name="P1")
    b_reg = stalk_complex(regular_module(rec_f1.quotient_algebra), name="B")
    lhs = rec_f1.ctx.derived_hom_dims(prov.F_apply(p1), b_reg)
    assert lhs.get(0, 0) == 1
    _roundtrip_check(prov, p1, b_reg)


def test_shriek_pullback_adjunction_f1(rec_f1):
    providers = primitive_adjunctions(rec_f1)
    prov = providers["(j_!, j^*)"]
    a = rec_f1.algebra
    c_reg = stalk_complex(regular_module(rec_f1.corner_algebra), name="C")
    p2 = stalk_complex(projective_module(a, 1)[0], name="P2")
    lhs = rec_f1.ctx.derived_hom_dims(prov.F_apply(c_reg), p2)
    rhs = rec_f1.ctx.derived_hom_dims(c_reg, prov.G_apply(p2))
    assert lhs.get(0, 0) == 1 and rhs.get(0, 0) == 1
    _roundtrip_check(prov, c_reg, p2)


def test_push_shriek_adjunction_f1(rec_f1):
    providers = primitive_adjunctions(rec_f1)
    prov = providers["(i_*, i^!)"]
    b_reg = stalk_complex(regular_module(rec_f1.quotient_algebra), name="B")
    a = rec_f1.algebra
    for v in range(2):
        p = stalk_complex(projective_module(a, v)[0], name=f"P{v+1}")
        _roundtrip_check(prov, b_reg, p)


def test_star_push_adjunction_f1(rec_f1):
    providers = primitive_adjunctions(rec_f1)
    prov = providers["(j^*, j_*)"]
    c_reg = stalk_complex(regular_module(rec_f1.corner_algebra), name="C")
    a = rec_f1.algebra
    for v in range(2):
        p = stalk_complex(projective_module(a, v)[0], name=f"P{v+1}")
        _roundtrip_check(prov, p, c_reg)


def test_all_adjunctions_f2_simple_objects(rec_f2):
    providers = primitive_adjunctions(rec_f2)
    a = rec_f2.algebra
    b, c = rec_f2.quotient_algebra, rec_f2.corner_algebra
    xa = stalk_complex(simple_module(a, 1), name="S2")
    xb = stalk_complex(simple_module(b, 0), name="S1B")
    xc = stalk_complex(regular_module(c), name="C")
    _roundtrip_check(providers["(i^*, i_*)"], xa, xb)
    _roundtrip_check(providers["(i_*, i^!)"], xb, xa)
    _roundtrip_check(providers["(j_!, j^*)"], xc, xa)
    _roundtrip_check(providers["(j^*, j_*)"], xa, xc)


@pytest.mark.parametrize("fixture", ["rec_f2", "rec_f3"])
def test_batched_adjunction_matrices_match_one_class_at_a_time(fixture, request):
    rec = request.getfixturevalue(fixture)
    menus = default_menus(rec)
    rows = []
    for prov in primitive_adjunctions(rec).values():
        src, tgt = prov.f_expr.signature(rec.registry)
        for _, x in menus[src]:
            for _, y in menus[tgt]:
                rows.append(_batched_rows_check(prov, x, y)[0].shape[0])
    assert max(rows) >= 2


def test_batched_reduction_rejects_a_stack_with_one_non_cycle(rec_f2):
    # End(p) for the two-term replacement p of S2: its identity class is
    # a cycle, and each degree-0 unit vector is not
    ctx = rec_f2.ctx
    p = ctx.replacement(stalk_complex(simple_module(rec_f2.algebra, 1), name="S2")).p
    space = ctx.hom_space(p, p)
    assert space.dim == 1
    good = space.h_reps
    assert np.array_equal(space.reduce_vectors(np.concatenate([good, good])), [[1], [1]])
    bad = np.eye(good.shape[1], dtype=np.int64)[:1]
    assert space.hc.diff(0)[0].any()
    with pytest.raises(ValueError, match="not a cycle"):
        space.reduce_vectors(np.concatenate([good, bad]))


def test_unit_of_jstar_push_on_p1_is_zero(rec_f1):
    # j^* P1 = 0, so the unit P1 -> j_* j^* P1 lands in a zero complex
    providers = primitive_adjunctions(rec_f1)
    prov = providers["(j^*, j_*)"]
    a = rec_f1.algebra
    p1 = stalk_complex(projective_module(a, 0)[0], name="P1")
    eta = prov.unit(p1)
    assert eta.map.is_zero()
    assert prov.G_apply(prov.F_apply(p1)).is_zero()


def test_counit_of_istar_pullback_certifies(rec_f1):
    providers = primitive_adjunctions(rec_f1)
    prov = providers["(i^*, i_*)"]
    b_reg = stalk_complex(regular_module(rec_f1.quotient_algebra), name="B")
    eps = prov.counit(b_reg)
    cert = rec_f1.ctx.certificate_for_map(eps.map)
    assert cert.certified


def test_triangle_cone_matches_third_vertex(rec_f1):
    # cone(j_! j^* X -> X) is i_* i^* X for X = P2
    providers = primitive_adjunctions(rec_f1)
    prov = providers["(j_!, j^*)"]
    a = rec_f1.algebra
    p2 = stalk_complex(projective_module(a, 1)[0], name="P2")
    eps = prov.counit(p2)
    third = rec_f1.apply_expr(FunctorExpr(("i^*", "i_*")), p2)
    c = cone(eps.map)
    assert homology_dims(c) == homology_dims(third)
    cert = rec_f1.ctx.derived_iso_certificate(c, third, seed=5)
    assert cert.certified


# ----------------------------------------------------------------------
# verify_axioms on the original diagram
# ----------------------------------------------------------------------


@pytest.mark.parametrize("fixture_name", ["rec_f1", "rec_f2", "rec_f3", "rec_a3_e12", "rec_a4_e34"])
def test_original_recollement_axioms(request, fixture_name):
    rec = request.getfixturevalue(fixture_name)
    diagram = original_diagram(rec)
    menus = default_menus(rec)
    for tag in ("A", "B", "C"):
        assert len(menus[tag]) >= 6
    report = verify_axioms(diagram, menus, seed=11)
    bad = [c for c in report.cells if c.verdict != "pass"]
    assert not bad, [f"{c.axiom} {c.objects} {c.note}: {c.actual}" for c in bad[:8]]


@pytest.mark.parametrize(
    "pair, method, axioms",
    [
        ("(i^*, i_*)", "forward_matrix", {"R1.1"}),
        ("(i^*, i_*)", "counit", {"R1.3"}),
        ("(i_*, i^!)", "counit", {"R1.4a", "EssIm"}),
    ],
)
def test_cell_guard_turns_exceptions_into_failing_cells(rec_f1, pair, method, axioms):
    providers = primitive_adjunctions(rec_f1)

    def broken(*args):
        raise ZeroDivisionError("broken witness")

    setattr(providers[pair], method, broken)
    report = verify_axioms(original_diagram(rec_f1, providers), default_menus(rec_f1), seed=11)
    errors = [c for c in report.cells if str(c.actual).startswith("error: ")]
    assert {c.axiom for c in errors} == axioms
    for c in errors:
        assert c.verdict == "fail"
        assert c.actual == "error: ZeroDivisionError: broken witness"
    assert len(errors) == report.counts()["fail"]


def test_cell_guard_makes_a_memory_error_inconclusive(rec_f1):
    # running out of memory says nothing about the mathematics
    providers = primitive_adjunctions(rec_f1)

    def exhausted(*args):
        raise MemoryError("Unable to allocate 3.12 GiB")

    providers["(i^*, i_*)"].forward_matrix = exhausted
    report = verify_axioms(original_diagram(rec_f1, providers), default_menus(rec_f1), seed=11)
    errors = [c for c in report.cells if str(c.actual).startswith("error: ")]
    assert errors and {c.note for c in errors} == {"matrix"}
    for c in errors:
        assert c.verdict == "not-certified"
        assert c.actual == "error: MemoryError: Unable to allocate 3.12 GiB"
    assert report.counts()["fail"] == 0


def test_corrupted_diagram_fails_r11(rec_f2):
    # swap i^* and i^! (keeping dimension-only checks) and expect an
    # R1.1 dimension mismatch somewhere on the menu
    diagram = original_diagram(rec_f2)
    diagram.pairs["P1"].F, diagram.pairs["P1"].provider = diagram.emb_right, None
    diagram.pairs["P2"].G, diagram.pairs["P2"].provider = diagram.emb_left, None
    menus = default_menus(rec_f2)
    report = verify_axioms(diagram, menus, seed=11)
    r11_fail = [c for c in report.cells if c.axiom == "R1.1" and c.verdict == "fail"]
    assert r11_fail


def test_primitive_witnesses_and_stalk_resolution(rec_f1):
    a = rec_f1.algebra
    fld = a.field
    providers = primitive_adjunctions(rec_f1)
    c_reg = stalk_complex(regular_module(rec_f1.corner_algebra), name="C")
    p2 = stalk_complex(projective_module(a, 1)[0], name="P2")
    prov = providers["(j_!, j^*)"]
    m = prov.forward_matrix(c_reg, p2)
    assert m.shape == (1, 1) and m[0, 0] != 0
    assert np.array_equal(fld.matmul(m, prov.backward_matrix(c_reg, p2)), fld.identity(1))
    eta = providers["(i^*, i_*)"].unit(stalk_complex(projective_module(a, 0)[0]))
    assert eta.map is not None
    rep = rec_f1.ctx.replacement(stalk_complex(simple_module(a, 1)))
    assert rep.p.lo == -1 and rep.p.hi == 0
    rep.qis.validate()


def test_composite_adjunction_matrix_f1(rec_f1):
    from gluecat.reflect import composite_adjunctions
    from gluecat.serre import attach_serre

    sd = attach_serre(rec_f1)
    b_reg = stalk_complex(regular_module(rec_f1.quotient_algebra), name="B")
    p1 = stalk_complex(projective_module(rec_f1.algebra, 0)[0], name="P1")
    m = composite_adjunctions(sd)["(i_!, i^*)"].forward_matrix(b_reg, p1)
    assert m.shape == (1, 1) and m[0, 0] != 0


def test_dual_route_leaves_the_memoised_dual_alone():
    # a fresh recollement, so that each menu object is the first of its
    # content and the shared outputs are named after it
    rec, _ = _fresh_f1()
    ctx = rec.ctx
    for name, tag in (("i^!", "A"), ("j_*", "C"), ("T~", "A")):
        functor = rec.functor(name)
        x = default_menus(rec)[tag][0][1]
        out = functor.apply(x)
        pre = functor.aux(x)["pre"]
        assert ctx.dual(pre) is not out and ctx.dual(pre).key == out.key
        assert ctx.dual(pre).name == f"D({pre.name})"
        assert out.name == f"{name}({x.name})"


def test_triangle_euler_additivity(rec_f1):
    # per-degree alternating sums of j_! j^* X, X, i_* i^* X agree
    from oracles import euler_characteristic
    from gluecat.recollement import default_menus

    menus = default_menus(rec_f1)
    for xn, x in menus["A"]:
        left = rec_f1.apply_expr(FunctorExpr(("j^*", "j_!")), x)
        right = rec_f1.apply_expr(FunctorExpr(("i^*", "i_*")), x)
        assert euler_characteristic(left) + euler_characteristic(right) == euler_characteristic(x), xn


def test_embedding_fully_faithful_at_dimension_level(rec_f2):
    from gluecat.recollement import default_menu

    ctx = rec_f2.ctx
    istar = rec_f2.functor("i_*")
    menu_b = default_menu(rec_f2, "B")
    for xn, x in menu_b:
        for yn, y in menu_b:
            upstairs = ctx.derived_hom_dims(istar.apply(x), istar.apply(y))
            downstairs = ctx.derived_hom_dims(x, y)
            assert upstairs == downstairs, (xn, yn)


def test_unit_at_zero_object_is_zero(rec_f1):
    from gluecat.complexes import zero_complex

    prov = primitive_adjunctions(rec_f1)["(i^*, i_*)"]
    eta = prov.unit(zero_complex(rec_f1.algebra))
    assert eta.map.is_zero()


# ----------------------------------------------------------------------
# one memo rule: functor outputs, duals and composite matrices are
# built once per content
# ----------------------------------------------------------------------


def _fresh_f1():
    from gluecat.serre import attach_serre

    a = path_algebra(Quiver(2, ((0, 1),)), PrimeField(32003))
    rec = build_recollement(a, [1], seed=17)
    return rec, attach_serre(rec)


def _twins(rec, tag):
    """Two content-equal but distinct stalks over the algebra of ``tag``."""
    m = regular_module(rec.algebra_of(tag))
    return stalk_complex(m, name=f"{tag}:x"), stalk_complex(m, name=f"{tag}:x'")


def _zero_twins(rec, tag):
    a = rec.algebra_of(tag)
    return BoundedComplex(a, {}, {}, name=f"{tag}:z"), BoundedComplex(a, {}, {}, name=f"{tag}:z'")


def _counting(build, calls):
    def counted(self, *args):
        calls.append(self.name)
        return build(self, *args)

    return counted


def test_functor_outputs_are_built_once_per_content(monkeypatch):
    rec, _ = _fresh_f1()
    builds = []
    for cls in {type(f) for f in rec.registry.values()}:
        monkeypatch.setattr(cls, "_apply", _counting(cls._apply, builds))
    assert set(rec.registry) == {"i_*", "i^*", "i^!", "j_!", "j^*", "j_*", "T", "T~"}
    for name, functor in rec.registry.items():
        for x, x2 in (_twins(rec, functor.src_tag), _zero_twins(rec, functor.src_tag)):
            out = functor.apply(x)
            assert functor.apply(x) is out and out.name == f"{name}({x.name})"
            # the twin gets the identical output, named after the first
            assert functor.apply(x2) is out and functor.aux(x2) is functor.aux(x)
        assert builds.count(name) == 2, name


def test_duals_are_built_once_per_content():
    rec, _ = _fresh_f1()
    ctx = rec.ctx
    builds, requests = ctx.memo_counts()["dual"]
    for x, x2 in (_twins(rec, "A"), _zero_twins(rec, "A")):
        d = ctx.dual(x)
        assert ctx.dual(x) is d and d.name == f"D({x.name})"
        assert ctx.dual(x2) is d and ctx.dual(x2) is d
    assert ctx.memo_counts()["dual"] == (builds + 2, requests + 8)


def test_composite_matrices_are_built_once_per_content(monkeypatch):
    from gluecat.reflect import CompositeAdjunction, composite_adjunctions

    rec, sd = _fresh_f1()
    builds = []
    pair = _counting(CompositeAdjunction._matrix_pair, builds)
    monkeypatch.setattr(CompositeAdjunction, "_matrix_pair", pair)
    for prov in composite_adjunctions(sd).values():
        src, tgt = prov.f_expr.signature(rec.registry)
        x, x2 = _twins(rec, src)
        y = _twins(rec, tgt)[0]
        builds.clear()
        fwd, bwd = prov.forward_matrix(x, y), prov.backward_matrix(x, y)
        assert prov.forward_matrix(x2, y) is fwd and prov.backward_matrix(x2, y) is bwd
        assert builds == [prov.name]


def test_primitive_matrices_are_built_once_per_content(monkeypatch):
    rec, _ = _fresh_f1()
    builds = []
    for name in ("_build_forward", "_build_backward"):
        build = getattr(recollement.PrimitiveAdjunction, name)
        monkeypatch.setattr(recollement.PrimitiveAdjunction, name, _counting(build, builds))
    for prov in primitive_adjunctions(rec).values():
        src, tgt = prov.f_expr.signature(rec.registry)
        x, x2 = _twins(rec, src)
        y = _twins(rec, tgt)[0]
        builds.clear()
        fwd, bwd = prov.forward_matrix(x, y), prov.backward_matrix(x, y)
        assert prov.forward_matrix(x2, y) is fwd and prov.backward_matrix(x2, y) is bwd
        assert builds == [prov.name, prov.name]


def test_suite_builds_each_primitive_matrix_once_per_content(monkeypatch):
    # the original diagram shares its providers with the reflected ones,
    # so a matrix the upper or lower diagram or a composite adjunction
    # asks for again is not rebuilt
    from gluecat.cli import run_suite

    builds = []

    def recording(direction, build):
        def recorded(self, x, y):
            builds.append((self.name, direction, x.key, y.key))
            return build(self, x, y)
        return recorded

    provider = recollement.PrimitiveAdjunction
    monkeypatch.setattr(provider, "_build_forward", recording("forward", provider._build_forward))
    monkeypatch.setattr(provider, "_build_backward", recording("backward", provider._build_backward))
    for fixture in ("F1", "F2", "F3"):
        run_suite(parse_scenario(fixture_scenario(fixture)))
        assert len(builds) == len(set(builds)) > 0
        builds.clear()


def test_adjunction_forward_resolves_its_own_input():
    # the i^* aux is shared by content-equal inputs, so it must not carry
    # the input's replacement: the class sits on ctx.replacement(x'),
    # whose qis targets the first complex of the content
    rec, _ = _fresh_f1()
    prov = primitive_adjunctions(rec)["(i^*, i_*)"]
    x, x2 = _twins(rec, "A")
    y = _twins(rec, "B")[0]
    for obj in (x, x2):
        mors = prov.ctx.hom_space(prov.F_apply(obj), y).basis_mors()
        assert mors
        for mor in mors:
            image = prov.forward(obj, y, mor)
            assert image.x is obj and image.src_qis.target.key == obj.key
            assert image.src_qis is prov.ctx.replacement(obj).qis
            prov.rhs_space(obj, y).coords_of(image)


def _moved(mor, x, y):
    """``mor`` as a class of Hom(x, y), for x and y equal to its own
    objects: the same content, on new chain-map objects."""
    return Mor(
        x, y,
        ChainMap(mor.map.source, y, mor.map.comps),
        ChainMap(mor.src_qis.source, x, mor.src_qis.comps),
    )


def test_primitive_images_are_built_once_per_content(monkeypatch):
    # twin inputs, down to the chain maps of the class, share one image,
    # handed out on the caller's own x (forward) or y (backward); a
    # dual-shape pair builds its unit once per content of x
    rec, _ = _fresh_f1()
    builds, units = [], []
    for cls in (recollement.TensorShapeAdjunction, recollement.DualShapeAdjunction):
        for name in ("_forward_image", "_backward_image"):
            monkeypatch.setattr(cls, name, _counting(getattr(cls, name), builds))
    shape = recollement.DualShapeAdjunction
    monkeypatch.setattr(shape, "_unit", _counting(shape._unit, units))
    for prov in primitive_adjunctions(rec).values():
        src, tgt = prov.f_expr.signature(rec.registry)
        (x, x2), (y, y2) = _twins(rec, src), _twins(rec, tgt)
        lhs, rhs = prov.lhs_space(x, y), prov.rhs_space(x, y)
        assert lhs.dim and rhs.dim
        builds.clear()
        for mor in lhs.basis_mors():
            image = prov.forward(x, y, mor)
            twin = prov.forward(x2, y2, _moved(mor, mor.x, y2))
            assert image.x is x and twin.x is x2 and twin.y is image.y
            assert (twin.map, twin.src_qis) == (image.map, image.src_qis)
            assert np.array_equal(rhs.coords_of(twin), rhs.coords_of(image))
        assert builds == [prov.name] * lhs.dim
        builds.clear()
        for mor in rhs.basis_mors():
            image = prov.backward(x, y, mor)
            twin = prov.backward(x2, y2, _moved(mor, x2, mor.y))
            assert image.y is y and twin.y is y2 and twin.x is image.x
            assert (twin.map, twin.src_qis) == (image.map, image.src_qis)
            assert np.array_equal(lhs.coords_of(twin), lhs.coords_of(image))
        assert builds == [prov.name] * rhs.dim
    assert units == ["(i_*, i^!)", "(j^*, j_*)"]


def test_unit_and_counit_present_one_identity(monkeypatch):
    rec, _ = _fresh_f1()
    seen = []
    for cls in (recollement.TensorShapeAdjunction, recollement.DualShapeAdjunction):
        for name in ("_forward_image", "_backward_image"):
            build = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda self, x, y, mor, build=build: seen.append(mor) or build(self, x, y, mor))
    for prov in primitive_adjunctions(rec).values():
        src, tgt = prov.f_expr.signature(rec.registry)
        prov.unit(_twins(rec, src)[0])
        prov.counit(_twins(rec, tgt)[0])
    assert len(seen) == 8
    assert all(mor.map is mor.src_qis and mor.x is mor.y is mor.map.source for mor in seen)


def test_providers_refuse_a_foreign_class_without_a_hom_space(monkeypatch):
    from gluecat.complexes import HomSpace, identity_map, zero_map

    rec, _ = _fresh_f1()
    spaces = []
    init = HomSpace.__init__
    monkeypatch.setattr(HomSpace, "__init__", lambda self, *a: spaces.append(a) or init(self, *a))
    for prov in primitive_adjunctions(rec).values():
        src, tgt = prov.f_expr.signature(rec.registry)
        x, y = _twins(rec, src)[0], _twins(rec, tgt)[0]
        # a class out of the zero object, where F x and x are not zero
        zf, zx = _zero_twins(rec, tgt)[0], _zero_twins(rec, src)[0]
        gy = prov.G_apply(y)
        wrong = [
            (prov.forward, Mor(zf, y, zero_map(zf, y), identity_map(zf))),
            (prov.backward, Mor(zx, gy, zero_map(zx, gy), identity_map(zx))),
        ]
        for direction, mor in wrong:
            with pytest.raises(ValueError, match="coords_of: morphism belongs to a different hom space"):
                direction(x, y, mor)
    assert spaces == []


def test_suite_builds_each_functor_output_once_per_content(monkeypatch):
    from gluecat.cli import run_suite
    from gluecat.recollement import (
        DerivedTensorFunctor,
        DualDerivedTensorFunctor,
        ExactTensorFunctor,
        Functor,
        RestrictionFunctor,
    )
    from gluecat.scenarios import fixture_scenario, parse_scenario

    builds, contents = [], set()
    output = Functor._output

    def recording_output(self, x):
        contents.add((self, x.key))  # the functor is kept, so ids stay apart
        return output(self, x)

    monkeypatch.setattr(Functor, "_output", recording_output)
    for cls in (RestrictionFunctor, ExactTensorFunctor, DerivedTensorFunctor, DualDerivedTensorFunctor):
        monkeypatch.setattr(cls, "_apply", _counting(cls._apply, builds))
    run_suite(parse_scenario(fixture_scenario("F1")))
    assert len(builds) == len(contents) > 0


def test_suite_computes_homology_once_per_content(monkeypatch):
    from gluecat import complexes
    from gluecat.cli import run_suite
    from gluecat.scenarios import fixture_scenario, parse_scenario

    builds = []
    homology = complexes._homology

    def recording_homology(fld, dims, diff):
        owner = getattr(diff, "__self__", None)
        if isinstance(owner, BoundedComplex):  # not a hom complex
            builds.append(owner.key)
        return homology(fld, dims, diff)

    monkeypatch.setattr(complexes, "_homology", recording_homology)
    run_suite(parse_scenario(fixture_scenario("F1")))
    assert len(builds) == len(set(builds)) > 0


def test_homology_dims_hands_out_copies(rec_f1):
    x = stalk_complex(regular_module(rec_f1.algebra))
    dims = homology_dims(x)
    dims[7] = 1
    assert homology_dims(x) == {0: rec_f1.algebra.dim}
