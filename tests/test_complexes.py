import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gluecat import complexes, modules
from gluecat.complexes import (
    BoundedComplex,
    ChainMap,
    DerivedContext,
    HomComplex,
    Mor,
    ProjectiveComplex,
    cone,
    compose_maps,
    dual_chain_map,
    dual_complex,
    homology_dims,
    identity_map,
    shift,
    stalk_complex,
    zero_complex,
    zero_map,
)
from gluecat.algebra import Quiver, _Memo, path_algebra
from gluecat.field import PrimeField
from gluecat.modules import (
    ResolutionExceedsCapError,
    RightModule,
    nakayama_bimodule,
    projective_cover,
    projective_module,
    projective_sum,
    simple_module,
    projectives,
    regular_module,
    zero_module,
)
from gluecat.cli import run_suite
from gluecat.recollement import build_recollement, default_menus
from gluecat.scenarios import fixture_scenario, parse_scenario

from oracles import (
    HomComplexBySummand,
    euler_characteristic,
    ext_dims,
    hom_basis_dense,
    hom_complex_dims,
    hom_coords,
    hom_coords_by_elimination,
    hom_map_by_expansion,
    homology_by_ranks,
    homotopy_witnesses,
    injectives,
    is_identity,
    lifts_entrywise,
    lifts_up_to_homotopy,
    matrix,
    mor_by_sum,
    nonminimal_degrees,
    regular_bimodule,
    replacement_problems,
    resolution_data,
    scale_map,
    simples,
)


@pytest.fixture()
def ctx():
    return DerivedContext()


def _stalks(a):
    return [stalk_complex(m) for m in projectives(a) + simples(a)]


# ----------------------------------------------------------------------
# shift / cone / homology
# ----------------------------------------------------------------------


def test_stalk_homology(alg_a2):
    p2, _, _ = projective_module(alg_a2, 1)
    x = stalk_complex(p2)
    assert homology_dims(x) == {0: 2}


def test_shift_round_trip(alg_a3):
    s = stalk_complex(simple_module(alg_a3, 2))
    y = shift(shift(s, 1), -1)
    assert homology_dims(y) == homology_dims(s)
    assert y.lo == s.lo and y.hi == s.hi
    assert np.array_equal(y.term(0).action, s.term(0).action)


def test_cone_of_identity_acyclic(alg_a2):
    x = stalk_complex(projective_module(alg_a2, 1)[0])
    c = cone(identity_map(x))
    assert homology_dims(c) == {}


def test_cone_of_simple_inclusion(alg_a2):
    # 0 -> S1 -> P2 -> S2 -> 0; the cone of S1 -> P2 has total homology dim 1
    p2, _, _ = projective_module(alg_a2, 1)
    s1 = simple_module(alg_a2, 0)
    f = hom_basis_dense(s1, p2)[0]
    cm = ChainMap(stalk_complex(s1), stalk_complex(p2), {0: f})
    c = cone(cm)
    assert homology_dims(c) == {0: 1}


def test_acyclic_two_term_complex(alg_a2):
    p2, _, _ = projective_module(alg_a2, 1)
    x = BoundedComplex(
        alg_a2,
        {0: p2, 1: p2},
        {0: alg_a2.field.identity(2)},
    )
    assert homology_dims(x) == {}


def test_euler_characteristic_additive_on_cones(alg_a3):
    ctx = DerivedContext()
    p3, _, _ = projective_module(alg_a3, 2)
    s3 = simple_module(alg_a3, 2)
    f = hom_basis_dense(p3, s3)[0]
    cm = ChainMap(stalk_complex(p3), stalk_complex(s3), {0: f})
    c = cone(cm)
    assert euler_characteristic(c) == euler_characteristic(stalk_complex(s3)) - euler_characteristic(stalk_complex(p3))


# ----------------------------------------------------------------------
# duality on complexes
# ----------------------------------------------------------------------


def test_dual_complex_round_trip(alg_a3):
    s3 = simple_module(alg_a3, 2)
    ctx = DerivedContext()
    rep = ctx.replacement(stalk_complex(s3))
    d = dual_complex(rep.p)
    dd = dual_complex(d)
    assert {n: dd.term(n).dim for n in dd.degrees()} == {
        n: rep.p.term(n).dim for n in rep.p.degrees()
    }
    for n in rep.p.degrees():
        assert np.array_equal(dd.term(n).action, rep.p.term(n).action)


def test_dual_homology_mirrors_degrees(alg_a3):
    ctx = DerivedContext()
    s3 = stalk_complex(simple_module(alg_a3, 2))
    rep = ctx.replacement(s3)
    hd = homology_dims(dual_complex(rep.p))
    assert hd == {-n: d for n, d in homology_dims(rep.p).items()}


def test_dual_chain_map_commutes(alg_a2):
    p2 = stalk_complex(projective_module(alg_a2, 1)[0])
    s2 = stalk_complex(simple_module(alg_a2, 1))
    f = hom_basis_dense(p2.term(0), s2.term(0))[0]
    cm = ChainMap(p2, s2, {0: f})
    dm = dual_chain_map(cm)
    assert dm.source.algebra is dual_complex(s2).algebra
    assert np.array_equal(dm.comp(0), f.T)


# ----------------------------------------------------------------------
# projective replacement
# ----------------------------------------------------------------------


def test_out_of_range_accessors_share_read_only_zeros(alg_a2, monkeypatch):
    import gluecat.complexes as complexes

    x = stalk_complex(simple_module(alg_a2, 0))
    f = identity_map(x)
    calls = []
    monkeypatch.setattr(complexes, "zero_module", lambda a: calls.append(a) or zero_module(a))
    assert x.term(3) is x.term(-3) is zero_module(alg_a2)
    assert not calls
    empties = [x.diff(0), x.diff(-1), f.comp(2), f.comp(-2)]
    assert [e.shape for e in empties] == [(1, 0), (0, 1), (0, 0), (0, 0)]
    assert x.diff(0) is x.diff(0) and f.comp(2) is f.comp(-2)
    for e in empties:
        with pytest.raises(ValueError, match="read-only"):
            e[...] = 1


def test_replacement_of_projective_complex_is_iso(ctx, alg_a3):
    p3 = stalk_complex(projective_module(alg_a3, 2)[0])
    rep = ctx.replacement(p3)
    assert rep.inverse is not None
    assert homology_dims(rep.p) == homology_dims(p3)
    assert isinstance(rep.p, ProjectiveComplex)


def test_replacement_of_zero_complex(ctx, alg_a3):
    rep = ctx.replacement(zero_complex(alg_a3))
    assert rep.p.is_zero()


def test_replacement_of_simple_stalk(ctx, alg_a2):
    # S2 has replacement in degrees [-1, 0] with homology {0: 1}
    s2 = stalk_complex(simple_module(alg_a2, 1))
    rep = ctx.replacement(s2)
    assert rep.p.lo == -1 and rep.p.hi == 0
    assert homology_dims(rep.p) == {0: 1}
    rep.qis.validate()


def test_replacement_preserves_homology_multi_term(ctx, alg_a3):
    # two-term non-projective complex: S3 -> S3 zero map plus shifts
    s3 = simple_module(alg_a3, 2)
    x = BoundedComplex(alg_a3, {0: s3, 2: s3}, {})
    rep = ctx.replacement(x)
    assert homology_dims(rep.p) == homology_dims(x) == {0: 1, 2: 1}
    assert isinstance(rep.p, ProjectiveComplex)
    rep.qis.validate()


def test_replacement_mixed_complex(ctx, alg_a3):
    # nonzero differential between non-projective terms
    s2 = simple_module(alg_a3, 1)
    x = BoundedComplex(
        alg_a3,
        {0: s2, 1: s2},
        {0: alg_a3.field.identity(1)},
    )
    assert homology_dims(x) == {}
    rep = ctx.replacement(x)
    assert homology_dims(rep.p) == {}


@pytest.mark.parametrize(
    "quiver",
    [Quiver(3, ((0, 1), (1, 2))), Quiver(4, ((0, 3), (1, 3), (2, 3))), Quiver(2, ((0, 1), (0, 1)))],
    ids=["A3", "D4", "Kronecker"],
)
def test_stalk_replacement_is_the_resolution_by_covers(ctx, gf, quiver):
    a = path_algebra(quiver, gf)
    for m in simples(a) + injectives(a) + [regular_module(a)]:
        rep = ctx.replacement(stalk_complex(m))
        res = resolution_data(m, complexes.RESOLUTION_CAP)
        assert (rep.p.lo, rep.p.hi) == (-res.length, 0)
        for k, cov in enumerate(res.covers):
            assert rep.p.term(-k).key == cov.module.key
            assert rep.p.vertices[-k] == cov.summands
        for k, d in enumerate(res.diffs):
            assert np.array_equal(rep.p.diff(-k - 1), d)
        assert np.array_equal(rep.qis.comp(0), res.augmentation)
        assert set(rep.qis.comps) <= {0}


def test_replacement_across_a_zero_middle_term(ctx, alg_a3):
    # S[0] + S'[-2] with 0 in degree 1: the loop goes on below a zero
    # kernel inside [x.lo, x.hi], and the minimal replacement is the sum
    # of the two resolutions
    for s in simples(alg_a3):
        for s1 in simples(alg_a3):
            x = BoundedComplex(alg_a3, {0: s, 2: s1}, {})
            rep = ctx.replacement(x)
            parts = [ctx.replacement(stalk_complex(m, k)).p for m, k in ((s, 0), (s1, 2))]
            for n in range(-3, 4):
                assert rep.p.term(n).dim == sum(q.term(n).dim for q in parts)
            assert homology_dims(rep.p) == homology_dims(x) == {0: 1, 2: 1}
    assert replacement_problems(ctx, []) == []


def test_cone_of_identity_on_a_simple_replaces_to_zero(ctx, alg_a3):
    # the non-projective simples, so the route by covers builds it
    for s in simples(alg_a3)[1:]:
        assert projective_cover(s).module.dim > s.dim
        x = cone(identity_map(stalk_complex(s)))
        rep = ctx.replacement(x)
        assert rep.p.is_zero() and rep.qis.is_zero() and rep.inverse is None
    assert replacement_problems(ctx, []) == []


def test_replacement_below_the_cap(monkeypatch, alg_a3):
    # S2 has projective dimension 1: its syzygy sits one degree below x.lo
    s2 = simple_module(alg_a3, 1)
    x = BoundedComplex(alg_a3, {0: s2, 1: simple_module(alg_a3, 2)}, {})
    monkeypatch.setattr(complexes, "RESOLUTION_CAP", 0)
    with pytest.raises(ResolutionExceedsCapError, match="exceeds cap 0"):
        DerivedContext().replacement(x)
    monkeypatch.setattr(complexes, "RESOLUTION_CAP", 1)
    assert DerivedContext().replacement(x).p.lo == -1


def test_replacement_is_cached(ctx, alg_a2):
    s2 = simple_module(alg_a2, 1)
    x, twin = stalk_complex(s2), stalk_complex(s2)
    assert ctx.replacement(x) is ctx.replacement(x)
    # an equal but distinct complex gets the identical replacement
    assert ctx.replacement(twin) is ctx.replacement(x)
    assert ctx.hom_space(x, twin) is ctx.hom_space(x, twin) is ctx.hom_space(twin, x)
    assert ctx.dual(x) is ctx.dual(x) is ctx.dual(twin)


def _twins(alg):
    """Pairs of distinct, content-equal complexes: a stalk that is
    resolved, and a two-term complex that is replaced by splitting."""
    p2, s2 = projective_module(alg, 1)[0], simple_module(alg, 1)
    d = hom_basis_dense(p2, s2)[0]
    return [
        (stalk_complex(s2), stalk_complex(s2, name="twin")),
        (BoundedComplex(alg, {-1: p2, 0: s2}, {-1: d}), BoundedComplex(alg, {-1: p2, 0: s2}, {-1: d.copy()})),
    ]


def test_content_equal_complexes_share_the_replacement(ctx, alg_a3):
    for x, twin in _twins(alg_a3):
        assert x is not twin and x.key == twin.key
        rep = ctx.replacement(x)
        assert ctx.replacement(twin) is rep
        # built on the first complex of the content, equal to the twin
        assert rep.qis.target is x and rep.qis.target.key == twin.key
        assert rep.qis.source is rep.p
        assert rep.inverse is None or (rep.inverse.source is x and rep.inverse.target is rep.p)
    assert ctx.memo_counts()["replacement"][0] < ctx.memo_counts()["replacement"][1]


def test_hom_space_hit_is_the_space_built_first(ctx, alg_a3):
    x, x2 = _twins(alg_a3)[0]
    hs = ctx.hom_space(x, x)
    assert hs.dim == 1
    assert ctx.hom_space(x, x2) is hs and ctx.hom_space(x2, x) is hs and ctx.hom_space(x2, x2) is hs
    assert hs.x is x and hs.y is x and hs.hc.y is x and hs.hc is ctx.hom_complex(hs.p, x2)
    assert hs.p is ctx.replacement(x2).p and hs.p_qis is ctx.replacement(x2).qis
    for m in hs.basis_maps():
        assert m.source is hs.p and m.target is x
    # a class on the twins, with a carrier into x2, is reduced in the
    # shared space: its guards compare content
    basis = hs.basis_mors()[0]
    mor = Mor(x2, x2, ChainMap(hs.p, x2, basis.map.comps), ChainMap(hs.p, x2, basis.src_qis.comps))
    assert list(hs.coords_of(mor)) == list(hs.coords_of(basis)) == [1]
    assert ctx.derived_hom_dims(x2, x) == ctx.derived_hom_dims(x, x2) == {0: 1}


def test_lift_hit_is_the_lift_built_first(ctx, alg_a3):
    x, x2 = _twins(alg_a3)[1]
    rep = ctx.replacement(x)
    g = ctx.lift_through_qis(rep.p, rep.qis, rep.qis)
    builds = ctx.memo_counts()["lift"][0]
    # a content-equal source, target and qis, all distinct objects
    p2 = BoundedComplex(alg_a3, dict(rep.p.terms), dict(rep.p.diffs))
    s2 = ChainMap(p2, x2, rep.qis.comps)
    g2 = ctx.lift_through_qis(p2, ChainMap(p2, x2, rep.qis.comps), s2)
    assert ctx.memo_counts()["lift"][0] == builds
    assert g2 is g and g.source is rep.p and g.target is rep.p
    assert g.source.key == p2.key
    assert lifts_up_to_homotopy(rep.qis, g, rep.qis)
    assert lifts_up_to_homotopy(ChainMap(p2, x2, rep.qis.comps), g2, s2)


def test_guards_return_maps_out_of_the_replacement_itself(ctx, alg_a3):
    # a carrier out of a plain complex equal to the replacement, as a
    # restricted complex i_*(P) can be: both guards move it onto the
    # replacement, whose summands the lift and the hom complex read
    x = _twins(alg_a3)[0][0]
    rep = ctx.replacement(x)
    plain = BoundedComplex(alg_a3, dict(rep.p.terms), dict(rep.p.diffs))
    assert plain.key == rep.p.key and not isinstance(plain, ProjectiveComplex)
    carrier = ChainMap(plain, x, rep.qis.comps)
    mor = Mor(x, x, carrier, carrier)
    g = complexes.present_class(ctx, mor)
    assert g.source is rep.p and g.key == carrier.key
    lift = ctx.lift_through_qis(g.source, g, rep.qis)
    assert lift.source is rep.p and lifts_up_to_homotopy(g, lift, rep.qis)
    hs = ctx.hom_space(x, x)
    h = hs.normalize(mor)
    assert h.source is hs.p is rep.p and h.key == carrier.key
    assert hs.normalize(Mor(x, x, h, h)) is h
    assert hs.coords_of(mor).any()


def test_rebasing_a_carrier_shares_its_components_and_key(ctx, alg_a3, monkeypatch):
    # the carrier was validated when it was built, so moving it onto the
    # content-equal replacement constructs no chain map
    x = _twins(alg_a3)[0][0]
    rep = ctx.replacement(x)
    plain = BoundedComplex(alg_a3, dict(rep.p.terms), dict(rep.p.diffs))
    carrier = ChainMap(plain, x, rep.qis.comps)
    built = []
    init = ChainMap.__init__
    monkeypatch.setattr(ChainMap, "__init__", lambda self, *a, **k: built.append(self) or init(self, *a, **k))
    g = complexes.present_class(ctx, Mor(x, x, carrier, carrier))
    assert built == []
    assert g.source is rep.p and g.target is carrier.target
    assert g.comps is carrier.comps and g.key is carrier.key


def test_presenting_a_class_builds_no_hom_space(ctx, alg_a3, monkeypatch):
    x, x2 = _twins(alg_a3)[1]
    hs = ctx.hom_space(x, x)
    basis = hs.basis_mors()[0]
    spaces = []
    init = complexes.HomSpace.__init__
    monkeypatch.setattr(complexes.HomSpace, "__init__", lambda self, *a: spaces.append(a) or init(self, *a))
    shifted = shift(x, 1)
    # a class of another hom space, by either object, and a qis that
    # does not start at the carrier, are refused by normalize and by
    # present_class with the same messages
    foreign = [Mor(shifted, x, basis.map, basis.src_qis), Mor(x, shifted, basis.map, basis.src_qis)]
    for mor in foreign:
        with pytest.raises(ValueError, match="coords_of: morphism belongs to a different hom space"):
            hs.normalize(mor)
        with pytest.raises(ValueError, match="coords_of: morphism belongs to a different hom space"):
            complexes.present_class(ctx, mor, x2, x2)
    stray = Mor(x, x, identity_map(x), identity_map(shifted))
    for present in (hs.normalize, lambda mor: complexes.present_class(ctx, mor, x2, x)):
        with pytest.raises(ValueError, match="Mor: src_qis does not match the carrier"):
            present(stray)
    # a class of the space is presented as the space itself presents it
    twin = Mor(x2, x2, ChainMap(x2, x2, identity_map(x).comps), identity_map(x2))
    g = complexes.present_class(ctx, twin, x, x)
    assert g.source is hs.p and g.key == hs.normalize(twin).key
    assert spaces == []


def test_hom_space_builds_its_basis_once(ctx, alg_a3, monkeypatch):
    x = stalk_complex(regular_module(alg_a3))
    hs = ctx.hom_space(x, x)
    expanded = []
    to_map = HomComplex.vector_to_chain_map
    monkeypatch.setattr(HomComplex, "vector_to_chain_map", lambda self, v: expanded.append(v) or to_map(self, v))
    maps = hs.basis_maps()
    assert isinstance(maps, tuple) and len(maps) == hs.dim == len(expanded) > 1
    mors = hs.basis_mors()
    assert hs.basis_maps() is maps and [m.map for m in mors] == list(maps)
    assert all(m.x is hs.x and m.y is hs.y and m.src_qis is hs.p_qis for m in mors)
    assert len(expanded) == hs.dim


def test_memos_keep_the_algebras_of_their_keys_alive():
    # a complex key holds its algebra, so an entry keeps the algebra
    # alive: a new algebra at the same id can never hit the old entries
    import gc
    import weakref

    ctx, memo = DerivedContext(), _Memo()
    a = path_algebra(Quiver(2, ((0, 1),)), PrimeField(32003))
    alive = weakref.ref(a)
    x = stalk_complex(simple_module(a, 1))
    assert ctx.derived_hom_dims(x, x) == {0: 1}
    memo.value(x.key, lambda: ())  # a value that holds nothing
    del a, x
    gc.collect()
    assert alive() is not None
    del ctx
    gc.collect()
    assert alive() is not None
    del memo
    gc.collect()
    assert alive() is None


def test_memos_keep_no_input_objects():
    # the key holds all the content, so an input that only a memo saw
    # dies with its caller, and its content still hits: an input chain
    # map of a lift, and an input complex of dual
    import gc
    import weakref

    ctx = DerivedContext()
    a = path_algebra(Quiver(2, ((0, 1),)), PrimeField(32003))
    rep = ctx.replacement(stalk_complex(simple_module(a, 1)))
    f = ChainMap(rep.p, rep.qis.target, dict(rep.qis.comps))
    z = stalk_complex(simple_module(a, 0))
    g, dz = ctx.lift_through_qis(rep.p, f, rep.qis), ctx.dual(z)
    refs = [weakref.ref(f), weakref.ref(z)]
    del f, z
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    f = ChainMap(rep.p, rep.qis.target, dict(rep.qis.comps))
    assert ctx.lift_through_qis(rep.p, f, rep.qis) is g
    assert ctx.dual(stalk_complex(simple_module(a, 0))) is dz
    assert ctx.memo_counts()["lift"] == (1, 2) and ctx.memo_counts()["dual"] == (1, 2)


def test_keyed_arrays_refuse_writes(ctx, alg_a3):
    x = _twins(alg_a3)[1][0]
    rep = ctx.replacement(x)
    arrays = [x.diffs[-1], x.term(0).action, *rep.qis.comps.values(), *rep.p.diffs.values()]
    hs = ctx.hom_space(x, x)
    arrays += [hs.h_reps, hs.boundaries, *hs.hc.diffs.values()]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 1


def test_every_memoised_complex_and_chain_map_is_valid_after_f1(monkeypatch):
    # each content is validated once when built; here every complex and
    # chain map that the F1 suite built a value of these four memos from,
    # or left in them, is checked again in full.  Entries keep no inputs,
    # so a spy on the memo type collects them as each value is built
    from gluecat.cli import run_suite
    from gluecat.complexes import HomSpace, Replacement
    from gluecat.scenarios import fixture_scenario, parse_scenario

    ctx = DerivedContext()
    memos = (ctx._replacements, ctx._hom_spaces, ctx._hom_dims, ctx._lifts)
    items, value = [], _Memo.value

    def spy(memo, key, build, *args):
        if any(memo is m for m in memos):
            return value(memo, key, lambda *a: items.extend(a) or build(*a), *args)
        return value(memo, key, build, *args)

    monkeypatch.setattr(_Memo, "value", spy)
    run_suite(parse_scenario(fixture_scenario("F1")), ctx)
    monkeypatch.undo()
    for memo in memos:
        for stored in memo.values():
            if isinstance(stored, Replacement):
                items += [stored.p, stored.qis]
            elif isinstance(stored, HomSpace):
                items += [stored.p, stored.p_qis, *stored.basis_maps()]
            elif isinstance(stored, list):
                items += stored
    found = {id(o): o for o in items if isinstance(o, (BoundedComplex, ChainMap))}
    kinds = {type(o) for o in found.values()}
    assert kinds == {BoundedComplex, ProjectiveComplex, ChainMap}
    for obj in found.values():
        obj.validate()


def test_f1_memo_counts_are_pinned():
    # the builds and requests of every derived memo over the F1 suite
    ctx = DerivedContext()
    run_suite(parse_scenario(fixture_scenario("F1")), ctx)
    assert ctx.memo_counts() == {
        "dual": (36, 261),
        "replacement": (73, 3694),
        "hom_complex": (87, 238),
        "hom_space": (76, 689),
        "derived_hom_dims": (149, 2214),
        "lift": (42, 178),
    }


def test_replacements_are_built_once_per_content_on_f1(monkeypatch):
    from gluecat.cli import run_suite
    from gluecat.scenarios import fixture_scenario, parse_scenario

    built = []
    build = DerivedContext._build_replacement
    monkeypatch.setattr(
        DerivedContext, "_build_replacement", lambda self, x: built.append(x.key) or build(self, x)
    )
    run_suite(parse_scenario(fixture_scenario("F1")))
    assert built and len(built) == len(set(built))


# ----------------------------------------------------------------------
# minimal replacements
# ----------------------------------------------------------------------


def _projective_complex(a, degrees, diffs):
    """The :class:`ProjectiveComplex` with terms the sums of the P_v listed
    per degree and differentials ``diffs``."""
    return ProjectiveComplex(a, {n: tuple(vs) for n, vs in degrees.items()}, diffs)


def _hom(a, v, u):
    """A nonzero module hom P_v -> P_u, or None."""
    basis = hom_basis_dense(projective_module(a, v)[0], projective_module(a, u)[0])
    return basis[0] if basis else None


def _chain(a):
    """Vertices (w, v, u) with P_w -> P_v -> P_u composing to nonzero."""
    fld, n = a.field, a.n_idempotents
    for w in range(n):
        for v in range(n):
            for u in range(n):
                c, b = _hom(a, w, v), _hom(a, v, u)
                if len({w, v, u}) == 3 and c is not None and b is not None:
                    if fld.matmul(c, b).any():
                        return w, v, u, c, b
    raise AssertionError("no chain of projectives")


def test_minimize_cancels_with_the_schur_complement(ctx, alg_a3):
    # (P_v + P_w) -> (P_v + P_u) with d = [[1, b], [c, 0]] is homotopy
    # equivalent to P_w -> P_u with differential -c b
    fld = alg_a3.field
    w, v, u, c, b = _chain(alg_a3)
    dv = projective_module(alg_a3, v)[0].dim
    d = np.block([[fld.identity(dv), b], [c, fld.zeros(c.shape[0], b.shape[1])]])
    p = _projective_complex(alg_a3, {0: [v, w], 1: [v, u]}, {0: d})
    p_min, iota, proj = complexes._minimize(p)
    assert [p_min.vertices[n] for n in (0, 1)] == [(w,), (u,)]
    assert np.array_equal(p_min.diff(0), fld.neg(fld.matmul(c, b)))
    assert replacement_problems(ctx, [(p, p_min, iota, proj)]) == []
    assert nonminimal_degrees(p) == [0]
    rep = ctx.replacement(p)
    assert rep.p.key == p_min.key
    assert replacement_problems(ctx, []) == []


def test_cone_of_identity_on_a_projective_replaces_to_zero(ctx, alg_a3):
    for v in range(alg_a3.n_idempotents):
        x = cone(identity_map(stalk_complex(projective_module(alg_a3, v)[0])))
        rep = ctx.replacement(x)
        assert rep.p.is_zero()
        assert rep.inverse is not None and rep.inverse.is_zero() and rep.qis.is_zero()
    assert replacement_problems(ctx, []) == []


@pytest.mark.parametrize("order", ["vu", "uv"])
def test_identity_block_leaves_the_other_summand(ctx, alg_a3, order):
    # P_v -> P_v + P_u (or P_u + P_v) with an identity block on P_v
    # keeps only P_u, wherever its summand sits
    fld = alg_a3.field
    _, v, u, _, b = _chain(alg_a3)
    dv = projective_module(alg_a3, v)[0].dim
    d = np.concatenate([fld.identity(dv), b] if order == "vu" else [b, fld.identity(dv)], axis=1)
    p = _projective_complex(alg_a3, {0: [v], 1: [v, u] if order == "vu" else [u, v]}, {0: d})
    assert p.vertices[1] == ((v, u) if order == "vu" else (u, v))  # as given: "uv" is unsorted
    p_min, iota, proj = complexes._minimize(p)
    assert (p_min.lo, p_min.hi) == (1, 1)
    assert p_min.vertices[1] == (u,)
    assert p_min.term(1) is projective_sum(alg_a3, (u,))[0]
    assert p_min.term(1).key == projective_module(alg_a3, u)[0].key
    assert replacement_problems(ctx, [(p, p_min, iota, proj)]) == []
    assert ctx.replacement(p).p.key == p_min.key


def test_minimize_leaves_minimal_and_single_degree_complexes(alg_a3):
    p = _projective_complex(alg_a3, {0: [0, 1]}, {})
    assert complexes._minimize(p)[0] is p
    w, v, _, c, _ = _chain(alg_a3)
    p = _projective_complex(alg_a3, {0: [w], 1: [v]}, {0: c})
    p_min, iota, proj = complexes._minimize(p)
    assert p_min is p and is_identity(iota) and is_identity(proj)


def _e12_scenario():
    from gluecat.scenarios import fixture_scenario

    data = fixture_scenario("F2")
    data["e_vertices"] = [1, 2]
    return data


@pytest.mark.parametrize("name", ["F1", "F2", "F3", "A3-e12"])
def test_every_replacement_is_minimal(monkeypatch, name):
    from gluecat.cli import run_suite
    from gluecat.scenarios import fixture_scenario, parse_scenario

    minimize, made = complexes._minimize, []

    def recorded(p):
        out = minimize(p)
        made.append((p, *out))
        return out

    monkeypatch.setattr(complexes, "_minimize", recorded)
    data = _e12_scenario() if name == "A3-e12" else fixture_scenario(name)
    ctx = DerivedContext()
    reports = run_suite(parse_scenario(data), ctx)
    assert all(rep.counts()["pass"] == len(rep.cells) for rep in reports)
    assert any(p_min is not p for p, p_min, _, _ in made)
    assert replacement_problems(ctx, made) == []


def _random_homs(rng, fld, basis, m, n, count):
    """``(coeffs, stack)``: ``count`` random combinations of a hom basis."""
    coeffs = rng.integers(0, fld.p, size=(count, len(basis)))
    stack = np.stack([sum((int(c) * b for c, b in zip(row, basis)), fld.zeros(m.dim, n.dim)) % fld.p for row in coeffs])
    return coeffs, stack


def _first_non_hom(fld, basis, m, n):
    """The first matrix unit outside the span of the hom basis, with the
    message of the elimination oracle, or None."""
    for k in range(m.dim * n.dim):
        unit = fld.unit_row(m.dim * n.dim, k).reshape(m.dim, n.dim)
        try:
            hom_coords_by_elimination(fld, basis, unit)
        except ValueError as exc:
            return unit, str(exc)
    return None


@pytest.mark.parametrize("quiver,e", [(((0, 1),), [1]), (((0, 1), (1, 2)), [2])], ids=["F1", "F2"])
def test_hom_coords_match_elimination_oracle(quiver, e):
    # the Yoneda coordinates of the hom complexes out of the replaced menu
    # objects into the menu objects: each block Hom(p^i, y^{i+n}) has the
    # dimension of its module-hom basis, random homs expand back from
    # their coordinates, the first matrix unit outside the span is
    # rejected with the elimination oracle's message, and so is a nonzero
    # map where the hom space is zero
    fld = PrimeField(32003)
    rec = build_recollement(path_algebra(Quiver(len(quiver) + 1, quiver), fld), e, seed=17)
    rng = np.random.default_rng(5)
    blocks = non_homs = zero_spaces = 0
    for menu in default_menus(rec).values():
        for _, x in menu:
            p = rec.ctx.replacement(x).p
            for _, y in menu:
                hc = HomComplex(p, y)
                for n in range(hc.lo, hc.hi + 1):
                    bases = {i: hom_basis_dense(p.term(i), y.term(i + n)) for i in p.degrees()}
                    assert hc.dim(n) == sum(map(len, bases.values()))
                    for i, basis in bases.items():
                        m, t = p.term(i), y.term(i + n)
                        if not m.dim * t.dim:
                            continue
                        if not basis:
                            with pytest.raises(ValueError, match="nonzero map in zero hom space"):
                                hc._coords(n, 1, {i: fld.unit_row(m.dim * t.dim, 0).reshape(1, m.dim, t.dim)})
                            zero_spaces += 1
                            continue
                        _, stack = _random_homs(rng, fld, basis, m, t, 3)
                        coords = hc._coords(n, 3, {i: stack})
                        assert np.array_equal(hc._expand(n, coords)[i], stack)
                        blocks += 1
                        found = _first_non_hom(fld, basis, m, t)
                        if found is not None:
                            unit, message = found
                            with pytest.raises(ValueError, match=message):
                                hc._coords(n, 1, {i: unit[None]})
                            non_homs += 1
    assert blocks >= 10 and non_homs >= 5 and zero_spaces >= 1


def test_hom_coords_in_a_twisted_basis(ctx, alg_a3):
    # conjugating the regular module by a random change of basis gives
    # hom basis matrices with many distinct entries, and a target whose
    # weight basis is far from the standard one
    fld = alg_a3.field
    reg = regular_module(alg_a3)
    rng = np.random.default_rng(11)
    g = matrix(fld, rng.integers(0, fld.p, size=(reg.dim, reg.dim)))
    g_inv = fld.inv(g)
    twisted = RightModule(alg_a3, np.stack([fld.mul_chain(g_inv, op, g) for op in reg.action]))
    for x, n in [(twisted, twisted), (reg, twisted), (twisted, reg)]:
        p = ctx.replacement(stalk_complex(x)).p
        m = p.term(0)
        hc = HomComplex(p, stalk_complex(n))
        basis = hom_basis_dense(m, n)
        assert len(basis) == hc.dim(0) == alg_a3.dim
        coeffs, stack = _random_homs(rng, fld, basis, m, n, 1)
        # the free columns of the module-hom basis give its coordinates
        assert np.array_equal(hom_coords(m, n, stack), coeffs)
        assert np.array_equal(hom_coords_by_elimination(fld, basis, stack), coeffs)
        # a stack of homs expands back from its Yoneda coordinates, one
        # row per hom, and a zero hom has zero coordinates
        stack = np.stack([stack[0], fld.zeros(m.dim, n.dim), basis[-1]])
        coords = hc._coords(0, 3, {0: stack})
        assert np.array_equal(hc._expand(0, coords)[0], stack) and not coords[1].any()
        unit, message = _first_non_hom(fld, basis, m, n)
        assert message == "hom_coords: matrix is not a module hom"
        with pytest.raises(ValueError, match=message):
            hc._coords(0, 1, {0: unit[None]})
        with pytest.raises(ValueError, match=message):
            hom_coords(m, n, unit)


# ----------------------------------------------------------------------
# lifting through quasi-isomorphisms
# ----------------------------------------------------------------------


def test_lift_through_identity(ctx, alg_a2):
    s2 = stalk_complex(simple_module(alg_a2, 1))
    rep = ctx.replacement(s2)
    g = ctx.lift_through_qis(rep.p, rep.qis, identity_map(s2))
    assert np.array_equal(g.comp(0), rep.qis.comp(0))
    assert lifts_up_to_homotopy(rep.qis, g, identity_map(s2))


def test_lift_zero_map(ctx, alg_a2):
    s2 = stalk_complex(simple_module(alg_a2, 1))
    rep = ctx.replacement(s2)
    z = zero_map(rep.p, s2)
    g = ctx.lift_through_qis(rep.p, z, identity_map(s2))
    assert g.is_zero() or not np.any(
        np.concatenate([g.comp(n).reshape(-1) for n in rep.p.degrees()])
    )


def _same_lift(g_b, g_s):
    lo = min(g_s.source.lo, g_s.target.lo) - 1
    hi = max(g_s.source.hi, g_s.target.hi) + 1
    for n in range(lo, hi + 1):
        assert np.array_equal(g_b.comp(n), g_s.comp(n))


def test_batched_lift_equals_single_lifts(ctx, alg_a2, alg_a3):
    cases = []
    for alg, v in ((alg_a2, 1), (alg_a3, 1), (alg_a3, 2)):
        s = stalk_complex(simple_module(alg, v))
        rep = ctx.replacement(s)
        fs = [rep.qis, zero_map(rep.p, s), scale_map(rep.qis, 3)]
        cases.append((rep.p, fs, identity_map(s)))
        cases.append((rep.p, [compose_maps(rep.qis, identity_map(s)) for _ in range(2)], rep.qis))
    # a two-term complex over A3, replaced by splitting off its bottom term
    p2 = projective_module(alg_a3, 1)[0]
    s2 = simple_module(alg_a3, 1)
    x = BoundedComplex(alg_a3, {-1: p2, 0: s2}, {-1: hom_basis_dense(p2, s2)[0]})
    rep = ctx.replacement(x)
    cases.append((rep.p, [rep.qis, zero_map(rep.p, x)], rep.qis))
    for p, fs, s in cases:
        batched = ctx.lift_many_through_qis(p, fs, s)
        assert len(batched) == len(fs)
        for f, lift in zip(fs, batched):
            _same_lift(lift, ctx.lift_through_qis(p, f, s))


def test_batched_lift_empty_batch(ctx, alg_a2):
    s2 = stalk_complex(simple_module(alg_a2, 1))
    rep = ctx.replacement(s2)
    assert ctx.lift_many_through_qis(rep.p, [], identity_map(s2)) == []


def test_batched_lift_from_complex_without_degrees(ctx, alg_a2):
    s2 = stalk_complex(simple_module(alg_a2, 1))
    p = zero_complex(alg_a2)
    fs = [zero_map(p, s2), zero_map(p, s2)]
    batched = ctx.lift_many_through_qis(p, fs, identity_map(s2))
    assert len(batched) == 2
    for f, lift in zip(fs, batched):
        assert lift.target is s2 and lift.is_zero()
        _same_lift(lift, ctx.lift_through_qis(p, f, identity_map(s2)))


def test_lift_augmentation_through_itself(ctx, alg_a2):
    # lifting the augmentation P(S2) -> S2 through itself gives a map
    # homotopic to the identity: its cone is acyclic
    s2 = stalk_complex(simple_module(alg_a2, 1))
    rep = ctx.replacement(s2)
    g = ctx.lift_through_qis(rep.p, rep.qis, rep.qis)
    c = cone(g)
    assert homology_dims(c) == {}


@pytest.mark.parametrize("fixture", ["F1", "F2"])
def test_every_suite_lift_matches_the_entrywise_oracle(monkeypatch, fixture):
    # the lifts are solved in hom-complex coordinates; the oracle writes
    # the same equations entry by entry, and the free unknowns are zero
    # in both, so every component must agree exactly
    from gluecat.cli import run_suite
    from gluecat.scenarios import fixture_scenario, parse_scenario

    solved = []
    solve = DerivedContext._solve_lifts

    def recording(self, p, s, *fs):
        out = solve(self, p, s, *fs)
        solved.append((p, s, fs, out))
        return out

    monkeypatch.setattr(DerivedContext, "_solve_lifts", recording)
    ctx = DerivedContext()
    run_suite(parse_scenario(fixture_scenario(fixture)), ctx)
    # every lift the suite builds is compared with the oracle
    assert 0 < len(solved) == ctx.memo_counts()["lift"][0]
    for p, s, fs, out in solved:
        for f, g, (g_ref, h_ref) in zip(fs, out, lifts_entrywise(p, s, fs), strict=True):
            for n in p.degrees():
                assert np.array_equal(g.comp(n), g_ref[n])
            # the oracle's homotopy witnesses the library's lift
            assert homotopy_witnesses(h_ref, f, compose_maps(g, s))


@pytest.fixture(scope="module", params=["F1", "F2", "F3"])
def suite_coordinates(request):
    """``(blocks, classes, lifts)`` of one fixture's ``run_suite``: each
    s_* block that ``_solve_lifts`` built, as ``(hy, hx, s, block)``, each
    ``(hom space, coordinates)`` that ``mor_from_coords`` materialised,
    and each lift it solved, as ``(f, g, s)``."""
    from gluecat import reflect

    blocks, classes, lifts, made = [], [], [], []
    solve, diagonal, materialise = DerivedContext._solve_lifts, HomComplex._diagonal, reflect.mor_from_coords

    def recording_diagonal(self, n, target, m, mats):
        out = diagonal(self, n, target, m, mats)
        if m == n:   # the differentials run from degree n to n + 1
            made.append((self, target, out))
        return out

    def recording_solve(self, p, s, *fs):
        start = len(made)
        out = solve(self, p, s, *fs)
        assert len(made) - start == (1 if fs else 0)
        blocks.extend((hy, hx, s, block) for hy, hx, block in made[start:])
        lifts.extend((f, g, s) for f, g in zip(fs, out, strict=True))
        return out

    def recording_materialise(hs, coords):
        classes.append((hs, np.array(coords)))
        return materialise(hs, coords)

    ctx = DerivedContext()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DerivedContext, "_solve_lifts", recording_solve)
        mp.setattr(HomComplex, "_diagonal", recording_diagonal)
        mp.setattr(reflect, "mor_from_coords", recording_materialise)
        run_suite(parse_scenario(fixture_scenario(request.param)), ctx)
    assert 0 < len(blocks) == ctx.memo_counts()["lift"][0]
    assert classes
    return blocks, classes, lifts


def test_every_suite_push_block_matches_the_expansion_oracle(suite_coordinates):
    # the block is read off s in the weight bases; the oracle expands each
    # basis element, multiplies by s and reads it back, and raises unless
    # s is A-linear
    blocks, _, _ = suite_coordinates
    for hy, hx, s, block in blocks:
        assert np.array_equal(block, hom_map_by_expansion(hy, hx, s))


def test_every_suite_lift_is_a_lift_up_to_homotopy(suite_coordinates):
    # a lift is returned without its homotopy: f - g s must still be a
    # boundary of Hom(p, x), for every lift the suite solves
    _, _, lifts = suite_coordinates
    assert lifts
    for f, g, s in lifts:
        assert g.source.key == f.source.key and g.target is s.source
        assert lifts_up_to_homotopy(f, g, s)


def test_expansion_oracle_rejects_a_map_that_is_not_a_hom(ctx, alg_a3):
    x = stalk_complex(regular_module(alg_a3))
    p = ctx.replacement(x).p
    hc = ctx.hom_complex(p, x)
    swap = np.roll(np.eye(x.term(0).dim, dtype=np.int64), 1, axis=1)
    s = ChainMap(x, x, {0: swap})
    with pytest.raises(ValueError, match="not a module hom"):
        hom_map_by_expansion(hc, hc, s)


def test_class_from_coordinates_matches_the_sum_of_basis_maps(suite_coordinates):
    from gluecat.recollement import mor_from_coords

    _, classes, _ = suite_coordinates
    spaces = {id(hs): hs for hs, _ in classes}.values()
    cases = classes + [(hs, np.zeros(hs.dim, dtype=np.int64)) for hs in spaces]
    for hs, coords in cases:
        mor = mor_from_coords(hs, coords)
        assert (mor.x, mor.y, mor.src_qis) == (hs.x, hs.y, hs.p_qis)
        assert mor.map.key == mor_by_sum(hs, coords).key
        if not coords.any():
            assert mor.map.key == zero_map(hs.p, hs.y).key


def test_class_from_no_coordinates_is_the_zero_map(ctx, alg_a3):
    from gluecat.recollement import mor_from_coords

    # Hom(P_2, S_0[n]) = S_0 e_2 = 0 in degree 0 and P_2 is projective
    hs = ctx.hom_space(stalk_complex(projective_module(alg_a3, 2)[0]), stalk_complex(simple_module(alg_a3, 0)))
    assert hs.dim == 0
    mor = mor_from_coords(hs, np.zeros(0, dtype=np.int64))
    assert mor.map.key == zero_map(hs.p, hs.y).key == mor_by_sum(hs, []).key


def test_content_equal_pairs_share_one_hom_complex(ctx, alg_a3):
    for x, twin in _twins(alg_a3):
        p = ctx.replacement(x).p
        hc = ctx.hom_complex(p, x)
        p2 = BoundedComplex(alg_a3, dict(p.terms), dict(p.diffs))
        builds = ctx.memo_counts()["hom_complex"][0]
        hc2 = ctx.hom_complex(p2, twin)
        assert ctx.memo_counts()["hom_complex"][0] == builds
        assert hc2 is hc and hc.p is p and hc.y is x
        assert ctx.hom_complex(p, twin) is hc and ctx.hom_complex(p2, x) is hc
        # built on first use, through either pair, and then shared
        assert hc2.diff(0) is hc.diff(0) and hc.diff(-1) is hc2.diff(-1)
    # hom spaces and lifts out of one replacement into content-equal
    # targets use the first complex built; derived Hom dimensions
    # neither build nor ask for one
    ctx = DerivedContext()
    x, twin = _twins(alg_a3)[0]
    rep = ctx.replacement(x)
    hc = ctx.hom_space(x, x).hc
    counts = ctx.memo_counts()["hom_complex"]
    assert ctx.derived_hom_dims(x, twin) == {0: 1}
    assert ctx.memo_counts()["hom_complex"] == counts == (1, 1)
    assert ctx.hom_space(twin, x).hc is hc
    ctx.lift_through_qis(rep.p, rep.qis, identity_map(x))
    assert ctx.memo_counts()["hom_complex"] == (1, 3)


# ----------------------------------------------------------------------
# derived tensor
# ----------------------------------------------------------------------


def test_derived_tensor_regular_stalk(ctx, alg_a2):
    from gluecat.modules import regular_module

    x = stalk_complex(regular_module(alg_a2))
    w = regular_bimodule(alg_a2)
    out, _ = ctx.derived_tensor(x, w)
    assert homology_dims(out) == {0: alg_a2.dim}


def test_nakayama_derived_tensor_on_projectives(ctx, alg_a2):
    da = nakayama_bimodule(alg_a2)
    p1 = stalk_complex(projective_module(alg_a2, 0)[0])
    p2 = stalk_complex(projective_module(alg_a2, 1)[0])
    out1, _ = ctx.derived_tensor(p1, da)
    out2, _ = ctx.derived_tensor(p2, da)
    assert homology_dims(out1) == {0: 2}  # I1
    assert homology_dims(out2) == {0: 1}  # I2


def test_nakayama_derived_tensor_on_simple(ctx, alg_a2):
    # T(S2) = S2 ⊗^L DA: from 0 -> P1 -> P2 -> S2, tensoring gives I1 -> I2
    da = nakayama_bimodule(alg_a2)
    s2 = stalk_complex(simple_module(alg_a2, 1))
    out, _ = ctx.derived_tensor(s2, da)
    hd = homology_dims(out)
    assert sum(hd.values()) >= 1
    assert euler_characteristic(out) == -1  # dims 2 in degree -1, 1 in degree 0 -> -(2) + 1


# ----------------------------------------------------------------------
# derived hom dimensions
# ----------------------------------------------------------------------


def test_derived_hom_identity_class(ctx, alg_a3):
    for x in _stalks(alg_a3):
        if x.is_zero():
            continue
        assert ctx.derived_hom_dims(x, x).get(0, 0) >= 1


def test_derived_hom_projective_pair(ctx, alg_a2):
    p1 = stalk_complex(projective_module(alg_a2, 0)[0])
    p2 = stalk_complex(projective_module(alg_a2, 1)[0])
    dims = ctx.derived_hom_dims(p1, p2)
    assert dims == {0: 1}


def test_derived_hom_matches_ext_oracle(ctx, alg_a2, alg_a3):
    for a in (alg_a2, alg_a3):
        mods = projectives(a) + simples(a)
        for m in mods:
            for n in mods:
                oracle = ext_dims(m, n, 2)
                got = ctx.derived_hom_dims(stalk_complex(m), stalk_complex(n))
                for k in range(3):
                    assert got.get(k, 0) == oracle[k], (m.name, n.name, k)


def test_derived_hom_invariant_under_replacement(ctx, alg_a2):
    s2 = stalk_complex(simple_module(alg_a2, 1))
    rep = ctx.replacement(s2)
    p1 = stalk_complex(projective_module(alg_a2, 0)[0])
    assert ctx.derived_hom_dims(s2, p1) == ctx.derived_hom_dims(rep.p, p1)
    assert ctx.derived_hom_dims(p1, s2) == ctx.derived_hom_dims(p1, rep.p)


def _f1_stalks(a):
    return {m.name: stalk_complex(m) for m in projectives(a) + simples(a)}


def _count_calls(monkeypatch, cls, names) -> dict[str, list]:
    """The arguments of every call of each method ``names`` of ``cls``."""
    calls = {name: [] for name in names}

    def recording(method, record):
        return lambda self, *args: record.append(args) or method(self, *args)

    for name in names:
        monkeypatch.setattr(cls, name, recording(getattr(cls, name), calls[name]))
    return calls


@pytest.mark.parametrize("pair", [("P1", "S2"), ("P1", "S1"), ("S2", "S2")])
def test_hom_complex_in_one_degree_assembles_no_differential(monkeypatch, ctx, alg_a2, pair):
    # F1 stalks whose hom complex is nonzero in at most one degree: every
    # differential has a zero side, so neither the dimensions nor any
    # diff(n) build a summand table, a layout or a differential
    x, y = (_f1_stalks(alg_a2)[name] for name in pair)
    p = ctx.replacement(x).p
    names = ("_diagonal", "_build_extension", "_build_extension_at", "_build_layout", "_build_diff")
    calls = _count_calls(monkeypatch, HomComplex, names)
    assert ctx.derived_hom_dims(x, y) == hom_complex_dims(p, y)
    hc = HomComplex(p, y)
    assert sum(hc.dim(n) > 0 for n in range(hc.lo, hc.hi + 1)) <= 1
    for n in range(hc.lo - 1, hc.hi + 1):
        d = hc.diff(n)
        assert d is complexes._zeros(hc.dim(n), hc.dim(n + 1))
        assert d.shape == (hc.dim(n), hc.dim(n + 1)) and not d.flags.writeable
    assert calls == {name: [] for name in names}


def test_derived_hom_dims_build_only_differentials_between_nonzero_terms(monkeypatch, ctx, alg_a2):
    # Hom(S2, P2) has dimensions 1, 1 in degrees 0, 1: d^0 is the one
    # differential ranked, and d^-1, d^1 are neither built nor laid out
    x, y = (_f1_stalks(alg_a2)[name] for name in ("S2", "P2"))
    p = ctx.replacement(x).p
    calls = _count_calls(monkeypatch, HomComplex, ("_build_diff", "_build_layout"))
    assert ctx.derived_hom_dims(x, y) == hom_complex_dims(p, y) == {}
    assert calls == {"_build_diff": [(0,)], "_build_layout": [(0,), (1,)]}


def _random_projective_complex(draw, a, rng) -> ProjectiveComplex:
    """One or two terms with random vertex tuples (unsorted, repeated or
    empty) and, for two, a random module hom between them."""
    lo = draw(st.integers(-1, 1))
    vertex = st.integers(0, a.n_idempotents - 1)
    tuples = draw(st.lists(st.lists(vertex, max_size=4).map(tuple), min_size=1, max_size=2))
    diffs = {}
    if len(tuples) == 2:
        basis = hom_basis_dense(*(projective_sum(a, vs)[0] for vs in tuples))
        if basis:
            coeffs = rng.integers(0, a.field.p, len(basis))
            diffs[lo] = sum(int(c) * b for c, b in zip(coeffs, basis)) % a.field.p
    return ProjectiveComplex(a, {lo + k: vs for k, vs in enumerate(tuples)}, diffs)


@st.composite
def _hom_complex_pairs(draw):
    """``(p, y)`` over A3 or the Kronecker quiver at p = 2, 3 or 32003: p a
    random complex of projectives, and y another or the stalk of a simple,
    so that weight spaces of y at the vertices of p are often zero."""
    fld = PrimeField(draw(st.sampled_from([2, 3, 32003])))
    quiver = draw(st.sampled_from([Quiver(3, ((0, 1), (1, 2))), Quiver(2, ((0, 1), (0, 1)))]))
    a = path_algebra(quiver, fld)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = _random_projective_complex(draw, a, rng)
    if draw(st.booleans()):
        return p, _random_projective_complex(draw, a, rng)
    return p, stalk_complex(simple_module(a, draw(st.integers(0, quiver.n - 1))), draw(st.integers(-1, 1)))


@settings(max_examples=60, deadline=None)
@given(_hom_complex_pairs())
def test_hom_complex_matches_the_per_summand_reference(pair):
    # dimensions, layouts, expansions, coordinates and every differential
    # built per degree and per run equal the summand-by-summand reference
    p, y = pair
    hc, ref = HomComplex(p, y), HomComplexBySummand(p, y)
    fld = p.field
    rng = np.random.default_rng(0)
    for n in range(hc.lo - 1, hc.hi + 2):
        slices, blocks, dim = ref.layout(n)
        layout, dim1 = hc._layout(n)
        assert hc.dim(n) == dim1 == dim
        # the runs of p^i cover its summands in order, one run per stretch
        # of equal consecutive vertices, each summand at its reference slice
        k = 0
        for i, vs in p.vertices.items():
            runs = layout.get(i)
            if runs is None:
                assert all(slices[k + q].start == slices[k + q].stop for q in range(len(vs)))
                k += len(vs)
                continue
            assert [v for v, *_ in runs] == [v for q, v in enumerate(vs) if q == 0 or vs[q - 1] != v]
            start = k
            for v, first, r, off, lo, hi, block in runs:
                assert first == k - start and vs[first:first + r] == (v,) * r
                assert off == projective_sum(p.algebra, vs)[1][first]
                s = (hi - lo) // r
                for q in range(r):
                    assert slices[k] == slice(lo + q * s, lo + (q + 1) * s)
                    assert s == 0 or block == blocks[k]
                    k += 1
        coeffs = rng.integers(0, fld.p, (3, dim))
        coeffs[1] = 0
        expanded, reference = hc._expand(n, coeffs), ref.expand(n, coeffs)
        assert list(expanded) == list(reference)
        assert all(np.array_equal(expanded[i], reference[i]) for i in reference)
        coords = hc._coords(n, 3, reference)
        assert np.array_equal(coords, ref.coords(n, 3, reference)) and np.array_equal(coords, coeffs)
    for n in range(hc.lo - 1, hc.hi + 1):
        assert np.array_equal(hc.diff(n), ref.diff(n))


@st.composite
def _complexes_with_zero_terms(draw):
    """``(fld, dims, diffs, homology)``: a complex of GF(p) vector spaces
    over ``dims``, with a zero term strictly inside the range.  Degree k
    holds ``hom[k]`` homology and ``bnd[k]`` copies of k -> k into degree
    k + 1, in a random basis G_k of each term: d^k = G_k^-1 D^k G_{k+1}."""
    fld = PrimeField(draw(st.sampled_from([2, 3, 32003])))
    lo, length = draw(st.integers(-3, 3)), draw(st.integers(3, 6))
    hom = draw(st.lists(st.integers(0, 2), min_size=length, max_size=length))
    bnd = draw(st.lists(st.integers(0, 2), min_size=length - 1, max_size=length - 1)) + [0]
    zero = draw(st.integers(1, length - 2))
    hom[zero] = bnd[zero] = bnd[zero - 1] = 0
    size = [hom[k] + bnd[k] + (bnd[k - 1] if k else 0) for k in range(length)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def basis(n):
        low, up = (np.tril(rng.integers(0, fld.p, (n, n)), -1) for _ in range(2))
        return fld.matmul(low + np.eye(n, dtype=np.int64), up.T + np.eye(n, dtype=np.int64))

    bases = [basis(n) for n in size]
    diffs = {}
    for k in range(length - 1):
        d = fld.zeros(size[k], size[k + 1])
        src, dst = hom[k], hom[k + 1] + bnd[k + 1]
        d[src:src + bnd[k], dst:dst + bnd[k]] = np.eye(bnd[k], dtype=np.int64)
        diffs[lo + k] = fld.mul_chain(fld.inv(bases[k]), d, bases[k + 1])
    dims = {lo + k: n for k, n in enumerate(size)}
    return fld, dims, diffs, {lo + k: h for k, h in enumerate(hom) if h}


@settings(max_examples=80, deadline=None)
@given(_complexes_with_zero_terms())
def test_homology_ranks_only_between_nonzero_terms(case):
    # the homology of a random complex with zero terms in its range,
    # against the count that ranks every differential; only the
    # differentials between two nonzero terms are asked for
    fld, dims, diffs, homology = case
    for n in diffs:
        assert not fld.matmul(diffs[n], diffs.get(n + 1, fld.zeros(dims[n + 1], 0))).any()

    def diff(n):
        return diffs.get(n, fld.zeros(dims.get(n, 0), dims.get(n + 1, 0)))

    asked = []
    got = complexes._homology(fld, dims, lambda n: asked.append(n) or diff(n))
    assert got == homology_by_ranks(fld, dims, diff) == homology
    assert all(dims.get(n) and dims.get(n + 1) for n in asked)


def _checked_hom_dims(ctx, x, y):
    """``derived_hom_dims(x, y)``, checked against the Hom complex."""
    got = ctx.derived_hom_dims(x, y)
    assert got == hom_complex_dims(ctx.replacement(x).p, y), (x.name, y.name)
    return got


def test_derived_hom_dims_match_the_hom_complex_on_the_fixtures(monkeypatch):
    # every pair the F1-F3 suites ask for, in Yoneda coordinates, against
    # the Hom complex in module-hom bases; no hom complex is asked for.
    # The suites turn exceptions into cells, so the spy only records.
    # Built once per content of (replacement, y): 856 contents, where
    # keying by (x, y) built 1,047.
    build = DerivedContext._build_hom_dims
    pairs, wrong = [], []
    ctxs = []

    def spy(p, y):
        counts = [c.memo_counts()["hom_complex"] for c in ctxs]
        got = build(p, y)
        asked = [c.memo_counts()["hom_complex"] for c in ctxs] != counts
        pairs.append((p.name, y.name))
        if asked or got != hom_complex_dims(p, y):
            wrong.append(pairs[-1])
        return got

    monkeypatch.setattr(DerivedContext, "_build_hom_dims", staticmethod(spy))
    for name in ("F1", "F2", "F3"):
        ctxs.append(DerivedContext())
        run_suite(parse_scenario(fixture_scenario(name)), ctxs[-1])
    assert len(pairs) == 856 and wrong == []


PRIME_CASES = {
    "A3, e = {2}": (Quiver(3, ((0, 1), (1, 2))), [1]),
    "D4 centre": (Quiver(4, ((0, 3), (1, 3), (2, 3))), [3]),
    "Kronecker": (Quiver(2, ((0, 1), (0, 1))), [1]),
}


@pytest.mark.parametrize("case", sorted(PRIME_CASES))
def test_derived_hom_dims_do_not_depend_on_the_prime(case):
    # the dimensions are those over any prime; -1 = 1 only at p = 2
    quiver, e = PRIME_CASES[case]
    tables = []
    for p in (2, 3, 32003):
        rec = build_recollement(path_algebra(quiver, PrimeField(p)), e, seed=17)
        tables.append({
            (tag, xn, yn): _checked_hom_dims(rec.ctx, x, y)
            for tag, menu in default_menus(rec).items()
            for xn, x in menu
            for yn, y in menu
        })
    assert tables[0] == tables[1] == tables[2]
    assert any(n != 0 for dims in tables[0].values() for n in dims)


@pytest.mark.parametrize("p", [2, 3, 32003])
@pytest.mark.parametrize("case", sorted(PRIME_CASES))
def test_hom_complex_maps_see_the_signs(case, p):
    # no sign in the blocks of d changes a rank, so the dimension tests
    # cannot see one; on maps: every degree-0 cycle expands to a chain
    # map, and d of every degree -1 element h expands to h d_y + d_p h.
    # The targets are the menu objects and their shifts y[1], into which
    # the degree -1 elements out of two-term replacements have d_p parts
    quiver, e = PRIME_CASES[case]
    rec = build_recollement(path_algebra(quiver, PrimeField(p)), e, seed=17)
    fld = rec.algebra.field
    cycles = homotopies = 0
    for menu in default_menus(rec).values():
        targets = [y for _, y0 in menu for y in (y0, shift(y0, 1))]
        for _, x in menu:
            px = rec.ctx.replacement(x).p
            for y in targets:
                hc = rec.ctx.hom_complex(px, y)
                for vec in hc.cycle_space(0):
                    hc.vector_to_chain_map(vec).validate()
                    cycles += 1
                k = hc.dim(-1)
                if not k:
                    continue
                h = hc._expand(-1, fld.identity(k))
                dh = hc._expand(0, hc.diff(-1))

                def comp(maps, i, j):
                    return maps.get(i, np.zeros((k, px.term(i).dim, y.term(j).dim), dtype=np.int64))

                for i in px.degrees():
                    want = (
                        fld.matmul(comp(h, i, i - 1), y.diff(i - 1))
                        + fld.matmul(px.diff(i), comp(h, i + 1, i))
                    ) % fld.p
                    assert np.array_equal(comp(dh, i, i), want), (x.name, y.name, i)
                homotopies += k
    assert cycles > 0 and homotopies > 0


def test_hom_spaces_lifts_and_certificates_build_no_module_hom(monkeypatch):
    # they read Yoneda coordinates; only the menus' cones ask for a module hom
    build, depth, calls = modules.hom_basis_matrices, [0], {"inside": 0, "outside": 0}

    def spy(m, n):
        calls["inside" if depth[0] else "outside"] += 1
        return build(m, n)

    def entered(method):
        def wrapped(self, *args, **kwargs):
            depth[0] += 1
            try:
                return method(self, *args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapped

    # every gluecat module that imported it by name calls the spy
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "gluecat" and hasattr(mod, "hom_basis_matrices"):
            monkeypatch.setattr(mod, "hom_basis_matrices", spy)
    for name in ("hom_space", "lift_many_through_qis", "derived_iso_certificate"):
        monkeypatch.setattr(DerivedContext, name, entered(getattr(DerivedContext, name)))
    for name in ("F1", "F2", "F3"):
        run_suite(parse_scenario(fixture_scenario(name)), DerivedContext())
    assert calls["outside"] > 0 and calls["inside"] == 0


def test_hom_complex_needs_summand_data(alg_a3):
    x = stalk_complex(projective_module(alg_a3, 0)[0])
    with pytest.raises(TypeError, match="not a ProjectiveComplex"):
        HomComplex(x, x)


def test_derived_hom_dims_with_a_zero_side(ctx, alg_a3):
    zero = zero_complex(alg_a3)
    for x in _stalks(alg_a3):
        assert _checked_hom_dims(ctx, zero, x) == {}
        assert _checked_hom_dims(ctx, x, zero) == {}
    assert ctx.memo_counts()["hom_complex"] == (0, 0)


def test_derived_hom_dims_with_a_zero_weight_space():
    # over 1 -> 2 -> 3 at p = 3, S2 is resolved by P1 -> P2; S1 is zero
    # at vertex 2, S2 at vertex 1, and S3 at both
    a = path_algebra(Quiver(3, ((0, 1), (1, 2))), PrimeField(3))
    ctx = DerivedContext()
    s1, s2, s3 = (stalk_complex(m) for m in simples(a))
    assert [ctx.replacement(s2).p.vertices[n] for n in (-1, 0)] == [(0,), (1,)]
    assert _checked_hom_dims(ctx, s2, s2) == {0: 1}
    assert _checked_hom_dims(ctx, s2, s1) == {1: 1}
    assert _checked_hom_dims(ctx, s2, s3) == {}
    assert _checked_hom_dims(ctx, s1, s2) == {}


def test_derived_hom_dims_in_odd_shifts():
    # Hom(x, y[k]) is Hom(x, y) moved by k, at p = 3 where -1 != 1.  An
    # odd k moves the sign (-1)^n of the d_p blocks to the other degrees.
    # No sign of those blocks can change one rank (scaling the blocks of
    # p^i by (-1)^i on both sides flips it), so these cases check the
    # degree bookkeeping of the blocks.
    a = path_algebra(Quiver(3, ((0, 1), (1, 2))), PrimeField(3))
    rec = build_recollement(a, [1], seed=17)
    menu = [x for _, x in default_menus(rec)["A"]]
    for x in menu:
        for y in menu:
            dims = _checked_hom_dims(rec.ctx, x, y)
            for k in (-1, 1, 3):
                moved = {n - k: d for n, d in dims.items()}
                assert _checked_hom_dims(rec.ctx, x, shift(y, k)) == moved
                assert _checked_hom_dims(rec.ctx, shift(x, -k), y) == moved


@pytest.mark.parametrize("p", [3, 32003])
def test_derived_hom_dims_over_the_kronecker_quiver(p):
    # S2 is resolved by P1 + P1 -> P2, whose two generators go to the two
    # parallel arrows: the blocks a_st are two different arrows
    a = path_algebra(Quiver(2, ((0, 1), (0, 1))), PrimeField(p))
    ctx = DerivedContext()
    s2 = stalk_complex(simple_module(a, 1))
    rep = ctx.replacement(s2).p
    assert rep.vertices[-1] == (0, 0) and rep.vertices[0] == (1,)
    p1, p2 = (stalk_complex(projective_module(a, v)[0]) for v in (0, 1))
    s1 = stalk_complex(simple_module(a, 0))
    assert _checked_hom_dims(ctx, s2, s1) == {1: 2}
    assert _checked_hom_dims(ctx, s2, p1) == {1: 2}
    assert _checked_hom_dims(ctx, s2, p2) == {1: 3}
    assert _checked_hom_dims(ctx, s2, s2) == {0: 1}
    assert _checked_hom_dims(ctx, s1, s2) == {}


# ----------------------------------------------------------------------
# certificates
# ----------------------------------------------------------------------


def test_certificate_on_self(ctx, alg_a2):
    x = stalk_complex(simple_module(alg_a2, 1))
    cert = ctx.derived_iso_certificate(x, x, seed=11)
    assert cert.certified


def test_certificate_detects_shift(ctx, alg_a2):
    x = stalk_complex(simple_module(alg_a2, 1))
    y = shift(x, 1)
    cert = ctx.derived_iso_certificate(x, y, seed=11)
    assert cert.status == "not-isomorphic"


def test_certificate_between_quasi_isomorphic_presentations(ctx, alg_a2):
    x = stalk_complex(simple_module(alg_a2, 1))
    rep = ctx.replacement(x)
    cert = ctx.derived_iso_certificate(x, rep.p, seed=3)
    assert cert.certified


def test_certificate_zero_attempts_inconclusive(alg_a2):
    ctx = DerivedContext()
    x = stalk_complex(simple_module(alg_a2, 1))
    y = BoundedComplex(alg_a2, {0: simple_module(alg_a2, 1)}, {})
    cert = ctx.derived_iso_certificate(x, y, seed=5, attempts=0)
    assert cert.status == "not-certified"


def test_certificate_acyclic_pair(ctx, alg_a2):
    p2 = projective_module(alg_a2, 1)[0]
    x = BoundedComplex(alg_a2, {0: p2, 1: p2}, {0: alg_a2.field.identity(2)})
    y = zero_complex(alg_a2)
    cert = ctx.derived_iso_certificate(x, y, seed=1)
    assert cert.certified

