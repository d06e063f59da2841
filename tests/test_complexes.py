import numpy as np
import pytest

from gluecat.complexes import (
    BoundedComplex,
    ChainMap,
    DerivedContext,
    cone,
    compose_maps,
    dual_chain_map,
    dual_complex,
    euler_characteristic,
    homology_dims,
    identity_map,
    scale_map,
    shift,
    stalk_complex,
    zero_complex,
    zero_map,
)
from gluecat.modules import (
    ext_dims,
    hom_basis_matrices,
    nakayama_bimodule,
    projective_module,
    simple_module,
    simples,
    projectives,
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
    f = hom_basis_matrices(s1, p2)[0]
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
    f = hom_basis_matrices(p3, s3)[0]
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
    assert d.injective_terms


def test_dual_homology_mirrors_degrees(alg_a3):
    ctx = DerivedContext()
    s3 = stalk_complex(simple_module(alg_a3, 2))
    rep = ctx.replacement(s3)
    hd = homology_dims(dual_complex(rep.p))
    assert hd == {-n: d for n, d in homology_dims(rep.p).items()}


def test_dual_chain_map_commutes(alg_a2):
    p2 = stalk_complex(projective_module(alg_a2, 1)[0])
    s2 = stalk_complex(simple_module(alg_a2, 1))
    f = hom_basis_matrices(p2.term(0), s2.term(0))[0]
    cm = ChainMap(p2, s2, {0: f})
    dm = dual_chain_map(cm)
    assert dm.source.algebra is dual_complex(s2).algebra
    assert np.array_equal(dm.comp(0), f.T)


# ----------------------------------------------------------------------
# projective replacement
# ----------------------------------------------------------------------


def test_replacement_of_projective_complex_is_iso(ctx, alg_a3):
    p3 = stalk_complex(projective_module(alg_a3, 2)[0])
    rep = ctx.replacement(p3)
    assert rep.sigma_inv is not None
    assert homology_dims(rep.p) == homology_dims(p3)
    assert rep.p.has_summand_data()


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
    assert rep.p.has_summand_data()
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


def test_replacement_is_cached(ctx, alg_a2):
    x = stalk_complex(simple_module(alg_a2, 1))
    assert ctx.replacement(x) is ctx.replacement(x)


# ----------------------------------------------------------------------
# lifting through quasi-isomorphisms
# ----------------------------------------------------------------------


def test_lift_through_identity(ctx, alg_a2):
    s2 = stalk_complex(simple_module(alg_a2, 1))
    rep = ctx.replacement(s2)
    g, h = ctx.lift_through_qis(rep.p, rep.qis, identity_map(s2))
    assert np.array_equal(g.comp(0), rep.qis.comp(0))
    assert h.witnesses(rep.qis, compose_maps(g, identity_map(s2)))


def test_lift_zero_map(ctx, alg_a2):
    s2 = stalk_complex(simple_module(alg_a2, 1))
    rep = ctx.replacement(s2)
    z = zero_map(rep.p, s2)
    g, h = ctx.lift_through_qis(rep.p, z, identity_map(s2))
    assert g.is_zero() or not np.any(
        np.concatenate([g.comp(n).reshape(-1) for n in rep.p.degrees()])
    )


def _same_lift(batched, single):
    (g_b, h_b), (g_s, h_s) = batched, single
    lo = min(g_s.source.lo, g_s.target.lo) - 1
    hi = max(g_s.source.hi, g_s.target.hi) + 1
    for n in range(lo, hi + 1):
        assert np.array_equal(g_b.comp(n), g_s.comp(n))
        assert np.array_equal(h_b.comp(n), h_s.comp(n))


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
    x = BoundedComplex(alg_a3, {-1: p2, 0: s2}, {-1: hom_basis_matrices(p2, s2)[0]})
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
        assert lift[0].target is s2 and lift[0].is_zero()
        _same_lift(lift, ctx.lift_through_qis(p, f, identity_map(s2)))


def test_lift_augmentation_through_itself(ctx, alg_a2):
    # lifting the augmentation P(S2) -> S2 through itself gives a map
    # homotopic to the identity: its cone is acyclic
    s2 = stalk_complex(simple_module(alg_a2, 1))
    rep = ctx.replacement(s2)
    g, h = ctx.lift_through_qis(rep.p, rep.qis, rep.qis)
    c = cone(g)
    assert homology_dims(c) == {}


# ----------------------------------------------------------------------
# derived tensor
# ----------------------------------------------------------------------


def test_derived_tensor_regular_stalk(ctx, alg_a2):
    from gluecat.modules import regular_module, regular_bimodule

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
        assert ctx.degreewise_dim(x, x, 0) >= 1


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


# ----------------------------------------------------------------------
# minimalization pass
# ----------------------------------------------------------------------


def test_minimize_kills_contractible_complex(ctx, alg_a3):
    from gluecat.complexes import minimize_projective

    p3 = stalk_complex(projective_module(alg_a3, 2)[0])
    c = cone(identity_map(p3))
    rep = ctx.replacement(c)
    small = minimize_projective(rep.p)
    assert small.total_dim() == 0


def test_minimize_preserves_homology(ctx, alg_a3):
    from gluecat.complexes import minimize_projective

    s3 = stalk_complex(simple_module(alg_a3, 2))
    rep = ctx.replacement(s3)
    small = minimize_projective(rep.p)
    assert homology_dims(small) == homology_dims(rep.p)
    # a minimal resolution admits no further cancellation
    assert small.total_dim() <= rep.p.total_dim()


def test_minimize_on_padded_resolution(ctx, alg_a2):
    from gluecat.complexes import minimize_projective
    from gluecat.modules import projective_module as pm

    # pad the minimal resolution of S2 with a contractible P1 -> P1 summand
    s2 = stalk_complex(simple_module(alg_a2, 1))
    rep = ctx.replacement(s2)
    p1 = pm(alg_a2, 0)[0]
    fld = alg_a2.field
    from gluecat.complexes import BoundedComplex, ProjSummands
    from gluecat.modules import direct_sum

    t_lo, _ = direct_sum([rep.p.term(-1), p1])
    t_hi, _ = direct_sum([rep.p.term(0), p1])
    d = fld.zeros(t_lo.dim, t_hi.dim)
    d[: rep.p.term(-1).dim, : rep.p.term(0).dim] = rep.p.diff(-1)
    d[rep.p.term(-1).dim:, rep.p.term(0).dim:] = fld.identity(p1.dim)
    old_lo, old_hi = rep.p.summand(-1), rep.p.summand(0)
    gen = pm(alg_a2, 0)[2]
    pad = BoundedComplex(
        alg_a2,
        {-1: t_lo, 0: t_hi},
        {-1: d},
        summands={
            -1: ProjSummands(
                old_lo.vertices + [0],
                old_lo.offsets + [rep.p.term(-1).dim],
                [np.concatenate([g, np.zeros(p1.dim, dtype=np.int64)]) for g in old_lo.gens]
                + [np.concatenate([np.zeros(rep.p.term(-1).dim, dtype=np.int64), gen])],
            ),
            0: ProjSummands(
                old_hi.vertices + [0],
                old_hi.offsets + [rep.p.term(0).dim],
                [np.concatenate([g, np.zeros(p1.dim, dtype=np.int64)]) for g in old_hi.gens]
                + [np.concatenate([np.zeros(rep.p.term(0).dim, dtype=np.int64), gen])],
            ),
        },
    )
    small = minimize_projective(pad)
    assert homology_dims(small) == homology_dims(rep.p)
    assert small.total_dim() == rep.p.total_dim()
