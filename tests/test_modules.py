import numpy as np
import pytest

from gluecat.algebra import Quiver, opposite, path_algebra
from gluecat.complexes import stalk_complex
from gluecat.modules import (
    global_dimension,
    hom_basis_matrices,
    injective_module,
    injectives,
    k_dual,
    nakayama_bimodule,
    projective_cover,
    projective_module,
    projectives,
    regular_module,
    resolution_data,
    simple_module,
    simples,
    tensor_over,
    zero_module,
    Bimodule,
    ResolutionExceedsCapError,
)

from oracles import (
    ext_dims,
    hom_basis,
    k_dual_hom,
    operator,
    paths_with_source,
    paths_with_target,
    regular_bimodule,
)


# ----------------------------------------------------------------------
# projectives / injectives / simples
# ----------------------------------------------------------------------


def test_a2_projective_dims(alg_a2):
    p1, _, _ = projective_module(alg_a2, 0)
    p2, _, _ = projective_module(alg_a2, 1)
    assert p1.dim == len(paths_with_target(2, [(0, 1)], 0)) == 1
    assert p2.dim == len(paths_with_target(2, [(0, 1)], 1)) == 2


def test_a2_injective_dims(alg_a2):
    i1 = injective_module(alg_a2, 0)
    i2 = injective_module(alg_a2, 1)
    assert i1.dim == len(paths_with_source(2, [(0, 1)], 0)) == 2
    assert i2.dim == len(paths_with_source(2, [(0, 1)], 1)) == 1


def test_projective_dims_sum_to_algebra_dim(alg_a3):
    assert sum(p.dim for p in projectives(alg_a3)) == alg_a3.dim
    assert sum(i.dim for i in injectives(alg_a3)) == alg_a3.dim


def test_projective_module_is_memoised_read_only(alg_a3):
    first = projective_module(alg_a3, 1)
    again = projective_module(alg_a3, 1)
    assert all(a is b for a, b in zip(first, again))
    mod, rows, gen = first
    for arr in (mod.action, rows, gen):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1
    assert projectives(alg_a3)[1] is mod


def _twins(a, v):
    """Two distinct module objects with equal action tensors."""
    first, second = simple_module(a, v), simple_module(a, v)
    assert first is not second
    assert first.action.tobytes() == second.action.tobytes()
    return first, second


def _assert_read_only(arrays):
    for arr in arrays:
        assert not arr.flags.writeable
        if arr.size:
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1


def test_module_constructions_are_shared_by_content(alg_a3):
    s2, twin = _twins(alg_a3, 1)
    p2, _, _ = projective_module(alg_a3, 1)
    w = nakayama_bimodule(alg_a3)
    assert hom_basis_matrices(p2, s2) is hom_basis_matrices(p2, twin)
    assert hom_basis_matrices(s2, s2) is hom_basis_matrices(twin, twin)
    assert projective_cover(s2) is projective_cover(twin)
    assert tensor_over(s2, w) is tensor_over(twin, w)
    # the tensor memo is keyed by the content of M alone
    assert list(w._tensors) == [s2.key]
    assert tensor_over(p2, w) is not tensor_over(s2, w)


def test_shared_module_constructions_are_read_only(alg_a3):
    s2, _ = _twins(alg_a3, 1)
    p2, _, _ = projective_module(alg_a3, 1)
    basis = hom_basis_matrices(p2, s2)
    cov = projective_cover(s2)
    tens = tensor_over(s2, nakayama_bimodule(alg_a3))
    assert basis
    _assert_read_only(basis)
    _assert_read_only([cov.module.action, cov.surjection, *cov.gen_coords])
    _assert_read_only([tens.module.action, tens.pi, tens.section])


def test_module_memos_are_per_algebra(alg_a3):
    aop = opposite(alg_a3)
    s, s_op = simple_module(alg_a3, 1), simple_module(aop, 1)
    assert s.action.tobytes() == s_op.action.tobytes()
    assert hom_basis_matrices(s, s) is not hom_basis_matrices(s_op, s_op)
    assert projective_cover(s).module.algebra is alg_a3
    assert projective_cover(s_op).module.algebra is aop
    assert zero_module(alg_a3) is not zero_module(aop)


def test_zero_module_is_one_object_per_algebra(alg_a3):
    z = zero_module(alg_a3)
    assert zero_module(alg_a3) is z
    assert z.dim == 0 and z.algebra is alg_a3
    x = stalk_complex(simple_module(alg_a3, 0))
    assert x.term(-3) is z and x.term(2) is z


def test_injectives_are_duals_over_opposite(alg_a2):
    i2 = injective_module(alg_a2, 1)
    assert i2.algebra is alg_a2


# ----------------------------------------------------------------------
# hom spaces
# ----------------------------------------------------------------------


def test_hom_p1_p2_dimension(alg_a2):
    p1, _, _ = projective_module(alg_a2, 0)
    p2, _, _ = projective_module(alg_a2, 1)
    # oracle: Hom(P1, M) = M e_1; here P2 e_1 = span{a}
    assert len(hom_basis(p1, p2)) == 1
    assert len(hom_basis(p2, p1)) == 0


def test_hom_contains_identity(alg_a3):
    for m in projectives(alg_a3) + simples(alg_a3):
        basis = hom_basis_matrices(m, m)
        fld = m.field
        if m.dim == 0:
            continue
        stacked = np.stack([b.reshape(-1) for b in basis])
        eye = fld.identity(m.dim).reshape(1, -1)
        assert fld.coords_in_rows(stacked, eye) is not None


def test_hom_dim_equals_weight_space(alg_a3):
    # dim Hom(P_x, M) == dim(M e_x) for the whole menu
    menu = projectives(alg_a3) + simples(alg_a3) + injectives(alg_a3)
    for v in range(3):
        p, _, _ = projective_module(alg_a3, v)
        ev = alg_a3.idempotent_vector(v)
        for m in menu:
            weight = m.field.rank(operator(m, ev))
            assert len(hom_basis_matrices(p, m)) == weight


# ----------------------------------------------------------------------
# duality
# ----------------------------------------------------------------------


def test_double_dual_is_identity_on_the_nose(alg_a2):
    p2, _, _ = projective_module(alg_a2, 1)
    dd = k_dual(k_dual(p2))
    assert dd.algebra is p2.algebra
    assert np.array_equal(dd.action, p2.action)


def test_dual_of_left_projective_has_dim_2(alg_a2):
    # Ae1 = span{e1, a}; its dual over the opposite has dimension 2
    i1 = injective_module(alg_a2, 0)
    assert i1.dim == 2


def test_dual_zero_module(alg_a2):
    z = zero_module(alg_a2)
    assert k_dual(z).dim == 0


def test_dual_preserves_hom_dimensions(alg_a2):
    mods = projectives(alg_a2) + simples(alg_a2)
    for m in mods:
        for n in mods:
            d1 = len(hom_basis_matrices(m, n))
            d2 = len(hom_basis_matrices(k_dual(n), k_dual(m)))
            assert d1 == d2


def test_dual_hom_is_contravariant_intertwiner(alg_a2):
    p1, _, _ = projective_module(alg_a2, 0)
    p2, _, _ = projective_module(alg_a2, 1)
    f = hom_basis_matrices(p1, p2)[0]
    df = k_dual_hom(f)
    dp1, dp2 = k_dual(p1), k_dual(p2)
    fld = alg_a2.field
    for i in range(alg_a2.dim):
        assert np.array_equal(
            fld.matmul(dp2.action[i], df), fld.matmul(df, dp1.action[i])
        )


# ----------------------------------------------------------------------
# tensor products
# ----------------------------------------------------------------------


def _corner_bimodule_eA(a, e_vertices):
    """eA as a (corner-left, A-right) bimodule, built by hand for tests."""
    from gluecat.algebra import corner

    fld = a.field
    c, incl = corner(a, e_vertices)
    e = a.idempotent_sum(e_vertices)
    rows = fld.image_basis(a.left_mult_operator(e))
    right = np.stack(
        [
            fld.coords_in_rows(rows, fld.matmul(rows, a.right_mult_operator(a.basis_vector(i))))
            for i in range(a.dim)
        ]
    )
    left = np.stack(
        [
            fld.coords_in_rows(rows, fld.matmul(rows, a.left_mult_operator(incl[i])))
            for i in range(c.dim)
        ]
    )
    return Bimodule(c, a, left, right, name="eA"), c


def test_tensor_unit_constraint(alg_a2):
    bim = regular_bimodule(alg_a2)
    for m in projectives(alg_a2) + simples(alg_a2):
        t = tensor_over(m, bim)
        assert t.module.dim == m.dim
        # canonical map m ⊗ A -> m (v ⊗ a -> v a) inverts insert_right(1)
        ins = t.insert_right(alg_a2.unit)
        assert alg_a2.field.rank(ins) == m.dim


def test_tensor_with_corner_bimodule(alg_a2):
    # P2 ⊗_A Ae2 has dimension 1; P1 ⊗_A Ae2 = 0
    fld = alg_a2.field
    e = [1]
    # Ae as (A-left, corner-right) bimodule
    from gluecat.algebra import corner

    c, incl = corner(alg_a2, e)
    evec = alg_a2.idempotent_sum(e)
    rows = fld.image_basis(alg_a2.right_mult_operator(evec))
    left = np.stack(
        [
            fld.coords_in_rows(rows, fld.matmul(rows, alg_a2.left_mult_operator(alg_a2.basis_vector(i))))
            for i in range(alg_a2.dim)
        ]
    )
    right = np.stack(
        [
            fld.coords_in_rows(rows, fld.matmul(rows, alg_a2.right_mult_operator(incl[i])))
            for i in range(c.dim)
        ]
    )
    ae = Bimodule(alg_a2, c, left, right, name="Ae")
    p1, _, _ = projective_module(alg_a2, 0)
    p2, _, _ = projective_module(alg_a2, 1)
    assert tensor_over(p2, ae).module.dim == 1
    assert tensor_over(p1, ae).module.dim == 0


def test_nakayama_tensor_sends_projectives_to_injectives(alg_a2):
    da = nakayama_bimodule(alg_a2)
    p1, _, _ = projective_module(alg_a2, 0)
    p2, _, _ = projective_module(alg_a2, 1)
    t1 = tensor_over(p1, da).module
    t2 = tensor_over(p2, da).module
    assert t1.dim == 2  # I1
    assert t2.dim == 1  # I2
    i1 = injective_module(alg_a2, 0)
    assert len(hom_basis_matrices(t1, i1)) >= 1


# ----------------------------------------------------------------------
# covers, resolutions, global dimension
# ----------------------------------------------------------------------


def test_cover_of_projective_is_iso(alg_a3):
    for v in range(3):
        p, _, _ = projective_module(alg_a3, v)
        cov = projective_cover(p)
        assert cov.module.dim == p.dim
        assert cov.summands == [v]


def test_memoised_covers_carry_the_kernel_of_their_surjection(monkeypatch):
    # every cover built on F1-F3 is read back from its algebra's memo
    from gluecat import modules
    from gluecat.cli import run_suite
    from gluecat.scenarios import fixture_scenario, parse_scenario

    algebras = {}
    build = modules._build_cover

    def recorded(m):
        algebras[id(m.algebra)] = m.algebra
        return build(m)

    monkeypatch.setattr(modules, "_build_cover", recorded)
    for name in ("F1", "F2", "F3"):
        run_suite(parse_scenario(fixture_scenario(name)))
    covers = [cov for a in algebras.values() for cov in a._covers.values()]
    assert len(covers) > 100
    for cov in covers:
        fld = cov.module.field
        p_dim, m_dim = cov.surjection.shape
        assert not cov.kernel.flags.writeable
        assert np.array_equal(cov.kernel, fld.left_kernel_basis(cov.surjection))
        assert not np.any(fld.matmul(cov.kernel, cov.surjection))
        assert fld.rank(cov.surjection) == m_dim == p_dim - cov.kernel.shape[0]


def test_resolution_of_projective_has_length_zero(alg_a3):
    p, _, _ = projective_module(alg_a3, 1)
    res = resolution_data(p, cap=5)
    assert res.length == 0


def test_resolution_of_zero_module_is_empty(alg_a3):
    res = resolution_data(zero_module(alg_a3), cap=5)
    assert res.covers == [] and res.length == 0


def test_a3_simple_s3_resolution(alg_a3):
    # 0 -> P2 -> P3 -> S3: the top simple of the A_3 path algebra with
    # arrows 1->2->3 has projective dimension 1 and syzygy P2
    s3 = simple_module(alg_a3, 2)
    res = resolution_data(s3, cap=5)
    assert res.length == 1
    assert res.covers[0].summands == [2]
    assert res.covers[1].summands == [1]


def test_s1_is_projective_in_a3(alg_a3):
    s1 = simple_module(alg_a3, 0)
    assert resolution_data(s1, cap=5).length == 0


def test_resolution_exactness(alg_a3):
    fld = alg_a3.field
    for v in range(3):
        res = resolution_data(simple_module(alg_a3, v), cap=5)
        # augmented complex is exact: rank-nullity bookkeeping per degree
        if res.length == 0:
            continue
        d1 = res.diffs[0]
        aug = res.augmentation
        assert not np.any(fld.matmul(d1, aug))
        assert fld.rank(d1) == res.covers[1].module.dim  # injective tail
        assert fld.rank(aug) == res.module.dim


def test_global_dimension_hereditary(alg_a2, alg_a3, alg_kron):
    assert global_dimension(alg_a2, cap=4) == 1
    assert global_dimension(alg_a3, cap=4) == 1
    assert global_dimension(alg_kron, cap=4) == 1


def test_global_dimension_semisimple(gf):
    a = path_algebra(Quiver(2, ()), gf)
    assert global_dimension(a, cap=2) == 0


def test_resolution_cap_enforced(alg_a3):
    s3 = simple_module(alg_a3, 2)
    with pytest.raises(ResolutionExceedsCapError):
        resolution_data(s3, cap=0)


# ----------------------------------------------------------------------
# ext oracle route
# ----------------------------------------------------------------------


def test_ext_dims_between_simples_a2(alg_a2):
    s1 = simple_module(alg_a2, 0)
    s2 = simple_module(alg_a2, 1)
    # S2 has resolution 0 -> P1 -> P2 -> S2 (arrow 1->2, right modules)
    assert ext_dims(s2, s1, 2) == [0, 1, 0]
    assert ext_dims(s1, s2, 2) == [0, 0, 0]
    assert ext_dims(s1, s1, 2) == [1, 0, 0]


def test_ext_vanishes_on_projectives(alg_a3):
    p3, _, _ = projective_module(alg_a3, 2)
    for v in range(3):
        s = simple_module(alg_a3, v)
        assert ext_dims(p3, s, 2)[1:] == [0, 0]


def test_regular_module_end_dim(alg_a2):
    r = regular_module(alg_a2)
    # End(A_A) ≅ A
    assert len(hom_basis_matrices(r, r)) == alg_a2.dim
