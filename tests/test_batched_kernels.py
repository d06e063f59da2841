"""The batched module kernels against their per-element references.

Each kernel of the module set-up is built in whole-array operations:
restricted actions in one solve, relation systems without ``np.kron``,
cover generators by one rank profile.  The references in
:mod:`oracles` are the per-element routes; the results must agree
exactly, on the projectives, injectives, simples and syzygies of F1-F3,
A4 and D4 and of their opposites.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gluecat.algebra import IdealIsWholeAlgebraError, Quiver, corner, ideal_span, idempotent_quotient, opposite, path_algebra
from gluecat.field import PrimeField
from gluecat.modules import (
    _hom_system,
    _tensor_relations,
    hom_basis_matrices,
    injective_module,
    injectives,
    nakayama_bimodule,
    projective_cover,
    projective_module,
    projectives,
    regular_bimodule,
    simples,
    sub_bimodule,
    submodule_from_rows,
    tensor_hom,
    tensor_over,
)

from oracles import (
    corner_table_loop,
    cover_greedy,
    greedy_independent_rows,
    hom_system_kron,
    ideal_rows_loop,
    insert_right_loop,
    quotient_table_loop,
    restricted_action_loop,
    tensor_action_kron,
    tensor_hom_kron,
    tensor_relations_kron,
)

QUIVERS = {
    "F1": Quiver(2, ((0, 1),)),
    "F2": Quiver(3, ((0, 1), (1, 2))),
    "F3": Quiver(2, ((0, 1), (0, 1))),
    "A4": Quiver(4, ((0, 1), (1, 2), (2, 3))),
    "D4": Quiver(4, ((0, 3), (1, 3), (2, 3))),
}
CASES = [f"{name}{op}" for name in QUIVERS for op in ("", "^op")]


def _algebra(case):
    a = path_algebra(QUIVERS[case.removesuffix("^op")], PrimeField(32003))
    return opposite(a) if case.endswith("^op") else a


def _syzygies(m):
    """Iterated syzygies of M, each with the rows and ambient cover module
    it was cut out of."""
    fld = m.field
    out = []
    while m.dim:
        cov = projective_cover(m)
        rows = fld.left_kernel_basis(cov.surjection)
        if rows.shape[0] == 0:
            break
        m, _ = submodule_from_rows(cov.module, rows)
        out.append((m, rows, cov.module))
    return out


def _family(a):
    mods = projectives(a) + injectives(a) + simples(a)
    for m in simples(a) + injectives(a):
        mods += [s for (s, _, _) in _syzygies(m)]
    return mods


@pytest.mark.parametrize("case", CASES)
def test_restricted_actions_match_per_element_solves(case):
    a = _algebra(case)
    fld = a.field
    for v in range(a.n_idempotents):
        pm, rows, _ = projective_module(a, v)
        expect = restricted_action_loop(fld, rows, lambda i: a.right_mult_operator(a.basis_vector(i)), a.dim)
        assert np.array_equal(pm.action, expect)
        left_rows = fld.image_basis(a.right_mult_operator(a.idempotent_vector(v)))
        expect = restricted_action_loop(fld, left_rows, lambda i: a.left_mult_operator(a.basis_vector(i)), a.dim)
        assert np.array_equal(injective_module(a, v).action, np.transpose(expect, (0, 2, 1)))
    for m in simples(a) + injectives(a):
        for syz, rows, ambient in _syzygies(m):
            expect = restricted_action_loop(fld, rows, lambda i: ambient.action[i], a.dim)
            assert np.array_equal(syz.action, expect)


def _vertex_sets(a):
    """Every nonempty proper subset of the vertices."""
    n = a.n_idempotents
    return [[v for v in range(n) if mask >> v & 1] for mask in range(1, 2**n - 1)]


@pytest.mark.parametrize("case", CASES)
def test_corner_bimodules_match_per_element_solves(case):
    a = _algebra(case)
    fld = a.field
    for vs in _vertex_sets(a):
        c, incl = corner(a, vs)
        assert np.array_equal(c.mul_table, corner_table_loop(a, incl))
        e = a.idempotent_sum(vs)
        ea_rows = fld.image_basis(a.left_mult_operator(e))
        ae_rows = fld.image_basis(a.right_mult_operator(e))
        ea = sub_bimodule(c, a, ea_rows, a.left_mult_operator(incl), a.right_operators)
        ae = sub_bimodule(a, c, ae_rows, a.left_operators, a.right_mult_operator(incl))
        basis_r = lambda i: a.right_mult_operator(a.basis_vector(i))
        basis_l = lambda i: a.left_mult_operator(a.basis_vector(i))
        assert np.array_equal(ea.right_action, restricted_action_loop(fld, ea_rows, basis_r, a.dim))
        assert np.array_equal(
            ea.left_action, restricted_action_loop(fld, ea_rows, lambda i: a.left_mult_operator(incl[i]), c.dim)
        )
        assert np.array_equal(ae.left_action, restricted_action_loop(fld, ae_rows, basis_l, a.dim))
        assert np.array_equal(
            ae.right_action, restricted_action_loop(fld, ae_rows, lambda i: a.right_mult_operator(incl[i]), c.dim)
        )


@pytest.mark.parametrize("case", CASES)
def test_quotient_table_matches_per_pair_products(case):
    a = _algebra(case)
    for vs in _vertex_sets(a):
        assert np.array_equal(ideal_span(a, vs), ideal_rows_loop(a, vs))
        try:
            b, pi, sigma = idempotent_quotient(a, vs)
        except IdealIsWholeAlgebraError:
            continue
        assert np.array_equal(b.mul_table, quotient_table_loop(a, sigma, pi))


@pytest.mark.parametrize("case", CASES)
def test_hom_systems_match_kron(case):
    mods = _family(_algebra(case))
    for m in mods:
        for n in mods:
            if m.dim and n.dim:
                assert np.array_equal(_hom_system(m, n), hom_system_kron(m, n))


@pytest.mark.parametrize("case", CASES)
def test_tensor_products_match_kron(case):
    a = _algebra(case)
    mods = _family(a)
    for w in (nakayama_bimodule(a), regular_bimodule(a)):
        ts = [tensor_over(m, w) for m in mods]
        for m, t in zip(mods, ts):
            if m.dim:
                assert np.array_equal(_tensor_relations(m, w), tensor_relations_kron(m, w))
            if t.module.dim:
                assert np.array_equal(t.module.action, tensor_action_kron(t, w))
            for k in range(w.dim):
                coords = (np.arange(w.dim) == k) * (k + 2)
                assert np.array_equal(t.insert_right(coords), insert_right_loop(t, coords))
        for m, t in zip(mods, ts):
            for n, u in zip(mods, ts):
                for f in hom_basis_matrices(m, n):
                    if t.module.dim and u.module.dim:
                        assert np.array_equal(tensor_hom(f, t, u), tensor_hom_kron(f, t, u))


@pytest.mark.parametrize("case", CASES)
def test_covers_match_greedy_generators(case):
    for m in _family(_algebra(case)):
        cov = projective_cover(m)
        summands, surj = cover_greedy(m)
        assert cov.summands == summands
        assert np.array_equal(cov.surjection, surj)


def _with_repeats(draw, fld, rows, cols):
    m = np.array(
        draw(st.lists(st.lists(st.sampled_from([0, 0, 1, 2, fld.p - 1]), min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows)),
        dtype=np.int64,
    ).reshape(rows, cols)
    if rows:
        # repeat some rows, scale some, zero some
        picks = draw(st.lists(st.integers(0, rows - 1), max_size=3))
        extra = [m[i] * draw(st.integers(0, 2)) for i in picks]
        if extra:
            m = np.concatenate([m, np.stack(extra) % fld.p], axis=0)
            order = draw(st.permutations(range(m.shape[0])))
            m = m[list(order)]
    return m


@st.composite
def _matrices(draw):
    fld = PrimeField(draw(st.sampled_from([2, 3, 5, 32003])))
    m = _with_repeats(draw, fld, draw(st.integers(0, 6)), draw(st.integers(0, 6)))
    return fld, m


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_row_rank_profile_matches_greedy_scan(data):
    fld, m = data
    assert fld.row_rank_profile(m) == greedy_independent_rows(fld, m)


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (3, 3)])
def test_row_rank_profile_of_empty_and_zero_matrices(shape):
    fld = PrimeField(7)
    assert fld.row_rank_profile(np.zeros(shape, dtype=np.int64)) == []
