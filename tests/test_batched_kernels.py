"""The batched module kernels against their per-element references.

Each kernel of the module set-up is built in whole-array operations:
restricted actions in one solve, relation systems without ``np.kron``,
cover generators by one rank profile.  The references in
:mod:`oracles` are the per-element routes; the results must agree
exactly, on the projectives, injectives, simples and syzygies of F1-F3,
A4 and D4 and of their opposites.

Hom bases come from the vertex-graded system, one unknown block per
vertex and one equation block per generator; they must equal the kernel
basis of the dense ``(dim A * m * n) x (m * n)`` system bit for bit,
also over corners, quotients and in bases that do not respect the
vertex grading.  The Yoneda coordinates of a hom complex out of e_v A
must span the same space.  Tensor products are quotients of the weight-diagonal
coordinates by one relation block per generator part; their ``pi``,
``section`` and kept coordinates must equal the quotient maps of the
dense relations of every basis element, over GF(3) as well as GF(32003),
and on every tensor the F1-F3 suite runs build.  Every module and
bimodule those runs build is split by vertex, which the graded tensor
needs.

The evaluation blocks of the four primitive adjunction witnesses are
whole-array expressions too; during the F1, F2 and A3 (e = e1 + e2)
suite runs each must equal its entry loop in :mod:`oracles` on every call.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gluecat.algebra import Algebra, IdealIsWholeAlgebraError, Quiver, corner, ideal_span, idempotent_quotient, opposite, path_algebra
from gluecat.complexes import DerivedContext, HomComplex, stalk_complex
from gluecat.field import PrimeField
from gluecat.modules import (
    Bimodule,
    RightModule,
    _generators,
    _graded_hom_system,
    direct_sum,
    hom_basis_matrices,
    injective_module,
    nakayama_bimodule,
    projective_cover,
    projective_module,
    projectives,
    sub_bimodule,
    submodule_from_rows,
    tensor_hom,
    tensor_over,
)

from oracles import (
    corner_table_loop,
    cover_greedy,
    greedy_independent_rows,
    hom_basis_dense,
    hom_system_dense as _hom_system,
    hom_system_kron,
    ideal_rows_loop,
    injectives,
    insert_right_loop,
    matrix,
    multiply,
    push_shriek_unit_loop,
    quotient_table_loop,
    regular_bimodule,
    restricted_action_loop,
    shriek_pullback_eval_loop,
    simples,
    star_pullback_eval_loop,
    star_push_counit_loop,
    star_push_unit_loop,
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
                _same_tensor(m, w)
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
        assert cov.summands == tuple(summands)
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


# ----------------------------------------------------------------------
# vertex-graded hom and generator relations
# ----------------------------------------------------------------------


def _same_entry(m, n):
    basis, d_basis = hom_basis_matrices(m, n), hom_basis_dense(m, n)
    assert len(basis) == len(d_basis)
    assert all(np.array_equal(b, d) and b.shape == (m.dim, n.dim) for b, d in zip(basis, d_basis))


def _subalgebras(a):
    """The corner and, where it is nonzero, the quotient algebra of every
    proper vertex subset."""
    out = []
    for vs in _vertex_sets(a):
        out.append(corner(a, vs)[0])
        try:
            out.append(idempotent_quotient(a, vs)[0])
        except IdealIsWholeAlgebraError:
            pass
    return out


@pytest.mark.parametrize("case", CASES)
def test_hom_entries_match_dense_kernel(case):
    mods = _family(_algebra(case))
    for m in mods:
        for n in mods:
            _same_entry(m, n)


@pytest.mark.parametrize("case", CASES)
def test_corner_and_quotient_hom_entries_match_dense_kernel(case):
    for b in _subalgebras(_algebra(case)):
        mods = _family(b)
        for m in mods:
            for n in mods:
                _same_entry(m, n)


@pytest.mark.parametrize("case", CASES)
def test_yoneda_hom_terms_span_the_dense_hom_spaces(case):
    # Hom(e_v A, N) in the Yoneda coordinates of the hom complex out of the
    # replaced stalk P_v, over the algebra, its corners and its quotients:
    # the expanded basis spans the dense kernel
    for a in [_algebra(case), *_subalgebras(_algebra(case))]:
        fld, ctx = a.field, DerivedContext()
        mods = _family(a)
        for v in range(a.n_idempotents):
            p = ctx.replacement(stalk_complex(projective_module(a, v)[0])).p
            for n in mods:
                hc = HomComplex(p, stalk_complex(n))
                dense = hom_basis_dense(p.term(0), n)
                assert hc.dim(0) == len(dense)
                if dense:
                    yoneda = hc._expand(0, fld.identity(len(dense)))[0].reshape(len(dense), -1)
                    both = np.concatenate([yoneda, np.stack(dense).reshape(len(dense), -1)])
                    assert fld.rank(yoneda) == fld.rank(both) == len(dense)


def test_corner_generators_include_paths_through_other_vertices():
    # A3 with e = e1 + e3: eAe has the path 1 -> 2 -> 3 as its one generator
    a = _algebra("F2")
    c, incl = corner(a, [0, 2])
    gens = _generators(c)
    assert gens.parts.shape[0] == 1
    path = a.field.matmul(gens.parts, incl)[0]
    assert path.sum() == 1 and a.labels[int(np.flatnonzero(path)[0])] == "ba"
    assert (c.labels[c.idempotent_indices[gens.src[0]]], c.labels[c.idempotent_indices[gens.tgt[0]]]) == ("e3", "e1")


def _mixed_basis_algebra():
    """A3 in a basis whose radical elements are not vertex-homogeneous:
    the arrow a: 1 -> 2 is replaced by a + b, with b: 2 -> 3."""
    a = _algebra("F2")
    fld = a.field
    t = np.eye(a.dim, dtype=np.int64)
    t[a.labels.index("a"), a.labels.index("b")] = 1
    t_inv = fld.inv(t)
    mul = np.einsum("ik,jl,klm,mn->ijn", t, t, a.mul_table, t_inv) % fld.p
    labels = ["a+b" if x == "a" else x for x in a.labels]
    return Algebra(fld, labels, mul, fld.matmul(a.unit, t_inv), a.idempotent_indices, name="A3 (mixed basis)")


def test_generators_split_a_mixed_lift_into_vertex_parts():
    b = _mixed_basis_algebra()
    gens = _generators(b)
    src, tgt = gens.src, gens.tgt
    for g, s, t in zip(gens.parts, src, tgt):
        assert np.array_equal(multiply(b, multiply(b, b.idempotent_vector(s), g), b.idempotent_vector(t)), g)
    # a + b splits into a = e2 a e1 and b = e3 b e2; b itself is the second lift
    assert [(int(s), int(t)) for s, t in zip(src, tgt)] == [(1, 0), (2, 1), (2, 1)]
    # D(b) in the dual basis is not split by vertex; in a split basis its
    # tensors are quotients by the relations of the split generator parts
    mods = _family(b)
    split = _split_by_vertex(nakayama_bimodule(b))
    for m in mods:
        if m.dim:
            with pytest.raises(ValueError, match="not split by vertex"):
                tensor_over(m, nakayama_bimodule(b))
            _same_tensor(m, split)
        for n in mods:
            _same_entry(m, n)


def _split_by_vertex(w):
    """``w`` in a basis of the spaces e_s W e_t, stacked in (s, t) order:
    each idempotent then acts on either side as a 0/1 diagonal."""
    fld = w.field
    la, ra = w.left_algebra, w.right_algebra
    q = np.concatenate([
        fld.image_basis(fld.matmul(w.left_action[s], w.right_action[t]))
        for s in la.idempotent_indices for t in ra.idempotent_indices
    ])
    q_inv = fld.inv(q)

    def conjugate(action):
        return np.stack([fld.mul_chain(q, x, q_inv) for x in action])

    return Bimodule(la, ra, conjugate(w.left_action), conjugate(w.right_action), name=f"split({w.name})")


@pytest.mark.parametrize("case", CASES)
def test_path_algebra_generators_are_the_arrows(case):
    # the arrow a: u -> v is e_v a e_u, so it maps M e_v into M e_u
    q = QUIVERS[case.removesuffix("^op")]
    a = _algebra(case)
    gens = _generators(a)
    arrows = sorted(q.arrows) if not case.endswith("^op") else sorted((v, u) for (u, v) in q.arrows)
    got = []
    for g, s, t in zip(gens.parts, gens.src, gens.tgt):
        assert sorted(g) == [0] * (a.dim - 1) + [1]
        i = int(np.flatnonzero(g)[0])
        assert i not in a.idempotent_indices and i < a.n_idempotents + len(q.arrows)
        got.append((int(t), int(s)))
    assert sorted(got) == arrows


def test_hom_entries_in_a_twisted_basis_match_dense_kernel():
    # conjugating the regular module by a random change of basis gives a
    # module whose basis does not respect the vertex grading
    a = path_algebra(Quiver(3, ((0, 1), (1, 2))), PrimeField(32003))
    fld = a.field
    reg, _ = direct_sum(projectives(a))
    g = matrix(fld, np.random.default_rng(11).integers(0, fld.p, size=(reg.dim, reg.dim)))
    twisted = RightModule(a, np.stack([fld.mul_chain(fld.inv(g), op, g) for op in reg.action]))
    for m, n in [(twisted, twisted), (reg, twisted), (twisted, reg)] + [(twisted, s) for s in simples(a)]:
        _same_entry(m, n)


@functools.lru_cache(maxsize=None)
def _algebra_over(case, p):
    a = path_algebra(QUIVERS[case.removesuffix("^op")], PrimeField(p))
    return opposite(a) if case.endswith("^op") else a


@st.composite
def _twisted_pairs(draw):
    """A module of one of the families, in a random basis, and a second
    module of the same family, over GF(p) for p in {2, 3, 32003}."""
    p = draw(st.sampled_from([2, 3, 32003]))
    case = draw(st.sampled_from(CASES))
    a = _algebra_over(case, p)
    mods = [m for m in _family(a) if m.dim]
    m = mods[draw(st.integers(0, len(mods) - 1))]
    n = mods[draw(st.integers(0, len(mods) - 1))]
    d = m.dim
    # an invertible change of basis: a permuted product of unitriangular matrices
    lower = np.tril(np.array(draw(st.lists(st.integers(0, p - 1), min_size=d * d, max_size=d * d))).reshape(d, d), -1)
    upper = np.triu(np.array(draw(st.lists(st.integers(0, p - 1), min_size=d * d, max_size=d * d))).reshape(d, d), 1)
    perm = np.eye(d, dtype=np.int64)[list(draw(st.permutations(range(d))))]
    fld = a.field
    g = fld.mul_chain(perm, lower + np.eye(d, dtype=np.int64), upper + np.eye(d, dtype=np.int64))
    twisted = RightModule(a, np.stack([fld.mul_chain(fld.inv(g), op, g) for op in m.action]))
    return twisted, n


@settings(max_examples=60, deadline=None)
@given(_twisted_pairs())
def test_hom_entries_after_random_base_change_match_dense_kernel(pair):
    twisted, n = pair
    for m, k in [(twisted, n), (n, twisted), (twisted, twisted)]:
        _same_entry(m, k)


def _tensor_mismatch(m, w, t):
    """Which of ``pi``, ``section`` and the kept coordinates of the tensor
    ``t`` of M and W differ from the quotient maps of the dense relations
    of every basis element; empty when they all agree."""
    dense = tensor_relations_kron(m, w, np.eye(m.algebra.dim, dtype=np.int64))
    d_pi, d_sigma, d_keep = m.field.quotient_maps(dense, m.dim * w.dim)
    keep = np.nonzero(t.section)[1].tolist()
    return [name for name, got, want in (("pi", t.pi, d_pi), ("section", t.section, d_sigma))
            if got.shape != want.shape or not np.array_equal(got, want)] + (["keep"] if keep != d_keep else [])


def _same_tensor(m, w):
    assert not _tensor_mismatch(m, w, tensor_over(m, w))


@pytest.mark.parametrize("case", CASES)
def test_tensor_quotients_match_relations_of_every_basis_element(case):
    _same_tensors(_algebra(case))


@pytest.mark.parametrize("case", CASES)
def test_tensor_quotients_over_gf3_match_relations_of_every_basis_element(case):
    # GF(2) cannot tell (a g) (x) b - a (x) (g b) from the sum
    _same_tensors(_algebra_over(case, 3))


def _same_tensors(a):
    """Tensors of the family of ``a`` with D(A) and A, and of the family
    of each corner eAe with eA."""
    fld = a.field
    for w in (nakayama_bimodule(a), regular_bimodule(a)):
        for m in _family(a):
            if m.dim:
                _same_tensor(m, w)
    for vs in _vertex_sets(a):
        c, incl = corner(a, vs)
        e = a.idempotent_sum(vs)
        ea = sub_bimodule(c, a, fld.image_basis(a.left_mult_operator(e)), a.left_mult_operator(incl), a.right_operators)
        for m in _family(c):
            if m.dim:
                _same_tensor(m, ea)


# E6: 1 -> 2 -> 3 -> 4 -> 5 and 6 -> 3
E6 = Quiver(6, ((0, 1), (1, 2), (2, 3), (3, 4), (5, 2)))


def test_e6_graded_system_has_one_block_per_vertex_and_per_arrow():
    a = path_algebra(E6, PrimeField(32003))
    m, _ = direct_sum(projectives(a) + injectives(a))
    n, _ = direct_sum(injectives(a) + simples(a) + projectives(a))
    fld = a.field
    m_v = [fld.rank(m.action[i]) for i in a.idempotent_indices]
    n_v = [fld.rank(n.action[i]) for i in a.idempotent_indices]
    system = _graded_hom_system(m, n)
    # the arrow a: u -> v is e_v a e_u, so its block is M_a f_u - f_v N_a
    assert system.shape == (sum(m_v[v] * n_v[u] for (u, v) in E6.arrows), sum(x * y for x, y in zip(m_v, n_v)))
    assert system.shape[1] < m.dim * n.dim // 5
    assert len(hom_basis_matrices(m, n)) == sum(len(hom_basis_matrices(x, y))
                                                for x in projectives(a) + injectives(a)
                                                for y in injectives(a) + simples(a) + projectives(a))


# The whole-array evaluation blocks of the primitive adjunction witnesses,
# each against the entry loop it replaced.  An ``_evaluation`` stack ev is
# the block of the identity rows: the block of rows R is R @ ev, linear
# in R, so comparing at the identity compares every block.
ADJUNCTION_BLOCKS = {
    ("StarPullbackAdjunction", "_evaluation"): star_pullback_eval_loop,
    ("ShriekPullbackAdjunction", "_evaluation"): shriek_pullback_eval_loop,
    ("PushShriekAdjunction", "_evaluation"): push_shriek_unit_loop,
    ("StarPushAdjunction", "_evaluation"): star_push_unit_loop,
    ("StarPushAdjunction", "_counit_block"): star_push_counit_loop,
}


def test_adjunction_blocks_match_their_loop_references(monkeypatch):
    from gluecat import recollement
    from gluecat.cli import run_suite
    from gluecat.scenarios import fixture_scenario, parse_scenario

    reached, mismatched = set(), []

    def checked(cls_name, hook, block, oracle):
        # a failed assert here would only fail a report cell, so a
        # mismatch is recorded and checked after the suite
        def wrapper(self, obj, n):
            try:
                out = block(self, obj, n)
            except Exception:
                mismatched.append((cls_name, hook, n, "raised"))
                raise
            if hook == "_evaluation":
                rows = np.eye(out.shape[0], dtype=np.int64)
                got = recollement._evaluate(obj.field, rows, out)
                want = oracle(self.rec, obj, n, rows)
            else:
                got, want = out, oracle(self.rec, obj, n)
            if got.shape != want.shape or not np.array_equal(got, want):
                mismatched.append((cls_name, hook, n))
            reached.add((cls_name, hook))
            return out

        return wrapper

    for (cls_name, hook), oracle in ADJUNCTION_BLOCKS.items():
        cls = getattr(recollement, cls_name)
        monkeypatch.setattr(cls, hook, checked(cls_name, hook, getattr(cls, hook), oracle))
    # A3 with e = e1 + e2: there Ae has dimension 5 and eAe is not the
    # field, so the stacks have more than one bimodule basis element and
    # the counit blocks are larger than 1 x 1
    a3 = {"p": 32003, "quiver": {"vertices": 3, "arrows": [[1, 2], [2, 3]]},
          "e_vertices": [1, 2], "seed": 17}
    for data in (fixture_scenario("F1"), fixture_scenario("F2"), a3):
        run_suite(parse_scenario(data))
    assert not mismatched
    assert reached == set(ADJUNCTION_BLOCKS)


def _run_fixture_suites():
    from gluecat.cli import run_suite
    from gluecat.scenarios import fixture_scenario, parse_scenario

    for name in ("F1", "F2", "F3"):
        run_suite(parse_scenario(fixture_scenario(name)))


def test_every_fixture_suite_tensor_matches_the_dense_oracle(monkeypatch):
    from gluecat import modules

    build, checked, mismatched = modules._build_tensor, [], []

    def spy(m, w):
        # a failed assert here would only fail a report cell, so a
        # mismatch is recorded and checked after the suites
        t = build(m, w)
        checked.append(t)
        mismatch = _tensor_mismatch(m, w, t)
        if mismatch:
            mismatched.append((m.name, w.name, mismatch))
        return t

    monkeypatch.setattr(modules, "_build_tensor", spy)
    _run_fixture_suites()
    assert not mismatched
    assert sum(t.module.dim > 0 for t in checked) > 100


def _is_split(idempotents):
    """Whether each matrix of the stack is a 0/1 diagonal and each basis
    vector lies in exactly one of their images."""
    k, n = idempotents.shape[:2]
    diag = np.array([np.diag(x) for x in idempotents]).reshape(k, n)
    return (np.array_equal(idempotents, diag[:, :, None] * np.eye(n, dtype=np.int64))
            and set(np.unique(diag)) <= {0, 1} and np.array_equal(diag.sum(axis=0), np.ones(n)))


def test_every_fixture_suite_module_is_split_by_vertex(monkeypatch):
    # the graded tensor reads vertices off the idempotent actions
    init_module, init_bimodule = RightModule.__init__, Bimodule.__init__
    seen, unsplit = [0, 0], []

    def module_spy(self, *args, **kwargs):
        init_module(self, *args, **kwargs)
        seen[0] += 1
        if not _is_split(self.action[self.algebra.idempotent_indices]):
            unsplit.append(self.name)

    def bimodule_spy(self, *args, **kwargs):
        init_bimodule(self, *args, **kwargs)
        seen[1] += 1
        if not (_is_split(self.left_action[self.left_algebra.idempotent_indices])
                and _is_split(self.right_action[self.right_algebra.idempotent_indices])):
            unsplit.append(self.name)

    monkeypatch.setattr(RightModule, "__init__", module_spy)
    monkeypatch.setattr(Bimodule, "__init__", bimodule_spy)
    _run_fixture_suites()
    assert not unsplit
    assert seen[0] > 1000 and seen[1] > 10


def test_shriek_product_table_is_built_once_per_recollement(monkeypatch):
    # the (j_!, j^*) evaluation reads the products ae_j * ea_l from the
    # recollement; the table is built from L(Ae rows), counted here
    from gluecat import cli
    from gluecat.cli import run_suite
    from gluecat.scenarios import fixture_scenario, parse_scenario

    recs, args = [], []
    build, left = cli.build_recollement, Algebra.left_mult_operator
    monkeypatch.setattr(cli, "build_recollement", lambda *a, **k: recs.append(build(*a, **k)) or recs[-1])
    monkeypatch.setattr(Algebra, "left_mult_operator", lambda a, x: args.append(x) or left(a, x))
    run_suite(parse_scenario(fixture_scenario("F1")))
    (rec,) = recs
    assert sum(x is rec.Ae_rows for x in args) == 1
    table = rec.eA_rows @ left(rec.algebra, rec.Ae_rows) % rec.algebra.field.p
    assert np.array_equal(rec.ae_ea, table)
