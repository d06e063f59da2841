import numpy as np
import pytest

from gluecat.algebra import (
    CyclicQuiverError,
    IdealIsWholeAlgebraError,
    Quiver,
    corner,
    idempotent_quotient,
    opposite,
    path_algebra,
)
from gluecat.field import PrimeField

from oracles import count_paths, multiply, paths_between_sets, paths_through


def test_cyclic_quiver_rejected(gf):
    q = Quiver(2, ((0, 1), (1, 0)))
    with pytest.raises(CyclicQuiverError):
        path_algebra(q, gf)


def test_a2_dimension_and_basis(alg_a2):
    assert alg_a2.dim == 3
    assert alg_a2.labels == ["e1", "e2", "a"]


def test_a3_dimension_matches_enumeration(alg_a3, q_a3):
    assert alg_a3.dim == count_paths(q_a3.n, list(q_a3.arrows)) == 6
    assert alg_a3.labels == ["e1", "e2", "e3", "a", "b", "ba"]


def test_kronecker_dimension(alg_kron, q_kron):
    assert alg_kron.dim == count_paths(q_kron.n, list(q_kron.arrows)) == 4


def test_path_products_follow_right_to_left_composition(alg_a2):
    # a = e2 * a * e1
    e1, e2, a = (alg_a2.basis_vector(i) for i in range(3))
    assert np.array_equal(multiply(alg_a2, e2, a), a)
    assert np.array_equal(multiply(alg_a2, a, e1), a)
    assert not np.any(multiply(alg_a2, a, e2))
    assert not np.any(multiply(alg_a2, e1, a))


def test_opposite_is_involutive(alg_a3):
    op = opposite(alg_a3)
    assert opposite(op) is alg_a3
    assert np.array_equal(
        opposite(op).mul_table, alg_a3.mul_table
    )


def test_opposite_of_a2_is_reversed_quiver(alg_a2, gf, q_a2):
    rev = path_algebra(Quiver(q_a2.n, tuple((t, s) for s, t in q_a2.arrows)), gf)
    assert np.array_equal(opposite(alg_a2).mul_table, rev.mul_table)


def test_commutative_algebra_self_opposite(gf):
    # semisimple k x k: path algebra of two isolated vertices
    a = path_algebra(Quiver(2, ()), gf)
    assert np.array_equal(opposite(a).mul_table, a.mul_table)


@pytest.mark.parametrize(
    "fixture_name,e_vertices,expected_dim",
    [("alg_a2", [1], 1), ("alg_a3", [2], 1), ("alg_kron", [1], 1)],
)
def test_corner_dimensions(request, fixture_name, e_vertices, expected_dim):
    a = request.getfixturevalue(fixture_name)
    quivers = {"alg_a2": (2, [(0, 1)]), "alg_a3": (3, [(0, 1), (1, 2)]), "alg_kron": (2, [(0, 1), (0, 1)])}
    n, arrows = quivers[fixture_name]
    oracle = len(paths_between_sets(n, arrows, e_vertices, e_vertices))
    c, inclusion = corner(a, e_vertices)
    assert c.dim == expected_dim == oracle
    assert inclusion.shape == (c.dim, a.dim)


def test_quotient_a2(alg_a2):
    oracle_ideal = len(paths_through(2, [(0, 1)], [1]))
    b, pi, sigma = idempotent_quotient(alg_a2, [1])
    assert alg_a2.dim - b.dim == oracle_ideal == 2
    assert b.dim == 1


def test_quotient_a3_is_a2_algebra(alg_a3, gf):
    oracle_ideal = len(paths_through(3, [(0, 1), (1, 2)], [2]))
    b, pi, sigma = idempotent_quotient(alg_a3, [2])
    assert oracle_ideal == 3
    assert b.dim == 3
    a2 = path_algebra(Quiver(2, ((0, 1),)), gf)
    assert np.array_equal(b.mul_table, a2.mul_table)


def test_quotient_kronecker(alg_kron):
    oracle_ideal = len(paths_through(2, [(0, 1), (0, 1)], [1]))
    b, _, _ = idempotent_quotient(alg_kron, [1])
    assert oracle_ideal == 3
    assert b.dim == 1


def test_quotient_whole_algebra_rejected(alg_a2):
    with pytest.raises(ValueError):
        idempotent_quotient(alg_a2, [0, 1])


def test_quotient_by_source_vertex_of_a2(alg_a2):
    # non successor-closed choice still produces a valid algebra
    b, _, _ = idempotent_quotient(alg_a2, [0])
    assert b.dim == 1


def test_corner_plus_quotient_dimension_bound(alg_a3):
    c, _ = corner(alg_a3, [2])
    b, _, _ = idempotent_quotient(alg_a3, [2])
    assert c.dim + b.dim <= alg_a3.dim


def test_projection_section_roundtrip(alg_a3):
    b, pi, sigma = idempotent_quotient(alg_a3, [2])
    fld = alg_a3.field
    assert np.array_equal(fld.matmul(sigma, pi), fld.identity(b.dim))


# ----------------------------------------------------------------------
# randomized structure properties
# ----------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import count_paths, paths_between_sets


@st.composite
def acyclic_quivers(draw):
    n = draw(st.integers(2, 4))
    n_arrows = draw(st.integers(0, 4))
    arrows = []
    for _ in range(n_arrows):
        s = draw(st.integers(0, n - 2))
        t = draw(st.integers(s + 1, n - 1))
        arrows.append((s, t))
    return n, tuple(arrows)


@settings(max_examples=20, deadline=None)
@given(acyclic_quivers(), st.randoms(use_true_random=False))
def test_path_algebra_matches_enumeration_on_random_quivers(q, rnd):
    gf = PrimeField(32003)
    n, arrows = q
    a = path_algebra(Quiver(n, arrows), gf)  # constructor validates axioms
    assert a.dim == count_paths(n, list(arrows))
    # corner/quotient dimensions against direct span counts
    e = sorted(rnd.sample(range(n), rnd.randrange(1, n)))
    c, _ = corner(a, e)
    assert c.dim == len(paths_between_sets(n, list(arrows), e, e))
    try:
        b, _, _ = idempotent_quotient(a, e)
    except IdealIsWholeAlgebraError:
        return
    assert c.dim + b.dim <= a.dim
