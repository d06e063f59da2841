import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gluecat.field import PrimeField, is_prime
from oracles import quotient_pi_dense


@pytest.fixture(scope="module")
def f():
    return PrimeField(32003)


def test_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        PrimeField(32001)
    assert is_prime(2) and is_prime(32003)


def test_characteristic_is_bounded_below_2_16():
    with pytest.raises(ValueError):
        PrimeField(65537)
    assert PrimeField(65521).p == 65521


def test_matmul_exact_at_largest_characteristic():
    # (p-1)**2 summed over a long inner dimension, against Python ints
    p = 65521
    k = 4096
    a = np.full((1, k), p - 1, dtype=np.int64)
    b = np.full((k, 1), p - 1, dtype=np.int64)
    assert int(PrimeField(p).matmul(a, b)[0, 0]) == (k * (p - 1) ** 2) % p


def test_rref_identity(f):
    eye = f.identity(2)
    r, pivots, rank = f.rref(eye)
    assert np.array_equal(r, eye)
    assert pivots == [0, 1]
    assert rank == 2


def test_rref_proportional_rows(f):
    m = f.matrix([[1, 2], [2, 4]])
    _, _, rank = f.rref(m)
    assert rank == 1


def test_rref_zero_matrix(f):
    m = f.zeros(3, 5)
    r, pivots, rank = f.rref(m)
    assert rank == 0 and pivots == []
    assert np.array_equal(r, m)


def test_rref_idempotent(f):
    rng = np.random.default_rng(7)
    m = f.matrix(rng.integers(0, 32003, size=(5, 7)))
    r1 = f.rref(m)[0]
    r2 = f.rref(r1)[0]
    assert np.array_equal(r1, r2)


def test_kernel_identity_empty(f):
    k = f.kernel_basis(f.identity(3))
    assert k.shape == (0, 3)


def test_kernel_zero_matrix(f):
    k = f.kernel_basis(f.zeros(2, 3))
    assert k.shape == (3, 3)
    assert f.rank(k) == 3


def test_kernel_rank_one(f):
    m = f.matrix([[1, 2], [2, 4]])
    k = f.kernel_basis(m)
    assert k.shape == (1, 2)
    # proportional to (2, -1): 1*v0 + 2*v1 == 0
    v = k[0]
    assert (v[0] + 2 * v[1]) % f.p == 0
    assert np.any(v)


def test_solve_identity(f):
    b = f.matrix([3, 5, 7]).reshape(-1)
    x = f.solve(f.identity(3), b)
    assert np.array_equal(x, b)


def test_solve_no_solution(f):
    assert f.solve(f.zeros(2, 2), f.matrix([1, 0]).reshape(-1)) is None


def test_solve_underdetermined(f):
    m = f.matrix([[1, 1], [0, 0]])
    b = f.matrix([3, 0]).reshape(-1)
    x = f.solve(m, b)
    assert x is not None
    assert np.array_equal((m @ x) % f.p, b)


def test_image_basis_cases(f):
    assert f.image_basis(f.identity(4)).shape == (4, 4)
    assert f.image_basis(f.zeros(2, 3)).shape == (0, 3)
    stacked = f.matrix([[1, 2, 3], [1, 2, 3], [0, 1, 1]])
    assert f.image_basis(stacked).shape == (2, 3)


def test_inv_roundtrip(f):
    m = f.matrix([[1, 2], [3, 4]])
    inv = f.inv(m)
    assert np.array_equal(f.matmul(m, inv), f.identity(2))
    with pytest.raises(ValueError):
        f.inv(f.matrix([[1, 2], [2, 4]]))


def test_quotient_maps(f):
    span = f.matrix([[1, 0, 0], [0, 1, 0]])
    pi, sigma, keep = f.quotient_maps(span, 3)
    assert keep == [2]
    assert np.array_equal(f.matmul(sigma, pi), f.identity(1))
    # span maps to zero
    assert not np.any(f.matmul(span, pi))


@pytest.mark.parametrize("p", [2, 32003, 65521])
@pytest.mark.parametrize("shape", [(0, 5), (3, 3), (5, 5), (2, 6), (4, 6), (7, 4)])
def test_quotient_pi_matches_dense_formula(p, shape):
    fld = PrimeField(p)
    rng = np.random.default_rng(p + 7 * shape[0] + shape[1])
    m = fld.matrix(rng.integers(0, p, size=shape))
    if shape[0] > 2:
        m[-1] = (m[0] + (p - 1) * m[1]) % p  # a dependent row
    dim = shape[1]
    spans = [m, fld.identity(dim), fld.zeros(0, dim), np.zeros((0, 0), dtype=np.int64)]
    for span in spans:
        pi, sigma, keep = fld.quotient_maps(span, dim)
        assert pi.dtype == np.int64
        assert np.array_equal(pi, quotient_pi_dense(fld, span, dim))
        assert np.array_equal(sigma, fld.identity(dim)[keep])
        assert not np.any(fld.matmul(span.reshape(-1, dim), pi))
    assert fld.quotient_maps(fld.identity(dim), dim)[0].shape == (dim, 0)
    assert np.array_equal(fld.quotient_maps(fld.zeros(0, dim), dim)[0], fld.identity(dim))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.lists(st.integers(0, 32002), min_size=25, max_size=25),
)
def test_rank_nullity(r, c, entries):
    f = PrimeField(32003)
    m = f.matrix(np.array(entries[: r * c]).reshape(r, c))
    assert f.rank(m) + f.kernel_basis(m).shape[0] == c


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4),
    st.lists(st.integers(0, 32002), min_size=16, max_size=16),
    st.lists(st.integers(0, 32002), min_size=4, max_size=4),
)
def test_solve_composes_back(n, entries, target):
    f = PrimeField(32003)
    m = f.matrix(np.array(entries[: n * n]).reshape(n, n))
    x0 = f.matrix(np.array(target[:n]))
    b = (m @ x0) % f.p
    x = f.solve(m, b)
    assert x is not None
    assert np.array_equal((m @ x) % f.p, b)
