import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gluecat.field import LIST_ENTRIES, LIST_ROWS, PrimeField, is_prime
from oracles import is_rref, kernel_basis_loop, matrix, quotient_pi_dense, solve


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
    m = matrix(f, [[1, 2], [2, 4]])
    _, _, rank = f.rref(m)
    assert rank == 1


def test_rref_zero_matrix(f):
    m = f.zeros(3, 5)
    r, pivots, rank = f.rref(m)
    assert rank == 0 and pivots == []
    assert np.array_equal(r, m)


def test_rref_idempotent(f):
    rng = np.random.default_rng(7)
    m = matrix(f, rng.integers(0, 32003, size=(5, 7)))
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
    m = matrix(f, [[1, 2], [2, 4]])
    k = f.kernel_basis(m)
    assert k.shape == (1, 2)
    # proportional to (2, -1): 1*v0 + 2*v1 == 0
    v = k[0]
    assert (v[0] + 2 * v[1]) % f.p == 0
    assert np.any(v)


@pytest.mark.parametrize("p", [2, 3, 32003])
@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (3, 3), (4, 7), (7, 4), (9, 9), (0, 0), (0, 1), (1, 1), (1, 2), (2, 1)])
def test_kernel_basis_matches_scalar_loop(p, shape):
    # the tiny shapes take the early returns for rank 0 and for no free
    # column, which must give the loop's output, dtype included
    fld = PrimeField(p)
    rng = np.random.default_rng(p + 11 * shape[0] + shape[1])
    rows, cols = shape
    low = matrix(fld, rng.integers(0, p, size=(rows, 2)) @ rng.integers(0, p, size=(2, cols)))
    full = matrix(fld, fld.identity(max(shape))[:rows, :cols] + np.triu(rng.integers(0, p, size=shape), 1))
    # random, rank at most 2, rank 0 and full rank
    for m in (matrix(fld, rng.integers(0, p, size=shape)), low, fld.zeros(rows, cols), full):
        got, want = fld.kernel_basis(m), kernel_basis_loop(fld, m)
        assert got.shape == want.shape and got.dtype == want.dtype and np.array_equal(got, want)


def test_solve_identity(f):
    b = matrix(f, [3, 5, 7]).reshape(-1)
    x = solve(f, f.identity(3), b)
    assert np.array_equal(x, b)


def test_solve_no_solution(f):
    assert solve(f, f.zeros(2, 2), matrix(f, [1, 0]).reshape(-1)) is None


def test_solve_underdetermined(f):
    m = matrix(f, [[1, 1], [0, 0]])
    b = matrix(f, [3, 0]).reshape(-1)
    x = solve(f, m, b)
    assert x is not None
    assert np.array_equal((m @ x) % f.p, b)


def test_image_basis_cases(f):
    assert f.image_basis(f.identity(4)).shape == (4, 4)
    assert f.image_basis(f.zeros(2, 3)).shape == (0, 3)
    stacked = matrix(f, [[1, 2, 3], [1, 2, 3], [0, 1, 1]])
    assert f.image_basis(stacked).shape == (2, 3)


def test_inv_roundtrip(f):
    m = matrix(f, [[1, 2], [3, 4]])
    inv = f.inv(m)
    assert np.array_equal(f.matmul(m, inv), f.identity(2))
    with pytest.raises(ValueError):
        f.inv(matrix(f, [[1, 2], [2, 4]]))


def test_quotient_maps(f):
    span = matrix(f, [[1, 0, 0], [0, 1, 0]])
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
    m = matrix(fld, rng.integers(0, p, size=shape))
    if shape[0] > 2:
        m[-1] = (m[0] + (p - 1) * m[1]) % p  # a dependent row
    dim = shape[1]
    spans = [m, fld.identity(dim), fld.zeros(0, dim), np.zeros((0, 0), dtype=np.int64)]
    for span in spans:
        pi, sigma, keep = fld.quotient_maps(span, dim)
        assert pi.dtype == np.int64
        assert np.array_equal(pi, quotient_pi_dense(fld, span, dim))
        assert np.array_equal(sigma, fld.identity(dim)[keep])
        assert keep == [c for c in range(dim) if c not in fld.rref(span.reshape(-1, dim))[1]]
        assert not np.any(fld.matmul(span.reshape(-1, dim), pi))
    assert fld.quotient_maps(fld.identity(dim), dim)[0].shape == (dim, 0)
    assert np.array_equal(fld.quotient_maps(fld.zeros(0, dim), dim)[0], fld.identity(dim))


def _sparse(shape, density, p, seed):
    """Random matrix with about ``density`` of its entries nonzero, and at
    least one nonzero entry in each row."""
    rng = np.random.default_rng(seed)
    rows, cols = shape
    m = rng.integers(1, p, size=shape) * (rng.random(shape) < density)
    if cols:
        m[np.arange(rows), rng.integers(0, cols, size=rows)] = rng.integers(1, p, size=rows)
    return m


_SEEDS = st.integers(0, 2**32 - 1)

# sparse matrices above the list kernel's bound keep the array kernel
# under the property tests below, whose original inputs it never sees
_ABOVE_BOUND = st.builds(
    _sparse,
    st.tuples(st.integers(LIST_ROWS + 1, 40), st.integers(LIST_ENTRIES // LIST_ROWS + 1, 40)),
    st.floats(0.02, 0.5),
    st.just(32003),
    _SEEDS,
)


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(
        st.tuples(
            st.integers(1, 5),
            st.integers(1, 5),
            st.lists(st.integers(0, 32002), min_size=25, max_size=25),
        ).map(lambda t: np.array(t[2][: t[0] * t[1]]).reshape(t[0], t[1])),
        _ABOVE_BOUND,
    )
)
def test_rank_nullity(entries):
    f = PrimeField(32003)
    m = matrix(f, entries)
    assert f.rank(m) + f.kernel_basis(m).shape[0] == m.shape[1]


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        st.tuples(
            st.integers(2, 4),
            st.lists(st.integers(0, 32002), min_size=16, max_size=16),
            st.lists(st.integers(0, 32002), min_size=4, max_size=4),
        ).map(lambda t: (np.array(t[1][: t[0] ** 2]).reshape(t[0], t[0]), np.array(t[2][: t[0]]))),
        st.builds(
            lambda n, d, seed: (_sparse((n, n), d, 32003, seed), _sparse((1, n), 1.0, 32003, seed)[0]),
            st.integers(LIST_ROWS + 1, 40),
            st.floats(0.02, 0.5),
            _SEEDS,
        ),
    )
)
def test_solve_composes_back(system):
    f = PrimeField(32003)
    entries, target = system
    m = matrix(f, entries)
    x0 = matrix(f, target)
    b = (m @ x0) % f.p
    x = solve(f, m, b)
    assert x is not None
    assert np.array_equal((m @ x) % f.p, b)


# ----------------------------------------------------------------------
# the two elimination kernels
# ----------------------------------------------------------------------


def _assert_kernels_agree(fld, m, limit):
    """Both kernels give the same (R, pivots, rank), and it is the rref."""
    a = np.asarray(m, dtype=np.int64) % fld.p
    live = np.flatnonzero(a.any(axis=1)).tolist()
    want = fld._rref_array(a.copy(), limit)
    assert is_rref(fld, m, *want, limit=limit)
    for got in (fld._rref_lists(a.copy(), limit), fld._rref_lists(a.copy(), limit, live)):
        r, pivots, rank = got
        assert r.dtype == np.int64 and np.array_equal(r, want[0])
        assert pivots == want[1] and rank == want[2]
        assert type(rank) is int and all(type(c) is int for c in pivots)


@st.composite
def _kernel_inputs(draw):
    """A prime, a matrix on either side of the bound, and a pivot limit.

    Zero rows are interleaved at a drawn rate; tall matrices have more
    than LIST_ROWS rows but only as many nonzero rows as the bound takes.
    With a limit below the columns this is an augmented system, often an
    inconsistent one.
    """
    p = draw(st.sampled_from([2, 3, 32003, 65521]))
    if draw(st.booleans()):
        shape = (draw(st.integers(0, 2 * LIST_ROWS)), draw(st.integers(0, 24)))
        keep = draw(st.floats(0, 1))
    else:
        shape = (draw(st.integers(LIST_ROWS + 1, 4 * LIST_ROWS)), draw(st.integers(1, LIST_ENTRIES // LIST_ROWS)))
        keep = draw(st.integers(0, LIST_ROWS)) / shape[0]
    seed = draw(_SEEDS)
    m = _sparse(shape, draw(st.floats(0, 1)), p, seed)
    m[np.random.default_rng(seed + 1).random(shape[0]) >= keep] = 0
    return PrimeField(p), m, draw(st.integers(0, shape[1]))


@settings(max_examples=300, deadline=None)
@given(_kernel_inputs())
def test_list_and_array_kernels_agree(case):
    _assert_kernels_agree(*case)


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_kernels_agree_on_empty_shapes(shape):
    fld = PrimeField(3)
    m = fld.zeros(*shape)
    _assert_kernels_agree(fld, m, shape[1])
    r, pivots, rank = fld.rref(m)
    assert r.shape == shape and pivots == [] and rank == 0


def test_kernels_agree_below_the_rank_of_an_inconsistent_system():
    # row 0 of the array is zero and the first pivot sits in row 3: the
    # array kernel swaps it into row 0, so rows 1 and 2 keep their order
    # and row 1 gives the second pivot; both residues stay below the rank
    fld = PrimeField(7)
    m = matrix(fld, [[0, 0, 0], [0, 1, 2], [0, 1, 5], [1, 0, 0]])
    _assert_kernels_agree(fld, m, 2)
    r, pivots, rank = fld.rref(m, pivot_cols_limit=2)
    assert r.tolist() == [[1, 0, 0], [0, 1, 2], [0, 0, 3], [0, 0, 0]]
    assert (pivots, rank) == ([0, 1], 2)
    assert fld.solve_matrix(m[:, :2], m[:, 2:]) is None


def test_rref_selects_kernel_by_nonzero_rows(monkeypatch):
    calls = []
    for name in ("_rref_lists", "_rref_array"):
        kernel = getattr(PrimeField, name)
        monkeypatch.setattr(
            PrimeField, name, lambda self, *args, _k=kernel, _n=name: calls.append(_n) or _k(self, *args)
        )
    fld = PrimeField(32003)
    cols = LIST_ENTRIES // LIST_ROWS
    small = _sparse((LIST_ROWS, cols), 0.5, fld.p, 1)
    tall = fld.zeros(10 * LIST_ROWS, cols)
    tall[::10] = _sparse((LIST_ROWS, cols), 0.5, fld.p, 2)
    large = _sparse((LIST_ROWS + 1, cols), 0.5, fld.p, 3)
    wide = _sparse((1, LIST_ENTRIES + 1), 0.5, fld.p, 4)
    for m in (small, tall, large, wide):
        fld.rref(m)
    assert calls == ["_rref_lists", "_rref_lists", "_rref_array", "_rref_array"]
