"""Exact dense linear algebra over a prime field GF(p).

Matrices are plain numpy int64 arrays with entries reduced into [0, p);
the characteristic is carried by a ``PrimeField`` context object rather
than by the matrices themselves.  Everything is computed by modular
Gaussian elimination -- no floating point is used anywhere.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PrimeField", "is_prime"]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """Context for GF(p) matrix arithmetic.

    Row-vector convention throughout the package: vectors are rows,
    linear maps act by right multiplication ``v @ m``.
    """

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        self.p = p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    def matrix(self, rows) -> np.ndarray:
        return np.asarray(rows, dtype=np.int64) % self.p

    def zeros(self, r: int, c: int) -> np.ndarray:
        return np.zeros((r, c), dtype=np.int64)

    def identity(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    def unit_row(self, n: int, i: int) -> np.ndarray:
        v = np.zeros(n, dtype=np.int64)
        v[i] = 1
        return v

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def inv_scalar(self, a: int) -> int:
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(a, self.p - 2, self.p)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # exact only while (p-1)**2 * k < 2**63, k the inner dimension:
        # entries lie in [0, p) and int64 accumulates k products before
        # the reduction.  The vectorised Nakayama supertrace in
        # gluecat.serre relies on this with k up to dim(term) * dim(A).
        return (a @ b) % self.p

    def mul_chain(self, *ms) -> np.ndarray:
        out = ms[0]
        for m in ms[1:]:
            out = self.matmul(out, m)
        return out

    def neg(self, a: np.ndarray) -> np.ndarray:
        return (-a) % self.p

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % self.p

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a - b) % self.p

    # ------------------------------------------------------------------
    # elimination
    # ------------------------------------------------------------------

    def rref(self, m: np.ndarray, pivot_cols_limit: int | None = None):
        """Reduced row echelon form.

        Returns ``(R, pivots, rank)``.  ``pivot_cols_limit`` restricts the
        pivot search to the first k columns (used by augmented solves).
        """
        a = np.array(m, dtype=np.int64) % self.p
        rows, cols = a.shape
        limit = cols if pivot_cols_limit is None else pivot_cols_limit
        pivots: list[int] = []
        r = 0
        for c in range(limit):
            if r == rows:
                break
            nz = np.nonzero(a[r:, c])[0]
            if nz.size == 0:
                continue
            pr = r + int(nz[0])
            if pr != r:
                a[[r, pr]] = a[[pr, r]]
            inv = self.inv_scalar(a[r, c])
            a[r] = (a[r] * inv) % self.p
            col = a[:, c].copy()
            col[r] = 0
            mask = col != 0
            if mask.any():
                a[mask] = (a[mask] - np.outer(col[mask], a[r])) % self.p
            pivots.append(c)
            r += 1
        return a, pivots, r

    def rank(self, m: np.ndarray) -> int:
        if m.size == 0:
            return 0
        return self.rref(m)[2]

    def image_basis(self, m: np.ndarray) -> np.ndarray:
        """Basis of the row space, as rref rows."""
        r, _, rk = self.rref(m)
        return r[:rk]

    def kernel_basis(self, m: np.ndarray) -> np.ndarray:
        """Rows spanning the right null space  {v : m @ v == 0}."""
        rows, cols = m.shape
        r, pivots, rk = self.rref(m)
        free = [c for c in range(cols) if c not in pivots]
        out = self.zeros(len(free), cols)
        for k, c in enumerate(free):
            out[k, c] = 1
            for j, pc in enumerate(pivots):
                out[k, pc] = (-r[j, c]) % self.p
        return out

    def left_kernel_basis(self, m: np.ndarray) -> np.ndarray:
        """Rows spanning {v : v @ m == 0}."""
        return self.kernel_basis(m.T)

    def solve(self, m: np.ndarray, b: np.ndarray):
        """Some x with m @ x == b, or None if inconsistent."""
        x = self.solve_matrix(m, b.reshape(-1, 1))
        return None if x is None else x.reshape(-1)

    def solve_matrix(self, m: np.ndarray, b: np.ndarray):
        """Some X with m @ X == B, or None."""
        rows, cols = m.shape
        if b.shape[0] != rows:
            raise ValueError(f"solve: {rows} rows vs rhs of length {b.shape[0]}")
        aug = np.concatenate([m % self.p, b % self.p], axis=1)
        r, pivots, rk = self.rref(aug, pivot_cols_limit=cols)
        # any nonzero rhs entry below the pivot rows means inconsistency
        if np.any(r[rk:, cols:] != 0):
            return None
        x = self.zeros(cols, b.shape[1])
        for j, pc in enumerate(pivots):
            x[pc] = r[j, cols:]
        return x

    def coords_in_rows(self, basis_rows: np.ndarray, vectors: np.ndarray):
        """Express each row of ``vectors`` in the span of ``basis_rows``.

        Returns X with X @ basis_rows == vectors, or None if some row is
        outside the span.
        """
        x = self.solve_matrix(basis_rows.T, vectors.T)
        return None if x is None else x.T

    def inv(self, m: np.ndarray) -> np.ndarray:
        n = m.shape[0]
        if m.shape != (n, n):
            raise ValueError("inv: matrix not square")
        x = self.solve_matrix(m, self.identity(n))
        if x is None:
            raise ValueError("inv: matrix is singular")
        return x

    def quotient_maps(self, span_rows: np.ndarray, dim: int):
        """Coordinate presentation of the quotient k^dim / rowspace.

        Returns ``(pi, sigma, keep)``: ``pi`` (dim x q) projects ambient
        row vectors onto quotient coordinates (the non-pivot coordinates
        after reduction), ``sigma`` (q x dim) picks unit-vector coset
        representatives, and ``keep`` lists the ambient indices used.
        """
        if span_rows.size == 0:
            span_rows = self.zeros(0, dim)
        rref_rows, pivots, rank = self.rref(span_rows)
        keep = [c for c in range(dim) if c not in pivots]
        scatter = self.zeros(dim, rank)
        for j, pc in enumerate(pivots):
            scatter[pc, j] = 1
        reduced = (np.eye(dim, dtype=np.int64) - scatter @ rref_rows[:rank]) % self.p
        pi = reduced[:, keep]
        sigma = self.identity(dim)[keep, :]
        return pi, sigma, keep
