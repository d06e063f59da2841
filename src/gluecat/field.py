"""Exact dense linear algebra over a prime field GF(p).

Matrices are plain numpy int64 arrays with entries reduced into [0, p);
the characteristic is carried by a ``PrimeField`` context object rather
than by the matrices themselves.  Everything is computed by modular
Gaussian elimination -- no floating point is used anywhere.

There are two exact eliminations, chosen by the shape of a matrix's
nonzero rows: small matrices are reduced on Python ints, which are
unbounded, and all others on int64 arrays, where ``P_LIMIT`` keeps every
product exact as before.  Both follow one pivot rule, so ``rref`` gives
bit-identical output whichever kernel runs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PrimeField", "is_prime", "blocks", "P_LIMIT", "STACK_ENTRIES"]

# Characteristics must lie below 2**16: then (p-1)**2 < 2**32, and int64
# products stay exact for every inner dimension below 2**31.
P_LIMIT = 1 << 16

# rref reduces a matrix on Python int lists when its nonzero rows number
# at most LIST_ROWS and hold at most LIST_ENTRIES entries, and on int64
# arrays otherwise: below the bound the array kernel's cost is its ten or
# so NumPy calls per pivot.  Measured crossover on a 2-core x86 host at
# p = 32003: random n x n inputs break even near n = 16 at density 0.3
# and near n = 11 when dense.  Within the bound the list kernel is at
# most 2.3x slower on dense full-rank inputs (one row of 113 entries:
# 21 us against 9 us) and loses at most 53 us (16 x 8, 1.25x); bounds of
# 32 rows and 256 entries lost up to 3.1x and 288 us on sampled shapes.
LIST_ROWS = 16
LIST_ENTRIES = 128

# The validators of gluecat.algebra and gluecat.modules compare stacks of
# products in blocks (see ``blocks``): each block's stack holds at most
# STACK_ENTRIES int64 entries (256 KiB), or one item's worth when a single
# item is larger.  The largest module stack of the benchmark's apply-cold
# ops has 19,600 entries, so they all take one block, with the actions of
# G in the same product.  Measured on a 2-core x86 host, the peak RSS of
# one original-large pass (largest stack 91,260 entries) read 45.9 MB with
# the all-pairs checks, and 43.4, 44.0 and 44.6 MB at bounds of 2**15,
# 2**16 and 2**18 entries.
STACK_ENTRIES = 1 << 15


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


def blocks(n: int, entries: int) -> list[slice]:
    """Consecutive slices covering ``range(n)``: each holds as many items
    of ``entries`` entries as fit in ``STACK_ENTRIES``, and at least one."""
    step = max(1, STACK_ENTRIES // entries)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


class PrimeField:
    """Context for GF(p) matrix arithmetic.

    Row-vector convention throughout the package: vectors are rows,
    linear maps act by right multiplication ``v @ m``.
    """

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if p >= P_LIMIT:
            raise ValueError(f"characteristic {p} is not below 2**16")
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
        # exact for every inner dimension k < 2**31: entries lie in
        # [0, p) with p < 2**16, so int64 accumulates k products of at
        # most (p-1)**2 < 2**32 before the reduction.  The vectorised
        # Nakayama supertrace in gluecat.serre relies on this with k up
        # to dim(term) * dim(A).
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
        Matrices whose nonzero rows fit ``LIST_ROWS`` and ``LIST_ENTRIES``
        are reduced on Python int lists, all others on int64 arrays; both
        kernels follow one pivot rule, so the output does not depend on
        the choice.
        """
        a = np.asarray(m, dtype=np.int64) % self.p
        rows, cols = a.shape
        limit = cols if pivot_cols_limit is None else pivot_cols_limit
        if rows <= LIST_ROWS and rows * cols <= LIST_ENTRIES:
            return self._rref_lists(a, limit)
        live = np.flatnonzero(a.any(axis=1))
        if live.size <= LIST_ROWS and live.size * cols <= LIST_ENTRIES:
            return self._rref_lists(a, limit, live.tolist())
        return self._rref_array(a, limit)

    def _rref_array(self, a: np.ndarray, limit: int):
        """Gauss-Jordan in place on the reduced int64 array ``a``.

        The pivot rule: scan the columns from the left, take the first
        row at or below r that is nonzero in the column, swap it into row
        r, scale it to 1 and clear the column in every other row.
        """
        rows = a.shape[0]
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

    def _rref_lists(self, a: np.ndarray, limit: int, live: list[int] | None = None):
        """The pivot rule of :meth:`_rref_array`, on Python int lists.

        Only the nonzero rows of the reduced array ``a`` are kept, in
        order, with their row indices ``pos`` (``live``, when the caller
        has found them already).  A swap with a row of ``a`` that was
        dropped as zero moves the pivot row up to index r, which is what
        the array kernel's swap does, so every row of R, those below the
        rank included, lands where the array kernel puts it.  Rows at or
        below r are zero left of the pivot column c, so updates start at c.
        """
        p = self.p
        if live is None:
            lst = a.tolist()
            pos = [i for i, row in enumerate(lst) if any(row)]
            lst = [lst[i] for i in pos]
        else:
            pos = live
            lst = a[live].tolist()
        n = len(lst)
        pivots: list[int] = []
        r = 0
        for c in range(limit):
            if r == n:
                break
            for j in range(r, n):
                if lst[j][c]:
                    break
            else:
                continue
            row = lst[j]
            if pos[r] != r:
                # row r of the array is zero: the pivot row moves up to it
                del lst[j], pos[j]
                lst.insert(r, row)
                pos.insert(r, r)
            elif j != r:
                lst[j] = lst[r]
                lst[r] = row
            inv = pow(row[c], p - 2, p)
            tail = [x * inv % p for x in row[c:]]
            row[c:] = tail
            for i in range(n):
                other = lst[i]
                f = other[c]
                if f and i != r:
                    other[c:] = [(x - f * y) % p for x, y in zip(other[c:], tail)]
            pivots.append(c)
            r += 1
        rows, cols = a.shape
        if n < rows:
            zero = [0] * cols
            full = [zero] * rows
            for i, row in zip(pos, lst):
                full[i] = row
            lst = full
        return np.array(lst, dtype=np.int64).reshape(rows, cols), pivots, r

    def rank(self, m: np.ndarray) -> int:
        if m.size == 0:
            return 0
        return self.rref(m)[2]

    def image_basis(self, m: np.ndarray) -> np.ndarray:
        """Basis of the row space, as rref rows."""
        r, _, rk = self.rref(m)
        return r[:rk]

    def row_rank_profile(self, m: np.ndarray) -> list[int]:
        """Indices of the rows of ``m`` independent of the rows before them.

        These are the rows a greedy left-to-right scan would keep; they
        are the pivot columns of ``rref(m.T)``, so one elimination finds
        them all.
        """
        return self.rref(m.T)[1]

    def kernel_basis(self, m: np.ndarray) -> np.ndarray:
        """Rows spanning the right null space  {v : m @ v == 0}."""
        r, pivots, rank = self.rref(m)
        cols = m.shape[1]
        # no pivot or no free column: nothing to assemble, and most of
        # the tiny systems of set-up end here
        if rank == 0:
            return self.identity(cols)
        if rank == cols:
            return self.zeros(0, cols)
        free = self._free_columns(cols, pivots)
        # row k has a 1 at free column k and minus that column of the
        # rref at the pivots
        out = self.zeros(free.size, cols)
        out[np.arange(free.size), free] = 1
        block = r[:rank, free]
        np.subtract(self.p, block, out=block)
        block %= self.p
        out[:, pivots] = block.T
        return out

    @staticmethod
    def _free_columns(cols: int, pivots: list[int]) -> np.ndarray:
        """The columns of ``range(cols)`` that are not pivots, in order."""
        is_pivot = np.zeros(cols, dtype=bool)
        is_pivot[pivots] = True
        return (~is_pivot).nonzero()[0]

    def left_kernel_basis(self, m: np.ndarray) -> np.ndarray:
        """Rows spanning {v : v @ m == 0}."""
        return self.kernel_basis(m.T)

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
        keep = self._free_columns(dim, pivots)
        # a kept coordinate is its own class; a pivot coordinate is minus
        # the rest of its rref row
        pi = self.zeros(dim, keep.size)
        pi[keep, np.arange(keep.size)] = 1
        pi[pivots] = self.neg(rref_rows[:rank, keep])
        sigma = self.zeros(keep.size, dim)
        sigma[np.arange(keep.size), keep] = 1
        return pi, sigma, keep.tolist()
