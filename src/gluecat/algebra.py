"""Finite-dimensional algebras presented by basis and structure constants.

The constructors cover exactly what the workbench needs: path algebras of
acyclic quivers, opposite algebras, corner algebras eAe and idempotent
quotients A/AeA.  Every algebra carries a distinguished complete family of
orthogonal idempotents given by basis elements (vertex paths and their
images), and right multiplication follows the row-vector convention of
:mod:`gluecat.field`.

Path composition is right-to-left: for an arrow a: u -> v the product
``b * a`` is defined when source(b) == target(a), and e_v * a * e_u == a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import PrimeField

__all__ = [
    "Quiver",
    "Algebra",
    "CyclicQuiverError",
    "IdealIsWholeAlgebraError",
    "path_algebra",
    "opposite",
    "corner",
    "idempotent_quotient",
]


class CyclicQuiverError(ValueError):
    """Raised when a path-algebra constructor receives a cyclic quiver."""


class IdealIsWholeAlgebraError(ValueError):
    """Raised when AeA is all of A, so the quotient would be zero."""


@dataclass(frozen=True)
class Quiver:
    """Finite quiver with vertices 0..n-1 and labelled arrows."""

    n: int
    arrows: tuple[tuple[int, int], ...]
    arrow_labels: tuple[str, ...] = ()
    vertex_labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("quiver needs at least one vertex")
        for (s, t) in self.arrows:
            if not (0 <= s < self.n and 0 <= t < self.n):
                raise ValueError(f"arrow ({s},{t}) out of range for {self.n} vertices")
        if not self.arrow_labels:
            default = "abcdefghijklmnopqrstuvwxyz"
            labels = tuple(
                default[i] if i < len(default) else f"a{i}"
                for i in range(len(self.arrows))
            )
            object.__setattr__(self, "arrow_labels", labels)
        if not self.vertex_labels:
            object.__setattr__(
                self, "vertex_labels", tuple(f"e{i + 1}" for i in range(self.n))
            )

    def is_acyclic(self) -> bool:
        indeg = [0] * self.n
        for (_, t) in self.arrows:
            indeg[t] += 1
        stack = [v for v in range(self.n) if indeg[v] == 0]
        seen = 0
        while stack:
            v = stack.pop()
            seen += 1
            for (s, t) in self.arrows:
                if s == v:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        stack.append(t)
        return seen == self.n

    def reversed(self) -> "Quiver":
        return Quiver(
            self.n,
            tuple((t, s) for (s, t) in self.arrows),
            self.arrow_labels,
            self.vertex_labels,
        )


class Algebra:
    """Associative unital algebra via structure constants over GF(p).

    ``mul_table[i, j]`` holds the coordinates of ``b_i * b_j``.  The
    distinguished idempotents are basis elements; ``idempotent_indices[v]``
    is the basis index of the v-th one.

    ``_projectives`` is the per-algebra memo of
    :func:`gluecat.modules.projective_module`, filled lazily, one entry
    per vertex.
    """

    def __init__(
        self,
        field: PrimeField,
        labels: list[str],
        mul_table: np.ndarray,
        unit: np.ndarray,
        idempotent_indices: list[int],
        name: str = "",
        validate: bool = True,
    ):
        self.field = field
        self.dim = len(labels)
        self.labels = list(labels)
        self.mul_table = np.asarray(mul_table, dtype=np.int64) % field.p
        self.unit = np.asarray(unit, dtype=np.int64) % field.p
        self.idempotent_indices = list(idempotent_indices)
        self.name = name or f"algebra(dim={self.dim})"
        self._opposite: Algebra | None = None
        self._projectives: dict[int, tuple] = {}
        if self.mul_table.shape != (self.dim, self.dim, self.dim):
            raise ValueError("structure constant tensor has wrong shape")
        if validate:
            self.validate()

    def __repr__(self):
        return f"<{self.name} dim={self.dim} over {self.field}>"

    # ------------------------------------------------------------------
    # element arithmetic
    # ------------------------------------------------------------------

    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", x, y, self.mul_table) % self.field.p

    def right_mult_operator(self, y: np.ndarray) -> np.ndarray:
        """R(y) with x*y == x @ R(y).  R is multiplicative."""
        return np.einsum("j,ijk->ik", y, self.mul_table) % self.field.p

    def left_mult_operator(self, x: np.ndarray) -> np.ndarray:
        """L(x) with x*y == y @ L(x).  L(xy) == L(y) @ L(x)."""
        return np.einsum("i,ijk->jk", x, self.mul_table) % self.field.p

    def basis_vector(self, i: int) -> np.ndarray:
        return self.field.unit_row(self.dim, i)

    def idempotent_vector(self, v: int) -> np.ndarray:
        return self.basis_vector(self.idempotent_indices[v])

    def idempotent_sum(self, vertices) -> np.ndarray:
        e = np.zeros(self.dim, dtype=np.int64)
        for v in vertices:
            e[self.idempotent_indices[v]] = 1
        return e

    @property
    def n_idempotents(self) -> int:
        return len(self.idempotent_indices)

    def radical_basis_indices(self) -> list[int]:
        """Indices of the non-idempotent basis elements.

        For the basic monomial algebras this package constructs, these
        span the Jacobson radical.
        """
        idem = set(self.idempotent_indices)
        return [i for i in range(self.dim) if i not in idem]

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self):
        p = self.field.p
        d = self.dim
        # associativity on all basis triples
        left = np.einsum("ijm,mkl->ijkl", self.mul_table, self.mul_table) % p
        right = np.einsum("jkm,iml->ijkl", self.mul_table, self.mul_table) % p
        if not np.array_equal(left, right):
            raise ValueError(f"{self.name}: associativity fails")
        # unit laws
        for i in range(d):
            b = self.basis_vector(i)
            if not np.array_equal(self.multiply(self.unit, b), b):
                raise ValueError(f"{self.name}: 1 * b_{i} != b_{i}")
            if not np.array_equal(self.multiply(b, self.unit), b):
                raise ValueError(f"{self.name}: b_{i} * 1 != b_{i}")
        # idempotent family: orthogonal, idempotent, sums to 1
        total = np.zeros(d, dtype=np.int64)
        for v, iv in enumerate(self.idempotent_indices):
            ev = self.basis_vector(iv)
            total = (total + ev) % p
            for w, iw in enumerate(self.idempotent_indices):
                ew = self.basis_vector(iw)
                prod = self.multiply(ev, ew)
                expect = ev if v == w else np.zeros(d, dtype=np.int64)
                if not np.array_equal(prod, expect):
                    raise ValueError(f"{self.name}: idempotent family not orthogonal")
        if not np.array_equal(total, self.unit):
            raise ValueError(f"{self.name}: idempotents do not sum to 1")


# ----------------------------------------------------------------------
# path algebras
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Path:
    arrows: tuple[int, ...]  # traversal order, first arrow first
    source: int
    target: int
    label: str


def _enumerate_paths(q: Quiver) -> list[_Path]:
    paths = [_Path((), v, v, q.vertex_labels[v]) for v in range(q.n)]
    frontier = list(paths)
    while frontier:
        new: list[_Path] = []
        for pth in frontier:
            for a, (s, t) in enumerate(q.arrows):
                if s == pth.target:
                    label = q.arrow_labels[a] + (pth.label if pth.arrows else "")
                    new.append(_Path(pth.arrows + (a,), pth.source, t, label))
        paths.extend(new)
        frontier = new
    return paths


def path_algebra(q: Quiver, field: PrimeField) -> Algebra:
    """Path algebra of an acyclic quiver; basis ordered by path length."""
    if not q.is_acyclic():
        raise CyclicQuiverError("path algebra requires an acyclic quiver")
    paths = _enumerate_paths(q)
    index = {(p.arrows, p.source): i for i, p in enumerate(paths)}
    d = len(paths)
    mul = np.zeros((d, d, d), dtype=np.int64)
    for i, pi in enumerate(paths):
        for j, pj in enumerate(paths):
            # b_i * b_j: traverse pj first, then pi
            if pi.source == pj.target:
                k = index[(pj.arrows + pi.arrows, pj.source)]
                mul[i, j, k] = 1
    unit = np.zeros(d, dtype=np.int64)
    unit[: q.n] = 1
    return Algebra(
        field,
        [p.label for p in paths],
        mul,
        unit,
        idempotent_indices=list(range(q.n)),
        name=f"k[{'-'.join(q.vertex_labels)}]",
    )


def opposite(a: Algebra) -> Algebra:
    """Opposite algebra; involutive on the nose (cached back-reference)."""
    if a._opposite is not None:
        return a._opposite
    op = Algebra(
        a.field,
        a.labels,
        np.swapaxes(a.mul_table, 0, 1),
        a.unit,
        a.idempotent_indices,
        name=a.name + "^op",
    )
    op._opposite = a
    a._opposite = op
    return op


# ----------------------------------------------------------------------
# corners and quotients
# ----------------------------------------------------------------------


def _validate_e_vertices(a: Algebra, e_vertices) -> list[int]:
    vs = sorted(set(e_vertices))
    if not vs:
        raise ValueError("e-vertex set must be nonempty")
    if len(vs) >= a.n_idempotents:
        raise ValueError("e-vertex set must be a proper subset of the vertices")
    for v in vs:
        if not (0 <= v < a.n_idempotents):
            raise ValueError(f"e-vertex {v} out of range")
    return vs


def corner(a: Algebra, e_vertices) -> tuple[Algebra, np.ndarray]:
    """Corner algebra eAe with e = sum of the chosen vertex idempotents.

    Returns ``(C, inclusion)`` where the rows of ``inclusion`` express the
    corner basis in A-coordinates.
    """
    fld = a.field
    vs = _validate_e_vertices(a, e_vertices)
    e = a.idempotent_sum(vs)
    # image of x |-> e x e, row-operator style
    trunc = fld.matmul(a.right_mult_operator(e), a.left_mult_operator(e))
    basis = fld.image_basis(trunc)
    c_dim = basis.shape[0]
    mul = np.zeros((c_dim, c_dim, c_dim), dtype=np.int64)
    for i in range(c_dim):
        for j in range(c_dim):
            prod = a.multiply(basis[i], basis[j])
            coords = fld.coords_in_rows(basis, prod.reshape(1, -1))
            if coords is None:
                raise ValueError("corner: eAe is not closed under products")
            mul[i, j] = coords[0]
    unit_coords = fld.coords_in_rows(basis, e.reshape(1, -1))
    if unit_coords is None:
        raise ValueError("corner: e not in computed basis span")
    idem_indices = []
    for v in vs:
        coords = fld.coords_in_rows(basis, a.idempotent_vector(v).reshape(1, -1))[0]
        nz = np.nonzero(coords)[0]
        if len(nz) != 1 or coords[nz[0]] != 1:
            raise ValueError("corner: vertex idempotent is not a basis element")
        idem_indices.append(int(nz[0]))
    labels = []
    for k, row in enumerate(basis):
        nz = np.nonzero(row)[0]
        if len(nz) == 1 and row[nz[0]] == 1:
            labels.append(a.labels[int(nz[0])])
        else:
            labels.append(f"c{k}")
    c = Algebra(
        fld,
        labels,
        mul,
        unit_coords[0],
        idem_indices,
        name=f"corner({a.name})",
    )
    return c, basis


def idempotent_quotient(a: Algebra, e_vertices) -> tuple[Algebra, np.ndarray, np.ndarray]:
    """Quotient B = A / AeA.

    Returns ``(B, projection, section)`` with ``projection`` mapping
    A-coordinates onto B-coordinates (rows: A basis) and ``section``
    choosing coset representatives.
    """
    fld = a.field
    vs = _validate_e_vertices(a, e_vertices)
    rows = []
    for v in vs:
        rv = a.right_mult_operator(a.idempotent_vector(v))
        for j in range(a.dim):
            rows.append(fld.matmul(rv, a.right_mult_operator(a.basis_vector(j))))
    span = np.concatenate(rows, axis=0)
    if fld.rank(span) == a.dim:
        raise IdealIsWholeAlgebraError("AeA is the whole algebra; quotient is zero")
    pi, sigma, keep = fld.quotient_maps(span, a.dim)
    b_dim = len(keep)
    mul = np.zeros((b_dim, b_dim, b_dim), dtype=np.int64)
    for i in range(b_dim):
        for j in range(b_dim):
            mul[i, j] = fld.matmul(
                a.multiply(sigma[i], sigma[j]).reshape(1, -1), pi
            )[0]
    unit = fld.matmul(a.unit.reshape(1, -1), pi)[0]
    idem_indices = []
    non_e = [v for v in range(a.n_idempotents) if v not in vs]
    for v in non_e:
        coords = fld.matmul(a.idempotent_vector(v).reshape(1, -1), pi)[0]
        nz = np.nonzero(coords)[0]
        if len(nz) != 1 or coords[nz[0]] != 1:
            raise ValueError("quotient: vertex idempotent image is not a basis element")
        idem_indices.append(int(nz[0]))
    labels = [a.labels[k] for k in keep]
    b = Algebra(
        fld,
        labels,
        mul,
        unit,
        idem_indices,
        name=f"{a.name}/ideal",
    )
    return b, pi, sigma
