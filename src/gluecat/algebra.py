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

from .field import PrimeField, blocks

__all__ = [
    "Quiver",
    "Algebra",
    "CyclicQuiverError",
    "IdealIsWholeAlgebraError",
    "path_algebra",
    "opposite",
    "corner",
    "idempotent_quotient",
    "ideal_span",
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


class _Memo(dict):
    """Values built once per exact key: the one memo type of the package.

    ``value(key, build, *args)`` returns ``build(*args)`` on the first
    request of ``key`` and the identical value on every later one.  Keys
    are exact content (a vertex, the shapes and bytes of arrays, and for
    complexes their algebra), never digests, so a hit means the inputs
    are equal.  A key holds everything it names, so no entry keeps the
    objects it was built from.  A build may re-enter the memo; the first
    value stored for a key is kept.  ``None`` is returned, never stored.

    ``requests`` counts the values asked for and ``len`` the keys built.
    """

    __slots__ = ("requests",)

    def __init__(self):
        super().__init__()
        self.requests = 0

    def value(self, key, build, *args):
        self.requests += 1
        hit = self.get(key)
        if hit is None:
            hit = build(*args)
            if hit is not None:
                hit = self.setdefault(key, hit)
        return hit


class Algebra:
    """Associative unital algebra via structure constants over GF(p).

    ``mul_table[i, j]`` holds the coordinates of ``b_i * b_j``.  The
    distinguished idempotents are basis elements; ``idempotent_indices[v]``
    is the basis index of the v-th one.

    The algebra owns the memos (:class:`_Memo`) of the module
    constructions over it, all filled lazily by :mod:`gluecat.modules`
    and shared read-only:

    - ``_projectives``: :func:`~gluecat.modules.projective_module`, one
      entry per vertex;
    - ``_sums``: :func:`~gluecat.modules.projective_sum`, one entry per
      vertex tuple: the only description of a sum of projectives;
    - ``_hom_bases``: :func:`~gluecat.modules.hom_basis_matrices`, keyed
      by the action tensors (shape and bytes) of both modules; only the
      default menus ask for these, as hom complexes are written in
      Yoneda coordinates;
    - ``_covers``: :func:`~gluecat.modules.projective_cover`, keyed by
      the action tensor of the covered module;
    - ``_generators``: the generators besides the idempotents, split by
      vertex, and the products that validate modules over it
      (:func:`~gluecat.modules._generators`), built once;
    - ``_weights``: a basis of each module adapted to its vertex
      grading (:func:`~gluecat.modules._weights`), keyed by the action
      tensor;
    - ``_zero``: the one :func:`~gluecat.modules.zero_module`;
    - ``_homology``: :func:`~gluecat.complexes.homology_dims` of the
      complexes over this algebra, keyed by their ``key``.

    ``_valid``, a plain dict, holds the content keys of the objects over
    this algebra that passed their validator: modules
    (:meth:`~gluecat.modules.RightModule.validate`, keyed by the action
    tensor), complexes (:meth:`~gluecat.complexes.BoundedComplex.validate`)
    and chain maps (:meth:`~gluecat.complexes.ChainMap.validate`, filed
    under the algebra of the source), each by its ``key``, mapped to
    itself so that content-equal objects share one key.  An object built
    with ``validate=False`` (a proved construction) is filed unchecked,
    since its laws follow from those of its inputs.  A failure is never
    recorded, so malformed content raises on every construction.

    The laws are checked (:meth:`validate`) on a direct call, as in
    :func:`path_algebra`; :func:`opposite`, :func:`corner` and
    :func:`idempotent_quotient` pass ``validate=False`` and say why.
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
        self._projectives, self._sums = _Memo(), _Memo()
        self._hom_bases, self._covers = _Memo(), _Memo()
        self._generators, self._weights = _Memo(), _Memo()
        self._zero, self._homology = _Memo(), _Memo()
        self._valid: dict[tuple, tuple] = {}
        if self.mul_table.shape != (self.dim, self.dim, self.dim):
            raise ValueError("structure constant tensor has wrong shape")
        if validate:
            self.validate()

    def __repr__(self):
        return f"<{self.name} dim={self.dim} over {self.field}>"

    # ------------------------------------------------------------------
    # element arithmetic
    # ------------------------------------------------------------------

    def right_mult_operator(self, y: np.ndarray) -> np.ndarray:
        """R(y) with x*y == x @ R(y).  R is multiplicative.

        A stack of coordinate rows gives the stack of their operators.
        """
        return np.einsum("...j,ijk->...ik", y, self.mul_table) % self.field.p

    def left_mult_operator(self, x: np.ndarray) -> np.ndarray:
        """L(x) with x*y == y @ L(x).  L(xy) == L(y) @ L(x).

        A stack of coordinate rows gives the stack of their operators.
        """
        return np.einsum("...i,ijk->...jk", x, self.mul_table) % self.field.p

    @property
    def right_operators(self) -> np.ndarray:
        """R(b_i) for every basis element, stacked: a view of ``mul_table``."""
        return np.swapaxes(self.mul_table, 0, 1)

    @property
    def left_operators(self) -> np.ndarray:
        """L(b_i) for every basis element, stacked: ``mul_table`` itself."""
        return self.mul_table

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
        mul = self.mul_table
        right_ops = mul.reshape(d, d * d)
        left_ops = np.swapaxes(mul, 0, 1)  # [l, i]: b_i b_l
        # [l, 0, k] is b_l b_k and [l, 1, i] is b_i b_l
        both = np.stack([mul, left_ops], axis=1).reshape(d, 2 * d * d)
        # associativity on the basis triples where a side can be nonzero:
        # (b_i b_j) b_k needs b_i b_j != 0 and b_i (b_j b_k) needs
        # b_j b_k != 0, so each pair (x, y) with b_x b_y != 0 is checked
        # as (i, j) with every k and as (j, k) with every i
        xs, ys = np.nonzero(mul.any(axis=2))
        for blk in blocks(xs.size, 2 * d * d):
            x, y = xs[blk], ys[blk]
            # [xy, 0, k]: (b_x b_y) b_k and b_x (b_y b_k);
            # [xy, 1, i]: b_i (b_x b_y) and (b_i b_x) b_y
            outer = mul[x, y] @ both
            inner = np.stack([np.matmul(mul[y], mul[x]), np.matmul(left_ops[x], left_ops[y])], axis=1)
            if ((outer - inner.reshape(outer.shape)) % p).any():
                raise ValueError(f"{self.name}: associativity fails")
        # unit laws: row i of each side is 1 * b_i and b_i * 1
        eye = np.eye(d, dtype=np.int64)
        bad_left = np.any((self.unit @ right_ops).reshape(d, d) % p != eye, axis=1)
        bad_right = np.any(np.dot(self.unit, self.mul_table) % p != eye, axis=1)
        bad = np.flatnonzero(bad_left | bad_right)
        if bad.size:
            i = int(bad[0])
            if bad_left[i]:
                raise ValueError(f"{self.name}: 1 * b_{i} != b_{i}")
            raise ValueError(f"{self.name}: b_{i} * 1 != b_{i}")
        # idempotent family: orthogonal, idempotent, sums to 1
        idx = np.asarray(self.idempotent_indices, dtype=np.intp)
        n = idx.size
        expect = np.zeros((n, n, d), dtype=np.int64)
        expect[np.arange(n), np.arange(n), idx] = 1
        if not np.array_equal(self.mul_table[np.ix_(idx, idx)], expect):
            raise ValueError(f"{self.name}: idempotent family not orthogonal")
        total = np.bincount(idx, minlength=d) % p
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
    """Opposite algebra; involutive on the nose (cached back-reference).

    Proved: the swapped table is associative, with the same unit and
    idempotents.
    """
    if a._opposite is not None:
        return a._opposite
    op = Algebra(
        a.field,
        a.labels,
        np.swapaxes(a.mul_table, 0, 1),
        a.unit,
        a.idempotent_indices,
        name=a.name + "^op",
        validate=False,
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

    Proved: eAe is closed (the solve checks it), with unit e and
    orthogonal idempotents e_v.
    """
    fld = a.field
    vs = _validate_e_vertices(a, e_vertices)
    e = a.idempotent_sum(vs)
    # image of x |-> e x e, row-operator style
    trunc = fld.matmul(a.right_mult_operator(e), a.left_mult_operator(e))
    basis = fld.image_basis(trunc)
    c_dim = basis.shape[0]
    # [i, j] is basis[i] * basis[j]; all of them in one solve
    prods = fld.matmul(basis, a.left_mult_operator(basis))
    coords = fld.coords_in_rows(basis, prods.reshape(c_dim * c_dim, a.dim))
    if coords is None:
        raise ValueError("corner: eAe is not closed under products")
    mul = coords.reshape(c_dim, c_dim, c_dim)
    # e and each e_v (v in e) lie in eAe together: all in one solve
    idem = np.eye(a.dim, dtype=np.int64)[[a.idempotent_indices[v] for v in vs]]
    unit_coords = fld.coords_in_rows(basis, np.concatenate([e.reshape(1, -1), idem]))
    if unit_coords is None:
        raise ValueError("corner: e not in computed basis span")
    idem_indices = []
    for coords in unit_coords[1:]:
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
        validate=False,
    )
    return c, basis


def ideal_span(a: Algebra, e_vertices) -> np.ndarray:
    """Rows spanning the two-sided ideal AeA: the products x e_v b_j for
    every basis vector x, chosen vertex v and basis element b_j, ordered
    by (v, j, x)."""
    fld = a.field
    vs = sorted(set(e_vertices))
    rv = a.right_mult_operator(np.eye(a.dim, dtype=np.int64)[[a.idempotent_indices[v] for v in vs]])
    return fld.matmul(rv[:, None], a.right_operators).reshape(-1, a.dim)


def idempotent_quotient(a: Algebra, e_vertices) -> tuple[Algebra, np.ndarray, np.ndarray]:
    """Quotient B = A / AeA.

    Returns ``(B, projection, section)`` with ``projection`` mapping
    A-coordinates onto B-coordinates (rows: A basis) and ``section``
    choosing coset representatives.

    Proved: AeA is a two-sided ideal, so ``projection`` is a unital
    algebra map, and it sends the e_v outside e to basis elements.
    """
    fld = a.field
    vs = _validate_e_vertices(a, e_vertices)
    span = ideal_span(a, vs)
    if fld.rank(span) == a.dim:
        raise IdealIsWholeAlgebraError("AeA is the whole algebra; quotient is zero")
    pi, sigma, keep = fld.quotient_maps(span, a.dim)
    # [i, j] is the class of sigma[i] * sigma[j]
    mul = fld.matmul(fld.matmul(sigma, a.left_mult_operator(sigma)), pi)
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
        validate=False,
    )
    return b, pi, sigma
