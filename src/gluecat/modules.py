"""Right modules over a finite-dimensional algebra.

Modules are given by action matrices in the row-vector convention:
``v * a == v @ rho(a)`` and ``rho(x*y) == rho(x) @ rho(y)``, where rho(a)
is the sum of the basis action matrices weighted by the coordinates of
a.  Homomorphisms f: M -> N are matrices applied on the right, so
composition "first f then g" is the matrix product f @ g.

Bimodules carry a commuting left action whose matrices compose in
left-action order, ``lam(x*y) == lam(y) @ lam(x)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, _Memo, opposite
from .field import PrimeField, blocks

__all__ = [
    "RightModule",
    "Bimodule",
    "TensorResult",
    "ResolutionExceedsCapError",
    "GlobalDimensionExceedsCapError",
    "zero_module",
    "regular_module",
    "simple_module",
    "projective_module",
    "injective_module",
    "projectives",
    "projective_sum",
    "direct_sum",
    "submodule_from_rows",
    "sub_bimodule",
    "k_dual",
    "tensor_over",
    "tensor_hom",
    "projective_cover",
    "global_dimension",
    "nakayama_bimodule",
]


class ResolutionExceedsCapError(RuntimeError):
    pass


class GlobalDimensionExceedsCapError(RuntimeError):
    pass


class RightModule:
    """Right module via one action matrix per algebra basis element.

    ``key`` is the exact content of the module (shape and bytes of the
    action tensor), the key of every module memo; the action is made
    read-only so the key stays true.

    The laws are checked (:meth:`validate`) on a direct call.  The
    constructions whose output is a module whenever their inputs are
    pass ``validate=False`` and say why.  Either way the algebra's domain
    certificate is built (:func:`_generators`) and the key is interned
    by :func:`_validate_once`.
    """

    def __init__(self, algebra: Algebra, action: np.ndarray, name: str = "", validate: bool = True):
        self.algebra = algebra
        self.action = np.asarray(action, dtype=np.int64) % algebra.field.p
        if self.action.ndim != 3 or self.action.shape[0] != algebra.dim:
            raise ValueError("action tensor must have shape (dim A, m, m)")
        if self.action.shape[1] != self.action.shape[2]:
            raise ValueError("action matrices must be square")
        self.dim = int(self.action.shape[1])
        self.name = name or f"module(dim={self.dim})"
        self.action.setflags(write=False)
        self.key = (self.action.shape, self.action.tobytes())
        if self.dim and not validate:
            _generators(algebra)  # the domain certificate, which validate builds
        _validate_once(self, algebra, validate)

    def __repr__(self):
        return f"<{self.name} over {self.algebra.name}>"

    @property
    def field(self) -> PrimeField:
        return self.algebra.field

    def validate(self):
        """See :func:`_action_laws`."""
        if self.dim == 0:
            return
        law = _action_laws(self.algebra, self.action)[1]
        if law == "unit":
            raise ValueError(f"{self.name}: unit does not act as identity")
        if law == "product":
            raise ValueError(f"{self.name}: action is not multiplicative")


def _validate_once(obj, algebra: Algebra, validate: bool = True) -> None:
    """``obj.validate()``, run once per content ``obj.key`` per algebra,
    and not at all with ``validate=False``, which a construction passes
    when its output is proved.

    Either way the content is filed in ``algebra._valid``.  A failure is
    never recorded, so malformed content raises on every construction.
    An object whose content was filed before takes over the stored key,
    so content-equal objects share one copy of its bytes.
    """
    known = algebra._valid.get(obj.key)
    if known is None:
        if validate:
            obj.validate()
        algebra._valid[obj.key] = obj.key
    else:
        obj.key = known


class Bimodule:
    """Commuting left/right actions; the left matrices compose reversed.

    ``_tensors`` is the memo of :func:`tensor_over` for this bimodule,
    keyed by the content of the module tensored with it, and ``_flip``
    the memo of :meth:`flip`.

    As for :class:`RightModule`, the laws are checked on a direct call,
    and proved constructions pass ``validate=False``; the domain
    certificates of both algebras are built either way.
    """

    def __init__(
        self,
        left_algebra: Algebra,
        right_algebra: Algebra,
        left_action: np.ndarray,
        right_action: np.ndarray,
        name: str = "",
        validate: bool = True,
    ):
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        p = left_algebra.field.p
        self.left_action = np.asarray(left_action, dtype=np.int64) % p
        self.right_action = np.asarray(right_action, dtype=np.int64) % p
        self.dim = int(self.right_action.shape[1])
        self.name = name or f"bimodule(dim={self.dim})"
        self._tensors = _Memo()
        self._flip: Bimodule | None = None
        if validate:
            self.validate()
        elif self.dim:
            _generators(left_algebra)  # the domain certificates, which validate builds
            _generators(right_algebra)

    def __repr__(self):
        return f"<{self.name}: {self.left_algebra.name} | {self.right_algebra.name}>"

    @property
    def field(self) -> PrimeField:
        return self.left_algebra.field

    def as_right_module(self, name: str = "") -> RightModule:
        """The right action alone.  Proved: it is one law of the bimodule."""
        return RightModule(self.right_algebra, self.right_action, name=name or self.name, validate=False)

    def flip(self) -> "Bimodule":
        """Same space viewed as a bimodule over the opposite algebras,
        built on the first call and kept.  Proved: a right action of R is
        a left action of R^op, and conversely."""
        if self._flip is None:
            self._flip = Bimodule(
                opposite(self.right_algebra),
                opposite(self.left_algebra),
                left_action=self.right_action,
                right_action=self.left_action,
                name=f"flip({self.name})",
                validate=False,
            )
        return self._flip

    def validate(self):
        """The laws of :func:`_action_laws` on both sides, and
        lam(x) rho(y) == rho(y) lam(x) for x and y in the validation sets
        of the two algebras, which generate them."""
        if self.dim == 0:
            return
        lam, left = _action_laws(self.left_algebra, self.left_action, left=True)
        rho, right = _action_laws(self.right_algebra, self.right_action)
        if left == "unit":
            raise ValueError(f"{self.name}: left unit fails")
        if right == "unit":
            raise ValueError(f"{self.name}: right unit fails")
        if right == "product":
            raise ValueError(f"{self.name}: right action not multiplicative")
        if left == "product":
            raise ValueError(f"{self.name}: left action not anti-multiplicative")
        if not _commute(lam, rho, self.field.p):
            raise ValueError(f"{self.name}: actions do not commute")


def _action_laws(a: Algebra, action: np.ndarray, left: bool = False) -> tuple[np.ndarray, str | None]:
    """``(acts, law)``: the action matrices of the validation set G of
    :func:`_generators`, stacked, and the first law the action breaks,
    ``"unit"`` or ``"product"``, or None.

    The laws are rho(1) == I and rho(g b_j) == rho(g) rho(b_j) for every
    g of G and basis element b_j; with ``left``, lam(g b_j) ==
    lam(b_j) lam(g) instead.  If the product law holds for g and g', it
    holds for g g', so it holds on the algebra G generates, which is all
    of ``a``.  The products come in blocks of G of at most
    ``gluecat.field.STACK_ENTRIES`` entries, and in one product with the
    actions of G when one block holds them all.
    """
    p = a.field.p
    gens = _generators(a)
    d, m = action.shape[0], action.shape[1]
    size = a.n_idempotents + len(gens.parts)
    flat = action.reshape(d, m * m)
    slices = blocks(size, d * m * m)
    whole = len(slices) == 1
    head = ((gens.table if whole else gens.table[:size]) @ flat) % p
    acts = head[:size].reshape(size, m, m)
    # 1 is the sum of the idempotents, which lead G
    one = acts[:a.n_idempotents].sum(axis=0) % p
    if not np.array_equal(one, np.eye(m, dtype=np.int64)):
        return acts, "unit"
    for blk in slices:
        g = acts[blk]
        k = len(g)
        # [g, j] is the action of g b_j
        lo = size + blk.start * d
        lhs = head[size:] if whole else (gens.table[lo:lo + k * d] @ flat) % p
        rhs = np.matmul(action, g[:, None]) if left else np.matmul(g[:, None], action)
        if not (lhs.reshape(k, d, m, m) == rhs % p).all():
            return acts, "product"
    return acts, None


def _commute(lam: np.ndarray, rho: np.ndarray, p: int) -> bool:
    """Whether lam[x] @ rho[y] == rho[y] @ lam[x] for all x and y, in
    blocks of x of at most ``gluecat.field.STACK_ENTRIES`` entries."""
    m = rho.shape[1]
    for blk in blocks(len(lam), len(rho) * m * m):
        x = lam[blk, None]
        if not (np.matmul(x, rho) % p == np.matmul(rho, x) % p).all():
            return False
    return True


def _operators(coords: np.ndarray, action: np.ndarray, p: int) -> np.ndarray:
    """Action matrices of the algebra elements whose coordinates are the
    rows of ``coords``, from the stack of basis action matrices."""
    d, m, n = action.shape
    return ((coords @ action.reshape(d, m * n)) % p).reshape(-1, m, n)


# ----------------------------------------------------------------------
# content-keyed memos
# ----------------------------------------------------------------------


def _freeze(*arrays: np.ndarray) -> None:
    """Clear the write flag of each array.

    Every builder behind a module memo freezes the arrays it creates, so
    the value it stores can be shared; a :class:`RightModule` freezes its
    own action when it is built.
    """
    for arr in arrays:
        arr.setflags(write=False)


@dataclass
class _Generators:
    """The generators of an algebra, built once per algebra.

    ``parts`` holds the generators besides the idempotents: the nonzero
    parts e_s g e_t of a lift g of a basis of rad/rad^2.  Row k holds the
    coordinates of a part, which maps M e_s into M e_t in every right
    module M, with s = ``src[k]`` and t = ``tgt[k]``.  For kQ these are
    the arrows; for eAe they can be paths through vertices outside e.

    ``table`` stacks the validation set G, the idempotents and then
    ``parts``, which generates the algebra, and after it the products
    G[g] * b_j in (g, j) order: the coordinates the module validators
    act on.

    ``minimal`` indexes the parts that lift a basis of rad/rad^2: all of
    them when each lift is a single part, as in every basis split by
    vertex.
    """

    parts: np.ndarray
    src: np.ndarray
    tgt: np.ndarray
    table: np.ndarray
    minimal: np.ndarray


def _generators(a: Algebra) -> _Generators:
    return a._generators.value(None, _build_generators, a)


def _build_generators(a: Algebra) -> _Generators:
    d = a.dim
    parts, src, tgt, minimal = _radical_generators(a)
    elements = np.concatenate([np.eye(d, dtype=np.int64)[a.idempotent_indices], parts])
    products = (elements @ a.mul_table.reshape(d, d * d)) % a.field.p
    table = np.concatenate([elements, products.reshape(-1, d)])
    _freeze(parts, src, tgt, table, minimal)
    return _Generators(parts, src, tgt, table, minimal)


def _radical_generators(a: Algebra) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(parts, src, tgt, minimal)`` of :class:`_Generators`, once ``a`` is
    certified to be in the domain where they and the idempotents
    generate it: the non-idempotent basis spans a nilpotent ideal, which
    is then the radical.

    That holds when e_v b e_v == 0 for every vertex v and non-idempotent
    basis element b, and the digraph of the pairs s != t with
    e_s A e_t != 0 is acyclic.  Then A = (+)_v k e_v (+) J with J the sum
    of the spaces e_s A e_t for s != t; J is an ideal, and a product of
    n of its elements follows a path of length n in the digraph, so it
    is zero for n at the number of vertices.  Otherwise ``ValueError``
    names the algebra.
    """
    fld = a.field
    d, idx = a.dim, a.idempotent_indices
    n = len(idx)
    rad = a.radical_basis_indices()
    if not rad:
        none = np.zeros(0, dtype=np.intp)
        return np.zeros((0, d), dtype=np.int64), none, none, none
    # [s, r, t] is e_s b e_t for the r-th non-idempotent basis element b:
    # one product
    left = a.mul_table[idx][:, rad].reshape(n * len(rad), d)
    corners = ((left @ a.mul_table[:, idx].reshape(d, n * d)) % fld.p).reshape(n, len(rad), n, d)
    nonzero = corners.any(axis=3)
    loops = nonzero.diagonal(axis1=0, axis2=2).any(axis=1)
    if loops.any():
        label = a.labels[rad[int(np.flatnonzero(loops)[0])]]
        raise ValueError(f"{a.name}: outside the domain: e_v b e_v != 0 for the basis element {label}")
    # the digraph is acyclic when its adjacency matrix is nilpotent, that
    # is when its power 2**k >= n is zero
    reach = nonzero.any(axis=1)
    for _ in range((n - 1).bit_length()):
        reach = reach @ reach
    if reach.any():
        raise ValueError(f"{a.name}: outside the domain: the spaces e_s A e_t with s != t form a cycle")
    # rad^2 is spanned by the products of radical basis elements; the
    # radical basis elements independent of rad^2 and of those before
    # them lift a basis of rad/rad^2
    squares = a.mul_table[rad][:, rad].reshape(-1, d)
    squares = squares[squares.any(axis=1)]
    keep = fld.row_rank_profile(np.concatenate([squares, np.eye(d, dtype=np.int64)[rad]]))
    lift = [k - squares.shape[0] for k in keep if k >= squares.shape[0]]
    # [g, s, t] is e_s * g * e_t
    g, src, tgt = np.nonzero(nonzero[:, lift].transpose(1, 0, 2))
    parts = corners[src, np.asarray(lift, dtype=np.intp)[g], tgt]
    # the parts of the lifts span rad/rad^2 too; when a lift has several,
    # those independent of rad^2 and of the parts before them lift a basis
    if len(parts) == len(lift):
        minimal = np.arange(len(parts))
    else:
        keep = fld.row_rank_profile(np.concatenate([squares, parts]))
        minimal = np.asarray([k - squares.shape[0] for k in keep if k >= squares.shape[0]], dtype=np.intp)
    return parts, src, tgt, minimal


@dataclass
class _Weights:
    """A basis Q of M adapted to M = (+)_v M e_v, built once per content.

    ``basis`` stacks a basis of each M e_v in vertex order, with
    ``sizes`` and ``offsets`` giving the blocks, and ``inverse`` is
    Q^-1.
    """

    basis: np.ndarray
    inverse: np.ndarray
    sizes: np.ndarray
    offsets: np.ndarray


def _weights(m: RightModule) -> _Weights:
    return m.algebra._weights.value(m.key, _build_weights, m)


def _build_weights(m: RightModule) -> _Weights:
    fld = m.field
    rows, cols = [], []
    for iv in m.algebra.idempotent_indices:
        # e_v acts as the projection onto M e_v: its rref rows are a basis
        # of M e_v, and its columns at their pivots give coordinates in it
        r, piv, rank = fld.rref(m.action[iv])
        rows.append(r[:rank])
        cols.append(m.action[iv][:, piv])
    sizes = np.array([len(r) for r in rows], dtype=np.intp)
    offsets = np.cumsum(sizes) - sizes
    basis, inverse = np.concatenate(rows), np.concatenate(cols, axis=1)
    _freeze(basis, inverse, sizes, offsets)
    return _Weights(basis, inverse, sizes, offsets)


# ----------------------------------------------------------------------
# basic constructors
# ----------------------------------------------------------------------


def zero_module(a: Algebra) -> RightModule:
    """The zero module of ``a``; one shared object per algebra.  Proved:
    every law holds on the zero space."""
    return a._zero.value(None, lambda: RightModule(a, np.zeros((a.dim, 0, 0), int), "0", False))


def regular_module(a: Algebra) -> RightModule:
    """A_A.  Proved: R(x y) == R(x) R(y) is associativity."""
    return RightModule(a, a.right_operators, name=f"{a.name} (regular)", validate=False)


def simple_module(a: Algebra, v: int) -> RightModule:
    """S_v: e_v acts as 1, all else as 0.  Proved on the domain, where the
    other basis elements span an ideal (:func:`_radical_generators`)."""
    action = np.zeros((a.dim, 1, 1), dtype=np.int64)
    action[a.idempotent_indices[v], 0, 0] = 1
    return RightModule(a, action, name=f"S{v + 1}", validate=False)


def _restricted_action(a: Algebra, rows: np.ndarray, operators: np.ndarray) -> np.ndarray:
    """Action of each operator of the ``(k, n, n)`` stack on the span of
    the independent ``rows``, as a ``(k, r, r)`` stack.

    All ``k * r`` images are expressed in the rows by one solve, which
    raises unless the span is stable; so a module action on the ambient
    space gives one on the span, and callers pass ``validate=False``.
    """
    fld = a.field
    k, r = operators.shape[0], rows.shape[0]
    images = fld.matmul(rows, operators).reshape(k * r, rows.shape[1])
    coords = fld.coords_in_rows(rows, images)
    if coords is None:
        raise ValueError("subspace is not stable under the action")
    return coords.reshape(k, r, r)


def projective_module(a: Algebra, v: int) -> tuple[RightModule, np.ndarray, np.ndarray]:
    """P_v = e_v A.  Returns (module, basis rows in A-coords, generator coords).

    Built once per (algebra, vertex) and memoised on the algebra, so every
    caller shares the same tuple; its arrays are read-only.
    """
    return a._projectives.value(v, _build_projective, a, v)


def _build_projective(a: Algebra, v: int) -> tuple[RightModule, np.ndarray, np.ndarray]:
    fld = a.field
    ev = a.idempotent_vector(v)
    rows = fld.image_basis(a.left_mult_operator(ev))
    # proved: e_v A is stable under A_A
    mod = RightModule(
        a,
        _restricted_action(a, rows, a.right_operators),
        name=f"P{v + 1}",
        validate=False,
    )
    gen = fld.coords_in_rows(rows, ev.reshape(1, -1))
    if gen is None:
        raise ValueError("idempotent missing from its own projective")
    _freeze(rows, gen)
    return mod, rows, gen[0]


def injective_module(a: Algebra, v: int) -> RightModule:
    """I_v = dual of the left module A e_v.  Proved: A e_v is a stable span
    of A under A^op, and :func:`k_dual` is proved."""
    fld = a.field
    ev = a.idempotent_vector(v)
    rows = fld.image_basis(a.right_mult_operator(ev))
    aop = opposite(a)
    left_as_op = RightModule(
        aop,
        _restricted_action(aop, rows, a.left_operators),
        name=f"Ae{v + 1} (over op)",
        validate=False,
    )
    out = k_dual(left_as_op)
    out.name = f"I{v + 1}"
    return out


def projectives(a: Algebra) -> list[RightModule]:
    return [projective_module(a, v)[0] for v in range(a.n_idempotents)]


def projective_sum(a: Algebra, vertices: tuple[int, ...]) -> tuple[RightModule, np.ndarray, np.ndarray]:
    """The sum of the P_v for the vertex tuple ``vertices``, in order:
    ``(module, offsets, gens)``, with ``offsets[k]`` the first coordinate
    of summand k and row k of ``gens`` its generator e_v.

    The tuple is the only stored description of a sum of projectives:
    every term of a :class:`~gluecat.complexes.ProjectiveComplex` and
    every cover is built here, once per tuple, and memoised on the
    algebra (``Algebra._sums``), so every caller shares the same tuple
    and its arrays are read-only.  The empty tuple gives the zero module.
    """
    return a._sums.value(vertices, _build_sum, a, vertices)


def _build_sum(a: Algebra, vertices: tuple[int, ...]) -> tuple[RightModule, np.ndarray, np.ndarray]:
    parts = [projective_module(a, v) for v in vertices]
    module, offsets = direct_sum([m for m, _, _ in parts]) if parts else (zero_module(a), [])
    offsets = np.asarray(offsets, dtype=np.intp)
    gens = np.zeros((len(parts), module.dim), dtype=np.int64)
    for k, ((_, _, gen), off) in enumerate(zip(parts, offsets)):
        gens[k, off:off + gen.size] = gen
    _freeze(offsets, gens)
    return module, offsets, gens


def direct_sum(mods: list[RightModule], name: str = "") -> tuple[RightModule, list[int]]:
    """Block direct sum; returns the module and the block offsets.
    Proved: products act blockwise."""
    if not mods:
        raise ValueError("direct_sum of nothing — pass the algebra's zero module")
    a = mods[0].algebra
    offsets = [0]
    for m in mods:
        if m.algebra is not a:
            raise ValueError("direct_sum: modules over different algebras")
        offsets.append(offsets[-1] + m.dim)
    total = offsets[-1]
    action = np.zeros((a.dim, total, total), dtype=np.int64)
    for k, m in enumerate(mods):
        action[:, offsets[k]:offsets[k + 1], offsets[k]:offsets[k + 1]] = m.action
    return RightModule(a, action, name=name or "⊕".join(m.name for m in mods), validate=False), offsets[:-1]


def submodule_from_rows(m: RightModule, rows: np.ndarray, name: str = "") -> tuple[RightModule, np.ndarray]:
    """Submodule spanned by the (independent) rows; returns (module, inclusion).
    Proved by the stability solve of :func:`_restricted_action`."""
    sub = RightModule(
        m.algebra,
        _restricted_action(m.algebra, rows, m.action),
        name=name or f"sub({m.name})",
        validate=False,
    )
    return sub, rows


def sub_bimodule(
    left_algebra: Algebra,
    right_algebra: Algebra,
    rows: np.ndarray,
    left_ops: np.ndarray,
    right_ops: np.ndarray,
    name: str = "",
) -> Bimodule:
    """Sub-bimodule spanned by the (independent) rows, restricting the
    ambient left and right operator stacks.  Proved when the stacks are
    commuting actions whose units fix the span, as for eA and Ae: the
    laws pass to the span, which :func:`_restricted_action` checks is
    stable."""
    return Bimodule(
        left_algebra,
        right_algebra,
        _restricted_action(left_algebra, rows, left_ops),
        _restricted_action(right_algebra, rows, right_ops),
        name=name,
        validate=False,
    )


# ----------------------------------------------------------------------
# homs, duality, tensor
# ----------------------------------------------------------------------


def hom_basis_matrices(p: RightModule, n: RightModule) -> list[np.ndarray]:
    """A basis of Hom_A(P_v, N) for P_v = e_v A of :func:`projective_module`,
    read in Yoneda coordinates: Hom_A(e_v A, N) = N e_v, so each row w of
    the weight basis of N at v gives the map b |-> w b.  A source with
    other content raises ``ValueError``.

    The basis returned has a 1 at each free column and 0 at the others:
    the rref of the space on the reversed columns, which depends on the
    space alone, so it is the kernel basis of the dense
    ``(dim A * m * n) x (m * n)`` system.  Columns that vanish on the
    whole space stay zero.
    """
    a, fld = p.algebra, p.field
    if n.algebra is not a:
        raise ValueError("hom_basis: modules over different algebras")
    v = next((v for v in range(a.n_idempotents) if projective_module(a, v)[0].key == p.key), None)
    if v is None:
        raise ValueError(f"hom_basis: {p.name} is not a projective e_v A")
    w = _weights(n)
    at = w.basis[w.offsets[v]:w.offsets[v] + w.sizes[v]]
    if not len(at):
        return []
    # row r of the map of w is w times the r-th basis path of P_v
    ops = _operators(projective_module(a, v)[1], n.action, fld.p)
    homs = fld.matmul(at, ops.transpose(1, 0, 2).reshape(n.dim, p.dim * n.dim))
    support = np.flatnonzero(homs.any(axis=0))[::-1]
    flat = fld.zeros(len(at), p.dim * n.dim)
    flat[:, support] = fld.rref(homs[:, support])[0][::-1]
    return [f.reshape(p.dim, n.dim) for f in flat]


def k_dual(m: RightModule) -> RightModule:
    """Dual space as a right module over the opposite algebra.

    In the dual bases the double dual is the identity on the nose.
    Proved: transposing reverses products, as the opposite algebra does.
    """
    action = np.transpose(m.action, (0, 2, 1))
    return RightModule(opposite(m.algebra), action, name=f"D({m.name})", validate=False)


@dataclass
class TensorResult:
    """M (x)_R W presented on the non-pivot coordinates of M (x)_k W.

    Every kept coordinate (a, b) lies in the graded ambient
    (+)_v M e_v (x) e_v W, so ``pi`` is zero on the rows of the pairs
    whose vertices differ, and ``section`` is the unit rows at the kept
    coordinates.
    """

    module: RightModule
    pi: np.ndarray        # ambient (m*w) x q projection
    section: np.ndarray   # q x ambient coset representatives
    m_dim: int
    w_dim: int

    def insert_right(self, w_coords: np.ndarray) -> np.ndarray:
        """Matrix of v |-> class(v ⊗ w) for a fixed element w."""
        fld = self.module.field
        pi = self.pi.reshape(self.m_dim, self.w_dim, self.pi.shape[1])
        return fld.matmul(w_coords, pi)


def tensor_over(m: RightModule, w: Bimodule) -> TensorResult:
    """Quotient of M (x)_k W by the relations (v a) ⊗ x - v ⊗ (a x).

    Valid when the bases of M and W are split by vertex: each idempotent
    e_v acts on M, and on W from the left, as a 0/1 diagonal, as it does
    on every module and bimodule :mod:`gluecat` builds.  Then the
    quotient is that of the graded ambient (+)_v M e_v (x) e_v W by one
    relation block per generator part; a ``ValueError`` names M or W if
    its basis is not split.  Memoised on ``w`` by the content of M; the
    shared result is read-only and its module keeps the name of the
    first build.

    The module is proved: the kernel of ``pi`` is the span of all the
    relations, which the right action of W keeps, so sigma (1 (x) W_i) pi
    is the action induced on the quotient.
    """
    if m.algebra is not w.left_algebra:
        raise ValueError(
            f"tensor_over: module over {m.algebra.name} but bimodule is left-{w.left_algebra.name}"
        )
    return w._tensors.value(m.key, _build_tensor, m, w)


def _build_tensor(m: RightModule, w: Bimodule) -> TensorResult:
    fld = m.field
    amb = m.dim * w.dim
    if amb == 0:
        pi, sigma = fld.zeros(amb, 0), fld.zeros(0, amb)
        _freeze(pi, sigma)
        return TensorResult(zero_module(w.right_algebra), pi, sigma, m.dim, w.dim)
    idem = m.algebra.idempotent_indices
    vm = _vertex_of(m.action[idem], m.name)
    vw = _vertex_of(w.left_action[idem], w.name)
    # The relations of the idempotents span the unit vectors off the
    # weight-diagonal coordinates S, and those of the generators split
    # into that span and rows supported on S.  So the rref of all the
    # relations is the off-S units together with the rref of the rows on
    # S, whose columns keep their ambient order.
    diagonal = np.flatnonzero(vm[:, None] == vw)
    pi_s, _, keep_s = fld.quotient_maps(_graded_tensor_relations(m, w, vm, vw), diagonal.size)
    q = len(keep_s)
    keep = diagonal[keep_s]
    pi = fld.zeros(amb, q)
    pi[diagonal] = pi_s
    sigma = fld.zeros(q, amb)
    sigma[np.arange(q), keep] = 1
    ra = w.right_algebra
    if q == 0:
        mod = zero_module(ra)
    else:
        # sigma (1 (x) W_i) pi: row (a, b) of (1 (x) W_i) pi is W_i[b]
        # applied to the block a of pi, needed at the kept rows only
        ka, kb = np.divmod(keep, w.dim)
        blocks = fld.matmul(w.right_action[:, kb, None, :], pi.reshape(m.dim, w.dim, q)[ka])
        mod = RightModule(ra, blocks[:, :, 0], name=f"{m.name}⊗{w.name}", validate=False)
    _freeze(pi, sigma)
    return TensorResult(mod, pi, sigma, m.dim, w.dim)


def _vertex_of(idempotents: np.ndarray, name: str) -> np.ndarray:
    """Vertex of each basis vector, read off the diagonals of the stack of
    idempotent actions e_v; ``ValueError`` unless each e_v acts as a 0/1
    diagonal, which is what a basis split by vertex means."""
    diag = idempotents.diagonal(axis1=1, axis2=2)
    # off-diagonal zeros, and nonnegative diagonal columns summing to 1
    if np.count_nonzero(idempotents) != np.count_nonzero(diag) or (diag.sum(axis=0) != 1).any():
        raise ValueError(f"tensor_over: the basis of {name} is not split by vertex")
    return diag.argmax(axis=0)


def _graded_tensor_relations(m: RightModule, w: Bimodule, vm: np.ndarray, vw: np.ndarray) -> np.ndarray:
    """The relations of M (x) W on the coordinates S of the pairs (a, b)
    whose vertices ``vm[a]`` and ``vw[b]`` agree, in ambient order.

    The generator part g: s -> t has one block, with a row
    (a g) (x) b - a (x) (g b) for each a in M e_s and b in e_t W; both
    terms lie in S, in M e_t (x) e_t W and M e_s (x) e_s W.  The
    relations of a product x x' lie in the span of those of x and x', so
    these rows and those of the idempotents span the relations of every
    basis element.
    """
    p = m.field.p
    on_s = vm[:, None] == vw
    n_s = np.count_nonzero(on_s)
    gens = _generators(m.algebra)
    src, tgt = gens.src, gens.tgt
    if not src.size:
        return np.zeros((0, n_s), dtype=np.int64)
    mg = _operators(gens.parts, m.action, p)
    wg = _operators(gens.parts, w.left_action, p)
    # column of each pair of S, and one row (g, a, b) per block entry
    col = np.cumsum(on_s).reshape(on_s.shape) - 1
    g, a, b = np.nonzero((src[:, None, None] == vm[:, None]) & (tgt[:, None, None] == vw))
    out = np.zeros((g.size, n_s), dtype=np.int64)
    # (a g) (x) b: M_g[a, c] at the column (c, b), nonzero only for c in M e_t
    r, c = np.nonzero(mg[g, a])
    out[r, col[c, b[r]]] = mg[g[r], a[r], c]
    # a (x) (g b): W_g[b, d] at the column (a, d), nonzero only for d in e_s W
    r, d = np.nonzero(wg[g, b])
    out[r, col[a[r], d]] -= wg[g[r], b[r], d]
    return out % p


def tensor_hom(f: np.ndarray, src: TensorResult, dst: TensorResult) -> np.ndarray:
    """Induced map (f ⊗ id): src.module -> dst.module for f: M -> M'."""
    fld = src.module.field
    if src.module.dim == 0 or dst.module.dim == 0:
        return fld.zeros(src.module.dim, dst.module.dim)
    # (f (x) 1) dst.pi is f applied to dst.pi with its rows grouped by M'
    moved = fld.matmul(f, dst.pi.reshape(dst.m_dim, dst.w_dim * dst.module.dim))
    return fld.matmul(src.section, moved.reshape(src.m_dim * src.w_dim, dst.module.dim))


def nakayama_bimodule(a: Algebra) -> Bimodule:
    """D(A) = Hom_k(A, k) with actions (x f y)(z) = f(y z x).

    As a right module this is the dual of the left regular module, so
    projectives tensor to injectives.  Proved: it is the k-dual of the
    regular bimodule, whose laws are associativity.
    """
    right = np.swapaxes(a.left_operators, 1, 2)
    left = np.swapaxes(a.right_operators, 1, 2)
    return Bimodule(a, a, left, right, name=f"D({a.name})", validate=False)


# ----------------------------------------------------------------------
# covers and resolutions
# ----------------------------------------------------------------------


@dataclass
class Cover:
    module: RightModule            # projective_sum(algebra, summands)
    summands: tuple[int, ...]      # vertex of each summand P_v, in order
    surjection: np.ndarray         # matrix P -> M
    kernel: np.ndarray             # rows spanning the left kernel of surjection


def projective_cover(m: RightModule) -> Cover:
    """Minimal projective cover built from the top of M.

    Valid for the basic algebras produced by :mod:`gluecat.algebra`,
    where the radical is spanned by the non-idempotent basis elements.
    Memoised on the algebra by the content of M; the shared cover is
    read-only, and its module is the :func:`projective_sum` of its
    summands.
    """
    return m.algebra._covers.value(m.key, _build_cover, m)


def _build_cover(m: RightModule) -> Cover:
    a = m.algebra
    fld = m.field
    if m.dim == 0:
        surj, kernel = fld.zeros(0, 0), fld.zeros(0, 0)
        _freeze(surj, kernel)
        return Cover(zero_module(a), (), surj, kernel)
    rad_idx = a.radical_basis_indices()
    if rad_idx:
        rad_rows = np.concatenate([m.action[i] for i in rad_idx], axis=0)
    else:
        rad_rows = fld.zeros(0, m.dim)
    pi_top, _, _ = fld.quotient_maps(rad_rows, m.dim)
    top_dim = pi_top.shape[1]

    # candidate generators: a basis of each weight space M e_v, in vertex
    # order; keep those whose image in the top is new
    weights = _weights(m)
    vertex_of = np.repeat(np.arange(a.n_idempotents), weights.sizes)
    cands = weights.basis
    keep = fld.row_rank_profile(fld.matmul(cands, pi_top))
    if len(keep) != top_dim:
        raise ValueError("projective cover: generators do not span the top")
    summands = tuple(int(vertex_of[k]) for k in keep)
    p_mod, offsets, _ = projective_sum(a, summands)
    surj = fld.zeros(p_mod.dim, m.dim)
    for k, v, off in zip(keep, summands, offsets):
        rows = projective_module(a, v)[1]
        # row r is the generator times the r-th basis path of P_v
        surj[off:off + len(rows)] = fld.matmul(rows, fld.matmul(cands[k], m.action))
    kernel = fld.left_kernel_basis(surj)
    # rank-nullity: the rank of surj is P.dim minus its nullity
    if p_mod.dim - kernel.shape[0] != m.dim:
        raise ValueError("projective cover: constructed map is not surjective")
    _freeze(surj, kernel)
    return Cover(p_mod, summands, surj, kernel)


def global_dimension(a: Algebra, cap: int) -> int:
    """gl.dim A, which is pd(A/rad A); ``GlobalDimensionExceedsCapError``
    names the algebra and the cap when it exceeds ``cap``.

    The minimal resolution of the top A/rad A = (+)_v S_v starts with
    P_0 = A, whose kernel is rad A.  The generator parts g: s -> t of
    :func:`_generators` that lift a basis of rad/rad^2 generate rad A as a
    right module (Nakayama's lemma), so x |-> g x from (+)_g P_t onto
    rad A is a minimal projective cover; let K be its kernel.  So gl.dim A
    is 0 without parts (A is semisimple), 1 when K = 0 (rad A is
    projective: A is hereditary), and 2 + pd K otherwise: K is covered,
    then each kernel in turn, and pd K counts the nonzero kernels before
    the first zero one.  A hereditary algebra builds no cover and no
    module beyond its projectives.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    fld = a.field
    gens = _generators(a)
    if not gens.minimal.size:
        return 0
    tgts = tuple(int(t) for t in gens.tgt[gens.minimal])
    ops = a.left_mult_operator(gens.parts[gens.minimal])
    # row r of block g is g times the r-th basis path of P_t
    surj = np.concatenate([fld.matmul(projective_module(a, t)[1], op) for t, op in zip(tgts, ops)])
    kernel = fld.left_kernel_basis(surj)
    # rank-nullity: the rank of surj is its row count minus its nullity,
    # and its image lies in rad A
    if surj.shape[0] - kernel.shape[0] != len(a.radical_basis_indices()):
        raise ValueError(f"{a.name}: the generator parts do not cover the radical")
    if kernel.shape[0] == 0:
        return 1
    exceeds = f"{a.name}: global dimension exceeds cap {cap}"
    if cap < 2:
        raise GlobalDimensionExceedsCapError(exceeds)
    syzygy, _ = submodule_from_rows(projective_sum(a, tgts)[0], kernel, name=f"syz2({a.name})")
    length, cov = 2, projective_cover(syzygy)
    while cov.kernel.shape[0]:
        length += 1
        if length > cap:
            raise GlobalDimensionExceedsCapError(exceeds)
        cov = projective_cover(submodule_from_rows(cov.module, cov.kernel)[0])
    return length
