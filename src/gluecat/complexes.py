"""Bounded cochain complexes of right modules and their derived calculus.

Conventions (fixed package-wide): differentials raise degree and act on
row vectors from the right, so a chain map f satisfies
``f^n @ d_T^n == d_S^n @ f^{n+1}``.  The shift is (X[1])^n = X^{n+1} with
negated differential, and cone(f)^n = X^{n+1} (+) Y^n.

The duality functor D sends a complex over R to one over R^op with
(DX)^n = D(X^{-n}) and d_{DX}^n = (d_X^{-n-1})^T; with dual bases the
double dual is literally the identity, which several constructions
exploit.
"""

from __future__ import annotations

import copy
import functools
import random
from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, _Memo, opposite
from .field import PrimeField
from .modules import (
    Bimodule,
    Cover,
    ResolutionExceedsCapError,
    RightModule,
    TensorResult,
    _operators,
    _restricted_action,
    _validate_once,
    _weights,
    direct_sum,
    k_dual,
    projective_cover,
    projective_module,
    projective_sum,
    tensor_hom,
    tensor_over,
    zero_module,
)

__all__ = [
    "BoundedComplex",
    "ProjectiveComplex",
    "ChainMap",
    "Replacement",
    "DerivedContext",
    "DerivedIsoCertificate",
    "LiftSystemInconsistentError",
    "stalk_complex",
    "zero_complex",
    "shift",
    "cone",
    "homology_dims",
    "dual_complex",
    "dual_chain_map",
    "identity_map",
    "zero_map",
    "compose_maps",
    "present_class",
]


class LiftSystemInconsistentError(RuntimeError):
    """The lifting system had no solution: the map was not a qis or the
    source not projective.  Always a logic error upstream."""


@functools.lru_cache(maxsize=None)
def _zeros(rows: int, cols: int) -> np.ndarray:
    """The zero matrix of a shape, shared and read-only.

    It is a broadcast of one zero, so it holds no memory of its own.
    """
    return np.broadcast_to(np.zeros((), dtype=np.int64), (rows, cols))


class BoundedComplex:
    """A bounded cochain complex of right modules over one algebra.

    ``key`` is its exact content: the algebra itself, ``lo``/``hi``, and
    the shape and bytes of every term action and differential.  An
    algebra equals only itself, and the key keeps it alive, so no other
    algebra can take its place under that key.  The differentials are
    read-only (so are the term actions), so the key cannot go stale.
    The name is not content.
    """

    def __init__(
        self,
        algebra: Algebra,
        terms: dict[int, RightModule],
        diffs: dict[int, np.ndarray],
        name: str = "",
    ):
        self.algebra = algebra
        self._zero = zero_module(algebra)
        live = sorted(n for n, m in terms.items() if m.dim > 0)
        if live:
            self.lo, self.hi = live[0], live[-1]
            self.terms = {
                n: terms[n] if n in terms else self._zero
                for n in range(self.lo, self.hi + 1)
            }
        else:
            self.lo, self.hi = 0, -1
            self.terms = {}
        self.diffs = {}
        for n in range(self.lo, self.hi):
            d = diffs.get(n)
            if d is None:
                d = algebra.field.zeros(self.term(n).dim, self.term(n + 1).dim)
            d = np.asarray(d, dtype=np.int64) % algebra.field.p
            d.setflags(write=False)
            self.diffs[n] = d
        self.name = name or "complex"
        self.key = (
            algebra,
            self.lo,
            self.hi,
            tuple(m.key for m in self.terms.values()),
            tuple((d.shape, d.tobytes()) for d in self.diffs.values()),
        )
        if any(m.algebra is not algebra for m in self.terms.values()):
            self.validate()  # the key does not see term algebras
        _validate_once(self, algebra)

    # ------------------------------------------------------------------

    @property
    def field(self) -> PrimeField:
        return self.algebra.field

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def is_zero(self) -> bool:
        return self.hi < self.lo

    def term(self, n: int) -> RightModule:
        if self.lo <= n <= self.hi:
            return self.terms[n]
        return self._zero

    def diff(self, n: int) -> np.ndarray:
        if self.lo <= n < self.hi:
            return self.diffs[n]
        return _zeros(self.term(n).dim, self.term(n + 1).dim)

    def validate(self):
        fld = self.field
        for n in self.degrees():
            if self.term(n).algebra is not self.algebra:
                raise ValueError(f"{self.name}: term {n} over wrong algebra")
        for n in range(self.lo, self.hi):
            d = self.diff(n)
            if d.shape != (self.term(n).dim, self.term(n + 1).dim):
                raise ValueError(f"{self.name}: differential {n} has wrong shape")
            # module-hom property of d, for every basis element at once
            lhs = fld.matmul(self.term(n).action, d)
            rhs = fld.matmul(d, self.term(n + 1).action)
            if not np.array_equal(lhs, rhs):
                raise ValueError(f"{self.name}: differential {n} not A-linear")
        for n in range(self.lo, self.hi - 1):
            dd = fld.matmul(self.diff(n), self.diff(n + 1))
            if np.any(dd):
                raise ValueError(f"{self.name}: d∘d != 0 at degree {n}")

    def __repr__(self):
        dims = {n: self.term(n).dim for n in self.degrees()}
        return f"<{self.name} over {self.algebra.name} dims={dims}>"


class ProjectiveComplex(BoundedComplex):
    """A complex of projectives given by the vertex tuple of each term:
    term n is the sum of the e_v A for v in ``vertices[n]``, in order,
    built by :func:`~gluecat.modules.projective_sum`, which also gives
    its offsets and generators.  ``vertices[n]`` is set for every degree
    n, and empty for a zero term.  The decomposition is not content, so
    ``key`` is the complex's: it serves every complex with the same
    content."""

    def __init__(self, algebra: Algebra, vertices: dict[int, tuple[int, ...]], diffs: dict, name: str = ""):
        terms = {n: projective_sum(algebra, vs)[0] for n, vs in vertices.items()}
        super().__init__(algebra, terms, diffs, name=name)
        self.vertices = {n: vertices.get(n, ()) for n in self.degrees()}


class ChainMap:
    """A chain map; ``comps`` holds its nonzero components only.

    ``key`` is its exact content: the keys of source and target, and the
    degree, shape and bytes of each stored component, which are
    read-only.
    """

    def __init__(self, source: BoundedComplex, target: BoundedComplex, comps: dict[int, np.ndarray], validate: bool = True):
        self.source = source
        self.target = target
        self.comps = {}
        p = source.field.p
        for n, c in sorted(comps.items()):
            c = np.asarray(c, dtype=np.int64) % p
            if c.shape != (source.term(n).dim, target.term(n).dim):
                raise ValueError(f"chain map component {n} has wrong shape")
            if c.any():
                c.setflags(write=False)
                self.comps[n] = c
        self.key = (
            source.key,
            target.key,
            tuple((n, c.shape, c.tobytes()) for n, c in self.comps.items()),
        )
        if validate:
            _validate_once(self, source.algebra)

    @property
    def field(self) -> PrimeField:
        return self.source.field

    def comp(self, n: int) -> np.ndarray:
        if n in self.comps:
            return self.comps[n]
        return _zeros(self.source.term(n).dim, self.target.term(n).dim)

    def is_zero(self) -> bool:
        return not self.comps

    def validate(self):
        fld = self.field
        rng = range(min(self.source.lo, self.target.lo) - 1, max(self.source.hi, self.target.hi) + 1)
        for n in rng:
            if n not in self.comps and n + 1 not in self.comps:
                continue  # both sides are products with zero matrices
            lhs = fld.matmul(self.comp(n), self.target.diff(n))
            rhs = fld.matmul(self.source.diff(n), self.comp(n + 1))
            if not np.array_equal(lhs, rhs):
                raise ValueError(f"chain map does not commute with d at degree {n}")

    def __repr__(self):
        return f"<chain map {self.source.name} -> {self.target.name}>"


# ----------------------------------------------------------------------
# basic constructions
# ----------------------------------------------------------------------


def zero_complex(a: Algebra) -> ProjectiveComplex:
    return ProjectiveComplex(a, {}, {}, name="0")


def stalk_complex(m: RightModule, degree: int = 0, name: str = "") -> BoundedComplex:
    return BoundedComplex(
        m.algebra, {degree: m}, {}, name=name or f"{m.name}[{-degree}]" if degree else (name or m.name)
    )


def shift(x: BoundedComplex, k: int) -> BoundedComplex:
    if x.is_zero():
        return x
    sign = 1 if k % 2 == 0 else -1
    terms = {n - k: x.term(n) for n in x.degrees()}
    diffs = {n - k: (sign * x.diff(n)) % x.field.p for n in range(x.lo, x.hi)}
    return BoundedComplex(x.algebra, terms, diffs, name=f"{x.name}[{k}]")


def identity_map(x: BoundedComplex) -> ChainMap:
    return ChainMap(x, x, {n: x.field.identity(x.term(n).dim) for n in x.degrees()})


def zero_map(x: BoundedComplex, y: BoundedComplex) -> ChainMap:
    return ChainMap(x, y, {})


def compose_maps(f: ChainMap, g: ChainMap) -> ChainMap:
    """First f, then g (matrix product order)."""
    if not _same_content(f.target, g.source):
        raise ValueError("compose_maps: middle complexes differ")
    comps = {n: f.field.matmul(f.comps[n], g.comps[n]) for n in f.comps.keys() & g.comps.keys()}
    return ChainMap(f.source, g.target, comps)


def cone(f: ChainMap, name: str = "") -> BoundedComplex:
    """cone(f)^n = X^{n+1} (+) Y^n with d(x, y) = (-x d_X, x f + y d_Y)."""
    x, y = f.source, f.target
    fld = f.field
    a = x.algebra
    if a is not y.algebra:
        raise ValueError("cone: complexes over different algebras")
    if x.is_zero() and y.is_zero():
        return zero_complex(a)
    lo = min(x.lo - 1, y.lo)
    hi = max(x.hi - 1, y.hi)
    terms: dict[int, RightModule] = {}
    for n in range(lo, hi + 1):
        xs, ys = x.term(n + 1), y.term(n)
        terms[n] = direct_sum([xs, ys])[0] if (xs.dim or ys.dim) else zero_module(a)
    diffs = {}
    for n in range(lo, hi):
        sdim = terms[n].dim
        tdim = terms[n + 1].dim
        d = fld.zeros(sdim, tdim)
        x1, x2 = x.term(n + 1).dim, x.term(n + 2).dim
        d[:x1, :x2] = fld.neg(x.diff(n + 1))
        d[:x1, x2:] = f.comp(n + 1)
        d[x1:, x2:] = y.diff(n)
        diffs[n] = d
    return BoundedComplex(a, terms, diffs, name=name or f"cone({x.name}->{y.name})")


def homology_dims(x: BoundedComplex) -> dict[int, int]:
    """Nonzero homology dimensions per degree, computed once per content
    of ``x`` (``Algebra._homology``); the caller gets its own copy."""
    dims = {n: x.term(n).dim for n in x.degrees()}
    return dict(x.algebra._homology.value(x.key, _homology, x.field, dims, x.diff))


def _homology(fld: PrimeField, dims: dict[int, int], diff) -> dict[int, int]:
    """Nonzero ``dims[n] - rank d^n - rank d^{n-1}``, over consecutive
    degrees ``dims`` (the terms outside them are zero).  Only the
    differentials between two nonzero terms are asked for, each once: a
    map into or out of a zero term has rank 0."""
    ranks = {n: fld.rank(diff(n)) for n, dim in dims.items() if dim and dims.get(n + 1)}
    out = {}
    for n, dim in dims.items():
        h = dim - ranks.get(n, 0) - ranks.get(n - 1, 0)
        if h:
            out[n] = h
    return out


# ----------------------------------------------------------------------
# minimal complexes of projectives
# ----------------------------------------------------------------------


def _top_columns(a: Algebra, vertices: tuple[int, ...]) -> np.ndarray:
    """``(dim, s)``: column j reads the e_v-coefficient of summand j = e_v A
    off a vector of the sum, from the idempotent coordinate of its A-rows."""
    module, offsets, _ = projective_sum(a, vertices)
    out = np.zeros((module.dim, len(vertices)), dtype=np.int64)
    for j, (v, off) in enumerate(zip(vertices, offsets)):
        rows = projective_module(a, v)[1]
        out[off:off + len(rows), j] = rows[:, a.idempotent_indices[v]]
    return out


def _owners(a: Algebra, vertices: tuple[int, ...]) -> np.ndarray:
    """The summand of each coordinate of the sum of projectives."""
    module, offsets, _ = projective_sum(a, vertices)
    return np.repeat(np.arange(len(offsets)), np.diff([*offsets, module.dim]))


def _minimize(p: ProjectiveComplex) -> tuple[ProjectiveComplex, ChainMap, ChainMap]:
    """``(p_min, iota, proj)``: a minimal complex homotopy equivalent to
    the complex of projectives ``p``.

    The degrees are swept from low to high.  In degree n the top matrix
    of d^n has entry (i, j) the e_v-coefficient of the image of
    generator i in summand j; it is zero unless both are e_v A.  One row
    and one column rank profile of it pick summands S of p^n and S' of
    p^{n+1} whose block T of d^n is invertible, and the Gaussian
    elimination lemma cancels them.  With d^n = [[T, b], [c, e]] from
    S + K to S' + K', the new differential is e - c T^-1 b, d^{n-1} and
    d^{n+1} are restricted to K and K', ``iota`` is k |-> (-k c T^-1, k)
    and ``proj`` is (s', k') |-> k' - s' T^-1 b, and both are inclusions
    and projections elsewhere.  So ``proj`` after ``iota`` is the
    identity and ``iota`` after ``proj`` is homotopic to it.  The top
    matrix of e - c T^-1 b is zero, and restriction keeps a zero top
    matrix zero, so every top matrix of ``p_min`` is zero.  A complex
    with one nonzero degree is returned as it is.
    """
    a, fld = p.algebra, p.field
    diffs = {n: p.diff(n) for n in range(p.lo, p.hi)}
    kept: dict[int, np.ndarray] = {}    # summands of p^n kept, where some went
    coords: dict[int, np.ndarray] = {}  # their coordinates in p^n
    inc: dict[int, np.ndarray] = {}     # iota^n: kept -> p^n, where changed
    prj: dict[int, np.ndarray] = {}     # proj^n: p^n -> kept, where changed
    for n in range(p.lo, p.hi):
        d = diffs[n]
        if not d.any():
            continue
        src, tgt = p.vertices[n], p.vertices[n + 1]
        src_kept = kept.get(n, np.arange(len(src)))
        src_coords = coords.get(n, np.arange(p.term(n).dim))
        gens = projective_sum(a, src)[2][np.ix_(src_kept, src_coords)]
        top = fld.matmul(fld.matmul(gens, d), _top_columns(a, tgt))
        if not top.any():
            continue
        rows = fld.row_rank_profile(top)
        cols = fld.row_rank_profile(top[rows].T)
        gone = np.isin(_owners(a, src)[src_coords], src_kept[rows])
        s, k = np.flatnonzero(gone), np.flatnonzero(~gone)
        gone = np.isin(_owners(a, tgt), cols)
        s1, k1 = np.flatnonzero(gone), np.flatnonzero(~gone)
        t_inv = fld.inv(d[np.ix_(s, s1)])
        ct = fld.matmul(d[np.ix_(k, s1)], t_inv)
        tb = fld.matmul(t_inv, d[np.ix_(s, k1)])
        diffs[n] = fld.sub(d[np.ix_(k, k1)], fld.matmul(ct, d[np.ix_(s, k1)]))
        if n - 1 in diffs:
            diffs[n - 1] = diffs[n - 1][:, k]
        if n + 1 in diffs:
            diffs[n + 1] = diffs[n + 1][k1]
        iota = inc.get(n, fld.identity(d.shape[0]))
        inc[n] = fld.sub(iota[k], fld.matmul(ct, iota[s]))
        prj[n] = prj.get(n, fld.identity(d.shape[0]))[:, k]
        inc[n + 1] = fld.identity(d.shape[1])[k1]
        prj[n + 1] = fld.identity(d.shape[1])[:, k1]
        prj[n + 1][s1] = fld.neg(tb)
        kept[n], coords[n] = np.delete(src_kept, rows), src_coords[k]
        kept[n + 1], coords[n + 1] = np.delete(np.arange(len(tgt)), cols), k1
    ident = {n: fld.identity(p.term(n).dim) for n in p.degrees() if n not in coords}
    if not coords:
        same = ChainMap(p, p, ident, validate=False)
        return p, same, same
    # the kept coordinates are whole summand blocks, in order, so each
    # kept part of a term is the sum of its kept summands
    vertices = {**p.vertices, **{n: tuple(p.vertices[n][j] for j in kept[n]) for n in coords}}
    p_min = ProjectiveComplex(a, vertices, diffs, name=p.name)
    iota = ChainMap(p_min, p, {**ident, **inc}, validate=False)
    proj = ChainMap(p, p_min, {**ident, **prj}, validate=False)
    return p_min, iota, proj


# ----------------------------------------------------------------------
# resolution by projective covers
# ----------------------------------------------------------------------

# degrees below x.lo that _resolve builds before it gives up
RESOLUTION_CAP = 24


def _resolve(x: BoundedComplex) -> tuple[ProjectiveComplex, dict[int, np.ndarray]]:
    """``(p, q)``: a complex p of projectives, and the components
    ``q[n]: p^n -> x^n`` of a quasi-isomorphism onto x.

    Built from ``x.hi`` down.  In degree n,
    K^n = {(v, u) in x^n + p^{n+1} : v d_x = u q^{n+1}, u d_p = 0}
    is the left kernel of [[d_x^n, 0], [-q^{n+1}, d_p^{n+1}]], a
    submodule of x^n + p^{n+1}.  p^n is its projective cover, and q^n and
    d_p^n are the two blocks of the cover followed by the inclusion.  So
    every cycle (u, v) of cone(q) is the boundary of a lift of (-v, u),
    and the cone is acyclic.  Below ``x.lo``, where x^n = 0 and the rows
    of K^{n+1} are independent, K^n is the kernel of the last cover,
    which the cover carries.  The loop stops where that is zero, and
    raises :class:`ResolutionExceedsCapError` past ``RESOLUTION_CAP``
    degrees.  On a stalk complex it builds exactly the terms and maps of
    the syzygy resolution by covers, the test oracle
    ``tests/oracles.py::resolution_data``.
    """
    a, fld = x.algebra, x.field
    vertices: dict[int, tuple[int, ...]] = {}
    diffs: dict[int, np.ndarray] = {}
    q: dict[int, np.ndarray] = {}
    up, q_up, d_up = zero_module(a), fld.zeros(0, 0), fld.zeros(0, 0)  # degree n + 1
    n = x.hi
    while True:
        m = x.term(n)
        if n >= x.lo:
            zero = fld.zeros(m.dim, d_up.shape[1])
            rows = fld.left_kernel_basis(np.block([[x.diff(n), zero], [fld.neg(q_up), d_up]]))
        elif cov.kernel.shape[0] == 0:
            break
        elif n < x.lo - RESOLUTION_CAP:
            raise ResolutionExceedsCapError(f"resolution of {x.name} exceeds cap {RESOLUTION_CAP}")
        else:
            rows = cov.kernel
        size = m.dim + up.dim
        action = np.zeros((a.dim, size, size), dtype=np.int64)
        action[:, :m.dim, :m.dim], action[:, m.dim:, m.dim:] = m.action, up.action
        if len(rows) < size:  # else K^n is everything and the rows are the identity
            action = _restricted_action(a, rows, action)
        # proved: x^n + p^{n+1} is a direct sum, and K^n a stable span of it
        cov = projective_cover(RightModule(a, action, name=f"K{n}({x.name})", validate=False))
        image = fld.matmul(cov.surjection, rows)
        vertices[n] = cov.summands
        q[n], diffs[n] = image[:, :m.dim], image[:, m.dim:]
        up, q_up, d_up = cov.module, q[n], diffs[n]
        n -= 1
    return ProjectiveComplex(a, vertices, diffs, name=f"P({x.name})"), q


# ----------------------------------------------------------------------
# duality
# ----------------------------------------------------------------------


def dual_complex(x: BoundedComplex, name: str = "") -> BoundedComplex:
    """k-dual over the opposite algebra; (DX)^n = D(X^{-n})."""
    aop = opposite(x.algebra)
    if x.is_zero():
        return BoundedComplex(aop, {}, {}, name=name or f"D({x.name})")
    terms = {-n: k_dual(x.term(n)) for n in x.degrees()}
    diffs = {}
    for n in range(-x.hi, -x.lo):
        diffs[n] = x.diff(-n - 1).T.copy()
    return BoundedComplex(aop, terms, diffs, name=name or f"D({x.name})")


def dual_chain_map(
    f: ChainMap,
    dual_source: BoundedComplex | None = None,
    dual_target: BoundedComplex | None = None,
) -> ChainMap:
    """D(f): D(target) -> D(source), componentwise transpose."""
    dsrc = dual_target if dual_target is not None else dual_complex(f.target)
    dtgt = dual_source if dual_source is not None else dual_complex(f.source)
    comps = {-n: f.comp(n).T.copy() for n in f.comps}
    return ChainMap(dsrc, dtgt, comps)


# ----------------------------------------------------------------------
# derived context: replacements, lifts, hom spaces
# ----------------------------------------------------------------------


@dataclass
class Replacement:
    """A minimal :class:`ProjectiveComplex` ``p`` with a qis onto x.

    Minimal: no summand e_v A of a term of ``p`` is carried by the
    differential onto a summand e_v A of the next term, so every top
    block is zero.  ``inverse`` is a homotopy inverse of ``qis``,
    present when x has projective terms; ``qis`` followed by
    ``inverse`` is then the identity of ``p``.  Any other x is resolved
    by covers (:func:`_resolve`), and ``inverse`` is None; on a stalk
    complex ``p`` and ``qis`` are then the terms, differentials and
    augmentation of the syzygy resolution by covers (the test oracle
    ``tests/oracles.py::resolution_data``).
    """

    p: ProjectiveComplex
    qis: ChainMap                      # p -> x
    inverse: ChainMap | None           # x -> p


@dataclass
class DerivedIsoCertificate:
    status: str                        # "certified" | "not-certified" | "not-isomorphic"
    map: ChainMap | None
    cone_homology: dict[int, int] | None
    attempts_used: int

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    @property
    def verdict(self) -> str:
        """Cell verdict: "pass" when certified, "fail" when the homology
        already rules an isomorphism out, "not-certified" otherwise."""
        if self.certified:
            return "pass"
        return "fail" if self.status == "not-isomorphic" else "not-certified"


def _same_content(a, b) -> bool:
    """Whether two complexes are equal: a memoised value sits on the
    first complexes of its content, which need not be the caller's.
    Equal complexes share one key object (``_validate_once``), so the
    comparison is cheap.  A plain complex may equal a
    :class:`ProjectiveComplex`, which alone has vertex tuples."""
    return a is b or a.key == b.key


class DerivedContext:
    """Duals, replacements, hom complexes, hom spaces and lifts, built
    once per content.

    Replacements are minimal :class:`ProjectiveComplex` es, whose vertex
    tuples (the e_v A summands of each term, in order) hom complexes,
    lifts and :func:`_minimize` read.  A complex with
    projective terms is moved onto its covers, and any other complex is
    resolved by covers from its top degree down (:func:`_resolve`); both
    routes then cancel, by :func:`_minimize`, every pair of summands
    e_v A on which the differential is an isomorphism.  So the hom
    complexes, lifts, certificates and tensors built on them are as
    small as the objects allow.  ``Replacement.inverse``, a homotopy
    inverse of the qis, is present when x has projective terms.  Neither
    route builds a hom complex, a lift or a cone, so replacements sit
    below the rest of the derived layer.

    The cache rule: every derived construction is keyed by the content
    of its inputs, as module constructions are, in a
    :class:`~gluecat.algebra._Memo`.

    - ``dual``, ``replacement``, ``hom_space``, ``derived_hom_dims``,
      ``hom_complex`` and ``lift_many_through_qis`` keep a memo keyed by
      the exact ``key`` of their input complexes and chain maps; so do
      the functor outputs (:class:`~gluecat.recollement.Functor`), the
      adjunction matrices and the primitive adjunction images of classes
      (:class:`~gluecat.recollement.PrimitiveAdjunction`).  A complex key
      holds its algebra, so no
      entry keeps its input objects.  An input equal to an earlier one
      gets the identical value, built on the earlier objects and named
      after them: the replacement's ``qis`` targets the first ``x`` of
      its content, a hom space sits on the first ``x`` and ``y``, and a
      lift on the first ``p`` and ``y``.  So the guards that match
      complexes (:func:`compose_maps`, :meth:`lift_many_through_qis`,
      :func:`present_class`, which :meth:`HomSpace.normalize` calls)
      compare content, not identity, and ``replacement(x).p`` is one
      complex per content of ``x``; :func:`present_class` returns a map
      out of the replacement itself, so every lift and hom complex
      starts from a :class:`ProjectiveComplex`.  It reads only
      ``replacement(x)``, so presenting a class builds no hom space, and
      a carrier already on a complex equal to the replacement is re-based
      with its components and key shared.  A hom space builds its basis
      chain maps once.  One :class:`HomComplex` per content of
      ``(p, y)``, in Yoneda coordinates, serves hom spaces,
      certificates and lifts; derived Hom dimensions, keyed by the
      content of ``(replacement(x).p, y)``, rank the differentials of
      one built outside the memo, so none is kept for them, and only
      those between two nonzero terms (:func:`_homology`): a
      differential with a zero side is the shared zero, and builds no
      block.  Nothing mutates a memoised value.
    - Module hom bases (for the menus only), weight bases, projective
      covers, tensor products and the zero module are memoised by
      content in :mod:`gluecat.modules`, on the object that owns the
      data (the algebra, or the bimodule for tensors);
      :func:`homology_dims` is memoised on the algebra too.
    - Complexes and chain maps validate once per content per algebra
      (``Algebra._valid``), as modules do.

    Every memoised value is shared, so its arrays are read-only.  A lift
    is the chain map alone, and lifts that share a source and a qis are
    solved together by :meth:`lift_many_through_qis`, one elimination
    for all of them; the Serre Gram matrices in :mod:`gluecat.serre`
    lift a whole basis that way.
    """

    def __init__(self):
        self._duals, self._replacements, self._hom_complexes = _Memo(), _Memo(), _Memo()
        self._hom_spaces, self._hom_dims, self._lifts = _Memo(), _Memo(), _Memo()

    def memo_counts(self) -> dict[str, tuple[int, int]]:
        """``(builds, requests)`` of each content memo."""
        memos = {
            "dual": self._duals,
            "replacement": self._replacements,
            "hom_complex": self._hom_complexes,
            "hom_space": self._hom_spaces,
            "derived_hom_dims": self._hom_dims,
            "lift": self._lifts,
        }
        return {name: (len(m), m.requests) for name, m in memos.items()}

    def built_replacements(self) -> list[Replacement]:
        """The replacement built for each content, in build order."""
        return list(self._replacements.values())

    # -- duality ---------------------------------------------------------

    def dual(self, x: BoundedComplex) -> BoundedComplex:
        return self._duals.value(x.key, dual_complex, x)

    # -- replacement ------------------------------------------------------

    def replacement(self, x: BoundedComplex) -> Replacement:
        return self._replacements.value(x.key, self._build_replacement, x)

    def _build_replacement(self, x: BoundedComplex) -> Replacement:
        a = x.algebra
        fld = x.field
        if x.is_zero():
            p = zero_complex(a)
            return Replacement(p, ChainMap(p, x, {}), ChainMap(x, p, {}))

        # fast path: every term already projective.  The terms are probed
        # from the top, whose cover _resolve reuses when the probe fails.
        covers: dict[int, Cover] = {}
        for n in reversed(x.degrees()):
            covers[n] = projective_cover(x.term(n))
            if covers[n].module.dim != x.term(n).dim:
                break
        else:
            sigma = {n: cov.surjection for n, cov in covers.items()}
            sigma_inv = {n: fld.inv(s) if s.size else s for n, s in sigma.items()}
            vertices = {n: cov.summands for n, cov in covers.items()}
            diffs = {
                n: fld.mul_chain(sigma[n], x.diff(n), sigma_inv[n + 1])
                for n in range(x.lo, x.hi)
            }
            p, iota, proj = _minimize(ProjectiveComplex(a, vertices, diffs, name=f"P({x.name})"))
            qis = {n: fld.matmul(c, sigma[n]) for n, c in iota.comps.items()}
            inverse = {n: fld.matmul(sigma_inv[n], c) for n, c in proj.comps.items()}
            return Replacement(p, ChainMap(p, x, qis), ChainMap(x, p, inverse))

        p, q = _resolve(x)
        p, iota, _ = _minimize(p)
        qis = ChainMap(p, x, {n: fld.matmul(c, q[n]) for n, c in iota.comps.items()})
        if homology_dims(p) != homology_dims(x):
            raise RuntimeError("replacement lost homology — convention bug")
        return Replacement(p, qis, None)

    # -- lifting ------------------------------------------------------

    def lift_through_qis(self, p: ProjectiveComplex, f: ChainMap, s: ChainMap) -> ChainMap:
        """A chain map g: p -> y with g*s homotopic to f.

        ``f`` runs p -> x and ``s`` is a quasi-isomorphism y -> x.  Solved
        as one linear system in the coordinates of the hom complexes
        Hom(p, y) and Hom(p, x), whose unknowns are g and a homotopy h
        with f - g*s = dh + hd.  Only g is built: no caller reads h.
        """
        return self.lift_many_through_qis(p, [f], s)[0]

    def lift_many_through_qis(
        self, p: ProjectiveComplex, fs: list[ChainMap], s: ChainMap
    ) -> list[ChainMap]:
        """:meth:`lift_through_qis` for every map in ``fs``, in one solve.

        The system depends only on p and s, so it is assembled once and
        eliminated once with one right-hand side per map.  Pivots are
        chosen among the coefficient columns only, so each solution
        column is exactly the single-map solution.  The lifts are solved
        once per content of ``(p, s, fs)``.
        """
        for f in fs:
            if not (_same_content(f.source, p) and _same_content(f.target, s.target)):
                raise ValueError("lift_through_qis: mismatched complexes")
        key = (p.key, s.key, *[f.key for f in fs])
        return self._lifts.value(key, self._solve_lifts, p, s, *fs)

    def _solve_lifts(self, p: ProjectiveComplex, s: ChainMap, *fs: ChainMap) -> list[ChainMap]:
        if not fs:
            return []
        y, x = s.source, s.target
        fld = p.field
        hy, hx = self.hom_complex(p, y), self.hom_complex(p, x)
        # unknowns (g, h) in Hom^0(p, y) + Hom^-1(p, x) with d g = 0 and
        # s_* g + d h = f: (g, h) @ [[d^0, s_*], [0, d^-1]] == (0, f)
        # s_* in the weight bases: W(y^j) s^j Q^-1(x^j), one product per degree
        s_star = {
            j: fld.mul_chain(hy._weights[j].basis, s.comp(j), hx._weights[j].inverse)
            for j in p.degrees() if j in hy._weights and j in hx._weights
        }
        n0, n1 = hy.dim(0), hy.dim(1)
        system = fld.zeros(n0 + hx.dim(-1), n1 + hx.dim(0))
        system[:n0, :n1], system[n0:, n1:] = hy.diff(0), hx.diff(-1)
        system[:n0, n1:] = hy._diagonal(0, hx, 0, s_star)
        rhs = fld.zeros(len(fs), system.shape[1])
        stacks = {n: np.stack([f.comp(n) for f in fs]) for n in p.degrees()}
        rhs[:, n1:] = hx._coords(0, len(fs), stacks)
        sol = fld.solve_matrix(system.T, rhs.T)
        if sol is None:
            raise LiftSystemInconsistentError(
                "no lift exists: source not K-projective or map not a qis"
            )
        gs = hy._expand(0, sol[:n0].T)   # the h part, sol[n0:], is not read
        return [ChainMap(p, y, {n: g[t] for n, g in gs.items()}) for t in range(len(fs))]

    # -- hom complexes and spaces --------------------------------------

    def hom_complex(self, p: ProjectiveComplex, y: BoundedComplex) -> "HomComplex":
        return self._hom_complexes.value((p.key, y.key), HomComplex, p, y)

    def hom_space(self, x: BoundedComplex, y: BoundedComplex) -> "HomSpace":
        return self._hom_spaces.value((x.key, y.key), HomSpace, self, x, y)

    def derived_hom_dims(self, x: BoundedComplex, y: BoundedComplex) -> dict[int, int]:
        """Nonzero dim Hom_D(x, y[n]) per degree n.

        They depend on x only through its replacement p, so they are
        computed once per content of ``(p, y)``.
        """
        p = self.replacement(x).p
        return dict(self._hom_dims.value((p.key, y.key), self._build_hom_dims, p, y))

    @staticmethod
    def _build_hom_dims(p: ProjectiveComplex, y: BoundedComplex) -> dict[int, int]:
        # a hom complex of its own, outside the memo, so none is kept
        hc = HomComplex(p, y)
        return _homology(hc.fld, {n: hc.dim(n) for n in range(hc.lo, hc.hi + 1)}, hc.diff)

    # -- tensors --------------------------------------------------------

    def derived_tensor(self, x: BoundedComplex, w: Bimodule, name: str = "") -> tuple[BoundedComplex, dict[int, TensorResult]]:
        """Projective replacement followed by termwise tensor."""
        rep = self.replacement(x)
        return self.termwise_tensor(rep.p, w, name=name)

    def termwise_tensor(self, p: BoundedComplex, w: Bimodule, name: str = "") -> tuple[BoundedComplex, dict[int, TensorResult]]:
        tensors = {n: tensor_over(p.term(n), w) for n in p.degrees()}
        terms = {n: t.module for n, t in tensors.items()}
        diffs = {
            n: tensor_hom(p.diff(n), tensors[n], tensors[n + 1])
            for n in range(p.lo, p.hi)
        }
        out = BoundedComplex(
            w.right_algebra, terms, diffs, name=name or f"{p.name}⊗{w.name}"
        )
        return out, tensors

    def tensor_map(
        self,
        f: ChainMap,
        src_tensors: dict[int, TensorResult],
        dst_tensors: dict[int, TensorResult],
        src_complex: BoundedComplex,
        dst_complex: BoundedComplex,
    ) -> ChainMap:
        comps = {}
        for n in src_complex.degrees():
            if n in dst_tensors and n in src_tensors:
                comps[n] = tensor_hom(f.comp(n), src_tensors[n], dst_tensors[n])
        return ChainMap(src_complex, dst_complex, comps)

    # -- certificates ----------------------------------------------------

    def certificate_for_map(self, m: ChainMap) -> DerivedIsoCertificate:
        ch = homology_dims(cone(m))
        if ch == {}:
            return DerivedIsoCertificate("certified", m, ch, 0)
        return DerivedIsoCertificate("not-certified", None, ch, 0)

    def derived_iso_certificate(
        self, x: BoundedComplex, y: BoundedComplex, seed: int, attempts: int = 64
    ) -> DerivedIsoCertificate:
        hx = homology_dims(x)
        if hx != homology_dims(y):
            return DerivedIsoCertificate("not-isomorphic", None, None, 0)
        px = self.replacement(x).p
        py = self.replacement(y).p
        if not hx:
            # both acyclic: the zero map is an isomorphism in the derived category
            return self.certificate_for_map(zero_map(px, py))
        hc = self.hom_complex(px, py)
        cycles = hc.cycle_space(0)
        fld = px.field
        rng = random.Random(seed)
        used = 0
        for k in range(attempts):
            used = k + 1
            if cycles.shape[0] == 0:
                break
            coeffs = np.array(
                [rng.randrange(fld.p) for _ in range(cycles.shape[0])], dtype=np.int64
            )
            if not np.any(coeffs):
                coeffs[0] = 1
            vec = fld.matmul(coeffs.reshape(1, -1), cycles)[0]
            cand = hc.vector_to_chain_map(vec)
            ch = homology_dims(cone(cand))
            if ch == {}:
                return DerivedIsoCertificate("certified", cand, ch, used)
        return DerivedIsoCertificate("not-certified", None, None, used)


class HomComplex:
    """Total Hom complex Hom(p, y) out of a :class:`ProjectiveComplex` p,
    in Yoneda coordinates: no module-hom basis.  Any other p raises
    ``TypeError``.

    Hom_A(e_v A, N) = N e_v, so term n is the sum over the summands s of
    each p^i of y^{i+n} e_{v_s}: s is at the vertex v_s of the vertex
    tuple of p^i, with the offset and the generator g_s that
    :func:`~gluecat.modules.projective_sum` gives it.  A map f
    has the coordinates of its generator images g_s f^i in the weight
    basis Q of y^{i+n} (:func:`~gluecat.modules._weights`), summand by
    summand (:meth:`_coords`); an image u extends to the summand through
    the basis rows b of :func:`~gluecat.modules.projective_module`, as
    u b (:meth:`_expand`).  A map is a hom exactly when it is the
    extension of its generator images.  With j = i + n, the differential
    f |-> f d_y - (-1)^n d_p f has a block (i, s) -> (i, s),
    W_{v_s}(y^j) d_y^j Q^-1(y^{j+1})[:, v_s], and a block (i, s) -> (i-1, t),
    -(-1)^n W_{v_s}(y^j) a_st Q^-1(y^j)[:, v_t], where W_v are the rows of
    Q at v and a_st in e_{v_s} A e_{v_t} is the s-block of g_t d_p^{i-1}:
    its coordinates in the basis rows b of P_{v_s} combine the
    extensions W_{v_s}(y^j) b of :meth:`_extension`.  Its homology is
    derived Hom degreewise.  A chain map s: y -> x sends Hom^n(p, y) to
    Hom^n(p, x) summand by summand, by the block
    W_{v_s}(y^j) s^j Q^-1(x^j)[:, v_s]; both this block and the d_y
    block are placed by :meth:`_diagonal`.

    Differentials, extensions and the blocks they read are built on
    first use (a hom space needs d^-1 and d^0, a lift d^0): the d_y
    blocks of a degree of y and the a_st of a degree of p, by the first
    differential between two nonzero terms that reads them.  A
    differential with a zero side is the shared zero of its shape, and
    builds nothing.
    """

    def __init__(self, p: ProjectiveComplex, y: BoundedComplex):
        if not isinstance(p, ProjectiveComplex):
            raise TypeError(f"hom complex out of {p.name}, which is not a ProjectiveComplex")
        self.p = p
        self.y = y
        self.fld = p.field
        if p.is_zero() or y.is_zero():
            self.lo, self.hi = 0, -1
        else:
            self.lo, self.hi = y.lo - p.hi, y.hi - p.lo
        # (degree, vertex, offset, generator) of each summand of p, and the
        # indices of the summands of each degree
        self._summands = [
            (i, v, off, gen)
            for i, vs in p.vertices.items()
            for v, off, gen in zip(vs, *projective_sum(p.algebra, vs)[1:])
        ]
        self._of_degree = {i: [k for k, s in enumerate(self._summands) if s[0] == i] for i in p.degrees()}
        self._weights = {j: _weights(y.term(j)) for j in y.degrees()}
        self._layouts, self._extensions, self.diffs = _Memo(), _Memo(), _Memo()
        self._dy, self._a_st = _Memo(), _Memo()

    def _layout(self, n: int) -> tuple[list[slice], list[slice], int]:
        """``(slices, blocks, dim)`` of Hom^n: the coordinates of each
        summand, their block in the weight basis of its y^{i+n}, and
        dim Hom^n."""
        return self._layouts.value(n, self._build_layout, n)

    def _build_layout(self, n: int) -> tuple[list[slice], list[slice], int]:
        slices, blocks, off = [], [], 0
        for i, v, _, _ in self._summands:
            w = self._weights.get(i + n)
            start, size = (int(w.offsets[v]), int(w.sizes[v])) if w is not None else (0, 0)
            slices.append(slice(off, off + size))
            blocks.append(slice(start, start + size))
            off += size
        return slices, blocks, off

    def dim(self, n: int) -> int:
        return self._layout(n)[2]

    def _extension(self, j: int, v: int, block: slice) -> np.ndarray:
        """``(r, dim y^j e_v, dim y^j)``: W b for the rows W of the
        ``block`` of the weight basis of y^j, a basis of y^j e_v, and each
        of the r basis rows b of e_v A, acting on y^j."""
        return self._extensions.value((j, v), self._build_extension, j, v, block)

    def _build_extension(self, j: int, v: int, block: slice) -> np.ndarray:
        images = self.fld.matmul(self._weights[j].basis[block], self.y.term(j).action)
        out = _operators(projective_module(self.p.algebra, v)[1], images, self.fld.p)
        out.setflags(write=False)
        return out

    def _expand(self, n: int, coeffs: np.ndarray) -> dict[int, np.ndarray]:
        """The components p^i -> y^{i+n} of the elements with degree-n
        coordinates ``coeffs`` (one row each), for every degree i of p
        where some coordinate is nonzero; the others are zero."""
        slices, blocks, _ = self._layout(n)
        owner = np.repeat(np.arange(len(slices)), [s.stop - s.start for s in slices])
        out = {}
        for k in sorted(set(owner[coeffs.any(axis=0)].tolist())):
            i, v, off, _ = self._summands[k]
            if i not in out:
                out[i] = np.zeros((len(coeffs), self.p.term(i).dim, self.y.term(i + n).dim), dtype=np.int64)
            ext = self._extension(i + n, v, blocks[k])
            out[i][:, off:off + len(ext)] = self.fld.matmul(coeffs[:, slices[k]], ext).transpose(1, 0, 2)
        return out

    def _coords(self, n: int, count: int, stacks: dict[int, np.ndarray]) -> np.ndarray:
        """Degree-n coordinates of ``count`` elements given by blocks:
        ``stacks[i]`` holds their components p^i -> y^{i+n}.  Each block
        must be the extension of its generator images, which is the case
        exactly when it is a module hom."""
        fld = self.fld
        slices, blocks, dim = self._layout(n)
        out = fld.zeros(count, dim)
        stacks = {i: stack % fld.p for i, stack in stacks.items()}
        for i, stack in stacks.items():
            ks = [k for k in self._of_degree.get(i, []) if slices[k].stop > slices[k].start]
            if not ks:
                if stack.any():
                    raise ValueError("hom_coords: nonzero map in zero hom space")
                continue
            images = fld.matmul(np.stack([self._summands[k][3] for k in ks]), stack)
            inverse = self._weights[i + n].inverse
            for r, k in enumerate(ks):
                out[:, slices[k]] = fld.matmul(images[:, r], inverse[:, blocks[k]])
        expanded = self._expand(n, out)
        for i, stack in stacks.items():
            if not np.array_equal(expanded.get(i, np.zeros_like(stack)), stack):
                raise ValueError("hom_coords: matrix is not a module hom")
        return out

    def _diagonal(self, n: int, target: "HomComplex", m: int, mats: dict) -> np.ndarray:
        """Matrix from degree n here to degree m of ``target`` (out of the
        same p) that sends each summand of each p^i to itself, by the
        block of ``mats[i + n]`` at its vertex: ``mats[j]`` is a matrix in
        the weight bases of y^j and of ``target.y^{i+m}``."""
        (rows, blocks, dim), (cols, blocks1, dim1) = self._layout(n), target._layout(m)
        out = self.fld.zeros(dim, dim1)
        for k, (i, _, _, _) in enumerate(self._summands):
            mat = mats.get(i + n)
            if mat is not None:
                out[rows[k], cols[k]] = mat[blocks[k], blocks1[k]]
        return out

    def _build_dy(self, j: int) -> np.ndarray:
        """W(y^j) d_y^j Q^-1(y^{j+1})."""
        w = self._weights
        return self.fld.mul_chain(w[j].basis, self.y.diff(j), w[j + 1].inverse)

    def _build_a_st(self, i: int) -> list[tuple[int, list[int], np.ndarray]]:
        """``(k, src, a_st)`` for each summand k of p^i: the summands t
        of p^{i-1}, and the a_st in the basis rows of P_{v_s}, one per t."""
        src = self._of_degree.get(i - 1)
        if not src:
            return []
        a = self.p.algebra
        images = self.fld.matmul(projective_sum(a, self.p.vertices[i - 1])[2], self.p.diff(i - 1))
        out = []
        for k in self._of_degree[i]:
            _, v, off, _ = self._summands[k]
            out.append((k, src, images[:, off:off + projective_module(a, v)[0].dim]))
        return out

    def diff(self, n: int) -> np.ndarray:
        rows, cols = self.dim(n), self.dim(n + 1)
        if not (rows and cols):
            return _zeros(rows, cols)
        return self.diffs.value(n, self._build_diff, n)

    def _build_diff(self, n: int) -> np.ndarray:
        fld = self.fld
        (rows, blocks, _), (cols, blocks1, _) = self._layout(n), self._layout(n + 1)
        js = [i + n for i in self._of_degree if self.y.lo <= i + n < self.y.hi]
        d = self._diagonal(n, self, n + 1, {j: self._dy.value(j, self._build_dy, j) for j in js})
        sign = 1 if n % 2 == 0 else -1
        for i in self._of_degree:
            for k, src, a_st in self._a_st.value(i, self._build_a_st, i):
                _, v, _, _ = self._summands[k]
                if rows[k].stop > rows[k].start:
                    ext = self._extension(i + n, v, blocks[k])
                    images = fld.matmul(_operators(a_st, ext, fld.p), self._weights[i + n].inverse)
                    for t, image in zip(src, images):
                        d[rows[k], cols[t]] = (-sign * image[:, blocks1[t]]) % fld.p
        d.setflags(write=False)
        return d

    def cycle_space(self, n: int) -> np.ndarray:
        if self.dim(n) == 0:
            return self.fld.zeros(0, 0)
        return self.fld.left_kernel_basis(self.diff(n))

    def boundary_space(self, n: int) -> np.ndarray:
        if self.dim(n) == 0:
            return self.fld.zeros(0, 0)
        if self.dim(n - 1) == 0:
            return self.fld.zeros(0, self.dim(n))
        return self.fld.image_basis(self.diff(n - 1))

    def vector_to_chain_map(self, vec: np.ndarray) -> ChainMap:
        """The chain map p -> y with degree-0 coordinates ``vec``."""
        comps = self._expand(0, vec.reshape(1, -1))
        return ChainMap(self.p, self.y, {i: c[0] for i, c in comps.items()})

    def chain_maps_to_vectors(self, maps: list[ChainMap]) -> np.ndarray:
        """Degree-0 coordinates of chain maps p -> y, one row each, read
        off their generator images degree by degree."""
        degrees = sorted(set().union(*(m.comps for m in maps)))
        return self._coords(0, len(maps), {i: np.stack([m.comp(i) for m in maps]) for i in degrees})


@dataclass
class Mor:
    """A derived-category morphism class x -> y, carried by a chain map
    whose source resolves x through ``src_qis`` (identity allowed)."""

    x: BoundedComplex
    y: BoundedComplex
    map: ChainMap
    src_qis: ChainMap


class HomSpace:
    """Derived Hom(x, y) with a chosen presentation and explicit basis.

    The basis chain maps are built once, on first use, and shared as a
    read-only tuple by :meth:`basis_maps` and :meth:`basis_mors`.
    """

    def __init__(self, ctx: DerivedContext, x: BoundedComplex, y: BoundedComplex):
        self.ctx = ctx
        self.x = x
        self.y = y
        # always present on the projective replacement: the hom complex
        # then computes derived Hom for any second argument
        rep = ctx.replacement(x)
        self.p = rep.p
        self.p_qis = rep.qis
        self.hc = ctx.hom_complex(self.p, y)
        fld = x.field
        self.fld = fld
        bnd = self.hc.boundary_space(0)
        cyc = self.hc.cycle_space(0)
        # the cycles independent of the boundaries and of the cycles
        # before them represent a basis of homology
        profile = fld.row_rank_profile(np.concatenate([bnd, cyc], axis=0))
        self.boundaries = bnd
        self.h_reps = cyc[[k - bnd.shape[0] for k in profile if k >= bnd.shape[0]]]
        self.dim = self.h_reps.shape[0]
        bnd.setflags(write=False)
        self.h_reps.setflags(write=False)

    @functools.cached_property
    def _basis(self) -> tuple[ChainMap, ...]:
        return tuple(self.hc.vector_to_chain_map(row) for row in self.h_reps)

    def basis_maps(self) -> tuple[ChainMap, ...]:
        return self._basis

    def basis_mors(self) -> list[Mor]:
        return [Mor(self.x, self.y, m, self.p_qis) for m in self.basis_maps()]

    def reduce_vectors(self, vecs: np.ndarray) -> np.ndarray:
        """Coordinates of each row of a stack of cycle vectors in the
        chosen homology basis: one cycle check and one solve."""
        fld = self.fld
        if self.dim == 0:
            return fld.zeros(vecs.shape[0], 0)
        if np.any(fld.matmul(vecs, self.hc.diff(0))):
            raise ValueError("reduce_vectors: not a cycle")
        stack = np.concatenate([self.boundaries, self.h_reps], axis=0)
        coords = fld.coords_in_rows(stack, vecs)
        if coords is None:
            raise ValueError("reduce_vectors: cycle outside computed space")
        return coords[:, self.boundaries.shape[0]:]

    def coords_of(self, mor: Mor) -> np.ndarray:
        """Homology coordinates of a morphism class."""
        return self.coords_of_all([mor])[0]

    def coords_of_all(self, mors: list[Mor]) -> np.ndarray:
        """Homology coordinates of morphism classes, one row each."""
        if not mors:
            return self.fld.zeros(0, self.dim)
        return self.reduce_vectors(self.hc.chain_maps_to_vectors([self.normalize(mor) for mor in mors]))

    def normalize(self, mor: Mor) -> ChainMap:
        """Re-present a class of this space as a chain map out of
        ``self.p`` itself: :func:`present_class` with this space's x and
        y, which are its guards."""
        return present_class(self.ctx, mor, self.x, self.y)


def _rebase(m: ChainMap, source: BoundedComplex) -> ChainMap:
    """``m`` as a map out of ``source``, a complex equal to its own.  The
    copy shares the read-only components and the key: its content is
    ``m``'s, checked (or proved) when ``m`` was built, so nothing is
    rebuilt or checked again."""
    if m.source is source:
        return m
    out = copy.copy(m)
    out.source = source
    return out


def present_class(
    ctx: DerivedContext,
    mor: Mor,
    x: BoundedComplex | None = None,
    y: BoundedComplex | None = None,
    via: ChainMap | None = None,
) -> ChainMap:
    """The class of ``mor`` as a chain map out of ``replacement(x).p``.

    ``x`` and ``y``, by default ``mor.x`` and ``mor.y``, are the objects
    of the hom space the class must lie in: a class between other
    contents raises ``ValueError``, and so does a ``src_qis`` that does
    not start at the carrier.  Only ``ctx.replacement(x)`` is read, so
    no hom space is built; :meth:`HomSpace.normalize` is this function.
    A carrier on a complex equal to the replacement is returned as a map
    out of the replacement itself, sharing its components and key.  A
    carrier on x is precomposed with the replacement's qis; any other
    carrier first lifts that qis through its ``src_qis``.  With ``via``,
    a map p' -> x, it is the class of ``via`` followed by ``mor``, as a
    chain map out of p', built the same way.
    """
    x = mor.x if x is None else x
    y = mor.y if y is None else y
    if not (_same_content(mor.x, x) and _same_content(mor.y, y)):
        raise ValueError("coords_of: morphism belongs to a different hom space")
    m = mor.map
    if via is None:
        rep = ctx.replacement(x)
        if _same_content(m.source, rep.p):
            return _rebase(m, rep.p)
        via = rep.qis
    if not _same_content(mor.src_qis.source, m.source):
        raise ValueError("Mor: src_qis does not match the carrier")
    if _same_content(m.source, x):
        return compose_maps(via, m)
    ell = ctx.lift_through_qis(via.source, via, mor.src_qis)
    return compose_maps(ell, m)
