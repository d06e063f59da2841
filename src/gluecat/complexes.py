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

import random
from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, opposite
from .field import PrimeField
from .modules import (
    Bimodule,
    Cover,
    RightModule,
    TensorResult,
    direct_sum,
    hom_basis_matrices,
    k_dual,
    projective_cover,
    resolution_data,
    tensor_hom,
    tensor_over,
    zero_module,
)

__all__ = [
    "BoundedComplex",
    "ChainMap",
    "Homotopy",
    "ProjSummands",
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
    "add_maps",
    "scale_map",
]


class LiftSystemInconsistentError(RuntimeError):
    """The lifting system had no solution: the map was not a qis or the
    source not projective.  Always a logic error upstream."""


@dataclass
class ProjSummands:
    """Decomposition of a projective term as an ordered sum of e_v A."""

    vertices: list[int]
    offsets: list[int]
    gens: list[np.ndarray]  # generator coordinates inside the term


class BoundedComplex:
    def __init__(
        self,
        algebra: Algebra,
        terms: dict[int, RightModule],
        diffs: dict[int, np.ndarray],
        summands: dict[int, ProjSummands] | None = None,
        injective_terms: bool = False,
        name: str = "",
        validate: bool = True,
    ):
        self.algebra = algebra
        live = sorted(n for n, m in terms.items() if m.dim > 0)
        if live:
            self.lo, self.hi = live[0], live[-1]
            self.terms = {
                n: terms.get(n, zero_module(algebra)) for n in range(self.lo, self.hi + 1)
            }
        else:
            self.lo, self.hi = 0, -1
            self.terms = {}
        self.diffs = {}
        for n in range(self.lo, self.hi):
            d = diffs.get(n)
            if d is None:
                d = algebra.field.zeros(self.term(n).dim, self.term(n + 1).dim)
            self.diffs[n] = np.asarray(d, dtype=np.int64) % algebra.field.p
        self.summands = None
        if summands is not None and live:
            self.summands = {n: summands[n] for n in range(self.lo, self.hi + 1) if n in summands}
        elif summands is not None:
            self.summands = {}
        self.injective_terms = injective_terms
        self.name = name or "complex"
        if validate:
            self.validate()

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
        return zero_module(self.algebra)

    def diff(self, n: int) -> np.ndarray:
        if self.lo <= n < self.hi:
            return self.diffs[n]
        return self.field.zeros(self.term(n).dim, self.term(n + 1).dim)

    def total_dim(self) -> int:
        return sum(t.dim for t in self.terms.values())

    def has_summand_data(self) -> bool:
        return self.summands is not None and all(n in self.summands for n in self.degrees())

    def summand(self, n: int) -> ProjSummands:
        if self.summands is not None and n in self.summands:
            return self.summands[n]
        if self.term(n).dim == 0:
            return ProjSummands([], [], [])
        raise ValueError(f"{self.name}: no summand data in degree {n}")

    def validate(self):
        fld = self.field
        for n in self.degrees():
            if self.term(n).algebra is not self.algebra:
                raise ValueError(f"{self.name}: term {n} over wrong algebra")
        for n in range(self.lo, self.hi):
            d = self.diff(n)
            if d.shape != (self.term(n).dim, self.term(n + 1).dim):
                raise ValueError(f"{self.name}: differential {n} has wrong shape")
            # module-hom property of d
            for i in range(self.algebra.dim):
                lhs = fld.matmul(self.term(n).action[i], d)
                rhs = fld.matmul(d, self.term(n + 1).action[i])
                if not np.array_equal(lhs, rhs):
                    raise ValueError(f"{self.name}: differential {n} not A-linear")
        for n in range(self.lo, self.hi - 1):
            dd = fld.matmul(self.diff(n), self.diff(n + 1))
            if np.any(dd):
                raise ValueError(f"{self.name}: d∘d != 0 at degree {n}")

    def __repr__(self):
        dims = {n: self.term(n).dim for n in self.degrees()}
        return f"<{self.name} over {self.algebra.name} dims={dims}>"


class ChainMap:
    def __init__(self, source: BoundedComplex, target: BoundedComplex, comps: dict[int, np.ndarray], validate: bool = True):
        self.source = source
        self.target = target
        self.comps = {}
        lo = min(source.lo, target.lo) if not (source.is_zero() and target.is_zero()) else 0
        hi = max(source.hi, target.hi) if not (source.is_zero() and target.is_zero()) else -1
        for n in range(lo, hi + 1):
            c = comps.get(n)
            sdim, tdim = source.term(n).dim, target.term(n).dim
            if c is None:
                c = source.field.zeros(sdim, tdim)
            c = np.asarray(c, dtype=np.int64) % source.field.p
            if c.shape != (sdim, tdim):
                raise ValueError(f"chain map component {n} has wrong shape")
            if sdim and tdim:
                self.comps[n] = c
        if validate:
            self.validate()

    @property
    def field(self) -> PrimeField:
        return self.source.field

    def comp(self, n: int) -> np.ndarray:
        if n in self.comps:
            return self.comps[n]
        return self.field.zeros(self.source.term(n).dim, self.target.term(n).dim)

    def is_zero(self) -> bool:
        return all(not np.any(c) for c in self.comps.values())

    def validate(self):
        fld = self.field
        lo = min(self.source.lo, self.target.lo) if self.comps or True else 0
        rng = range(min(self.source.lo, self.target.lo) - 1, max(self.source.hi, self.target.hi) + 1)
        for n in rng:
            lhs = fld.matmul(self.comp(n), self.target.diff(n))
            rhs = fld.matmul(self.source.diff(n), self.comp(n + 1))
            if not np.array_equal(lhs, rhs):
                raise ValueError(f"chain map does not commute with d at degree {n}")

    def __repr__(self):
        return f"<chain map {self.source.name} -> {self.target.name}>"


@dataclass
class Homotopy:
    """Components h^n: X^n -> Y^{n-1} witnessing f - g = dh + hd."""

    source: BoundedComplex
    target: BoundedComplex
    comps: dict[int, np.ndarray]

    def comp(self, n: int) -> np.ndarray:
        if n in self.comps:
            return self.comps[n]
        return self.source.field.zeros(self.source.term(n).dim, self.target.term(n - 1).dim)

    def witnesses(self, f: ChainMap, g: ChainMap) -> bool:
        fld = self.source.field
        for n in range(min(self.source.lo, self.target.lo) - 1, max(self.source.hi, self.target.hi) + 2):
            delta = fld.sub(f.comp(n), g.comp(n))
            dh = fld.matmul(self.source.diff(n), self.comp(n + 1))
            hd = fld.matmul(self.comp(n), self.target.diff(n - 1))
            if not np.array_equal(delta, fld.add(dh, hd)):
                return False
        return True


# ----------------------------------------------------------------------
# basic constructions
# ----------------------------------------------------------------------


def zero_complex(a: Algebra) -> BoundedComplex:
    return BoundedComplex(a, {}, {}, summands={}, name="0")


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
    summands = None
    if x.summands is not None:
        summands = {n - k: s for n, s in x.summands.items()}
    return BoundedComplex(
        x.algebra, terms, diffs, summands=summands,
        injective_terms=x.injective_terms, name=f"{x.name}[{k}]",
    )


def identity_map(x: BoundedComplex) -> ChainMap:
    return ChainMap(x, x, {n: x.field.identity(x.term(n).dim) for n in x.degrees()})


def zero_map(x: BoundedComplex, y: BoundedComplex) -> ChainMap:
    return ChainMap(x, y, {})


def compose_maps(f: ChainMap, g: ChainMap) -> ChainMap:
    """First f, then g (matrix product order)."""
    if f.target is not g.source:
        raise ValueError("compose_maps: middle complexes differ")
    comps = {}
    for n in set(f.comps) | set(g.comps):
        comps[n] = f.field.matmul(f.comp(n), g.comp(n))
    return ChainMap(f.source, g.target, comps)


def add_maps(f: ChainMap, g: ChainMap) -> ChainMap:
    if f.source is not g.source or f.target is not g.target:
        raise ValueError("add_maps: mismatched complexes")
    comps = {n: f.field.add(f.comp(n), g.comp(n)) for n in set(f.comps) | set(g.comps)}
    return ChainMap(f.source, f.target, comps)


def scale_map(f: ChainMap, c: int) -> ChainMap:
    comps = {n: (c * f.comp(n)) % f.field.p for n in f.comps}
    return ChainMap(f.source, f.target, comps, validate=False)


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
    summands: dict[int, ProjSummands] | None = {}
    track = x.has_summand_data() and y.has_summand_data()
    for n in range(lo, hi + 1):
        xs, ys = x.term(n + 1), y.term(n)
        mod, _ = direct_sum([xs, ys]) if (xs.dim or ys.dim) else (zero_module(a), [])
        terms[n] = mod
        if track:
            sx, sy = x.summand(n + 1), y.summand(n)
            verts = sx.vertices + sy.vertices
            offs = sx.offsets + [o + xs.dim for o in sy.offsets]
            gens = [np.concatenate([g, np.zeros(ys.dim, dtype=np.int64)]) for g in sx.gens] + [
                np.concatenate([np.zeros(xs.dim, dtype=np.int64), g]) for g in sy.gens
            ]
            summands[n] = ProjSummands(verts, offs, gens)
    if not track:
        summands = None
    diffs = {}
    for n in range(lo, hi):
        sdim = terms[n].dim
        tdim = terms[n + 1].dim
        d = fld.zeros(sdim, tdim)
        x1, y0 = x.term(n + 1).dim, y.term(n).dim
        x2, y1 = x.term(n + 2).dim, y.term(n + 1).dim
        d[:x1, :x2] = fld.neg(x.diff(n + 1))
        d[:x1, x2:] = f.comp(n + 1)
        d[x1:, x2:] = y.diff(n)
        diffs[n] = d
    return BoundedComplex(
        a, terms, diffs, summands=summands,
        injective_terms=x.injective_terms and y.injective_terms,
        name=name or f"cone({x.name}->{y.name})",
    )


def homology_dims(x: BoundedComplex) -> dict[int, int]:
    """Nonzero homology dimensions per degree."""
    fld = x.field
    out = {}
    for n in x.degrees():
        r_out = fld.rank(x.diff(n))
        r_in = fld.rank(x.diff(n - 1))
        h = x.term(n).dim - r_out - r_in
        if h:
            out[n] = h
    return out


def euler_characteristic(x: BoundedComplex) -> int:
    return sum(((-1) ** n) * d for n, d in ((m, x.term(m).dim) for m in x.degrees()))


def projective_resolution(m: RightModule, cap: int) -> tuple[BoundedComplex, ChainMap]:
    """Resolution of a module as a complex in degrees [-length, 0],
    together with the augmentation quasi-isomorphism onto the stalk."""
    res = resolution_data(m, cap)
    terms = {}
    diffs = {}
    summands = {}
    for k, cov in enumerate(res.covers):
        terms[-k] = cov.module
        summands[-k] = ProjSummands(cov.summands, cov.offsets, cov.gen_coords)
    for k in range(1, len(res.covers)):
        diffs[-k] = res.diffs[k - 1]
    p = BoundedComplex(m.algebra, terms, diffs, summands=summands, name=f"res({m.name})")
    target = stalk_complex(m)
    aug = ChainMap(p, target, {0: res.augmentation} if res.covers else {})
    return p, aug


def minimize_projective(p: BoundedComplex) -> BoundedComplex:
    """Strip contractible summand pairs from a complex of decomposed
    projectives (Gaussian elimination on invertible differential blocks).

    Purely an optimization pass: the result is homotopy equivalent to the
    input and nothing downstream ever requires it.
    """
    if not p.has_summand_data():
        raise ValueError("minimize_projective needs summand data")
    fld = p.field

    def block(summ, k):
        start = summ.offsets[k]
        stop = summ.offsets[k + 1] if k + 1 < len(summ.offsets) else None
        return start, stop

    current = p
    while True:
        found = None
        for n in range(current.lo, current.hi):
            s_sum = current.summand(n)
            t_sum = current.summand(n + 1)
            d = current.diff(n)
            for si, sv in enumerate(s_sum.vertices):
                s0, s1 = block(s_sum, si)
                s1 = s1 if s1 is not None else current.term(n).dim
                for ti, tv in enumerate(t_sum.vertices):
                    if sv != tv:
                        continue
                    t0, t1 = block(t_sum, ti)
                    t1 = t1 if t1 is not None else current.term(n + 1).dim
                    phi = d[s0:s1, t0:t1]
                    if phi.shape[0] != phi.shape[1] or phi.size == 0:
                        continue
                    if fld.rank(phi) == phi.shape[0]:
                        found = (n, si, s0, s1, ti, t0, t1, phi)
                        break
                if found:
                    break
            if found:
                break
        if not found:
            return current
        n, si, s0, s1, ti, t0, t1, phi = found
        inv = fld.inv(phi)
        d = current.diff(n)
        keep_rows = [r for r in range(current.term(n).dim) if not (s0 <= r < s1)]
        keep_cols = [c for c in range(current.term(n + 1).dim) if not (t0 <= c < t1)]
        gamma = d[keep_rows][:, t0:t1]
        beta = d[s0:s1][:, keep_cols]
        delta = d[keep_rows][:, keep_cols]
        new_dn = fld.sub(delta, fld.mul_chain(gamma, inv, beta))

        def drop_summand(summ, idx, removed_width, removed_offset):
            verts = [v for k, v in enumerate(summ.vertices) if k != idx]
            offs, gens = [], []
            for k, off in enumerate(summ.offsets):
                if k == idx:
                    continue
                offs.append(off - removed_width if off > removed_offset else off)
            for k, g in enumerate(summ.gens):
                if k == idx:
                    continue
                gens.append(np.delete(g, range(removed_offset, removed_offset + removed_width)))
            return ProjSummands(verts, offs, gens)

        def rebuild_term(summ):
            from .modules import projective_module as _pm

            parts = [_pm(current.algebra, v)[0] for v in summ.vertices]
            return direct_sum(parts)[0] if parts else zero_module(current.algebra)

        terms = {}
        summands = {}
        for m in current.degrees():
            if m == n:
                summands[m] = drop_summand(current.summand(m), si, s1 - s0, s0)
                terms[m] = rebuild_term(summands[m])
            elif m == n + 1:
                summands[m] = drop_summand(current.summand(m), ti, t1 - t0, t0)
                terms[m] = rebuild_term(summands[m])
            else:
                summands[m] = current.summand(m)
                terms[m] = current.term(m)
        diffs = {}
        for m in range(current.lo, current.hi):
            if m == n:
                diffs[m] = new_dn
            elif m == n - 1:
                diffs[m] = current.diff(m)[:, keep_rows]
            elif m == n + 1:
                diffs[m] = current.diff(m)[keep_cols, :]
            else:
                diffs[m] = current.diff(m)
        current = BoundedComplex(
            current.algebra, terms, diffs, summands=summands, name=f"min({p.name})"
        )


# ----------------------------------------------------------------------
# duality
# ----------------------------------------------------------------------


def dual_complex(x: BoundedComplex, name: str = "") -> BoundedComplex:
    """k-dual over the opposite algebra; (DX)^n = D(X^{-n})."""
    aop = opposite(x.algebra)
    if x.is_zero():
        return zero_complex(aop)
    terms = {-n: k_dual(x.term(n)) for n in x.degrees()}
    diffs = {}
    for n in range(-x.hi, -x.lo):
        diffs[n] = x.diff(-n - 1).T.copy()
    injective = x.has_summand_data()
    return BoundedComplex(
        aop, terms, diffs, injective_terms=injective, name=name or f"D({x.name})"
    )


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
    p: BoundedComplex
    qis: ChainMap                      # p -> x
    sigma_inv: dict[int, np.ndarray] | None  # present when qis is an iso


@dataclass
class DerivedIsoCertificate:
    status: str                        # "certified" | "not-certified" | "not-isomorphic"
    map: ChainMap | None
    cone_homology: dict[int, int] | None
    attempts_used: int

    @property
    def certified(self) -> bool:
        return self.status == "certified"


class DerivedContext:
    """Caches for replacements, hom bases and hom spaces.

    Caching by object identity keeps every presentation chosen exactly
    once per session, which both speeds things up and lets adjunction
    formulas rely on literal reuse of replacement complexes.  Data that
    depends only on an algebra lives on the algebra instead: the
    indecomposable projectives e_v A are memoised there by
    :func:`gluecat.modules.projective_module` and shared read-only.

    Lifts that share a source and a quasi-isomorphism are solved together
    by :meth:`lift_many_through_qis`, one elimination for all of them; the
    Serre Gram matrices in :mod:`gluecat.serre` lift a whole basis that
    way.
    """

    def __init__(self, resolution_cap: int = 24):
        self.resolution_cap = resolution_cap
        self._replacements: dict[int, tuple[BoundedComplex, Replacement]] = {}
        self._hom_bases: dict[tuple[int, int], tuple] = {}
        self._hom_spaces: dict[tuple[int, int], tuple] = {}
        self._dual_cache: dict[int, tuple[BoundedComplex, BoundedComplex]] = {}

    # -- module hom bases ------------------------------------------------

    def module_hom_basis(self, m: RightModule, n: RightModule) -> list[np.ndarray]:
        key = (id(m), id(n))
        hit = self._hom_bases.get(key)
        if hit is not None:
            return hit[2]
        basis = hom_basis_matrices(m, n)
        self._hom_bases[key] = (m, n, basis)
        return basis

    def hom_coords(self, m: RightModule, n: RightModule, mat: np.ndarray) -> np.ndarray:
        """Coordinates of a module hom in the cached basis."""
        basis = self.module_hom_basis(m, n)
        fld = m.field
        if not basis:
            if np.any(mat):
                raise ValueError("hom_coords: nonzero map in zero hom space")
            return fld.zeros(1, 0)[0]
        flat = np.stack([b.reshape(-1) for b in basis])
        coords = fld.coords_in_rows(flat, mat.reshape(1, -1))
        if coords is None:
            raise ValueError("hom_coords: matrix is not a module hom")
        return coords[0]

    # -- duality ---------------------------------------------------------

    def dual(self, x: BoundedComplex) -> BoundedComplex:
        hit = self._dual_cache.get(id(x))
        if hit is not None:
            return hit[1]
        d = dual_complex(x)
        self._dual_cache[id(x)] = (x, d)
        return d

    # -- replacement ------------------------------------------------------

    def replacement(self, x: BoundedComplex) -> Replacement:
        hit = self._replacements.get(id(x))
        if hit is not None:
            return hit[1]
        rep = self._build_replacement(x)
        self._replacements[id(x)] = (x, rep)
        return rep

    def _build_replacement(self, x: BoundedComplex) -> Replacement:
        a = x.algebra
        fld = x.field
        if x.is_zero():
            p = zero_complex(a)
            return Replacement(p, ChainMap(p, x, {}), {})

        # fast path: every term already projective
        covers: list[Cover] = []
        all_proj = True
        for n in x.degrees():
            cov = projective_cover(x.term(n))
            if cov.module.dim != x.term(n).dim:
                all_proj = False
                break
            covers.append(cov)
        if all_proj:
            sigma = {n: covers[i].surjection for i, n in enumerate(x.degrees())}
            sigma_inv = {n: fld.inv(s) if s.size else s for n, s in sigma.items()}
            terms = {n: covers[i].module for i, n in enumerate(x.degrees())}
            summands = {
                n: ProjSummands(covers[i].summands, covers[i].offsets, covers[i].gen_coords)
                for i, n in enumerate(x.degrees())
            }
            diffs = {
                n: fld.mul_chain(sigma[n], x.diff(n), sigma_inv[n + 1])
                for n in range(x.lo, x.hi)
            }
            p = BoundedComplex(a, terms, diffs, summands=summands, name=f"P({x.name})")
            return Replacement(p, ChainMap(p, x, sigma), sigma_inv)

        nonzero = [n for n in x.degrees() if x.term(n).dim > 0]
        if len(nonzero) == 1:
            return self._resolve_stalk(x, nonzero[0])
        return self._replace_by_splitting(x)

    def _resolve_stalk(self, x: BoundedComplex, n: int) -> Replacement:
        a = x.algebra
        m = x.term(n)
        res = resolution_data(m, self.resolution_cap)
        terms = {}
        summands = {}
        diffs = {}
        for k, cov in enumerate(res.covers):
            terms[n - k] = cov.module
            summands[n - k] = ProjSummands(cov.summands, cov.offsets, cov.gen_coords)
        for k in range(1, len(res.covers)):
            diffs[n - k] = res.diffs[k - 1]
        p = BoundedComplex(a, terms, diffs, summands=summands, name=f"P({x.name})")
        qis = ChainMap(p, x, {n: res.augmentation})
        return Replacement(p, qis, None)

    def _replace_by_splitting(self, x: BoundedComplex) -> Replacement:
        """x = cone(g) for g: (bottom stalk)[-1] -> (stupid truncation)."""
        a = x.algebra
        fld = x.field
        lo = x.lo
        bottom = stalk_complex(x.term(lo), lo + 1, name=f"{x.name}^{lo}[-1]")
        upper = BoundedComplex(
            a,
            {n: x.term(n) for n in range(lo + 1, x.hi + 1)},
            {n: x.diff(n) for n in range(lo + 1, x.hi)},
            injective_terms=x.injective_terms,
            name=f"trunc({x.name})",
        )
        g = ChainMap(bottom, upper, {lo + 1: x.diff(lo)})
        rep_b = self.replacement(bottom)
        rep_u = self.replacement(upper)
        f_map = compose_maps(rep_b.qis, g)
        lifted, htp = self.lift_through_qis(rep_b.p, f_map, rep_u.qis)
        p = cone(lifted, name=f"P({x.name})")
        # map of cones: blocks [[q_b, -h], [0, q_u]] lands in cone(g) == x
        comps = {}
        for n in x.degrees():
            b1 = rep_b.p.term(n + 1).dim
            u0 = rep_u.p.term(n).dim
            mat = fld.zeros(b1 + u0, x.term(n).dim)
            xb = bottom.term(n + 1).dim  # x^{lo} block width at this degree
            if b1:
                mat[:b1, :xb] = rep_b.qis.comp(n + 1)
                mat[:b1, xb:] = fld.neg(htp.comp(n + 1))
            if u0:
                mat[b1:, xb:] = rep_u.qis.comp(n)
            comps[n] = mat
        qis = ChainMap(p, x, comps)
        if homology_dims(p) != homology_dims(x):
            raise RuntimeError("replacement lost homology — convention bug")
        return Replacement(p, qis, None)

    # -- lifting ------------------------------------------------------

    def lift_through_qis(
        self, p: BoundedComplex, f: ChainMap, s: ChainMap
    ) -> tuple[ChainMap, Homotopy]:
        """g: p -> y and homotopy h with f - g*s = dh + hd.

        ``f`` runs p -> x and ``s`` is a quasi-isomorphism y -> x; p must
        have projective terms.  Solved as one global linear system over
        the degreewise module-hom spaces.
        """
        return self.lift_many_through_qis(p, [f], s)[0]

    def lift_many_through_qis(
        self, p: BoundedComplex, fs: list[ChainMap], s: ChainMap
    ) -> list[tuple[ChainMap, Homotopy]]:
        """:meth:`lift_through_qis` for every map in ``fs``, in one solve.

        The system depends only on p and s, so it is assembled once and
        eliminated once with one right-hand side per map.  Pivots are
        chosen among the coefficient columns only, so each solution
        column is exactly the single-map solution.
        """
        y, x = s.source, s.target
        for f in fs:
            if f.source is not p or f.target is not x:
                raise ValueError("lift_through_qis: mismatched complexes")
        fld = p.field
        degs = list(p.degrees())
        if not degs:
            return [(zero_map(p, y), Homotopy(p, x, {})) for _ in fs]
        if not fs:
            return []
        g_bases = {n: self.module_hom_basis(p.term(n), y.term(n)) for n in degs}
        h_bases = {n: self.module_hom_basis(p.term(n), x.term(n - 1)) for n in degs}
        cols: list[tuple[str, int, int]] = []
        for n in degs:
            cols.extend(("g", n, k) for k in range(len(g_bases[n])))
        for n in degs:
            cols.extend(("h", n, k) for k in range(len(h_bases[n])))
        col_index = {c: i for i, c in enumerate(cols)}
        n_cols = len(cols)

        rows: list[np.ndarray] = []
        rhs: list[np.ndarray] = []

        def add_equation(size: int, contribs, targets):
            block = fld.zeros(size, n_cols)
            for (kind, n, mats, sign) in contribs:
                bases = g_bases[n] if kind == "g" else h_bases[n]
                for k, b in enumerate(bases):
                    val = b
                    for (m, side) in mats:
                        val = fld.matmul(m, val) if side == "l" else fld.matmul(val, m)
                    col = col_index[(kind, n, k)]
                    block[:, col] = (sign * val.reshape(-1)) % fld.p
            rows.append(block)
            rhs.append(targets % fld.p)

        # chain-map equations: g^n d_y^n - d_p^n g^{n+1} = 0
        for n in range(min(degs) - 1, max(degs) + 1):
            size = p.term(n).dim * y.term(n + 1).dim
            if size == 0:
                continue
            contribs = []
            if n in g_bases and g_bases[n]:
                contribs.append(("g", n, [(y.diff(n), "r")], 1))
            if (n + 1) in g_bases and g_bases[n + 1]:
                contribs.append(("g", n + 1, [(p.diff(n), "l")], -1))
            add_equation(size, contribs, fld.zeros(size, len(fs)))

        # homotopy equations: g^n s^n + d_p^n h^{n+1} + h^n d_x^{n-1} = f^n
        for n in degs:
            size = p.term(n).dim * x.term(n).dim
            if size == 0:
                continue
            contribs = []
            if g_bases[n]:
                contribs.append(("g", n, [(s.comp(n), "r")], 1))
            if (n + 1) in h_bases and h_bases[n + 1]:
                contribs.append(("h", n + 1, [(p.diff(n), "l")], 1))
            if h_bases[n]:
                contribs.append(("h", n, [(x.diff(n - 1), "r")], 1))
            add_equation(size, contribs, np.stack([f.comp(n).reshape(-1) for f in fs], axis=1))

        if rows:
            sol = fld.solve_matrix(np.concatenate(rows, axis=0), np.concatenate(rhs, axis=0))
        else:
            sol = fld.zeros(n_cols, len(fs))
        if sol is None:
            raise LiftSystemInconsistentError(
                "no lift exists: source not K-projective or map not a qis"
            )

        def expand(kind, n, bases, shape):
            # (maps, rows, cols): the combination of ``bases`` for every map
            if not bases:
                return np.zeros((len(fs),) + shape, dtype=np.int64)
            first = col_index[(kind, n, 0)]
            coeffs = sol[first:first + len(bases)].T
            return np.tensordot(coeffs, np.stack(bases), axes=1) % fld.p

        g_comps = {}
        h_comps = {}
        for n in degs:
            g_comps[n] = expand("g", n, g_bases[n], (p.term(n).dim, y.term(n).dim))
            h_comps[n] = expand("h", n, h_bases[n], (p.term(n).dim, x.term(n - 1).dim))
        return [
            (
                ChainMap(p, y, {n: g_comps[n][t] for n in degs}),
                Homotopy(p, x, {n: h_comps[n][t] for n in degs}),
            )
            for t in range(len(fs))
        ]

    # -- hom complexes and spaces --------------------------------------

    def hom_complex(self, p: BoundedComplex, y: BoundedComplex) -> "HomComplex":
        return HomComplex(self, p, y)

    def hom_space(self, x: BoundedComplex, y: BoundedComplex) -> "HomSpace":
        key = (id(x), id(y))
        hit = self._hom_spaces.get(key)
        if hit is not None:
            return hit[2]
        hs = HomSpace(self, x, y)
        self._hom_spaces[key] = (x, y, hs)
        return hs

    def derived_hom_dims(self, x: BoundedComplex, y: BoundedComplex) -> dict[int, int]:
        return self.hom_space(x, y).degreewise_dims()

    def degreewise_dim(self, x: BoundedComplex, y: BoundedComplex, n: int) -> int:
        return self.hom_space(x, y).degreewise_dims().get(n, 0)

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
        if homology_dims(x) != homology_dims(y):
            return DerivedIsoCertificate("not-isomorphic", None, None, 0)
        px = self.replacement(x).p
        py = self.replacement(y).p
        if x is y:
            cert = self.certificate_for_map(identity_map(px))
            if cert.certified:
                return cert
        if not homology_dims(x):
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
            cand = hc.vector_to_chain_map(0, vec)
            ch = homology_dims(cone(cand))
            if ch == {}:
                return DerivedIsoCertificate("certified", cand, ch, used)
        return DerivedIsoCertificate("not-certified", None, None, used)


class HomComplex:
    """Total Hom complex of two bounded complexes.

    Term n is the direct sum over i of Hom_A(p^i, y^{i+n}) in the cached
    module-hom bases; the differential is f |-> f d_y - (-1)^n d_p f.
    When p has projective terms (or y injective ones) its homology
    computes derived Hom dimensions degreewise.
    """

    def __init__(self, ctx: DerivedContext, p: BoundedComplex, y: BoundedComplex):
        self.ctx = ctx
        self.p = p
        self.y = y
        fld = p.field
        self.fld = fld
        if p.is_zero() or y.is_zero():
            self.lo, self.hi = 0, -1
            self.blocks = {}
            self.dims = {}
            self.diffs = {}
            return
        self.lo = y.lo - p.hi
        self.hi = y.hi - p.lo
        self.blocks: dict[int, list[tuple[int, list[np.ndarray]]]] = {}
        self.dims: dict[int, int] = {}
        for n in range(self.lo, self.hi + 1):
            blocks = []
            for i in p.degrees():
                if p.term(i).dim and y.term(i + n).dim:
                    basis = ctx.module_hom_basis(p.term(i), y.term(i + n))
                    if basis:
                        blocks.append((i, basis))
            self.blocks[n] = blocks
            self.dims[n] = sum(len(b) for _, b in blocks)
        self.diffs = {}
        for n in range(self.lo, self.hi):
            self.diffs[n] = self._differential(n)

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def _offsets(self, n: int) -> dict[int, int]:
        out = {}
        off = 0
        for i, basis in self.blocks.get(n, []):
            out[i] = off
            off += len(basis)
        return out
    def _differential(self, n: int) -> np.ndarray:
        fld = self.fld
        src_blocks = self.blocks.get(n, [])
        dst_dim = self.dim(n + 1)
        mat = fld.zeros(self.dim(n), dst_dim)
        dst_offsets = self._offsets(n + 1)
        dst_bases = {i: basis for i, basis in self.blocks.get(n + 1, [])}
        sign = 1 if n % 2 == 0 else -1
        row = 0
        for i, basis in src_blocks:
            for b in basis:
                # component at block i of degree n+1: b @ d_y
                img_i = fld.matmul(b, self.y.diff(i + n))
                if np.any(img_i):
                    if i not in dst_bases:
                        raise ValueError("hom differential drops a nonzero component")
                    coords = self._block_coords(i, n + 1, img_i)
                    mat[row, dst_offsets[i]:dst_offsets[i] + len(dst_bases[i])] = coords
                # component at block i-1: -(-1)^n d_p^{i-1} @ b
                img_prev = (-sign * fld.matmul(self.p.diff(i - 1), b)) % fld.p
                if np.any(img_prev):
                    if (i - 1) not in dst_bases:
                        raise ValueError("hom differential drops a nonzero component")
                    coords = self._block_coords(i - 1, n + 1, img_prev)
                    mat[row, dst_offsets[i - 1]:dst_offsets[i - 1] + len(dst_bases[i - 1])] = coords
                row += 1
        return mat

    def _block_coords(self, i: int, n: int, m: np.ndarray) -> np.ndarray:
        return self.ctx.hom_coords(self.p.term(i), self.y.term(i + n), m)

    def diff(self, n: int) -> np.ndarray:
        if n in self.diffs:
            return self.diffs[n]
        return self.fld.zeros(self.dim(n), self.dim(n + 1))

    def homology_dims(self) -> dict[int, int]:
        out = {}
        for n in range(self.lo, self.hi + 1):
            h = self.dim(n) - self.fld.rank(self.diff(n)) - self.fld.rank(self.diff(n - 1))
            if h:
                out[n] = h
        return out

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

    def vector_to_chain_map(self, n: int, vec: np.ndarray) -> ChainMap:
        """Expand a degree-n coordinate vector into p -> y[n] components.

        For n == 0 the result is returned as an honest chain map p -> y;
        callers needing shifted targets handle the shift themselves.
        """
        if n != 0:
            raise ValueError("only degree-0 expansion is supported")
        comps = {}
        off = 0
        for i, basis in self.blocks.get(0, []):
            mat = self.fld.zeros(self.p.term(i).dim, self.y.term(i).dim)
            for b in basis:
                mat = self.fld.add(mat, (int(vec[off]) * b) % self.fld.p)
                off += 1
            comps[i] = mat
        return ChainMap(self.p, self.y, comps)

    def chain_map_to_vector(self, m: ChainMap) -> np.ndarray:
        vec = self.fld.zeros(1, self.dim(0))[0]
        off = 0
        for i, basis in self.blocks.get(0, []):
            coords = self._block_coords(i, 0, m.comp(i))
            vec[off:off + len(basis)] = coords
            off += len(basis)
        # components outside stored blocks must vanish
        for i in self.p.degrees():
            if self.p.term(i).dim and self.y.term(i).dim and np.any(m.comp(i)):
                if i not in dict(self.blocks.get(0, [])):
                    raise ValueError("chain map has component outside hom blocks")
        return vec


@dataclass
class Mor:
    """A derived-category morphism class x -> y, carried by a chain map
    whose source resolves x through ``src_qis`` (identity allowed)."""

    x: BoundedComplex
    y: BoundedComplex
    map: ChainMap
    src_qis: ChainMap

    @staticmethod
    def from_direct(x: BoundedComplex, y: BoundedComplex, m: ChainMap) -> "Mor":
        return Mor(x, y, m, identity_map(x))


class HomSpace:
    """Derived Hom(x, y) with a chosen presentation and explicit basis."""

    def __init__(self, ctx: DerivedContext, x: BoundedComplex, y: BoundedComplex):
        self.ctx = ctx
        self.x = x
        self.y = y
        # always present on the projective replacement: the hom complex
        # then computes derived Hom for any second argument, and every
        # carrier can be normalized here (maps from x precompose with the
        # canonical qis; other carriers lift through their qis)
        rep = ctx.replacement(x)
        self.p = rep.p
        self.p_qis = rep.qis
        self.hc = ctx.hom_complex(self.p, y)
        fld = x.field
        self.fld = fld
        bnd = self.hc.boundary_space(0)
        cyc = self.hc.cycle_space(0)
        reps = []
        current = bnd if bnd.size else fld.zeros(0, self.hc.dim(0))
        base_rank = current.shape[0]
        for row in cyc:
            stacked = np.concatenate([current, row.reshape(1, -1)], axis=0)
            if fld.rank(stacked) > current.shape[0]:
                current = fld.image_basis(stacked)
                reps.append(row)
        self.boundaries = bnd
        self.h_reps = (
            np.stack(reps) if reps else fld.zeros(0, self.hc.dim(0))
        )
        self.dim = len(reps)

    def degreewise_dims(self) -> dict[int, int]:
        return self.hc.homology_dims()

    def basis_maps(self) -> list[ChainMap]:
        return [self.hc.vector_to_chain_map(0, row) for row in self.h_reps]

    def basis_mors(self) -> list[Mor]:
        return [Mor(self.x, self.y, m, self.p_qis) for m in self.basis_maps()]

    def reduce_vector(self, vec: np.ndarray) -> np.ndarray:
        """Coordinates of a cycle vector in the chosen homology basis."""
        fld = self.fld
        if self.dim == 0:
            return fld.zeros(1, 0)[0]
        if np.any(fld.matmul(vec.reshape(1, -1), self.hc.diff(0))):
            raise ValueError("reduce_vector: not a cycle")
        stack = np.concatenate([self.boundaries, self.h_reps], axis=0)
        coords = fld.coords_in_rows(stack, vec.reshape(1, -1))
        if coords is None:
            raise ValueError("reduce_vector: cycle outside computed space")
        return coords[0][self.boundaries.shape[0]:]

    def coords_of(self, mor: Mor) -> np.ndarray:
        """Homology coordinates of a morphism class."""
        m = self.normalize(mor)
        return self.reduce_vector(self.hc.chain_map_to_vector(m))

    def normalize(self, mor: Mor) -> ChainMap:
        """Re-present a class as a chain map self.p -> y."""
        if mor.x is not self.x or mor.y is not self.y:
            raise ValueError("coords_of: morphism belongs to a different hom space")
        m = mor.map
        if m.source is self.p:
            return m
        if mor.src_qis.source is not m.source:
            raise ValueError("Mor: src_qis does not match the carrier")
        if m.source is self.x:
            return compose_maps(self.p_qis, m)
        # lift the canonical identification p ≃ x through the carrier's qis
        ell, _ = self.ctx.lift_through_qis(self.p, self.p_qis, mor.src_qis)
        return compose_maps(ell, m)
