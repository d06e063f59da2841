"""Serre functors for the three derived categories of a recollement.

The middle category gets the derived Nakayama functor  (-) (x)^L_A D(A)
with quasi-inverse along the duality route; the outer categories get the
induced functors built from the recollement, together with explicit
duality pairings assembled from the Nakayama trace, the primitive
adjunctions and fully-faithful transport.

Each pairing's Gram matrix is built in one pass.  The supertrace
functionals of the traced complex are computed once per matrix, from the
projectives memoised on the algebra.  Every basis map on the side that
needs lifting is lifted in one batched solve
(:meth:`DerivedContext.lift_many_through_qis`).  Entry (i, j) then
factors into an i-part and a j-part per degree, so the whole matrix is
one exact GF(p) product per degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra
from .complexes import (
    BoundedComplex,
    ChainMap,
    DerivedContext,
    Mor,
    compose_maps,
    homology_dims,
)
from .modules import TensorResult, nakayama_bimodule, projective_module
from .recollement import (
    AdjunctionProvider,
    Cell,
    DerivedTensorFunctor,
    DualDerivedTensorFunctor,
    FunctorExpr,
    Recollement,
    VerificationReport,
    primitive_adjunctions,
)

__all__ = [
    "SingularPairingError",
    "PairingWitness",
    "SerreData",
    "attach_serre",
    "serre_pairing",
    "serre_left_pairing",
    "induced_right_pairing",
    "induced_left_pairing",
    "serre_axiom_check",
    "INDUCED_EXPRS",
]


class SingularPairingError(RuntimeError):
    """The Serre pairing came out degenerate: a convention bug upstream."""


@dataclass
class PairingWitness:
    kind: str                 # "right" or "left"
    x_name: str
    y_name: str
    dim: int
    gram: np.ndarray

    @property
    def invertible(self) -> bool:
        if self.dim == 0:
            return True
        fld_rank = self._rank
        return fld_rank == self.dim

    _rank: int = 0


INDUCED_EXPRS = {
    "S": FunctorExpr(("i_*", "T", "i^!")),
    "S~": FunctorExpr(("i_*", "T~", "i^*")),
    "U": FunctorExpr(("j_!", "T", "j^*")),
    "U~": FunctorExpr(("j_*", "T~", "j^*")),
}


@dataclass
class SerreData:
    rec: Recollement
    da: object
    adjunctions: dict[str, AdjunctionProvider]

    @property
    def ctx(self) -> DerivedContext:
        return self.rec.ctx

    def serre_apply(self, name: str, x: BoundedComplex) -> BoundedComplex:
        """Evaluate T, T~, S, S~, U or U~ on an object."""
        if name in ("T", "T~"):
            return self.rec.functor(name).apply(x)
        return self.rec.apply_expr(INDUCED_EXPRS[name], x)


def attach_serre(rec: Recollement) -> SerreData:
    """Register T and its quasi-inverse on the middle category."""
    da = nakayama_bimodule(rec.algebra)
    if "T" not in rec.registry:
        rec.registry["T"] = DerivedTensorFunctor(
            rec.ctx, da, "T", "A", "A", injective_output=True
        )
        rec.registry["T~"] = DualDerivedTensorFunctor(
            rec.ctx, da.flip(), "T~", "A", "A", injective_output=False
        )
    return SerreData(rec, da, primitive_adjunctions(rec))


# ----------------------------------------------------------------------
# the Nakayama trace
# ----------------------------------------------------------------------


def _stacked_inclusions(a: Algebra, summ) -> np.ndarray:
    rows = [projective_module(a, v)[1] for v in summ.vertices]
    if not rows:
        return a.field.zeros(0, a.dim)
    return np.concatenate(rows, axis=0)


def _trace_functionals(a: Algebra, summ, tens: TensorResult) -> list[np.ndarray]:
    """One functional per summand: evaluate the Nakayama component of a
    tensor class at the summand's vertex idempotent."""
    fld = a.field
    u_rows = _stacked_inclusions(a, summ)
    q_dim = tens.module.dim
    # section[q] indexed by (term coordinate r, D(A) coordinate rho)
    sec = tens.section.reshape(q_dim, tens.m_dim, a.dim)
    out = []
    for s, v in enumerate(summ.vertices):
        start = summ.offsets[s]
        stop = start + projective_module(a, v)[0].dim
        out.append(
            fld.matmul(sec[:, start:stop].reshape(q_dim, -1), u_rows[start:stop].reshape(-1))
        )
    return out


def _supertrace_factors(
    p: BoundedComplex, tensors: dict[int, TensorResult]
) -> dict[int, tuple[int, np.ndarray, np.ndarray]]:
    """Per degree n, ``(sign, gens, funcs)`` with the supertrace of a chain
    map c equal to  sum_n sign * sum_s gens[s] @ c^n @ funcs[s].

    The sign (-1)^n is forced by homotopy invariance; ``gens`` stacks the
    summand generators of p^n and ``funcs`` their trace functionals.
    """
    a = p.algebra
    out = {}
    for n in p.degrees():
        if n not in tensors or tensors[n].module.dim == 0:
            continue
        summ = p.summand(n)
        funcs = _trace_functionals(a, summ, tensors[n])
        out[n] = (1 if n % 2 == 0 else -1, np.stack(summ.gens), np.stack(funcs))
    return out


def nakayama_supertrace(
    p: BoundedComplex, tensors: dict[int, TensorResult], c: ChainMap
) -> int:
    """Alternating-sign trace of a chain map p -> p (x) D(A).

    The sign (-1)^n is forced by homotopy invariance; the module-level
    trace evaluates the Nakayama component of each summand generator at
    its vertex idempotent.
    """
    fld = p.field
    total = 0
    for n, (sign, gens, funcs) in _supertrace_factors(p, tensors).items():
        total += sign * int(np.trace(fld.mul_chain(gens, c.comp(n), funcs.T)))
    return total % fld.p


def _trace_gram(fld, factors, lefts: list[dict], rights: list[dict]) -> np.ndarray:
    """Supertraces of every product: entry (i, j) traces the chain map
    with components ``lefts[i][n] @ rights[j][n]``, for ``factors`` from
    :func:`_supertrace_factors`; both lists are non-empty."""
    gram = fld.zeros(len(lefts), len(rights))
    for n, (sign, gens, funcs) in factors.items():
        # sum_s (gens L)[s, k] (R funcs^T)[k, s], flattened over (s, k)
        ls = np.stack([fld.matmul(gens, left[n]).reshape(-1) for left in lefts])
        rs = np.stack([fld.matmul(right[n], funcs.T).T.reshape(-1) for right in rights])
        gram = (gram + sign * fld.matmul(ls, rs.T)) % fld.p
    return gram


def _right_gram(ctx: DerivedContext, t_functor, xp: BoundedComplex, yp: BoundedComplex, fs: list[Mor], gs: list[Mor]) -> np.ndarray:
    """Trace pairing of each f in Hom(x', y') against each g in Hom(y', T x').

    Entry (i, j) is the supertrace of ell_i then g_j, where ell_i lifts f_i
    through the replacement of y'; the lifts depend on f alone, so they
    are solved together.
    """
    fld = xp.field
    if not fs or not gs:
        return fld.zeros(len(fs), len(gs))
    tx = t_functor.apply(xp)
    aux = t_functor.aux(xp)
    hs_f, hs_g = ctx.hom_space(xp, yp), ctx.hom_space(yp, tx)
    p = aux["rep"].p
    lifts = ctx.lift_many_through_qis(
        p, [hs_f.normalize(f) for f in fs], ctx.replacement(yp).qis
    )
    factors = _supertrace_factors(p, aux["tensors"])
    lefts = [{n: ell.comp(n) for n in factors} for ell, _ in lifts]
    rights = [{n: hs_g.normalize(g).comp(n) for n in factors} for g in gs]
    return _trace_gram(fld, factors, lefts, rights)


def _left_gram(ctx: DerivedContext, tt_functor, xp: BoundedComplex, yp: BoundedComplex, fs: list[Mor], hs: list[Mor]) -> np.ndarray:
    """Trace pairing of each f in Hom(x', y') against each h in Hom(T~ y', x').

    Entry (i, j) is the supertrace of qis then D(sigma^-1 ell_j f_i), with
    ell_j lifting h_j through the replacement of x'; componentwise that is
    qis^n f_i^{-n,T} ell_j^{-n,T} sigma^-1^{-n,T}, split between an
    f-factor and an h-factor.
    """
    fld = xp.field
    if not fs or not hs:
        return fld.zeros(len(fs), len(hs))
    ty = tt_functor.apply(yp)
    aux = tt_functor.aux(yp)
    rep_ty = ctx.replacement(ty)
    if rep_ty.sigma_inv is None:
        raise SingularPairingError("T~ output should have projective terms")
    hs_f, hs_h = ctx.hom_space(xp, yp), ctx.hom_space(ty, xp)
    lifts = ctx.lift_many_through_qis(
        rep_ty.p, [hs_h.normalize(h) for h in hs], ctx.replacement(xp).qis
    )
    sigma_inv = ChainMap(ty, rep_ty.p, dict(rep_ty.sigma_inv))
    p, qis = aux["rep"].p, aux["rep"].qis
    factors = _supertrace_factors(p, aux["tensors"])
    f_hats = [hs_f.normalize(f) for f in fs]
    lefts = [{n: fld.matmul(qis.comp(n), f.comp(-n).T) for n in factors} for f in f_hats]
    moved = [compose_maps(sigma_inv, ell) for ell, _ in lifts]  # ty -> rep of x'
    rights = [{n: c.comp(-n).T for n in factors} for c in moved]
    return _trace_gram(fld, factors, lefts, rights)


def _witness(kind, xn, yn, gram, fld) -> PairingWitness:
    w = PairingWitness(kind, xn, yn, gram.shape[0], gram)
    w._rank = fld.rank(gram) if gram.size else 0
    if gram.shape[0] == gram.shape[1] == 0:
        w._rank = 0
    return w


def serre_pairing(sd: SerreData, x: BoundedComplex, y: BoundedComplex, x_name="x", y_name="y") -> PairingWitness:
    """Right Serre pairing Hom(x, y) x Hom(y, Tx) -> k on D^b(A)."""
    ctx = sd.ctx
    t = sd.rec.functor("T")
    tx = t.apply(x)
    hs_f = ctx.hom_space(x, y)
    hs_g = ctx.hom_space(y, tx)
    if hs_f.dim != hs_g.dim:
        raise SingularPairingError(
            f"dim Hom(x,y)={hs_f.dim} but dim Hom(y,Tx)={hs_g.dim}"
        )
    fld = x.field
    gram = _right_gram(ctx, t, x, y, hs_f.basis_mors(), hs_g.basis_mors())
    w = _witness("right", x_name, y_name, gram, fld)
    if not w.invertible:
        raise SingularPairingError("right Serre pairing is degenerate")
    return w


def serre_left_pairing(sd: SerreData, x: BoundedComplex, y: BoundedComplex, x_name="x", y_name="y") -> PairingWitness:
    """Left Serre pairing Hom(x, y) x Hom(T~y, x) -> k on D^b(A)."""
    ctx = sd.ctx
    tt = sd.rec.functor("T~")
    ty = tt.apply(y)
    hs_f = ctx.hom_space(x, y)
    hs_h = ctx.hom_space(ty, x)
    if hs_f.dim != hs_h.dim:
        raise SingularPairingError(
            f"dim Hom(x,y)={hs_f.dim} but dim Hom(T~y,x)={hs_h.dim}"
        )
    fld = x.field
    gram = _left_gram(ctx, tt, x, y, hs_f.basis_mors(), hs_h.basis_mors())
    w = _witness("left", x_name, y_name, gram, fld)
    if not w.invertible:
        raise SingularPairingError("left Serre pairing is degenerate")
    return w


# ----------------------------------------------------------------------
# induced pairings on the outer categories  (the printed proof chains)
# ----------------------------------------------------------------------


def induced_right_pairing(sd: SerreData, which: str, x: BoundedComplex, y: BoundedComplex, x_name="x", y_name="y") -> PairingWitness:
    """Pairing Hom(x,y) x Hom(y, Fx) for F = S on B or F = U on C.

    Assembled exactly as in the existence proof: move the right adjoint
    off via the primitive adjunction, apply the Nakayama trace upstairs,
    and transport along the fully faithful embedding.
    """
    rec, ctx = sd.rec, sd.ctx
    t = rec.functor("T")
    if which == "S":
        emb = rec.functor("i_*")
        adj = sd.adjunctions["(i_*, i^!)"]
    elif which == "U":
        emb = rec.functor("j_!")
        adj = sd.adjunctions["(j_!, j^*)"]
    else:
        raise ValueError("which must be 'S' or 'U'")
    fx = sd.serre_apply(which, x)
    hs_f = ctx.hom_space(x, y)
    hs_g = ctx.hom_space(y, fx)
    if hs_f.dim != hs_g.dim:
        raise SingularPairingError(
            f"dim Hom(x,y)={hs_f.dim} but dim Hom(y,{which}x)={hs_g.dim}"
        )
    ex, ey = emb.apply(x), emb.apply(y)
    mid = t.apply(ex)  # T(emb x); which-pipeline continues with the right adjoint
    fld = x.field
    moved = [adj.backward(y, mid, g) for g in hs_g.basis_mors()]  # Hom(emb y, T emb x)
    tfs = [emb.apply_mor(f) for f in hs_f.basis_mors()]
    gram = _right_gram(ctx, t, ex, ey, tfs, moved)
    w = _witness("right", x_name, y_name, gram, fld)
    if not w.invertible:
        raise SingularPairingError(f"induced {which}-pairing is degenerate")
    return w


def induced_left_pairing(sd: SerreData, which: str, x: BoundedComplex, y: BoundedComplex, x_name="x", y_name="y") -> PairingWitness:
    """Pairing Hom(x,y) x Hom(F~y, x) for F~ = S~ on B or U~ on C."""
    rec, ctx = sd.rec, sd.ctx
    tt = rec.functor("T~")
    if which == "S~":
        emb = rec.functor("i_*")
        adj = sd.adjunctions["(i^*, i_*)"]
    elif which == "U~":
        emb = rec.functor("j_*")
        adj = sd.adjunctions["(j^*, j_*)"]
    else:
        raise ValueError("which must be 'S~' or 'U~'")
    fy = sd.serre_apply(which, y)
    hs_f = ctx.hom_space(x, y)
    hs_h = ctx.hom_space(fy, x)
    if hs_f.dim != hs_h.dim:
        raise SingularPairingError(
            f"dim Hom(x,y)={hs_f.dim} but dim Hom({which}y,x)={hs_h.dim}"
        )
    ex, ey = emb.apply(x), emb.apply(y)
    mid = tt.apply(ey)
    fld = x.field
    moved = [adj.forward(mid, x, h) for h in hs_h.basis_mors()]  # Hom(T~ emb y, emb-target x)
    tfs = [emb.apply_mor(f) for f in hs_f.basis_mors()]
    gram = _left_gram(ctx, tt, ex, ey, tfs, moved)
    w = _witness("left", x_name, y_name, gram, fld)
    if not w.invertible:
        raise SingularPairingError(f"induced {which}-pairing is degenerate")
    return w


# ----------------------------------------------------------------------
# the Serre-functor axiom suite
# ----------------------------------------------------------------------


def _serre_dim_check(ctx, dims_f, dims_g, window, mirrored: bool) -> bool:
    for n in window:
        lhs = dims_f.get(n, 0)
        rhs = dims_g.get(-n, 0) if mirrored else dims_g.get(n, 0)
        if lhs != rhs:
            return False
    return True


def serre_axiom_check(
    sd: SerreData,
    which: str,
    menu: list[tuple[str, BoundedComplex]],
    seed: int,
    attempts: int = 64,
    pairing_pairs: int | None = None,
) -> VerificationReport:
    """Right/left Serre data, fully-faithfulness at dimension level and
    autoequivalence certificates for one of the three categories.

    ``which`` is "T" (middle category), "S" (quotient) or "U" (corner).
    """
    rec, ctx = sd.rec, sd.ctx
    names = {"T": ("T", "T~"), "S": ("S", "S~"), "U": ("U", "U~")}[which]
    f_name, ft_name = names
    cells: list[Cell] = []
    label = f"serre-{which}"
    if not menu:
        return VerificationReport(
            label,
            [Cell("S.a", label, "(empty menu)", {}, {}, "pass", "vacuous: empty test menu")],
            {"warning": "empty menu"},
        )
    span = max((o.hi - o.lo for _, o in menu if not o.is_zero()), default=0)
    gl = max(rec.global_dimensions.values())
    w = span + gl + 2
    window = range(-w, w + 1)

    pair_list = [(xn, x, yn, y) for xn, x in menu for yn, y in menu]
    gram_budget = len(pair_list) if pairing_pairs is None else pairing_pairs
    gram_done = 0

    for xn, x, yn, y in pair_list:
        fx = sd.serre_apply(f_name, x)
        fty = sd.serre_apply(ft_name, y)
        dims_xy = ctx.derived_hom_dims(x, y)
        dims_y_fx = ctx.derived_hom_dims(y, fx)
        dims_fty_x = ctx.derived_hom_dims(fty, x)
        ok_a = _serre_dim_check(ctx, dims_xy, dims_y_fx, window, mirrored=True)
        cells.append(
            Cell("S.a", label, f"x={xn} y={yn}", dims_xy, dims_y_fx, "pass" if ok_a else "fail", "dim Hom(x,y) vs Hom(y,Fx)")
        )
        ok_b = _serre_dim_check(ctx, dims_xy, dims_fty_x, window, mirrored=True)
        cells.append(
            Cell("S.b", label, f"x={xn} y={yn}", dims_xy, dims_fty_x, "pass" if ok_b else "fail", "dim Hom(x,y) vs Hom(F~y,x)")
        )
        fy = sd.serre_apply(f_name, y)
        dims_ff = ctx.derived_hom_dims(fx, fy)
        ok_c = _serre_dim_check(ctx, dims_xy, dims_ff, window, mirrored=False)
        cells.append(
            Cell("S.c", label, f"x={xn} y={yn}", dims_xy, dims_ff, "pass" if ok_c else "fail", "fully faithful at dimension level")
        )
        if ok_a and gram_done < gram_budget:
            gram_done += 1
            try:
                if which == "T":
                    wit = serre_pairing(sd, x, y, xn, yn)
                    wit_l = serre_left_pairing(sd, x, y, xn, yn)
                else:
                    wit = induced_right_pairing(sd, f_name, x, y, xn, yn)
                    wit_l = induced_left_pairing(sd, ft_name, x, y, xn, yn)
                cells.append(
                    Cell("S.gram", label, f"x={xn} y={yn}", "invertible Gram matrices", f"dims {wit.dim}/{wit_l.dim}", "pass", "right+left pairings")
                )
            except SingularPairingError as exc:
                cells.append(
                    Cell("S.gram", label, f"x={xn} y={yn}", "invertible Gram matrices", str(exc), "fail")
                )

    for xn, x in menu:
        ffx = sd.serre_apply(ft_name, sd.serre_apply(f_name, x))
        cert = ctx.derived_iso_certificate(ffx, x, seed=seed, attempts=attempts)
        verdict = "pass" if cert.certified else ("fail" if cert.status == "not-isomorphic" else "not-certified")
        cells.append(
            Cell("S.autoeq", label, f"F~Fx vs x at {xn}", homology_dims(x), homology_dims(ffx), verdict, "quasi-inverse", certificate=cert.status)
        )
        fxf = sd.serre_apply(f_name, sd.serre_apply(ft_name, x))
        cert2 = ctx.derived_iso_certificate(fxf, x, seed=seed + 1, attempts=attempts)
        verdict2 = "pass" if cert2.certified else ("fail" if cert2.status == "not-isomorphic" else "not-certified")
        cells.append(
            Cell("S.autoeq", label, f"FF~x vs x at {xn}", homology_dims(x), homology_dims(fxf), verdict2, "quasi-inverse", certificate=cert2.status)
        )

    coverage = {"menu": [n for n, _ in menu], "window": [window.start, window.stop - 1]}
    return VerificationReport(label, cells, coverage)


def intrinsic_nakayama_crosscheck(
    sd: SerreData, which: str, seed: int, attempts: int = 64
) -> VerificationReport:
    """Induced Serre functor vs the intrinsic Nakayama functor of the
    outer algebra, certified on every indecomposable projective stalk."""
    from gluecat.complexes import stalk_complex  # local to avoid cycle noise
    from gluecat.modules import projectives

    rec, ctx = sd.rec, sd.ctx
    tag = {"S": "B", "U": "C"}[which]
    alg = rec.algebra_of(tag)
    intrinsic = DerivedTensorFunctor(
        ctx, nakayama_bimodule(alg), f"nak({tag})", tag, tag, injective_output=True
    )
    cells = []
    label = f"serre-{which}-nakayama"
    for v, p in enumerate(projectives(alg)):
        x = stalk_complex(p, name=f"{tag}:P{v + 1}")
        lhs = sd.serre_apply(which, x)
        rhs = intrinsic.apply(x)
        cert = ctx.derived_iso_certificate(lhs, rhs, seed=seed + v, attempts=attempts)
        verdict = "pass" if cert.certified else ("fail" if cert.status == "not-isomorphic" else "not-certified")
        cells.append(
            Cell(
                "S.nakayama",
                label,
                f"P{v + 1}",
                homology_dims(rhs),
                homology_dims(lhs),
                verdict,
                "induced vs intrinsic",
                certificate=cert.status,
            )
        )
    return VerificationReport(label, cells, {"projectives": alg.n_idempotents})
