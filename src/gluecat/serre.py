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
    DerivedContext,
    Mor,
    ProjectiveComplex,
    compose_maps,
    homology_dims,
    present_class,
    stalk_complex,
)
from .modules import TensorResult, nakayama_bimodule, projective_module, projective_sum, projectives
from .recollement import (
    AdjunctionProvider,
    DerivedTensorFunctor,
    DualDerivedTensorFunctor,
    FunctorExpr,
    Recollement,
    VerificationReport,
    _Cells,
    _window_dims,
    primitive_adjunctions,
)

__all__ = [
    "SingularPairingError",
    "SerreData",
    "attach_serre",
    "serre_pairing",
    "PAIRING_ROUTES",
    "serre_axiom_check",
    "INDUCED_EXPRS",
    "SERRE_FUNCTORS",
]


class SingularPairingError(RuntimeError):
    """The Serre pairing came out degenerate: a convention bug upstream."""


INDUCED_EXPRS = {
    "S": FunctorExpr(("i_*", "T", "i^!")),
    "S~": FunctorExpr(("i_*", "T~", "i^*")),
    "U": FunctorExpr(("j_!", "T", "j^*")),
    "U~": FunctorExpr(("j_*", "T~", "j^*")),
}

# category -> (right, left) Serre functor: T and its quasi-inverse T~ on
# A, the induced pairs on B and C
SERRE_FUNCTORS = {"A": ("T", "T~"), "B": ("S", "S~"), "C": ("U", "U~")}
_CATEGORY_OF = {right: tag for tag, (right, _) in SERRE_FUNCTORS.items()}


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
        rec.registry["T"] = DerivedTensorFunctor(rec.ctx, da, "T", "A", "A")
        rec.registry["T~"] = DualDerivedTensorFunctor(rec.ctx, da, "T~", "A", "A")
    return SerreData(rec, da, primitive_adjunctions(rec))


# ----------------------------------------------------------------------
# the Nakayama trace
# ----------------------------------------------------------------------


def _trace_functionals(a: Algebra, vertices: tuple[int, ...], tens: TensorResult) -> list[np.ndarray]:
    """One functional per summand of the sum of projectives with the
    vertex tuple ``vertices``: evaluate the Nakayama component of a
    tensor class at the summand's vertex idempotent."""
    fld = a.field
    q_dim = tens.module.dim
    # section[q] indexed by (term coordinate r, D(A) coordinate rho)
    sec = tens.section.reshape(q_dim, tens.m_dim, a.dim)
    out = []
    for v, start in zip(vertices, projective_sum(a, vertices)[1]):
        rows = projective_module(a, v)[1]  # P_v in A-coordinates
        out.append(fld.matmul(sec[:, start:start + len(rows)].reshape(q_dim, -1), rows.reshape(-1)))
    return out


def _supertrace_factors(
    p: ProjectiveComplex, tensors: dict[int, TensorResult]
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
        funcs = _trace_functionals(a, p.vertices[n], tensors[n])
        out[n] = (1 if n % 2 == 0 else -1, projective_sum(a, p.vertices[n])[2], np.stack(funcs))
    return out


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


def _right_factors(
    ctx: DerivedContext, t_functor, xp: BoundedComplex, yp: BoundedComplex, fs: list[Mor], gs: list[Mor]
):
    """:func:`_trace_gram` factors pairing each f in Hom(x', y') against
    each g in Hom(y', T x').

    Entry (i, j) is the supertrace of ell_i then g_j, where ell_i lifts f_i
    through the replacement of y'; the lifts depend on f alone, so they
    are solved together.
    """
    tx = t_functor.apply(xp)
    aux = t_functor.aux(xp)
    p = ctx.replacement(xp).p
    lifts = ctx.lift_many_through_qis(
        p, [present_class(ctx, f, xp, yp) for f in fs], ctx.replacement(yp).qis
    )
    factors = _supertrace_factors(p, aux["tensors"])
    lefts = [{n: ell.comp(n) for n in factors} for ell in lifts]
    rights = [{n: present_class(ctx, g, yp, tx).comp(n) for n in factors} for g in gs]
    return factors, lefts, rights


def _left_factors(
    ctx: DerivedContext, tt_functor, xp: BoundedComplex, yp: BoundedComplex, fs: list[Mor], hs: list[Mor]
):
    """:func:`_trace_gram` factors pairing each f in Hom(x', y') against
    each h in Hom(T~ y', x').

    Entry (i, j) is the supertrace of qis then D(q^-1 ell_j f_i), with
    q^-1 the inverse of the replacement of T~ y' and ell_j lifting h_j
    through the replacement of x'; componentwise that is
    qis^n f_i^{-n,T} ell_j^{-n,T} q^-1^{-n,T}, split between an
    f-factor and an h-factor.
    """
    fld = xp.field
    ty = tt_functor.apply(yp)
    aux = tt_functor.aux(yp)
    rep_ty = ctx.replacement(ty)
    if rep_ty.inverse is None:
        raise SingularPairingError("T~ output should have projective terms")
    lifts = ctx.lift_many_through_qis(
        rep_ty.p, [present_class(ctx, h, ty, xp) for h in hs], ctx.replacement(xp).qis
    )
    rep = ctx.replacement(ctx.dual(yp))
    p, qis = rep.p, rep.qis
    factors = _supertrace_factors(p, aux["tensors"])
    f_hats = [present_class(ctx, f, xp, yp) for f in fs]
    lefts = [{n: fld.matmul(qis.comp(n), f.comp(-n).T) for n in factors} for f in f_hats]
    moved = [compose_maps(rep_ty.inverse, ell) for ell in lifts]  # ty -> rep of x'
    rights = [{n: c.comp(-n).T for n in factors} for c in moved]
    return factors, lefts, rights


# which -> (embedding, adjunction) of each pairing's proof chain: the
# adjunction moves the outer factor of the induced functor off, and the
# embedding carries the pairing up to the trace pairing of T or T~.
# T and T~ pair by the trace itself: their embedding is the identity.
PAIRING_ROUTES = {
    "T": (None, None),
    "S": ("i_*", "(i_*, i^!)"),
    "U": ("j_!", "(j_!, j^*)"),
    "T~": (None, None),
    "S~": ("i_*", "(i^*, i_*)"),
    "U~": ("j_*", "(j^*, j_*)"),
}


def serre_pairing(sd: SerreData, which: str, x: BoundedComplex, y: BoundedComplex) -> np.ndarray:
    """Gram matrix of the Serre pairing of F = ``which`` on (x, y).

    T on A, S on B and U on C pair on the right,
    Hom(x,y) x Hom(y, Fx) -> k; their quasi-inverses T~, S~ and U~ pair
    on the left, Hom(x,y) x Hom(Fy, x) -> k.  For the induced functors
    the pairing is assembled exactly as in the existence proof: move the
    outer adjoint off via the primitive adjunction, apply the Nakayama
    trace of T or T~ upstairs, and transport along the fully faithful
    embedding.  Hom spaces of different dimensions, or a degenerate
    pairing, raise :class:`SingularPairingError`.
    """
    if which not in PAIRING_ROUTES:
        raise ValueError("which must be 'T', 'S', 'U', 'T~', 'S~' or 'U~'")
    rec, ctx, fld = sd.rec, sd.ctx, x.field
    left = which.endswith("~")
    trace = rec.functor("T~" if left else "T")
    image = sd.serre_apply(which, y if left else x)  # F y on the left, F x on the right
    hs_f = ctx.hom_space(x, y)
    if left:
        hs_g, shown = ctx.hom_space(image, x), f"{which}y,x"
    else:
        hs_g, shown = ctx.hom_space(y, image), f"y,{which}x"
    if hs_f.dim != hs_g.dim:
        raise SingularPairingError(f"dim Hom(x,y)={hs_f.dim} but dim Hom({shown})={hs_g.dim}")
    fs, gs = hs_f.basis_mors(), hs_g.basis_mors()
    xp, yp = x, y
    emb_name, adj_name = PAIRING_ROUTES[which]
    if emb_name is not None:
        emb, adj = rec.functor(emb_name), sd.adjunctions[adj_name]
        xp, yp = emb.apply(x), emb.apply(y)
        if left:  # onto Hom(T~ emb y, emb x)
            mid = trace.apply(yp)
            gs = [adj.forward(mid, x, g) for g in gs]
        else:  # onto Hom(emb y, T emb x): F continues with the right adjoint
            mid = trace.apply(xp)
            gs = [adj.backward(y, mid, g) for g in gs]
        fs = [emb.apply_mor(f) for f in fs]
    if not fs:  # the dimensions agree, so both bases are empty
        return fld.zeros(0, 0)
    factors = (_left_factors if left else _right_factors)(ctx, trace, xp, yp, fs, gs)
    gram = _trace_gram(fld, *factors)
    if fld.rank(gram) != len(gram):
        if which in ("T", "T~"):
            raise SingularPairingError(f"{'left' if left else 'right'} Serre pairing is degenerate")
        raise SingularPairingError(f"induced {which}-pairing is degenerate")
    return gram


# ----------------------------------------------------------------------
# the Serre-functor axiom suite
# ----------------------------------------------------------------------


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
    f_name, ft_name = SERRE_FUNCTORS[_CATEGORY_OF[which]]
    cells = _Cells(f"serre-{which}")
    if not menu:
        return cells.vacuous("S.a")
    window = rec.degree_window(menu)

    pair_list = [(xn, x, yn, y) for xn, x in menu for yn, y in menu]
    gram_budget = len(pair_list) if pairing_pairs is None else pairing_pairs
    gram_done = 0

    # each row compares dim Hom(x, y) in each degree n of the window with
    # the dimension of Hom(*other(x, y)) in degree sign * n
    dim_rows = [
        ("S.a", "mirrored dimensions", "dim Hom(x,y) vs Hom(y,Fx)", -1,
         lambda x, y: (y, sd.serre_apply(f_name, x))),
        ("S.b", "mirrored dimensions", "dim Hom(x,y) vs Hom(F~y,x)", -1,
         lambda x, y: (sd.serre_apply(ft_name, y), x)),
        ("S.c", "equal dimensions", "fully faithful at dimension level", 1,
         lambda x, y: (sd.serre_apply(f_name, x), sd.serre_apply(f_name, y))),
    ]
    for xn, x, yn, y in pair_list:
        objects = f"x={xn} y={yn}"
        ok = {}
        for axiom, expected, note, sign, other in dim_rows:
            with cells.check(axiom, objects, expected, note) as record:
                dims_xy = ctx.derived_hom_dims(x, y)
                dims = ctx.derived_hom_dims(*other(x, y))
                ok[axiom] = _window_dims(dims_xy, window) == _window_dims(dims, window, sign)
                record(dims, "pass" if ok[axiom] else "fail", expected=dims_xy)
        if ok.get("S.a") and gram_done < gram_budget:
            gram_done += 1
            expected, note = "invertible Gram matrices", "right+left pairings"
            with cells.check("S.gram", objects, expected, note) as record:
                try:
                    gram = serre_pairing(sd, f_name, x, y)
                    gram_l = serre_pairing(sd, ft_name, x, y)
                    record(f"dims {len(gram)}/{len(gram_l)}", "pass")
                except SingularPairingError as exc:
                    record(str(exc), "fail", note="")

    autoeq = [(f_name, ft_name, "F~Fx", 0), (ft_name, f_name, "FF~x", 1)]
    for xn, x in menu:
        for first, second, shown, offset in autoeq:
            objects = f"{shown} vs x at {xn}"
            with cells.check("S.autoeq", objects, "derived iso", "quasi-inverse") as record:
                fx = sd.serre_apply(second, sd.serre_apply(first, x))
                cert = ctx.derived_iso_certificate(fx, x, seed=seed + offset, attempts=attempts)
                hx, hfx = homology_dims(x), homology_dims(fx)
                record(hfx, cert.verdict, expected=hx, certificate=cert.status)

    return cells.report({"menu": [n for n, _ in menu], "window": [window.start, window.stop - 1]})


def intrinsic_nakayama_crosscheck(
    sd: SerreData, which: str, seed: int, attempts: int = 64
) -> VerificationReport:
    """Induced Serre functor vs the intrinsic Nakayama functor of the
    outer algebra, certified on every indecomposable projective stalk."""
    rec, ctx = sd.rec, sd.ctx
    tag = _CATEGORY_OF[which]
    alg = rec.algebra_of(tag)
    intrinsic = DerivedTensorFunctor(ctx, nakayama_bimodule(alg), f"nak({tag})", tag, tag)
    cells = _Cells(f"serre-{which}-nakayama")
    for v, p in enumerate(projectives(alg)):
        note = "induced vs intrinsic"
        with cells.check("S.nakayama", f"P{v + 1}", "derived iso", note) as record:
            x = stalk_complex(p, name=f"{tag}:P{v + 1}")
            lhs = sd.serre_apply(which, x)
            rhs = intrinsic.apply(x)
            cert = ctx.derived_iso_certificate(lhs, rhs, seed=seed + v, attempts=attempts)
            hrhs, hlhs = homology_dims(rhs), homology_dims(lhs)
            record(hlhs, cert.verdict, expected=hrhs, certificate=cert.status)
    return cells.report({"projectives": alg.n_idempotents})
