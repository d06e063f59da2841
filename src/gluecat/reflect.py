"""The reflected recollements.

With a Serre functor on the middle category, the left and right adjoints
acquire one further adjoint each.  The four new functors are composites of
the original six with the Nakayama functor and its quasi-inverse, and
their adjunction isomorphisms factor as

    (left/right Serre pairing) o (primitive adjunction) o (Serre pairing)

which is exactly how the composite providers below assemble their
matrices.  Reassembling the six positions yields two new recollements
with the outer categories interchanged; they are verified with the same
generic axiom engine as the original diagram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import BoundedComplex, Mor, _IdentityMemo
from .recollement import (
    AdjointPair,
    AdjunctionProvider,
    DiagramSpec,
    FunctorExpr,
    PipelineFunctor,
    Recollement,
    VerificationReport,
    mor_from_coords,
    verify_axioms,
)
from .serre import (
    SerreData,
    induced_left_pairing,
    induced_right_pairing,
    serre_left_pairing,
    serre_pairing,
)

__all__ = [
    "NEW_ADJOINT_EXPRS",
    "new_adjoint_pipeline",
    "CompositeAdjunction",
    "composite_adjunctions",
    "ReflectedRecollement",
    "assemble_reflected",
    "verify_reflected",
]


# expanded five-step primitive compositions, in application order
NEW_ADJOINT_EXPRS = {
    "i_!": FunctorExpr(("i_*", "T", "i^!", "i_*", "T~")),
    "j^?": FunctorExpr(("T", "j^*", "j_*", "T~", "j^*")),
    "i_?": FunctorExpr(("i_*", "T~", "i^*", "i_*", "T")),
    "j^!": FunctorExpr(("T~", "j^*", "j_!", "T", "j^*")),
}


def new_adjoint_pipeline(which: str) -> FunctorExpr:
    return NEW_ADJOINT_EXPRS[which]


class CompositeAdjunction(AdjunctionProvider):
    """Adjunction witness assembled from two Serre pairings and one
    primitive adjunction matrix."""

    def __init__(self, sd: SerreData, name: str, f_expr: FunctorExpr, g_expr: FunctorExpr, x_tag: str, y_tag: str):
        super().__init__(sd.rec)
        self.sd = sd
        self.name = name
        self.f_expr = f_expr
        self.g_expr = g_expr
        self.x_tag = x_tag
        self.y_tag = y_tag
        self._matrices = _IdentityMemo()   # (x, y) -> (forward, backward)

    def F_apply(self, x):
        return self.rec.apply_expr(self.f_expr, x)

    def G_apply(self, y):
        return self.rec.apply_expr(self.g_expr, y)

    def F_mor(self, mor):
        return self.rec.apply_expr_mor(self.f_expr, mor)

    def G_mor(self, mor):
        return self.rec.apply_expr_mor(self.g_expr, mor)

    def _chain_matrix(self, x, y) -> np.ndarray:
        raise NotImplementedError

    def _matrix_pair(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        m = self._chain_matrix(x, y)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"{self.name}: adjunction matrix not square: {m.shape}")
        return m, (x.field.inv(m) if m.size else m)

    def forward_matrix(self, x, y) -> np.ndarray:
        return self._matrices.get((x, y), self._matrix_pair)[0]

    def backward_matrix(self, x, y) -> np.ndarray:
        return self._matrices.get((x, y), self._matrix_pair)[1]

    def forward(self, x, y, mor: Mor) -> Mor:
        lhs = self.ctx.hom_space(self.F_apply(x), y)
        rhs = self.ctx.hom_space(x, self.G_apply(y))
        coords = lhs.coords_of(mor)
        if coords.size:
            coords = (coords @ self.forward_matrix(x, y)) % x.field.p
        else:
            coords = np.zeros(rhs.dim, dtype=np.int64)
        return mor_from_coords(rhs, coords)

    def backward(self, x, y, mor: Mor) -> Mor:
        lhs = self.ctx.hom_space(self.F_apply(x), y)
        rhs = self.ctx.hom_space(x, self.G_apply(y))
        coords = rhs.coords_of(mor)
        if coords.size:
            coords = (coords @ self.backward_matrix(x, y)) % x.field.p
        else:
            coords = np.zeros(lhs.dim, dtype=np.int64)
        return mor_from_coords(lhs, coords)


class LowerShriekStarAdjunction(CompositeAdjunction):
    """(i_!, i^*):  Hom_A(i_! x, y) ~= Hom_B(x, i^* y)."""

    def __init__(self, sd: SerreData):
        super().__init__(sd, "(i_!, i^*)", NEW_ADJOINT_EXPRS["i_!"], FunctorExpr(("i^*",)), "B", "A")

    def _chain_matrix(self, x, y):
        rec, sd, ctx = self.rec, self.sd, self.ctx
        fld = x.field
        sx = rec.apply_expr(FunctorExpr(("i_*", "T", "i^!")), x)   # S x
        z = rec.functor("i_*").apply(sx)                            # i_* S x
        iy = rec.functor("i^*").apply(y)
        g1 = _left_gram(sd, "T", y, z)
        f1 = sd.adjunctions["(i^*, i_*)"].forward_matrix(y, sx)
        g2 = _right_gram(sd, "S", x, iy)
        return fld.mul_chain(g1.T, f1.T, fld.inv(g2)) if g2.size else fld.zeros(g1.shape[1], 0)


class QuestionShriekAdjunction(CompositeAdjunction):
    """(j^?, j_!):  Hom_C(j^? x, n) ~= Hom_A(x, j_! n)."""

    def __init__(self, sd: SerreData):
        super().__init__(sd, "(j^?, j_!)", NEW_ADJOINT_EXPRS["j^?"], FunctorExpr(("j_!",)), "A", "C")

    def _chain_matrix(self, x, n_obj):
        rec, sd, ctx = self.rec, self.sd, self.ctx
        fld = x.field
        tx = rec.functor("T").apply(x)
        w = rec.functor("j^*").apply(tx)                             # j^* T x
        jn = rec.functor("j_!").apply(n_obj)
        g1 = _left_gram(sd, "U~", n_obj, w)
        f2 = sd.adjunctions["(j_!, j^*)"].forward_matrix(n_obj, tx)
        g2 = _right_gram(sd, "T", x, jn)
        return fld.mul_chain(g1.T, f2.T, fld.inv(g2)) if g2.size else fld.zeros(g1.shape[1], 0)


class ShriekQuestionAdjunction(CompositeAdjunction):
    """(i^!, i_?):  Hom_B(i^! x, y) ~= Hom_A(x, i_? y)  (x over A)."""

    def __init__(self, sd: SerreData):
        super().__init__(sd, "(i^!, i_?)", FunctorExpr(("i^!",)), NEW_ADJOINT_EXPRS["i_?"], "A", "B")

    def _chain_matrix(self, x, y):
        # built in the backward direction Hom_A(x, i_? y) -> Hom_B(i^! x, y)
        rec, sd = self.rec, self.sd
        fld = x.field
        sty = rec.apply_expr(FunctorExpr(("i_*", "T~", "i^*")), y)   # S~ y
        zp = rec.functor("i_*").apply(sty)                            # i_* S~ y
        ix = rec.functor("i^!").apply(x)
        g1 = _right_gram(sd, "T", zp, x)
        f3 = sd.adjunctions["(i_*, i^!)"].backward_matrix(sty, x)
        g2 = _left_gram(sd, "S~", ix, y)
        back = fld.mul_chain(g1.T, f3.T, fld.inv(g2)) if g2.size else fld.zeros(g1.shape[0], 0)
        return fld.inv(back) if back.size else back.T.copy()


class StarShriekUpAdjunction(CompositeAdjunction):
    """(j_*, j^!):  Hom_A(j_* n, y) ~= Hom_C(n, j^! y)."""

    def __init__(self, sd: SerreData):
        super().__init__(sd, "(j_*, j^!)", FunctorExpr(("j_*",)), NEW_ADJOINT_EXPRS["j^!"], "C", "A")

    def _chain_matrix(self, n_obj, y):
        rec, sd = self.rec, self.sd
        fld = y.field
        tty = rec.functor("T~").apply(y)
        wp = rec.functor("j^*").apply(tty)                            # j^* T~ y
        jn = rec.functor("j_*").apply(n_obj)
        g1 = _left_gram(sd, "T", jn, y)
        f4 = sd.adjunctions["(j^*, j_*)"].forward_matrix(tty, n_obj)
        g2 = _right_gram(sd, "U", wp, n_obj)
        if not g2.size:
            return fld.zeros(g1.shape[0], 0)
        return fld.mul_chain(g1, f4.T, fld.inv(g2).T)


def _right_gram(sd: SerreData, which: str, x, y) -> np.ndarray:
    if which == "T":
        return serre_pairing(sd, x, y).gram
    return induced_right_pairing(sd, which, x, y).gram


def _left_gram(sd: SerreData, which: str, x, y) -> np.ndarray:
    if which == "T":
        return serre_left_pairing(sd, x, y).gram
    return induced_left_pairing(sd, which, x, y).gram


def composite_adjunctions(sd: SerreData) -> dict[str, CompositeAdjunction]:
    return {
        "(i_!, i^*)": LowerShriekStarAdjunction(sd),
        "(j^?, j_!)": QuestionShriekAdjunction(sd),
        "(i^!, i_?)": ShriekQuestionAdjunction(sd),
        "(j_*, j^!)": StarShriekUpAdjunction(sd),
    }


# ----------------------------------------------------------------------
# assembly and verification of the two reflected diagrams
# ----------------------------------------------------------------------


@dataclass
class ReflectedRecollement:
    variant: str               # "upper" | "lower"
    rec: Recollement
    sd: SerreData
    diagram: DiagramSpec


def assemble_reflected(rec: Recollement, sd: SerreData, variant: str) -> ReflectedRecollement:
    """Place the four new adjoints into the two reflected diagrams.

    Upper variant: (j_!, j^?, j^*) embeds the corner category and
    (i^*, i_!, i_*) projects onto the quotient category; the lower
    variant is the dual assembly (j_*, j^*, j^!) and (i^!, i_*, i_?).
    """
    comp = composite_adjunctions(sd)
    prim = sd.adjunctions
    pf = lambda steps, label: PipelineFunctor(rec, FunctorExpr(tuple(steps)), label)
    if variant == "upper":
        emb = pf(["j_!"], "j_!")
        emb_left = PipelineFunctor(rec, NEW_ADJOINT_EXPRS["j^?"], "j^?")
        emb_right = pf(["j^*"], "j^*")
        quot = pf(["i^*"], "i^*")
        quot_left = PipelineFunctor(rec, NEW_ADJOINT_EXPRS["i_!"], "i_!")
        quot_right = pf(["i_*"], "i_*")
        pairs = {
            "P1": AdjointPair("(j^?, j_!)", emb_left, emb, comp["(j^?, j_!)"]),
            "P2": AdjointPair("(j_!, j^*)", emb, emb_right, prim["(j_!, j^*)"]),
            "P3": AdjointPair("(i_!, i^*)", quot_left, quot, comp["(i_!, i^*)"]),
            "P4": AdjointPair("(i^*, i_*)", quot, quot_right, prim["(i^*, i_*)"]),
        }
        diagram = DiagramSpec(
            "upper", rec, "C", "B", emb, emb_left, emb_right, quot, quot_left, quot_right, pairs
        )
    elif variant == "lower":
        emb = pf(["j_*"], "j_*")
        emb_left = pf(["j^*"], "j^*")
        emb_right = PipelineFunctor(rec, NEW_ADJOINT_EXPRS["j^!"], "j^!")
        quot = pf(["i^!"], "i^!")
        quot_left = pf(["i_*"], "i_*")
        quot_right = PipelineFunctor(rec, NEW_ADJOINT_EXPRS["i_?"], "i_?")
        pairs = {
            "P1": AdjointPair("(j^*, j_*)", emb_left, emb, prim["(j^*, j_*)"]),
            "P2": AdjointPair("(j_*, j^!)", emb, emb_right, comp["(j_*, j^!)"]),
            "P3": AdjointPair("(i_*, i^!)", quot_left, quot, prim["(i_*, i^!)"]),
            "P4": AdjointPair("(i^!, i_?)", quot, quot_right, comp["(i^!, i_?)"]),
        }
        diagram = DiagramSpec(
            "lower", rec, "C", "B", emb, emb_left, emb_right, quot, quot_left, quot_right, pairs
        )
    else:
        raise ValueError("variant must be 'upper' or 'lower'")
    return ReflectedRecollement(variant, rec, sd, diagram)


def verify_reflected(
    rr: ReflectedRecollement,
    menus: dict[str, list[tuple[str, BoundedComplex]]],
    seed: int,
    attempts: int = 64,
    matrix_pairs: int = 4,
) -> VerificationReport:
    return verify_axioms(
        rr.diagram, menus, seed=seed, attempts=attempts, matrix_pairs=matrix_pairs
    )


def composite_adjunction_iso(sd: SerreData, pair: str, x: BoundedComplex, y: BoundedComplex) -> np.ndarray:
    """Invertible adjunction matrix for one of the four new adjoint pairs.

    ``pair`` is one of "(i_!, i^*)", "(j^?, j_!)", "(i^!, i_?)",
    "(j_*, j^!)"; the matrix realizes Hom(Fx, y) -> Hom(x, Gy) in the
    chosen hom-space bases.
    """
    provider = composite_adjunctions(sd)[pair]
    return provider.forward_matrix(x, y)
