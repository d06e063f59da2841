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

from .complexes import Mor, _ContentMemo, _same
from .recollement import (
    NEW_ADJOINT_EXPRS,
    AdjunctionProvider,
    DiagramSpec,
    FunctorExpr,
    Recollement,
    layout_diagram,
    mor_from_coords,
)
from .serre import SerreData, serre_left_pairing, serre_pairing

__all__ = [
    "NEW_ADJOINT_EXPRS",
    "CompositeAdjunction",
    "composite_adjunctions",
    "ReflectedRecollement",
    "assemble_reflected",
]


class CompositeAdjunction(AdjunctionProvider):
    """Adjunction witness assembled from two Serre pairings and one
    primitive adjunction matrix."""

    def __init__(self, sd: SerreData, name: str, f_expr: FunctorExpr, g_expr: FunctorExpr):
        super().__init__(sd.rec, f_expr, g_expr)
        self.sd = sd
        self.name = name
        self._matrices = _ContentMemo()   # (x, y) -> (forward, backward)

    def _chain_matrix(self, x, y) -> np.ndarray:
        raise NotImplementedError

    def _matrix_pair(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        m = self._chain_matrix(x, y)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"{self.name}: adjunction matrix not square: {m.shape}")
        return m, (x.field.inv(m) if m.size else m)

    def forward_matrix(self, x, y) -> np.ndarray:
        return self._matrices.get((x, y), self._matrix_pair, _same)[0]

    def backward_matrix(self, x, y) -> np.ndarray:
        return self._matrices.get((x, y), self._matrix_pair, _same)[1]

    def forward(self, x, y, mor: Mor) -> Mor:
        lhs, rhs = self.lhs_space(x, y), self.rhs_space(x, y)
        return self._transport(lhs, rhs, self.forward_matrix(x, y), mor)

    def backward(self, x, y, mor: Mor) -> Mor:
        lhs, rhs = self.lhs_space(x, y), self.rhs_space(x, y)
        return self._transport(rhs, lhs, self.backward_matrix(x, y), mor)

    @staticmethod
    def _transport(src, dst, matrix: np.ndarray, mor: Mor) -> Mor:
        """The class in ``dst`` whose coordinates are those of ``mor`` in
        ``src`` times ``matrix``."""
        return mor_from_coords(dst, src.fld.matmul(src.coords_of(mor), matrix))


class LowerShriekStarAdjunction(CompositeAdjunction):
    """(i_!, i^*):  Hom_A(i_! x, y) ~= Hom_B(x, i^* y)."""

    def __init__(self, sd: SerreData):
        super().__init__(sd, "(i_!, i^*)", NEW_ADJOINT_EXPRS["i_!"], FunctorExpr(("i^*",)))

    def _chain_matrix(self, x, y):
        rec, sd = self.rec, self.sd
        fld = x.field
        sx = sd.serre_apply("S", x)
        z = rec.functor("i_*").apply(sx)                            # i_* S x
        iy = rec.functor("i^*").apply(y)
        g1 = serre_left_pairing(sd, "T~", y, z).gram
        f1 = sd.adjunctions["(i^*, i_*)"].forward_matrix(y, sx)
        g2 = serre_pairing(sd, "S", x, iy).gram
        return fld.mul_chain(g1.T, f1.T, fld.inv(g2)) if g2.size else fld.zeros(g1.shape[1], 0)


class QuestionShriekAdjunction(CompositeAdjunction):
    """(j^?, j_!):  Hom_C(j^? x, n) ~= Hom_A(x, j_! n)."""

    def __init__(self, sd: SerreData):
        super().__init__(sd, "(j^?, j_!)", NEW_ADJOINT_EXPRS["j^?"], FunctorExpr(("j_!",)))

    def _chain_matrix(self, x, n_obj):
        rec, sd = self.rec, self.sd
        fld = x.field
        tx = rec.functor("T").apply(x)
        w = rec.functor("j^*").apply(tx)                             # j^* T x
        jn = rec.functor("j_!").apply(n_obj)
        g1 = serre_left_pairing(sd, "U~", n_obj, w).gram
        f2 = sd.adjunctions["(j_!, j^*)"].forward_matrix(n_obj, tx)
        g2 = serre_pairing(sd, "T", x, jn).gram
        return fld.mul_chain(g1.T, f2.T, fld.inv(g2)) if g2.size else fld.zeros(g1.shape[1], 0)


class ShriekQuestionAdjunction(CompositeAdjunction):
    """(i^!, i_?):  Hom_B(i^! x, y) ~= Hom_A(x, i_? y)  (x over A)."""

    def __init__(self, sd: SerreData):
        super().__init__(sd, "(i^!, i_?)", FunctorExpr(("i^!",)), NEW_ADJOINT_EXPRS["i_?"])

    def _chain_matrix(self, x, y):
        # built in the backward direction Hom_A(x, i_? y) -> Hom_B(i^! x, y)
        rec, sd = self.rec, self.sd
        fld = x.field
        sty = sd.serre_apply("S~", y)
        zp = rec.functor("i_*").apply(sty)                            # i_* S~ y
        ix = rec.functor("i^!").apply(x)
        g1 = serre_pairing(sd, "T", zp, x).gram
        f3 = sd.adjunctions["(i_*, i^!)"].backward_matrix(sty, x)
        g2 = serre_left_pairing(sd, "S~", ix, y).gram
        back = fld.mul_chain(g1.T, f3.T, fld.inv(g2)) if g2.size else fld.zeros(g1.shape[0], 0)
        return fld.inv(back) if back.size else back.T.copy()


class StarShriekUpAdjunction(CompositeAdjunction):
    """(j_*, j^!):  Hom_A(j_* n, y) ~= Hom_C(n, j^! y)."""

    def __init__(self, sd: SerreData):
        super().__init__(sd, "(j_*, j^!)", FunctorExpr(("j_*",)), NEW_ADJOINT_EXPRS["j^!"])

    def _chain_matrix(self, n_obj, y):
        rec, sd = self.rec, self.sd
        fld = y.field
        tty = rec.functor("T~").apply(y)
        wp = rec.functor("j^*").apply(tty)                            # j^* T~ y
        jn = rec.functor("j_*").apply(n_obj)
        g1 = serre_left_pairing(sd, "T~", jn, y).gram
        f4 = sd.adjunctions["(j^*, j_*)"].forward_matrix(tty, n_obj)
        g2 = serre_pairing(sd, "U", wp, n_obj).gram
        if not g2.size:
            return fld.zeros(g1.shape[0], 0)
        return fld.mul_chain(g1, f4.T, fld.inv(g2).T)


def composite_adjunctions(sd: SerreData) -> dict[str, CompositeAdjunction]:
    return {
        "(i_!, i^*)": LowerShriekStarAdjunction(sd),
        "(j^?, j_!)": QuestionShriekAdjunction(sd),
        "(i^!, i_?)": ShriekQuestionAdjunction(sd),
        "(j_*, j^!)": StarShriekUpAdjunction(sd),
    }


# ----------------------------------------------------------------------
# assembly of the two reflected diagrams
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
    The positions are the rows of :data:`DIAGRAM_LAYOUTS`; the
    reflected diagrams are verified by :func:`verify_axioms`.
    """
    if variant not in ("upper", "lower"):
        raise ValueError("variant must be 'upper' or 'lower'")
    providers = {**sd.adjunctions, **composite_adjunctions(sd)}
    return ReflectedRecollement(variant, rec, sd, layout_diagram(rec, variant, providers))
