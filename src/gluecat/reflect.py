"""The reflected recollements.

With a Serre functor on the middle category, the left and right adjoints
acquire one further adjoint each.  The four new functors are composites of
the original six with the Nakayama functor and its quasi-inverse, and they
come in mirror pairs: i_! and j^? are new left adjoints, of i^* and j_!;
i_? and j^! are new right adjoints, of i^! and j_*.  Each is read off one
primitive pair (F, G), a row of :data:`MIRROR_ROWS`, and one mirror rule
gives every adjunction matrix.  Take x where F lands and y where F starts,
R the right Serre functor of x's category and L the left Serre functor of
y's, with Rgram and Lgram the Gram matrices that :func:`serre_pairing`
returns for R and for L:

    new left adjoint F' of F:   M = Lgram(y, G R x)^T fwd(y, R x)^T Rgram(x, F y)^-1
                                maps Hom(F'x, y) -> Hom(x, F y); the pair is (M, M^-1)
    new right adjoint G' of G:  M = Rgram(F L y, x)^T bwd(L y, x)^T Lgram(G x, y)^-1
                                maps Hom(x, G'y) -> Hom(G x, y); the pair is (M^-1, M)

where fwd and bwd are the forward and backward matrices of (F, G).
Reassembling the six positions yields two new recollements with the outer
categories interchanged; they are verified with the same generic axiom
engine as the original diagram.
"""

from __future__ import annotations

import numpy as np

from .algebra import _Memo
from .complexes import Mor
from .recollement import (
    NEW_ADJOINT_EXPRS,
    AdjunctionProvider,
    DiagramSpec,
    Recollement,
    layout_diagram,
    mor_from_coords,
)
from .serre import SERRE_FUNCTORS, SerreData, serre_pairing

__all__ = [
    "NEW_ADJOINT_EXPRS",
    "MIRROR_ROWS",
    "CompositeAdjunction",
    "composite_adjunctions",
    "assemble_reflected",
]

# new adjoint -> (its primitive pair (F, G), side): a new left adjoint of
# F, or a new right adjoint of G
MIRROR_ROWS = {
    "i_!": ("(i^*, i_*)", "left"),
    "j^?": ("(j_!, j^*)", "left"),
    "i_?": ("(i_*, i^!)", "right"),
    "j^!": ("(j^*, j_*)", "right"),
}


class CompositeAdjunction(AdjunctionProvider):
    """The adjunction of the new adjoint ``new``, by the mirror rule: two
    Serre pairings and one primitive adjunction matrix.

    A new left adjoint F' of F witnesses (F', F), a new right adjoint G'
    of G witnesses (G, G').
    """

    def __init__(self, sd: SerreData, new: str):
        pair, self.side = MIRROR_ROWS[new]
        prim = self.primitive = sd.adjunctions[pair]
        if self.side == "left":
            super().__init__(sd.rec, NEW_ADJOINT_EXPRS[new], prim.f_expr)
            self.name = f"({new}, {prim.F.name})"
        else:
            super().__init__(sd.rec, prim.g_expr, NEW_ADJOINT_EXPRS[new])
            self.name = f"({prim.G.name}, {new})"
        self.sd = sd
        self.right_serre = SERRE_FUNCTORS[prim.F.tgt_tag][0]
        self.left_serre = SERRE_FUNCTORS[prim.F.src_tag][1]
        self._matrices = _Memo()   # (x, y) -> (forward, backward)

    def _matrix_pair(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        sd, prim, fld = self.sd, self.primitive, x.field
        right, left = self.right_serre, self.left_serre
        if self.side == "left":     # M: Hom(F'x, y) -> Hom(x, F y)
            rx = sd.serre_apply(right, x)
            outer = serre_pairing(sd, left, y, prim.G.apply(rx))
            middle = prim.forward_matrix(y, rx)
            inner = serre_pairing(sd, right, x, prim.F.apply(y))
        else:                       # M: Hom(x, G'y) -> Hom(G x, y)
            ly = sd.serre_apply(left, y)
            outer = serre_pairing(sd, right, prim.F.apply(ly), x)
            middle = prim.backward_matrix(ly, x)
            inner = serre_pairing(sd, left, prim.G.apply(x), y)
        if outer.shape != inner.shape:
            raise ValueError(
                f"{self.name}: adjunction matrix not square: {(len(outer), len(inner))}"
            )
        if not inner.size:
            return inner, inner
        m = fld.mul_chain(outer.T, middle.T, fld.inv(inner))
        return (m, fld.inv(m)) if self.side == "left" else (fld.inv(m), m)

    def forward_matrix(self, x, y) -> np.ndarray:
        return self._matrices.value((x.key, y.key), self._matrix_pair, x, y)[0]

    def backward_matrix(self, x, y) -> np.ndarray:
        return self._matrices.value((x.key, y.key), self._matrix_pair, x, y)[1]

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


def composite_adjunctions(sd: SerreData) -> dict[str, CompositeAdjunction]:
    providers = [CompositeAdjunction(sd, new) for new in MIRROR_ROWS]
    return {p.name: p for p in providers}


# ----------------------------------------------------------------------
# assembly of the two reflected diagrams
# ----------------------------------------------------------------------


def assemble_reflected(rec: Recollement, sd: SerreData, variant: str) -> DiagramSpec:
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
    return layout_diagram(rec, variant, providers)
