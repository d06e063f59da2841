"""The standard six-functor diagram attached to an idempotent of a path
algebra, together with explicit adjunction isomorphisms and a generic
axiom verifier.

For an algebra A with idempotent e the three categories are the bounded
derived categories of B = A/AeA, A itself and C = eAe.  The functors:

    i_* restriction along A ->> B          (exact)
    i^* (-) (x)^L_A B                      (derived tensor)
    i^! dual route D(D(-) (x)^L_{A^op} B)  (dual derived tensor)
    j^* (-) (x)_A Ae                       (exact, = multiplication by e)
    j_! (-) (x)^L_C eA                     (derived tensor)
    j_* dual route D(D(-) (x)^L_{C^op} Ae) (dual derived tensor)

Derived Hom spaces are presented by the shared :class:`DerivedContext`, so
adjunction isomorphisms can be written as explicit matrices between the
chosen bases.

The four primitive adjunctions i^* -| i_* -| i^! and j_! -| j^* -| j_*
come in two shapes, each written once:

    tensor shape  F = - (x)^L W, G exact         (i^*, i_*), (j_!, j^*)
        forward inserts w0 in W, then sigma^-1 and phi;
        backward is qis . section . evaluation
    dual shape    F exact, G = D(D(-) (x)^L W)   (i_*, i^!), (j^*, j_*)
        the unit is D(nu) of the evaluation pairing nu;
        forward is the unit followed by G(phi);
        backward lifts F(psi) . mu through D(q_{R_{Dy}})

A pair supplies its inserted element and its per-degree evaluation
blocks, whole-array expressions over the tensor presentations.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field

import numpy as np

from .algebra import Algebra, _Memo, corner, ideal_span, idempotent_quotient
from .modules import (
    Bimodule,
    RightModule,
    TensorResult,
    global_dimension,
    hom_basis_matrices,
    injective_module,
    projective_module,
    projectives,
    regular_module,
    simple_module,
    sub_bimodule,
    submodule_from_rows,
)
from .complexes import (
    BoundedComplex,
    ChainMap,
    DerivedContext,
    Mor,
    _same_content,
    compose_maps,
    cone,
    dual_chain_map,
    dual_complex,
    homology_dims,
    identity_map,
    present_class,
    shift,
    stalk_complex,
)

__all__ = [
    "CATEGORY_TAGS",
    "FunctorExpr",
    "TagMismatchError",
    "NotStratifyingError",
    "Recollement",
    "build_recollement",
    "DiagramSpec",
    "AdjointPair",
    "Cell",
    "VerificationReport",
    "verify_axioms",
    "DefaultMenu",
    "default_menu",
    "original_diagram",
    "NEW_ADJOINT_EXPRS",
    "DIAGRAM_LAYOUTS",
    "layout_diagram",
]


CATEGORY_TAGS = ("A", "B", "C")


class TagMismatchError(ValueError):
    pass


class NotStratifyingError(RuntimeError):
    pass


@dataclass(frozen=True)
class FunctorExpr:
    """Composition of primitive functors in application order."""

    steps: tuple[str, ...]

    def signature(self, registry) -> tuple[str, str]:
        if not self.steps:
            raise TagMismatchError("empty functor expression")
        src = registry[self.steps[0]].src_tag
        cur = src
        for name in self.steps:
            f = registry[name]
            if f.src_tag != cur:
                raise TagMismatchError(
                    f"step {name} expects {f.src_tag} input but receives {cur}"
                )
            cur = f.tgt_tag
        return src, cur


# ----------------------------------------------------------------------
# functor implementations
# ----------------------------------------------------------------------


class Functor:
    """A functor on bounded complexes, with its output built once per
    content of the input.

    ``apply(x)`` is the output and ``aux(x)`` the data built with it (the
    termwise tensors, the complex before the last dual), kept together
    in a :class:`~gluecat.algebra._Memo`.  Every input of one content
    gets the identical output and aux, built for the first of them and
    named ``f"{name}({x.name})"`` after it.  So aux holds content only,
    never a map onto the input: the replacement of ``x`` is
    ``ctx.replacement(x)``.
    """

    name = "?"
    src_tag = "?"
    tgt_tag = "?"

    def __init__(self, ctx: DerivedContext):
        self.ctx = ctx
        self._outputs = _Memo()   # x -> (output, aux data)

    def apply(self, x: BoundedComplex) -> BoundedComplex:
        return self._output(x)[0]

    def aux(self, x: BoundedComplex):
        return self._output(x)[1]

    def _output(self, x: BoundedComplex):
        return self._outputs.value(x.key, self._apply, x)

    def _apply(self, x):
        raise NotImplementedError

    def apply_mor(self, mor: Mor) -> Mor:
        raise NotImplementedError


class RestrictionFunctor(Functor):
    """i_*: restriction of scalars along the projection A ->> B."""

    name = "i_*"
    src_tag, tgt_tag = "B", "A"

    def __init__(self, ctx, a: Algebra, projection: np.ndarray):
        super().__init__(ctx)
        self.a = a
        self.projection = projection

    def _restrict_module(self, m: RightModule) -> RightModule:
        """Proved: the projection is a unital algebra map A ->> B."""
        action = np.einsum("ik,kmn->imn", self.projection, m.action) % self.a.field.p
        return RightModule(self.a, action, name=f"res({m.name})", validate=False)

    def _apply(self, x):
        terms = {n: self._restrict_module(x.term(n)) for n in x.degrees()}
        diffs = {n: x.diff(n) for n in range(x.lo, x.hi)}
        out = BoundedComplex(self.a, terms, diffs, name=f"i_*({x.name})")
        return out, {}

    def apply_mor(self, mor: Mor) -> Mor:
        fx, fy = self.apply(mor.x), self.apply(mor.y)
        carrier = self.apply(mor.map.source)  # fx when the carrier sits on x
        new_map = ChainMap(carrier, fy, dict(mor.map.comps))
        new_qis = ChainMap(carrier, fx, dict(mor.src_qis.comps))
        return Mor(fx, fy, new_map, new_qis)


class _TensorFunctor(Functor):
    """A functor made from the tensor product with the bimodule ``w``."""

    def __init__(self, ctx, bimodule: Bimodule, name: str, src_tag: str, tgt_tag: str):
        super().__init__(ctx)
        self.w = bimodule
        self.name = name
        self.src_tag, self.tgt_tag = src_tag, tgt_tag


class ExactTensorFunctor(_TensorFunctor):
    """j^*: termwise tensor with an exact bimodule (no replacement)."""

    def _apply(self, x):
        out, tensors = self.ctx.termwise_tensor(x, self.w, name=f"{self.name}({x.name})")
        return out, {"tensors": tensors}

    def apply_mor(self, mor: Mor) -> Mor:
        fx, fy = self.apply(mor.x), self.apply(mor.y)
        tx, ty = self.aux(mor.x)["tensors"], self.aux(mor.y)["tensors"]
        carrier, tc = self.apply(mor.map.source), self.aux(mor.map.source)["tensors"]
        new_map = self.ctx.tensor_map(mor.map, tc, ty, carrier, fy)
        new_qis = self.ctx.tensor_map(mor.src_qis, tc, tx, carrier, fx)
        return Mor(fx, fy, new_map, new_qis)


class DerivedTensorFunctor(_TensorFunctor):
    """i^*, j_!, T: projective replacement followed by termwise tensor."""

    def _apply(self, x):
        out, tensors = self.ctx.derived_tensor(x, self.w, name=f"{self.name}({x.name})")
        return out, {"tensors": tensors}

    def apply_mor(self, mor: Mor) -> Mor:
        ctx = self.ctx
        fx, fy = self.apply(mor.x), self.apply(mor.y)
        g = present_class(ctx, mor)  # R_x -> y
        rep_y = ctx.replacement(mor.y)
        if not _same_content(g.target, rep_y.p):
            g = ctx.lift_through_qis(g.source, g, rep_y.qis)  # R_x -> R_y
        new_map = ctx.tensor_map(
            g, self.aux(mor.x)["tensors"], self.aux(mor.y)["tensors"], fx, fy
        )
        return Mor(fx, fy, new_map, identity_map(fx))


class DualDerivedTensorFunctor(_TensorFunctor):
    """i^!, j_*, T~: duality route D( D(-) (x)^L_{op} W ), tensoring over
    the opposite algebras with ``w.flip()``, the bimodule ``w`` seen
    from the other side.  The flip (and its opposite algebras) is built
    the first time the functor applies."""

    def _apply(self, x):
        ctx = self.ctx
        pre, tensors = ctx.derived_tensor(ctx.dual(x), self.w.flip(), name=f"pre{self.name}({x.name})")
        return dual_complex(pre, name=f"{self.name}({x.name})"), {"pre": pre, "tensors": tensors}

    def dual_presentation(self, mor: Mor) -> ChainMap:
        """Chain map R_{Dy} -> R_{Dx} carrying the dual class D(mor)."""
        ctx = self.ctx
        rep_x = ctx.replacement(mor.x)
        m_hat = present_class(ctx, mor)
        dx, dy = ctx.dual(mor.x), ctx.dual(mor.y)
        rep_dx, rep_dy = ctx.replacement(dx), ctx.replacement(dy)
        d_rx = ctx.dual(rep_x.p)
        dm = dual_chain_map(m_hat, dual_source=d_rx, dual_target=dy)
        dq = dual_chain_map(rep_x.qis, dual_source=d_rx, dual_target=dx)
        s = compose_maps(rep_dx.qis, dq)  # R_{Dx} -> D(R_x), a qis
        f = compose_maps(rep_dy.qis, dm)  # R_{Dy} -> D(R_x)
        g = ctx.lift_through_qis(rep_dy.p, f, s)
        return g

    def apply_mor(self, mor: Mor) -> Mor:
        ctx = self.ctx
        fx, fy = self.apply(mor.x), self.apply(mor.y)
        ax, ay = self.aux(mor.x), self.aux(mor.y)
        g = self.dual_presentation(mor)  # R_{Dy} -> R_{Dx}
        t = ctx.tensor_map(g, ay["tensors"], ax["tensors"], ay["pre"], ax["pre"])
        new_map = dual_chain_map(t, dual_source=fy, dual_target=fx)
        return Mor(fx, fy, new_map, identity_map(fx))


# ----------------------------------------------------------------------
# the recollement
# ----------------------------------------------------------------------


@dataclass
class Recollement:
    algebra: Algebra
    quotient_algebra: Algebra
    corner_algebra: Algebra
    e_vertices: list[int]
    eA: Bimodule                  # (C-left, A-right)
    Ae: Bimodule                  # (A-left, C-right)
    B_ba: Bimodule                # B as (B-left, A-right)
    B_ab: Bimodule                # B as (A-left, B-right)
    eA_rows: np.ndarray
    Ae_rows: np.ndarray
    ae_ea: np.ndarray             # [j, l]: ae_j * ea_l in A-coords
    e_in_eA: np.ndarray
    e_in_Ae: np.ndarray
    ideal_rows: np.ndarray
    global_dimensions: dict[str, int]
    stratifying_certificate: object
    ctx: DerivedContext
    registry: dict[str, Functor] = dc_field(default_factory=dict)
    # expression -> its source algebra, for the expressions that checked
    _sources: _Memo = dc_field(default_factory=_Memo, init=False, repr=False)

    def algebra_of(self, tag: str) -> Algebra:
        return {"A": self.algebra, "B": self.quotient_algebra, "C": self.corner_algebra}[tag]

    def functor(self, name: str) -> Functor:
        return self.registry[name]

    def degree_window(self, menu: list[tuple[str, BoundedComplex]]) -> range:
        """Degrees checked for derived Hom between objects of ``menu``:
        |n| <= (widest span) + (largest global dimension) + 2."""
        span = max((x.hi - x.lo for _, x in menu if not x.is_zero()), default=0)
        w = span + max(self.global_dimensions.values()) + 2
        return range(-w, w + 1)

    def apply_expr(self, expr: FunctorExpr, x: BoundedComplex) -> BoundedComplex:
        src = self._sources.value(expr, lambda: self.algebra_of(expr.signature(self.registry)[0]))
        if x.algebra is not src:
            raise TagMismatchError(
                f"object over {x.algebra.name} fed to {expr.steps}"
            )
        cur = x
        for name in expr.steps:
            cur = self.registry[name].apply(cur)
        return cur

    def apply_expr_mor(self, expr: FunctorExpr, mor: Mor) -> Mor:
        cur = mor
        for name in expr.steps:
            cur = self.registry[name].apply_mor(cur)
        return cur


def build_recollement(
    a: Algebra,
    e_vertices,
    ctx: DerivedContext | None = None,
    gldim_cap: int = 12,
    seed: int = 0,
    attempts: int = 64,
) -> Recollement:
    """Construct B = A/AeA, C = eAe, the six functors, and run the
    stratifying and finiteness checks.

    AeA is stratifying when the multiplication Ae (x)^L_C eA -> AeA is a
    quasi-isomorphism.  The certificate is that map itself, as a chain
    map whose cone is certified acyclic (:func:`_multiplication_map`);
    set-up draws no random map, so ``seed`` and ``attempts`` no longer
    change what it does.  They are kept for callers that pass them.
    """
    fld = a.field
    ctx = ctx or DerivedContext()
    b, projection, _ = idempotent_quotient(a, e_vertices)
    c, corner_rows = corner(a, e_vertices)
    e = a.idempotent_sum(e_vertices)

    eA_rows = fld.image_basis(a.left_mult_operator(e))
    Ae_rows = fld.image_basis(a.right_mult_operator(e))
    ae_ea = fld.matmul(eA_rows, a.left_mult_operator(Ae_rows))
    eA = sub_bimodule(
        c, a, eA_rows, a.left_mult_operator(corner_rows), a.right_operators, "eA"
    )
    Ae = sub_bimodule(
        a, c, Ae_rows, a.left_operators, a.right_mult_operator(corner_rows), "Ae"
    )
    # B as a bimodule on both sides of the projection; proved, as the
    # projection is a unital algebra map A ->> B
    B_ba = Bimodule(b, a, b.left_operators, b.right_mult_operator(projection), name="B (B|A)", validate=False)
    B_ab = Bimodule(a, b, b.left_mult_operator(projection), b.right_operators, name="B (A|B)", validate=False)

    e_in_eA = fld.coords_in_rows(eA_rows, e.reshape(1, -1))[0]
    e_in_Ae = fld.coords_in_rows(Ae_rows, e.reshape(1, -1))[0]

    gldims = {
        "A": global_dimension(a, gldim_cap),
        "B": global_dimension(b, gldim_cap),
        "C": global_dimension(c, gldim_cap),
    }

    # ideal AeA as a right submodule of A
    ideal_rows = fld.image_basis(ideal_span(a, e_vertices))

    # stratifying condition: Ae (x)^L_{eAe} eA ~= AeA concentrated in degree 0
    ae_stalk = stalk_complex(Ae.as_right_module(name="Ae (right C)"))
    derived, tensors = ctx.derived_tensor(ae_stalk, eA)
    expected = {0: ideal_rows.shape[0]} if ideal_rows.shape[0] else {}
    got = homology_dims(derived)
    if got != expected:
        raise NotStratifyingError(
            f"multiplication Ae (x)_C eA -> AeA is not a quasi-isomorphism: "
            f"homology {got}, expected {expected}"
        )
    ideal_mod, _ = submodule_from_rows(regular_module(a), ideal_rows, name="AeA")
    # degree 0 of the derived tensor is nonzero: its homology is AeA, and e lies in AeA
    q0 = ctx.replacement(ae_stalk).qis.comp(0)
    mu = _multiplication_map(tensors[0], q0, ae_ea, ideal_mod, ideal_rows)
    cert = ctx.certificate_for_map(ChainMap(derived, stalk_complex(ideal_mod), {0: mu}))
    if not cert.certified:
        raise NotStratifyingError("no derived-iso certificate for the stratifying map")

    rec = Recollement(
        algebra=a,
        quotient_algebra=b,
        corner_algebra=c,
        e_vertices=sorted(set(e_vertices)),
        eA=eA,
        Ae=Ae,
        B_ba=B_ba,
        B_ab=B_ab,
        eA_rows=eA_rows,
        Ae_rows=Ae_rows,
        ae_ea=ae_ea,
        e_in_eA=e_in_eA,
        e_in_Ae=e_in_Ae,
        ideal_rows=ideal_rows,
        global_dimensions=gldims,
        stratifying_certificate=cert,
        ctx=ctx,
    )
    rec.registry["i_*"] = RestrictionFunctor(ctx, a, projection)
    rec.registry["i^*"] = DerivedTensorFunctor(ctx, B_ab, "i^*", "A", "B")
    rec.registry["i^!"] = DualDerivedTensorFunctor(ctx, B_ba, "i^!", "A", "B")
    rec.registry["j^*"] = ExactTensorFunctor(ctx, Ae, "j^*", "A", "C")
    rec.registry["j_!"] = DerivedTensorFunctor(ctx, eA, "j_!", "C", "A")
    rec.registry["j_*"] = DualDerivedTensorFunctor(ctx, Ae, "j_*", "C", "A")
    return rec


def _multiplication_map(
    t: TensorResult,
    q0: np.ndarray,
    ae_ea: np.ndarray,
    ideal_mod: RightModule,
    ideal_rows: np.ndarray,
) -> np.ndarray:
    """Degree 0 of the multiplication Ae (x)^L_C eA -> AeA, in the basis
    ``ideal_rows`` of AeA.

    ``t`` is p^0 (x)_C eA for the replacement q: p -> Ae, and the map is
    class(v (x) w) |-> (v q^0) w: the section picks a pure tensor for
    each class, and ``ae_ea`` multiplies.  The products lie in AeA,
    whose echelon basis reads them off at its pivots.  A map that is not
    A-linear is a library bug, so it raises ``RuntimeError``.
    """
    fld = ideal_mod.field
    d_ae, d_ea, d_a = ae_ea.shape
    # [i, l] is (v_i q^0) ea_l in A-coords, for the basis v_i of p^0
    pairs = fld.matmul(q0, ae_ea.reshape(d_ae, d_ea * d_a))
    products = fld.matmul(t.section, pairs.reshape(t.m_dim * t.w_dim, d_a))
    mu = fld.coords_in_rows(ideal_rows, products)
    if mu is None:
        raise RuntimeError("multiplication Ae (x)_C eA -> AeA leaves AeA")
    # A-linear: rho(b) mu == mu rho'(b) for every basis element b at once
    if not np.array_equal(fld.matmul(t.module.action, mu), fld.matmul(mu, ideal_mod.action)):
        raise RuntimeError("multiplication Ae (x)_C eA -> AeA is not A-linear")
    return mu


# ----------------------------------------------------------------------
# primitive adjunction providers
# ----------------------------------------------------------------------


class AdjunctionProvider:
    """Explicit Hom(Fx, y) ~= Hom(x, Gy) at the level of chosen bases,
    for the functor expressions ``f_expr`` -| ``g_expr``.  A subclass
    gives the classes (``forward``, ``backward``) and the matrices
    (``forward_matrix``, ``backward_matrix``).  The matrices are built
    once per content of ``(x, y)`` and shared as they are: plain numbers
    in shared bases.  The unit is the forward image of the identity of
    F x and the counit the backward image of the identity of G y; one
    identity map is both the carrier and the ``src_qis`` of that
    class."""

    name = "?"

    def __init__(self, rec: Recollement, f_expr: FunctorExpr, g_expr: FunctorExpr):
        self.rec = rec
        self.ctx = rec.ctx
        self.f_expr = f_expr
        self.g_expr = g_expr

    def F_apply(self, x):
        return self.rec.apply_expr(self.f_expr, x)

    def G_apply(self, y):
        return self.rec.apply_expr(self.g_expr, y)

    def F_mor(self, mor):
        return self.rec.apply_expr_mor(self.f_expr, mor)

    def G_mor(self, mor):
        return self.rec.apply_expr_mor(self.g_expr, mor)

    def forward(self, x, y, mor: Mor) -> Mor:
        raise NotImplementedError

    def backward(self, x, y, mor: Mor) -> Mor:
        raise NotImplementedError

    # -- derived data ---------------------------------------------------

    def lhs_space(self, x, y):
        return self.ctx.hom_space(self.F_apply(x), y)

    def rhs_space(self, x, y):
        return self.ctx.hom_space(x, self.G_apply(y))

    def unit(self, x) -> Mor:
        """x -> G F x as the forward image of the identity."""
        fx = self.F_apply(x)
        ident = identity_map(fx)
        return self.forward(x, fx, Mor(fx, fx, ident, ident))

    def counit(self, y) -> Mor:
        """F G y -> y as the backward image of the identity."""
        gy = self.G_apply(y)
        ident = identity_map(gy)
        return self.backward(gy, y, Mor(gy, gy, ident, ident))


def _evaluate(fld, rows: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Row ``(r, s)`` is ``sum_v rows[r, v] ev[v, s]``: each row paired
    with each basis element s of a bimodule through the evaluation stack
    ``ev`` of shape (v, s, u)."""
    v, s, u = ev.shape
    return fld.matmul(rows, ev.reshape(v, s * u)).reshape(rows.shape[0] * s, u)


class PrimitiveAdjunction(AdjunctionProvider):
    """F -| G for two functors of the registry, named "(F, G)".  Each
    matrix is the coordinates of the images of a basis, in one
    :class:`~gluecat.algebra._Memo` per direction.

    The image of a class is built once per content of ``(x, y)`` and of
    its carrier and ``src_qis``, by ``_forward_image`` or
    ``_backward_image``, in one memo with the units of a dual-shape
    pair.  A builder reads its class through
    :func:`~gluecat.complexes.present_class`, which builds no hom space.
    A hit is handed out on the caller's own x (forward) or y (backward);
    its chain maps sit on the objects it was built for, which the
    content guards accept."""

    def __init__(self, rec: Recollement, f: str, g: str):
        super().__init__(rec, FunctorExpr((f,)), FunctorExpr((g,)))
        self.name = f"({f}, {g})"
        self.F, self.G = rec.functor(f), rec.functor(g)
        self._forward, self._backward = _Memo(), _Memo()  # (x, y) -> matrix
        self._images = _Memo()  # (direction, x, y, carrier, src_qis) -> Mor; ("unit", x) -> ChainMap

    def forward(self, x, y, mor: Mor) -> Mor:
        key = ("forward", x.key, y.key, mor.map.key, mor.src_qis.key)
        image = self._images.value(key, self._forward_image, x, y, mor)
        return image if image.x is x else Mor(x, image.y, image.map, image.src_qis)

    def backward(self, x, y, mor: Mor) -> Mor:
        key = ("backward", x.key, y.key, mor.map.key, mor.src_qis.key)
        image = self._images.value(key, self._backward_image, x, y, mor)
        return image if image.y is y else Mor(image.x, y, image.map, image.src_qis)

    def forward_matrix(self, x, y) -> np.ndarray:
        return self._forward.value((x.key, y.key), self._build_forward, x, y)

    def backward_matrix(self, x, y) -> np.ndarray:
        return self._backward.value((x.key, y.key), self._build_backward, x, y)

    def _build_forward(self, x, y) -> np.ndarray:
        lhs, rhs = self.lhs_space(x, y), self.rhs_space(x, y)
        return rhs.coords_of_all([self.forward(x, y, mor) for mor in lhs.basis_mors()])

    def _build_backward(self, x, y) -> np.ndarray:
        lhs, rhs = self.lhs_space(x, y), self.rhs_space(x, y)
        return lhs.coords_of_all([self.backward(x, y, mor) for mor in rhs.basis_mors()])


class TensorShapeAdjunction(PrimitiveAdjunction):
    """F = - (x)^L W a derived tensor, G its exact right adjoint:
    Hom(R_x (x) W, y) ~= Hom(R_x, G y).

    ``forward`` sends phi to v |-> phi(q^-1 (v (x) w0)), read in G y
    through ``_into_g``; ``backward`` sends psi to the evaluation
    class(v (x) w) |-> psi(v) . w after the qis of R_{Fx}.  A pair
    supplies w0, ``_into_g`` (y^n -> (G y)^n) and ``_evaluation``, the
    stack ``ev[v, w, :]`` = (basis vector v of (G y)^n) . w in y^n.
    """

    def _forward_image(self, x, y, mor):
        ctx = self.ctx
        fx = self.F_apply(x)
        phi = present_class(ctx, mor, fx, y)  # R_{Fx} -> y
        inverse = ctx.replacement(fx).inverse
        if inverse is None:
            raise RuntimeError(f"{self.F.name}-output should have projective terms")
        tensors = self.F.aux(x)["tensors"]
        rep_x = ctx.replacement(x)
        gy = self.G_apply(y)
        comps = {}
        for n in rep_x.p.degrees():
            if n in inverse.comps and y.term(n).dim:  # else the component is zero
                ins = tensors[n].insert_right(self._w0())
                into_g = self._into_g(y, n)
                comps[n] = x.field.mul_chain(ins, inverse.comps[n], phi.comp(n), into_g)
        return Mor(x, gy, ChainMap(rep_x.p, gy, comps), rep_x.qis)

    def _backward_image(self, x, y, mor):
        ctx = self.ctx
        psi = present_class(ctx, mor, x, self.G_apply(y))  # R_x -> G y
        fx = self.F_apply(x)
        tensors = self.F.aux(x)["tensors"]
        rep_fx = ctx.replacement(fx)
        fld = x.field
        comps = {}
        for n in fx.degrees():
            if y.term(n).dim:  # else the component is zero
                amb = _evaluate(fld, psi.comp(n), self._evaluation(y, n))
                comps[n] = fld.mul_chain(rep_fx.qis.comp(n), tensors[n].section, amb)
        return Mor(fx, y, ChainMap(rep_fx.p, y, comps), rep_fx.qis)


class DualShapeAdjunction(PrimitiveAdjunction):
    """F exact, G = D(D(-) (x)^L W) its dual derived tensor right adjoint.

    The unit x -> G F x is D(nu) of the evaluation pairing
    nu: R_{D(Fx)} (x) W -> D(x), built once per content of x;
    ``forward`` is the unit followed by
    G(phi); ``backward`` lifts F(psi) . mu through D(q_{R_{Dy}}), where
    mu: F G y -> D(R_{Dy}) evaluates against R_{Dy} (x) W.  A pair
    supplies ``_evaluation``, the stack ``ev[v, w, :]`` of nu at degree
    m (v a basis vector of D(Fx)^m), and ``_counit_block``, mu at a degree.
    """

    def _unit(self, x) -> ChainMap:
        ctx, fld = self.ctx, x.field
        fx = self.F_apply(x)
        out = self.G.apply(fx)
        aux = self.G.aux(fx)
        rep_d = ctx.replacement(ctx.dual(fx))
        nu = {}
        for m in aux["pre"].degrees():
            if x.term(-m).dim:  # else the component is zero
                amb = _evaluate(fld, rep_d.qis.comp(m), self._evaluation(x, m))
                nu[m] = fld.matmul(aux["tensors"][m].section, amb)
        nu_map = ChainMap(aux["pre"], ctx.dual(x), nu)
        return dual_chain_map(nu_map, dual_source=out, dual_target=x)

    def _forward_image(self, x, y, mor):
        ctx = self.ctx
        fx = self.F_apply(x)
        phi_hat = present_class(ctx, mor, fx, y)
        eta = self._images.value(("unit", x.key), self._unit, x)
        g_phi = self.G_mor(Mor(fx, y, phi_hat, ctx.replacement(fx).qis))
        psi = compose_maps(eta, g_phi.map)
        return Mor(x, self.G_apply(y), psi, identity_map(x))

    def _backward_image(self, x, y, mor):
        ctx = self.ctx
        gy = self.G_apply(y)
        psi = present_class(ctx, mor, x, gy)  # R_x -> G y
        fx, f_gy = self.F_apply(x), self.F.apply(gy)
        f_psi = self.F.apply_mor(Mor(x, gy, psi, ctx.replacement(x).qis))
        tensors = self.G.aux(y)["tensors"]
        rep_dy = ctx.replacement(ctx.dual(y))
        d_rdy = ctx.dual(rep_dy.p)
        mu = {d: self._counit_block(y, d) for d in f_gy.degrees() if -d in tensors}
        mu_map = ChainMap(f_gy, d_rdy, mu)
        # y == DD(y) on the nose, so D(q_{R_{Dy}}) runs y -> D(R_{Dy})
        s = dual_chain_map(rep_dy.qis, dual_source=d_rdy, dual_target=y)
        rep_fx = ctx.replacement(fx)
        phi_pre = present_class(ctx, f_psi, fx, f_gy)  # R_{Fx} -> F G y
        g = ctx.lift_through_qis(rep_fx.p, compose_maps(phi_pre, mu_map), s)
        return Mor(fx, y, g, rep_fx.qis)


class StarPullbackAdjunction(TensorShapeAdjunction):
    """(i^*, i_*):  Hom_B(X (x)^L B, Y') ~= Hom_A(X, res Y')."""

    def _w0(self):
        return self.rec.quotient_algebra.unit

    def _into_g(self, y, n):
        return y.field.identity(y.term(n).dim)

    def _evaluation(self, y, n):
        return y.term(n).action.transpose(1, 0, 2)  # v . b for b in B


class ShriekPullbackAdjunction(TensorShapeAdjunction):
    """(j_!, j^*):  Hom_A(N (x)^L eA, X) ~= Hom_C(N, X e)."""

    def _w0(self):
        return self.rec.e_in_eA

    def _into_g(self, x, d):
        return self.G.aux(x)["tensors"][d].insert_right(self.rec.e_in_Ae)

    def _evaluation(self, x, d):
        # class(v (x) ae) (x) ea |-> v . (ae * ea), for every quotient
        # coordinate of x (x) Ae and every eA basis element
        p = x.field.p
        xtens, act = self.G.aux(x)["tensors"][d], x.term(d).action
        ops = np.einsum("jlk,kiu->jliu", self.rec.ae_ea, act) % p
        sec = xtens.section.reshape(xtens.module.dim, xtens.m_dim, xtens.w_dim)
        return np.einsum("sij,jliu->slu", sec, ops) % p


class PushShriekAdjunction(DualShapeAdjunction):
    """(i_*, i^!):  Hom_A(i_* Y', X) ~= Hom_B(Y', i^! X)."""

    def _evaluation(self, yp, m):
        return yp.term(-m).action.transpose(2, 0, 1)  # f |-> (v |-> f(v . b))

    def _counit_block(self, x, d):
        # evaluation at p (x) 1_B
        return self.G.aux(x)["tensors"][-d].insert_right(self.rec.quotient_algebra.unit).T


class StarPushAdjunction(DualShapeAdjunction):
    """(j^*, j_*):  Hom_C(X e, N) ~= Hom_A(X, j_* N)."""

    def _evaluation(self, x, m):
        # f |-> (v |-> f(class(v (x) w))) on x^{-m}
        xtens = self.F.aux(x)["tensors"][-m]
        return xtens.pi.reshape(xtens.m_dim, xtens.w_dim, xtens.module.dim).transpose(2, 1, 0)

    def _counit_block(self, n_obj, d):
        # class(f (x) w) |-> (p |-> f(p (x) w)): read off the tensor
        # projection of R_{Dn} (x) flip(Ae) at degree -d
        ftens = self.F.aux(self.G.apply(n_obj))["tensors"][d]
        ptens = self.G.aux(n_obj)["tensors"][-d]
        r, w, u = ptens.m_dim, ptens.w_dim, ptens.module.dim
        amb = ptens.pi.reshape(r, w, u).transpose(2, 1, 0).reshape(u * w, r)
        return n_obj.field.matmul(ftens.section, amb)


def primitive_adjunctions(rec: Recollement) -> dict[str, AdjunctionProvider]:
    rows = (
        (StarPullbackAdjunction, "i^*", "i_*"),
        (PushShriekAdjunction, "i_*", "i^!"),
        (ShriekPullbackAdjunction, "j_!", "j^*"),
        (StarPushAdjunction, "j^*", "j_*"),
    )
    providers = [cls(rec, f, g) for cls, f, g in rows]
    return {p.name: p for p in providers}


# ----------------------------------------------------------------------
# morphism-class utilities
# ----------------------------------------------------------------------


def compose_mor(ctx: DerivedContext, m1: Mor, m2: Mor) -> Mor:
    """Class composition x --m1--> y --m2--> z."""
    if not _same_content(m1.y, m2.x):
        raise ValueError("compose_mor: middle objects differ")
    via = present_class(ctx, m1)
    return Mor(m1.x, m2.y, present_class(ctx, m2, via=via), ctx.replacement(m1.x).qis)


def mor_from_coords(hs, coords: np.ndarray) -> Mor:
    """Materialize a class from homology coordinates of a hom space: the
    chain map with Hom-complex coordinates ``coords @ hs.h_reps``."""
    vec = hs.fld.matmul(np.reshape(coords, (1, -1)), hs.h_reps)[0]
    return Mor(hs.x, hs.y, hs.hc.vector_to_chain_map(vec), hs.p_qis)


# ----------------------------------------------------------------------
# pipelines and diagram description
# ----------------------------------------------------------------------


@dataclass
class PipelineFunctor:
    """A functor expression bound to a recollement, usable in diagrams."""

    rec: Recollement
    expr: FunctorExpr
    label: str

    def apply(self, x: BoundedComplex) -> BoundedComplex:
        return self.rec.apply_expr(self.expr, x)


@dataclass
class AdjointPair:
    """A claimed adjunction F -| G, optionally with explicit witnesses."""

    label: str
    F: PipelineFunctor
    G: PipelineFunctor
    provider: AdjunctionProvider | None


@dataclass
class DiagramSpec:
    """Six functor pipelines in recollement positions.

    Positions are named generically: ``emb`` embeds the closed piece,
    ``quot`` maps onto the open piece, and left/right are their adjoints.
    """

    label: str
    rec: Recollement
    s_tag: str
    u_tag: str
    emb: PipelineFunctor
    emb_left: PipelineFunctor
    emb_right: PipelineFunctor
    quot: PipelineFunctor
    quot_left: PipelineFunctor
    quot_right: PipelineFunctor
    pairs: dict[str, AdjointPair] = dc_field(default_factory=dict)


# expanded five-step primitive compositions of the four new adjoints,
# in application order
NEW_ADJOINT_EXPRS = {
    "i_!": FunctorExpr(("i_*", "T", "i^!", "i_*", "T~")),
    "j^?": FunctorExpr(("T", "j^*", "j_*", "T~", "j^*")),
    "i_?": FunctorExpr(("i_*", "T~", "i^*", "i_*", "T")),
    "j^!": FunctorExpr(("T~", "j^*", "j_!", "T", "j^*")),
}

POSITIONS = ("emb", "emb_left", "emb_right", "quot", "quot_left", "quot_right")

# diagram label -> (s_tag, u_tag, the functor in each of POSITIONS)
DIAGRAM_LAYOUTS = {
    "original": ("B", "C", ("i_*", "i^*", "i^!", "j^*", "j_!", "j_*")),
    "upper": ("C", "B", ("j_!", "j^?", "j^*", "i^*", "i_!", "i_*")),
    "lower": ("C", "B", ("j_*", "j^*", "j^!", "i^!", "i_*", "i_?")),
}

# the positions of each adjoint pair (F, G); its provider is the one
# named "(F, G)"
PAIR_POSITIONS = {
    "P1": ("emb_left", "emb"),
    "P2": ("emb", "emb_right"),
    "P3": ("quot_left", "quot"),
    "P4": ("quot", "quot_right"),
}


def layout_diagram(
    rec: Recollement, label: str, providers: dict[str, AdjunctionProvider]
) -> DiagramSpec:
    """The diagram ``label`` of :data:`DIAGRAM_LAYOUTS`, each adjoint pair
    witnessed by its provider in ``providers`` (or by none)."""
    s_tag, u_tag, names = DIAGRAM_LAYOUTS[label]
    funcs = {
        pos: PipelineFunctor(rec, NEW_ADJOINT_EXPRS.get(name, FunctorExpr((name,))), name)
        for pos, name in zip(POSITIONS, names)
    }
    pairs = {}
    for key, (f, g) in PAIR_POSITIONS.items():
        pair_label = f"({funcs[f].label}, {funcs[g].label})"
        pairs[key] = AdjointPair(pair_label, funcs[f], funcs[g], providers.get(pair_label))
    return DiagramSpec(label, rec, s_tag, u_tag, pairs=pairs, **funcs)


def original_diagram(rec: Recollement, providers: dict[str, AdjunctionProvider] | None = None) -> DiagramSpec:
    if providers is None:
        providers = primitive_adjunctions(rec)
    return layout_diagram(rec, "original", providers)


# ----------------------------------------------------------------------
# menus
# ----------------------------------------------------------------------


# the module of a menu stalk at a vertex, by the letter of its name
_MENU_STALKS = {
    "P": lambda a, v: projective_module(a, v)[0],
    "S": simple_module,
    "I": injective_module,
}


class DefaultMenu:
    """The default menu of one category, built an entry at a time.

    Stalks of all projectives, simples and injectives, the regular
    stalk, one shift and one cone of a nonzero hom.  Each entry is built
    on first request and kept, so one entry builds only what it is made
    of, and the whole menu builds each stalk once and searches for the
    cone's hom once.
    """

    def __init__(self, rec: Recollement, tag: str):
        self.tag = tag
        self.algebra = rec.algebra_of(tag)
        n = self.algebra.n_idempotents
        self._stalks = {f"{kind}{v + 1}": (kind, v) for kind in _MENU_STALKS for v in range(n)}
        self._built = _Memo()

    def names(self) -> list[str]:
        """The entry names, in menu order."""
        return [*self._stalks, "R", "P1[1]", self._cone[0]]

    def has(self, name: str) -> bool:
        """Whether the menu has an entry ``name``; only a cone name runs
        the search for the cone's hom."""
        if name.startswith("cone("):
            return name == self._cone[0]
        return name in self._stalks or name in ("R", "P1[1]")

    def get(self, name: str) -> BoundedComplex | None:
        """The entry ``name``, or None if the menu has no such entry."""
        return self._built.value(name, self._build, name)

    def _build(self, name: str) -> BoundedComplex | None:
        a, tag = self.algebra, self.tag
        if name in self._stalks:
            kind, v = self._stalks[name]
            return stalk_complex(_MENU_STALKS[kind](a, v), name=f"{tag}:{name}")
        if name == "R":
            return stalk_complex(regular_module(a), name=f"{tag}:R")
        if name == "P1[1]":
            return shift(self.get("P1"), 1)
        cone_name, i, j, f = self._cone
        if name != cone_name:
            return None
        src, tgt = self.get(f"P{i + 1}"), self.get(f"P{j + 1}")
        cm = identity_map(src) if f is None else ChainMap(src, tgt, {0: f})
        return cone(cm, name=f"{tag}:cone")

    @functools.cached_property
    def _cone(self) -> tuple[str, int, int, np.ndarray | None]:
        """``(name, i, j, f)`` for the first nonzero hom f: P_{i+1} ->
        P_{j+1} with i != j; with none, the identity of P1 (f None)."""
        projs = projectives(self.algebra)
        for i, pi in enumerate(projs):
            for j, pj in enumerate(projs):
                basis = hom_basis_matrices(pi, pj) if i != j else []
                if basis:
                    return f"cone(P{i + 1}->P{j + 1})", i, j, basis[0]
        return "cone(P1->P1)", 0, 0, None


def default_menu(rec: Recollement, tag: str) -> list[tuple[str, BoundedComplex]]:
    """Every entry of the :class:`DefaultMenu` of ``tag``, in order."""
    menu = DefaultMenu(rec, tag)
    return [(name, menu.get(name)) for name in menu.names()]


def default_menus(rec: Recollement) -> dict[str, list[tuple[str, BoundedComplex]]]:
    return {tag: default_menu(rec, tag) for tag in CATEGORY_TAGS}


# ----------------------------------------------------------------------
# verification report
# ----------------------------------------------------------------------


@dataclass
class Cell:
    axiom: str
    diagram: str
    objects: str
    expected: object
    actual: object
    verdict: str          # "pass" | "fail" | "not-certified"
    note: str = ""
    certificate: str | None = None

    def to_dict(self):
        out = {
            "axiom": self.axiom,
            "diagram": self.diagram,
            "objects": self.objects,
            "expected": _jsonable(self.expected),
            "actual": _jsonable(self.actual),
            "verdict": self.verdict,
            "note": self.note,
        }
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


def _jsonable(v):
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in sorted(v.items(), key=lambda kv: str(kv[0]))}
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, np.ndarray):
        return [[int(e) for e in row] for row in v.reshape(v.shape[0], -1)]
    return v


@dataclass
class VerificationReport:
    diagram: str
    cells: list[Cell]
    coverage: dict

    def sorted_cells(self):
        return sorted(self.cells, key=lambda c: (c.axiom, c.objects, c.note))

    def counts(self):
        out = {"pass": 0, "fail": 0, "not-certified": 0}
        for c in self.cells:
            out[c.verdict] = out.get(c.verdict, 0) + 1
        return out


class _Cells:
    """The cells of one report, each made by the ``record`` of a check.

    A check opens :meth:`check` with its axiom, objects, expected value
    and note; its body records only what it measured,
    ``record(actual, verdict, certificate=...)``, passing ``expected`` or
    ``note`` where its cell says more than the opening did.  An exception
    in the body becomes the cell of the opening, naming the exception
    type and message: a ``MemoryError`` says nothing about the
    mathematics, so that cell is inconclusive ("not-certified"); any
    other exception fails it.
    """

    def __init__(self, diagram: str):
        self.diagram = diagram
        self.cells: list[Cell] = []

    @contextmanager
    def check(self, axiom: str, objects: str, expected, note: str = ""):
        def record(actual, verdict: str, certificate=None, expected=expected, note=note):
            cell = Cell(axiom, self.diagram, objects, expected, actual, verdict, note, certificate)
            self.cells.append(cell)

        try:
            yield record
        except MemoryError as exc:
            record(f"error: MemoryError: {exc}", "not-certified")
        except Exception as exc:
            record(f"error: {type(exc).__name__}: {exc}", "fail")

    def report(self, coverage: dict) -> VerificationReport:
        return VerificationReport(self.diagram, self.cells, coverage)

    def vacuous(self, axiom: str) -> VerificationReport:
        """The report of a suite run on an empty menu: one passing cell."""
        with self.check(axiom, "(empty menu)", {}, "vacuous: empty test menu") as record:
            record({}, "pass")
        return self.report({"warning": "empty menu"})


# ----------------------------------------------------------------------
# the axiom verifier
# ----------------------------------------------------------------------


def _window_dims(dims: dict[int, int], window: range, sign: int = 1) -> dict[int, int]:
    """The nonzero ``dims`` at each degree n of ``window``, read at
    ``sign * n``: with sign -1 the dimensions are mirrored."""
    return {n: dims.get(sign * n, 0) for n in window if dims.get(sign * n, 0)}


def _unwitnessed(pair: AdjointPair, record, expected, note: str = "") -> bool:
    """Whether ``pair`` has no adjunction witness; its check then records
    that it cannot certify anything."""
    if pair.provider is None:
        record("no adjunction witness", "not-certified", expected=expected, note=note)
    return pair.provider is None


def _certify_map(ctx: DerivedContext, record, mor: Mor):
    """Record whether ``mor`` is a derived isomorphism, by its cone."""
    cert = ctx.certificate_for_map(mor.map)
    verdict = "pass" if cert.certified else "fail"
    record({"cone_homology": cert.cone_homology}, verdict, certificate=cert.status)


def verify_axioms(
    diagram: DiagramSpec,
    menus: dict[str, list[tuple[str, BoundedComplex]]],
    seed: int,
    attempts: int = 64,
    matrix_pairs: int = 4,
) -> VerificationReport:
    """Run the full recollement-axiom suite on finite test menus.

    Dimension checks cover every test pair in a provably sufficient
    degree window; explicit adjunction matrices and naturality squares
    run on a deterministic sample of pairs per adjunction.
    """
    rec = diagram.rec
    ctx = rec.ctx
    cells = _Cells(diagram.label)

    menu_a = menus["A"]
    menu_s = menus[diagram.s_tag]
    menu_u = menus[diagram.u_tag]
    if not (menu_a and menu_s and menu_u):
        return cells.vacuous("R1.1")
    window = rec.degree_window(menu_a + menu_s + menu_u)

    # ---- R1.1: adjunction dimension equalities -------------------------
    pair_tests = {
        "P1": (menu_a, menu_s),
        "P2": (menu_s, menu_a),
        "P3": (menu_u, menu_a),
        "P4": (menu_a, menu_u),
    }
    for key in ("P1", "P2", "P3", "P4"):
        pair = diagram.pairs[key]
        xs, ys = pair_tests[key]
        scored = []
        for xn, x in xs:
            for yn, y in ys:
                objects = f"{pair.label} x={xn} y={yn}"
                with cells.check("R1.1", objects, "equal derived Hom dimensions", "dims") as record:
                    lhs = _window_dims(ctx.derived_hom_dims(pair.F.apply(x), y), window)
                    rhs = _window_dims(ctx.derived_hom_dims(x, pair.G.apply(y)), window)
                    record(lhs, "pass" if lhs == rhs else "fail", expected=rhs)
                    scored.append((lhs.get(0, 0) > 0, xn, x, yn, y))
        if pair.provider is None:
            continue
        # explicit matrices on a deterministic sample, nonzero pairs first
        scored.sort(key=lambda t: (not t[0], t[1], t[3]))
        for (_, xn, x, yn, y) in scored[:matrix_pairs]:
            objects = f"{pair.label} x={xn} y={yn}"
            with cells.check("R1.1", objects, "invertible adjunction matrix", "matrix") as record:
                fwd = pair.provider.forward_matrix(x, y)
                bwd = pair.provider.backward_matrix(x, y)
                fld = x.field
                sq = fwd.shape[0] == fwd.shape[1] == bwd.shape[0]
                ok = sq and np.array_equal(
                    fld.matmul(fwd, bwd), fld.identity(fwd.shape[0])
                ) and np.array_equal(fld.matmul(bwd, fwd), fld.identity(fwd.shape[0]))
                record(f"dims {fwd.shape}, mutually inverse: {ok}", "pass" if ok else "fail")
        # naturality squares on the first sampled pair
        if scored:
            _, xn, x, yn, y = scored[0]
            objects = f"{pair.label} x={xn} y={yn}"
            squares = "commuting naturality squares"
            with cells.check("R1.1", objects, squares, "naturality") as record:
                ok, note = _check_naturality(ctx, pair, xs, ys, x, y)
                record(note, "pass" if ok else "fail")

    # ---- R1.2: vanishing composites ------------------------------------
    vanishing = [("R1.2", f"quot∘emb {yn}", (diagram.emb, diagram.quot), y) for yn, y in menu_s]
    for nn, n in menu_u:
        vanishing.append(("R1.2c1", f"emb_left∘quot_left {nn}", (diagram.quot_left, diagram.emb_left), n))
        vanishing.append(("R1.2c2", f"emb_right∘quot_right {nn}", (diagram.quot_right, diagram.emb_right), n))
    for axiom, objects, (first, second), obj in vanishing:
        with cells.check(axiom, objects, {}) as record:
            hd = homology_dims(second.apply(first.apply(obj)))
            record(hd, "pass" if hd == {} else "fail")

    # ---- R1.3: fully faithful embeddings --------------------------------
    r13 = [
        ("emb", diagram.pairs["P1"], "counit", menu_s),
        ("quot_left", diagram.pairs["P3"], "unit", menu_u),
        ("quot_right", diagram.pairs["P4"], "counit", menu_u),
    ]
    for label, pair, kind, menu in r13:
        for on, o in menu:
            with cells.check("R1.3", f"{label} at {on}", "derived iso", kind) as record:
                if not _unwitnessed(pair, record, "derived iso"):
                    _certify_map(ctx, record, getattr(pair.provider, kind)(o))

    # ---- R1.4: the two gluing triangles ---------------------------------
    tri = [
        ("R1.4a", diagram.pairs["P2"], diagram.quot_right, diagram.quot),
        ("R1.4b", diagram.pairs["P3"], diagram.emb, diagram.emb_left),
    ]
    for axiom, pair, outerF, outerG in tri:
        for xn, x in menu_a:
            with cells.check(axiom, f"X={xn}", "triangle", "cone vs third vertex") as record:
                if _unwitnessed(pair, record, "cone matches third vertex"):
                    continue
                eps = pair.provider.counit(x)
                third = outerF.apply(outerG.apply(x))
                cone_cx = cone(eps.map)
                h_cone, h_third = homology_dims(cone_cx), homology_dims(third)
                if h_cone != h_third:
                    record(h_cone, "fail", expected=h_third, note="cone homology mismatch")
                    continue
                cert = ctx.derived_iso_certificate(cone_cx, third, seed=seed, attempts=attempts)
                record(h_cone, cert.verdict, expected=h_third, certificate=cert.status)

    # ---- kernels match essential images ---------------------------------
    # objects killed by emb_left lie in the essential image of quot_left,
    # and objects killed by quot lie in the essential image of emb; both
    # are certified through the corresponding counits
    essim_checks = [
        (diagram.emb_left, diagram.pairs["P3"], "Ker(emb_left) via counit of P3"),
        (diagram.quot, diagram.pairs["P2"], "Ker(quot) via counit of P2"),
    ]
    for killer, pair, note in essim_checks:
        for xn, x in menu_a:
            with cells.check("EssIm", f"X={xn}", "counit is a derived iso", note) as record:
                if homology_dims(killer.apply(x)) != {}:
                    continue
                if not _unwitnessed(pair, record, "counit iso", note):
                    _certify_map(ctx, record, pair.provider.counit(x))

    coverage = {
        "menus": {
            "A": [n for n, _ in menu_a],
            diagram.s_tag: [n for n, _ in menu_s],
            diagram.u_tag: [n for n, _ in menu_u],
        },
        "window": [window.start, window.stop - 1],
        "matrix_pairs_per_adjunction": matrix_pairs,
        "scope": "finite test menus; no universal claim",
    }
    return cells.report(coverage)


def _check_naturality(ctx, pair: AdjointPair, xs, ys, x, y):
    """Both paths around the naturality squares agree entrywise; each
    side of a square is reduced for all basis classes in one call."""
    provider = pair.provider
    # covariant square: g: y -> y'
    g_mor = None
    for yn2, y2 in ys:
        hs = ctx.hom_space(y, y2)
        if hs.dim:
            g_mor = (y2, hs.basis_mors()[0])
            break
    # contravariant square: f: x -> x'
    f_mor = None
    for xn2, x2 in xs:
        hs = ctx.hom_space(x, x2)
        if hs.dim:
            f_mor = (x2, hs.basis_mors()[0])
            break
    notes = []
    fx = pair.F.apply(x)
    if g_mor is not None:
        y2, g = g_mor
        rhs_space = ctx.hom_space(x, pair.G.apply(y2))
        gg = provider.G_mor(g)
        phis = ctx.hom_space(fx, y).basis_mors()
        left = [provider.forward(x, y2, compose_mor(ctx, phi, g)) for phi in phis]
        right = [compose_mor(ctx, provider.forward(x, y, phi), gg) for phi in phis]
        if not np.array_equal(rhs_space.coords_of_all(left), rhs_space.coords_of_all(right)):
            return False, "covariant square mismatch"
        notes.append("covariant ok")
    if f_mor is not None:
        x2, f = f_mor
        fx2 = pair.F.apply(x2)
        rhs_space = ctx.hom_space(x, pair.G.apply(y))
        ff = provider.F_mor(f)
        phis = ctx.hom_space(fx2, y).basis_mors()
        left = [provider.forward(x, y, compose_mor(ctx, ff, phi)) for phi in phis]
        right = [compose_mor(ctx, f, provider.forward(x2, y, phi)) for phi in phis]
        if not np.array_equal(rhs_space.coords_of_all(left), rhs_space.coords_of_all(right)):
            return False, "contravariant square mismatch"
        notes.append("contravariant ok")
    if not notes:
        notes.append("no nonzero test morphisms available")
    return True, "; ".join(notes)
