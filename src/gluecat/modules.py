"""Right modules over a finite-dimensional algebra.

Modules are given by action matrices in the row-vector convention:
``v * a == v @ module.operator(a)`` and ``operator(x*y) == operator(x) @
operator(y)``.  Homomorphisms f: M -> N are matrices applied on the right,
so composition "first f then g" is the matrix product f @ g.

Bimodules carry a commuting left action whose matrices compose in
left-action order, ``lam(x*y) == lam(y) @ lam(x)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, opposite
from .field import PrimeField

__all__ = [
    "RightModule",
    "ModuleHom",
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
    "injectives",
    "simples",
    "direct_sum",
    "submodule_from_rows",
    "hom_basis",
    "k_dual",
    "k_dual_hom",
    "tensor_over",
    "tensor_hom",
    "projective_cover",
    "resolution_data",
    "global_dimension",
    "ext_dims",
    "nakayama_bimodule",
]


class ResolutionExceedsCapError(RuntimeError):
    pass


class GlobalDimensionExceedsCapError(RuntimeError):
    pass


class RightModule:
    """Right module via one action matrix per algebra basis element."""

    def __init__(self, algebra: Algebra, action: np.ndarray, name: str = "", validate: bool = True):
        self.algebra = algebra
        self.action = np.asarray(action, dtype=np.int64) % algebra.field.p
        if self.action.ndim != 3 or self.action.shape[0] != algebra.dim:
            raise ValueError("action tensor must have shape (dim A, m, m)")
        if self.action.shape[1] != self.action.shape[2]:
            raise ValueError("action matrices must be square")
        self.dim = int(self.action.shape[1])
        self.name = name or f"module(dim={self.dim})"
        if validate:
            self.validate()

    def __repr__(self):
        return f"<{self.name} over {self.algebra.name}>"

    @property
    def field(self) -> PrimeField:
        return self.algebra.field

    def operator(self, coords: np.ndarray) -> np.ndarray:
        """Action matrix of the algebra element with the given coordinates."""
        return np.einsum("i,imn->mn", coords % self.field.p, self.action) % self.field.p

    def validate(self):
        p = self.field.p
        a = self.algebra
        if self.dim == 0:
            return
        if not np.array_equal(self.operator(a.unit), self.field.identity(self.dim)):
            raise ValueError(f"{self.name}: unit does not act as identity")
        lhs = np.einsum("ijk,kmn->ijmn", a.mul_table, self.action) % p
        rhs = np.einsum("imt,jtn->ijmn", self.action, self.action) % p
        if not np.array_equal(lhs, rhs):
            raise ValueError(f"{self.name}: action is not multiplicative")


@dataclass
class ModuleHom:
    source: RightModule
    target: RightModule
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.int64) % self.source.field.p
        if self.matrix.shape != (self.source.dim, self.target.dim):
            raise ValueError("hom matrix shape mismatch")

    def validate(self):
        f = self.matrix
        for i in range(self.source.algebra.dim):
            lhs = self.source.field.matmul(self.source.action[i], f)
            rhs = self.source.field.matmul(f, self.target.action[i])
            if not np.array_equal(lhs, rhs):
                raise ValueError("hom does not intertwine the actions")


class Bimodule:
    """Commuting left/right actions; the left matrices compose reversed."""

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
        self.dim = int(self.right_action.shape[1]) if self.right_action.size else int(self.right_action.shape[1])
        self.name = name or f"bimodule(dim={self.dim})"
        if validate:
            self.validate()

    def __repr__(self):
        return f"<{self.name}: {self.left_algebra.name} | {self.right_algebra.name}>"

    @property
    def field(self) -> PrimeField:
        return self.left_algebra.field

    def as_right_module(self, name: str = "") -> RightModule:
        return RightModule(self.right_algebra, self.right_action, name=name or self.name)

    def flip(self) -> "Bimodule":
        """Same space viewed as a bimodule over the opposite algebras."""
        return Bimodule(
            opposite(self.right_algebra),
            opposite(self.left_algebra),
            left_action=self.right_action,
            right_action=self.left_action,
            name=f"flip({self.name})",
        )

    def validate(self):
        p = self.field.p
        if self.dim == 0:
            return
        f = self.field
        ident = f.identity(self.dim)
        la, ra = self.left_algebra, self.right_algebra
        if not np.array_equal(np.einsum("i,imn->mn", la.unit, self.left_action) % p, ident):
            raise ValueError(f"{self.name}: left unit fails")
        if not np.array_equal(np.einsum("i,imn->mn", ra.unit, self.right_action) % p, ident):
            raise ValueError(f"{self.name}: right unit fails")
        # right action multiplicative
        lhs = np.einsum("ijk,kmn->ijmn", ra.mul_table, self.right_action) % p
        rhs = np.einsum("imt,jtn->ijmn", self.right_action, self.right_action) % p
        if not np.array_equal(lhs, rhs):
            raise ValueError(f"{self.name}: right action not multiplicative")
        # left action anti-multiplicative: lam(b_i b_j) == lam(b_j) @ lam(b_i)
        lhs = np.einsum("ijk,kmn->ijmn", la.mul_table, self.left_action) % p
        rhs = np.einsum("jmt,itn->ijmn", self.left_action, self.left_action) % p
        if not np.array_equal(lhs, rhs):
            raise ValueError(f"{self.name}: left action not anti-multiplicative")
        # the two actions commute
        lhs = np.einsum("imt,jtn->ijmn", self.left_action, self.right_action) % p
        rhs = np.einsum("jmt,itn->ijmn", self.right_action, self.left_action) % p
        if not np.array_equal(lhs, rhs):
            raise ValueError(f"{self.name}: actions do not commute")


# ----------------------------------------------------------------------
# basic constructors
# ----------------------------------------------------------------------


def zero_module(a: Algebra) -> RightModule:
    return RightModule(a, np.zeros((a.dim, 0, 0), dtype=np.int64), name="0")


def regular_module(a: Algebra) -> RightModule:
    action = np.stack([a.right_mult_operator(a.basis_vector(i)) for i in range(a.dim)])
    return RightModule(a, action, name=f"{a.name} (regular)")


def regular_bimodule(a: Algebra) -> Bimodule:
    right = np.stack([a.right_mult_operator(a.basis_vector(i)) for i in range(a.dim)])
    left = np.stack([a.left_mult_operator(a.basis_vector(i)) for i in range(a.dim)])
    return Bimodule(a, a, left, right, name=f"{a.name} (bimodule)")


def simple_module(a: Algebra, v: int) -> RightModule:
    action = np.zeros((a.dim, 1, 1), dtype=np.int64)
    action[a.idempotent_indices[v], 0, 0] = 1
    return RightModule(a, action, name=f"S{v + 1}")


def _restricted_action(a: Algebra, rows: np.ndarray, operators) -> np.ndarray:
    """Action of each basis element on the span of ``rows``."""
    fld = a.field
    mats = []
    for i in range(a.dim):
        img = fld.matmul(rows, operators(i))
        coords = fld.coords_in_rows(rows, img)
        if coords is None:
            raise ValueError("subspace is not stable under the action")
        mats.append(coords)
    if rows.shape[0] == 0:
        return np.zeros((a.dim, 0, 0), dtype=np.int64)
    return np.stack(mats)


def projective_module(a: Algebra, v: int) -> tuple[RightModule, np.ndarray, np.ndarray]:
    """P_v = e_v A.  Returns (module, basis rows in A-coords, generator coords).

    Built once per (algebra, vertex) and memoised on the algebra, so every
    caller shares the same tuple; its arrays are read-only.
    """
    hit = a._projectives.get(v)
    if hit is None:
        hit = _build_projective(a, v)
        for arr in (hit[0].action, hit[1], hit[2]):
            arr.setflags(write=False)
        a._projectives[v] = hit
    return hit


def _build_projective(a: Algebra, v: int) -> tuple[RightModule, np.ndarray, np.ndarray]:
    fld = a.field
    ev = a.idempotent_vector(v)
    rows = fld.image_basis(a.left_mult_operator(ev))
    mod = RightModule(
        a,
        _restricted_action(a, rows, lambda i: a.right_mult_operator(a.basis_vector(i))),
        name=f"P{v + 1}",
    )
    gen = fld.coords_in_rows(rows, ev.reshape(1, -1))
    if gen is None:
        raise ValueError("idempotent missing from its own projective")
    return mod, rows, gen[0]


def injective_module(a: Algebra, v: int) -> RightModule:
    """I_v = dual of the left module A e_v."""
    fld = a.field
    ev = a.idempotent_vector(v)
    rows = fld.image_basis(a.right_mult_operator(ev))
    aop = opposite(a)
    left_as_op = RightModule(
        aop,
        _restricted_action(aop, rows, lambda i: a.left_mult_operator(a.basis_vector(i))),
        name=f"Ae{v + 1} (over op)",
    )
    out = k_dual(left_as_op)
    out.name = f"I{v + 1}"
    return out


def projectives(a: Algebra) -> list[RightModule]:
    return [projective_module(a, v)[0] for v in range(a.n_idempotents)]


def injectives(a: Algebra) -> list[RightModule]:
    return [injective_module(a, v) for v in range(a.n_idempotents)]


def simples(a: Algebra) -> list[RightModule]:
    return [simple_module(a, v) for v in range(a.n_idempotents)]


def direct_sum(mods: list[RightModule], name: str = "") -> tuple[RightModule, list[int]]:
    """Block direct sum; returns the module and the block offsets."""
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
    return RightModule(a, action, name=name or "⊕".join(m.name for m in mods)), offsets[:-1]


def submodule_from_rows(m: RightModule, rows: np.ndarray, name: str = "") -> tuple[RightModule, np.ndarray]:
    """Submodule spanned by the (independent) rows; returns (module, inclusion)."""
    sub = RightModule(
        m.algebra,
        _restricted_action(m.algebra, rows, lambda i: m.action[i]),
        name=name or f"sub({m.name})",
    )
    return sub, rows


# ----------------------------------------------------------------------
# homs, duality, tensor
# ----------------------------------------------------------------------


def hom_basis_matrices(m: RightModule, n: RightModule) -> list[np.ndarray]:
    if m.algebra is not n.algebra:
        raise ValueError("hom_basis: modules over different algebras")
    fld = m.field
    if m.dim == 0 or n.dim == 0:
        return []
    blocks = []
    eye_m = np.eye(m.dim, dtype=np.int64)
    eye_n = np.eye(n.dim, dtype=np.int64)
    for i in range(m.algebra.dim):
        blocks.append(
            (np.kron(m.action[i], eye_n) - np.kron(eye_m, n.action[i].T)) % fld.p
        )
    system = np.concatenate(blocks, axis=0)
    kern = fld.kernel_basis(system)
    return [kern[k].reshape(m.dim, n.dim) for k in range(kern.shape[0])]


def hom_basis(m: RightModule, n: RightModule) -> list[ModuleHom]:
    return [ModuleHom(m, n, f) for f in hom_basis_matrices(m, n)]


def k_dual(m: RightModule) -> RightModule:
    """Dual space as a right module over the opposite algebra.

    In the dual bases the double dual is the identity on the nose.
    """
    action = np.transpose(m.action, (0, 2, 1))
    return RightModule(opposite(m.algebra), action, name=f"D({m.name})")


def k_dual_hom(f: np.ndarray) -> np.ndarray:
    """Matrix of the dual map D(target) -> D(source)."""
    return f.T.copy()


@dataclass
class TensorResult:
    """M (x)_R W presented on the non-pivot coordinates of M (x)_k W."""

    module: RightModule
    pi: np.ndarray        # ambient (m*w) x q projection
    section: np.ndarray   # q x ambient coset representatives
    m_dim: int
    w_dim: int

    def insert_right(self, w_coords: np.ndarray) -> np.ndarray:
        """Matrix of v |-> class(v ⊗ w) for a fixed element w."""
        fld = self.module.field
        k = np.zeros((self.m_dim, self.m_dim * self.w_dim), dtype=np.int64)
        for r in range(self.m_dim):
            k[r, r * self.w_dim:(r + 1) * self.w_dim] = w_coords
        return fld.matmul(k, self.pi)


def tensor_over(m: RightModule, w: Bimodule, name: str = "") -> TensorResult:
    """Quotient of M (x)_k W by the relations (v a) ⊗ x - v ⊗ (a x)."""
    if m.algebra is not w.left_algebra:
        raise ValueError(
            f"tensor_over: module over {m.algebra.name} but bimodule is left-{w.left_algebra.name}"
        )
    fld = m.field
    amb = m.dim * w.dim
    if amb == 0:
        res = zero_module(w.right_algebra)
        return TensorResult(res, fld.zeros(amb, 0), fld.zeros(0, amb), m.dim, w.dim)
    eye_m = np.eye(m.dim, dtype=np.int64)
    eye_w = np.eye(w.dim, dtype=np.int64)
    rel_blocks = [
        (np.kron(m.action[i], eye_w) - np.kron(eye_m, w.left_action[i])) % fld.p
        for i in range(m.algebra.dim)
    ]
    relations = np.concatenate(rel_blocks, axis=0)
    pi, sigma, _ = fld.quotient_maps(relations, amb)
    q = pi.shape[1]
    ra = w.right_algebra
    if q == 0:
        mod = zero_module(ra)
    else:
        action = np.stack(
            [
                fld.mul_chain(sigma, np.kron(eye_m, w.right_action[i]) % fld.p, pi)
                for i in range(ra.dim)
            ]
        )
        mod = RightModule(ra, action, name=name or f"{m.name}⊗{w.name}")
    return TensorResult(mod, pi, sigma, m.dim, w.dim)


def tensor_hom(f: np.ndarray, src: TensorResult, dst: TensorResult) -> np.ndarray:
    """Induced map (f ⊗ id): src.module -> dst.module for f: M -> M'."""
    fld = src.module.field
    if src.module.dim == 0 or dst.module.dim == 0:
        return fld.zeros(src.module.dim, dst.module.dim)
    eye_w = np.eye(src.w_dim, dtype=np.int64)
    return fld.mul_chain(src.section, np.kron(f, eye_w) % fld.p, dst.pi)


def nakayama_bimodule(a: Algebra) -> Bimodule:
    """D(A) = Hom_k(A, k) with actions (x f y)(z) = f(y z x).

    As a right module this is the dual of the left regular module, so
    projectives tensor to injectives.
    """
    right = np.stack(
        [a.left_mult_operator(a.basis_vector(i)).T for i in range(a.dim)]
    )
    left = np.stack(
        [a.right_mult_operator(a.basis_vector(i)).T for i in range(a.dim)]
    )
    return Bimodule(a, a, left, right, name=f"D({a.name})")


# ----------------------------------------------------------------------
# covers and resolutions
# ----------------------------------------------------------------------


@dataclass
class Cover:
    module: RightModule
    summands: list[int]            # vertex index of each projective summand
    offsets: list[int]             # coordinate offset of each summand
    gen_coords: list[np.ndarray]   # generator of each summand, in module coords
    surjection: np.ndarray         # matrix P -> M


def projective_cover(m: RightModule) -> Cover:
    """Minimal projective cover built from the top of M.

    Valid for the basic algebras produced by :mod:`gluecat.algebra`,
    where the radical is spanned by the non-idempotent basis elements.
    """
    a = m.algebra
    fld = m.field
    if m.dim == 0:
        return Cover(zero_module(a), [], [], [], fld.zeros(0, 0))
    rad_idx = a.radical_basis_indices()
    if rad_idx:
        rad_rows = np.concatenate([m.action[i] for i in rad_idx], axis=0)
    else:
        rad_rows = fld.zeros(0, m.dim)
    pi_top, _, _ = fld.quotient_maps(rad_rows, m.dim)
    top_dim = pi_top.shape[1]

    chosen: list[tuple[int, np.ndarray]] = []  # (vertex, generator row in M)
    covered = fld.zeros(0, top_dim)
    for v in range(a.n_idempotents):
        weight_rows = fld.image_basis(m.operator(a.idempotent_vector(v)))
        for row in weight_rows:
            cand = fld.matmul(row.reshape(1, -1), pi_top)
            stacked = np.concatenate([covered, cand], axis=0)
            if fld.rank(stacked) > covered.shape[0]:
                covered = fld.image_basis(stacked)
                chosen.append((v, row))
    if covered.shape[0] != top_dim:
        raise ValueError("projective cover: generators do not span the top")

    summands = [v for (v, _) in chosen]
    parts = [projective_module(a, v) for v in summands]
    if parts:
        p_mod, offsets = direct_sum([pm for (pm, _, _) in parts], name=f"cover({m.name})")
    else:
        p_mod, offsets = zero_module(a), []
    surj = fld.zeros(p_mod.dim, m.dim)
    gens = []
    for k, ((v, gen_row), (pm, rows, gen)) in enumerate(zip(chosen, parts)):
        for r in range(pm.dim):
            # image of the r-th basis path u: generator * u
            surj[offsets[k] + r] = fld.matmul(
                gen_row.reshape(1, -1), m.operator(rows[r])
            )[0]
        full = np.zeros(p_mod.dim, dtype=np.int64)
        full[offsets[k]:offsets[k] + pm.dim] = gen
        gens.append(full)
    if fld.rank(surj) != m.dim:
        raise ValueError("projective cover: constructed map is not surjective")
    return Cover(p_mod, summands, offsets, gens, surj)


@dataclass
class ResolutionData:
    module: RightModule
    covers: list[Cover]
    diffs: list[np.ndarray]       # diffs[k]: P_{k+1} -> P_k
    augmentation: np.ndarray      # P_0 -> M
    complete: bool

    @property
    def length(self) -> int:
        return max(len(self.covers) - 1, 0)


def resolution_data(m: RightModule, cap: int, allow_truncation: bool = False) -> ResolutionData:
    """Iterated syzygy resolution by projective covers."""
    fld = m.field
    if m.dim == 0:
        return ResolutionData(m, [], [], fld.zeros(0, 0), True)
    covers: list[Cover] = []
    diffs: list[np.ndarray] = []
    current = m
    include_rows = None  # inclusion of current syzygy into previous cover module
    augmentation = None
    while True:
        cov = projective_cover(current)
        if augmentation is None:
            augmentation = cov.surjection
        else:
            diffs.append(fld.matmul(cov.surjection, include_rows))
        covers.append(cov)
        kernel_rows = fld.left_kernel_basis(cov.surjection)
        if kernel_rows.shape[0] == 0:
            return ResolutionData(m, covers, diffs, augmentation, True)
        if len(covers) > cap:
            if allow_truncation:
                return ResolutionData(m, covers, diffs, augmentation, False)
            raise ResolutionExceedsCapError(
                f"resolution of {m.name} exceeds cap {cap}"
            )
        current, include_rows = submodule_from_rows(cov.module, kernel_rows)


def global_dimension(a: Algebra, cap: int) -> int:
    """Max projective-resolution length over the simple modules."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    best = 0
    for v in range(a.n_idempotents):
        try:
            res = resolution_data(simple_module(a, v), cap)
        except ResolutionExceedsCapError as exc:
            raise GlobalDimensionExceedsCapError(
                f"{a.name}: simple {v} has no resolution within cap {cap}"
            ) from exc
        best = max(best, res.length)
    return best


def ext_dims(m: RightModule, n: RightModule, max_deg: int) -> list[int]:
    """dim Ext^k(M, N) for k = 0..max_deg via a projective resolution.

    Kept independent of the complex machinery so it can serve as an
    oracle for the derived-category route.
    """
    fld = m.field
    if m.dim == 0 or n.dim == 0:
        return [0] * (max_deg + 1)
    res = resolution_data(m, cap=max_deg + 2, allow_truncation=True)
    terms = [c.module for c in res.covers][: max_deg + 2]
    hom_bases = [hom_basis_matrices(t, n) for t in terms]
    # delta_k : Hom(P_k, N) -> Hom(P_{k+1}, N), g -> d_{k+1} then g
    deltas = []
    for k in range(len(terms) - 1):
        src_b, dst_b = hom_bases[k], hom_bases[k + 1]
        mat = fld.zeros(len(src_b), len(dst_b))
        if src_b and dst_b:
            dst_flat = np.stack([b.reshape(-1) for b in dst_b])
            for i, g in enumerate(src_b):
                img = fld.matmul(res.diffs[k], g).reshape(1, -1)
                coords = fld.coords_in_rows(dst_flat, img)
                if coords is None:
                    raise ValueError("ext_dims: image not a module hom")
                mat[i] = coords[0]
        deltas.append(mat)
    out = []
    for k in range(max_deg + 1):
        if k >= len(terms):
            out.append(0)
            continue
        dim_k = len(hom_bases[k])
        rank_out = fld.rank(deltas[k]) if k < len(deltas) else 0
        rank_in = fld.rank(deltas[k - 1]) if k >= 1 else 0
        out.append(dim_k - rank_out - rank_in)
    return out
