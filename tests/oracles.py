"""Independent brute-force oracles for the test suite.

The path oracles work directly on quiver data with plain Python, without
touching the package's algebra or module machinery, so expected values
are computed along a second path.  The Gram oracle at the end is the
entry-by-entry reference for the batched Serre pairings: it evaluates
each Gram entry on its own, with one lift and one supertrace per entry.
``hom_coords_by_elimination`` is the reference for hom coordinates: it
solves for them in the hom basis by Gaussian elimination.
``lifts_entrywise`` is the reference for lifts through a quasi-isomorphism:
it writes the chain-map and homotopy equations entry by entry.
``hom_complex_dims`` is the reference for derived Hom dimensions: it
ranks the differentials of the Hom complex in module-hom bases.  The
per-element module kernels below are the references for the batched
module set-up: one solve per algebra basis element, ``np.kron`` relation
systems, and generators chosen by a greedy rank test per candidate.
The entry-loop evaluation blocks are the references for the whole-array
blocks of the four primitive adjunction witnesses.  The dense validators
(``module_violation_dense``, ``bimodule_violation_dense``,
``associative_dense``) check every pair or triple of basis elements at
once: the references for the validators on generators, in blocks.
``replacement_problems`` checks minimal replacements independently of
the top blocks the library reads: a complex of projectives is minimal
when each differential lands in the radical of the next term.  ``is_rref``
checks a reduced row echelon form against its definition, with a rank
on Python ints of its own.  The library helpers
at the end (Ext by a projective resolution, the Euler characteristic,
hom bases as module homs, the regular bimodule, the scalar Nakayama
supertrace, the homotopy check) are used by the tests only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def enumerate_paths(n_vertices: int, arrows: list[tuple[int, int]]):
    """All directed paths as (arrow tuple, source, target), trivial first."""
    paths = [((), v, v) for v in range(n_vertices)]
    frontier = list(paths)
    while frontier:
        new = []
        for (arr, s, t) in frontier:
            for idx, (a_s, a_t) in enumerate(arrows):
                if a_s == t:
                    new.append((arr + (idx,), s, a_t))
        paths.extend(new)
        frontier = new
    return paths


def count_paths(n_vertices, arrows):
    return len(enumerate_paths(n_vertices, arrows))


def paths_with_target(n_vertices, arrows, v):
    """Basis of e_v A: paths ending at v."""
    return [p for p in enumerate_paths(n_vertices, arrows) if p[2] == v]


def paths_with_source(n_vertices, arrows, v):
    """Basis of A e_v: paths starting at v."""
    return [p for p in enumerate_paths(n_vertices, arrows) if p[1] == v]


def paths_through(n_vertices, arrows, vertex_set):
    """Basis of AeA: paths visiting some vertex of the set."""
    out = []
    for (arr, s, t) in enumerate_paths(n_vertices, arrows):
        visited = {s}
        cur = s
        for a in arr:
            cur = arrows[a][1]
            visited.add(cur)
        if visited & set(vertex_set):
            out.append((arr, s, t))
    return out


def paths_between_sets(n_vertices, arrows, sources, targets):
    """Basis of (sum over targets e_t) A (sum over sources e_s)."""
    return [
        p
        for p in enumerate_paths(n_vertices, arrows)
        if p[1] in set(sources) and p[2] in set(targets)
    ]


# ----------------------------------------------------------------------
# hom coordinates by elimination
# ----------------------------------------------------------------------


def hom_coords_by_elimination(fld, basis, mat):
    """Coordinates of ``mat`` in the hom basis, by one linear solve.

    Raises ValueError when ``mat`` is not in the span of the basis.
    """
    if not basis:
        if np.any(mat):
            raise ValueError("hom_coords: nonzero map in zero hom space")
        return fld.zeros(1, 0)[0]
    flat = np.stack([b.reshape(-1) for b in basis])
    coords = fld.coords_in_rows(flat, mat.reshape(1, -1))
    if coords is None:
        raise ValueError("hom_coords: matrix is not a module hom")
    return coords[0]


# ----------------------------------------------------------------------
# lifts through a quasi-isomorphism, entry by entry
# ----------------------------------------------------------------------


def lifts_entrywise(p, s, fs):
    """``[(g, h)]`` with g: p -> y a chain map and f - g s = dh + hd for
    each f in ``fs``, where s: y -> x.

    The unknowns are the coordinates of every g^n and h^n in the module
    hom bases, g before h, degree by degree.  The equations are written
    on matrix entries: ``g^n d_y^n - d_p^n g^{n+1} = 0`` and
    ``g^n s^n + d_p^n h^{n+1} + h^n d_x^{n-1} = f^n``.  Returns the
    components as dicts ``{n: matrix}`` over every degree of p.
    """
    from gluecat.modules import hom_basis_matrices

    y, x = s.source, s.target
    fld = p.field
    degs = list(p.degrees())
    g_bases = {n: hom_basis_matrices(p.term(n), y.term(n)) for n in degs}
    h_bases = {n: hom_basis_matrices(p.term(n), x.term(n - 1)) for n in degs}
    cols = [("g", n, k) for n in degs for k in range(len(g_bases[n]))]
    cols += [("h", n, k) for n in degs for k in range(len(h_bases[n]))]
    col_index = {c: i for i, c in enumerate(cols)}
    rows, rhs = [], []

    def add_equation(size, contribs, targets):
        block = fld.zeros(size, len(cols))
        for kind, n, left, right, sign in contribs:
            for k, b in enumerate(g_bases[n] if kind == "g" else h_bases[n]):
                val = fld.matmul(left, b) if left is not None else fld.matmul(b, right)
                block[:, col_index[(kind, n, k)]] = (sign * val.reshape(-1)) % fld.p
        rows.append(block)
        rhs.append(targets % fld.p)

    for n in degs:
        size = p.term(n).dim * y.term(n + 1).dim
        if size:
            contribs = [("g", n, None, y.diff(n), 1)]
            if n + 1 in g_bases:
                contribs.append(("g", n + 1, p.diff(n), None, -1))
            add_equation(size, contribs, fld.zeros(size, len(fs)))
    for n in degs:
        size = p.term(n).dim * x.term(n).dim
        if size:
            contribs = [("g", n, None, s.comp(n), 1), ("h", n, None, x.diff(n - 1), 1)]
            if n + 1 in h_bases:
                contribs.append(("h", n + 1, p.diff(n), None, 1))
            add_equation(size, contribs, np.stack([f.comp(n).reshape(-1) for f in fs], axis=1))
    if rows:
        sol = fld.solve_matrix(np.concatenate(rows), np.concatenate(rhs))
    else:
        sol = fld.zeros(len(cols), len(fs))
    if sol is None:
        raise ValueError("no lift exists")

    def expand(kind, n, bases, shape, t):
        out = fld.zeros(*shape)
        for k, b in enumerate(bases):
            out = (out + int(sol[col_index[(kind, n, k)], t]) * b) % fld.p
        return out

    return [
        (
            {n: expand("g", n, g_bases[n], (p.term(n).dim, y.term(n).dim), t) for n in degs},
            {n: expand("h", n, h_bases[n], (p.term(n).dim, x.term(n - 1).dim), t) for n in degs},
        )
        for t in range(len(fs))
    ]


# ----------------------------------------------------------------------
# derived Hom dimensions through the Hom complex
# ----------------------------------------------------------------------


def hom_complex_dims(p, y):
    """Nonzero homology dimensions of the total Hom complex Hom(p, y),
    built in module-hom bases: one hom basis per pair of terms, and
    coordinates read off the free columns of those bases, each image
    checked to be a hom.  For p with projective terms
    these are the derived Hom dimensions, the reference for the Yoneda
    route of ``DerivedContext.derived_hom_dims``.  The complex is built
    outside any context, so no memo counts move.
    """
    from gluecat.complexes import HomComplex, _homology

    hc = HomComplex(p, y)
    return _homology(hc.fld, {n: hc.dim(n) for n in range(hc.lo, hc.hi + 1)}, hc.diff)


# ----------------------------------------------------------------------
# entry-by-entry Serre Gram matrices
# ----------------------------------------------------------------------


def _pair_right_value(ctx, t_functor, xp, yp, f, g) -> int:
    """Trace pairing of f in Hom(x', y') against g in Hom(y', T x')."""
    from gluecat.complexes import compose_maps

    tx = t_functor.apply(xp)
    aux = t_functor.aux(xp)
    f_hat = ctx.hom_space(xp, yp).normalize(f)
    g_hat = ctx.hom_space(yp, tx).normalize(g)
    rep_y = ctx.replacement(yp)
    p = ctx.replacement(xp).p
    ell, _ = ctx.lift_through_qis(p, f_hat, rep_y.qis)
    c = compose_maps(ell, g_hat)
    return nakayama_supertrace(p, aux["tensors"], c)


def _pair_left_value(ctx, tt_functor, xp, yp, f, h) -> int:
    """Trace pairing of f in Hom(x', y') against h in Hom(T~ y', x')."""
    from gluecat.complexes import compose_maps, dual_chain_map

    ty = tt_functor.apply(yp)
    aux = tt_functor.aux(yp)
    rep_ty = ctx.replacement(ty)
    f_hat = ctx.hom_space(xp, yp).normalize(f)
    h_hat = ctx.hom_space(ty, xp).normalize(h)
    rep_x = ctx.replacement(xp)
    ell, _ = ctx.lift_through_qis(rep_ty.p, h_hat, rep_x.qis)
    c = compose_maps(compose_maps(rep_ty.inverse, ell), f_hat)  # ty -> yp
    dc = dual_chain_map(c, dual_source=aux["pre"], dual_target=ctx.dual(yp))
    rep_dy = ctx.replacement(ctx.dual(yp))
    z = compose_maps(rep_dy.qis, dc)
    return nakayama_supertrace(rep_dy.p, aux["tensors"], z)


def gram_entrywise(sd, which: str, x, y):
    """Gram matrix of one Serre pairing on (x, y), one entry at a time.

    ``which`` names the functor F of the pairing: "T", "S" and "U" give
    :func:`serre_pairing`, "T~", "S~" and "U~" :func:`serre_left_pairing`.
    """
    rec, ctx = sd.rec, sd.ctx
    fs = ctx.hom_space(x, y).basis_mors()
    if which in ("T", "T~"):
        functor = rec.functor(which)
        xp, yp, tfs = x, y, fs
        if which == "T":
            others = ctx.hom_space(y, functor.apply(x)).basis_mors()
        else:
            others = ctx.hom_space(functor.apply(y), x).basis_mors()
    else:
        emb_name, adj_name, functor_name = {
            "S": ("i_*", "(i_*, i^!)", "T"),
            "U": ("j_!", "(j_!, j^*)", "T"),
            "S~": ("i_*", "(i^*, i_*)", "T~"),
            "U~": ("j_*", "(j^*, j_*)", "T~"),
        }[which]
        emb, adj = rec.functor(emb_name), sd.adjunctions[adj_name]
        functor = rec.functor(functor_name)
        xp, yp = emb.apply(x), emb.apply(y)
        tfs = [emb.apply_mor(f) for f in fs]
        if functor_name == "T":
            mid = functor.apply(xp)
            fx = sd.serre_apply(which, x)
            others = [adj.backward(y, mid, g) for g in ctx.hom_space(y, fx).basis_mors()]
        else:
            mid = functor.apply(yp)
            fy = sd.serre_apply(which, y)
            others = [adj.forward(mid, x, h) for h in ctx.hom_space(fy, x).basis_mors()]
    value = _pair_right_value if which in ("T", "S", "U") else _pair_left_value
    fld = x.field
    gram = fld.zeros(len(tfs), len(others))
    for i, f in enumerate(tfs):
        for j, g in enumerate(others):
            gram[i, j] = value(ctx, functor, xp, yp, f, g)
    return gram


# ----------------------------------------------------------------------
# per-element module kernels
# ----------------------------------------------------------------------


def act_on_products(a, action):
    """``[i, j]`` is the action matrix of ``b_i * b_j``: one product."""
    d, m = action.shape[0], action.shape[1]
    flat = a.mul_table.reshape(d * d, d) @ action.reshape(d, m * m)
    return (flat % a.field.p).reshape(d, d, m, m)


def products(x, y, p):
    """``[i, j]`` is ``x[i] @ y[j]`` for two stacks of square matrices."""
    return np.matmul(x[:, None], y[None, :]) % p


def module_violation_dense(a, action):
    """The message of the first right-module law that ``action`` breaks,
    or None, checked on every pair of basis elements: rho(1) == I, then
    rho(b_i b_j) == rho(b_i) rho(b_j).  The dense reference for
    ``RightModule.validate``."""
    p = a.field.p
    action = np.asarray(action, dtype=np.int64) % p
    m = action.shape[1]
    if m == 0:
        return None
    if not np.array_equal(np.einsum("i,imn->mn", a.unit, action) % p, np.eye(m, dtype=np.int64)):
        return "unit does not act as identity"
    if not np.array_equal(act_on_products(a, action), products(action, action, p)):
        return "action is not multiplicative"
    return None


def bimodule_violation_dense(la, ra, lam, rho):
    """The message of the first bimodule law that the left action ``lam``
    of ``la`` and right action ``rho`` of ``ra`` break, or None, checked on
    every pair of basis elements.  The dense reference for
    ``Bimodule.validate``."""
    p = la.field.p
    lam = np.asarray(lam, dtype=np.int64) % p
    rho = np.asarray(rho, dtype=np.int64) % p
    m = rho.shape[1]
    if m == 0:
        return None
    ident = np.eye(m, dtype=np.int64)
    if not np.array_equal(np.einsum("i,imn->mn", la.unit, lam) % p, ident):
        return "left unit fails"
    if not np.array_equal(np.einsum("i,imn->mn", ra.unit, rho) % p, ident):
        return "right unit fails"
    if not np.array_equal(act_on_products(ra, rho), products(rho, rho, p)):
        return "right action not multiplicative"
    # lam(b_i b_j) == lam(b_j) @ lam(b_i)
    if not np.array_equal(act_on_products(la, lam), products(lam, lam, p).swapaxes(0, 1)):
        return "left action not anti-multiplicative"
    if not np.array_equal(products(lam, rho, p), products(rho, lam, p).swapaxes(0, 1)):
        return "actions do not commute"
    return None


def associative_dense(mul, p):
    """Whether the structure constants ``mul`` are associative on all
    basis triples, with both sides formed whole: the reference for the
    blocked check of ``Algebra.validate``."""
    d = mul.shape[0]
    flat = mul.reshape(d * d, d)
    left = (flat @ mul.reshape(d, d * d)) % p
    right = np.matmul(flat, mul) % p
    return np.array_equal(left.reshape(d, d, d, d), right.reshape(d, d, d, d))


def restricted_action_loop(fld, rows, operator, k):
    """Action of ``operator(i)``, i < k, on the span of ``rows``: one
    solve per operator."""
    mats = []
    for i in range(k):
        img = fld.matmul(rows, operator(i))
        coords = fld.coords_in_rows(rows, img)
        if coords is None:
            raise ValueError("subspace is not stable under the action")
        mats.append(coords)
    if rows.shape[0] == 0:
        return np.zeros((k, 0, 0), dtype=np.int64)
    return np.stack(mats)


def corner_table_loop(a, basis):
    """Structure constants of the span of ``basis`` (closed under the
    product), one product and one solve per pair of basis rows."""
    fld = a.field
    c = basis.shape[0]
    mul = np.zeros((c, c, c), dtype=np.int64)
    for i in range(c):
        for j in range(c):
            prod = multiply(a, basis[i], basis[j])
            mul[i, j] = fld.coords_in_rows(basis, prod.reshape(1, -1))[0]
    return mul


def hom_system_dense(m, n):
    """Rows ``M_i (x) 1 - 1 (x) N_i^T`` for every basis element b_i,
    stacked: the vectorised f with ``M_i f == f N_i`` are its kernel.
    The dense ``(dim A * m * n) x (m * n)`` reference for hom bases."""
    eye_m = np.eye(m.dim, dtype=np.int64)
    eye_n = np.eye(n.dim, dtype=np.int64)
    blocks = np.einsum("iac,bd->iabcd", m.action, eye_n) - np.einsum("ac,idb->iabcd", eye_m, n.action)
    amb = m.dim * n.dim
    return blocks.reshape(m.algebra.dim * amb, amb) % m.field.p


def hom_entry_dense(m, n):
    """``(basis, flat, free_cols)`` of Hom_A(M, N) from the kernel of the
    dense system: the kernel basis with a 1 at each free column."""
    fld = m.field
    if m.dim == 0 or n.dim == 0:
        return [], fld.zeros(0, m.dim * n.dim), np.zeros(0, dtype=np.intp)
    kern = fld.kernel_basis(hom_system_dense(m, n))
    free = np.array([np.flatnonzero(row)[-1] for row in kern], dtype=np.intp)
    return [kern[k].reshape(m.dim, n.dim) for k in range(kern.shape[0])], kern, free


def hom_system_kron(m, n):
    """Blocks ``kron(M_i, 1) - kron(1, N_i^T)``, stacked."""
    p = m.field.p
    eye_m = np.eye(m.dim, dtype=np.int64)
    eye_n = np.eye(n.dim, dtype=np.int64)
    return np.concatenate(
        [(np.kron(m.action[i], eye_n) - np.kron(eye_m, n.action[i].T)) % p for i in range(m.algebra.dim)],
        axis=0,
    )


def tensor_relations_kron(m, w, elements=None):
    """Blocks ``kron(M_x, 1) - kron(1, W_x)`` (left action of W), stacked,
    for x over the rows of ``elements``.  By default these are the
    idempotents and then the generators of the algebra; the identity
    matrix gives the relations of every basis element."""
    from gluecat.modules import _generators

    a = m.algebra
    if elements is None:
        elements = np.concatenate([np.eye(a.dim, dtype=np.int64)[a.idempotent_indices], _generators(a).parts])
    p = m.field.p
    eye_m = np.eye(m.dim, dtype=np.int64)
    eye_w = np.eye(w.dim, dtype=np.int64)
    return np.concatenate(
        [(np.kron(operator(m, x), eye_w) - np.kron(eye_m, np.einsum("i,imn->mn", x, w.left_action))) % p
         for x in elements],
        axis=0,
    )


def tensor_action_kron(t, w):
    """Right action on ``t.module`` as ``sigma kron(1, W_i) pi`` per i."""
    fld = w.field
    eye_m = np.eye(t.m_dim, dtype=np.int64)
    return np.stack(
        [
            fld.mul_chain(t.section, np.kron(eye_m, w.right_action[i]) % fld.p, t.pi)
            for i in range(w.right_algebra.dim)
        ]
    )


def tensor_hom_kron(f, src, dst):
    """``sigma_src kron(f, 1) pi_dst``."""
    fld = src.module.field
    eye_w = np.eye(src.w_dim, dtype=np.int64)
    return fld.mul_chain(src.section, np.kron(f, eye_w) % fld.p, dst.pi)


def insert_right_loop(t, w_coords):
    """Matrix of v |-> class(v (x) w), written out block by block."""
    fld = t.module.field
    k = np.zeros((t.m_dim, t.m_dim * t.w_dim), dtype=np.int64)
    for r in range(t.m_dim):
        k[r, r * t.w_dim:(r + 1) * t.w_dim] = w_coords
    return fld.matmul(k, t.pi)


def kernel_basis_loop(fld, m):
    """:meth:`PrimeField.kernel_basis` filled one scalar at a time: for
    each free column c, a 1 at c and minus column c of the rref at each
    pivot."""
    cols = m.shape[1]
    r, pivots, _ = fld.rref(m)
    free = [c for c in range(cols) if c not in pivots]
    out = fld.zeros(len(free), cols)
    for k, c in enumerate(free):
        out[k, c] = 1
        for j, pc in enumerate(pivots):
            out[k, pc] = (-r[j, c]) % fld.p
    return out


def quotient_pi_dense(fld, span_rows, dim):
    """``pi`` of :meth:`PrimeField.quotient_maps` by the dense formula
    (1 - scatter @ rref_rows) restricted to the kept columns, where
    ``scatter`` puts rref row j at pivot row j."""
    if span_rows.size == 0:
        span_rows = fld.zeros(0, dim)
    rref_rows, pivots, rank = fld.rref(span_rows)
    keep = [c for c in range(dim) if c not in pivots]
    scatter = fld.zeros(dim, rank)
    for j, pc in enumerate(pivots):
        scatter[pc, j] = 1
    reduced = (np.eye(dim, dtype=np.int64) - scatter @ rref_rows[:rank]) % fld.p
    return reduced[:, keep]


def rank_mod_p(rows, p: int) -> int:
    """Rank over GF(p) on Python ints: each row is inserted into an
    echelon basis keyed by leading column, with no column scan."""
    basis = {}
    for row in rows:
        v = [int(x) % p for x in row]
        while any(v):
            lead = next(i for i, x in enumerate(v) if x)
            b = basis.get(lead)
            if b is None:
                inv = pow(v[lead], p - 2, p)
                basis[lead] = [x * inv % p for x in v]
                break
            f = v[lead]
            v = [(x - f * y) % p for x, y in zip(v, b)]
    return len(basis)


def is_rref(fld, m, r, pivots, rank, limit=None) -> bool:
    """Whether ``(r, pivots, rank)`` is the reduced row echelon form of
    ``m`` with pivots searched in the first ``limit`` columns.

    Checked from the definition: entries in [0, p), echelon shape with
    unit pivots, each pivot column zero off its pivot, no pivot left in
    the rows below the rank, as many pivots as the rank of the searched
    columns, and the row space of ``m`` (stacking r onto m raises
    neither rank).
    """
    p = fld.p
    m = np.asarray(m) % p
    limit = m.shape[1] if limit is None else limit
    if r.dtype != np.int64 or r.shape != m.shape or np.any((r < 0) | (r >= p)):
        return False
    if rank != len(pivots) or pivots != sorted(set(pivots)) or any(c >= limit for c in pivots):
        return False
    for j, c in enumerate(pivots):
        if r[j, c] != 1 or np.any(r[j, :c]) or np.count_nonzero(r[:, c]) != 1:
            return False
    if np.any(r[rank:, :limit]) or rank != rank_mod_p(m[:, :limit].tolist(), p):
        return False
    rk = rank_mod_p(m.tolist(), p)
    return rank_mod_p(r.tolist(), p) == rk == rank_mod_p(m.tolist() + r.tolist(), p)


def greedy_independent_rows(fld, m):
    """Indices of the rows of ``m`` that raise the rank of the rows kept
    so far: one rank test per row."""
    kept = []
    current = fld.zeros(0, m.shape[1])
    for i, row in enumerate(m):
        stacked = np.concatenate([current, row.reshape(1, -1)], axis=0)
        if fld.rank(stacked) > current.shape[0]:
            current = fld.image_basis(stacked)
            kept.append(i)
    return kept


def cover_greedy(m):
    """``(summand vertices, surjection)`` of the projective cover of M:
    candidates tested one at a time, one action matrix per basis path."""
    from gluecat.modules import projective_module

    a, fld = m.algebra, m.field
    rad_idx = a.radical_basis_indices()
    rad_rows = (
        np.concatenate([m.action[i] for i in rad_idx], axis=0) if rad_idx else fld.zeros(0, m.dim)
    )
    pi_top, _, _ = fld.quotient_maps(rad_rows, m.dim)
    chosen = []
    covered = fld.zeros(0, pi_top.shape[1])
    for v in range(a.n_idempotents):
        for row in fld.image_basis(operator(m, a.idempotent_vector(v))):
            stacked = np.concatenate([covered, fld.matmul(row.reshape(1, -1), pi_top)], axis=0)
            if fld.rank(stacked) > covered.shape[0]:
                covered = fld.image_basis(stacked)
                chosen.append((v, row))
    blocks = []
    for v, gen_row in chosen:
        _, rows, _ = projective_module(a, v)
        for r in range(rows.shape[0]):
            blocks.append(fld.matmul(gen_row.reshape(1, -1), operator(m, rows[r])))
    surj = np.concatenate(blocks, axis=0) if blocks else fld.zeros(0, m.dim)
    return [v for v, _ in chosen], surj


def ideal_rows_loop(a, e_vertices):
    """Rows ``R(e_v) R(b_j)`` spanning AeA, one product per (v, j)."""
    fld = a.field
    rows = []
    for v in sorted(set(e_vertices)):
        rv = a.right_mult_operator(a.idempotent_vector(v))
        for j in range(a.dim):
            rows.append(fld.matmul(rv, a.right_mult_operator(a.basis_vector(j))))
    return np.concatenate(rows, axis=0)


def quotient_table_loop(a, sigma, pi):
    """Structure constants of A/I from coset representatives, per pair."""
    fld = a.field
    q = sigma.shape[0]
    mul = np.zeros((q, q, q), dtype=np.int64)
    for i in range(q):
        for j in range(q):
            mul[i, j] = fld.matmul(multiply(a, sigma[i], sigma[j]).reshape(1, -1), pi)[0]
    return mul


# ----------------------------------------------------------------------
# entry-loop evaluation blocks of the primitive adjunctions
# ----------------------------------------------------------------------


def star_pullback_eval_loop(rec, y, n, psi):
    """(i^*, i_*) backward at degree n: row (r, s) is psi(r) . b_s, for
    every row r of ``psi`` and every basis element b_s of B."""
    fld, w_dim = y.field, rec.B_ab.dim
    amb = fld.zeros(psi.shape[0] * w_dim, y.term(n).dim)
    for r in range(psi.shape[0]):
        for s in range(w_dim):
            amb[r * w_dim + s] = fld.matmul(psi[r].reshape(1, -1), y.term(n).action[s])[0]
    return amb


def shriek_pullback_eval_loop(rec, x, d, psi):
    """(j_!, j^*) backward at degree d: the evaluation mu,
    class(v (x) ae) (x) ea |-> v . (ae * ea), one operator per (ae, ea)
    and one row per quotient coordinate, then row (r, l) of psi . mu."""
    fld, a = x.field, rec.algebra
    xtens = rec.functor("j^*").aux(x)["tensors"][d]
    n_ea, xdim = rec.eA_rows.shape[0], x.term(d).dim
    ops = {
        (j, l): operator(x.term(d), multiply(a, rec.Ae_rows[j], rec.eA_rows[l]))
        for j in range(xtens.w_dim)
        for l in range(n_ea)
    }
    mu = fld.zeros(xtens.module.dim * n_ea, xdim)
    for s in range(xtens.module.dim):
        rep_vec = xtens.section[s]
        for l in range(n_ea):
            acc = np.zeros(xdim, dtype=np.int64)
            for idx in np.nonzero(rep_vec)[0]:
                i, j = divmod(int(idx), xtens.w_dim)
                acc = (acc + int(rep_vec[idx]) * ops[(j, l)][i]) % fld.p
            mu[s * n_ea + l] = acc
    amb = fld.zeros(psi.shape[0] * n_ea, xdim)
    for r in range(psi.shape[0]):
        row = psi[r]
        for l in range(n_ea):
            acc = np.zeros(xdim, dtype=np.int64)
            for s in np.nonzero(row)[0]:
                acc = (acc + int(row[s]) * mu[int(s) * n_ea + l]) % fld.p
            amb[r * n_ea + l] = acc
    return amb


def push_shriek_unit_loop(rec, yp, m, q):
    """(i_*, i^!) unit at degree m: row (r, s) is v |-> q[r](v . b_s) on
    y'^{-m}, for every row r of ``q`` and every basis element b_s of B."""
    fld, w_dim = yp.field, rec.quotient_algebra.dim
    act = yp.term(-m).action
    amb = fld.zeros(q.shape[0] * w_dim, yp.term(-m).dim)
    for r in range(q.shape[0]):
        for s in range(w_dim):
            amb[r * w_dim + s] = fld.matmul(act[s], q[r].reshape(-1, 1)).reshape(-1)
    return amb


def star_push_unit_loop(rec, x, m, q):
    """(j^*, j_*) unit at degree m: row (r, s) is v |-> q[r](class(v (x) w_s))
    on x^{-m}, for every row r of ``q`` and every basis element w_s of Ae."""
    fld = x.field
    xtens = rec.functor("j^*").aux(x)["tensors"][-m]
    w_dim = xtens.w_dim
    amb = fld.zeros(q.shape[0] * w_dim, x.term(-m).dim)
    for s in range(w_dim):
        ins = xtens.insert_right(fld.unit_row(w_dim, s))
        for r in range(q.shape[0]):
            amb[r * w_dim + s] = fld.matmul(ins, q[r].reshape(-1, 1)).reshape(-1)
    return amb


def star_push_counit_loop(rec, n_obj, d):
    """(j^*, j_*) counit block at degree d: class(f (x) w) evaluated
    against class(p (x) w), entry by entry from the tensor projection of
    R_{Dn} (x) flip(Ae) at degree -d."""
    fld = n_obj.field
    tens = rec.functor("j^*").aux(rec.functor("j_*").apply(n_obj))["tensors"][d]
    ptens = rec.functor("j_*").aux(n_obj)["tensors"][-d]
    amb = fld.zeros(tens.m_dim * tens.w_dim, ptens.m_dim)
    for u in range(tens.m_dim):
        for s in range(tens.w_dim):
            for r in range(ptens.m_dim):
                amb[u * tens.w_dim + s, r] = ptens.pi[r * tens.w_dim + s, u]
    return fld.matmul(tens.section, amb)


# ----------------------------------------------------------------------
# library helpers used by the tests only
# ----------------------------------------------------------------------


def operator(m, coords) -> np.ndarray:
    """Action matrix on the module ``m`` of the algebra element with the
    given coordinates."""
    return np.einsum("i,imn->mn", coords % m.field.p, m.action) % m.field.p


def matrix(fld, rows) -> np.ndarray:
    """``rows`` as an int64 array reduced mod p."""
    return np.asarray(rows, dtype=np.int64) % fld.p


def solve(fld, m, b):
    """Some x with m @ x == b, or None: one column of ``solve_matrix``."""
    x = fld.solve_matrix(m, b.reshape(-1, 1))
    return None if x is None else x.reshape(-1)


def multiply(a, x, y) -> np.ndarray:
    """Coordinates of the product x * y in the algebra ``a``."""
    return np.einsum("i,j,ijk->k", x, y, a.mul_table) % a.field.p


def ext_dims(m, n, max_deg: int) -> list[int]:
    """dim Ext^k(M, N) for k = 0..max_deg via a projective resolution.

    Independent of the complex machinery, so it serves as an oracle for
    the derived-category route.  The resolution runs under the cap of
    the replacements, :data:`gluecat.complexes.RESOLUTION_CAP`.
    """
    from gluecat import complexes
    from gluecat.modules import hom_basis_matrices, resolution_data

    fld = m.field
    if m.dim == 0 or n.dim == 0:
        return [0] * (max_deg + 1)
    res = resolution_data(m, cap=complexes.RESOLUTION_CAP)
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


def euler_characteristic(x) -> int:
    return sum(((-1) ** n) * d for n, d in ((m, x.term(m).dim) for m in x.degrees()))


@dataclass
class ModuleHom:
    source: object
    target: object
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.int64) % self.source.field.p
        if self.matrix.shape != (self.source.dim, self.target.dim):
            raise ValueError("hom matrix shape mismatch")

    def validate(self):
        fld = self.source.field
        lhs = fld.matmul(self.source.action, self.matrix)
        rhs = fld.matmul(self.matrix, self.target.action)
        if not np.array_equal(lhs, rhs):
            raise ValueError("hom does not intertwine the actions")


def hom_basis(m, n) -> list[ModuleHom]:
    from gluecat.modules import hom_basis_matrices

    return [ModuleHom(m, n, f) for f in hom_basis_matrices(m, n)]


def k_dual_hom(f: np.ndarray) -> np.ndarray:
    """Matrix of the dual map D(target) -> D(source)."""
    return f.T.copy()


def regular_bimodule(a):
    from gluecat.modules import Bimodule

    return Bimodule(a, a, a.left_operators, a.right_operators, name=f"{a.name} (bimodule)")


def nakayama_supertrace(p, tensors, c) -> int:
    """Alternating-sign trace of a chain map p -> p (x) D(A).

    The sign (-1)^n is forced by homotopy invariance; the module-level
    trace evaluates the Nakayama component of each summand generator at
    its vertex idempotent.
    """
    from gluecat.serre import _supertrace_factors

    fld = p.field
    total = 0
    for n, (sign, gens, funcs) in _supertrace_factors(p, tensors).items():
        total += sign * int(np.trace(fld.mul_chain(gens, c.comp(n), funcs.T)))
    return total % fld.p


def nonminimal_degrees(p):
    """Degrees n where d^n of the projective complex ``p`` has a nonzero
    top block, i.e. its image is not inside the radical p^{n+1} rad A."""
    a, fld = p.algebra, p.field
    rad = a.radical_basis_indices()
    out = []
    for n in range(p.lo, p.hi):
        m = p.term(n + 1)
        rad_rows = np.concatenate([m.action[i] for i in rad] + [fld.zeros(0, m.dim)])
        if fld.rank(np.concatenate([rad_rows, p.diff(n)])) != fld.rank(rad_rows):
            out.append(n)
    return out


def is_identity(f) -> bool:
    """Whether the chain map ``f`` is the identity on the nose."""
    x = f.source
    return f.target is x and all(
        np.array_equal(f.comp(n), np.eye(x.term(n).dim, dtype=np.int64)) for n in x.degrees()
    )


def is_identity_in_homology(f) -> bool:
    """Whether the chain map f: x -> x minus the identity sends every
    cycle to a boundary."""
    x, fld = f.source, f.source.field
    for n in x.degrees():
        cycles = fld.left_kernel_basis(x.diff(n))
        delta = fld.matmul(cycles, fld.sub(f.comp(n), fld.identity(x.term(n).dim)))
        bnd = np.asarray(x.diff(n - 1))
        if fld.rank(np.concatenate([bnd, delta])) != fld.rank(bnd):
            return False
    return True


def replacement_problems(ctx, minimized):
    """What is wrong with the replacements memoised in ``ctx`` and with
    the minimisations ``(p, p_min, iota, proj)`` of ``minimized``.

    Each replacement must be minimal, the cone of its qis acyclic, and
    its inverse, when present, a chain map whose composite with the qis
    is the identity of p and the identity of x in homology.  Each iota
    and proj must be chain maps with proj after iota the identity.
    """
    from gluecat.complexes import compose_maps, cone, homology_dims

    problems = []
    for rep in ctx.built_replacements():
        x, name = rep.qis.target, rep.p.name
        if nonminimal_degrees(rep.p):
            problems.append((name, "not minimal", nonminimal_degrees(rep.p)))
        if homology_dims(cone(rep.qis)):
            problems.append((name, "qis cone not acyclic"))
        if rep.inverse is None:
            continue
        try:
            rep.inverse.validate()
        except ValueError:
            problems.append((name, "inverse not a chain map"))
            continue
        if not is_identity(compose_maps(rep.qis, rep.inverse)):
            problems.append((name, "inverse after qis is not the identity of p"))
        if not is_identity_in_homology(compose_maps(rep.inverse, rep.qis)):
            problems.append((name, "qis after inverse is not the identity in homology"))
    for p, p_min, iota, proj in minimized:
        for label, f in (("iota", iota), ("proj", proj)):
            try:
                f.validate()
            except ValueError:
                problems.append((p.name, f"{label} not a chain map"))
        if not is_identity(compose_maps(iota, proj)):
            problems.append((p.name, "proj after iota is not the identity"))
        if nonminimal_degrees(p_min):
            problems.append((p.name, "minimised complex not minimal"))
    return problems


def homotopy_witnesses(h, f, g) -> bool:
    """Whether the homotopy ``h`` witnesses f - g = dh + hd."""
    fld = h.source.field
    for n in range(min(h.source.lo, h.target.lo) - 1, max(h.source.hi, h.target.hi) + 2):
        delta = fld.sub(f.comp(n), g.comp(n))
        dh = fld.matmul(h.source.diff(n), h.comp(n + 1))
        hd = fld.matmul(h.comp(n), h.target.diff(n - 1))
        if not np.array_equal(delta, fld.add(dh, hd)):
            return False
    return True
