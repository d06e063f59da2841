"""Independent brute-force oracles for the test suite.

The path oracles work directly on quiver data with plain Python, without
touching the package's algebra or module machinery, so expected values
are computed along a second path.  The Gram oracle at the end is the
entry-by-entry reference for the batched Serre pairings: it evaluates
each Gram entry on its own, with one lift and one supertrace per entry.
``composite_pair_by_formula`` is the reference for the mirror rule of the
composite adjunctions: one hand-written product of two Serre Grams and a
primitive adjunction matrix per new adjoint, each with its own
transpositions and inverses.
``hom_coords_by_elimination`` is the reference for hom coordinates: it
solves for them in the hom basis by Gaussian elimination; ``hom_coords``
reads them off the free columns of that basis instead.
``lifts_entrywise`` is the reference for lifts through a quasi-isomorphism:
it writes the chain-map and homotopy equations entry by entry.
``hom_map_by_expansion`` is the reference for the s_* block of a lift
system: it expands each basis element into dense components, multiplies
them by s and reads them back, and ``mor_by_sum`` builds a class from
its coordinates as a sum of scaled basis maps (``scale_map``,
``add_maps``).
``hom_complex_dims`` is the reference for derived Hom dimensions: it
ranks the differentials of the Hom complex in module-hom bases, not in
the Yoneda coordinates of the library, with ``homology_by_ranks``, which
ranks every differential of the range, those into or out of a zero term
too, and
``coords_one_by_one`` for homology coordinates: one class at a time.  The
per-element module kernels below are the references for the batched
module set-up: one solve per algebra basis element, ``np.kron`` relation
systems, and generators chosen by a greedy rank test per candidate.
``projective_sum_by_hand`` is the reference for ``projective_sum``: the
sum of the projective modules, with each generator placed by hand.
The entry-loop evaluation blocks are the references for the whole-array
blocks of the four primitive adjunction witnesses.  The dense validators
(``module_violation_dense``, ``bimodule_violation_dense``,
``associative_dense``, ``algebra_violation_dense``) check every pair or
triple of basis elements at once: the references for the validators on
generators, in blocks.  ``DenseLaws`` records every algebra, module and
bimodule built during a run and checks each with them, so the outputs
that the library builds unchecked, as proved, are checked in the tests.
``replacement_problems`` checks minimal replacements independently of
the top blocks the library reads: a complex of projectives is minimal
when each differential lands in the radical of the next term.  ``is_rref``
checks a reduced row echelon form against its definition, with a rank
on Python ints of its own.  ``coords_by_elimination`` is the reference
for ``PrimeField.coords_in_rows`` and ``inv``, which read coordinates at
the pivots of an echelon basis: it eliminates every system.
``stratifying_certificate_by_search`` is the reference for the
stratifying certificate of ``build_recollement``, which certifies the
multiplication map: it draws random maps between the two replacements
until one is certified.  ``writable_memo_arrays`` walks every value of
the module memos and lists the arrays left writable.  The library
helpers at the end (Ext by a projective resolution, the global dimension by one resolution per
simple, the simple and the injective modules of every vertex, the
monomial truncations kQ/J^k, the Euler characteristic, hom
bases as module homs, the regular bimodule, the scalar Nakayama
supertrace, the homotopy checks) are used by the tests only, and so is
``resolution_data``, the syzygy resolution by covers: the reference for
the replacement of a stalk complex.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

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


def hom_coords_by_elimination(fld, basis, mats):
    """Coordinates of ``mats``, one matrix or a stack of them, in the hom
    basis, by one linear solve.

    Raises ValueError when a matrix is not in the span of the basis.
    """
    rows, cols = mats.shape[-2:]
    vecs = mats.reshape(int(np.prod(mats.shape[:-2])), rows * cols) % fld.p
    if not basis:
        if np.any(vecs):
            raise ValueError("hom_coords: nonzero map in zero hom space")
        coords = fld.zeros(len(vecs), 0)
    else:
        coords = fld.coords_in_rows(np.stack([b.reshape(-1) for b in basis]), vecs)
        if coords is None:
            raise ValueError("hom_coords: matrix is not a module hom")
    return coords.reshape(mats.shape[:-2] + (len(basis),))


def hom_coords(m, n, mats):
    """Coordinates of a module hom M -> N, or of a stack of them, in the
    basis of ``hom_basis_matrices``, read off without a solve.

    That basis is the rref of the hom space on the reversed columns, so
    each basis matrix has its last nonzero entry, a 1, at a column where
    every other one is 0: the coordinates of a hom are its entries at
    those free columns, and the product with the basis must give every
    hom back.
    """
    from gluecat.modules import hom_basis_matrices

    fld = m.field
    basis = hom_basis_matrices(m, n)
    vecs = mats.reshape(mats.shape[:-2] + (m.dim * n.dim,)) % fld.p
    if not basis and np.any(vecs):
        raise ValueError("hom_coords: nonzero map in zero hom space")
    flat = np.stack([b.reshape(-1) for b in basis]) if basis else fld.zeros(0, m.dim * n.dim)
    coords = vecs[..., [np.flatnonzero(row)[-1] for row in flat]]
    if not np.array_equal(fld.matmul(coords, flat), vecs):
        raise ValueError("hom_coords: matrix is not a module hom")
    return coords


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


def hom_map_by_expansion(hy, hx, s):
    """The s_* block Hom^0(p, y) -> Hom^0(p, x) of the hom complexes
    ``hy`` and ``hx`` out of one p, for a chain map s: y -> x: the basis
    elements of each summand are expanded into dense components
    p^i -> y^i, multiplied by s^i and read back with ``hx._coords``,
    which raises ``ValueError`` unless every product is a module hom."""
    fld = hy.fld
    slices, _, dim = hy._layout(0)
    out = fld.zeros(dim, hx.dim(0))
    for rows in slices:
        if rows.stop > rows.start:
            unit = fld.zeros(rows.stop - rows.start, dim)
            unit[:, rows] = fld.identity(rows.stop - rows.start)
            images = {i: fld.matmul(c, s.comp(i)) for i, c in hy._expand(0, unit).items()}
            out[rows] = hx._coords(0, len(unit), images)
    return out


def add_maps(f, g):
    from gluecat.complexes import ChainMap

    if f.source.key != g.source.key or f.target.key != g.target.key:
        raise ValueError("add_maps: mismatched complexes")
    comps = {n: (f.comp(n) + g.comp(n)) % f.field.p for n in set(f.comps) | set(g.comps)}
    return ChainMap(f.source, f.target, comps)


def scale_map(f, c: int):
    from gluecat.complexes import ChainMap

    comps = {n: (c * f.comp(n)) % f.field.p for n in f.comps}
    return ChainMap(f.source, f.target, comps, validate=False)


def mor_by_sum(hs, coords):
    """The chain map p -> y of a class with homology coordinates
    ``coords`` in the hom space ``hs``: the sum of the basis maps, each
    scaled by its coordinate."""
    from gluecat.complexes import zero_map

    total = zero_map(hs.p, hs.y)
    for m, c in zip(hs.basis_maps(), coords, strict=True):
        total = add_maps(total, scale_map(m, int(c)))
    return total


# ----------------------------------------------------------------------
# derived Hom dimensions through the Hom complex
# ----------------------------------------------------------------------


def hom_complex_dims(p, y):
    """Nonzero homology dimensions of the total Hom complex Hom(p, y),
    built in module-hom bases: term n has one ``hom_basis_matrices`` basis
    per pair p^i, y^{i+n}, and the image of each basis matrix f under
    f |-> f d_y - (-1)^n d_p f is solved for in the bases of term n + 1
    (``hom_coords_by_elimination``).  For p with projective terms these
    are the derived Hom dimensions: the reference for the Yoneda
    coordinates of ``HomComplex``.  Nothing is asked of a context.
    """
    from gluecat.modules import hom_basis_matrices

    if p.is_zero() or y.is_zero():
        return {}
    fld = p.field

    def term(n):
        """``{i: (offset, basis of Hom(p^i, y^{i+n}))}`` and the dimension."""
        out, off = {}, 0
        for i in p.degrees():
            basis = hom_basis_matrices(p.term(i), y.term(i + n))
            out[i] = (off, basis)
            off += len(basis)
        return out, off

    def diff(n):
        (src, rows), (dst, cols) = term(n), term(n + 1)
        out = fld.zeros(rows, cols)
        sign = 1 if n % 2 == 0 else -1
        for i, (off, basis) in src.items():
            if not basis:
                continue
            stack = np.stack(basis)
            images = {
                i: fld.matmul(stack, y.diff(i + n)),
                i - 1: (-sign * fld.matmul(p.diff(i - 1), stack)) % fld.p,
            }
            for k, image in images.items():
                if k in dst:
                    col, target = dst[k]
                    out[off:off + len(basis), col:col + len(target)] = hom_coords_by_elimination(fld, target, image)
        return out

    dims = {n: term(n)[1] for n in range(y.lo - p.hi, y.hi - p.lo + 1)}
    return homology_by_ranks(fld, dims, diff)


def homology_by_ranks(fld, dims, diff):
    """Nonzero ``dims[n] - rank d^n - rank d^{n-1}`` over the consecutive
    degrees ``dims``, ranking every differential from d^{lo-1} to d^{hi},
    whatever the dimensions of its terms."""
    if not dims:
        return {}
    lo, hi = min(dims), max(dims)
    ranks = {n: fld.rank(diff(n)) for n in range(lo - 1, hi + 1)}
    out = {}
    for n in range(lo, hi + 1):
        h = dims[n] - ranks[n] - ranks[n - 1]
        if h:
            out[n] = h
    return out


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
    ell = ctx.lift_through_qis(p, f_hat, rep_y.qis)
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
    ell = ctx.lift_through_qis(rep_ty.p, h_hat, rep_x.qis)
    c = compose_maps(compose_maps(rep_ty.inverse, ell), f_hat)  # ty -> yp
    dc = dual_chain_map(c, dual_source=aux["pre"], dual_target=ctx.dual(yp))
    rep_dy = ctx.replacement(ctx.dual(yp))
    z = compose_maps(rep_dy.qis, dc)
    return nakayama_supertrace(rep_dy.p, aux["tensors"], z)


def gram_entrywise(sd, which: str, x, y):
    """Gram matrix of one Serre pairing on (x, y), one entry at a time.

    ``which`` names the functor F of the pairing, as for
    :func:`serre_pairing`: "T", "S" and "U" pair on the right, "T~", "S~"
    and "U~" on the left.
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
# composite adjunction matrices, one formula per new adjoint
# ----------------------------------------------------------------------


def _lower_shriek_star(sd, x, y):
    """(i_!, i^*):  Hom_A(i_! x, y) ~= Hom_B(x, i^* y)."""
    from gluecat.serre import serre_pairing

    rec = sd.rec
    fld = x.field
    sx = sd.serre_apply("S", x)
    z = rec.functor("i_*").apply(sx)                            # i_* S x
    iy = rec.functor("i^*").apply(y)
    g1 = serre_pairing(sd, "T~", y, z)
    f1 = sd.adjunctions["(i^*, i_*)"].forward_matrix(y, sx)
    g2 = serre_pairing(sd, "S", x, iy)
    return fld.mul_chain(g1.T, f1.T, fld.inv(g2)) if g2.size else fld.zeros(g1.shape[1], 0)


def _question_shriek(sd, x, n_obj):
    """(j^?, j_!):  Hom_C(j^? x, n) ~= Hom_A(x, j_! n)."""
    from gluecat.serre import serre_pairing

    rec = sd.rec
    fld = x.field
    tx = rec.functor("T").apply(x)
    w = rec.functor("j^*").apply(tx)                             # j^* T x
    jn = rec.functor("j_!").apply(n_obj)
    g1 = serre_pairing(sd, "U~", n_obj, w)
    f2 = sd.adjunctions["(j_!, j^*)"].forward_matrix(n_obj, tx)
    g2 = serre_pairing(sd, "T", x, jn)
    return fld.mul_chain(g1.T, f2.T, fld.inv(g2)) if g2.size else fld.zeros(g1.shape[1], 0)


def _shriek_question(sd, x, y):
    """(i^!, i_?):  Hom_B(i^! x, y) ~= Hom_A(x, i_? y)  (x over A)."""
    from gluecat.serre import serre_pairing

    # built in the backward direction Hom_A(x, i_? y) -> Hom_B(i^! x, y)
    rec = sd.rec
    fld = x.field
    sty = sd.serre_apply("S~", y)
    zp = rec.functor("i_*").apply(sty)                            # i_* S~ y
    ix = rec.functor("i^!").apply(x)
    g1 = serre_pairing(sd, "T", zp, x)
    f3 = sd.adjunctions["(i_*, i^!)"].backward_matrix(sty, x)
    g2 = serre_pairing(sd, "S~", ix, y)
    back = fld.mul_chain(g1.T, f3.T, fld.inv(g2)) if g2.size else fld.zeros(g1.shape[0], 0)
    return fld.inv(back) if back.size else back.T.copy()


def _star_shriek_up(sd, n_obj, y):
    """(j_*, j^!):  Hom_A(j_* n, y) ~= Hom_C(n, j^! y)."""
    from gluecat.serre import serre_pairing

    rec = sd.rec
    fld = y.field
    tty = rec.functor("T~").apply(y)
    wp = rec.functor("j^*").apply(tty)                            # j^* T~ y
    jn = rec.functor("j_*").apply(n_obj)
    g1 = serre_pairing(sd, "T~", jn, y)
    f4 = sd.adjunctions["(j^*, j_*)"].forward_matrix(tty, n_obj)
    g2 = serre_pairing(sd, "U", wp, n_obj)
    if not g2.size:
        return fld.zeros(g1.shape[0], 0)
    return fld.mul_chain(g1, f4.T, fld.inv(g2).T)


COMPOSITE_FORMULAS = {
    "(i_!, i^*)": _lower_shriek_star,
    "(j^?, j_!)": _question_shriek,
    "(i^!, i_?)": _shriek_question,
    "(j_*, j^!)": _star_shriek_up,
}


def composite_pair_by_formula(sd, name: str, x, y):
    """``(forward, backward)`` matrices of the composite adjunction
    ``name`` on (x, y), from its own formula in :data:`COMPOSITE_FORMULAS`
    and the inverse of that."""
    m = COMPOSITE_FORMULAS[name](sd, x, y)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name}: adjunction matrix not square: {m.shape}")
    return m, (x.field.inv(m) if m.size else m)


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


def algebra_violation_dense(a):
    """The message of the first algebra law that ``a`` breaks, or None:
    associativity on all triples (:func:`associative_dense`), both unit
    laws, and the idempotent family orthogonal, idempotent and summing
    to the unit.  The dense reference for ``Algebra.validate``."""
    p, d = a.field.p, a.dim
    mul = np.asarray(a.mul_table, dtype=np.int64) % p
    if not associative_dense(mul, p):
        return "associativity fails"
    eye = np.eye(d, dtype=np.int64)
    if not np.array_equal(np.einsum("i,ijk->jk", a.unit, mul) % p, eye):
        return "1 * b != b"
    if not np.array_equal(np.einsum("j,ijk->ik", a.unit, mul) % p, eye):
        return "b * 1 != b"
    idx = list(a.idempotent_indices)
    for u in idx:
        for v in idx:
            if not np.array_equal(mul[u, v], eye[u] if u == v else np.zeros(d, dtype=np.int64)):
                return "idempotent family not orthogonal"
    if not np.array_equal(eye[idx].sum(axis=0) % p, np.asarray(a.unit) % p):
        return "idempotents do not sum to 1"
    return None


class DenseLaws:
    """Every ``Algebra``, ``RightModule`` and ``Bimodule`` built while
    installed, one per content, and the laws each breaks under the dense
    oracles: the check that the constructions building their outputs
    with ``validate=False`` are owed.

    ``install(monkeypatch)`` wraps the three constructors; ``built``
    counts the objects by class, and ``violations()`` names each
    distinct object that breaks a law, with the law.
    """

    def __init__(self):
        self.built = {"Algebra": 0, "RightModule": 0, "Bimodule": 0}
        self._first = {}      # content -> first object built with it
        self._algebras = {}   # id -> (algebra, content); pinned so ids stay unique

    def _algebra(self, a):
        hit = self._algebras.get(id(a))
        if hit is None:
            content = (a.mul_table.shape, a.mul_table.tobytes(), a.unit.tobytes(), tuple(a.idempotent_indices))
            hit = self._algebras[id(a)] = (a, content)
        return hit[1]

    def _content(self, obj):
        from gluecat.algebra import Algebra
        from gluecat.modules import RightModule

        if isinstance(obj, Algebra):
            return ("algebra", self._algebra(obj))
        if isinstance(obj, RightModule):
            return ("module", self._algebra(obj.algebra), obj.key)
        return ("bimodule", self._algebra(obj.left_algebra), self._algebra(obj.right_algebra),
                obj.left_action.shape, obj.left_action.tobytes(), obj.right_action.tobytes())

    def install(self, monkeypatch):
        from gluecat.algebra import Algebra
        from gluecat.modules import Bimodule, RightModule

        for cls in (Algebra, RightModule, Bimodule):
            def spy(obj, *args, init=cls.__init__, kind=cls.__name__, **kwargs):
                init(obj, *args, **kwargs)
                self.built[kind] += 1
                self._first.setdefault(self._content(obj), obj)
            monkeypatch.setattr(cls, "__init__", spy)
        return self

    def violations(self) -> list[str]:
        from gluecat.algebra import Algebra
        from gluecat.modules import RightModule

        out = []
        for obj in self._first.values():
            if isinstance(obj, Algebra):
                law = algebra_violation_dense(obj)
            elif isinstance(obj, RightModule):
                law = module_violation_dense(obj.algebra, obj.action)
            else:
                law = bimodule_violation_dense(obj.left_algebra, obj.right_algebra, obj.left_action, obj.right_action)
            if law:
                out.append(f"{type(obj).__name__} {obj.name}: {law}")
        return out


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


def hom_basis_dense(m, n):
    """The basis of Hom_A(M, N) from the kernel of the dense system: the
    kernel basis, with a 1 at each free column."""
    if m.dim == 0 or n.dim == 0:
        return []
    kern = m.field.kernel_basis(hom_system_dense(m, n))
    return [kern[k].reshape(m.dim, n.dim) for k in range(kern.shape[0])]


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


def projective_sum_by_hand(a, vertices):
    """``(action, offsets, gens)`` of the sum of the P_v for the vertex
    tuple, in order: the ``direct_sum`` of the projective modules, the
    running sum of their dimensions, and each e_v placed by hand at the
    offset of its summand, one row per summand."""
    from gluecat.modules import direct_sum, projective_module

    parts = [projective_module(a, v) for v in vertices]
    if parts:
        action = direct_sum([m for m, _, _ in parts])[0].action
    else:
        action = np.zeros((a.dim, 0, 0), dtype=np.int64)
    offsets, gens = [], np.zeros((len(parts), action.shape[1]), dtype=np.int64)
    start = 0
    for k, (m, _, gen) in enumerate(parts):
        offsets.append(start)
        for r in range(m.dim):
            gens[k, start + r] = gen[r]
        start += m.dim
    return action, np.array(offsets, dtype=np.intp), gens


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


@dataclass
class ResolutionData:
    module: object                # the RightModule resolved
    covers: list                  # its projective covers (modules.Cover)
    diffs: list[np.ndarray]       # diffs[k]: P_{k+1} -> P_k
    augmentation: np.ndarray      # P_0 -> M

    @property
    def length(self) -> int:
        return max(len(self.covers) - 1, 0)


def resolution_data(m, cap: int) -> ResolutionData:
    """Iterated syzygy resolution by projective covers: the reference
    for the replacement of a stalk complex, which ``complexes._resolve``
    builds degree by degree."""
    from gluecat.modules import ResolutionExceedsCapError, projective_cover, submodule_from_rows

    fld = m.field
    if m.dim == 0:
        return ResolutionData(m, [], [], fld.zeros(0, 0))
    covers = []
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
        if cov.kernel.shape[0] == 0:
            return ResolutionData(m, covers, diffs, augmentation)
        if len(covers) > cap:
            raise ResolutionExceedsCapError(
                f"resolution of {m.name} exceeds cap {cap}"
            )
        current, include_rows = submodule_from_rows(cov.module, cov.kernel)


def ext_dims(m, n, max_deg: int) -> list[int]:
    """dim Ext^k(M, N) for k = 0..max_deg via a projective resolution.

    Independent of the complex machinery, so it serves as an oracle for
    the derived-category route.  The resolution runs under the cap of
    the replacements, :data:`gluecat.complexes.RESOLUTION_CAP`.
    """
    from gluecat import complexes
    from gluecat.modules import hom_basis_matrices

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


def global_dimension_by_simples(a, cap: int) -> int:
    """gl.dim A as the largest resolution length over the simple modules,
    each resolved by projective covers: the reference for
    :func:`gluecat.modules.global_dimension`, which resolves the top
    A/rad A once, from the generators of the radical."""
    from gluecat.modules import (
        GlobalDimensionExceedsCapError,
        ResolutionExceedsCapError,
        simple_module,
    )

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


def simples(a) -> list:
    from gluecat.modules import simple_module

    return [simple_module(a, v) for v in range(a.n_idempotents)]


def injectives(a) -> list:
    from gluecat.modules import injective_module

    return [injective_module(a, v) for v in range(a.n_idempotents)]


def truncated_path_algebra(q, fld, k: int):
    """kQ/J^k for an acyclic quiver Q: the paths of length below ``k``,
    with a product of paths zero once it reaches length ``k``.  Built on
    plain path data, with the conventions of
    :func:`gluecat.algebra.path_algebra` (b_i * b_j traverses b_j first)."""
    from gluecat.algebra import Algebra

    paths = [p for p in enumerate_paths(q.n, list(q.arrows)) if len(p[0]) < k]
    index = {(arr, s): i for i, (arr, s, _) in enumerate(paths)}
    d = len(paths)
    mul = np.zeros((d, d, d), dtype=np.int64)
    for i, (arr_i, s_i, _) in enumerate(paths):
        for j, (arr_j, s_j, t_j) in enumerate(paths):
            if s_i == t_j and (arr_j + arr_i, s_j) in index:
                mul[i, j, index[(arr_j + arr_i, s_j)]] = 1
    labels = [
        "".join(q.arrow_labels[x] for x in reversed(arr)) if arr else q.vertex_labels[s]
        for (arr, s, _) in paths
    ]
    unit = np.zeros(d, dtype=np.int64)
    unit[: q.n] = 1
    return Algebra(fld, labels, mul, unit, list(range(q.n)), name=f"k[{'-'.join(q.vertex_labels)}]/J^{k}")


def coords_one_by_one(space, mors) -> np.ndarray:
    """Homology coordinates of each class in the derived hom space
    ``space``, one at a time: the chain map's coordinates, a cycle check
    and a solve per class.  The reference for ``HomSpace.coords_of_all``,
    which does each of the three once for the whole stack."""
    fld = space.fld
    out = fld.zeros(len(mors), space.dim)
    stack = np.concatenate([space.boundaries, space.h_reps], axis=0)
    for r, mor in enumerate(mors):
        m = space.normalize(mor)
        vec = space.hc._coords(0, 1, {i: c[None] for i, c in m.comps.items()})
        if space.dim == 0:
            continue
        if np.any(fld.matmul(vec, space.hc.diff(0))):
            raise ValueError("coords_one_by_one: not a cycle")
        coords = fld.coords_in_rows(stack, vec)
        if coords is None:
            raise ValueError("coords_one_by_one: cycle outside computed space")
        out[r] = coords[0][space.boundaries.shape[0]:]
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
    """A as an A-A bimodule.  Proved: its laws are associativity."""
    from gluecat.modules import Bimodule

    return Bimodule(a, a, a.left_operators, a.right_operators, name=f"{a.name} (bimodule)", validate=False)


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
    """Whether ``h``, components ``{n: h^n: p^n -> x^(n-1)}`` (absent
    ones zero), witnesses f - g = dh + hd for chain maps f, g: p -> x."""
    p, x, fld = f.source, f.target, f.field

    def comp(n):
        return h[n] if n in h else fld.zeros(p.term(n).dim, x.term(n - 1).dim)

    for n in range(min(p.lo, x.lo) - 1, max(p.hi, x.hi) + 2):
        delta = fld.sub(f.comp(n), g.comp(n))
        dh = fld.matmul(p.diff(n), comp(n + 1))
        hd = fld.matmul(comp(n), x.diff(n - 1))
        if not np.array_equal(delta, (dh + hd) % fld.p):
            return False
    return True


def lifts_up_to_homotopy(f, g, s) -> bool:
    """Whether f - g s is null-homotopic, for f: p -> x, g: p -> y and
    s: y -> x, with p a complex of projectives: its degree-0 coordinates
    in Hom(p, x) lie in the boundaries B^0, the image of d^-1.  The
    sources of f and g may be equal complexes; g's must be a
    ``ProjectiveComplex``.  The check needs no homotopy."""
    from gluecat.complexes import HomComplex, compose_maps

    diff = add_maps(f, scale_map(compose_maps(g, s), -1))
    hc = HomComplex(g.source, f.target)
    return f.field.coords_in_rows(hc.boundary_space(0), hc.chain_maps_to_vectors([diff])) is not None


def coords_by_elimination(fld, basis_rows, vectors):
    """X with X @ basis_rows == vectors, or None if a row of ``vectors``
    is outside the span: one ``solve_matrix`` of the transposed system,
    whatever the shape of the basis."""
    x = fld.solve_matrix(np.asarray(basis_rows).T, np.asarray(vectors).T)
    return None if x is None else x.T


def stratifying_certificate_by_search(a, e_vertices, seed: int = 0, attempts: int = 64):
    """Whether AeA is stratifying, by a random search for a derived
    isomorphism Ae (x)^L_C eA -> AeA.

    Returns None when the homology of the derived tensor already rules
    it out, and otherwise ``DerivedContext.derived_iso_certificate``
    between the two sides: random cycles of Hom^0 of their replacements,
    drawn with ``seed`` until one has an acyclic cone or ``attempts`` are
    spent.
    """
    from gluecat.algebra import corner, ideal_span
    from gluecat.complexes import DerivedContext, homology_dims, stalk_complex
    from gluecat.modules import regular_module, sub_bimodule, submodule_from_rows

    fld = a.field
    ctx = DerivedContext()
    c, corner_rows = corner(a, e_vertices)
    e = a.idempotent_sum(e_vertices)
    ea_rows = fld.image_basis(a.left_mult_operator(e))
    ae_rows = fld.image_basis(a.right_mult_operator(e))
    ea = sub_bimodule(c, a, ea_rows, a.left_mult_operator(corner_rows), a.right_operators)
    ae = sub_bimodule(a, c, ae_rows, a.left_operators, a.right_mult_operator(corner_rows))
    derived, _ = ctx.derived_tensor(stalk_complex(ae.as_right_module()), ea)
    ideal_rows = fld.image_basis(ideal_span(a, e_vertices))
    if homology_dims(derived) != ({0: ideal_rows.shape[0]} if ideal_rows.shape[0] else {}):
        return None
    ideal_mod, _ = submodule_from_rows(regular_module(a), ideal_rows)
    ideal = stalk_complex(ideal_mod)
    return ctx.derived_iso_certificate(derived, ideal, seed=seed, attempts=attempts)


def writable_memo_arrays(algebras, bimodules=()) -> list[str]:
    """Paths to the writable arrays among the memoised values of
    ``algebras`` (every dict attribute: the module memos, the homology
    memo and the validation keys) and the tensor memos of ``bimodules``,
    walked through lists, tuples, dicts, dataclasses and the actions of
    modules."""
    from gluecat.modules import RightModule

    out = []

    def walk(obj, path):
        if isinstance(obj, np.ndarray):
            if obj.flags.writeable:
                out.append(path)
        elif isinstance(obj, RightModule):
            walk(obj.action, f"{path}.action")
        elif isinstance(obj, (list, tuple)):
            for i, item in enumerate(obj):
                walk(item, f"{path}[{i}]")
        elif isinstance(obj, dict):
            for i, item in enumerate(obj.values()):
                walk(item, f"{path}[{i}]")
        elif is_dataclass(obj):
            for f in fields(obj):
                walk(getattr(obj, f.name), f"{path}.{f.name}")

    for a in algebras:
        for name, memo in vars(a).items():
            if isinstance(memo, dict):
                walk(memo, f"{a.name}.{name}")
    for w in bimodules:
        walk(w._tensors, f"{w.name}._tensors")
    return out
