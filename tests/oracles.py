"""Independent brute-force oracles for the test suite.

The path oracles work directly on quiver data with plain Python, without
touching the package's algebra or module machinery, so expected values
are computed along a second path.  The Gram oracle at the end is the
entry-by-entry reference for the batched Serre pairings: it evaluates
each Gram entry on its own, with one lift and one supertrace per entry.
``hom_coords_by_elimination`` is the reference for hom coordinates: it
solves for them in the hom basis by Gaussian elimination.
"""

from __future__ import annotations

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
# entry-by-entry Serre Gram matrices
# ----------------------------------------------------------------------


def _pair_right_value(ctx, t_functor, xp, yp, f, g) -> int:
    """Trace pairing of f in Hom(x', y') against g in Hom(y', T x')."""
    from gluecat.complexes import compose_maps
    from gluecat.serre import nakayama_supertrace

    tx = t_functor.apply(xp)
    aux = t_functor.aux(xp)
    f_hat = ctx.hom_space(xp, yp).normalize(f)
    g_hat = ctx.hom_space(yp, tx).normalize(g)
    rep_y = ctx.replacement(yp)
    ell, _ = ctx.lift_through_qis(aux["rep"].p, f_hat, rep_y.qis)
    c = compose_maps(ell, g_hat)
    return nakayama_supertrace(aux["rep"].p, aux["tensors"], c)


def _pair_left_value(ctx, tt_functor, xp, yp, f, h) -> int:
    """Trace pairing of f in Hom(x', y') against h in Hom(T~ y', x')."""
    from gluecat.complexes import ChainMap, compose_maps, dual_chain_map
    from gluecat.serre import nakayama_supertrace

    ty = tt_functor.apply(yp)
    aux = tt_functor.aux(yp)
    rep_ty = ctx.replacement(ty)
    f_hat = ctx.hom_space(xp, yp).normalize(f)
    h_hat = ctx.hom_space(ty, xp).normalize(h)
    rep_x = ctx.replacement(xp)
    ell, _ = ctx.lift_through_qis(rep_ty.p, h_hat, rep_x.qis)
    sigma_inv = ChainMap(ty, rep_ty.p, dict(rep_ty.sigma_inv))
    c = compose_maps(compose_maps(sigma_inv, ell), f_hat)  # ty -> yp
    dc = dual_chain_map(c, dual_source=aux["pre"], dual_target=ctx.dual(yp))
    z = compose_maps(aux["rep"].qis, dc)
    return nakayama_supertrace(aux["rep"].p, aux["tensors"], z)


def gram_entrywise(sd, which: str, x, y):
    """Gram matrix of one Serre pairing on (x, y), one entry at a time.

    ``which`` names the functor F of the pairing: "T" and "T~" give
    :func:`serre_pairing` and :func:`serre_left_pairing`, "S" and "U"
    :func:`induced_right_pairing`, "S~" and "U~"
    :func:`induced_left_pairing`.
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
