import numpy as np
import pytest

from gluecat.algebra import Quiver, path_algebra
from gluecat.complexes import homology_dims, stalk_complex
from gluecat.field import PrimeField
from gluecat.modules import (
    hom_basis_matrices,
    nakayama_bimodule,
    projective_module,
    regular_module,
    simple_module,
    tensor_over,
    tensor_hom,
    projective_cover,
    direct_sum,
)
from gluecat.recollement import build_recollement, default_menu
from gluecat.serre import (
    attach_serre,
    induced_left_pairing,
    induced_right_pairing,
    intrinsic_nakayama_crosscheck,
    nakayama_supertrace,
    serre_axiom_check,
    serre_left_pairing,
    serre_pairing,
    SingularPairingError,
)


@pytest.fixture(scope="module")
def sd_f1():
    gf = PrimeField(32003)
    a = path_algebra(Quiver(2, ((0, 1),)), gf)
    rec = build_recollement(a, [1], seed=17)
    return attach_serre(rec)


@pytest.fixture(scope="module")
def sd_f2():
    gf = PrimeField(32003)
    a = path_algebra(Quiver(3, ((0, 1), (1, 2))), gf)
    rec = build_recollement(a, [2], seed=17)
    return attach_serre(rec)


# ----------------------------------------------------------------------
# module-level trace properties
# ----------------------------------------------------------------------


def test_module_trace_commutation(sd_f1):
    """tr(a then b) == tr(b then (a (x) DA)) for projective modules."""
    import random

    rec = sd_f1.rec
    a = rec.algebra
    fld = a.field
    da = sd_f1.da
    p_cov = projective_cover(regular_module(a))
    q_cov = projective_cover(direct_sum([projective_module(a, 1)[0], projective_module(a, 0)[0]])[0])
    p, q = p_cov.module, q_cov.module
    tp = tensor_over(p, da)
    tq = tensor_over(q, da)

    from gluecat.complexes import ProjSummands, BoundedComplex
    from gluecat.serre import _trace_functionals

    def trace(cov, tens, h):
        summ = ProjSummands(cov.summands, cov.offsets, cov.gen_coords)
        t_vecs = _trace_functionals(a, summ, tens)
        total = 0
        for s, gen in enumerate(summ.gens):
            img = fld.matmul(gen.reshape(1, -1), h)[0]
            total = (total + int(img @ t_vecs[s])) % fld.p
        return total

    rng = random.Random(5)
    alphas = hom_basis_matrices(p, q)
    betas = hom_basis_matrices(q, tp.module)
    assert alphas and betas
    for _ in range(4):
        alpha = sum(
            (rng.randrange(fld.p) * m) % fld.p for m in alphas
        ) % fld.p
        beta = sum((rng.randrange(fld.p) * m) % fld.p for m in betas) % fld.p
        lhs = trace(p_cov, tp, fld.matmul(alpha, beta))
        alpha_da = tensor_hom(alpha, tp, tq)
        # careful: alpha (x) DA maps P(x)DA -> Q(x)DA
        alpha_da = tensor_hom(alpha, tp, tq)
        rhs = trace(q_cov, tq, fld.matmul(beta, alpha_da))
        assert lhs == rhs


def test_supertrace_homotopy_invariance(sd_f1):
    """The pairing vanishes on boundaries."""
    rec, ctx = sd_f1.rec, sd_f1.ctx
    a = rec.algebra
    s2 = stalk_complex(simple_module(a, 1), name="S2")
    t = rec.functor("T")
    tx = t.apply(s2)
    aux = t.aux(s2)
    hs_g = ctx.hom_space(s2, tx)
    # boundaries of the hom complex pair to zero against any cycle
    bnd = hs_g.hc.boundary_space(0)
    rep = aux["rep"]
    for row in bnd:
        g = hs_g.hc.vector_to_chain_map(0, row)
        val = nakayama_supertrace(rep.p, aux["tensors"], g)
        assert val == 0


# ----------------------------------------------------------------------
# T as the Serre functor of D^b(A)
# ----------------------------------------------------------------------


def test_nakayama_sends_projectives_to_injectives(sd_f1):
    a = sd_f1.rec.algebra
    p1 = stalk_complex(projective_module(a, 0)[0], name="P1")
    p2 = stalk_complex(projective_module(a, 1)[0], name="P2")
    assert homology_dims(sd_f1.serre_apply("T", p1)) == {0: 2}
    assert homology_dims(sd_f1.serre_apply("T", p2)) == {0: 1}


def test_serre_apply_zero(sd_f1):
    from gluecat.complexes import zero_complex

    z = zero_complex(sd_f1.rec.algebra)
    assert sd_f1.serre_apply("T", z).is_zero()


def test_serre_pairing_p1_p2(sd_f1):
    a = sd_f1.rec.algebra
    p1 = stalk_complex(projective_module(a, 0)[0], name="P1")
    p2 = stalk_complex(projective_module(a, 1)[0], name="P2")
    w = serre_pairing(sd_f1, p1, p2, "P1", "P2")
    assert w.dim == 1 and w.invertible


def test_serre_pairing_regular(sd_f1):
    a = sd_f1.rec.algebra
    r = stalk_complex(regular_module(a), name="A")
    w = serre_pairing(sd_f1, r, r, "A", "A")
    assert w.dim == a.dim and w.invertible


def test_serre_pairing_zero_object(sd_f1):
    from gluecat.complexes import zero_complex

    a = sd_f1.rec.algebra
    x = stalk_complex(projective_module(a, 0)[0], name="P1")
    z = zero_complex(a)
    w = serre_pairing(sd_f1, x, z, "P1", "0")
    assert w.dim == 0 and w.invertible


def test_left_pairing_matches_dims(sd_f1):
    a = sd_f1.rec.algebra
    p2 = stalk_complex(projective_module(a, 1)[0], name="P2")
    s2 = stalk_complex(simple_module(a, 1), name="S2")
    w = serre_left_pairing(sd_f1, p2, s2, "P2", "S2")
    assert w.invertible


def test_tt_inverse_certificates(sd_f1):
    ctx = sd_f1.ctx
    a = sd_f1.rec.algebra
    for v in range(2):
        x = stalk_complex(projective_module(a, v)[0])
        y = sd_f1.serre_apply("T~", sd_f1.serre_apply("T", x))
        cert = ctx.derived_iso_certificate(y, x, seed=23)
        assert cert.certified


# ----------------------------------------------------------------------
# induced Serre functors
# ----------------------------------------------------------------------


def test_induced_serre_on_f1(sd_f1):
    b = sd_f1.rec.quotient_algebra
    c = sd_f1.rec.corner_algebra
    sb = stalk_complex(regular_module(b), name="B")
    sc = stalk_complex(regular_module(c), name="C")
    assert homology_dims(sd_f1.serre_apply("S", sb)) == {0: 1}
    assert homology_dims(sd_f1.serre_apply("U", sc)) == {0: 1}


def test_induced_pairings_f1(sd_f1):
    b = sd_f1.rec.quotient_algebra
    sb = stalk_complex(regular_module(b), name="B")
    w = induced_right_pairing(sd_f1, "S", sb, sb, "B", "B")
    assert w.dim == 1 and w.invertible
    wl = induced_left_pairing(sd_f1, "S~", sb, sb, "B", "B")
    assert wl.invertible
    c = sd_f1.rec.corner_algebra
    sc = stalk_complex(regular_module(c), name="C")
    wu = induced_right_pairing(sd_f1, "U", sc, sc, "C", "C")
    assert wu.dim == 1 and wu.invertible
    wul = induced_left_pairing(sd_f1, "U~", sc, sc, "C", "C")
    assert wul.invertible


def test_induced_serre_s_matches_b_nakayama_f2(sd_f2):
    report = intrinsic_nakayama_crosscheck(sd_f2, "S", seed=9)
    assert all(c.verdict == "pass" for c in report.cells)
    report_u = intrinsic_nakayama_crosscheck(sd_f2, "U", seed=9)
    assert all(c.verdict == "pass" for c in report_u.cells)


# ----------------------------------------------------------------------
# the axiom suite
# ----------------------------------------------------------------------


def test_serre_axioms_middle_category_f1(sd_f1):
    menu = default_menu(sd_f1.rec, "A")
    report = serre_axiom_check(sd_f1, "T", menu, seed=31, pairing_pairs=4)
    bad = [c for c in report.cells if c.verdict != "pass"]
    assert not bad, [f"{c.axiom} {c.objects}: {c.note}" for c in bad[:6]]


@pytest.mark.parametrize("which,tag", [("S", "B"), ("U", "C")])
def test_serre_axioms_outer_categories_f1(sd_f1, which, tag):
    menu = default_menu(sd_f1.rec, tag)
    report = serre_axiom_check(sd_f1, which, menu, seed=31)
    bad = [c for c in report.cells if c.verdict != "pass"]
    assert not bad, [f"{c.axiom} {c.objects}: {c.note}" for c in bad[:6]]


def test_serre_axioms_empty_menu_vacuous(sd_f1):
    report = serre_axiom_check(sd_f1, "T", [], seed=31)
    assert report.cells[0].verdict == "pass"
    assert "vacuous" in report.cells[0].note


# ----------------------------------------------------------------------
# batched Gram matrices against the entry-by-entry oracle
# ----------------------------------------------------------------------


_PAIRINGS = {
    "T": lambda sd, x, y: serre_pairing(sd, x, y),
    "T~": lambda sd, x, y: serre_left_pairing(sd, x, y),
    "S": lambda sd, x, y: induced_right_pairing(sd, "S", x, y),
    "S~": lambda sd, x, y: induced_left_pairing(sd, "S~", x, y),
    "U": lambda sd, x, y: induced_right_pairing(sd, "U", x, y),
    "U~": lambda sd, x, y: induced_left_pairing(sd, "U~", x, y),
}


@pytest.mark.parametrize("fixture", ["sd_f1", "sd_f2"])
@pytest.mark.parametrize("which,tag", [("T", "A"), ("T~", "A"), ("S", "B"), ("S~", "B"), ("U", "C"), ("U~", "C")])
def test_batched_gram_matches_entrywise_oracle(request, fixture, which, tag):
    from oracles import gram_entrywise

    sd = request.getfixturevalue(fixture)
    menu = default_menu(sd.rec, tag)
    compared = 0
    for _, x in menu:
        for _, y in menu:
            try:
                w = _PAIRINGS[which](sd, x, y)
            except SingularPairingError:
                continue  # Hom dimensions differ in degree 0: no Gram matrix
            assert np.array_equal(w.gram, gram_entrywise(sd, which, x, y))
            compared += w.dim > 0
    assert compared > 0
