import numpy as np
import pytest

from gluecat.algebra import Quiver, path_algebra
from gluecat.complexes import homology_dims, stalk_complex
from gluecat.field import PrimeField
from gluecat.modules import (
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
    intrinsic_nakayama_crosscheck,
    serre_axiom_check,
    serre_pairing,
    SingularPairingError,
)

from oracles import hom_basis_dense, nakayama_supertrace


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

    from gluecat.modules import projective_sum
    from gluecat.serre import _trace_functionals

    def trace(cov, tens, h):
        t_vecs = _trace_functionals(a, cov.summands, tens)
        total = 0
        for s, gen in enumerate(projective_sum(a, cov.summands)[2]):
            img = fld.matmul(gen.reshape(1, -1), h)[0]
            total = (total + int(img @ t_vecs[s])) % fld.p
        return total

    rng = random.Random(5)
    alphas = hom_basis_dense(p, q)
    betas = hom_basis_dense(q, tp.module)
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
    rep = ctx.replacement(s2)
    for row in bnd:
        g = hs_g.hc.vector_to_chain_map(row)
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
    g = serre_pairing(sd_f1, "T", p1, p2)
    assert g.shape == (1, 1) and a.field.rank(g) == 1


def test_serre_pairing_regular(sd_f1):
    a = sd_f1.rec.algebra
    r = stalk_complex(regular_module(a), name="A")
    g = serre_pairing(sd_f1, "T", r, r)
    assert g.shape == (a.dim, a.dim) and a.field.rank(g) == a.dim


def test_serre_pairing_zero_object(sd_f1):
    from gluecat.complexes import zero_complex

    a = sd_f1.rec.algebra
    x = stalk_complex(projective_module(a, 0)[0], name="P1")
    z = zero_complex(a)
    assert serre_pairing(sd_f1, "T", x, z).shape == (0, 0)


def test_left_pairing_matches_dims(sd_f1):
    a = sd_f1.rec.algebra
    p2 = stalk_complex(projective_module(a, 1)[0], name="P2")
    s2 = stalk_complex(simple_module(a, 1), name="S2")
    g = serre_pairing(sd_f1, "T~", p2, s2)
    assert g.shape == (1, 1) and a.field.rank(g) == 1


@pytest.mark.parametrize("which", ["F", "S~~", "nak(B)", ""])
def test_serre_pairing_refuses_other_names(sd_f1, which):
    x = default_menu(sd_f1.rec, "A")[0][1]
    with pytest.raises(ValueError) as info:
        serre_pairing(sd_f1, which, x, x)
    assert str(info.value) == "which must be 'T', 'S', 'U', 'T~', 'S~' or 'U~'"


@pytest.mark.parametrize(
    "which,x,y,message",
    [
        ("T", "P1", "P2", "dim Hom(x,y)=1 but dim Hom(y,Tx)=0"),
        ("T", "P2", "P1", "dim Hom(x,y)=0 but dim Hom(y,Tx)=1"),
        ("T~", "P1", "P2", "dim Hom(x,y)=1 but dim Hom(T~y,x)=0"),
        ("T~", "P2", "P1", "dim Hom(x,y)=0 but dim Hom(T~y,x)=1"),
    ],
)
def test_serre_pairing_dimension_mismatch_messages(sd_f1, monkeypatch, which, x, y, message):
    # Serre duality keeps the two Hom dimensions equal, so a functor
    # that is not Serre, the identity, shows the mismatch
    menu = dict(default_menu(sd_f1.rec, "A"))
    monkeypatch.setattr(sd_f1, "serre_apply", lambda name, obj: obj)
    with pytest.raises(SingularPairingError) as info:
        serre_pairing(sd_f1, which, menu[x], menu[y])
    assert str(info.value) == message


@pytest.mark.parametrize(
    "which,tag,message",
    [
        ("T", "A", "right Serre pairing is degenerate"),
        ("T~", "A", "left Serre pairing is degenerate"),
        ("S", "B", "induced S-pairing is degenerate"),
        ("S~", "B", "induced S~-pairing is degenerate"),
        ("U", "C", "induced U-pairing is degenerate"),
        ("U~", "C", "induced U~-pairing is degenerate"),
    ],
)
def test_serre_pairing_degeneracy_messages(sd_f1, monkeypatch, which, tag, message):
    # a zero trace product makes every nonempty pairing degenerate
    import gluecat.serre as serre_mod

    x = dict(default_menu(sd_f1.rec, tag))["R"]

    def zero_product(fld, factors, lefts, rights):
        return fld.zeros(len(lefts), len(rights))

    monkeypatch.setattr(serre_mod, "_trace_gram", zero_product)
    with pytest.raises(SingularPairingError) as info:
        serre_pairing(sd_f1, which, x, x)
    assert str(info.value) == message


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
    c = sd_f1.rec.corner_algebra
    sc = stalk_complex(regular_module(c), name="C")
    fld = b.field
    for which, x in [("S", sb), ("S~", sb), ("U", sc), ("U~", sc)]:
        g = serre_pairing(sd_f1, which, x, x)
        assert g.shape == (1, 1) and fld.rank(g) == 1, which


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


def _exhausted(*args, **kwargs):
    raise MemoryError("Unable to allocate 974 MiB")


def test_serre_cell_guard_makes_a_memory_error_inconclusive(sd_f1, monkeypatch):
    menu = default_menu(sd_f1.rec, "A")
    ctx = sd_f1.ctx
    victim = menu[0][1]
    dims = ctx.derived_hom_dims
    monkeypatch.setattr(
        ctx, "derived_hom_dims", lambda x, y: _exhausted() if x is y is victim else dims(x, y)
    )
    report = serre_axiom_check(sd_f1, "T", menu, seed=31, pairing_pairs=4)
    bad = [c for c in report.cells if c.verdict != "pass"]
    assert {(c.axiom, c.objects) for c in bad} == {(a, "x=P1 y=P1") for a in ("S.a", "S.b", "S.c")}
    for c in bad:
        assert c.verdict == "not-certified"
        assert c.actual == "error: MemoryError: Unable to allocate 974 MiB"


def test_nakayama_cell_guard_makes_a_memory_error_inconclusive(sd_f1, monkeypatch):
    monkeypatch.setattr(sd_f1.ctx, "derived_iso_certificate", _exhausted)
    report = intrinsic_nakayama_crosscheck(sd_f1, "S", seed=17)
    assert report.cells
    for c in report.cells:
        assert c.verdict == "not-certified"
        assert c.actual == "error: MemoryError: Unable to allocate 974 MiB"


def test_serre_axioms_empty_menu_vacuous(sd_f1):
    report = serre_axiom_check(sd_f1, "T", [], seed=31)
    assert report.cells[0].verdict == "pass"
    assert "vacuous" in report.cells[0].note


# ----------------------------------------------------------------------
# batched Gram matrices against the entry-by-entry oracle
# ----------------------------------------------------------------------


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
                g = serre_pairing(sd, which, x, y)
            except SingularPairingError:
                continue  # Hom dimensions differ in degree 0: no Gram matrix
            assert np.array_equal(g, gram_entrywise(sd, which, x, y))
            compared += len(g) > 0
    assert compared > 0
