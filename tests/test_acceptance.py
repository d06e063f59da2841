"""Acceptance suite: one test per criterion, one printed verdict line each.

Everything runs at the exact tolerances of finite-field arithmetic; there
are no approximate comparisons anywhere.
"""

import json
import time

import numpy as np
import pytest

from gluecat.algebra import Quiver, path_algebra
from gluecat.cli import main as cli_main
from gluecat.complexes import stalk_complex
from gluecat.field import PrimeField
from gluecat.modules import projectives
from gluecat.recollement import (
    build_recollement,
    default_menus,
    original_diagram,
    verify_axioms,
)
from gluecat.reflect import (
    NEW_ADJOINT_EXPRS,
    assemble_reflected,
    composite_adjunctions,
)
from gluecat.scenarios import fixture_scenario
from gluecat.serre import attach_serre, intrinsic_nakayama_crosscheck, serre_axiom_check

from oracles import ext_dims, simples

FIXTURES = {
    "F1": (2, ((0, 1),), [1]),
    "F2": (3, ((0, 1), (1, 2)), [2]),
    "F3": (2, ((0, 1), (0, 1)), [1]),
}


@pytest.fixture(scope="module")
def workbenches():
    out = {}
    for name, (n, arrows, e) in FIXTURES.items():
        field = PrimeField(32003)
        algebra = path_algebra(Quiver(n, arrows), field)
        rec = build_recollement(algebra, e, seed=17)
        sd = attach_serre(rec)
        menus = default_menus(rec)
        out[name] = (rec, sd, menus)
    return out


def _verdict(num, label, ok, detail=""):
    line = f"ACCEPTANCE {num} [{label}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def test_criterion_1_original_recollement_axioms(workbenches):
    ok_all = True
    details = []
    for name, (rec, sd, menus) in workbenches.items():
        for tag in ("A", "B", "C"):
            assert len(menus[tag]) >= 6
        start = time.monotonic()
        report = verify_axioms(original_diagram(rec), menus, seed=17)
        elapsed = time.monotonic() - start
        bad = [c for c in report.cells if c.verdict != "pass"]
        ok = not bad and elapsed < 60
        ok_all = ok_all and ok
        details.append(f"{name}: {len(report.cells)} cells, {elapsed:.1f}s")
        if bad:
            details.append(f"{name} first failure: {bad[0].axiom} {bad[0].objects}")
    assert _verdict(1, "original recollement axioms", ok_all, "; ".join(details))


def test_criterion_2_induced_serre_functors(workbenches):
    ok_all = True
    details = []
    for name, (rec, sd, menus) in workbenches.items():
        start = time.monotonic()
        for which, tag in (("S", "B"), ("U", "C")):
            report = serre_axiom_check(sd, which, menus[tag], seed=17)
            bad = [c for c in report.cells if c.verdict != "pass"]
            if bad:
                ok_all = False
                details.append(f"{name}/{which}: {bad[0].axiom} {bad[0].objects}")
            cross = intrinsic_nakayama_crosscheck(sd, which, seed=17)
            if any(c.verdict != "pass" for c in cross.cells):
                ok_all = False
                details.append(f"{name}/{which}: nakayama cross-check failed")
        details.append(f"{name}: {time.monotonic() - start:.1f}s")
    assert _verdict(2, "induced Serre functors with pairings", ok_all, "; ".join(details))


def test_criterion_3_new_adjoint_dimension_equalities(workbenches):
    ok_all = True
    details = []
    for name, (rec, sd, menus) in workbenches.items():
        ctx = rec.ctx
        comp = composite_adjunctions(sd)
        span = max(x.hi - x.lo for menu in menus.values() for _, x in menu if not x.is_zero())
        w = span + max(rec.global_dimensions.values()) + 2
        window = range(-w, w + 1)
        start = time.monotonic()
        pair_menus = {
            "(i_!, i^*)": (menus["B"], menus["A"]),
            "(j^?, j_!)": (menus["A"], menus["C"]),
            "(i^!, i_?)": (menus["A"], menus["B"]),
            "(j_*, j^!)": (menus["C"], menus["A"]),
        }
        mismatches = 0
        for pname, prov in comp.items():
            xs, ys = pair_menus[pname]
            matrices_done = 0
            for xn, x in xs:
                fx = prov.F_apply(x)
                for yn, y in ys:
                    gy = prov.G_apply(y)
                    lhs = ctx.derived_hom_dims(fx, y)
                    rhs = ctx.derived_hom_dims(x, gy)
                    if any(lhs.get(k, 0) != rhs.get(k, 0) for k in window):
                        mismatches += 1
                        continue
                    if matrices_done < 3 and lhs.get(0, 0) > 0:
                        matrices_done += 1
                        fwd = prov.forward_matrix(x, y)
                        bwd = prov.backward_matrix(x, y)
                        fld = x.field
                        if not (
                            fwd.shape[0] == fwd.shape[1]
                            and np.array_equal(fld.matmul(fwd, bwd), fld.identity(fwd.shape[0]))
                        ):
                            mismatches += 1
            if matrices_done == 0:
                mismatches += 1
        ok = mismatches == 0
        ok_all = ok_all and ok
        details.append(f"{name}: {time.monotonic() - start:.1f}s, mismatches={mismatches}")
    assert _verdict(3, "four new adjunctions at every degree", ok_all, "; ".join(details))


def test_criterion_4_reflected_recollements(workbenches):
    ok_all = True
    details = []
    for name, (rec, sd, menus) in workbenches.items():
        start = time.monotonic()
        for variant in ("upper", "lower"):
            reflected = assemble_reflected(rec, sd, variant)
            report = verify_axioms(reflected, menus, seed=17)
            bad = [c for c in report.cells if c.verdict != "pass"]
            essim = [c for c in report.cells if c.axiom == "EssIm"]
            if bad:
                ok_all = False
                details.append(
                    f"{name}/{variant}: {bad[0].axiom} {bad[0].objects} {bad[0].note}"
                )
            if not essim:
                ok_all = False
                details.append(f"{name}/{variant}: no kernel/essential-image cells")
        elapsed = time.monotonic() - start
        if elapsed >= 120:
            ok_all = False
        details.append(f"{name}: {elapsed:.1f}s")
    assert _verdict(4, "both reflected recollements", ok_all, "; ".join(details))


def test_criterion_5_derived_hom_matches_ext_oracle(workbenches):
    ok_all = True
    bad_pairs = []
    for name, (rec, sd, menus) in workbenches.items():
        ctx = rec.ctx
        for algebra in (rec.algebra, rec.quotient_algebra, rec.corner_algebra):
            mods = projectives(algebra) + simples(algebra)
            for m in mods:
                for n_mod in mods:
                    oracle = ext_dims(m, n_mod, 2)
                    dims = ctx.derived_hom_dims(stalk_complex(m), stalk_complex(n_mod))
                    for k in range(3):
                        if dims.get(k, 0) != oracle[k]:
                            ok_all = False
                            bad_pairs.append((name, m.name, n_mod.name, k))
    assert _verdict(
        5, "derived Hom equals resolution-path Ext", ok_all, f"bad={bad_pairs[:4]}"
    )


def test_criterion_6_negative_controls(workbenches):
    rec, sd, menus = workbenches["F2"]
    # control 1: swap i^* and i^! in the original diagram
    diagram = original_diagram(rec)
    diagram.pairs["P1"].F = diagram.emb_right
    diagram.pairs["P1"].provider = None
    diagram.pairs["P2"].G = diagram.emb_left
    diagram.pairs["P2"].provider = None
    report = verify_axioms(diagram, menus, seed=17)
    fails_1 = [c for c in report.cells if c.axiom == "R1.1" and c.verdict == "fail"]
    # control 2: substitute i_? for i_! in the upper reflected diagram
    from gluecat.recollement import PipelineFunctor

    reflected = assemble_reflected(rec, sd, "upper")
    reflected.quot_left = PipelineFunctor(rec, NEW_ADJOINT_EXPRS["i_?"], "i_?")
    reflected.pairs["P3"].F = reflected.quot_left
    reflected.pairs["P3"].provider = None
    report2 = verify_axioms(reflected, menus, seed=17)
    fails_2 = [c for c in report2.cells if c.axiom == "R1.1" and c.verdict == "fail"]
    ok = bool(fails_1) and bool(fails_2)
    assert _verdict(
        6,
        "corrupted diagrams are caught",
        ok,
        f"swap-fails={len(fails_1)}, substitute-fails={len(fails_2)}",
    )


def test_criterion_7_report_determinism(tmp_path):
    data = fixture_scenario("F1")
    scn = tmp_path / "f1.json"
    scn.write_text(json.dumps(data), encoding="utf-8")
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = cli_main(["verify", str(scn), "--report", str(r1), "--quiet"])
    code2 = cli_main(["verify", str(scn), "--report", str(r2), "--quiet"])
    ok = code1 == 0 and code2 == 0 and r1.read_bytes() == r2.read_bytes()
    assert _verdict(7, "byte-identical reports", ok, f"exit codes {code1}/{code2}")
