#!/usr/bin/env python3
"""Demonstrate that the axiom verifier is not vacuous: corrupt the
diagrams in two ways and show where the checks start failing."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gluecat.algebra import Quiver, path_algebra
from gluecat.field import PrimeField
from gluecat.recollement import (
    PipelineFunctor,
    build_recollement,
    default_menus,
    original_diagram,
    verify_axioms,
)
from gluecat.reflect import NEW_ADJOINT_EXPRS, assemble_reflected
from gluecat.serre import attach_serre


def summarize(title, report):
    fails = [c for c in report.cells if c.verdict == "fail"]
    print(f"{title}: {len(fails)} failing cells out of {len(report.cells)}")
    for c in fails[:3]:
        print(f"    {c.axiom} {c.objects}: expected {c.expected}, got {c.actual}")
    if len(fails) > 3:
        print(f"    ... and {len(fails) - 3} more")


def main():
    algebra = path_algebra(Quiver(3, ((0, 1), (1, 2))), PrimeField(32003))
    rec = build_recollement(algebra, [2])
    sd = attach_serre(rec)
    menus = default_menus(rec)

    healthy = verify_axioms(original_diagram(rec), menus, seed=17)
    summarize("healthy original diagram", healthy)

    corrupted = original_diagram(rec)
    corrupted.pairs["P1"].F = corrupted.emb_right   # i^! where i^* belongs
    corrupted.pairs["P1"].provider = None
    corrupted.pairs["P2"].G = corrupted.emb_left
    corrupted.pairs["P2"].provider = None
    summarize("swapped i^* and i^!", verify_axioms(corrupted, menus, seed=17))

    reflected = assemble_reflected(rec, sd, "upper")
    reflected.quot_left = PipelineFunctor(rec, NEW_ADJOINT_EXPRS["i_?"], "i_?")
    reflected.pairs["P3"].F = reflected.quot_left
    reflected.pairs["P3"].provider = None
    summarize("i_? substituted for i_! (upper)", verify_axioms(reflected, menus, seed=17))
    return 0


if __name__ == "__main__":
    sys.exit(main())
