#!/usr/bin/env python3
"""Run the full verification suite on the three canonical quivers and
print a summary table with timings.

Per fixture it also prints, for duals, replacements, hom complexes, hom
spaces, derived Hom dimension tables and lifts, how many were built
against how many were asked for,
as counted by the content memos of the derived context, the summed
and the largest term dimension of the projective replacements built,
how many times the law checks of ``Algebra``, ``RightModule`` and
``Bimodule`` ran, how many ``ChainMap``s and ``HomSpace``s were
constructed, and, for ``HomComplex``, how many were constructed, how
many summand tables they built (one per degree n of the complex whose
summands a product or a differential read) and how many differentials
they assembled.  Derived Hom dimensions read only the sizes of the
weight blocks wherever no two adjacent degrees are nonzero, so most
complexes build neither.  The script counts those by wrapping the three
``validate`` methods, the constructors and the two ``HomComplex``
builders itself; the library keeps no counter.
"""

import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gluecat.algebra import Algebra
from gluecat.cli import run_suite
from gluecat.complexes import ChainMap, DerivedContext, HomComplex, HomSpace
from gluecat.modules import Bimodule, RightModule
from gluecat.scenarios import fixture_scenario, parse_scenario

MEMOS = ("dual", "replacement", "hom_complex", "hom_space", "derived_hom_dims", "lift")
VALIDATED = (Algebra, RightModule, Bimodule)
CONSTRUCTED = (ChainMap, HomSpace)
HOM_COMPLEX = {"constructed": "__init__", "summand tables": "_build_layout", "differentials": "_build_diff"}


def count_calls(classes, method: str) -> Counter:
    """Wrap ``method`` of each class of ``classes`` so that each call is
    counted, by class name, in the returned counter."""
    counts = Counter()

    def counting(name, call):
        def counted(self, *args, **kwargs):
            counts[name] += 1
            return call(self, *args, **kwargs)
        return counted

    for cls in classes:
        setattr(cls, method, counting(cls.__name__, getattr(cls, method)))
    return counts


def main():
    rows = []
    validations = count_calls(VALIDATED, "validate")
    constructions = count_calls(CONSTRUCTED, "__init__")
    hom_complexes = {label: count_calls([HomComplex], method) for label, method in HOM_COMPLEX.items()}
    for name in ("F1", "F2", "F3"):
        validations.clear()
        constructions.clear()
        for counts in hom_complexes.values():
            counts.clear()
        data = fixture_scenario(name)
        ctx = DerivedContext()
        t0 = time.monotonic()
        reports = run_suite(parse_scenario(data), ctx)
        elapsed = time.monotonic() - t0
        counts = [rep.counts() for rep in reports]
        for rep, c in zip(reports, counts):
            rows.append((name, rep.diagram, c["pass"], c["fail"], c["not-certified"]))
        rows.append((name, "TOTAL", *(sum(c[k] for c in counts) for k in ("pass", "fail", "not-certified"))))
        print(f"{name}: verified in {elapsed:.1f}s "
              f"(quiver {data['quiver']}, e_vertices {data['e_vertices']})")
        memo = ctx.memo_counts()
        print("    built/requested: " + ", ".join(
            f"{kind} {memo[kind][0]}/{memo[kind][1]}" for kind in MEMOS))
        sizes = [sum(r.p.term(n).dim for n in r.p.degrees()) for r in ctx.built_replacements()]
        print(f"    replacement term dimensions: summed {sum(sizes)}, "
              f"largest {max(sizes, default=0)}")
        print("    validate runs: " + ", ".join(f"{cls.__name__} {validations[cls.__name__]}" for cls in VALIDATED))
        print("    constructed: " + ", ".join(f"{cls.__name__} {constructions[cls.__name__]}" for cls in CONSTRUCTED))
        print("    hom complexes: " + ", ".join(f"{label} {counts['HomComplex']}" for label, counts in hom_complexes.items()))
    print()
    print(f"{'fixture':<28} {'suite':<18} {'pass':>6} {'fail':>6} {'inconcl':>8}")
    for label, diagram, ok, bad, inc in rows:
        print(f"{label:<28} {diagram:<18} {ok:>6} {bad:>6} {inc:>8}")
    any_bad = any(r[3] for r in rows)
    print()
    print("RESULT:", "FAIL" if any_bad else "PASS")
    return 1 if any_bad else 0


if __name__ == "__main__":
    sys.exit(main())
