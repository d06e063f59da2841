"""Batch front end.

    gluecat verify <scenario.json> [--report out.json] [--quiet]
    gluecat apply <scenario.json> <functor> <object>

Each report cell has the verdict pass, fail or not-certified; the
summary counts not-certified cells as inconclusive (README, "Report
cells", lists every axiom code, note and certificate status).

Exit codes:

    0  every cell passed
    1  at least one check failed
    2  no failures, but some cells were inconclusive: a certificate
       search found nothing, or a check ran out of memory (MemoryError)
    3  invalid scenario: composite characteristic, a characteristic
       p >= 2^16, cyclic quiver, e at every vertex, non-stratifying
       idempotent, resolution cap exceeded, a repeated variant or menu
       name, a menu name that no category has, unknown functor or object
    4  unexpected error (a bug, or a fault such as an unwritable report
       path); stderr then carries one JSON line {"error": type, "message": text}
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from collections import Counter

from .algebra import (
    CyclicQuiverError,
    IdealIsWholeAlgebraError,
    Quiver,
    path_algebra,
)
from .complexes import DerivedContext, homology_dims
from .field import PrimeField
from .modules import GlobalDimensionExceedsCapError, ResolutionExceedsCapError
from .recollement import (
    CATEGORY_TAGS,
    DefaultMenu,
    FunctorExpr,
    NotStratifyingError,
    VerificationReport,
    build_recollement,
    default_menus,
    original_diagram,
    verify_axioms,
)
from .reflect import NEW_ADJOINT_EXPRS, assemble_reflected
from .scenarios import Scenario, ScenarioError, load_scenario
from .serre import (
    INDUCED_EXPRS,
    SERRE_FUNCTORS,
    attach_serre,
    intrinsic_nakayama_crosscheck,
    serre_axiom_check,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_INVALID = 3
EXIT_ERROR = 4

_FUNCTOR_ALIASES = {
    "T̃": "T~",
    "S̃": "S~",
    "Ũ": "U~",
}

_SETUP_ERRORS = (
    ScenarioError,
    CyclicQuiverError,
    IdealIsWholeAlgebraError,
    NotStratifyingError,
    GlobalDimensionExceedsCapError,
    ResolutionExceedsCapError,
)


def _build_workbench(scn: Scenario, ctx: DerivedContext | None = None):
    field = PrimeField(scn.p)
    quiver = Quiver(scn.vertices, tuple(scn.arrows))
    algebra = path_algebra(quiver, field)
    rec = build_recollement(algebra, scn.e_vertices, ctx=ctx, gldim_cap=scn.gldim_cap)
    sd = attach_serre(rec)
    return rec, sd


def run_suite(
    scn: Scenario, ctx: DerivedContext | None = None, before_cells=None
) -> list[VerificationReport]:
    """Build the workbench of a scenario and run every suite of ``verify``.

    Reports come in a fixed order: one per requested diagram variant,
    then the Serre suites of T, S and U, then the Nakayama cross-checks
    of S and U.  Scenario and set-up errors propagate to the caller.
    ``ctx`` is the derived context to work in, a fresh one by default;
    pass one to read its memo counts afterwards.  ``before_cells`` is
    called once set-up has passed, before any cell runs.
    """
    rec, sd = _build_workbench(scn, ctx)
    menus = _resolve_menus(rec, scn)
    if before_cells is not None:
        before_cells()
    seed, attempts = scn.seed, scn.attempts
    reports = []
    for variant in scn.variants:
        if variant == "original":
            diagram = original_diagram(rec, sd.adjunctions)
        else:
            diagram = assemble_reflected(rec, sd, variant)
        reports.append(
            verify_axioms(diagram, menus, seed=seed, attempts=attempts, matrix_pairs=scn.matrix_pairs)
        )
    for tag, (which, _) in SERRE_FUNCTORS.items():
        budget = scn.matrix_pairs if which == "T" else None
        reports.append(
            serre_axiom_check(sd, which, menus[tag], seed=seed, attempts=attempts, pairing_pairs=budget)
        )
    for which in ("S", "U"):
        reports.append(intrinsic_nakayama_crosscheck(sd, which, seed=seed, attempts=attempts))
    return reports


def _resolve_menus(rec, scn: Scenario):
    """The menu of each category: the whole default menu, or the named
    entries of it, each built alone.  A name that no category has, or a
    category left with no entry, is a :class:`ScenarioError`."""
    if scn.menu == "default":
        return default_menus(rec)
    menus = {tag: DefaultMenu(rec, tag) for tag in CATEGORY_TAGS}
    unknown = [name for name in scn.menu if not any(menu.has(name) for menu in menus.values())]
    if unknown:
        raise ScenarioError(f"menu names {unknown} are in no category")
    out = {}
    for tag, menu in menus.items():
        out[tag] = [(name, menu.get(name)) for name in scn.menu if menu.has(name)]
        if not out[tag]:
            raise ScenarioError(f"menu selects no objects in category {tag}")
    return out


def _functor_expr(rec, name: str) -> FunctorExpr:
    name = _FUNCTOR_ALIASES.get(name, name)
    if name in rec.registry:
        return FunctorExpr((name,))
    if name in INDUCED_EXPRS:
        return INDUCED_EXPRS[name]
    if name in NEW_ADJOINT_EXPRS:
        return NEW_ADJOINT_EXPRS[name]
    raise ScenarioError(f"unknown functor {name!r}")


def _tally(reports) -> dict[str, int]:
    """The verdicts of the cells of ``reports``; a not-certified cell is
    inconclusive."""
    counts = Counter()
    for rep in reports:
        counts.update(rep.counts())
    return {"pass": counts["pass"], "fail": counts["fail"], "inconclusive": counts["not-certified"]}


def _report_payload(scn: Scenario, reports):
    cells = [c.to_dict() for rep in reports for c in rep.sorted_cells()]
    cells.sort(key=lambda c: (c["diagram"], c["axiom"], c["objects"], c["note"]))
    return {
        "scenario": scn.raw,
        "cells": cells,
        "coverage": {rep.diagram: rep.coverage for rep in reports},
        "summary": _tally(reports),
    }


def cmd_verify(args) -> int:
    try:
        scn = load_scenario(args.scenario)
        # created once set-up has passed: an unwritable path fails before
        # any cell runs, and an invalid scenario leaves the file alone
        reports = run_suite(scn, before_cells=lambda: open(args.report, "w").close())
    except _SETUP_ERRORS as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INVALID

    # the workbench is garbage now, but its algebra memos form reference
    # cycles: free it before the report is serialised, not whenever the
    # cyclic collector next runs
    gc.collect()
    payload = _report_payload(scn, reports)
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    with open(args.report, "w", encoding="utf-8") as fh:
        fh.write(text)

    counts = payload["summary"]
    if not args.quiet:
        for rep in reports:
            c = _tally([rep])
            print(
                f"{rep.diagram}: pass={c['pass']} fail={c['fail']} "
                f"inconclusive={c['inconclusive']}"
            )
    if counts["fail"]:
        verdict, code = "FAIL", EXIT_FAIL
    elif counts["inconclusive"]:
        verdict, code = "INCONCLUSIVE", EXIT_INCONCLUSIVE
    else:
        verdict, code = "PASS", EXIT_PASS
    print(f"RESULT: {verdict} ({counts['pass']} pass, {counts['fail']} fail, "
          f"{counts['inconclusive']} inconclusive); report: {args.report}")
    return code


def cmd_apply(args) -> int:
    try:
        scn = load_scenario(args.scenario)
        rec, _ = _build_workbench(scn)
        expr = _functor_expr(rec, args.functor)
        src_tag, _ = expr.signature(rec.registry)
        menu = DefaultMenu(rec, src_tag)
        x = menu.get(args.object)
        if x is None:
            raise ScenarioError(
                f"unknown object {args.object!r} in category {src_tag}; "
                f"choose from {sorted(menu.names())}"
            )
    except _SETUP_ERRORS as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return EXIT_INVALID
    out = rec.apply_expr(expr, x)
    dims = {str(k): v for k, v in sorted(homology_dims(out).items())}
    print(json.dumps(dims, sort_keys=True))
    return EXIT_PASS


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gluecat",
        description="Build and machine-verify recollements of bounded derived "
        "categories of path-algebra quotients over GF(p).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full axiom suite for a scenario")
    p_verify.add_argument("scenario")
    p_verify.add_argument("--report", default="report.json", help="structured report path")
    p_verify.add_argument("--quiet", action="store_true", help="only print the final line")
    p_verify.set_defaults(func=cmd_verify)

    p_apply = sub.add_parser("apply", help="apply a functor to a menu object")
    p_apply.add_argument("scenario")
    p_apply.add_argument("functor")
    p_apply.add_argument("object")
    p_apply.set_defaults(func=cmd_apply)
    return parser


# built once, at import: ``main`` may run many times in one process
_PARSER = _parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
