#!/usr/bin/env python3
"""Run ``gluecat verify`` on every orientation of the small trees and
print what each run cost.

    python3 scripts/sweep.py [A3 A4 D4 A5 D5]

For each family it takes every orientation of its edges and every
single-vertex e, at p = 32003 with all three diagrams: 236 cases over
the five families (12 on A3, 32 each on A4 and D4, 80 each on A5 and
D5).  A_n is the path 1 - 2 - ... - n, and D_n joins 1 and 2 to 3,
followed by the path 3 - 4 - ... - n.  Each case runs in a child
process by ``frontier.run``, under its memory limit and with one BLAS
thread.  Per case it prints the exit code, wall time and report
SHA-256, and at the end the number of cases per exit code.
"""

import itertools
import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from frontier import quiver_scenario, run  # noqa: E402

FAMILIES = {
    "A3": (3, [(1, 2), (2, 3)]),
    "A4": (4, [(1, 2), (2, 3), (3, 4)]),
    "D4": (4, [(1, 3), (2, 3), (3, 4)]),
    "A5": (5, [(1, 2), (2, 3), (3, 4), (4, 5)]),
    "D5": (5, [(1, 3), (2, 3), (3, 4), (4, 5)]),
}


def cases(family: str):
    """``(name, scenario)`` for each orientation of ``family`` and each
    single-vertex e; the name lists the arrows and e, as in
    ``A3 2>1,3>2 e=1``."""
    n, edges = FAMILIES[family]
    for flips in itertools.product((False, True), repeat=len(edges)):
        arrows = [[v, u] if flip else [u, v] for (u, v), flip in zip(edges, flips)]
        label = ",".join(f"{s}>{t}" for s, t in arrows)
        for e in range(1, n + 1):
            yield f"{family} {label} e={e}", quiver_scenario(n, arrows, [e])


def main(argv=None) -> int:
    names = (sys.argv[1:] if argv is None else argv) or list(FAMILIES)
    unknown = [n for n in names if n not in FAMILIES]
    if unknown:
        print(f"unknown families {unknown}; choose from {sorted(FAMILIES)}", file=sys.stderr)
        return 2
    exits = Counter()
    print(f"{'case':<24} {'exit':>4} {'wall s':>7}  report sha256")
    with tempfile.TemporaryDirectory() as tmp:
        for family in names:
            for name, scn in cases(family):
                r = run(scn, Path(tmp))
                exits[r["exit"]] += 1
                print(f"{name:<24} {r['exit']:>4} {r['wall_s']:>7.1f}  {r['sha256']}", flush=True)
    print("cases by exit code: " + ", ".join(f"{code}: {count}" for code, count in sorted(exits.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
