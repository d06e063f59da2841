#!/usr/bin/env python3
"""Run ``gluecat verify`` on the frontier scenarios and print what each
run cost.

    python3 scripts/frontier.py [E6 E7 K3 K4 A8 D6 E8-e3 E8-e5 K3-tail K5]

Each scenario runs in a child process under a 3 GB address-space limit
(``RLIMIT_AS``), single-threaded (``OPENBLAS_NUM_THREADS=1``), with all
three diagrams and the Serre suites.  Per scenario it prints the exit
code, wall time, CPU time (user + system), peak RSS of the child, the
number of cells that ran out of memory (``MemoryError``, exit 2) and the
SHA-256 of the report, so two checkouts can be compared run for run:
equal digests mean byte-identical reports.  :func:`run` verifies any
scenario dict the same way (``scripts/sweep.py`` uses it).

Wall times, each in one child on a 2-core host with 7.7 GB of RAM.
E6, E7, K3 and K4 are from the per-degree Hom complex (after
``f188637``), two runs each; the others are from commit ``4801f1a``:

- E6: 1→2→3→4→5 with 6→3, e = {3}; 1.4–1.8 s, 78 MB;
- E7: 1→2→3→4→5→6 with 7→3, e = {4}; 2.1–2.3 s, 135 MB;
- K3: three arrows 1→2, e = {2}; 1.5–2.0 s, 94–95 MB;
- K4: four arrows 1→2, e = {2}; 18.7–20.9 s, 1,146 MB;
- A8: 1→2→…→8, e = {4}; 4.1 s;
- D6: 1→3←2 with 3→4→5→6, e = {4}; 2.3 s;
- E8-e3 and E8-e5: 1→2→…→7 with 8→3, e = {3}; 8.3 s, and e = {5};
  6.3 s;
- K3-tail: three arrows 1→2 and one arrow 2→3, e = {2}; 13.9 s;
- K5: five arrows 1→2, e = {2}; 202 s, at the 3 GB limit, with four
  cells out of memory (``MemoryError``, exit 2).
"""

import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_SPACE = 3 << 30

E8_ARROWS = [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [8, 3]]
SCENARIOS = {
    "E6": (6, [[1, 2], [2, 3], [3, 4], [4, 5], [6, 3]], [3]),
    "E7": (7, [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [7, 3]], [4]),
    "K3": (2, [[1, 2], [1, 2], [1, 2]], [2]),
    "K4": (2, [[1, 2], [1, 2], [1, 2], [1, 2]], [2]),
    "A8": (8, [[v, v + 1] for v in range(1, 8)], [4]),
    "D6": (6, [[1, 3], [2, 3], [3, 4], [4, 5], [5, 6]], [4]),
    "E8-e3": (8, E8_ARROWS, [3]),
    "E8-e5": (8, E8_ARROWS, [5]),
    "K3-tail": (3, [[1, 2]] * 3 + [[2, 3]], [2]),
    "K5": (2, [[1, 2]] * 5, [2]),
}


def scenario(name: str) -> dict:
    return quiver_scenario(*SCENARIOS[name])


def quiver_scenario(n: int, arrows: list, e: list) -> dict:
    """The ``verify`` scenario of kQ at p = 32003, with all three diagrams;
    vertices and arrows numbered from 1."""
    return {
        "p": 32003,
        "quiver": {"vertices": n, "arrows": arrows},
        "e_vertices": e,
        "seed": 17,
        "variants": ["original", "upper", "lower"],
    }


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run(scn: dict, workdir: Path) -> dict:
    """Verify the scenario ``scn`` in a child process, with its files in
    ``workdir``; its exit code, wall and CPU seconds, peak RSS in MB,
    cells out of memory and report digest."""
    path = workdir / "scenario.json"
    path.write_text(json.dumps(scn), encoding="utf-8")
    report = workdir / "report.json"
    report.unlink(missing_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "gluecat.cli", "verify", str(path), "--report", str(report), "--quiet"]
    t0 = time.monotonic()
    child = subprocess.Popen(cmd, env=env, preexec_fn=_limit_address_space, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.monotonic() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    digest, memory_errors = "-", 0
    if report.exists():
        digest = hashlib.sha256(report.read_bytes()).hexdigest()
        cells = json.loads(report.read_text(encoding="utf-8"))["cells"]
        memory_errors = sum(str(c["actual"]).startswith("error: MemoryError") for c in cells)
    return {
        "exit": child.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        # ru_maxrss is in KB on Linux
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "memory_errors": memory_errors,
        "sha256": digest,
    }


def main(argv=None) -> int:
    names = (sys.argv[1:] if argv is None else argv) or list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(f"unknown scenario(s) {unknown}; choose from {sorted(SCENARIOS)}", file=sys.stderr)
        return 2
    print(f"{'scenario':<9} {'exit':>4} {'wall s':>8} {'cpu s':>8} {'peak MB':>8} {'MemErr':>6}  report sha256")
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            r = run(scenario(name), Path(tmp))
            print(f"{name:<9} {r['exit']:>4} {r['wall_s']:>8.1f} {r['cpu_s']:>8.1f} "
                  f"{r['peak_rss_mb']:>8.1f} {r['memory_errors']:>6}  {r['sha256']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
