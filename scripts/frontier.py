#!/usr/bin/env python3
"""Run ``gluecat verify`` on the frontier scenarios and print what each
run cost.

    python3 scripts/frontier.py [E6 E7 K3]

Each scenario runs in a child process under a 3 GB address-space limit
(``RLIMIT_AS``), single-threaded (``OPENBLAS_NUM_THREADS=1``), with all
three diagrams and the Serre suites.  Per scenario it prints the exit
code, wall time, CPU time (user + system), peak RSS of the child and the
SHA-256 of the report, so two checkouts can be compared run for run:
equal digests mean byte-identical reports.

- E6: 1→2→3→4→5 with 6→3, e = {3};
- E7: 1→2→3→4→5→6 with 7→3, e = {4};
- K3: three arrows 1→2, e = {2}.
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

SCENARIOS = {
    "E6": (6, [[1, 2], [2, 3], [3, 4], [4, 5], [6, 3]], [3]),
    "E7": (7, [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [7, 3]], [4]),
    "K3": (2, [[1, 2], [1, 2], [1, 2]], [2]),
}


def scenario(name: str) -> dict:
    n, arrows, e = SCENARIOS[name]
    return {
        "p": 32003,
        "quiver": {"vertices": n, "arrows": arrows},
        "e_vertices": e,
        "seed": 17,
        "variants": ["original", "upper", "lower"],
    }


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run(name: str, workdir: Path) -> dict:
    """Verify one scenario in a child process; its exit code, wall and
    CPU seconds, peak RSS in MB and report digest."""
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(scenario(name)), encoding="utf-8")
    report = workdir / f"{name}-report.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "gluecat.cli", "verify", str(path), "--report", str(report), "--quiet"]
    t0 = time.monotonic()
    child = subprocess.Popen(cmd, env=env, preexec_fn=_limit_address_space, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.monotonic() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    digest = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else "-"
    return {
        "exit": child.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        # ru_maxrss is in KB on Linux
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "sha256": digest,
    }


def main(argv=None) -> int:
    names = (sys.argv[1:] if argv is None else argv) or list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(f"unknown scenario(s) {unknown}; choose from {sorted(SCENARIOS)}", file=sys.stderr)
        return 2
    print(f"{'scenario':<9} {'exit':>4} {'wall s':>8} {'cpu s':>8} {'peak MB':>8}  report sha256")
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            r = run(name, Path(tmp))
            print(f"{name:<9} {r['exit']:>4} {r['wall_s']:>8.1f} {r['cpu_s']:>8.1f} "
                  f"{r['peak_rss_mb']:>8.1f}  {r['sha256']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
