"""Workload definitions: scenarios, operations and their golden outputs.

Every operation goes through gluecat's public functions only.  The
scenario templates in ``scenarios/`` carry seed 17; a run writes copies
with its own ``--seed`` into the work directory, so the program sees
only the generated scenario files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCENARIO_DIR = HERE / "scenarios"
GOLDEN_PATH = HERE / "golden.json"
TEMPLATE_SEED = 17

# The sixteen functor names the CLI accepts (aliases excluded).
FUNCTOR_NAMES = ("i_*", "i^*", "i^!", "j_!", "j^*", "j_*", "T", "T~",
                 "S", "S~", "U", "U~", "i_!", "j^?", "i_?", "j^!")

WORKLOADS = {
    "verify-fixtures": ("F1", "F2", "F3"),
    "original-large": ("A3-e2", "A4-e4", "A5-e5", "D4-centre"),
    "apply-cold": ("F2", "A4-e4", "D4-centre"),
}

# Scenarios that crash the library today, with the exception each
# raises.  They run once per original-large run, outside the timed
# operations, and their outcome is reported next to the result.
KNOWN_DEFECTS = {"original-large": {"A4-e34": "KeyError"}}


def write_scenarios(names, seed: int, out_dir: Path):
    """Copy the named templates into ``out_dir`` with ``seed`` written in."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        data = json.loads((SCENARIO_DIR / f"{name}.json").read_text(encoding="utf-8"))
        data["seed"] = seed
        (out_dir / f"{name}.json").write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def list_ops(workload: str, golden: dict) -> list[tuple[str, str]]:
    """(scenario, label) for every operation of one pass, in run order."""
    if workload == "apply-cold":
        return [(scn, label) for scn in WORKLOADS[workload] for label in golden[workload][scn]]
    return [(scn, scn) for scn in WORKLOADS[workload]]


# -- digests -------------------------------------------------------------


def report_digest(report_bytes: bytes) -> str:
    """SHA-256 of a ``verify`` report as it reads with the template seed.

    The report embeds the scenario, so its seed is put back to the
    template's before hashing; the cells themselves do not depend on the
    seed.  The report must re-serialise to exactly its own bytes, which
    checks that it is the canonical, byte-deterministic form.
    """
    payload = json.loads(report_bytes)
    if (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode() != report_bytes:
        return "not-canonical"
    payload["scenario"]["seed"] = TEMPLATE_SEED
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def cells_digest(report) -> str:
    cells = [c.to_dict() for c in report.sorted_cells()]
    return hashlib.sha256(json.dumps(cells, sort_keys=True).encode()).hexdigest()


# -- operations ------------------------------------------------------------
#
# Each returns (output, cells): ``output`` is compared with the golden
# entry, ``cells`` counts the checked outputs the operation produced.


def run_verify(cli, scenario: Path, report: Path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", str(scenario), "--report", str(report), "--quiet"])
    if code != 0:
        raise RuntimeError(f"verify exited {code}: {out.getvalue().strip()}")
    data = report.read_bytes()
    return {"report_sha256": report_digest(data)}, len(json.loads(data)["cells"])


def build_recollement(gluecat, scenario: Path):
    """Scenario file -> (parsed scenario, recollement), as the CLI builds it."""
    from gluecat.algebra import Quiver
    from gluecat.scenarios import load_scenario

    scn = load_scenario(str(scenario))
    algebra = gluecat.path_algebra(Quiver(scn.vertices, tuple(scn.arrows)), gluecat.PrimeField(scn.p))
    rec = gluecat.build_recollement(algebra, scn.e_vertices, gldim_cap=scn.gldim_cap,
                                    seed=scn.seed, attempts=max(scn.attempts, 1))
    return scn, rec


def run_original(gluecat, scenario: Path):
    scn, rec = build_recollement(gluecat, scenario)
    menus = gluecat.default_menus(rec)
    report = gluecat.verify_axioms(gluecat.original_diagram(rec), menus, seed=scn.seed,
                                   attempts=scn.attempts, matrix_pairs=scn.matrix_pairs)
    return {"cells_sha256": cells_digest(report)}, len(report.cells)


def run_apply(cli, scenario: Path, label: str):
    functor, obj = label.split(" ", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["apply", str(scenario), functor, obj])
    if code != 0:
        raise RuntimeError(f"apply exited {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1]), 1


def setup_workbench(gluecat, scenario: Path, with_serre: bool):
    """The set-up a workload pays per scenario: recollement, Serre data, menus."""
    _, rec = build_recollement(gluecat, scenario)
    if with_serre:
        gluecat.attach_serre(rec)
    gluecat.default_menus(rec)
