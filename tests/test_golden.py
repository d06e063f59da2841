"""Byte-identity gate: ``gluecat verify`` must reproduce the golden report.

The benchmark's ``perfbench/golden.json`` records the SHA-256 of the
seed-17 ``verify`` report of each fixture.  A change that is meant to
keep behaviour (a refactor or an optimisation) must leave these digests
unchanged.  Only F1 runs here; F2 and F3 are checked by the benchmark.
"""

import hashlib
import json
from pathlib import Path

import pytest

from gluecat.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["F1"])
def test_verify_report_matches_golden_digest(tmp_path, capsys, name):
    scenario = json.loads((PERFBENCH / "scenarios" / f"{name}.json").read_text(encoding="utf-8"))
    scenario["seed"] = 17
    scenario_path = tmp_path / f"{name}.json"
    scenario_path.write_text(json.dumps(scenario, indent=2) + "\n", encoding="utf-8")
    report = tmp_path / "report.json"
    assert main(["verify", str(scenario_path), "--report", str(report), "--quiet"]) == 0
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == golden["verify-fixtures"][name]["report_sha256"]
