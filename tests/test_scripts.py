"""The experiment scripts under ``scripts/`` still import and run against
the library, so a deleted or renamed library name fails here."""

import importlib.util
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_fixtures_imports():
    assert callable(_load("run_fixtures").main)


def test_corruption_demo_runs(capsys):
    assert _load("corruption_demo").main() == 0
    out = capsys.readouterr().out
    failing = dict(re.findall(r"^(.+): (\d+) failing cells", out, flags=re.M))
    assert failing.pop("healthy original diagram") == "0"
    assert len(failing) == 2 and all(int(n) > 0 for n in failing.values())


def test_frontier_imports_and_its_scenarios_parse():
    from gluecat.scenarios import parse_scenario

    frontier = _load("frontier")
    assert callable(frontier.main)
    assert {"E6", "E7", "K3", "K4", "A8", "D6", "E8-e3", "E8-e5", "K3-tail", "K5"} <= set(frontier.SCENARIOS)
    for name in frontier.SCENARIOS:
        scn = parse_scenario(frontier.scenario(name))
        assert scn.variants == ["original", "upper", "lower"]
    assert frontier.main(["E9"]) == 2


def test_sweep_imports_and_its_cases_parse():
    from gluecat.scenarios import parse_scenario

    sweep = _load("sweep")
    assert callable(sweep.main)
    cases = [case for family in sweep.FAMILIES for case in sweep.cases(family)]
    assert len(cases) == 236 and len({name for name, _ in cases}) == 236
    for _, data in cases:
        scn = parse_scenario(data)
        assert len(scn.e_vertices) == 1 and scn.variants == ["original", "upper", "lower"]
    assert sweep.main(["E6"]) == 2


def test_frontier_k3_report_is_unchanged(tmp_path):
    # K3 is the one checked-in case with a vertex that carries three
    # summands of one projective term; its report is pinned byte for byte
    frontier = _load("frontier")
    r = frontier.run(frontier.scenario("K3"), tmp_path)
    assert (r["exit"], r["memory_errors"]) == (0, 0)
    assert r["sha256"] == "d0aea19799a778338179bc4b9323019c147cf57301cdca760084f8cbc27a9459"
