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
    for name in ("E6", "E7", "K3"):
        scn = parse_scenario(frontier.scenario(name))
        assert scn.variants == ["original", "upper", "lower"]
    assert frontier.main(["E9"]) == 2
