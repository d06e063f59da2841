"""Scenario files: the batch front end's input format.

A scenario is a JSON object

    {
      "p": 32003,
      "quiver": {"vertices": 2, "arrows": [[1, 2]]},
      "e_vertices": [2],
      "seed": 17,
      "caps": {"gldim": 12, "attempts": 64},
      "menu": "default",
      "variants": ["original", "upper", "lower"],
      "matrix_pairs": 4
    }

Vertices are numbered 1..n in files (matching the usual quiver
notation) and 0-based internally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

from .field import P_LIMIT, is_prime

__all__ = ["Scenario", "ScenarioError", "parse_scenario", "load_scenario", "fixture_scenario"]


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    p: int
    vertices: int
    arrows: list[tuple[int, int]]     # 0-based
    e_vertices: list[int]             # 0-based
    seed: int
    gldim_cap: int = 12
    attempts: int = 64
    menu: object = "default"
    variants: list[str] = dc_field(default_factory=lambda: ["original", "upper", "lower"])
    matrix_pairs: int = 4
    raw: dict = dc_field(default_factory=dict)


def parse_scenario(data: dict) -> Scenario:
    try:
        p = int(data["p"])
        quiver = data["quiver"]
        n = int(quiver["vertices"])
        arrows_1 = [tuple(int(v) for v in arr) for arr in quiver.get("arrows", [])]
        e_1 = [int(v) for v in data["e_vertices"]]
        seed = int(data.get("seed", 0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc
    if not is_prime(p):
        raise ScenarioError(f"characteristic {p} is not prime")
    if p >= P_LIMIT:
        raise ScenarioError(f"characteristic {p} is not below 2**16")
    if n < 1:
        raise ScenarioError("quiver needs at least one vertex")
    for (s, t) in arrows_1:
        if not (1 <= s <= n and 1 <= t <= n):
            raise ScenarioError(f"arrow ({s},{t}) out of range 1..{n}")
    if not e_1:
        raise ScenarioError("e_vertices must be nonempty")
    for v in e_1:
        if not (1 <= v <= n):
            raise ScenarioError(f"e-vertex {v} out of range 1..{n}")
    if len(set(e_1)) >= n:
        raise ScenarioError("e_vertices must be a proper subset of the vertices")
    caps = data.get("caps", {})
    variants = list(data.get("variants", ["original", "upper", "lower"]))
    for v in variants:
        if v not in ("original", "upper", "lower"):
            raise ScenarioError(f"unknown variant {v!r}")
    menu = data.get("menu", "default")
    return Scenario(
        p=p,
        vertices=n,
        arrows=[(s - 1, t - 1) for (s, t) in arrows_1],
        e_vertices=sorted(v - 1 for v in set(e_1)),
        seed=seed,
        gldim_cap=int(caps.get("gldim", 12)),
        attempts=int(caps.get("attempts", 64)),
        menu=menu,
        variants=variants,
        matrix_pairs=int(data.get("matrix_pairs", 4)),
        raw=data,
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    return parse_scenario(data)


_FIXTURES = {
    "F1": {
        "p": 32003,
        "quiver": {"vertices": 2, "arrows": [[1, 2]]},
        "e_vertices": [2],
        "seed": 17,
    },
    "F2": {
        "p": 32003,
        "quiver": {"vertices": 3, "arrows": [[1, 2], [2, 3]]},
        "e_vertices": [3],
        "seed": 17,
    },
    "F3": {
        "p": 32003,
        "quiver": {"vertices": 2, "arrows": [[1, 2], [1, 2]]},
        "e_vertices": [2],
        "seed": 17,
    },
}


def fixture_scenario(name: str) -> dict:
    """Scenario dictionaries for the three canonical test quivers."""
    if name not in _FIXTURES:
        raise ScenarioError(f"unknown fixture {name!r}; choose from {sorted(_FIXTURES)}")
    return json.loads(json.dumps(_FIXTURES[name]))
