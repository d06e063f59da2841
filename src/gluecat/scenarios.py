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
    menu: str | list[str] = "default"
    variants: list[str] = dc_field(default_factory=lambda: ["original", "upper", "lower"])
    matrix_pairs: int = 4
    raw: dict = dc_field(default_factory=dict)


def _integer(value, what: str, low: int | None = None) -> int:
    """``value`` if it is a JSON integer (a bool is not) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ScenarioError(f"{what} must be >= {low}, got {value}")
    return value


def _typed(value, kind: type, what: str):
    """``value`` if it is a JSON value of the Python type ``kind``."""
    if not isinstance(value, kind):
        raise ScenarioError(f"{what} must be a JSON {kind.__name__}, got {value!r}")
    return value


def _distinct(names: list[str], what: str) -> None:
    """Reject repeated ``names``: a repeat would run its checks twice."""
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ScenarioError(f"{what} names repeat: {repeated}")


def parse_scenario(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("malformed scenario: not a JSON object")
    try:
        p = _integer(data["p"], "p")
        quiver = _typed(data["quiver"], dict, "quiver")
        n = _integer(quiver["vertices"], "quiver vertices")
        arrows_1 = []
        for arr in quiver.get("arrows", []):
            if not isinstance(arr, list) or len(arr) != 2:
                raise ScenarioError(f"an arrow must be a pair of vertices, got {arr!r}")
            arrows_1.append(tuple(_integer(v, "arrow vertex") for v in arr))
        e_1 = [_integer(v, "e-vertex") for v in _typed(data["e_vertices"], list, "e_vertices")]
        seed = _integer(data.get("seed", 0), "seed")
        caps = _typed(data.get("caps", {}), dict, "caps")
        gldim_cap = _integer(caps.get("gldim", 12), "caps gldim", low=1)
        attempts = _integer(caps.get("attempts", 64), "caps attempts", low=0)
        matrix_pairs = _integer(data.get("matrix_pairs", 4), "matrix_pairs", low=0)
        variants = _typed(data.get("variants", ["original", "upper", "lower"]), list, "variants")
    except (KeyError, TypeError) as exc:
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
    for v in variants:
        if v not in ("original", "upper", "lower"):
            raise ScenarioError(f"unknown variant {v!r}")
    _distinct(variants, "variants")
    menu = data.get("menu", "default")
    if menu != "default" and not (isinstance(menu, list) and all(isinstance(m, str) for m in menu)):
        raise ScenarioError('menu must be "default" or a list of object names')
    if menu != "default":
        _distinct(menu, "menu")
    return Scenario(
        p=p,
        vertices=n,
        arrows=[(s - 1, t - 1) for (s, t) in arrows_1],
        e_vertices=sorted(v - 1 for v in set(e_1)),
        seed=seed,
        gldim_cap=gldim_cap,
        attempts=attempts,
        menu=menu,
        variants=list(variants),
        matrix_pairs=matrix_pairs,
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
