import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gluecat.cli as cli
from gluecat.cli import main, run_suite
from gluecat.recollement import CATEGORY_TAGS, DefaultMenu, default_menu
from gluecat.scenarios import ScenarioError, fixture_scenario, load_scenario, parse_scenario

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench" / "scenarios"


def _write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def f1_data():
    return fixture_scenario("F1")


def test_parse_rejects_composite_characteristic():
    data = fixture_scenario("F1")
    data["p"] = 32001
    with pytest.raises(ScenarioError):
        parse_scenario(data)


def test_parse_rejects_bad_vertices():
    data = fixture_scenario("F1")
    data["e_vertices"] = [3]
    with pytest.raises(ScenarioError):
        parse_scenario(data)


def test_parse_bounds_characteristic_below_2_16():
    data = fixture_scenario("F1")
    data["p"] = 65537
    with pytest.raises(ScenarioError):
        parse_scenario(data)
    data["p"] = 65521
    assert parse_scenario(data).p == 65521


def test_verify_characteristic_above_bound_exits_three(tmp_path, f1_data):
    data = dict(f1_data)
    data["p"] = 65537
    scn = _write_scenario(tmp_path, data)
    assert main(["verify", scn, "--report", str(tmp_path / "r.json"), "--quiet"]) == 3


def test_parse_converts_to_zero_based():
    scn = parse_scenario(fixture_scenario("F2"))
    assert scn.arrows == [(0, 1), (1, 2)]
    assert scn.e_vertices == [2]


def test_verify_f1_exits_zero(tmp_path, f1_data, capsys):
    scn = _write_scenario(tmp_path, f1_data)
    report = str(tmp_path / "out.json")
    code = main(["verify", scn, "--report", report, "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "RESULT: PASS" in out
    payload = json.loads(open(report).read())
    diagrams = {c["diagram"] for c in payload["cells"]}
    assert {"original", "upper", "lower"} <= diagrams
    assert payload["summary"]["fail"] == 0


def test_verify_all_vertices_is_invalid(tmp_path, f1_data):
    data = dict(f1_data)
    data["e_vertices"] = [1, 2]
    scn = _write_scenario(tmp_path, data)
    code = main(["verify", scn, "--report", str(tmp_path / "r.json"), "--quiet"])
    assert code == 3


def test_verify_zero_attempts_inconclusive(tmp_path, f1_data):
    data = dict(f1_data)
    data["caps"] = {"gldim": 12, "attempts": 0}
    data["variants"] = ["original"]
    scn = _write_scenario(tmp_path, data)
    code = main(["verify", scn, "--report", str(tmp_path / "r.json"), "--quiet"])
    assert code == 2


def test_verify_determinism(tmp_path, f1_data):
    data = dict(f1_data)
    data["variants"] = ["original"]
    scn = _write_scenario(tmp_path, data)
    r1, r2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["verify", scn, "--report", r1, "--quiet"]) == 0
    assert main(["verify", scn, "--report", r2, "--quiet"]) == 0
    assert open(r1, "rb").read() == open(r2, "rb").read()


def test_apply_nakayama_to_p1(tmp_path, f1_data, capsys):
    scn = _write_scenario(tmp_path, f1_data)
    code = main(["apply", scn, "T", "P1"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert json.loads(out) == {"0": 2}


def test_apply_jstar_to_p1_is_zero(tmp_path, f1_data, capsys):
    scn = _write_scenario(tmp_path, f1_data)
    code = main(["apply", scn, "j^*", "P1"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert json.loads(out) == {}


def test_apply_new_adjoint(tmp_path, f1_data, capsys):
    scn = _write_scenario(tmp_path, f1_data)
    code = main(["apply", scn, "i_!", "P1"])
    assert code == 0
    json.loads(capsys.readouterr().out.strip())


def test_apply_unicode_alias(tmp_path, f1_data, capsys):
    scn = _write_scenario(tmp_path, f1_data)
    code = main(["apply", scn, "T̃", "I1"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert json.loads(out) == {"0": 1}


def test_apply_unknown_functor_exits_three(tmp_path, f1_data):
    scn = _write_scenario(tmp_path, f1_data)
    assert main(["apply", scn, "nope", "P1"]) == 3


def test_apply_unknown_object_exits_three(tmp_path, f1_data):
    scn = _write_scenario(tmp_path, f1_data)
    assert main(["apply", scn, "T", "P9"]) == 3


def test_verify_exit_one_on_failing_cells(tmp_path, f1_data, monkeypatch):
    # force a failing cell through the aggregation to pin the exit contract
    import gluecat.cli as cli_mod
    from gluecat.recollement import Cell, VerificationReport

    def fake_verify(diagram, menus, seed, attempts=64, matrix_pairs=4):
        return VerificationReport(
            diagram.label,
            [Cell("R1.1", diagram.label, "forced", {}, {0: 1}, "fail")],
            {},
        )

    monkeypatch.setattr(cli_mod, "verify_axioms", fake_verify)
    data = dict(f1_data)
    data["variants"] = ["original"]
    scn = _write_scenario(tmp_path, data)
    code = main(["verify", scn, "--report", str(tmp_path / "r.json"), "--quiet"])
    assert code == 1


def test_verify_memory_error_in_a_cell_exits_two(tmp_path, f1_data, monkeypatch, capsys):
    import gluecat.serre as serre_mod

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 974 MiB")

    monkeypatch.setattr(serre_mod, "serre_pairing", exhausted)
    data = dict(f1_data)
    data["variants"] = ["original"]
    scn = _write_scenario(tmp_path, data)
    report = tmp_path / "r.json"
    code = main(["verify", scn, "--report", str(report), "--quiet"])
    assert code == 2
    assert "RESULT: INCONCLUSIVE" in capsys.readouterr().out
    cells = json.loads(report.read_text())["cells"]
    hit = [c for c in cells if c["actual"] == "error: MemoryError: Unable to allocate 974 MiB"]
    assert hit and {c["axiom"] for c in hit} == {"S.gram"}
    assert all(c["verdict"] == "not-certified" for c in hit)


def _error_record(capsys) -> dict:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    return json.loads(err[0])


def test_verify_report_path_a_directory_exits_four(tmp_path, f1_data, monkeypatch, capsys):
    import gluecat.cli as cli_mod

    def no_cell(*args, **kwargs):
        pytest.fail("a cell ran before the report path was opened")

    monkeypatch.setattr(cli_mod, "verify_axioms", no_cell)
    data = dict(f1_data, variants=["original"])
    scn = _write_scenario(tmp_path, data)
    assert main(["verify", scn, "--report", str(tmp_path), "--quiet"]) == 4
    assert _error_record(capsys)["error"] == "IsADirectoryError"


def test_verify_invalid_scenario_leaves_the_report_alone(tmp_path, f1_data):
    # the menu is checked after the workbench is built, the last set-up step
    scn = _write_scenario(tmp_path, dict(f1_data, menu=["nothing"]))
    report = tmp_path / "r.json"
    report.write_bytes(b"an earlier report\n")
    assert main(["verify", scn, "--report", str(report), "--quiet"]) == 3
    assert report.read_bytes() == b"an earlier report\n"
    missing = tmp_path / "new.json"
    assert main(["verify", scn, "--report", str(missing), "--quiet"]) == 3
    assert not missing.exists()


def _broken(*args, **kwargs):
    raise RuntimeError("broken on purpose")


def test_verify_unexpected_error_exits_four(tmp_path, f1_data, monkeypatch, capsys):
    import gluecat.cli as cli_mod

    monkeypatch.setattr(cli_mod, "run_suite", _broken)
    scn = _write_scenario(tmp_path, f1_data)
    assert main(["verify", scn, "--report", str(tmp_path / "r.json"), "--quiet"]) == 4
    assert _error_record(capsys) == {"error": "RuntimeError", "message": "broken on purpose"}
    assert not (tmp_path / "r.json").exists()


def test_apply_unexpected_error_exits_four(tmp_path, f1_data, monkeypatch, capsys):
    from gluecat.recollement import Recollement

    monkeypatch.setattr(Recollement, "apply_expr", _broken)
    scn = _write_scenario(tmp_path, f1_data)
    assert main(["apply", scn, "T", "P1"]) == 4
    assert _error_record(capsys) == {"error": "RuntimeError", "message": "broken on purpose"}


def test_verify_two_vertex_idempotent_exits_zero(tmp_path, capsys):
    # A3 with e = e2 + e3: the adjunction formulas meet degrees where one
    # of the complexes is zero
    data = {"p": 32003, "quiver": {"vertices": 3, "arrows": [[1, 2], [2, 3]]},
            "e_vertices": [2, 3], "seed": 17}
    scn = _write_scenario(tmp_path, data)
    code = main(["verify", scn, "--report", str(tmp_path / "r.json"), "--quiet"])
    assert code == 0, capsys.readouterr().out


def test_run_suite_report_order(f1_data):
    data = dict(f1_data)
    data["variants"] = ["original", "lower"]
    reports = run_suite(parse_scenario(data))
    assert [r.diagram for r in reports] == [
        "original", "lower", "serre-T", "serre-S", "serre-U",
        "serre-S-nakayama", "serre-U-nakayama",
    ]


# Malformed scenarios: every one exits 3 with a message, never with a
# traceback or a silently coerced value.  Integer fields must be JSON
# integers (a bool is not one); caps gldim >= 1, attempts >= 0,
# matrix_pairs >= 0, and each arrow is a pair.
MALFORMED = {
    "caps not an object": ("caps", 3),
    "gldim a string": ("caps", {"gldim": "x"}),
    "gldim negative": ("caps", {"gldim": -1}),
    "gldim zero": ("caps", {"gldim": 0}),
    "attempts negative": ("caps", {"attempts": -5}),
    "attempts a float": ("caps", {"attempts": 2.5}),
    "matrix_pairs a string": ("matrix_pairs", "abc"),
    "matrix_pairs negative": ("matrix_pairs", -3),
    "p a float": ("p", 3.7),
    "e-vertex a float": ("e_vertices", [1.5]),
    "e-vertex a bool": ("e_vertices", [True]),
    "arrow of one vertex": ("quiver", {"vertices": 2, "arrows": [[1]]}),
    "arrow of three vertices": ("quiver", {"vertices": 2, "arrows": [[1, 2, 2]]}),
    "vertex count a float": ("quiver", {"vertices": 2.0, "arrows": [[1, 2]]}),
    "seed a float": ("seed", 1.5),
    "menu a number": ("menu", 5),
    "menu a misspelt default": ("menu", "defaultx"),
    "menu with a nested list": ("menu", ["P1", ["x"]]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_verify_malformed_scenario_exits_three(tmp_path, f1_data, capsys, case):
    key, value = MALFORMED[case]
    data = dict(f1_data, variants=["original"])
    data[key] = value
    with pytest.raises(ScenarioError):
        parse_scenario(data)
    scn = _write_scenario(tmp_path, data)
    assert main(["verify", scn, "--report", str(tmp_path / "r.json"), "--quiet"]) == 3
    assert "invalid scenario" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, names", [("variants", ["original", "upper", "original"]), ("menu", ["P1", "S1", "P1"])]
)
def test_verify_repeated_names_exit_three(tmp_path, f1_data, capsys, key, names):
    # a repeated variant or menu name would run its cells twice and
    # count them twice in the summary
    data = dict(f1_data, **{key: names})
    with pytest.raises(ScenarioError, match="repeat"):
        parse_scenario(data)
    scn = _write_scenario(tmp_path, data)
    report = tmp_path / "r.json"
    report.write_bytes(b"an earlier report\n")
    assert main(["verify", scn, "--report", str(report), "--quiet"]) == 3
    assert "invalid scenario" in capsys.readouterr().err
    assert report.read_bytes() == b"an earlier report\n"


def test_verify_menu_name_in_no_category_exits_three(tmp_path, f1_data, capsys):
    # a misspelt menu name is refused, not dropped in silence
    scn = _write_scenario(tmp_path, dict(f1_data, menu=["P1", "P9"]))
    report = tmp_path / "r.json"
    report.write_bytes(b"an earlier report\n")
    assert main(["verify", scn, "--report", str(report), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "invalid scenario" in err and "'P9'" in err
    assert report.read_bytes() == b"an earlier report\n"


def test_named_menus_build_only_their_entries(monkeypatch):
    # F2 with menu ["P1"] builds P1 in each of A, B and C, and nothing
    # else: a stalk name needs no search for the cone's hom
    from gluecat import recollement

    built, homs = [], []
    build, build_hom = DefaultMenu._build, recollement.hom_basis_matrices

    def counted(menu, name):
        built.append((menu.tag, name))
        return build(menu, name)

    def counted_hom(m, n):
        homs.append((m.name, n.name))
        return build_hom(m, n)

    monkeypatch.setattr(DefaultMenu, "_build", counted)
    scn = parse_scenario(dict(fixture_scenario("F2"), menu=["P1"]))
    rec, _ = cli._build_workbench(scn)
    monkeypatch.setattr(recollement, "hom_basis_matrices", counted_hom)
    menus = cli._resolve_menus(rec, scn)
    assert built == [("A", "P1"), ("B", "P1"), ("C", "P1")]
    assert homs == []
    assert [[name for name, _ in menus[tag]] for tag in "ABC"] == [["P1"]] * 3


def _f2_menus(names):
    scn = parse_scenario(dict(fixture_scenario("F2"), menu=names))
    rec, _ = cli._build_workbench(scn)
    return rec, cli._resolve_menus(rec, scn)


def test_named_menus_resolve_a_cone_name():
    listing, _ = _f2_menus(["P1"])
    cone_name = DefaultMenu(listing, "A").names()[-1]
    assert cone_name.startswith("cone(")
    rec, menus = _f2_menus(["P1", cone_name])
    assert [name for name, _ in menus["A"]] == ["P1", cone_name]
    assert menus["A"][1][1].key == DefaultMenu(rec, "A").get(cone_name).key


@pytest.mark.parametrize("name", ["P9", "cone(P9->P1)"])
def test_named_menus_refuse_an_unknown_name(name):
    with pytest.raises(ScenarioError, match="are in no category"):
        _f2_menus(["P1", name])


def test_main_builds_no_parser_per_call(tmp_path, f1_data, monkeypatch, capsys):
    # the parser is built once, at import: apply runs main many times
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    scn = _write_scenario(tmp_path, f1_data)
    assert main(["apply", scn, "T", "P1"]) == 0
    assert main(["apply", scn, "j^*", "P1"]) == 0
    assert built == []


def test_parse_accepts_the_bounds_of_each_integer_field(f1_data):
    data = dict(f1_data, caps={"gldim": 1, "attempts": 0}, matrix_pairs=0, seed=-4)
    scn = parse_scenario(data)
    assert (scn.gldim_cap, scn.attempts, scn.matrix_pairs, scn.seed) == (1, 0, 0, -4)


# Every name `apply` takes: the eight registered functors, the induced
# Serre functors, the four new adjoints and the unicode aliases.
FUNCTOR_NAMES = (
    "i_*", "i^*", "i^!", "j_!", "j^*", "j_*", "T", "T~",
    "S", "S~", "U", "U~",
    "i_!", "j^?", "i_?", "j^!",
    "T̃", "S̃", "Ũ",
)


@pytest.mark.parametrize("name, code", [(name, 0) for name in FUNCTOR_NAMES] + [("nope", 3)])
def test_apply_accepts_every_functor_name(tmp_path, f1_data, capsys, name, code):
    scn = _write_scenario(tmp_path, f1_data)
    assert main(["apply", scn, name, "P1"]) == code
    if code == 0:
        assert isinstance(json.loads(capsys.readouterr().out.strip()), dict)


# a functor with each source category
FUNCTOR_FROM = {"A": "T", "B": "i_*", "C": "j_!"}
MENU_SCENARIOS = ("F1", "F2", "F3", "A4-e4", "D4-centre")


def _recollement(path):
    return cli._build_workbench(load_scenario(str(path)))[0]


@pytest.mark.parametrize("name", MENU_SCENARIOS)
def test_one_menu_entry_equals_the_menus_entry(name):
    # each entry built alone on a fresh workbench, then the whole menu
    # on the same one: keys carry the algebra, so they compare there
    path = BENCH / f"{name}.json"
    listing = _recollement(path)
    for tag in CATEGORY_TAGS:
        for entry in DefaultMenu(listing, tag).names():
            rec = _recollement(path)
            one = DefaultMenu(rec, tag).get(entry)
            full = dict(default_menu(rec, tag))[entry]
            assert (one.key, one.name) == (full.key, full.name), (tag, entry)


@pytest.mark.parametrize("name", MENU_SCENARIOS)
def test_names_outside_the_menu_exit_three_with_the_menu_listed(capsys, name):
    path = BENCH / f"{name}.json"
    rec = _recollement(path)
    for tag in CATEGORY_TAGS:
        names = [entry for entry, _ in default_menu(rec, tag)]
        n = rec.algebra_of(tag).n_idempotents
        outside = ["P0", f"P{n + 1}", "X"]
        if "cone(P1->P1)" not in names:  # a nonzero hom between projectives exists
            outside.append("cone(P1->P1)")
        for entry in outside:
            assert main(["apply", str(path), FUNCTOR_FROM[tag], entry]) == 3
            assert capsys.readouterr().err == (
                f"invalid request: unknown object {entry!r} in category {tag}; "
                f"choose from {sorted(names)}\n"
            )


def test_unknown_object_message_lists_the_menu(capsys):
    assert main(["apply", str(BENCH / "F2.json"), "T", "X"]) == 3
    assert capsys.readouterr().err == (
        "invalid request: unknown object 'X' in category A; choose from "
        "['I1', 'I2', 'I3', 'P1', 'P1[1]', 'P2', 'P3', 'R', 'S1', 'S2', 'S3', 'cone(P1->P2)']\n"
    )


def test_apply_builds_only_the_flip_its_functor_reads(monkeypatch, capsys):
    built = []
    build = cli._build_workbench
    monkeypatch.setattr(cli, "_build_workbench", lambda *args: built.append(build(*args)) or built[-1])
    path = str(BENCH / "F2.json")

    def lazy_parts(rec, sd):
        algebras = [rec.algebra, rec.quotient_algebra, rec.corner_algebra]
        bimodules = [rec.eA, rec.Ae, rec.B_ba, rec.B_ab, sd.da]
        return [a._opposite for a in algebras], [w._flip for w in bimodules]

    assert main(["apply", path, "i_*", "P1"]) == 0
    opposites, flips = lazy_parts(*built[-1])
    assert opposites == [None] * 3 and flips == [None] * 5

    assert main(["apply", path, "T~", "R"]) == 0
    rec, sd = built[-1]
    opposites, flips = lazy_parts(rec, sd)
    assert opposites[0] is not None and opposites[1:] == [None, None]
    assert flips[:4] == [None] * 4 and flips[4] is not None
    assert flips[4].left_algebra is opposites[0] is flips[4].right_algebra

    # a second application tensors with that same flip
    seen = []
    derived = rec.ctx.derived_tensor
    monkeypatch.setattr(rec.ctx, "derived_tensor", lambda x, w, **kw: seen.append(w) or derived(x, w, **kw))
    rec.registry["T~"].apply(DefaultMenu(rec, "A").get("P1"))
    assert len(seen) == 1 and seen[0] is flips[4] is sd.da.flip()


def test_python_m_gluecat_runs_from_a_checkout(tmp_path, f1_data):
    scn = _write_scenario(tmp_path, f1_data)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "gluecat", "apply", scn, "T", "P1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"0": 2}
