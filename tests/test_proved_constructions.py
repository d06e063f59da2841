"""The outputs the library builds unchecked, as proved, are checked here.

Algebras, modules and bimodules are validated where content enters:
``path_algebra`` and a direct constructor call.  The constructions whose
output satisfies the laws whenever their inputs do (opposites, corners,
quotients, sums, duals, stable spans, tensors, flips, ...) build it with
``validate=False``.  The ``dense_laws`` fixture (``oracles.DenseLaws``)
carries their check in tier-1: it runs on the fixture suites, the A3
sweep slice and the ``apply`` golden slices.  Here a corrupted sum and a
corrupted flip must fail it, by name, and a cold ``apply`` must check
nothing but its path algebra.
"""

import contextlib
import io

import numpy as np

from gluecat import cli, complexes, modules
from gluecat.algebra import Algebra, opposite
from gluecat.cli import run_suite
from gluecat.modules import Bimodule, RightModule
from gluecat.scenarios import fixture_scenario, parse_scenario

from oracles import DenseLaws
from test_golden import PERFBENCH


def _run_f1():
    run_suite(parse_scenario(fixture_scenario("F1")))


def test_the_f1_suite_builds_every_kind_and_breaks_no_law(monkeypatch):
    laws = DenseLaws().install(monkeypatch)
    _run_f1()
    assert laws.built["Algebra"] >= 3 and laws.built["RightModule"] > 100 and laws.built["Bimodule"] >= 4
    assert laws.violations() == []


def test_a_corrupted_direct_sum_block_fails_the_dense_check(monkeypatch):
    laws = DenseLaws().install(monkeypatch)
    real = modules.direct_sum

    def corrupted(mods, name=""):
        m, offsets = real(mods, name)
        action = np.array(m.action)
        action[m.algebra.idempotent_indices[0], 0, 0] += 1
        return RightModule(m.algebra, action, name=m.name, validate=False), offsets

    monkeypatch.setattr(modules, "direct_sum", corrupted)
    monkeypatch.setattr(complexes, "direct_sum", corrupted)
    # the run may stop at the corrupted module; the check must name it
    # either way.  A sum of projectives is built once per vertex tuple
    # (modules.projective_sum) and named after its summands: the first
    # one is the sum of P1 alone.
    with contextlib.suppress(ValueError):
        _run_f1()
    assert "RightModule P1: unit does not act as identity" in laws.violations()


def test_a_flip_with_a_transposed_action_fails_the_dense_check(monkeypatch):
    laws = DenseLaws().install(monkeypatch)

    def flip(self):
        if self._flip is None:
            self._flip = Bimodule(
                opposite(self.right_algebra),
                opposite(self.left_algebra),
                left_action=np.transpose(self.right_action, (0, 2, 1)),
                right_action=self.left_action,
                name=f"flip({self.name})",
                validate=False,
            )
        return self._flip

    monkeypatch.setattr(Bimodule, "flip", flip)
    with contextlib.suppress(ValueError):
        _run_f1()
    bad = laws.violations()
    assert bad and all(v.startswith("Bimodule flip(") for v in bad)


def test_a_cold_apply_checks_only_its_path_algebra(monkeypatch):
    calls = {cls: 0 for cls in (Algebra, RightModule, Bimodule)}
    for cls in calls:
        check = cls.validate

        def counted(self, cls=cls, check=check):
            calls[cls] += 1
            return check(self)

        monkeypatch.setattr(cls, "validate", counted)
    for label in (["T", "P2"], ["T~", "I2"], ["j^!", "P4"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["apply", str(PERFBENCH / "scenarios" / "A4-e4.json"), *label]) == 0
    assert calls == {Algebra: 3, RightModule: 0, Bimodule: 0}
