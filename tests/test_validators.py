"""One malformed input per validator check: each must raise its error.

The checks of ``Algebra``, ``RightModule`` and ``Bimodule`` run as whole
array comparisons; these inputs break exactly one law each, so every
check is seen to fire with its own message.  Modules, complexes and
chain maps validate once per content per algebra, so their malformed
inputs are built twice: a failure must never be recorded.
"""

import re

import numpy as np
import pytest

from gluecat.algebra import Algebra, Quiver, opposite, path_algebra
from gluecat.complexes import BoundedComplex, ChainMap
from gluecat.field import PrimeField
from gluecat.modules import Bimodule, RightModule, simple_module

FLD = PrimeField(32003)


def _a2():
    # e1, e2, a with a: 1 -> 2, so e2 * a == a == a * e1
    return path_algebra(Quiver(2, ((0, 1),)), FLD)


def _k():
    return path_algebra(Quiver(1, ()), FLD)


def _band(i_fixed: bool):
    """Two-element band: b_i b_j == b_i (left zero) or b_j (right zero).

    Associative, and with unit b_0 only one of the unit laws holds.
    """
    mul = np.zeros((2, 2, 2), dtype=np.int64)
    for i in range(2):
        for j in range(2):
            mul[i, j, i if i_fixed else j] = 1
    return mul


def _bad_scalar_action(a):
    """1-dim action of A2 with e1 -> 1, e2 -> 0 and a -> 1: the unit acts
    as 1, but e2 * a == a acts as 0 * 1 != 1."""
    act = np.zeros((a.dim, 1, 1), dtype=np.int64)
    act[0, 0, 0] = 1
    act[2, 0, 0] = 1
    return act


def _raises(message, build):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


# ----------------------------------------------------------------------
# Algebra
# ----------------------------------------------------------------------


def test_algebra_rejects_non_associative_table():
    a = _a2()
    mul = a.mul_table.copy()
    mul[0, 0, 0] = 0  # e1 * e1 = 0, but (a e1) e1 = a != 0 = a (e1 e1)
    _raises("bad: associativity fails", lambda: Algebra(FLD, a.labels, mul, a.unit, [0, 1], name="bad"))


def test_algebra_rejects_failing_left_unit():
    _raises("bad: 1 * b_1 != b_1", lambda: Algebra(FLD, ["x", "y"], _band(True), [1, 0], [0, 1], name="bad"))


def test_algebra_rejects_failing_right_unit():
    _raises("bad: b_1 * 1 != b_1", lambda: Algebra(FLD, ["x", "y"], _band(False), [1, 0], [0, 1], name="bad"))


def _kxk():
    mul = np.zeros((2, 2, 2), dtype=np.int64)
    mul[0, 0, 0] = mul[1, 1, 1] = 1
    return mul


def test_algebra_rejects_non_orthogonal_idempotents():
    _raises(
        "bad: idempotent family not orthogonal",
        lambda: Algebra(FLD, ["f1", "f2"], _kxk(), [1, 1], [0, 0], name="bad"),
    )


def test_algebra_rejects_idempotents_not_summing_to_one():
    _raises(
        "bad: idempotents do not sum to 1",
        lambda: Algebra(FLD, ["f1", "f2"], _kxk(), [1, 1], [0], name="bad"),
    )


# ----------------------------------------------------------------------
# RightModule
# ----------------------------------------------------------------------


def test_module_rejects_unit_not_acting_as_identity():
    a = _a2()
    _raises("bad: unit does not act as identity", lambda: RightModule(a, np.zeros((a.dim, 1, 1)), name="bad"))


def test_module_rejects_non_multiplicative_action():
    a = _a2()
    _raises("bad: action is not multiplicative", lambda: RightModule(a, _bad_scalar_action(a), name="bad"))


def test_module_rejects_malformed_action_on_every_construction():
    a = _a2()
    for _ in range(2):
        _raises("bad: action is not multiplicative", lambda: RightModule(a, _bad_scalar_action(a), name="bad"))
    assert not a._valid


def test_module_content_is_checked_once_per_algebra(monkeypatch):
    import gluecat.modules as modules

    calls = []
    check = modules._action_laws
    monkeypatch.setattr(modules, "_action_laws", lambda *args: calls.append(args) or check(*args))
    a = _a2()
    s1 = simple_module(a, 0)
    again = RightModule(a, s1.action.copy(), name="again")
    assert len(calls) == 1
    assert again.key is s1.key
    simple_module(a, 1)
    assert len(calls) == 2
    simple_module(_a2(), 0)
    assert len(calls) == 3


# ----------------------------------------------------------------------
# Bimodule
# ----------------------------------------------------------------------


def _ident(alg):
    return alg.unit.reshape(-1, 1, 1).copy()


def test_bimodule_rejects_failing_left_unit():
    a, k = _a2(), _k()
    _raises(
        "bad: left unit fails",
        lambda: Bimodule(k, a, np.zeros((1, 1, 1)), simple_module(a, 0).action, name="bad"),
    )


def test_bimodule_rejects_failing_right_unit():
    a, k = _a2(), _k()
    _raises("bad: right unit fails", lambda: Bimodule(k, a, _ident(k), np.zeros((a.dim, 1, 1)), name="bad"))


def test_bimodule_rejects_non_multiplicative_right_action():
    a, k = _a2(), _k()
    _raises(
        "bad: right action not multiplicative",
        lambda: Bimodule(k, a, _ident(k), _bad_scalar_action(a), name="bad"),
    )


def test_bimodule_rejects_non_anti_multiplicative_left_action():
    a, k = _a2(), _k()
    _raises(
        "bad: left action not anti-multiplicative",
        lambda: Bimodule(a, k, _bad_scalar_action(a), _ident(k), name="bad"),
    )


def test_bimodule_rejects_non_commuting_actions():
    # R(x) is a left action of A^op (anti-multiplicative there) and a
    # right action of A, but R(x) and R(y) do not commute in A2
    a = _a2()
    ops = np.stack([a.right_mult_operator(a.basis_vector(i)) for i in range(a.dim)])
    _raises("bad: actions do not commute", lambda: Bimodule(opposite(a), a, ops, ops, name="bad"))


# ----------------------------------------------------------------------
# ChainMap
# ----------------------------------------------------------------------


def test_chain_map_rejects_non_commuting_components():
    a = _a2()
    s1 = simple_module(a, 0)
    x = BoundedComplex(a, {0: s1, 1: s1}, {0: np.eye(1, dtype=np.int64)})
    with pytest.raises(ValueError, match="chain map does not commute with d at degree 0"):
        ChainMap(x, x, {0: np.eye(1, dtype=np.int64)})


def test_chain_map_check_sees_a_component_next_to_a_zero_term():
    # the stalk S1 -> (S1 -> S1): degree 1 of the source is zero, so the
    # map has no component there, yet degree 0 must still be checked
    a = _a2()
    s1 = simple_module(a, 0)
    x = BoundedComplex(a, {0: s1}, {})
    y = BoundedComplex(a, {0: s1, 1: s1}, {0: np.eye(1, dtype=np.int64)})
    with pytest.raises(ValueError, match="chain map does not commute with d at degree 0"):
        ChainMap(x, y, {0: np.eye(1, dtype=np.int64)})


def test_chain_map_check_sees_a_component_given_only_above():
    # only f^1 is given; f^0 d^0 == 0 but d^0 f^1 != 0, so degree 0 must
    # be checked although the map has no component there
    a = _a2()
    s1 = simple_module(a, 0)
    x = BoundedComplex(a, {0: s1, 1: s1}, {0: np.eye(1, dtype=np.int64)})
    with pytest.raises(ValueError, match="chain map does not commute with d at degree 0"):
        ChainMap(x, x, {1: np.eye(1, dtype=np.int64)})


def test_chain_map_rejects_malformed_content_on_every_construction():
    a = _a2()
    s1 = simple_module(a, 0)
    x = BoundedComplex(a, {0: s1, 1: s1}, {0: np.eye(1, dtype=np.int64)})
    for _ in range(2):
        _raises("chain map does not commute with d at degree 0", lambda: ChainMap(x, x, {0: np.eye(1, dtype=np.int64)}))
    _raises("chain map component 0 has wrong shape", lambda: ChainMap(x, x, {0: np.eye(2, dtype=np.int64)}))


# ----------------------------------------------------------------------
# BoundedComplex
# ----------------------------------------------------------------------


def _complex_cases():
    a = _a2()
    s1, s2 = simple_module(a, 0), simple_module(a, 1)
    one = np.eye(1, dtype=np.int64)
    return {
        "bad: term 1 over wrong algebra": (a, {0: s1, 1: simple_module(_a2(), 0)}, {}),
        "bad: differential 0 has wrong shape": (a, {0: s1, 1: s1}, {0: np.eye(2, dtype=np.int64)}),
        "bad: differential 0 not A-linear": (a, {0: s1, 1: s2}, {0: one}),
        "bad: d∘d != 0 at degree 0": (a, {0: s1, 1: s1, 2: s1}, {0: one, 1: one}),
    }


@pytest.mark.parametrize("message", list(_complex_cases()))
def test_complex_rejects_malformed_content_on_every_construction(message):
    a, terms, diffs = _complex_cases()[message]
    for _ in range(2):
        _raises(message, lambda: BoundedComplex(a, terms, diffs, name="bad"))
    assert not any(len(key) == 5 for key in a._valid)


def test_complex_and_chain_map_content_is_checked_once_per_algebra(monkeypatch):
    calls = []
    for cls in (BoundedComplex, ChainMap):
        check = cls.validate
        monkeypatch.setattr(cls, "validate", lambda self, check=check: calls.append(type(self)) or check(self))
    a = _a2()
    s1 = simple_module(a, 0)
    one = np.eye(1, dtype=np.int64)
    x = BoundedComplex(a, {0: s1, 1: s1}, {0: one})
    twin = BoundedComplex(a, {0: s1, 1: s1}, {0: one}, name="twin")
    f = ChainMap(x, twin, {0: one, 1: one})
    assert ChainMap(twin, x, {0: one, 1: one}).key is f.key
    assert twin.key is x.key
    assert calls == [BoundedComplex, ChainMap]
    b = _a2()
    BoundedComplex(b, {0: simple_module(b, 0), 1: simple_module(b, 0)}, {0: one})
    assert calls == [BoundedComplex, ChainMap, BoundedComplex]
