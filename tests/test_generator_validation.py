"""Validation on generators, in blocks, against the dense checks.

``RightModule.validate`` and ``Bimodule.validate`` check the module laws
on the validation set G (idempotents and generator parts) against every
basis element, and ``Algebra.validate`` checks associativity in blocks
of the first factor.  On the algebras of the domain G generates, so the
verdicts, messages included, must equal those of the dense checks in
:mod:`oracles`, which compare all pairs (or triples) of basis elements
at once.  This holds on valid and on corrupted actions over A3, D4 and
the Kronecker quiver, their quotients B = A/AeA, corners C = eAe and
opposites, and an algebra whose radical basis is not
vertex-homogeneous; with the default block bound, with one item per
block, and with bounds just at and just below one stack.

An algebra outside the domain must be rejected by name when a module
over it is validated, also where the generator check alone would pass.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gluecat.field as field
from gluecat.algebra import Algebra, Quiver, corner, idempotent_quotient, opposite, path_algebra
from gluecat.field import PrimeField
from gluecat.modules import (
    Bimodule,
    RightModule,
    _generators,
    direct_sum,
    injectives,
    nakayama_bimodule,
    projectives,
    simples,
)

from oracles import associative_dense, bimodule_violation_dense, module_violation_dense, regular_bimodule
from test_batched_kernels import _mixed_basis_algebra

FLD = PrimeField(32003)
QUIVERS = {
    "A3": (Quiver(3, ((0, 1), (1, 2))), [0, 2], [1]),
    "D4": (Quiver(4, ((0, 3), (1, 3), (2, 3))), [0, 3], [3]),
    "K": (Quiver(2, ((0, 1), (0, 1))), [1], [1]),
}


@functools.cache
def _algebras():
    """Each quiver's A, its corner C and quotient B, each with its
    opposite, and the mixed-basis algebra."""
    out = {}
    for name, (q, e_corner, e_quotient) in QUIVERS.items():
        a = path_algebra(q, FLD)
        out[name] = a
        out[f"{name} C"] = corner(a, e_corner)[0]
        out[f"{name} B"] = idempotent_quotient(a, e_quotient)[0]
    out.update({f"{k}^op": opposite(v) for k, v in list(out.items())})
    out["mixed"] = _mixed_basis_algebra()
    return out


CASES = sorted(_algebras())


@functools.cache
def _modules(case):
    a = _algebras()[case]
    mods = projectives(a) + injectives(a) + simples(a)
    return mods + [direct_sum(projectives(a))[0]]


@functools.cache
def _bimodules(case):
    a = _algebras()[case]
    return [regular_bimodule(a), nakayama_bimodule(a)]


def _verdict(build):
    """The message ``build()`` raises, without its name prefix, or None."""
    try:
        build()
    except ValueError as exc:
        return str(exc).split(": ", 1)[1]
    return None


def _module_verdict(a, action):
    # forget earlier passes, so that valid content is checked again
    a._valid.clear()
    return _verdict(lambda: RightModule(a, action, name="m"))


def _bimodule_verdict(w, lam, rho):
    return _verdict(lambda: Bimodule(w.left_algebra, w.right_algebra, lam, rho, name="w"))


def _corrupt(action, i, r, c, delta):
    out = np.array(action)
    out[i, r, c] += delta
    return out


def _entry(data, stack):
    """A basis index and a matrix entry of the stack, drawn."""
    i = data.draw(st.integers(0, stack.shape[0] - 1))
    r = data.draw(st.integers(0, stack.shape[1] - 1))
    c = data.draw(st.integers(0, stack.shape[2] - 1))
    return i, r, c


@pytest.fixture(params=["default", "one item per block"])
def bound(request, monkeypatch):
    if request.param != "default":
        monkeypatch.setattr(field, "STACK_ENTRIES", 1)
    return request.param


# ----------------------------------------------------------------------
# agreement with the dense checks
# ----------------------------------------------------------------------


@pytest.mark.parametrize("case", CASES)
def test_valid_modules_and_bimodules_pass(case, bound):
    a = _algebras()[case]
    for m in _modules(case):
        assert module_violation_dense(a, m.action) is None
        assert _module_verdict(a, m.action) is None
    for w in _bimodules(case):
        assert bimodule_violation_dense(w.left_algebra, w.right_algebra, w.left_action, w.right_action) is None
        assert _bimodule_verdict(w, w.left_action, w.right_action) is None


@pytest.mark.parametrize("case", CASES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_corrupted_module_verdicts_match_the_dense_check(case, data):
    a = _algebras()[case]
    mods = [m for m in _modules(case) if m.dim]
    m = mods[data.draw(st.integers(0, len(mods) - 1))]
    delta = data.draw(st.integers(1, FLD.p - 1))
    action = _corrupt(m.action, *_entry(data, m.action), delta)
    # a corruption can give another lawful action: then both accept it
    assert _module_verdict(a, action) == module_violation_dense(a, action)


@pytest.mark.parametrize("case", CASES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_corrupted_bimodule_verdicts_match_the_dense_check(case, data):
    ws = _bimodules(case)
    w = ws[data.draw(st.integers(0, len(ws) - 1))]
    lam, rho = w.left_action, w.right_action
    delta = data.draw(st.integers(1, FLD.p - 1))
    if data.draw(st.booleans()):
        lam = _corrupt(lam, *_entry(data, lam), delta)
    else:
        rho = _corrupt(rho, *_entry(data, rho), delta)
    assert _bimodule_verdict(w, lam, rho) == bimodule_violation_dense(w.left_algebra, w.right_algebra, lam, rho)


@pytest.mark.parametrize("case", ["A3", "A3^op"])
def test_a_corrupted_path_of_length_two_is_caught(case, bound):
    # ba = (1 -> 2 -> 3) is no generator of A3, so no entry of its action
    # is free: only the law for g = b and b_j = a (b_j = b and g = a over
    # the opposite) sees a corruption there
    a = _algebras()[case]
    i = a.labels.index("ba")
    for m in _modules(case):
        for r in range(m.dim):
            for c in range(m.dim):
                action = _corrupt(m.action, i, r, c, 1)
                assert module_violation_dense(a, action) == "action is not multiplicative"
                assert _module_verdict(a, action) == "action is not multiplicative"
    w = regular_bimodule(a)
    assert _bimodule_verdict(w, _corrupt(w.left_action, i, 0, 0, 1), w.right_action) == (
        "left action not anti-multiplicative"
    )
    assert _bimodule_verdict(w, w.left_action, _corrupt(w.right_action, i, 0, 0, 1)) == (
        "right action not multiplicative"
    )


# ----------------------------------------------------------------------
# block bounds
# ----------------------------------------------------------------------


@pytest.mark.parametrize("case", ["A3", "D4^op", "mixed"])
@pytest.mark.parametrize("below", [0, 1], ids=["at the bound", "just above it"])
def test_module_stacks_at_and_above_the_block_bound(case, below, monkeypatch):
    a = _algebras()[case]
    m = direct_sum(projectives(a))[0]
    size = a.n_idempotents + len(_generators(a).parts)
    stack = a.dim * m.dim * m.dim
    monkeypatch.setattr(field, "STACK_ENTRIES", size * stack - below)
    assert len(field.blocks(size, stack)) == 1 + below
    assert _module_verdict(a, m.action) is None
    for i in range(a.dim):
        for r, c in ((0, 0), (m.dim - 1, 0), (0, m.dim - 1)):
            action = _corrupt(m.action, i, r, c, 5)
            assert _module_verdict(a, action) == module_violation_dense(a, action)


@pytest.mark.parametrize("case", ["A3", "K^op", "mixed"])
@pytest.mark.parametrize("below", [0, 1], ids=["at the bound", "just above it"])
def test_bimodule_stacks_at_and_above_the_block_bound(case, below, monkeypatch):
    a = _algebras()[case]
    w = regular_bimodule(a)
    size = a.n_idempotents + len(_generators(a).parts)
    # the commutation stack of one left generator is the largest here
    stack = size * w.dim * w.dim
    monkeypatch.setattr(field, "STACK_ENTRIES", size * stack - below)
    assert len(field.blocks(size, stack)) == 1 + below
    assert _bimodule_verdict(w, w.left_action, w.right_action) is None
    for i in range(a.dim):
        for lam, rho in ((_corrupt(w.left_action, i, 0, 1, 3), w.right_action),
                         (w.left_action, _corrupt(w.right_action, i, 1, 0, 3))):
            assert _bimodule_verdict(w, lam, rho) == bimodule_violation_dense(a, a, lam, rho)
    # actions that are each lawful but do not commute: the right action
    # as a left action of the opposite algebra
    ops = a.right_operators
    aop = opposite(a)
    assert bimodule_violation_dense(aop, a, ops, ops) == "actions do not commute"
    assert _verdict(lambda: Bimodule(aop, a, ops, ops, name="w")) == "actions do not commute"


@pytest.mark.parametrize("bound_entries", ["default", "just above one block", "1"])
def test_a_left_generator_that_fails_to_commute_is_caught_in_its_block(bound_entries, monkeypatch):
    # in the regular bimodule of A2 (e1, e2, a: 1 -> 2), let lam(a) send
    # e1 to a + e2: still a left action, and each lam(e_v) commutes with
    # every rho(y), but lam(a) rho(e1) != rho(e1) lam(a).  G_L is
    # (e1, e2, a), so past the bound a sits in the second block
    a = path_algebra(Quiver(2, ((0, 1),)), FLD)
    w = regular_bimodule(a)
    lam = np.array(w.left_action)
    lam[a.labels.index("a"), a.labels.index("e1"), a.labels.index("e2")] = 1
    stack = 3 * w.dim * w.dim
    entries = {"default": field.STACK_ENTRIES, "just above one block": 3 * stack - 1, "1": 1}[bound_entries]
    monkeypatch.setattr(field, "STACK_ENTRIES", entries)
    assert bimodule_violation_dense(a, a, lam, w.right_action) == "actions do not commute"
    assert _bimodule_verdict(w, lam, w.right_action) == "actions do not commute"


@pytest.mark.parametrize("bound_entries", ["d^4", "d^4 - 1", "1"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_associativity_in_blocks_matches_the_whole_check(bound_entries, data):
    a = _algebras()["A3"]
    d = a.dim
    entries = {"d^4": d ** 4, "d^4 - 1": d ** 4 - 1, "1": 1}[bound_entries]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "STACK_ENTRIES", entries)
        mul = np.array(a.mul_table)
        if data.draw(st.booleans()):
            idx = tuple(data.draw(st.integers(0, d - 1)) for _ in range(3))
            mul[idx] = (mul[idx] + data.draw(st.integers(1, FLD.p - 1))) % FLD.p
        got = _verdict(lambda: Algebra(FLD, a.labels, mul, a.unit, a.idempotent_indices, name="x"))
        assert (got == "associativity fails") == (not associative_dense(mul, FLD.p))


# ----------------------------------------------------------------------
# the domain certificate
# ----------------------------------------------------------------------


def _two_element(fld, square_is_self, name):
    """Basis (1, x) with 1 the only listed idempotent, and x^2 == x
    (k x k in a basis with one idempotent hidden) or x^2 == 0 (the dual
    numbers k[x]/(x^2))."""
    mul = np.zeros((2, 2, 2), dtype=np.int64)
    mul[0, 0, 0] = mul[0, 1, 1] = mul[1, 0, 1] = 1
    if square_is_self:
        mul[1, 1, 1] = 1
    return Algebra(fld, ["1", "x"], mul, [1, 0], [0], name=name)


def test_a_hidden_idempotent_is_rejected_by_name():
    # rho(x) == 2 breaks rho(x^2) == rho(x)^2, yet x lies in rad^2, so the
    # only generator is 1, on which the law holds: the certificate must
    # reject the algebra itself
    fld = PrimeField(5)
    a = _two_element(fld, True, "kxk hidden")
    action = np.array([[[1]], [[2]]])
    assert module_violation_dense(a, action) == "action is not multiplicative"
    with pytest.raises(ValueError, match=r"^kxk hidden: outside the domain: e_v b e_v != 0 for the basis element x$"):
        RightModule(a, action)


def test_dual_numbers_are_rejected_by_name():
    a = _two_element(FLD, False, "dual numbers")
    regular = a.right_operators
    assert module_violation_dense(a, regular) is None
    with pytest.raises(ValueError, match=r"^dual numbers: outside the domain"):
        RightModule(a, regular)
    with pytest.raises(ValueError, match=r"^dual numbers: outside the domain"):
        _generators(a)


def test_a_cycle_between_vertices_is_rejected_by_name():
    # e1, e2, a: 1 -> 2, b: 2 -> 1 with ab == ba == 0: no loop at a
    # vertex, but e1 A e2 and e2 A e1 are both nonzero
    mul = np.zeros((4, 4, 4), dtype=np.int64)
    mul[0, 0, 0] = mul[1, 1, 1] = 1
    # e2 a == a == a e1 and e1 b == b == b e2
    mul[1, 2, 2] = mul[2, 0, 2] = mul[0, 3, 3] = mul[3, 1, 3] = 1
    a = Algebra(FLD, ["e1", "e2", "a", "b"], mul, [1, 1, 0, 0], [0, 1], name="two-cycle")
    with pytest.raises(ValueError, match=r"^two-cycle: outside the domain: .* form a cycle$"):
        RightModule(a, a.right_operators)


def test_the_mixed_basis_algebra_is_certified():
    gens = _generators(_algebras()["mixed"])
    assert len(gens.table) == (3 + len(gens.parts)) * (1 + _algebras()["mixed"].dim)
