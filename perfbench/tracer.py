"""Outside-in tracer for gluecat.

``Tracer.install()`` replaces the public functions and methods of the
seven library modules with timing wrappers.  A module-level function is
re-bound in every ``gluecat.*`` module that imported it by name, so
calls through ``from .x import y`` bindings are traced too; a method is
patched on its class.  Each call becomes a span (name, start, end,
parent, op id) kept in memory and written out by ``dump``.  A span's
self time is its duration minus the time covered by its child spans.

Some wrappers also look at arguments and results from outside:
matrix sizes for ``rref``, content digests for the functions whose
inputs repeat, and result identity for the cached context methods.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("field", "algebra", "modules", "complexes", "recollement", "serre", "reflect")

# Accessors that only index or allocate and run hundreds of thousands of
# times; a wrapper would cost more than their body.  Their time counts
# as self time of the calling span.
SKIP = frozenset({
    "term", "diff", "comp", "degrees", "is_zero", "dim", "zeros", "identity",
    "unit_row", "inv_scalar", "basis_vector", "idempotent_vector",
    "algebra_of", "functor", "signature",
})

# Span groups reported as one layer entry: group name -> member spans.
GROUPS = {
    "serre.pairings": ("serre.serre_pairing", "serre.serre_left_pairing",
                       "serre.induced_right_pairing", "serre.induced_left_pairing"),
}

# verify_axioms spans are also reported per diagram, as verify.<label>.
VERIFIED_DIAGRAMS = ("original", "upper", "lower")

SMALL_ELEMS = 64


class Stat:
    __slots__ = ("calls", "total", "self", "depth", "keys", "reused", "seen", "elems", "small", "attempts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0      # outermost calls only, so recursion is not counted twice
        self.self = 0.0
        self.depth = 0
        self.keys = set()     # content digests of the arguments
        self.reused = 0
        self.seen = {}        # id -> result, pinned so ids stay unique
        self.elems = 0
        self.small = 0
        self.attempts = 0


class Digests:
    """Content digests of gluecat objects, independent of hash seeds."""

    def __init__(self):
        self._memo = {}   # id -> (object, digest); the object is pinned

    def _memoised(self, obj, make):
        hit = self._memo.get(id(obj))
        if hit is None:
            hit = (obj, make(obj))
            self._memo[id(obj)] = hit
        return hit[1]

    @staticmethod
    def _array(h, arr):
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())

    def algebra(self, a) -> bytes:
        def make(a):
            h = hashlib.sha1(str(a.field.p).encode())
            self._array(h, a.mul_table)
            return h.digest()
        return self._memoised(a, make)

    def module(self, m) -> bytes:
        def make(m):
            h = hashlib.sha1(self.algebra(m.algebra))
            self._array(h, m.action)
            return h.digest()
        return self._memoised(m, make)

    def complex(self, x) -> bytes:
        h = hashlib.sha1(self.algebra(x.algebra))
        h.update(repr((x.lo, x.hi)).encode())
        for n in range(x.lo, x.hi + 1):
            h.update(self.module(x.terms[n]))
        for n in sorted(x.diffs):
            self._array(h, x.diffs[n])
        return h.digest()

    def chain_map(self, f) -> bytes:
        h = hashlib.sha1(self.complex(f.source) + self.complex(f.target))
        for n in sorted(f.comps):
            h.update(repr(n).encode())
            self._array(h, f.comps[n])
        return h.digest()


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op = -1
        self._stack: list[list] = []   # [span index, child time] per open span
        self.digests = Digests()
        for diagram in VERIFIED_DIAGRAMS:
            self.stat(f"verify.{diagram}")

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn):
        own = self.stat(name)
        groups = [self.stat(g) for g, members in GROUPS.items() if name in members]
        probe = _PROBES.get(name)
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.span_name)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            own.depth += 1
            for g in groups:
                g.depth += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                tracer.span_start[idx] = t0
                tracer.span_end[idx] = t1
                own.depth -= 1
                own.calls += 1
                own.self += dur - frame[1]
                if not own.depth:
                    own.total += dur
                for g in groups:
                    g.depth -= 1
                    g.calls += 1
                    if not g.depth:
                        g.total += dur
                if stack:
                    stack[-1][1] += dur
            if probe is not None:
                probe(tracer, own, args, result, dur)
                # the probe's own time is overhead, not the caller's work
                if stack:
                    stack[-1][1] += perf() - t1
            return result

        return traced

    def install(self):
        """Wrap every public function and method of the library modules."""
        import gluecat.cli  # noqa: F401  -- loads every library module

        loaded = [m for n, m in list(sys.modules.items()) if n == "gluecat" or n.startswith("gluecat.")]
        for layer in LAYERS:
            mod = sys.modules[f"gluecat.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and name not in SKIP:
                    wrapped = self.wrap(f"{layer}.{name}", obj)
                    for m in loaded:
                        for attr, val in list(vars(m).items()):
                            if val is obj:
                                setattr(m, attr, wrapped)
                elif inspect.isclass(obj):
                    for attr, val in list(vars(obj).items()):
                        if inspect.isfunction(val) and not attr.startswith("_") and attr not in SKIP:
                            setattr(obj, attr, self.wrap(f"{layer}.{attr}", val))

    # -- output ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Flat ``<name>.<stat>`` table; ratios of an uncalled function read 0."""
        out: dict[str, float] = {}
        module_self = {layer: 0.0 for layer in LAYERS}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.total_s"] = st.total
            layer = name.split(".", 1)[0]
            if layer in module_self and name not in GROUPS:
                out[f"{name}.self_s"] = st.self
                module_self[layer] += st.self
            probe = _PROBES.get(name)
            calls = st.calls or 1
            if probe in (_hom_basis, _projective, _lift):
                out[f"{name}.distinct_frac"] = len(st.keys) / calls
            elif probe is _reuse:
                out[f"{name}.reuse_frac"] = st.reused / calls
            elif probe is _rref:
                out[f"{name}.elems"] = st.elems
                out[f"{name}.small_frac"] = st.small / calls
            elif probe is _certificate:
                out[f"{name}.attempts"] = st.attempts
        for layer, v in module_self.items():
            out[f"{layer}.self_s"] = v
        return out

    def dump(self, path: Path):
        """Write the spans (binary, one record per call) and the name table."""
        np.savez(
            path.with_suffix(".npz"),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )
        path.with_suffix(".names.json").write_text(json.dumps(self.names) + "\n", encoding="utf-8")


# -- probes: (tracer, stat, args, result, duration) ----------------------------


def _rref(tr, st, args, result, dur):
    rows, cols = args[1].shape
    st.elems += rows * cols
    st.small += rows * cols <= SMALL_ELEMS


def _hom_basis(tr, st, args, result, dur):
    st.keys.add(tr.digests.module(args[0]) + tr.digests.module(args[1]))


def _projective(tr, st, args, result, dur):
    st.keys.add(tr.digests.algebra(args[0]) + repr(args[1]).encode())


def _lift(tr, st, args, result, dur):
    d = tr.digests
    st.keys.add(d.complex(args[1]) + d.chain_map(args[2]) + d.chain_map(args[3]))


def _reuse(tr, st, args, result, dur):
    if id(result) in st.seen:
        st.reused += 1
    else:
        st.seen[id(result)] = result


def _certificate(tr, st, args, result, dur):
    st.attempts += result.attempts_used


def _verify(tr, st, args, result, dur):
    vs = tr.stat(f"verify.{args[0].label}")
    vs.calls += 1
    vs.total += dur


_PROBES = {
    "field.rref": _rref,
    "modules.hom_basis_matrices": _hom_basis,
    "modules.projective_module": _projective,
    "complexes.lift_through_qis": _lift,
    "complexes.replacement": _reuse,
    "complexes.hom_space": _reuse,
    "complexes.derived_iso_certificate": _certificate,
    "recollement.verify_axioms": _verify,
}
