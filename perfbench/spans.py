"""Span and counter recorder for the traced benchmark run (standard library only).

A span records its name, start, end, the index of the span that was open
when it began (its parent, -1 for a root) and the id of the op it belongs
to.  Spans nest on one thread, so the part of a span's interval that its
children cover is the sum of their durations, and

    self time = duration - sum of the direct children's durations.

The recorder reaches the library by replacing functions with timing
wrappers *where the calling module looks them up* (``qudenc.models.optimize``
is what ``term_entangling_cost`` calls, ``qudenc.optimizer.optimize`` is what
the harness calls).  ``src/`` is not modified; ``installed()`` restores the
originals on exit.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

OP_SPAN = "harness.op"


class Recorder:
    """Spans held in memory, plus named counters."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent, op_id]
        self.counters: dict[str, float] = {}
        self.op_id = 0
        # op id -> host-speed factor (hostspeed.py); self_times() and
        # root_time() scale each span by its op's factor.
        self.op_scale: dict[int, float] = {}
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent, self.op_id])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        if self._open.pop() != index:
            raise RuntimeError("spans must close in the order they opened")
        self.spans[index][2] = self.clock()

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, each span scaled by its op's factor."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _, op), kids in zip(self.spans, covered):
            own = ((end - start) - kids) * self.op_scale.get(op, 1.0)
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, *_ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out

    def root_time(self) -> float:
        return sum((end - start) * self.op_scale.get(op, 1.0)
                   for _, start, end, parent, op in self.spans if parent < 0)

    def dump(self, path) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counters": self.counters,
                       "op_scale": self.op_scale}, fh)


# ---------------------------------------------------------------------------
# what gets wrapped

def _terms_out(rec, args, result):
    rec.count("encoder.terms_out", len(result.sum.terms))


def _gates_synth(rec, args, result):
    rec.count("circuits.gates_synth", len(result.gates))


def _optimizer_gates(rec, args, result):
    rec.count("optimizer.gates_in", len(args[0].gates))
    rec.count("optimizer.gates_out", len(result.gates))


def _gates_applied(rec, args, result):
    rec.count("simulator.gates_applied", len(args[0].gates))


# (module, attribute, span name, counter hook run after the call)
SPANNED = (
    ("qudenc.models", "encode_matrix", "encoder.encode_matrix", _terms_out),
    ("qudenc.encoder", "encode_matrix", "encoder.encode_matrix", _terms_out),
    ("qudenc.models", "encode_term", "models.encode_term", None),
    ("qudenc.models", "compute_scheme_report", "models.compute_scheme_report", None),
    ("qudenc.models", "trotter_step", "circuits.trotter_step", _gates_synth),
    ("qudenc.circuits", "trotter_step", "circuits.trotter_step", _gates_synth),
    ("qudenc.models", "optimize", "optimizer.optimize", _optimizer_gates),
    ("qudenc.optimizer", "optimize", "optimizer.optimize", _optimizer_gates),
    ("qudenc.models", "count_resources", "circuits.count_resources", None),
    ("qudenc.circuits", "count_resources", "circuits.count_resources", None),
    ("qudenc.bounds", "staircase_cnots", "bounds.staircase_cnots", None),
    ("qudenc.converters", "conversion_circuit", "converters.conversion_circuit", None),
    ("qudenc.simulator", "circuit_to_unitary", "simulator.circuit_to_unitary", _gates_applied),
    ("qudenc.simulator", "apply_circuit", "simulator.apply_circuit", _gates_applied),
    ("qudenc.simulator", "verify_encoding", "simulator.verify_encoding", None),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in SPANNED))

# Counted without a span, so their (small) self time stays with the caller.
COUNTED = (
    ("qudenc.models", "conversion_cost", "converters.conversion_cost.calls"),
    ("qudenc.converters", "conversion_cost", "converters.conversion_cost.calls"),
)


def _span_wrapper(rec: Recorder, name: str, fn, hook):
    def wrapper(*args, **kwargs):
        index = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(index)
        if hook is not None:
            hook(rec, args, result)
        return result
    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn):
    def wrapper(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)
    return wrapper


def _price_cache_wrapper(rec: Recorder, models, fn):
    # A call that leaves the price cache the same size was served from it.
    def wrapper(*args, **kwargs):
        before = len(models._PRICE_CACHE)
        result = fn(*args, **kwargs)
        rec.count("models.term_entangling_cost.calls")
        if len(models._PRICE_CACHE) == before:
            rec.count("models.price_cache.hits")
        return result
    return wrapper


@contextmanager
def installed(rec: Recorder):
    """Route the library's layer functions through ``rec`` while active."""
    saved = []

    def patch(module, attr, wrapper):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    try:
        for mod_name, attr, name, hook in SPANNED:
            module = importlib.import_module(mod_name)
            patch(module, attr, _span_wrapper(rec, name, getattr(module, attr), hook))
        for mod_name, attr, name in COUNTED:
            module = importlib.import_module(mod_name)
            patch(module, attr, _count_wrapper(rec, name, getattr(module, attr)))
        models = importlib.import_module("qudenc.models")
        patch(models, "term_entangling_cost",
              _price_cache_wrapper(rec, models, models.term_entangling_cost))
        yield rec
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
