"""The staircase layout and pricing's packed path against the public one.

Every Trotter step is laid out by one numpy function (circuits._staircase).
trotter_step builds Gates from it; it must give the staircase that
Circuit.add builds one string at a time (_staircase_via_add), gate for gate
and with the same global phase.  Pricing synthesizes a packed Pauli sum
straight into gate ids and Rz angles (circuits._trotter_ids), and the
optimizer core runs on them (reference_models._optimized_step) with no Gate.
Rebuilt into Gates, the core's survivors must equal
optimize(trotter_step(h)) exactly: the same gates, the same angles and the
same global phase, float for float.  The core reads a gate id only as a
label: renumbering the ids changes none of its output.

A synthesized circuit keeps the record of its placement (Circuit's
_synthesis), and optimize() numbers its gates from it while each gate is
still the object synthesis placed.  Any edit sends the circuit down the
path that numbers its gates afresh (optimizer._wire_chains); either path
must give the gates that a circuit read back from JSON, with no record,
gives.
"""

import math
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qudenc import optimizer
from qudenc.circuits import (Circuit, Gate, _trotter_ids, export_circuit, import_circuit,
                             trotter_step, trotter_term)
from qudenc.optimizer import _link, _optimize_ids, optimize
from qudenc.paulis import PackedSum, PauliSum
from reference_models import _optimized_step
from test_optimizer_pair_answers import _staircase_via_add
from test_optimizer_reference import _assert_checked

pytestmark = pytest.mark.ci

_THETA = 0.5  # so that a string's Rz angle 2 theta c is its coefficient c
# Angles at the edges of the merge rule: Rz(pi) + Rz(pi) = -I, Rz(2pi), Rz(4pi).
_EDGE_COEFFS = (math.pi, -math.pi, 2 * math.pi, 4 * math.pi, 1.0, -1.0)


@st.composite
def _pauli_sums(draw, letters: str = "IXYZ", max_weight: int = 5,
                min_size: int = 1) -> PauliSum:
    """Up to 12 strings on up to 5 qubits, the identity and repeats included,
    so that neighbouring staircases share basis changes and ladders; each
    string has at most max_weight letters other than I."""
    n = draw(st.integers(1, 5))
    coeffs = st.one_of(st.sampled_from(_EDGE_COEFFS),
                       st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False))
    h = PauliSum(n)
    for _ in range(draw(st.integers(min_size, 12))):
        word = draw(st.lists(st.sampled_from(letters), min_size=n, max_size=n))
        string = tuple((q, p) for q, p in enumerate(word) if p != "I")
        h._accumulate(string[:max_weight], draw(coeffs))
    return h


# Any sum, then the edge cases: empty, identity only, Z only, weight 1.
_ANY_SUM = st.one_of(_pauli_sums(), _pauli_sums(min_size=0), _pauli_sums(letters="I"),
                     _pauli_sums(letters="IZ"), _pauli_sums(max_weight=1))


def _in_trotter_order(h: PauliSum) -> PackedSum:
    return PackedSum.pack(sorted(h.terms.items()), h.n_qubits)


def _rebuilt(gid: array, ids: dict, angles: list, dead: bytearray) -> list[Gate]:
    """The optimizer core's survivors, rebuilt into Gates from their ids and
    Rz angles."""
    keys = list(ids)
    return [Gate(kind, qubits, angles[i] if kind == "Rz" else None)
            for i, (kind, qubits) in enumerate(map(keys.__getitem__, gid)) if not dead[i]]


def _packed(h: PauliSum, max_sweeps: int) -> tuple[list[Gate], float]:
    """The core's survivors on the packed form of trotter_step(h), and the
    global phase, started from trotter_step's."""
    phase = trotter_step(h, _THETA).global_phase
    gid, ids, angles, dead, phase = _optimized_step(_in_trotter_order(h), _THETA,
                                                    phase, max_sweeps)
    return _rebuilt(gid, ids, angles, dead), phase


@settings(max_examples=max(200, settings().max_examples), deadline=None)
@given(_ANY_SUM)
def test_property_trotter_step_matches_the_staircase_built_through_add(h):
    got, want = trotter_step(h, _THETA), _staircase_via_add(h, _THETA)
    assert got.gates == want.gates
    assert [repr(g.angle) for g in got.gates] == [repr(g.angle) for g in want.gates]
    assert repr(got.global_phase) == repr(want.global_phase)


@settings(max_examples=max(200, settings().max_examples), deadline=None)
@given(_ANY_SUM)
def test_property_packed_core_matches_optimize(h):
    for cap in (1, 2, 50):
        want = optimize(trotter_step(h, _THETA), cap)
        assert _packed(h, cap) == (want.gates, want.global_phase)


def _survivors(gid: array, ids: dict, angles: list, cap: int) -> tuple[list[Gate], float]:
    """The optimizer core's survivors and phase on copies of the ids and
    angles, which it updates."""
    gid, ids, angles = array("i", gid), dict(ids), list(angles)
    dead, phase = _optimize_ids(*_link(gid, ids), gid, ids, angles, 0.0, cap)
    return _rebuilt(gid, ids, angles, dead), phase


@settings(max_examples=max(200, settings().max_examples), deadline=None)
@given(_ANY_SUM, st.data())
def test_property_the_core_reads_gate_ids_only_as_labels(h, data):
    gid, ids, angles = _trotter_ids(_in_trotter_order(h), _THETA)
    perm = data.draw(st.permutations(range(len(ids))))
    # Id i becomes perm[i]; ids lists its keys by number, as the core reads it.
    keys = list(ids)
    renumbered = {keys[old]: new for new, old in sorted(zip(perm, range(len(ids))))}
    regid = array("i", [perm[i] for i in gid])
    for cap in (1, 2, 50):
        want, phase = _survivors(gid, ids, angles, cap)
        got, got_phase = _survivors(regid, renumbered, angles, cap)
        assert got == want
        assert [repr(g.angle) for g in got] == [repr(g.angle) for g in want]
        assert repr(got_phase) == repr(phase)


@settings(max_examples=max(200, settings().max_examples), deadline=None)
@given(_ANY_SUM, st.sampled_from((_THETA, -1.3, 2.0 ** -40)))
def test_property_placed_gates_are_the_gates_gate_builds(h, theta):
    # Each Rz is placed from the layout's checked angle and the shared
    # gate's checked qubits, with no check of its own: every gate must
    # still be the Gate that its fields give, with Python types.
    _assert_checked(trotter_step(h, theta).gates)
    for string, coeff in h.terms.items():
        _assert_checked(trotter_term(string, coeff, theta, h.n_qubits).gates)


@pytest.mark.parametrize("terms, match", [
    ({((0, "X"),): 1j}, "Hermitian"),
    ({((0, "X"),): 1j, ((3, "Z"),): 1.0}, "Hermitian"),
    ({((0, "Z"),): 1e308}, "Rz angle must be a finite real number, got inf"),
    ({((0, "Z"),): float("nan")}, "Rz angle must be a finite real number, got nan"),
    ({((3, "Z"),): 1.0}, "outside the register"),
], ids=["non-hermitian", "non-hermitian-and-outside-register", "angle-overflow",
        "angle-nan", "outside-register"])
def test_packed_synthesis_makes_the_checks_of_trotter_step(terms, match):
    h = PauliSum(2)
    h.terms = dict(terms)  # past PauliSum's own register check
    with pytest.raises(ValueError, match=match):
        trotter_step(h, 1.0)
    with pytest.raises(ValueError, match=match):
        _trotter_ids(_in_trotter_order(h), 1.0)


@pytest.mark.parametrize("terms, match", [
    ({((0, "Z"),): math.nan, ((0, "X"), (1, "Z")): 2.0, ((1, "X"), (5, "Z")): 1.0},
     "Rz angle must be a finite real number, got nan"),
    ({((0, "X"), (5, "Z")): 1.0, ((1, "Z"),): math.nan}, "outside the register"),
    ({(): math.inf, ((0, "Z"),): 1.0, ((1, "Z"),): -math.inf, ((3, "Z"),): 1.0},
     "Rz angle must be a finite real number, got -inf"),
    ({((0, "X"), (3, "Z")): 1.0, ((0, "Y"), (1, "Z"), (2, "X")): math.nan},
     "outside the register"),
    ({((0, "X"),): 1.0, ((0, "Y"),): -2.0, ((1, "Z"),): math.inf, ((2, "Z"),): math.nan},
     "Rz angle must be a finite real number, got inf"),
    ({((0, "X"),): 1.0, ((1, "Y"),): 2.0, ((2, "X"), (4, "Y")): 1.0, ((2, "Z"),): math.inf},
     "outside the register"),
], ids=["nan-then-outside", "outside-then-nan", "identity-inf-then-angle",
        "short-row-outside", "good-then-inf-then-nan", "good-then-outside-then-inf"])
def test_the_first_offending_string_in_trotter_order_raises(terms, match):
    # The layout checks every string at once, but raises what the string
    # first in Trotter order would raise: for an angle, the text of that
    # string's own Rz Gate, as no placed Rz checks its angle again.  An
    # identity string has no Rz, so its coefficient is not checked.  A
    # string shorter than the widest one ends in padding, which must
    # neither hide nor fake its own qubits.
    h = PauliSum(3)
    h.terms = dict(terms)
    with pytest.raises(ValueError, match=match) as err:
        trotter_step(h, 0.5)
    with pytest.raises(ValueError, match=match) as packed:
        _trotter_ids(_in_trotter_order(h), 0.5)
    assert str(err.value) == str(packed.value)
    first = next(c for s, c in sorted(h.terms.items()) if s and not math.isfinite(c))
    if "angle" in match:
        with pytest.raises(ValueError) as gate:
            Gate("Rz", (0,), 2 * 0.5 * first)
        assert str(err.value) == str(gate.value)


def _same(got: Circuit, want: Circuit) -> None:
    """Gate for gate, each angle and the phase float for float."""
    assert got.n_qubits == want.n_qubits
    assert got.gates == want.gates
    assert [repr(g.angle) for g in got.gates] == [repr(g.angle) for g in want.gates]
    assert repr(got.global_phase) == repr(want.global_phase)


def _unrecorded(c: Circuit) -> Circuit:
    """c with no synthesis record: the same gates in a new list."""
    return Circuit(c.n_qubits, list(c.gates), c.global_phase)


def _record(c: Circuit) -> tuple:
    """Every value in c's synthesis record, as plain data."""
    r = c._synthesis
    return (r.shared.tolist(), r.gid.tobytes(), list(r.ids.items()), r.rz.tolist(),
            r.rz_gates.tolist(), [repr(g.angle) for g in r.rz_gates])


def _step() -> Circuit:
    """Five strings on three qubits: the first two staircases share H on
    qubit 0, at positions 4 and 5, which cancel."""
    h = PauliSum(3)
    for string, coeff in ((((0, "X"), (1, "Z")), 0.3), (((0, "X"), (2, "Z")), -0.7),
                          (((1, "Z"), (2, "Z")), 1.1), (((1, "Y"),), 0.4),
                          (((0, "Z"), (1, "Z"), (2, "Z")), 0.9)):
        h._accumulate(string, coeff)
    c = trotter_step(h, _THETA)
    assert c.gates[4] == c.gates[5] == Gate("H", (0,))
    return c


def _edit_copy(c):
    c.gates = list(c.gates)


def _edit_equal(c):
    g = c.gates[4]
    c.gates[4] = Gate(g.kind, g.qubits)  # equal, but not the placed object


def _edit_other(c):
    c.gates[4] = Gate("X", (0,))  # no longer cancels with the H after it


def _edit_angle(c):
    i = next(i for i, g in enumerate(c.gates) if g.kind == "Rz")
    c.gates[i] = Gate("Rz", c.gates[i].qubits, c.gates[i].angle + 1.0)


def _edit_append(c):
    c.gates.append(Gate("H", (0,)))


def _edit_delete(c):
    del c.gates[5]


def _edit_delete_last(c):
    del c.gates[-1]


@pytest.mark.parametrize("edit", [_edit_copy, _edit_equal, _edit_other, _edit_angle,
                                  _edit_append, _edit_delete, _edit_delete_last],
                         ids=["list-copied", "equal-gate", "other-gate", "other-angle",
                              "appended", "deleted", "last-deleted"])
@pytest.mark.parametrize("cap", [1, 2, 50])
def test_an_edited_synthesized_circuit_optimizes_as_its_json_round_trip(edit, cap):
    c = _step()
    edit(c)
    back = import_circuit(export_circuit(c, "json"))
    assert back._synthesis is None
    _same(optimize(c, cap), optimize(back, cap))


def test_optimize_numbers_an_unedited_synthesized_circuit_from_its_record():
    terms = [trotter_term(string, coeff, _THETA, 3)
             for string, coeff in ((((0, "X"), (2, "Y")), 0.3), ((), 1.0))]
    circuits = [_step(), _step(), *terms]
    _edit_copy(circuits[1])
    want = [optimize(_unrecorded(c)) for c in circuits]
    edited = _step()
    _edit_equal(edited)
    with mock.patch.object(optimizer, "_wire_chains", side_effect=AssertionError):
        for c, w in zip(circuits, want):
            _same(optimize(c), w)
        with pytest.raises(AssertionError):
            optimize(edited)


def test_the_record_takes_no_part_in_equality_or_repr():
    c = _step()
    plain = _unrecorded(c)
    assert c == plain and repr(c) == repr(plain)
    assert c._synthesis is not None and plain._synthesis is None


def test_optimizing_twice_leaves_the_record_as_synthesis_made_it():
    # The core writes into the gid and ids that it is handed: a CNOT-triple
    # rewrite gives gate i a new id and adds that id's key.  Staircases are
    # palindromes, and on none of the Trotter steps searched did the triple
    # pass rewrite anything, so here the core is followed by such a write on
    # a dropped gate, which changes no output.  The record must not see it.
    core = optimizer._optimize_ids

    def rewriting(nxt, prv, wires, gid, ids, *rest):
        dead, phase = core(nxt, prv, wires, gid, ids, *rest)
        gid[dead.index(1)] = ids.setdefault(("CNOT", (2, 0)), len(ids))  # a new key
        return dead, phase

    c = _step()
    before = _record(c)
    with mock.patch.object(optimizer, "_optimize_ids", rewriting):
        once = optimize(c)
        twice = optimize(c)
    _same(twice, once)
    _same(once, optimize(_unrecorded(c)))
    assert _record(c) == before


@settings(max_examples=max(100, settings().max_examples), deadline=None)
@given(_ANY_SUM)
def test_property_the_record_path_gives_the_gates_of_the_numbering_path(h):
    step = trotter_step(h, _THETA)
    terms = [trotter_term(string, coeff, _THETA, h.n_qubits)
             for string, coeff in h.terms.items()]
    for c in (step, *terms):
        for cap in (1, 2, 3, 4, 50):
            _same(optimize(c, cap), optimize(_unrecorded(c), cap))
