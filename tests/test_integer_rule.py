"""One integer rule, ``statevec._integer``, at every entry point that takes a
count, index, label, qubit or seed: a bool, float, string or float array is
refused with a ValueError that names it, and a numpy integer is taken as the
Python int it equals."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from tmes.capacity import (
    SdcCodebook,
    TeleportResult,
    build_sdc_codebook,
    build_teleport_protocol,
    default_partition,
    haar_random_state,
    haar_random_unitary,
    sdc_max_messages,
    sdc_orthogonal_labels,
    simulate_sdc,
    simulate_teleportation,
    teleport_capacity,
)
from tmes.claims import ClaimConfig, run_claim_suite
from tmes.invariants import all_bipartitions, conversion_obstruction, orthogonal_family
from tmes.operators import OperatorSet, gamma, operator_family, pauli_string, sigma
from tmes.pauli import apply_paulis, pauli_digits, pauli_label, pauli_rows, xz_masks
from tmes.serialize import (
    operator_from_dict,
    operator_set_from_dict,
    operator_to_dict,
    state_from_dict,
    state_to_dict,
)
from tmes.states import bell, bell_product, cluster4, ghz, odd_resource, w_state
from tmes.statevec import (
    DensityMatrix,
    LocalOperator,
    Partition,
    PureState,
    apply_local,
    partial_trace,
)

FLOAT_ARRAY = np.array([1.0, 2.0])
NOT_INTS = [True, 1.0, 1.5, np.float64(1), "1", FLOAT_ARRAY]
NOT_INT_IDS = ["True", "1.0", "1.5", "np.float64", "str", "float-array"]

_CUT = Partition.from_sender((1, 3), 4)
_PROTOCOL = build_teleport_protocol(cluster4(), _CUT, 1)
_BOOK = build_sdc_codebook(cluster4(), (1, 3))

# Entry points given the value itself: (id, call, message before ", got").
SCALARS = [
    ("PureState", lambda v: PureState(v, [1, 0]), "a state needs an int of at least 1 qubit"),
    ("DensityMatrix", lambda v: DensityMatrix(v, np.eye(2) / 2), "a density matrix needs an int of at least 1 qubit"),
    ("LocalOperator", lambda v: LocalOperator(v, np.eye(2)), "operator arity must be an int of at least 1"),
    ("ghz", ghz, "ghz needs an int of at least 1 qubit"),
    ("w_state", w_state, "w_state parameter must be an integer in 1..2^1022 - 1"),
    ("bell_product", bell_product, "need an int of at least 1 Bell pair"),
    ("odd_resource", odd_resource, "need an int of at least 1 Bell pair"),
    ("haar_random_state", haar_random_state, "a state needs an int of at least 1 qubit"),
    ("haar_random_unitary", lambda v: haar_random_unitary(v, np.random.default_rng(0)), "a unitary needs an int dimension of at least 1"),
    ("all_bipartitions", all_bipartitions, "bipartitions need an int of at least 2 qubits"),
    ("default_partition", default_partition, "a partition needs an int of at least 2 qubits"),
    ("from_sender-count", lambda v: Partition.from_sender((1,), v), "a partition needs an int of at least 2 qubits"),
    ("sigma", sigma, "Pauli index must be an int in 0..3"),
    ("gamma", gamma, "gamma index must be an int in 1..16"),
    ("operator_family", operator_family, "level must be an int of at least 1"),
    ("pauli_digits-label", lambda v: pauli_digits(v, 2), "label out of range for 2 factors"),
    ("pauli_digits-length", lambda v: pauli_digits(0, v), "length must be an int of at least 1"),
    ("xz_masks-length", lambda v: xz_masks(np.arange(4), v), "a Pauli string length must be a non-negative int"),
    ("pauli_rows-length", lambda v: pauli_rows(np.arange(4), v), "a Pauli string length must be a non-negative int"),
    # seeds
    ("seed-haar", lambda v: haar_random_state(2, seed=v), "seed must be a non-negative int"),
    ("seed-teleport", lambda v: simulate_teleportation(cluster4(), _CUT, 1, seed=v), "seed must be a non-negative int"),
    ("seed-teleport-state", lambda v: simulate_teleportation(cluster4(), _CUT, haar_random_state(1), seed=v), "seed must be a non-negative int"),
    ("seed-ClaimConfig", lambda v: ClaimConfig(seed=v), "seed must be a non-negative int"),
    # payload sizes
    ("payload-build", lambda v: build_teleport_protocol(cluster4(), _CUT, v), "a payload size must be an int of at least 1 qubit"),
    ("payload-simulate", lambda v: simulate_teleportation(cluster4(), _CUT, v), "a payload size must be an int of at least 1 qubit"),
    ("payload-protocol", lambda v: dataclasses.replace(_PROTOCOL, n_payload=v), "a payload size must be an int of at least 1 qubit"),
    # message counts and indices
    ("message-count", lambda v: build_sdc_codebook(ghz(3), (1, 2), v), "a codebook needs an int of at least 1 message"),
    ("message-index", lambda v: simulate_sdc(cluster4(), (1, 3), v, _BOOK), "message index must be an int in 0..15"),
    # document fields
    ("json-num_qubits", lambda v: state_from_dict({**state_to_dict(ghz(1)), "num_qubits": v}), "num_qubits must be an integer of at least 1"),
    ("json-arity", lambda v: operator_from_dict({**operator_to_dict(sigma(1)), "arity": v}), "arity must be an integer of at least 1"),
    ("json-level", lambda v: operator_set_from_dict({"format_version": 1, "kind": "operator_set", "level": v}), "level must be an integer of at least 1"),
]

# Entry points given a collection: (value,), or the float array itself, whose
# first entry the message names.
COLLECTIONS = [
    ("partial_trace", lambda q: partial_trace(ghz(3), q), "kept qubits out of range 1..3"),
    ("from_sender", lambda q: Partition.from_sender(q, 3), "sender qubits out of range 1..3"),
    ("Partition-sender", lambda q: Partition(q, {3}), "partition qubits must be ints of at least 1"),
    ("Partition-receiver", lambda q: Partition({3}, q), "partition qubits must be ints of at least 1"),
    ("sdc_max_messages", lambda q: sdc_max_messages(ghz(3), q), "sender qubits out of range 1..3"),
    ("sdc_orthogonal_labels", lambda q: sdc_orthogonal_labels(ghz(3), q), "sender qubits out of range 1..3"),
    ("build_sdc_codebook", lambda q: build_sdc_codebook(ghz(3), q), "sender qubits out of range 1..3"),
    ("simulate_sdc", lambda q: simulate_sdc(cluster4(), q, 0, _BOOK), "sender qubits out of range 1..4"),
    ("SdcCodebook-sender", lambda q: SdcCodebook(bell(), q, (0,)), "sender qubits out of range 1..2"),
    ("SdcCodebook-labels", lambda q: SdcCodebook(bell(), (1,), q), "codebook labels must lie in 0..3"),
    ("orthogonal_family", lambda q: orthogonal_family(ghz(3), q), "subset out of range 1..3"),
    ("conversion_obstruction", lambda q: conversion_obstruction(ghz(3), ghz(3), q), "acting subset out of range 1..3"),
    ("apply_local", lambda q: apply_local(ghz(2), sigma(1), q), "target qubits out of range 1..2"),
    ("apply_paulis-qubits", lambda q: apply_paulis(ghz(2).amplitudes, q, [0]), "qubits out of range 1..2"),
    ("apply_paulis-labels", lambda q: apply_paulis(ghz(2).amplitudes, (1,), q), "Pauli labels must be ints"),
    ("pauli_rows", lambda q: pauli_rows(q, 1), "Pauli labels must be ints"),
    ("xz_masks", lambda q: xz_masks(q, 1), "Pauli labels must be ints"),
    ("pauli_string", pauli_string, "Pauli indices must be ints in 0..3"),
    ("pauli_label", pauli_label, "Pauli digits must be ints in 0..3"),
]


@pytest.mark.parametrize("value", NOT_INTS, ids=NOT_INT_IDS)
@pytest.mark.parametrize("call,message", [row[1:] for row in SCALARS], ids=[row[0] for row in SCALARS])
def test_scalar_refusals(call, message, value):
    with pytest.raises(ValueError) as caught:
        call(value)
    assert str(caught.value) == f"{message}, got {value!r}"


@pytest.mark.parametrize("value", NOT_INTS, ids=NOT_INT_IDS)
@pytest.mark.parametrize("call,message", [row[1:] for row in COLLECTIONS], ids=[row[0] for row in COLLECTIONS])
def test_collection_refusals(call, message, value):
    if isinstance(value, np.ndarray):
        qubits, named = value, value[0]
    else:
        qubits, named = (value,), value
    with pytest.raises(ValueError) as caught:
        call(qubits)
    assert str(caught.value) == f"{message}, got {named!r}"


def test_fractional_sender_is_refused_not_truncated():
    # int(2.9) once made this qubit 2's figure, 0, where qubit 3's is 1
    state = w_state(2)
    assert teleport_capacity(state, Partition.from_sender((3,), 3)) == 1
    assert teleport_capacity(state, Partition.from_sender((2,), 3)) == 0
    with pytest.raises(ValueError) as caught:
        teleport_capacity(state, Partition.from_sender((2.9,), 3))
    assert str(caught.value) == "sender qubits out of range 1..3, got 2.9"


def test_an_int_too_long_to_print_is_named_by_its_size():
    # str() of an int above 4300 digits raises its own ValueError
    with pytest.raises(ValueError) as caught:
        w_state(10**5000)
    assert str(caught.value) == "w_state parameter must be an integer in 1..2^1022 - 1, got an int of 16610 bits"


def _summary(x):
    """Comparable content of a result, its stored integers kept as stored."""
    if isinstance(x, (PureState, DensityMatrix)):
        arr = x.amplitudes if isinstance(x, PureState) else x.matrix
        return x.num_qubits, arr.tobytes()
    if isinstance(x, LocalOperator):
        return x.arity, x.matrix.tobytes()
    if isinstance(x, Partition):
        return tuple(sorted(x.sender)), tuple(sorted(x.receiver))
    if isinstance(x, OperatorSet):
        return x.members.tobytes()
    if isinstance(x, SdcCodebook):
        return x.labels, tuple(sorted(x.sender_set)), x.stack.tobytes()
    if isinstance(x, TeleportResult):
        p = x.protocol
        arrays = (x.probabilities, x.fidelities, p.measurement_family, p.corrections)
        return (p.n_payload, p.outcome_labels, p.probabilities, *(a.tobytes() for a in arrays))
    if isinstance(x, np.ndarray):
        return x.tobytes()
    if isinstance(x, tuple):
        return tuple(map(_summary, x))
    return x


def _stored_ints(x):
    if isinstance(x, tuple):
        for item in x:
            yield from _stored_ints(item)
    elif isinstance(x, (int, np.integer)):
        yield x


# Each row builds one result from integers made by ``i``: once with int and
# once with a numpy integer type.
NUMPY_ROWS = [
    ("PureState", lambda i: PureState(i(1), [1, 0])),
    ("DensityMatrix", lambda i: DensityMatrix(i(1), np.eye(2) / 2)),
    ("LocalOperator", lambda i: LocalOperator(i(1), np.eye(2))),
    ("Partition", lambda i: Partition({i(1), i(3)}, {i(2)})),
    ("from_sender", lambda i: Partition.from_sender([i(3), i(1)], i(3))),
    ("partial_trace", lambda i: partial_trace(ghz(3), [i(1), i(3)])),
    ("ghz", lambda i: ghz(i(3))),
    ("w_state", lambda i: w_state(i(2))),
    ("bell_product", lambda i: bell_product(i(2))),
    ("odd_resource", lambda i: odd_resource(i(1))),
    ("haar_random_state", lambda i: haar_random_state(i(2), i(3))),
    ("default_partition", lambda i: default_partition(i(4))),
    ("sigma", lambda i: sigma(i(2))),
    ("gamma", lambda i: gamma(i(5))),
    ("operator_family", lambda i: operator_family(i(2))),
    ("pauli_digits", lambda i: pauli_digits(i(6), i(2))),
    ("pauli_label", lambda i: pauli_label([i(1), i(2)])),
    ("pauli_string", lambda i: pauli_string([i(1), i(3)])),
    ("apply_local", lambda i: apply_local(ghz(2), sigma(1), [i(2)])),
    ("apply_paulis", lambda i: apply_paulis(ghz(2).amplitudes, [i(2)], [i(1), i(2)])),
    ("pauli_rows", lambda i: pauli_rows([i(3), i(1)], i(1))),
    ("SdcCodebook", lambda i: SdcCodebook(bell(), [i(1)], [i(0), i(1)])),
    ("message-count", lambda i: build_sdc_codebook(ghz(3), (i(1), i(2)), i(5))),
    ("message-index", lambda i: simulate_sdc(ghz(3), (1, 2), i(3), build_sdc_codebook(ghz(3), (1, 2), 5))),
    ("payload", lambda i: simulate_teleportation(cluster4(), _CUT, i(2), seed=i(4))),
    ("json-num_qubits", lambda i: state_from_dict({**state_to_dict(ghz(2)), "num_qubits": i(2)})),
]


@pytest.mark.parametrize("numpy_int", [np.int64, np.uint8, np.int32], ids=["int64", "uint8", "int32"])
@pytest.mark.parametrize("build", [row[1] for row in NUMPY_ROWS], ids=[row[0] for row in NUMPY_ROWS])
def test_numpy_integers_are_taken_as_ints(build, numpy_int):
    by_int = _summary(build(int))
    by_numpy = _summary(build(numpy_int))
    assert by_numpy == by_int
    assert all(type(v) is int for v in _stored_ints(by_numpy))


def test_claim_ids_are_a_tuple_of_strings():
    # a bare string was once split into one-letter ids
    with pytest.raises(ValueError) as caught:
        ClaimConfig(claim_ids="bell-catalog")
    assert str(caught.value) == "claim_ids must be a tuple of claim id strings, got 'bell-catalog'"
    with pytest.raises(ValueError, match="claim id strings"):
        ClaimConfig(claim_ids=("bell-catalog", 3))
    config = ClaimConfig(claim_ids=["bell-catalog"])
    assert config.claim_ids == ("bell-catalog",)
    assert config == ClaimConfig(claim_ids=("bell-catalog",))
    assert hash(config) == hash(ClaimConfig(claim_ids=("bell-catalog",)))
    assert [r.claim_id for r in run_claim_suite(config)] == ["bell-catalog"]
