"""One integer rule, ``statevec._integer``, at every entry point that takes a
count, index, label, qubit or seed: a bool, float, string or float array is
refused with a ValueError that names it, and a numpy integer is taken as the
Python int it equals.  Integer text is read by ``statevec._integer_text``
alone: ASCII digits after at most one minus sign."""

from __future__ import annotations

import dataclasses
import string

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
from tmes.cli import main
from tmes.invariants import all_bipartitions, conversion_obstruction, orthogonal_family
from tmes.operators import OperatorSet, gamma, named_operator, operator_family, pauli_string, sigma
from tmes.pauli import apply_paulis, pauli_digits, pauli_label, pauli_rows, xz_masks
from tmes.serialize import (
    operator_from_dict,
    operator_set_from_dict,
    operator_to_dict,
    save_state,
    state_from_dict,
    state_to_dict,
)
from tmes.states import bell, bell_product, cluster4, ghz, odd_resource, parse_spec, w_state
from tmes.statevec import (
    DensityMatrix,
    LocalOperator,
    Partition,
    PureState,
    _integer_text,
    apply_local,
    partial_trace,
)

FLOAT_ARRAY = np.array([1.0, 2.0])
NOT_INTS = [True, False, 1.0, 2.0, 1.5, np.float64(1), "1", FLOAT_ARRAY]
NOT_INT_IDS = ["True", "False", "1.0", "2.0", "1.5", "np.float64", "str", "float-array"]

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


# Values refused at some SCALARS entry points only, as (id, value): None is
# the default message count, and 0 a valid seed.
SOME_SCALARS = [
    *((entry, None) for entry in ("seed-haar", "seed-teleport", "seed-teleport-state")),
    *((entry, None) for entry in ("payload-build", "payload-simulate", "payload-protocol")),
    *(("message-count", value) for value in (0, -2, 2.5, "4")),
]


@pytest.mark.parametrize("entry,value", SOME_SCALARS, ids=[f"{e}-{v}" for e, v in SOME_SCALARS])
def test_refusals_at_some_entry_points(entry, value):
    call, message = next(row[1:] for row in SCALARS if row[0] == entry)
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


# Integer text: ASCII decimal digits after at most one minus sign, and
# nothing else.  ``int`` takes each of these but the last two.
LITERAL_FORMS = ["1_0", "+3", " 3", "3 ", "٣", "３", "3 ", "0x3", ""]
LITERAL_IDS = ["underscore", "plus", "lead-space", "trail-space", "arabic-indic", "fullwidth", "nbsp", "hex", "empty"]


@pytest.mark.parametrize("text", LITERAL_FORMS, ids=LITERAL_IDS)
def test_integer_text_takes_ascii_digits_only(text):
    with pytest.raises(ValueError) as caught:
        _integer_text(text)
    assert str(caught.value) == f"expected an integer in ASCII digits, got {text!r}"


@pytest.mark.parametrize("text,value", [("0", 0), ("007", 7), ("-1", -1), ("12", 12)])
def test_integer_text_reads_what_it_takes(text, value):
    assert _integer_text(text) == value
    assert type(_integer_text(text)) is int


# A spec or operator name is stripped of surrounding ASCII whitespace first;
# a no-break space is kept and refused.
UNSPACED = [(t, i) for t, i in zip(LITERAL_FORMS, LITERAL_IDS) if t and t == t.strip(string.whitespace)]


@pytest.mark.parametrize("text", [t for t, _ in UNSPACED], ids=[i for _, i in UNSPACED])
def test_library_text_parsers_refuse_literal_forms(text):
    with pytest.raises(ValueError, match="must be an integer"):
        parse_spec(f"ghz:{text}")
    with pytest.raises(ValueError, match="unknown operator name"):
        named_operator(f"gamma{text}")


def test_library_text_parsers_name_the_text():
    assert parse_spec("ghz: 10 ") == parse_spec("ghz:10")
    assert parse_spec("\tghz:10\n") == parse_spec("ghz:10")
    kind = "\u3000ghz"
    with pytest.raises(ValueError) as caught:
        parse_spec(f"{kind}:3")
    assert str(caught.value).startswith(f"unknown state kind {kind!r};")
    with pytest.raises(ValueError) as caught:
        parse_spec("ghz:1_0")
    assert str(caught.value) == "parameter for 'ghz' must be an integer, got '1_0'"
    with pytest.raises(ValueError) as caught:
        named_operator("gamma1_0")
    assert str(caught.value) == "unknown operator name 'gamma1_0'"


def _one_error_line(capsys, argv, code):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize("text", ["1_0", "+10", "١٠"], ids=["underscore", "plus", "arabic-indic"])
def test_cli_state_spec_refuses_literal_forms(capsys, text):
    err = _one_error_line(capsys, ["state", "build", f"ghz:{text}"], 1)
    assert err == f"error: parameter for 'ghz' must be an integer, got {text!r}\n"


@pytest.mark.parametrize("sender", ["1,0_2", "+1,3", "1,٣", "1,\u00a03"], ids=["underscore", "plus", "arabic-indic", "nbsp"])
def test_cli_qubit_list_refuses_literal_forms(capsys, tmp_path, sender):
    path = tmp_path / "state.json"
    save_state(cluster4(), path)
    for argv in (["capacity", "--state", str(path), "--sender", sender],
                 ["obstruct", "--source", str(path), "--target", str(path), "--subset", sender]):
        err = _one_error_line(capsys, argv, 1)
        assert err == f"error: expected a comma-separated qubit list, got {sender!r}\n"


def test_cli_qubit_list_strips_ascii_spaces(capsys, tmp_path):
    path = tmp_path / "state.json"
    save_state(cluster4(), path)
    for sender in ("1, 3", "\t1 ,3\n"):
        assert main(["capacity", "--state", str(path), "--sender", sender]) == 0
        assert "cut: {1,3} | {2,4}" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["1_0", "+1", " 1", "٣"], ids=["underscore", "plus", "space", "arabic-indic"])
@pytest.mark.parametrize(
    "argv",
    [
        ["op", "gen", "--level"],
        ["teleport", "--resource", "{s}", "--payload-qubits"],
        ["teleport", "--resource", "{s}", "--payload-qubits", "1", "--seed"],
        ["verify", "--claims", "bell-catalog", "--seed"],
    ],
    ids=["level", "payload-qubits", "teleport-seed", "verify-seed"],
)
def test_cli_integer_options_refuse_literal_forms(capsys, tmp_path, argv, text):
    path = tmp_path / "state.json"
    save_state(bell_product(2), path)
    argv = [str(path) if a == "{s}" else a for a in argv] + [text]
    err = _one_error_line(capsys, argv, 2)
    assert f"invalid integer value: {text!r}" in err
