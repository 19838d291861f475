"""Teleportation and superdense-coding capacities, protocols, and verdicts.

Expected message counts are cross-checked against a brute-force maximum
orthogonal-subset search that never looks at the Pauli xor structure.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import re
import sys
import weakref
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_max_orthogonal,
    brute_orthogonality_adjacency,
    brute_pauli_expectations,
    brute_runs,
    brute_spectrum,
    brute_teleport_outcome,
    dense_codebook_deviation,
    dense_protocol_deviation,
    gf2_leading_bits,
    vdot_decode,
    gf2_rank,
    graph_figures,
    graph_verdict,
    run_counts,
    two_adic,
)
from tmes import capacity
from tmes.capacity import (
    SdcCodebook,
    TmesVerdict,
    _coset_pivots,
    _max_clique,
    _orthogonality_adjacency,
    _two_adic_valuation,
    build_sdc_codebook,
    build_teleport_protocol,
    cut_reports,
    default_partition,
    haar_random_state,
    haar_random_unitary,
    is_tmes,
    sdc_max_messages,
    sdc_orthogonal_labels,
    simulate_sdc,
    simulate_teleportation,
    teleport_capacity,
    tmes_verdict,
)
from tmes.claims import FIGURES, VERDICTS
from tmes.invariants import orthogonal_family
from tmes.operators import pauli_string
from tmes.pauli import pauli_digits, pauli_expectations, pauli_label
from tmes.statevec import (
    ATOL,
    CLUSTER_RTOL,
    MAX_QUBITS,
    LocalOperator,
    Partition,
    PureState,
    _cut_layout,
    apply_local,
    partial_trace,
    schmidt_spectrum,
    tensor,
)
from tmes.states import (
    basis_state,
    bell,
    bell_product,
    chi,
    cluster4,
    cluster5,
    ghz,
    hs,
    make_state,
    odd_resource,
    parse_spec,
    w_state,
)

SEEDS = st.integers(min_value=0, max_value=10**6)


def _cut(sender, n):
    return Partition.from_sender(sender, n)


def _encoded_vectors(state: PureState, qubits: tuple[int, ...]) -> list[np.ndarray]:
    s = len(qubits)
    return [
        apply_local(state, pauli_string(pauli_digits(d, s)), qubits).amplitudes
        for d in range(4**s)
    ]


class TestLabelArithmetic:
    def test_digit_round_trip(self):
        for length in (1, 2, 3):
            for label in range(4**length):
                digits = pauli_digits(label, length)
                assert len(digits) == length
                assert pauli_label(digits) == label

    def test_most_significant_first(self):
        assert pauli_digits(0b1110, 2) == (3, 2)
        assert pauli_label((3, 2)) == 14

    def test_bounds(self):
        with pytest.raises(ValueError):
            pauli_digits(-1, 2)
        with pytest.raises(ValueError):
            pauli_digits(16, 2)
        with pytest.raises(ValueError):
            pauli_digits(0, 0)
        with pytest.raises(ValueError):
            pauli_label((0, 4))

    def test_two_adic_valuation_matches_oracle(self):
        for x in range(1, 65):
            assert _two_adic_valuation(x) == two_adic(x)


class TestHaarSampling:
    def test_state_deterministic_and_normalized(self):
        a = haar_random_state(3, seed=7)
        b = haar_random_state(3, seed=7)
        c = haar_random_state(3, seed=8)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert not np.allclose(a.amplitudes, c.amplitudes)
        assert abs(np.linalg.norm(a.amplitudes) - 1.0) < 1e-12

    def test_unitary_sampler(self):
        rng = np.random.default_rng(3)
        u = haar_random_unitary(8, rng)
        assert np.allclose(u.conj().T @ u, np.eye(8), atol=1e-12)

    @pytest.mark.parametrize("dim", [0, -1, 4097, 10**18])
    def test_unitary_size_is_refused_before_sampling(self, dim):
        # 16 dim^2 bytes are compared with the cap as ints: 10**18 allocates
        # nothing, and a refused call draws nothing from the stream
        rng = np.random.default_rng(3)
        want = "at least 1" if dim < 1 else "above the 256 MiB cap"
        with pytest.raises(ValueError, match=want):
            haar_random_unitary(dim, rng)
        with pytest.raises(ValueError, match=want):
            capacity._haar_unitaries(dim, 2, rng)
        assert np.array_equal(haar_random_unitary(8, rng), haar_random_unitary(8, np.random.default_rng(3)))

    @pytest.mark.parametrize("dim", [1, 2, 4, 8])
    def test_stacked_unitaries_are_successive_draws(self, dim):
        # k unitaries drawn at once are k single draws on a twin stream, bit
        # for bit, and both streams go on to the same next draw
        stacked_rng, single_rng = np.random.default_rng(dim), np.random.default_rng(dim)
        stack = capacity._haar_unitaries(dim, 50, stacked_rng)
        singles = [haar_random_unitary(dim, single_rng) for _ in range(50)]
        assert stack.shape == (50, dim, dim)
        assert np.array_equal(stack, singles)
        assert np.array_equal(stacked_rng.standard_normal(3), single_rng.standard_normal(3))

    def test_unitary_at_the_cap_is_drawn(self):
        # 4096 x 4096 is exactly 256 MiB: the size check passes it on to the
        # draw, which this stand-in stops before anything is allocated
        class Drawn(Exception):
            pass

        class Stream:
            def standard_normal(self, shape):
                raise Drawn(shape)

        with pytest.raises(Drawn, match=r"\(4096, 4096\)"):
            haar_random_unitary(4096, Stream())

    def test_oversized_state_is_refused_before_sampling(self):
        # 2^40 amplitudes would be 16 TiB; the count is compared first
        with pytest.raises(ValueError, match="above the 256 MiB cap"):
            haar_random_state(40)

    def test_negative_seed_is_refused_by_name(self):
        with pytest.raises(ValueError, match="seed must be a non-negative int, got -1"):
            haar_random_state(2, seed=-1)

    @pytest.mark.parametrize("seed", [1.5, True, "1"])
    def test_seed_is_an_int(self, seed):
        # a float once reached numpy's TypeError, and True ran as seed 1
        message = re.escape(f"seed must be a non-negative int, got {seed!r}")
        with pytest.raises(ValueError, match=message):
            haar_random_state(2, seed=seed)
        state, cut = cluster4(), _cut((1, 3), 4)
        for payload in (1, haar_random_state(1)):
            with pytest.raises(ValueError, match=message):
                simulate_teleportation(state, cut, payload, seed=seed)
        assert haar_random_state(2, np.int64(3)).amplitudes.tobytes() == haar_random_state(2, 3).amplitudes.tobytes()


def _figure_rows(field: str, lead) -> list:
    """(state, sender, expected ``field``) for every row of ``FIGURES``.

    pytest numbers these ids by position, so the ``lead`` keys come first
    and keep their ids as rows are added to the table.
    """
    keys = list(lead) + [key for key in FIGURES if key not in lead]
    return [
        (make_state(parse_spec(spec)), sender, getattr(FIGURES[spec, sender], field))
        for spec, sender in keys
    ]


class TestTeleportCapacity:
    @pytest.mark.parametrize(
        "state,sender,expected",
        _figure_rows(
            "capacity",
            [
                ("bell", (1,)), ("ghz:3", (1, 2)), ("ghz:4", (1, 2)),
                ("cluster4", (1, 3)), ("cluster4", (1, 2)), ("cluster5", (1, 2, 3)),
                ("hs", (1, 2)), ("hs", (1, 3)), ("chi", (1, 2)), ("chi", (1, 4)),
                ("omega", (1, 2)), ("omega", (1, 4)), ("bell_product:2", (1, 3)),
                ("bell_product:2", (1, 2)), ("w:2", (1, 2)), ("basis:0000", (1, 2)),
            ],
        ),
    )
    def test_frozen_table(self, state, sender, expected):
        cut = _cut(sender, state.num_qubits)
        assert teleport_capacity(state, cut) == expected

    @pytest.mark.parametrize("spec,sender", list(FIGURES))
    def test_table_spectra_match_oracle(self, spec, sender):
        state = make_state(parse_spec(spec))
        want = FIGURES[spec, sender].spectrum
        got = schmidt_spectrum(state, _cut(sender, state.num_qubits)).eigenvalues
        oracle = brute_spectrum(state.amplitudes, state.num_qubits, sender)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(oracle, want, rtol=0, atol=1e-12)

    def test_receiver_size_bounds_capacity(self):
        # three Bell pairs sent from one side: spectral count allows 3 but
        # a 2-qubit receiver caps the answer
        state = bell_product(3)
        cut = Partition(frozenset({1, 3, 5, 6}), frozenset({2, 4}))
        assert teleport_capacity(state, cut) == 2


def _nonuniform_state() -> PureState:
    # diagonal Schmidt amplitudes across {1,2}|{3,4}: spectrum (.3,.3,.2,.2)
    lam = (0.3, 0.3, 0.2, 0.2)
    amps = np.zeros(16, dtype=complex)
    for k, v in enumerate(lam):
        amps[(k << 2) | k] = math.sqrt(v)
    return PureState(4, amps)


# (resource, sender, payload qubits) of the protocols that are checked
# against the oracles and pinned in teleport_pins.json.
PROTOCOL_CASES = [
    pytest.param(bell_product(4), (1, 3, 5, 7), 1, id="bp4-p1"),
    pytest.param(bell_product(4), (1, 3, 5, 7), 2, id="bp4-p2"),
    pytest.param(bell_product(4), (1, 3, 5, 7), 3, id="bp4-p3"),
    pytest.param(bell_product(4), (1, 3, 5, 7), 4, id="bp4-p4"),
    pytest.param(cluster4(), (1, 3), 1, id="cluster4-p1"),
    pytest.param(cluster4(), (1, 3), 2, id="cluster4-p2"),
    pytest.param(cluster5(), (1, 3, 5), 2, id="cluster5-p2"),
    pytest.param(ghz(4), (1,), 1, id="ghz4-p1"),
    pytest.param(ghz(5), (1, 2), 1, id="ghz5-p1"),
    pytest.param(_nonuniform_state(), (1, 2), 1, id="two-block"),
]

PINS = Path(__file__).with_name("teleport_pins.json")


def _hex(values) -> str:
    return " ".join(float.hex(x) for x in values)


def _teleport_pins() -> dict:
    """For each of ``PROTOCOL_CASES``: the sha256 of the protocol's three
    arrays, and the ``float.hex`` of its outcome weights and of the outcome
    probabilities and fidelities of seeded runs 0-2, space-separated.
    teleport_pins.json was written from it by

        PYTHONPATH=src:tests python -c "import json, test_capacity as t; \
            print(json.dumps(t._teleport_pins(), indent=1))" > tests/teleport_pins.json
    """
    pins = {}
    for case in PROTOCOL_CASES:
        state, sender, n_payload = case.values
        cut = _cut(sender, state.num_qubits)
        proto = build_teleport_protocol(state, cut, n_payload)
        pin = {
            name: hashlib.sha256(getattr(proto, name).tobytes()).hexdigest()
            for name in ("measurement_family", "measurement_conj", "corrections")
        }
        pin["probabilities"] = _hex(proto.probabilities)
        pin["runs"] = [
            {name: _hex(getattr(run, name).tolist()) for name in ("probabilities", "fidelities")}
            for run in (simulate_teleportation(state, cut, n_payload, seed) for seed in range(3))
        ]
        pins[case.id] = pin
    return pins


def test_protocols_match_pins():
    # The arrays, weights and seeded runs of every pinned protocol are
    # bit-identical to the ones the fixture was written from.
    assert _teleport_pins() == json.loads(PINS.read_text())


@pytest.mark.parametrize("state,sender,n_payload", PROTOCOL_CASES)
def test_payload_stack_rows_are_single_runs(state, sender, n_payload):
    # The stacked kernel that claims run their seeded payloads through gives,
    # row by row, the bits of one simulate_teleportation call per payload.
    cut = _cut(sender, state.num_qubits)
    payloads = [haar_random_state(n_payload, seed) for seed in range(20)]
    protocol, probs, fids = capacity._teleport_rows(state, cut, np.array([pl.amplitudes for pl in payloads]))
    runs = [simulate_teleportation(state, cut, pl) for pl in payloads]
    assert all(run.protocol is protocol for run in runs)
    assert np.array_equal(probs, [run.probabilities for run in runs])
    assert np.array_equal(fids, [run.fidelities for run in runs])


class TestTeleportProtocol:
    def test_bell_protocol_structure(self):
        proto = build_teleport_protocol(bell(), _cut((1,), 2), 1)
        assert proto.measurement_family.shape == (4, 4)
        assert proto.corrections.shape == (4, 2, 2)
        assert proto.outcome_labels == ((0, 0), (1, 0), (2, 0), (3, 0))
        assert proto.probabilities == pytest.approx((0.25,) * 4, abs=1e-12)
        # every row is a normalized 2-qubit state, every correction a
        # 1-qubit unitary, and neither stack can be written through
        assert all(PureState(2, m).num_qubits == 2 for m in proto.measurement_family)
        assert all(LocalOperator(1, c).is_unitary() for c in proto.corrections)
        with pytest.raises(ValueError):
            proto.measurement_family[0, 0] = 0.0
        with pytest.raises(ValueError):
            proto.corrections[0, 0, 0] = 0.0

    def test_rejects_payload_beyond_capacity(self):
        with pytest.raises(ValueError, match="supports teleporting 1"):
            build_teleport_protocol(bell(), _cut((1,), 2), 2)
        with pytest.raises(ValueError, match="supports teleporting 0"):
            build_teleport_protocol(hs(), _cut((1, 2), 4), 1)
        with pytest.raises(ValueError):
            build_teleport_protocol(bell(), _cut((1,), 2), 0)

    def test_no_payload_is_drawn_beyond_capacity(self, monkeypatch):
        # The capacity check runs on the payload's qubit count, so a 40-qubit
        # payload is refused before any of its 2^40 amplitudes is drawn.
        drawn = []

        def spy(num_qubits, seed=0):
            drawn.append(num_qubits)
            raise AssertionError("payload drawn before the capacity check")

        monkeypatch.setattr(capacity, "haar_random_state", spy)
        with pytest.raises(ValueError, match="supports teleporting 1 qubits, requested 40"):
            simulate_teleportation(bell(), _cut((1,), 2), 40)
        assert drawn == []

    def test_validation_catches_corrupted_fields(self):
        # Each generator is checked: the weights, the measurement rows and
        # the receiver relabeling.  Every correction is (P_q x I) @ relabel,
        # so no single correction can be broken on its own.
        proto = build_teleport_protocol(bell(), _cut((1,), 2), 1)
        with pytest.raises(ValueError, match="distribution"):
            dataclasses.replace(proto, block_probabilities=(0.5,))
        with pytest.raises(ValueError, match="distribution"):
            dataclasses.replace(proto, block_probabilities=(-0.25,))
        with pytest.raises(ValueError, match="measurement rows are not orthonormal"):
            dataclasses.replace(proto, bases=np.repeat(proto.bases[:, :1], 2, axis=1))
        # rows of norm 1 rather than 1 / sqrt(2): the family would have norm sqrt(2)
        with pytest.raises(ValueError, match="measurement rows are not orthonormal"):
            dataclasses.replace(proto, bases=proto.bases * math.sqrt(2))
        with pytest.raises(ValueError, match="relabeling 0 is not unitary"):
            dataclasses.replace(proto, relabel=np.array([[1.0, 0.0], [0.0, 2.0]]))

    @pytest.mark.parametrize(
        "field",
        ["measurement_family", "measurement_conj", "corrections", "outcome_labels", "probabilities"],
    )
    def test_derived_fields_cannot_be_given(self, field):
        proto = build_teleport_protocol(bell(), _cut((1,), 2), 1)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(proto, **{field: getattr(proto, field)})

    @pytest.mark.parametrize("field", ["measurement_family", "corrections"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_validation_refuses_non_finite_entries(self, field, bad):
        # The entry goes into the generator the derived array is built from:
        # the measurement rows for the family, the relabeling for the
        # corrections.
        proto = build_teleport_protocol(bell(), _cut((1,), 2), 1)
        source = {"measurement_family": "bases", "corrections": "relabel"}[field]
        arr = getattr(proto, source).copy()
        arr.reshape(-1)[1] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            dataclasses.replace(proto, **{source: arr})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_validation_refuses_non_finite_weights(self, bad):
        # A NaN weight would pass the distribution test, whose comparisons
        # are all false for it.
        proto = build_teleport_protocol(_nonuniform_state(), _cut((1, 2), 4), 1)
        with pytest.raises(ValueError, match="NaN or infinite"):
            dataclasses.replace(proto, block_probabilities=(0.25, bad))

    @pytest.mark.parametrize(
        "patch,message",
        [
            # measurement rows narrower than payload plus sender
            (lambda pr: {"bases": pr.bases[:, :, :1]}, "payload plus sender"),
            # one row, not blocks of rows
            (lambda pr: {"bases": pr.bases[0, 0]}, "payload plus sender"),
            # a relabeling wider than the receiver, as every correction would be
            (lambda pr: {"relabel": np.eye(4)}, "receiver side"),
            # a stack of one relabeling, not one matrix
            (lambda pr: {"relabel": pr.relabel[None]}, "receiver side"),
            # a relabeling short of rows, as every correction would be
            (lambda pr: {"relabel": pr.relabel[:1]}, "receiver side"),
            # a block short of payload rows: a short family
            (lambda pr: {"bases": pr.bases[:, :1]}, "payload plus sender"),
            # two blocks of rows and the weight of one
            (lambda pr: {"bases": np.concatenate([pr.bases] * 2)}, "equal nonzero length"),
            (lambda pr: {"n_payload": 2}, "2-qubit payload does not fit a 1-qubit receiver"),
        ],
        ids=["narrow-rows", "one-row", "wide-corrections", "one-correction",
             "short-corrections", "short-family", "extra-block", "wide-payload"],
    )
    def test_validation_refuses_wrong_shapes(self, patch, message):
        proto = build_teleport_protocol(bell(), _cut((1,), 2), 1)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(proto, **patch(proto))

    def test_validation_refuses_empty_protocol(self):
        proto = build_teleport_protocol(bell(), _cut((1,), 2), 1)
        with pytest.raises(ValueError, match="equal nonzero length"):
            dataclasses.replace(proto, bases=np.zeros((0, 2, 2)), block_probabilities=())

    @pytest.mark.parametrize("size", [1.5, 1.0, True, "1"])
    def test_payload_size_must_be_int(self, size):
        # A float once reached an IndexError or AttributeError, and True
        # passed as one qubit.
        state, cut = cluster4(), _cut((1, 3), 4)
        proto = build_teleport_protocol(state, cut, 1)
        message = re.escape(f"a payload size must be an int of at least 1 qubit, got {size!r}")
        with pytest.raises(ValueError, match=message):
            build_teleport_protocol(state, cut, size)
        with pytest.raises(ValueError, match=message):
            simulate_teleportation(state, cut, size)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(proto, n_payload=size)

    def test_conjugate_family_is_kept_read_only(self):
        proto = build_teleport_protocol(bell(), _cut((1,), 2), 1)
        fam = proto.measurement_family
        assert proto.measurement_conj.tobytes() == fam.conj().tobytes()
        for arr in (proto.measurement_conj, proto.bases, proto.relabel):
            with pytest.raises(ValueError):
                arr.reshape(-1)[0] = 0.0
        # new measurement rows bring their own family and conjugate
        flipped = dataclasses.replace(proto, bases=-proto.bases)
        assert np.array_equal(flipped.measurement_family, -fam)
        assert np.array_equal(flipped.measurement_conj, (-fam).conj())

    def test_fields_are_copied_on_construction(self):
        proto = build_teleport_protocol(bell(), _cut((1,), 2), 1)
        bases, relabel = proto.bases.copy(), proto.relabel.copy()
        again = dataclasses.replace(proto, bases=bases, relabel=relabel)
        bases[0] = 0.0
        relabel[0] = 0.0
        # the caller's arrays stay writable, and the protocol holds its own
        assert bases.flags.writeable and relabel.flags.writeable
        for name in ("bases", "relabel", "measurement_family", "measurement_conj", "corrections"):
            assert np.array_equal(getattr(again, name), getattr(proto, name))

    @pytest.mark.parametrize("state,sender,n_payload", PROTOCOL_CASES)
    def test_dense_arrays_pass_the_dense_checks(self, state, sender, n_payload):
        # The generator checks bound the dense ones: the family's Gram
        # departs from I by at most as much as 2^p B̄ Bᵀ does, up to the
        # rounding of the two products, and every correction is a signed
        # row permutation of the relabeling.
        proto = build_teleport_protocol(state, _cut(sender, state.num_qubits), n_payload)
        gram_dev, unitary_dev = dense_protocol_deviation(proto.measurement_family, proto.corrections)
        rows = proto.bases.reshape(-1, proto.bases.shape[2])
        rows_dev = np.max(np.abs(2**n_payload * (rows.conj() @ rows.T) - np.eye(len(rows))))
        relabel = proto.relabel
        relabel_dev = np.max(np.abs(relabel.conj().T @ relabel - np.eye(len(relabel))))
        assert gram_dev <= ATOL and unitary_dev <= ATOL
        assert gram_dev <= rows_dev + 1e-14
        assert unitary_dev <= relabel_dev + 1e-14

    def test_perfect_on_maximally_entangled_cut(self):
        result = simulate_teleportation(cluster4(), _cut((1, 3), 4), 2, seed=1)
        assert len(result.probabilities) == 16
        assert result.total_probability == pytest.approx(1.0, abs=1e-9)
        assert result.min_fidelity >= 1.0 - 1e-9
        for prob in result.probabilities:
            assert prob == pytest.approx(1.0 / 16.0, abs=1e-9)

    def test_two_block_nonuniform_spectrum(self):
        # capacity 1 from multiplicities (2, 2); two Schmidt blocks with
        # unequal masses 0.6 and 0.4 exercise the multi-block machinery
        state = _nonuniform_state()
        cut = _cut((1, 2), 4)
        assert teleport_capacity(state, cut) == 1
        result = simulate_teleportation(state, cut, 1, seed=3)
        assert len(result.probabilities) == 8
        got = sorted(result.probabilities.tolist())
        assert got == pytest.approx([0.1] * 4 + [0.15] * 4, abs=1e-9)
        assert result.min_fidelity >= 1.0 - 1e-9
        assert result.total_probability == pytest.approx(1.0, abs=1e-9)
        labels = [j for _, j in result.protocol.outcome_labels]
        assert sorted(labels) == [0, 0, 0, 0, 1, 1, 1, 1]

    @pytest.mark.parametrize(
        "state,sender,n_payload",
        [
            (bell_product(4), (1, 3, 5, 7), 1),
            (bell_product(4), (1, 3, 5, 7), 2),
            (bell_product(4), (1, 3, 5, 7), 3),
            (_nonuniform_state(), (1, 2), 1),
        ],
        ids=["bp4-p1", "bp4-p2", "bp4-p3", "two-block"],
    )
    def test_paulis_match_dense_strings(self, state, sender, n_payload):
        # Outcome (q, j) measures P_q on the payload qubits of outcome (0, j)
        # and corrects with (P_q x I_anc) times the q = 0 relabeling, with
        # the exact phases of the Kronecker-product strings.
        cut = _cut(sender, state.num_qubits)
        proto = build_teleport_protocol(state, cut, n_payload)
        outcome = {lab: i for i, lab in enumerate(proto.outcome_labels)}
        anc = np.eye(2 ** (len(cut.receiver) - n_payload))
        meas_qubits = n_payload + len(cut.sender)
        for j in range(len(proto.bases)):
            assert np.array_equal(proto.measurement_family[outcome[(0, j)]], proto.bases[j].reshape(-1))
            assert np.array_equal(proto.corrections[outcome[(0, j)]], proto.relabel)
        for (q, j), i in outcome.items():
            p_q = pauli_string(pauli_digits(q, n_payload))
            base = PureState(meas_qubits, proto.measurement_family[outcome[(0, j)]])
            moved = apply_local(base, p_q, range(1, n_payload + 1)).amplitudes
            assert np.array_equal(proto.measurement_family[i], moved)
            relabel = proto.corrections[outcome[(0, j)]]
            dense = np.kron(p_q.matrix, anc) @ relabel
            assert np.array_equal(proto.corrections[i], dense)

    @pytest.mark.parametrize("state,sender,n_payload", PROTOCOL_CASES)
    def test_outcomes_match_index_oracle(self, state, sender, n_payload):
        cut = _cut(sender, state.num_qubits)
        result = simulate_teleportation(state, cut, n_payload, seed=11)
        proto = result.protocol
        k = len(proto.outcome_labels)
        assert result.probabilities.shape == result.fidelities.shape == (k,)
        for got_prob, got_fid, meas, corr in zip(
            result.probabilities, result.fidelities,
            proto.measurement_family, proto.corrections,
        ):
            prob, fid = brute_teleport_outcome(
                state.amplitudes, state.num_qubits, sender,
                result.payload.amplitudes, meas, corr,
            )
            assert got_prob == pytest.approx(prob, abs=1e-12)
            assert got_fid == pytest.approx(fid, abs=1e-12)

    def test_protocol_probabilities_match_simulation(self):
        state = _nonuniform_state()
        cut = _cut((1, 2), 4)
        proto = build_teleport_protocol(state, cut, 1)
        result = simulate_teleportation(state, cut, 1, seed=9)
        assert result.probabilities.tolist() == pytest.approx(proto.probabilities, abs=1e-9)

    def test_result_arrays_are_read_only(self):
        result = simulate_teleportation(cluster4(), _cut((1, 3), 4), 2, seed=1)
        for arr in (result.probabilities, result.fidelities):
            assert arr.dtype == float
            with pytest.raises(ValueError):
                arr[0] = 0.0
        probs = result.probabilities.copy()
        again = dataclasses.replace(result, probabilities=probs)
        probs[0] = 0.0
        assert np.array_equal(again.probabilities, result.probabilities)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("probabilities", [[0.25] * 4]),
            ("probabilities", [0.5, 0.5]),
            ("fidelities", [[1.0]]),
            ("fidelities", 1.0),
            ("probabilities", [0.5, math.nan, 0.25, 0.25]),
            ("fidelities", [1.0, 1.0, math.inf, 1.0]),
        ],
        ids=["2-d", "short", "2-d-fidelities", "scalar", "nan", "inf"],
    )
    def test_result_refuses_malformed_arrays(self, field, value):
        # Bell teleportation has four outcomes; each array needs four
        # finite entries, one per outcome.
        result = simulate_teleportation(bell(), _cut((1,), 2), 1, seed=1)
        with pytest.raises(ValueError, match=f"^{field} must be 4 finite values, one per outcome"):
            dataclasses.replace(result, **{field: value})

    def test_integer_payload_draws_seeded_state(self):
        cut = _cut((1, 3), 4)
        by_count = simulate_teleportation(cluster4(), cut, 1, seed=5)
        explicit = simulate_teleportation(
            cluster4(), cut, haar_random_state(1, seed=5), seed=99
        )
        assert np.array_equal(
            by_count.payload.amplitudes, explicit.payload.amplitudes
        )
        assert by_count.probabilities == pytest.approx(explicit.probabilities, abs=1e-12)
        assert by_count.fidelities == pytest.approx(explicit.fidelities, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS)
    def test_ghz3_single_qubit_payloads(self, seed):
        result = simulate_teleportation(ghz(3), _cut((1, 2), 3), 1, seed=seed)
        assert len(result.probabilities) == 4
        assert result.min_fidelity >= 1.0 - 1e-9
        assert result.total_probability == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(seed=SEEDS)
    def test_locally_dressed_bell_still_perfect(self, seed):
        rng = np.random.default_rng(seed)
        state = bell()
        for q in (1, 2):
            u = LocalOperator(1, haar_random_unitary(2, rng))
            state = apply_local(state, u, (q,))
        cut = _cut((1,), 2)
        want = FIGURES["bell", (1,)]
        assert teleport_capacity(state, cut) == want.capacity
        assert sdc_max_messages(state, (1,)) == want.messages
        result = simulate_teleportation(state, cut, 1, seed=seed)
        assert result.min_fidelity >= 1.0 - 1e-9
        assert result.total_probability == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "run,most",
    [
        # Default arguments build each input before the spy goes in.
        (lambda state=bell_product(3): build_sdc_codebook(state, (1, 3, 5)), 0),
        (lambda state=cluster5(): orthogonal_family(state, (1, 3, 5)), 0),
        # the payload is contracted with the measurement family first, so
        # no joint payload-resource state is built
        (
            lambda state=bell_product(4), payload=haar_random_state(2, seed=3): (
                simulate_teleportation(state, _cut((1, 3, 5, 7), 8), payload)
            ),
            0,
        ),
    ],
    ids=["sdc-codebook", "orthogonal-family", "teleport"],
)
def test_results_build_no_state_per_member(monkeypatch, run, most):
    # Multi-member results are one array each: 64 codebook rows or family
    # members and 16 teleport outcomes, none of them wrapped as a PureState.
    built = []
    check = PureState.__post_init__

    def spy(self):
        built.append(self.num_qubits)
        check(self)

    monkeypatch.setattr(PureState, "__post_init__", spy)
    run()
    assert len(built) <= most


def _spy_on_builds(monkeypatch) -> list[tuple]:
    """Record every real protocol build that simulate_teleportation makes."""
    built = []
    build = capacity.build_teleport_protocol

    def spy(state, cut, n_payload):
        built.append((state, cut, n_payload))
        return build(state, cut, n_payload)

    monkeypatch.setattr(capacity, "build_teleport_protocol", spy)
    return built


def _same_run(a, b) -> bool:
    """Bit-identical outcomes and protocol arrays of two teleport runs."""
    return (
        np.array_equal(a.probabilities, b.probabilities)
        and np.array_equal(a.fidelities, b.fidelities)
        and np.array_equal(a.protocol.measurement_family, b.protocol.measurement_family)
        and np.array_equal(a.protocol.corrections, b.protocol.corrections)
        and a.protocol.outcome_labels == b.protocol.outcome_labels
        and a.protocol.probabilities == b.protocol.probabilities
    )


class TestProtocolMemo:
    """simulate_teleportation keeps the last protocol it built, keyed on the
    resource object, the cut and the payload size."""

    def test_payload_stream_builds_once(self, monkeypatch):
        built = _spy_on_builds(monkeypatch)
        state = cluster4()
        results = [
            # an equal cut, not the same object, still finds the protocol
            simulate_teleportation(state, _cut((1, 3), 4), haar_random_state(2, seed))
            for seed in range(20)
        ]
        assert len(built) == 1
        assert all(r.protocol is results[0].protocol for r in results)
        assert all(r.min_fidelity >= 1.0 - 1e-9 for r in results)

    def test_new_cut_size_or_state_rebuilds(self, monkeypatch):
        built = _spy_on_builds(monkeypatch)
        state = cluster5()
        twin = PureState(5, state.amplitudes)
        requests = [
            (state, (1, 3, 5), 2),
            (state, (1, 3, 5), 2),
            (state, (1, 2, 3), 2),  # new cut
            (state, (1, 2, 3), 1),  # new payload size
            (twin, (1, 2, 3), 1),  # equal amplitudes, another state
            (twin, (1, 2, 3), 1),
            (state, (1, 2, 3), 1),  # the one entry now belongs to the twin
        ]
        for resource, sender, n_payload in requests:
            simulate_teleportation(resource, _cut(sender, 5), n_payload, seed=4)
        assert [(r is state, tuple(sorted(c.sender)), p) for r, c, p in built] == [
            (True, (1, 3, 5), 2),
            (True, (1, 2, 3), 2),
            (True, (1, 2, 3), 1),
            (False, (1, 2, 3), 1),
            (True, (1, 2, 3), 1),
        ]
        assert len(capacity._PROTOCOLS) == 1

    @pytest.mark.parametrize(
        "state,sender,n_payload",
        [
            (bell(), (1,), 1),
            (cluster4(), (1, 3), 2),
            (cluster5(), (1, 3, 5), 1),
            (bell_product(4), (1, 3, 5, 7), 3),
            (_nonuniform_state(), (1, 2), 1),
        ],
        ids=["bell", "cluster4-p2", "cluster5-p1", "bp4-p3", "two-block"],
    )
    def test_streamed_runs_equal_fresh_builds(self, monkeypatch, state, sender, n_payload):
        built = _spy_on_builds(monkeypatch)
        cut = _cut(sender, state.num_qubits)
        payloads = [haar_random_state(n_payload, seed) for seed in range(20)]
        streamed = [simulate_teleportation(state, cut, pl) for pl in payloads]
        assert len(built) == 1
        fresh = build_teleport_protocol(state, cut, n_payload)
        assert np.array_equal(fresh.measurement_family, streamed[0].protocol.measurement_family)
        assert np.array_equal(fresh.corrections, streamed[0].protocol.corrections)
        for pl, run in zip(payloads, streamed):
            # a distinct state with equal amplitudes builds afresh
            again = simulate_teleportation(PureState(state.num_qubits, state.amplitudes), cut, pl)
            assert again.protocol is not run.protocol
            assert _same_run(run, again)
        assert len(built) == 1 + len(payloads)

    def test_protocol_is_released_with_its_resource(self):
        state = cluster4()
        result = simulate_teleportation(state, _cut((1, 3), 4), 2, seed=2)
        resource = weakref.ref(state)
        protocol = weakref.ref(result.protocol)
        assert len(capacity._PROTOCOLS) == 1
        del state, result
        gc.collect()
        assert resource() is None
        assert protocol() is None
        assert len(capacity._PROTOCOLS) == 0

    def test_refused_request_raises_every_time_and_stores_nothing(self, monkeypatch):
        monkeypatch.setattr(capacity, "_PROTOCOLS", weakref.WeakKeyDictionary())
        built = _spy_on_builds(monkeypatch)
        state = bell()
        for _ in range(3):
            with pytest.raises(ValueError, match="supports teleporting 1 qubits, requested 2"):
                simulate_teleportation(state, _cut((1,), 2), 2)
        assert len(built) == 3
        assert len(capacity._PROTOCOLS) == 0
        # nor does a refusal evict the protocol a good request left
        simulate_teleportation(state, _cut((1,), 2), 1)
        with pytest.raises(ValueError, match="requested 2"):
            simulate_teleportation(state, _cut((1,), 2), 2)
        simulate_teleportation(state, _cut((1,), 2), 1)
        assert [p for _, _, p in built] == [2, 2, 2, 1, 2]


class TestSdcCounts:
    @pytest.mark.parametrize(
        "state,sender,expected",
        _figure_rows(
            "messages",
            [
                ("bell", (1,)), ("ghz:3", (1, 2)), ("ghz:4", (1, 2)),
                ("cluster4", (1, 3)), ("omega", (1, 3)), ("chi", (1, 2)),
                ("hs", (1, 2)), ("w:2", (1, 2)), ("basis:0000", (1, 2)),
            ],
        ),
    )
    def test_frozen_counts_match_brute_force(self, state, sender, expected):
        assert sdc_max_messages(state, sender) == expected
        if len(sender) <= 2:
            vectors = _encoded_vectors(state, tuple(sender))
            assert brute_max_orthogonal(vectors) == expected

    # A Haar unitary on one qubit turns the table's structured graphs into
    # random non-trivial ones; on a receiver qubit it keeps a flat sender
    # marginal flat, so both the clique search and the coset rule meet the
    # oracle.
    @settings(max_examples=60, deadline=None)
    @given(
        row=st.sampled_from([key for key in FIGURES if len(key[1]) <= 2]),
        seed=SEEDS,
        data=st.data(),
    )
    def test_dressed_table_states_match_brute_force(self, row, seed, data):
        spec, sender = row
        state = make_state(parse_spec(spec))
        qubit = data.draw(st.integers(1, state.num_qubits), label="qubit")
        u = LocalOperator(1, haar_random_unitary(2, np.random.default_rng(seed)))
        dressed = apply_local(state, u, (qubit,))
        vectors = _encoded_vectors(dressed, sender)
        assert sdc_max_messages(dressed, sender) == brute_max_orthogonal(vectors)

    def test_fast_path_agrees_with_explicit_clique(self):
        # a maximally mixed sender marginal has Z = {0}, so the coset rule
        # gives all labels; the branch-and-bound search must agree
        labels = sdc_orthogonal_labels(cluster4(), (1, 3))
        assert labels == tuple(range(16))
        adj = _orthogonality_adjacency(_expectations(cluster4(), (1, 3)))
        assert _max_clique(adj) == labels

    @pytest.mark.parametrize("tol", [-1e-9, 1.0, 1.5, float("nan"), float("inf")])
    def test_tol_outside_unit_interval_is_refused(self, tol):
        with pytest.raises(ValueError, match=re.escape(f"decided at ATOL = {ATOL}, got tol {tol}")):
            sdc_max_messages(haar_random_state(10, 0), (1, 2, 3, 4, 5), tol)

    def test_count_is_decided_at_atol_only(self):
        # The parameter only names the threshold: a finer or coarser one
        # inside [0, 1) is refused as well.
        state = basis_state("00")
        assert sdc_max_messages(state, (1,), ATOL) == sdc_max_messages(state, (1,)) == 2
        for tol in (0.0, 0.6):
            with pytest.raises(ValueError, match="message counts are decided at ATOL"):
                sdc_max_messages(state, (1,), tol)

    def test_coarse_tol_keeps_one_label_per_coset(self):
        # The encodings I|00> and Z|00> coincide, as do X|00> and Y|00> up
        # to phase: Z = {I, Z} has two cosets, one label kept from each.
        state = basis_state("00")
        assert sdc_orthogonal_labels(state, (1,)) == (2, 3)
        assert brute_max_orthogonal(_encoded_vectors(state, (1,))) == 2
        # Z is the 8 Z-type strings, leaving 64 / 8 cosets.
        assert sdc_max_messages(basis_state("000000"), (1, 2, 3)) == 8

    def test_cluster5_saturates_dimension_bound(self):
        # 64 encodings in a 32-dimensional space: 32 is the ceiling
        labels = sdc_orthogonal_labels(cluster5(), (1, 2, 3))
        assert len(labels) == 32 == 2**5
        book = build_sdc_codebook(cluster5(), (1, 2, 3))
        gram = book.stack.conj() @ book.stack.T
        assert np.allclose(gram, np.eye(32), atol=1e-9)

    def test_sender_validation(self):
        with pytest.raises(ValueError):
            sdc_max_messages(bell(), ())
        with pytest.raises(ValueError):
            sdc_max_messages(bell(), (1, 2))
        with pytest.raises(ValueError):
            sdc_max_messages(bell(), (3,))
        # the largest sender is_tmes asks for is MAX_QUBITS // 2 qubits
        with pytest.raises(ValueError, match=f"capped at {MAX_QUBITS // 2} qubits"):
            sdc_max_messages(bell_product(4), range(1, MAX_QUBITS // 2 + 2))


def _expectations(state: PureState, sender) -> np.ndarray:
    return pauli_expectations(partial_trace(state, sender).matrix)


GRAPH_CASES = [
    (cluster4(), (1, 2)),
    (cluster5(), (1, 3, 5)),
    (chi(), (1, 4)),
    (ghz(6), (1, 2, 3)),
    (w_state(2), (1, 2)),
    (odd_resource(2), (1, 2, 3)),
    (haar_random_state(5, seed=4), (2, 3, 5)),
]


@st.composite
def _label_sets(draw):
    """Label sets Z on 1-3 qubits holding label 0: some spans of random
    generators (groups), some random sets of any size."""
    nlabels = 4 ** draw(st.integers(1, 3), label="length")
    labels = st.integers(1, nlabels - 1)
    sets = []
    for _ in range(draw(st.integers(1, 8), label="rows")):
        members = {0} | draw(st.sets(labels, max_size=nlabels - 1))
        if draw(st.booleans()):
            for gen in draw(st.lists(labels, max_size=4)):
                members |= {m ^ gen for m in members}
        sets.append(members)
    return nlabels, sets


class TestOrthogonalityGraph:
    # Rows of one stack take different paths: Z full, |Z| not a power of
    # two, and power-of-two sizes that are or are not groups, several rows
    # per size.
    @settings(max_examples=80, deadline=None)
    @given(case=_label_sets())
    def test_coset_pivots_match_gf2_oracle(self, case):
        nlabels, sets = case
        expect = np.full((len(sets), nlabels), ATOL / 2)
        for row, members in zip(expect, sets):
            row[sorted(members)] = 0.5
        pivots, closed = _coset_pivots(expect)
        for members, pivot, is_group in zip(sets, pivots, closed):
            assert is_group == (len(members) == 2 ** gf2_rank(members))
            if is_group:
                assert pivot == gf2_leading_bits(members)

    @pytest.mark.parametrize("state,sender", GRAPH_CASES)
    def test_adjacency_matches_dense_loop(self, state, sender):
        expect = brute_pauli_expectations(state.amplitudes, state.num_qubits, sender)
        got = _orthogonality_adjacency(expect)
        assert got == brute_orthogonality_adjacency(expect, ATOL)

    # The labels equal the full search on both paths (w_state(2) (1,2) is
    # the one non-group Z here), and the answer obeys the dimension bound
    # 2^s r that is_tmes's early exit relies on.
    @pytest.mark.parametrize("state,sender", GRAPH_CASES)
    def test_dimension_bound_keeps_the_full_search_answer(self, state, sender):
        rho = partial_trace(state, sender).matrix
        rank = int(np.count_nonzero(np.linalg.eigvalsh(rho) > 1e-12))
        adj = _orthogonality_adjacency(_expectations(state, sender))
        full = _max_clique(adj)
        assert sdc_orthogonal_labels(state, sender) == full
        assert len(full) <= 2 ** len(sender) * rank

    def test_search_runs_only_when_z_is_not_a_group(self, monkeypatch):
        calls = []

        def counting(adj):
            calls.append(len(adj))
            return _max_clique(adj)

        monkeypatch.setattr(capacity, "_max_clique", counting)
        sdc_orthogonal_labels(ghz(6), (1, 2, 3))
        sdc_orthogonal_labels(haar_random_state(5, seed=4), (2, 3, 5))
        assert calls == []
        # Z = {II, IZ, XX, YY, ZI} has 5 labels, so it is no group
        sdc_orthogonal_labels(w_state(2), (1, 2))
        assert calls == [16]

    def test_pure_haar_sender_marginal_carries_one_message(self):
        # a pure sender marginal (rank 1) caps orthogonality at 8 encodings;
        # a Haar one has every expectation above ATOL, so Z is the group of
        # all 64 labels and one message fits
        state = tensor(haar_random_state(3, seed=254), basis_state("0"))
        assert sdc_max_messages(state, (1, 2, 3)) == 1

    def test_adjacency_has_no_self_loops(self):
        expect = np.zeros(16)
        got = _orthogonality_adjacency(expect)
        assert got == brute_orthogonality_adjacency(expect, ATOL)
        assert all(not (row >> p) & 1 for p, row in enumerate(got))

    # These tuples reach `tmes sdc` output, codebooks and claim data.  The
    # search keeps the first maximum clique it meets, branching from the
    # highest labels down, so an edgeless graph yields the top label.
    PINNED_LABELS = [
        ("cluster4", (1, 3), tuple(range(16))),
        (
            "cluster5",
            (1, 3, 5),
            tuple(range(8, 16)) + tuple(range(24, 32)) + tuple(range(40, 48))
            + tuple(range(56, 64)),
        ),
        ("chi", (1, 4), tuple(range(8, 16))),
        ("ghz:6", (1, 2, 3), tuple(range(40, 48)) + tuple(range(56, 64))),
    ]

    @pytest.mark.parametrize("spec,sender,labels", PINNED_LABELS)
    def test_label_tuples_pinned(self, spec, sender, labels):
        state = make_state(parse_spec(spec))
        assert sdc_orthogonal_labels(state, sender) == labels

    def test_edgeless_graph_yields_highest_label(self):
        state = haar_random_state(4, seed=0)
        assert sdc_orthogonal_labels(state, (1, 2)) == (15,)

    def test_large_clique_needs_no_recursion(self):
        # Z = the five w_state(2) labels times {0}: no group, so the search
        # runs and finds a 128-clique.  The search must not take a Python
        # frame per clique member.
        state = tensor(w_state(2), bell_product(2))
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            labels = sdc_orthogonal_labels(state, (1, 2, 4, 6))
        finally:
            sys.setrecursionlimit(limit)
        # 8 labels on the w_state(2) pair times all 16 on the two Bell halves
        assert len(labels) == 128
        expect = brute_pauli_expectations(state.amplitudes, 7, (1, 2, 4, 6))
        pairs = np.bitwise_xor.outer(labels, labels)
        assert np.all((expect[pairs] <= ATOL) | (pairs == 0))


_DRESSINGS = (
    np.eye(2),
    np.array([[1, 1], [1, -1]]) / math.sqrt(2),
    np.diag([1, 1j]),
    np.array([[1, 1j], [1, -1j]]) / math.sqrt(2),
)


@st.composite
def _graph_cases(draw):
    """A graph on 2-8 qubits, a sender of 1-5 qubits, and per qubit one of
    I, H, S, H S to dress the graph state with."""
    n = draw(st.integers(2, 8), label="n")
    pairs = n * (n - 1) // 2
    edges = draw(st.lists(st.booleans(), min_size=pairs, max_size=pairs), label="edges")
    adj = np.zeros((n, n), dtype=int)
    adj[np.triu_indices(n, 1)] = edges
    adj |= adj.T
    order = draw(st.permutations(range(1, n + 1)), label="order")
    size = draw(st.integers(1, min(5, n - 1)), label="size")
    gates = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n), label="gates")
    return adj, tuple(sorted(order[:size])), gates


def _graph_state(adj: np.ndarray, gates) -> PureState:
    """CZ on every edge of |+>^n, amplitudes (-1)^(x^T triu(adj) x) / 2^(n/2),
    then the listed single-qubit gates."""
    n = len(adj)
    bits = (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))) & 1
    parity = np.einsum("ki,ij,kj->k", bits, np.triu(adj), bits) % 2
    state = PureState(n, (1 - 2 * parity) / math.sqrt(2**n))
    for q, g in enumerate(gates, start=1):
        state = apply_local(state, LocalOperator(1, _DRESSINGS[g]), (q,))
    return state


class TestGraphStates:
    # Local Cliffords permute the Pauli labels, so the dressed state keeps
    # the graph's figures; the oracle never sees a statevector.  The full
    # search recurses once per clique member, and n <= 8 keeps cliques at
    # 2^n labels or fewer, inside the recursion limit.
    @settings(max_examples=60, deadline=None)
    @given(case=_graph_cases())
    def test_figures_match_gf2_oracle(self, case):
        adj, sender, gates = case
        state = _graph_state(adj, gates)
        cap, msgs = graph_figures(adj, sender)
        assert teleport_capacity(state, _cut(sender, len(adj))) == cap
        assert sdc_max_messages(state, sender) == msgs
        graph = _orthogonality_adjacency(_expectations(state, sender))
        assert sdc_orthogonal_labels(state, sender) == _max_clique(graph)


@st.composite
def _graph_verdict_cases(draw, max_qubits: int = 9):
    """A graph on 2 to ``max_qubits`` qubits and per qubit one of I, H, S, H S."""
    n = draw(st.integers(2, max_qubits), label="n")
    pairs = n * (n - 1) // 2
    edges = draw(st.lists(st.booleans(), min_size=pairs, max_size=pairs), label="edges")
    adj = np.zeros((n, n), dtype=int)
    adj[np.triu_indices(n, 1)] = edges
    adj |= adj.T
    gates = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n), label="gates")
    return adj, gates


class TestGraphVerdicts:
    # The stacked scan against the GF(2) fold over every balanced sender; at
    # n = 8-9 a chunk holds up to 64 cuts.
    @settings(max_examples=40, deadline=None)
    @given(case=_graph_verdict_cases())
    def test_verdict_matches_gf2_oracle(self, case):
        adj, gates = case
        verdict = is_tmes(_graph_state(adj, gates))
        maximal, cap, msgs, witness = graph_verdict(adj)
        assert verdict.is_tmes is maximal
        assert (verdict.teleport_qubits, verdict.sdc_messages) == (cap, msgs)
        if witness is None:
            assert verdict.witnessing_partition is None
        else:
            assert verdict.witnessing_partition.sender == set(witness)

    @settings(max_examples=30, deadline=None)
    @given(case=_graph_verdict_cases(max_qubits=8))
    def test_both_tasks_run_at_the_oracle_witness(self, case):
        adj, gates = case
        maximal, _, _, witness = graph_verdict(adj)
        assume(maximal)
        _run_both_tasks(_graph_state(adj, gates), witness)

    def test_oracle_pins_known_verdicts(self):
        # the path P4 is cluster4 up to local Cliffords: witness (1, 3)
        path = np.zeros((4, 4), dtype=int)
        for a in range(3):
            path[a, a + 1] = path[a + 1, a] = 1
        assert graph_verdict(path) == (True, 2, 16, (1, 3))
        # the star on four qubits is ghz:4
        star = np.zeros((4, 4), dtype=int)
        star[0, 1:] = star[1:, 0] = 1
        assert graph_verdict(star) == (False, 1, 8, None)


# Every catalog codebook, and the full codebooks of bell_product:3-5 on the
# odd qubits (64, 256 and 1024 messages).
DENSE_CODEBOOK_CASES = list(FIGURES) + [
    (f"bell_product:{k}", tuple(range(1, 2 * k, 2))) for k in (3, 4, 5)
]


class TestSdcCodebook:
    def test_round_trip_decodes_every_message(self):
        book = build_sdc_codebook(cluster4(), (1, 3))
        assert len(book) == FIGURES["cluster4", (1, 3)].messages
        for msg in range(len(book)):
            assert simulate_sdc(cluster4(), (1, 3), msg, book) == msg

    def test_labels_are_the_orthogonal_labels(self):
        # w:2 runs the clique search; the codebook takes its labels at the
        # ATOL that SdcCodebook checks the encodings against.
        book = build_sdc_codebook(w_state(2), (1, 2))
        assert book.labels == sdc_orthogonal_labels(w_state(2), (1, 2))

    def test_truncated_codebook(self):
        book = build_sdc_codebook(ghz(3), (1, 2), num_messages=5)
        assert len(book) == 5
        assert simulate_sdc(ghz(3), (1, 2), 3, book) == 3

    def test_rejects_overflow_and_empty(self):
        with pytest.raises(ValueError, match="only 8"):
            build_sdc_codebook(ghz(3), (1, 2), num_messages=9)
        with pytest.raises(ValueError):
            build_sdc_codebook(ghz(3), (1, 2), num_messages=0)

    def test_simulate_validates_inputs(self):
        book = build_sdc_codebook(cluster4(), (1, 3))
        with pytest.raises(ValueError):
            simulate_sdc(cluster4(), (1, 2), 0, book)
        with pytest.raises(ValueError):
            simulate_sdc(cluster4(), (1, 3), 16, book)

    def test_simulate_decodes_only_the_codebook_state(self):
        # ghz:4 once decoded messages 0-3 of the cluster4 codebook as 0
        book = build_sdc_codebook(cluster4(), (1, 3))
        signed = cluster4().amplitudes.copy()
        signed[signed == 0] = -0.0
        others = [ghz(4), cluster5(), PureState(4, signed)]
        for other in others:
            with pytest.raises(ValueError, match="codebook was built for a different state"):
                simulate_sdc(other, (1, 3), 0, book)
        # an equal state built anew is the codebook's state
        assert [simulate_sdc(cluster4(), (1, 3), m, book) for m in range(4)] == [0, 1, 2, 3]

    @pytest.mark.parametrize("index", [-1, 16, 1.0, True, "1", None, np.int64(16)])
    def test_message_index_is_an_int_in_range(self, index):
        book = build_sdc_codebook(cluster4(), (1, 3))
        message = re.escape(f"message index must be an int in 0..15, got {index!r}")
        with pytest.raises(ValueError, match=message):
            simulate_sdc(cluster4(), (1, 3), index, book)

    @pytest.mark.parametrize("count", [1.0, True])
    def test_message_count_is_an_int(self, count):
        message = re.escape(f"a codebook needs an int of at least 1 message, got {count!r}")
        with pytest.raises(ValueError, match=message):
            build_sdc_codebook(ghz(3), (1, 2), count)

    def test_direct_construction_validates(self):
        # basis:00 has <Z> = 1 on qubit 1: I and Z encode the same state
        with pytest.raises(ValueError, match="not pairwise orthogonal"):
            SdcCodebook(basis_state("00"), frozenset({1}), (0, 3))
        with pytest.raises(ValueError, match="distinct"):
            SdcCodebook(bell(), frozenset({1}), (0, 0))
        with pytest.raises(ValueError, match="non-empty"):
            SdcCodebook(bell(), frozenset({1}), ())
        with pytest.raises(ValueError, match="proper subset"):
            SdcCodebook(bell(), frozenset({1, 2}), (0,))
        with pytest.raises(ValueError, match="a codebook encodes a PureState, got tuple"):
            SdcCodebook((1, 0, 0, 1), frozenset({1}), (0,))
        book = SdcCodebook(basis_state("00"), [1], (0, 1))
        assert book.sender_set == frozenset({1}) and book.labels == (0, 1)

    @pytest.mark.parametrize("labels", [(0, 5), (0, 4), (-1, 0)])
    def test_construction_refuses_labels_beyond_the_sender(self, labels):
        # One sender qubit has the labels 0..3 (I, X, Y, Z) only
        with pytest.raises(ValueError, match=r"must lie in 0\.\.3"):
            SdcCodebook(bell(), frozenset({1}), labels)

    @pytest.mark.parametrize(
        "row,match",
        [
            ([np.nan, 0, 0, 1], r"not normalized: max \|amplitude\| = nan"),
            ([1, 0, 0, np.inf], r"not normalized: max \|amplitude\| = inf"),
            ([1, 0, 0, 1], r"not normalized: total probability = 2\.0"),
            ([1e-3, 0, 0, 0], r"not normalized: total probability = 1e-06"),
        ],
        ids=["nan", "inf", "long", "short"],
    )
    def test_construction_refuses_bad_rows(self, row, match):
        # Rows are Pauli images of a checked PureState, which refuses a row
        # that is not finite and of unit norm; raw amplitudes are no state.
        with pytest.raises(ValueError, match=match):
            PureState(2, row)
        with pytest.raises(ValueError, match="a codebook encodes a PureState, got ndarray"):
            SdcCodebook(np.array([[0, 1, 0, 0], row], dtype=complex), frozenset({1}), (0, 1))

    @pytest.mark.parametrize(
        "stack",
        [np.eye(3)[:2], np.ones((2, 1)), np.array([1.0, 0.0]), np.eye(4)[:3]],
        ids=["length-3", "length-1", "flat", "three-rows"],
    )
    def test_construction_refuses_bad_shapes(self, stack):
        # The stack is derived, never given, so no shape can be wrong.
        with pytest.raises(TypeError, match="takes 4 positional arguments but 5 were given"):
            SdcCodebook(bell(), frozenset({1}), (0, 1), stack)
        with pytest.raises(TypeError, match="unexpected keyword argument 'stack'"):
            SdcCodebook(bell(), frozenset({1}), (0, 1), stack=stack)
        with pytest.raises(ValueError, match="a codebook encodes a PureState, got ndarray"):
            SdcCodebook(stack, frozenset({1}), (0, 1))

    def test_size_rule_refuses_before_allocating(self, monkeypatch):
        # 4096 rows of 2^14 amplitudes would take 1 GiB.
        def spy(*args):
            raise AssertionError("apply_paulis called")

        monkeypatch.setattr(capacity, "apply_paulis", spy)
        state, sender = bell_product(7), (1, 3, 5, 7, 9, 11)
        match = "a codebook of 4096 14-qubit states is above the 256 MiB cap"
        with pytest.raises(ValueError, match=match):
            build_sdc_codebook(state, sender)
        with pytest.raises(ValueError, match=match):
            SdcCodebook(state, frozenset(sender), range(4096))

    def test_size_rule_boundary(self, monkeypatch):
        # Four rows of four amplitudes are 256 bytes.
        monkeypatch.setattr(capacity, "MAX_DENSE_BYTES", 256)
        assert len(SdcCodebook(bell(), frozenset({1}), range(4))) == 4
        monkeypatch.setattr(capacity, "MAX_DENSE_BYTES", 255)
        with pytest.raises(ValueError, match="a codebook of 4 2-qubit states is above the 0 MiB cap"):
            SdcCodebook(bell(), frozenset({1}), range(4))

    @pytest.mark.parametrize("spec,sender", DENSE_CODEBOOK_CASES, ids=[f"{s}|{q}" for s, q in DENSE_CODEBOOK_CASES])
    def test_dense_gram_matches_closed_form(self, spec, sender):
        state = make_state(parse_spec(spec))
        book = build_sdc_codebook(state, sender)
        gram_dev, norm_dev = dense_codebook_deviation(book.stack)
        assert gram_dev <= ATOL and norm_dev <= ATOL
        index = np.array(book.labels)
        overlap = capacity._sender_expectations(state, sender)[index ^ index[:, None]]
        np.fill_diagonal(overlap, 0.0)
        assert abs(gram_dev - np.max(overlap)) <= 1e-12

    @pytest.mark.parametrize(
        "spec,sender", list(FIGURES), ids=[f"{s}|{q}" for s, q in FIGURES]
    )
    def test_decode_matches_vdot_oracle(self, spec, sender):
        state = make_state(parse_spec(spec))
        book = build_sdc_codebook(state, sender)
        assert len(book) == FIGURES[spec, sender].messages
        for msg, label in enumerate(book.labels):
            op = pauli_string(pauli_digits(label, len(sender)))
            sent = apply_local(state, op, sender).amplitudes
            assert simulate_sdc(state, sender, msg, book) == vdot_decode(book.stack, sent) == msg

    def test_stack_is_kept_read_only(self):
        book = build_sdc_codebook(cluster4(), (1, 3))
        assert [f.name for f in dataclasses.fields(book) if f.init] == ["state", "sender_set", "labels"]
        assert not np.shares_memory(book.stack, book.state.amplitudes)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(book, stack=book.stack.copy())
        again = dataclasses.replace(book, labels=book.labels[:3])
        assert np.array_equal(again.stack, book.stack[:3])
        with pytest.raises(ValueError):
            book.stack[0, 0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            book.stack = np.zeros_like(book.stack)

    @pytest.mark.parametrize(
        "state,sender,size",
        [
            (cluster5(), (1, 3, 5), FIGURES["cluster5", (1, 3, 5)].messages),
            # A Haar unitary on the receivers keeps the sender marginal
            # maximally mixed, so all 16 labels, Y phases included, are in
            # the codebook while the amplitudes are random.
            (
                apply_local(
                    bell_product(2),
                    LocalOperator(2, haar_random_unitary(4, np.random.default_rng(5))),
                    (2, 4),
                ),
                (1, 3),
                16,
            ),
        ],
        ids=["cluster5", "haar-dressed"],
    )
    def test_encoded_states_match_dense_strings(self, state, sender, size):
        book = build_sdc_codebook(state, sender)
        assert len(book) == size
        for label, enc in zip(book.labels, book.stack):
            op = pauli_string(pauli_digits(label, len(sender)))
            assert np.array_equal(enc, apply_local(state, op, sender).amplitudes)


# Catalog rows come from claims.VERDICTS, named as in the survey script; the
# seeded Haar states have no maximal cut and carry a single message.  Haar
# n = 8-10 and ghz:8, ghz:10 scan every cut in chunks of many cuts.
VERDICT_TABLE = [
    pytest.param(make_state(parse_spec(spec)), *want, id=spec.replace(":", ""))
    for spec, want in VERDICTS.items()
] + [
    pytest.param(haar_random_state(n, seed=seed), False, 0, 1, None, id=f"haar{n}-seed{seed}")
    for n in (4, 5, 6, 7)
    for seed in (0, 1)
] + [
    pytest.param(haar_random_state(n, seed=0), False, 0, 1, None, id=f"haar{n}-seed0")
    for n in (8, 9, 10)
] + [
    pytest.param(ghz(8), False, 1, 32, None, id="ghz8"),
    pytest.param(ghz(10), False, 1, 64, None, id="ghz10"),
]


def _dicke(n: int, k: int, dressed: bool = False) -> PureState:
    """The uniform superposition of the weight-k strings on n qubits, from
    its amplitudes; dressed, qubit q also gets the local Clifford (I, H, S,
    HS)[q mod 4], which keeps every figure but not the exact amplitudes."""
    weight = np.array([x.bit_count() for x in range(2**n)])
    state = PureState(n, (weight == k) / math.sqrt(math.comb(n, k)))
    return _dress(state) if dressed else state


def _ghz_image(n: int) -> PureState:
    """``ghz(n)`` under a seeded Haar unitary on qubits 1 and 2: its runs are
    {1}, {2} and {3..n}, so its balanced cuts fall into 4 classes."""
    u = haar_random_unitary(4, np.random.default_rng(n))
    return apply_local(ghz(n), LocalOperator(2, u), (1, 2))


# VERDICT_TABLE's states, and states whose classes of balanced cuts (cuts
# with one matrix) are not single cuts: qubit-symmetric ones, planted runs
# and Bell-pair products.
FOLD_TABLE = (
    [pytest.param(param.values[0], id=param.id) for param in VERDICT_TABLE]
    + [pytest.param(haar_random_state(n, seed=0), id=f"haar{n}-seed0") for n in (2, 3)]
    + [pytest.param(ghz(n), id=f"ghz{n}") for n in (2, 7, 9, 11, 12)]
    + [pytest.param(_ghz_image(n), id=f"ghz{n}-image") for n in range(3, 11)]
    + [pytest.param(tensor(ghz(n), haar_random_state(2, seed=n)), id=f"ghz{n}-x-haar2") for n in range(3, 11)]
    + [pytest.param(tensor(haar_random_state(2, seed=n), ghz(n)), id=f"haar2-x-ghz{n}") for n in range(3, 11)]
    + [pytest.param(bell_product(m), id=f"bell_product{m}") for m in (4, 5)]
    # dicke(9, 2) and dicke(10, 2..8) run clique searches of seconds
    + [pytest.param(_dicke(n, k), id=f"dicke{n},{k}") for n in range(2, 11) for k in range(1, n)
       if n <= 8 or k in (1, n - 1)]
)


def _dress(state: PureState) -> PureState:
    """``state`` with the local Clifford (I, H, S, HS)[q mod 4] on qubit q."""
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    s = np.diag([1, 1j])
    cliffords = (np.eye(2), h, s, h @ s)
    for q in range(1, state.num_qubits + 1):
        state = apply_local(state, LocalOperator(1, cliffords[q % 4]), (q,))
    return state


def _schmidt_state(coeffs) -> PureState:
    """4-qubit state sum_k coeffs[k] |k>|k> across (1,2)|(3,4): the cut
    matrix is diagonal, so its SVD returns the coefficients as given."""
    amps = np.zeros(16, dtype=complex)
    amps[[0b0000, 0b0101, 0b1010, 0b1111]] = coeffs
    return PureState(4, amps)


def _coeffs(values) -> np.ndarray:
    """Schmidt coefficients whose squares are ``values``, normalised."""
    lam = np.asarray(values, dtype=float)
    return np.sqrt(lam / lam.sum())


RHO = CLUSTER_RTOL
# Two pairs of Schmidt coefficients whose squares sit exactly on the
# clustering boundary, lam_0 - lam_1 == CLUSTER_RTOL * lam_0 in float (found
# by a search over consecutive floats); their squares sum to 1 within 6e-10.
BOUNDARY_COEFFS = [
    float.fromhex(x)
    for x in ("0x1.186f18122cc9fp-1", "0x1.186f1726ee0d8p-1",
              "0x1.c9f25c64a2ce1p-2", "0x1.c9f25ae47b7e2p-2")
]


class TestCapacityBoundary:
    """``cut_reports`` reads capacities off the eigenvalue array where every
    value stands alone, and clusters the rest; both must agree with
    ``teleport_capacity`` on either side of CLUSTER_RTOL."""

    @pytest.mark.parametrize(
        "state,want",
        [
            # (2, 2): the top pair joins
            (_schmidt_state(_coeffs([1, 1 - 0.9 * RHO, 0.6, 0.6])), 1),
            # (1, 1, 2)
            (_schmidt_state(_coeffs([1, 1 - 1.1 * RHO, 0.6, 0.6])), 0),
            # every value alone: no clustering runs
            (_schmidt_state(_coeffs([1, 1 - 1.1 * RHO, 0.6, 0.6 * (1 - 1.1 * RHO)])), 0),
            # each step is inside the tolerance, but the third value is not
            # within it of the run's first member: (2, 2), where comparing
            # with the previous value would chain all four into one run
            (_schmidt_state(_coeffs([(1 - 0.6 * RHO) ** k for k in range(4)])), 1),
            # both pairs join, at the tolerance exactly: (2, 2)
            (_schmidt_state(BOUNDARY_COEFFS), 1),
        ],
        ids=["inside", "outside", "all-distinct", "first-member", "on-the-boundary"],
    )
    def test_reports_equal_teleport_capacity(self, state, want):
        reports = list(cut_reports(state))
        assert tuple(sorted(reports[0].cut.sender)) == (1, 2)
        assert reports[0].capacity == want
        for report in reports:
            assert report.capacity == teleport_capacity(state, report.cut)

    def test_boundary_pairs_are_exact(self):
        state = _schmidt_state(BOUNDARY_COEFFS)
        lam = next(cut_reports(state)).spectrum.eigenvalues
        assert lam[0] - lam[1] == CLUSTER_RTOL * lam[0]
        assert lam[2] - lam[3] == CLUSTER_RTOL * lam[2]
        assert lam[1] - lam[2] > CLUSTER_RTOL * lam[1]


class TestMaximalityVerdicts:
    @pytest.mark.parametrize("state,maximal,cap,msgs,witness", VERDICT_TABLE)
    def test_verdict_table(self, state, maximal, cap, msgs, witness):
        verdict = is_tmes(state)
        assert verdict.is_tmes is maximal
        assert verdict.teleport_qubits == cap
        assert verdict.sdc_messages == msgs
        if witness is None:
            assert verdict.witnessing_partition is None
        else:
            assert verdict.witnessing_partition is not None
            assert verdict.witnessing_partition.sender == set(witness)

    def test_scan_stops_at_first_joint_witness(self, cut_stack_spy, monkeypatch):
        # Cuts are scored one _cut_stacks class at a time, a chunk of at most
        # 64 classes at 10 qubits, each scored when the scan reaches its
        # first cut: the scan stops in the chunk that holds the first joint
        # witness, having scored no class whose first cut comes after it.
        def scored():
            (call,) = cut_stack_spy
            cut_stack_spy.clear()
            return [[tuple(sorted(call.cuts[i].sender)) for i in c.where] for c in call.chunks]

        capacities = []
        capacity_of = capacity._capacity
        monkeypatch.setattr(capacity, "_capacity", lambda *a: capacities.append(a) or capacity_of(*a))
        verdict = is_tmes(cluster4())
        assert verdict.witnessing_partition.sender == {1, 3}
        assert scored() == [list(combinations(range(1, 5), 2))]  # one chunk
        senders = list(combinations(range(1, 11), 5))
        assert senders.index((1, 3, 5, 7, 9)) == 76
        # bell_product(5)'s runs are the pairs {1,2}, ..., {9,10}: its 252
        # cuts fall into 51 classes by the count each pair holds, one chunk,
        # of which the scan scores the classes met up to cut 76.
        capacities.clear()
        plain = is_tmes(bell_product(5))
        assert plain.witnessing_partition.sender == {1, 3, 5, 7, 9}
        ((_, cuts, (chunk,)),) = cut_stack_spy
        pairs = brute_runs(bell_product(5).amplitudes, 10)
        assert pairs == tuple((q, q + 1) for q in range(1, 11, 2))
        counts = [run_counts(pairs, cut.sender) for cut in cuts]
        assert len(chunk.classes) == len(set(counts)) == 51
        assert scored() == [senders]
        assert len(capacities) == len(set(counts[:77]))
        # Dressed, it has the same figures and no run of two qubits: every
        # cut is a class, and the scan stops after the second chunk of 64.
        assert is_tmes(_dress(bell_product(5))) == plain
        assert scored() == [senders[:64], senders[64:128]]

    @pytest.mark.parametrize(
        "state",
        [haar_random_state(7, seed=7), haar_random_state(8, seed=8),
         haar_random_state(10, seed=10), haar_random_state(11, seed=11), ghz(8)],
        ids=["haar7", "haar8", "haar10", "haar11", "ghz8"],
    )
    def test_chunks_match_one_cut_calls(self, monkeypatch, cut_stack_spy, state):
        # Each chunk is one _cut_stacks stack and one pauli_expectations call
        # on its stack of marginals, one row per class; cut_reports scores
        # every balanced cut, in chunks of CHUNK_BYTES // (16 * 2^n) classes:
        # one chunk up to 9 qubits, 4 at 10 and 15 at 11 on a Haar state,
        # whose every cut is a class.  ghz:8 is one run: its one chunk holds
        # one class of all 70 cuts and a stack of one matrix.
        expects = []
        transform = capacity.pauli_expectations

        def recording_transform(rho):
            expects.append(transform(rho))
            return expects[-1]

        monkeypatch.setattr(capacity, "pauli_expectations", recording_transform)
        reports = list(capacity.cut_reports(state))
        ((_, cuts, chunks),) = cut_stack_spy
        n = state.num_qubits
        assert len(chunks) == len(expects) == {7: 1, 8: 1, 10: 4, 11: 15}[n]
        assert len(reports) == math.comb(n, (n + 1) // 2)
        assert [r.cut for r in reports] == [cuts[i] for chunk in chunks for i in chunk.where]
        for report in reports:
            assert report.spectrum == schmidt_spectrum(state, report.cut)
        runs = brute_runs(state.amplitudes, n)
        for chunk, expect in zip(chunks, expects):
            assert len(chunk.classes) == (len(chunk.where) if len(runs) == n else 1)
            assert expect.shape == (len(chunk.classes), 4 ** len(cuts[chunk.where[0]].sender))
            for members, row in zip(chunk.classes, expect):
                for i in members:
                    rho = partial_trace(state, cuts[i].sender).matrix
                    assert np.array_equal(row, pauli_expectations(rho))

    @pytest.mark.parametrize(
        "state",
        [pytest.param(make_state(parse_spec(spec)), id=spec) for spec in VERDICTS]
        + [
            pytest.param(haar_random_state(n, seed=n), id=f"haar{n}")
            for n in range(2, 11)
        ]
        + [
            pytest.param(_dicke(n, 1, dressed), id=f"dicke{n}" + "-dressed" * dressed)
            for n in range(2, 9)
            for dressed in (False, True)
        ],
    )
    def test_reports_equal_one_cut_figures(self, state):
        n = state.num_qubits
        reports = list(cut_reports(state))
        senders = list(combinations(range(1, n + 1), (n + 1) // 2))
        assert [tuple(sorted(r.cut.sender)) for r in reports] == senders
        for report, sender in zip(reports, senders):
            cut = _cut(sender, n)
            assert report.cut == cut
            assert report.spectrum == schmidt_spectrum(state, cut)
            assert report.capacity == teleport_capacity(state, cut)
            assert report.messages == sdc_max_messages(state, sender)

    def test_reports_refuse_what_the_verdict_refuses(self):
        with pytest.raises(ValueError, match="at least two qubits"):
            next(cut_reports(basis_state("0")))

    @pytest.mark.parametrize("state", FOLD_TABLE)
    def test_fold_over_full_reports_equals_is_tmes(self, state):
        # is_tmes folds over one report per class; the fold over every cut
        # must give the same four fields.
        assert tmes_verdict(list(cut_reports(state))) == is_tmes(state)

    def test_verdict_reads_one_report_per_class(self, monkeypatch):
        # ghz:12 is one run, so its 924 balanced cuts are one class; its image
        # under a unitary on qubits 1 and 2 has four.  Neither is maximal, so
        # the verdict reads every class.
        made = []
        report = capacity.CutReport
        monkeypatch.setattr(capacity, "CutReport", lambda *a: made.append(a) or report(*a))
        for state, classes in [(ghz(12), 1), (_ghz_image(12), 4)]:
            made.clear()
            assert not is_tmes(state).is_tmes
            assert len(made) == classes

    def test_scan_reuses_the_memoised_cuts(self, monkeypatch):
        # The balanced cuts are built once per qubit count; a scan slices them.
        n = 8
        layout = _cut_layout(n, 4)
        monkeypatch.setattr(Partition, "from_sender", None)
        reports = list(cut_reports(haar_random_state(n, seed=1)))
        assert all(r.cut is cut for r, cut in zip(reports, layout.cuts, strict=True))

    def test_fold_refuses_empty_and_mixed_reports(self):
        with pytest.raises(ValueError, match="at least one cut report"):
            tmes_verdict([])
        mixed = [next(cut_reports(cluster4())), next(cut_reports(cluster5()))]
        with pytest.raises(ValueError, match="mix 4- and 5-qubit cuts"):
            tmes_verdict(mixed)

    def test_thresholds_encoded_in_verdict(self):
        n = 4
        verdict = is_tmes(cluster4())
        assert verdict.teleport_qubits >= n // 2
        assert verdict.sdc_messages >= 2**n

    def test_needs_two_qubits(self):
        with pytest.raises(ValueError):
            is_tmes(basis_state("0"))

    def test_qubit_cap(self):
        # refused before any cut is scanned
        with pytest.raises(ValueError, match=f"capped at {MAX_QUBITS} qubits"):
            is_tmes(basis_state("0" * (MAX_QUBITS + 1)))

    def test_verdict_dataclass_shape(self):
        verdict = TmesVerdict(False, 0, 1, None)
        assert not verdict.is_tmes


MAXIMAL_WITNESSES = [(spec, want.witness) for spec, want in VERDICTS.items() if want.maximal]


@pytest.mark.parametrize(
    "spec,witness", MAXIMAL_WITNESSES, ids=[spec for spec, _ in MAXIMAL_WITNESSES]
)
def test_both_tasks_run_at_the_witness(spec, witness):
    _run_both_tasks(make_state(parse_spec(spec)), witness)


def _run_both_tasks(state: PureState, witness: tuple[int, ...]) -> None:
    """A maximal verdict is operational: across its witness cut, floor(n/2)
    Haar qubits teleport perfectly and all 2^n Pauli messages decode."""
    n = state.num_qubits
    cut = Partition.from_sender(witness, n)
    for seed in range(3):
        run = simulate_teleportation(state, cut, n // 2, seed)
        assert run.min_fidelity >= 1.0 - ATOL
        assert abs(run.total_probability - 1.0) <= ATOL
    book = build_sdc_codebook(state, witness)
    assert len(book) == 2**n
    assert [simulate_sdc(state, witness, m, book) for m in range(2**n)] == list(range(2**n))


class TestDefaultPartition:
    def test_odd_qubits_send(self):
        part = default_partition(4)
        assert part.sender == frozenset({1, 3})
        assert part.receiver == frozenset({2, 4})
        assert default_partition(5).sender == frozenset({1, 3, 5})

    def test_needs_two_qubits(self):
        with pytest.raises(ValueError):
            default_partition(1)
