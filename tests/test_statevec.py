"""Core statevector machinery against brute-force index-arithmetic oracles."""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_apply,
    brute_negativity,
    brute_reduced_density,
    brute_spectrum,
    shannon_bits,
    svd_cut_spectrum,
)
import tmes
from tmes import statevec
from tmes.capacity import haar_random_state, haar_random_unitary, sdc_max_messages
from tmes.statevec import (
    ATOL,
    EXACT_ATOL,
    DensityMatrix,
    LocalOperator,
    Partition,
    PureState,
    SchmidtSpectrum,
    apply_local,
    cluster_values,
    cut_spectra,
    entropy,
    negativity,
    overlap,
    partial_trace,
    schmidt_decomposition,
    schmidt_spectrum,
    states_close,
    tensor,
)
from tmes.claims import VERDICTS
from tmes.invariants import all_bipartitions, conversion_obstruction, orthogonal_family
from tmes.states import (
    basis_state,
    bell,
    bell_product,
    ghz,
    make_state,
    odd_resource,
    parse_spec,
    w_state,
)

SEEDS = st.integers(min_value=0, max_value=10**6)


def _random_unitary(arity: int, seed: int) -> LocalOperator:
    rng = np.random.default_rng(seed)
    return LocalOperator(arity, haar_random_unitary(2**arity, rng))


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PureState(1, np.array([1.0, 1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            PureState(2, np.array([1.0, 0.0]))

    def test_qubit_one_is_most_significant(self):
        state = basis_state("10")
        assert state.amplitudes[0b10] == 1.0
        assert state.tensor_view()[1, 0] == 1.0

    def test_amplitudes_read_only(self):
        state = bell()
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="not normalized"):
            PureState(1, np.array([bad, 0.0]))


class TestDensityMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", [(0, 1), (1, 1)])
    def test_rejects_non_finite(self, bad, entry):
        mat = np.eye(2, dtype=complex) / 2
        mat[entry] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            DensityMatrix(1, mat)


class TestPartition:
    def test_from_sender(self):
        cut = Partition.from_sender((3, 1), 4)
        assert cut.sender == frozenset({1, 3})
        assert cut.receiver == frozenset({2, 4})
        assert cut.sides() == ((1, 3), (2, 4))

    def test_rejects_bad_sets(self):
        with pytest.raises(ValueError):
            Partition.from_sender((), 3)
        with pytest.raises(ValueError):
            Partition.from_sender((1, 2, 3), 3)
        with pytest.raises(ValueError):
            Partition.from_sender((0,), 3)
        with pytest.raises(ValueError):
            Partition(frozenset({1}), frozenset({1, 2}))

    @pytest.mark.parametrize("sender", [(0,), (4,), (1, 4)])
    def test_from_sender_names_out_of_range_qubits(self, sender):
        # (4,) on 3 qubits used to build a 4-qubit partition
        with pytest.raises(ValueError, match=r"out of range 1\.\.3"):
            Partition.from_sender(sender, 3)


class TestApplyLocal:
    def test_matches_brute_force_one_qubit(self):
        state = haar_random_state(3, seed=5)
        op = _random_unitary(1, seed=11)
        for target in (1, 2, 3):
            got = apply_local(state, op, (target,))
            want = brute_apply(state.amplitudes, 3, op.matrix, (target,))
            assert np.allclose(got.amplitudes, want, atol=1e-12)

    def test_matches_brute_force_two_qubit_ordered(self):
        state = haar_random_state(4, seed=9)
        op = _random_unitary(2, seed=3)
        for targets in ((1, 3), (3, 1), (2, 4), (4, 2), (1, 2)):
            got = apply_local(state, op, targets)
            want = brute_apply(state.amplitudes, 4, op.matrix, targets)
            assert np.allclose(got.amplitudes, want, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, op_seed=SEEDS, flip=st.booleans())
    def test_target_order_matters_like_brute_force(self, seed, op_seed, flip):
        state = haar_random_state(3, seed=seed)
        op = _random_unitary(2, seed=op_seed)
        targets = (3, 1) if flip else (1, 3)
        got = apply_local(state, op, targets)
        want = brute_apply(state.amplitudes, 3, op.matrix, targets)
        assert np.allclose(got.amplitudes, want, atol=1e-12)

    def test_rejects_bad_targets(self):
        state = bell()
        op = _random_unitary(1, seed=0)
        with pytest.raises(ValueError):
            apply_local(state, op, (1, 2))
        with pytest.raises(ValueError):
            apply_local(state, op, (3,))
        two = _random_unitary(2, seed=0)
        with pytest.raises(ValueError):
            apply_local(state, two, (1, 1))


class TestPartialTrace:
    @pytest.mark.parametrize(
        "state,keep",
        [
            (bell(), (1,)),
            (ghz(3), (2,)),
            (ghz(4), (1, 3)),
            (bell_product(2), (2, 4)),
            (w_state(2), (1, 2)),
        ],
    )
    def test_matches_brute_force_catalog(self, state, keep):
        got = partial_trace(state, keep).matrix
        want = brute_reduced_density(state.amplitudes, state.num_qubits, keep)
        assert np.allclose(got, want, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, keep_mask=st.integers(min_value=1, max_value=14))
    def test_matches_brute_force_random(self, seed, keep_mask):
        state = haar_random_state(4, seed=seed)
        keep = tuple(q for q in range(1, 5) if keep_mask & (1 << (q - 1)))
        got = partial_trace(state, keep).matrix
        want = brute_reduced_density(state.amplitudes, 4, keep)
        assert np.allclose(got, want, atol=1e-12)

    def test_trace_is_one(self):
        rho = partial_trace(haar_random_state(4, seed=2), (2, 3)).matrix
        assert abs(np.trace(rho) - 1.0) < 1e-12


# Every qubit list a caller names goes through one check: refused when empty
# or outside 1..n, repeats collapsed.
@pytest.mark.parametrize(
    "call",
    [
        lambda qubits: partial_trace(ghz(3), qubits),
        lambda qubits: Partition.from_sender(qubits, 3),
        lambda qubits: sdc_max_messages(ghz(3), qubits),
        lambda qubits: orthogonal_family(ghz(3), qubits),
        lambda qubits: conversion_obstruction(ghz(3), ghz(3), qubits),
    ],
    ids=["partial_trace", "from_sender", "sender", "orthogonal_family", "obstruction"],
)
def test_qubit_lists_are_checked_alike(call):
    with pytest.raises(ValueError, match="no .* given"):
        call(())
    for qubits in [(0,), (4,), (1, 4)]:
        with pytest.raises(ValueError, match=r"out of range 1\.\.3"):
            call(qubits)
    call((2, 2))


class TestSchmidt:
    def test_spectrum_matches_brute_force(self):
        for seed in (0, 1, 2):
            state = haar_random_state(4, seed=seed)
            cut = Partition.from_sender((1, 4), 4)
            got = np.asarray(schmidt_spectrum(state, cut).eigenvalues)
            want = brute_spectrum(state.amplitudes, 4, (1, 4))
            assert got.shape == want.shape
            assert np.allclose(got, want, atol=1e-9)

    def test_spectrum_drops_exact_zeros(self):
        spec = schmidt_spectrum(odd_resource(1), Partition.from_sender((1, 3), 3))
        assert spec.rank == 2
        assert np.allclose(spec.eigenvalues, (0.5, 0.5), atol=1e-12)

    def test_decomposition_reconstructs_state(self):
        state = haar_random_state(5, seed=7)
        cut = Partition.from_sender((2, 4), 5)
        coeffs, a_vecs, b_vecs = schmidt_decomposition(state, cut)
        assert np.allclose(a_vecs.conj().T @ a_vecs, np.eye(coeffs.size), atol=1e-12)
        assert np.allclose(b_vecs @ b_vecs.conj().T, np.eye(coeffs.size), atol=1e-12)
        rebuilt = (a_vecs * coeffs) @ b_vecs
        view = state.tensor_view().transpose([1, 3, 0, 2, 4]).reshape(4, 8)
        assert np.allclose(rebuilt, view, atol=1e-12)

    def test_spectrum_sums_to_one(self):
        state = haar_random_state(4, seed=13)
        spec = schmidt_spectrum(state, Partition.from_sender((1,), 4))
        assert abs(sum(spec.eigenvalues) - 1.0) < 1e-9

    @pytest.mark.parametrize(
        "values", [(np.nan,), (0.5, np.nan, 0.5), (np.inf,), (np.inf, 0.5)]
    )
    def test_spectrum_rejects_non_finite(self, values):
        with pytest.raises(ValueError):
            SchmidtSpectrum(values)

    def test_both_sides_agree(self):
        state = haar_random_state(5, seed=3)
        a = schmidt_spectrum(state, Partition.from_sender((1, 2), 5))
        b = schmidt_spectrum(state, Partition.from_sender((3, 4, 5), 5))
        assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-9)


def _every_cut(n: int) -> list[Partition]:
    """Every ordered cut of n qubits: senders of every size, both sides."""
    return [
        Partition.from_sender((q for q in range(1, n + 1) if mask >> (q - 1) & 1), n)
        for mask in range(1, 2**n - 1)
    ]


class TestCutSpectra:
    """``cut_spectra`` equals, to the bit, one SVD per cut laid out by bit
    arithmetic."""

    @staticmethod
    def _assert_bitwise(state, cuts):
        got = tuple(spec.eigenvalues for spec in cut_spectra(state, cuts))
        want = tuple(
            svd_cut_spectrum(state.amplitudes, state.num_qubits, cut.sender)
            for cut in cuts
        )
        assert got == want

    @pytest.mark.parametrize("spec", list(VERDICTS))
    def test_every_cut_of_every_verdict_state(self, spec):
        state = make_state(parse_spec(spec))
        self._assert_bitwise(state, _every_cut(state.num_qubits))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_haar_states(self, n):
        state = haar_random_state(n, seed=n)
        self._assert_bitwise(state, all_bipartitions(n))

    def test_senders_larger_than_receivers(self):
        state = haar_random_state(7, seed=3)
        big = [Partition(c.receiver, c.sender) for c in all_bipartitions(7)]
        assert all(len(c.sender) > len(c.receiver) for c in big)
        self._assert_bitwise(state, big)

    def test_output_follows_input_order(self):
        state = haar_random_state(6, seed=5)
        cuts = _every_cut(6)
        order = np.random.default_rng(0).permutation(len(cuts))
        shuffled = [cuts[i] for i in order]
        self._assert_bitwise(state, shuffled)
        by_cut = dict(zip(cuts, cut_spectra(state, cuts)))
        assert cut_spectra(state, shuffled) == tuple(by_cut[c] for c in shuffled)

    def test_one_cut(self):
        state = haar_random_state(5, seed=9)
        cut = Partition.from_sender((2, 5), 5)
        self._assert_bitwise(state, [cut])
        assert cut_spectra(state, [cut]) == (schmidt_spectrum(state, cut),)

    def test_no_cuts(self):
        assert cut_spectra(bell(), []) == ()

    def test_rejects_a_cut_of_another_size(self):
        with pytest.raises(ValueError, match="partition covers 3 qubits"):
            cut_spectra(bell(), [Partition.from_sender((1,), 3)])


def _public_signatures():
    """(qualified name, parameter names) of every public callable of ``tmes``
    and ``statevec``, and of every public method of their classes."""
    for module in (tmes, statevec):
        for name in dir(module):
            obj = getattr(module, name)
            if name.startswith("_") or not callable(obj):
                continue
            if not getattr(obj, "__module__", "").startswith("tmes"):
                continue
            members = [obj]
            if inspect.isclass(obj):
                members += [
                    m for key, m in inspect.getmembers(obj, inspect.isroutine)
                    if not key.startswith("_")
                ]
            for member in members:
                try:
                    params = inspect.signature(member).parameters
                except (TypeError, ValueError):
                    continue
                yield member.__qualname__, list(params)


class TestClusterValues:
    def test_groups_close_values(self):
        clusters = cluster_values((0.5, 0.5 - 1e-9, 0.25))
        assert [m for _, m in clusters] == [2, 1]

    def test_separates_distinct_values(self):
        clusters = cluster_values((0.5, 0.3, 0.2))
        assert [m for _, m in clusters] == [1, 1, 1]

    def test_flat_spectrum_single_cluster(self):
        spec = schmidt_spectrum(bell_product(2), Partition.from_sender((1, 3), 4))
        assert spec.clustered() == ((pytest.approx(0.25), 4),)

    def test_no_public_callable_takes_rtol(self):
        # Clustering is at the fixed CLUSTER_RTOL everywhere; no signature
        # offers a relative tolerance to set.
        signatures = list(_public_signatures())
        for name, params in signatures:
            assert "rtol" not in params, name
        assert len(signatures) > 80

    def test_only_counts_take_a_tolerance(self):
        # A threshold is a parameter only where it defines a count (the SDC
        # message count, the verdicts built on it, genuine multipartiteness).
        # What asserts, builds, compares or reports (the claim suite,
        # codebooks, the closeness and unitarity predicates) decides at ATOL.
        takes = {
            name
            for name, params in _public_signatures()
            if {"tol", "atol", "tolerance"} & set(params)
        }
        assert takes == {
            "sdc_orthogonal_labels",
            "sdc_max_messages",
            "cut_reports",
            "is_tmes",
            "tmes_verdict",
            "genuine_multipartite",
        }
        assert "tolerance" not in inspect.signature(tmes.ClaimConfig).parameters
        assert list(inspect.signature(tmes.build_sdc_codebook).parameters) == [
            "state", "sender_set", "num_messages"
        ]


class TestDiagnostics:
    def test_entropy_closed_forms(self):
        assert entropy(SchmidtSpectrum((1.0,))) == pytest.approx(0.0, abs=1e-12)
        assert entropy(SchmidtSpectrum((0.5, 0.5))) == pytest.approx(1.0, abs=1e-12)
        spec = schmidt_spectrum(w_state(2), Partition.from_sender((1,), 3))
        assert entropy(spec) == pytest.approx(
            shannon_bits([5 / 6, 1 / 6]), abs=1e-12
        )

    @pytest.mark.parametrize(
        "state,cut,expected",
        [
            (bell(), (1,), 0.5),
            (ghz(4), (1, 2), 0.5),
        ],
    )
    def test_negativity_known_values(self, state, cut, expected):
        part = Partition.from_sender(cut, state.num_qubits)
        assert negativity(state, part) == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS)
    def test_negativity_matches_brute_force(self, seed):
        state = haar_random_state(3, seed=seed)
        part = Partition.from_sender((2,), 3)
        want = brute_negativity(state.amplitudes, 3, sorted(part.receiver))
        assert negativity(state, part) == pytest.approx(want, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, n=st.integers(min_value=2, max_value=6), data=st.data())
    def test_negativity_matches_brute_force_on_any_cut(self, seed, n, data):
        state = haar_random_state(n, seed=seed)
        sender = data.draw(
            st.sets(st.integers(1, n), min_size=1, max_size=n - 1), label="sender"
        )
        part = Partition.from_sender(sender, n)
        want = brute_negativity(state.amplitudes, n, sorted(part.receiver))
        assert negativity(state, part) == pytest.approx(want, abs=1e-9)

    def test_negativity_of_near_product_state(self):
        # A Schmidt coefficient of 1e-7 (weight 1e-14, below EXACT_ATOL)
        # still counts: the negativity is about 1e-7, not 0.
        eps = 1e-7
        amps = np.zeros(4, dtype=complex)
        amps[0b00] = np.sqrt(1 - eps**2)
        amps[0b11] = eps
        state = PureState(2, amps)
        part = Partition.from_sender((1,), 2)
        want = brute_negativity(amps, 2, [2])
        assert negativity(state, part) == pytest.approx(want, abs=1e-12)
        assert negativity(state, part) == pytest.approx(eps, rel=1e-6)
        assert negativity(basis_state("01"), part) == 0.0


class TestOverlapAndCloseness:
    def test_overlap_conjugate_symmetry(self):
        a = haar_random_state(3, seed=1)
        b = haar_random_state(3, seed=2)
        assert overlap(a, b) == pytest.approx(np.conj(overlap(b, a)), abs=1e-12)
        assert abs(overlap(a, b)) <= 1.0 + 1e-12

    def test_states_close_is_phase_sensitive(self):
        state = bell()
        flipped = PureState(2, -state.amplitudes)
        assert states_close(state, state)
        assert not states_close(state, flipped)

    def test_tensor_layout(self):
        left = basis_state("1")
        right = basis_state("0")
        assert tensor(left, right).amplitudes[0b10] == 1.0

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            overlap(bell(), ghz(3))


class TestLocalOperator:
    def test_unitary_check(self):
        assert _random_unitary(2, seed=4).is_unitary()
        assert not LocalOperator(1, np.array([[1.0, 0.0], [0.0, 2.0]])).is_unitary()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LocalOperator(2, np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 1), (1, 1)])
    def test_rejects_non_finite(self, bad, entry):
        mat = np.eye(2, dtype=complex)
        mat[entry] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            LocalOperator(1, mat)

    def test_constants_sane(self):
        assert EXACT_ATOL < ATOL
