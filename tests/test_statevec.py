"""Core statevector machinery against brute-force index-arithmetic oracles."""

from __future__ import annotations

import ast
import inspect
import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_apply,
    brute_cut_matrix,
    brute_negativity,
    brute_reduced_density,
    brute_runs,
    brute_spectrum,
    run_counts,
    shannon_bits,
    svd_cut_spectrum,
    two_adic,
)
import tmes
from tmes import capacity, invariants, statevec
from tmes.capacity import haar_random_state, haar_random_unitary, is_tmes, sdc_max_messages
from tmes.statevec import (
    ATOL,
    EXACT_ATOL,
    MAX_QUBITS,
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
from tmes.statevec import _cut_layout
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


def _src_nodes():
    """Every AST node of the ``tmes`` sources with its module and where it
    sits: ``module.function`` for the innermost enclosing function, else the
    module's name."""
    for path in Path(tmes.__file__).parent.glob("*.py"):
        todo = [(ast.parse(path.read_text()), path.stem)]
        while todo:
            node, where = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = f"{path.stem}.{node.name}"
            yield node, path.stem, where
            todo += [(child, where) for child in ast.iter_child_nodes(node)]


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

    @pytest.mark.parametrize("scale", [1 + 0.9e-9, 1 - 0.9e-9])
    def test_rejects_a_total_probability_off_by_more_than_atol(self, scale):
        # The norm is within ATOL of 1, its square is not.
        amps = haar_random_state(4, 0).amplitudes * scale
        assert abs(np.linalg.norm(amps) - 1.0) <= ATOL
        with pytest.raises(ValueError, match="not normalized: total probability = "):
            PureState(4, amps)

    @pytest.mark.parametrize("scale", [1 + 0.45e-9, 1 - 0.45e-9])
    def test_a_state_at_the_edge_runs_every_analysis(self, scale):
        # Every marginal trace and spectrum sum is the total probability,
        # which the state holds to ATOL, so no later check refuses it.
        haar = haar_random_state(4, 0)
        state = PureState(4, haar.amplitudes * scale)
        cut = Partition.from_sender((1, 3), 4)
        assert is_tmes(state) == is_tmes(haar)
        assert schmidt_spectrum(state, cut).rank == 4
        assert partial_trace(state, (1, 3)).matrix.shape == (4, 4)
        assert len(invariants.all_bipartition_spectra(state)) == 7
        assert len(capacity.build_sdc_codebook(state, (1, 3))) == 1
        resource = PureState(4, bell_product(2).amplitudes * scale)
        run = capacity.simulate_teleportation(resource, cut, 2)
        assert run.min_fidelity >= 1.0 - ATOL
        assert abs(run.total_probability - 1.0) <= ATOL

    def test_rejects_an_amplitude_too_large_to_square(self):
        # Refused before the norm is formed, which would overflow (and, with
        # warnings as errors, raise a RuntimeWarning instead).
        amps = np.zeros(8, dtype=complex)
        amps[0] = 1e308 + 1e308j
        with pytest.raises(ValueError, match=r"not normalized: max \|amplitude\| = 1\.41"):
            PureState(3, amps)


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

    def test_refuses_more_than_max_qubits_kept(self, monkeypatch):
        # 13 kept qubits would make a 1 GiB matrix: refused before the
        # state is even laid out.
        def layout(*args):
            raise AssertionError("laid out before the size check")

        monkeypatch.setattr(statevec, "_cut_matrix", layout)
        with pytest.raises(ValueError, match=f"capped at {MAX_QUBITS} qubits, got 13"):
            partial_trace(ghz(13), range(1, 14))


# The dense constructors compare counts with the size policy before they form
# 2^n, which at 10^18 qubits would not finish.
@pytest.mark.parametrize(
    "build,message",
    [
        (lambda n: PureState(n, [1.0]), "a state on {n} qubits is above the 256 MiB cap"),
        (lambda n: DensityMatrix(n, [[1.0]]), "a density matrix is capped at 12 qubits, got {n}"),
        (lambda n: LocalOperator(n, [[1.0]]), "operator arity is capped at 12 qubits, got {n}"),
    ],
    ids=["PureState", "DensityMatrix", "LocalOperator"],
)
def test_dense_constructors_check_size_first(build, message):
    n = 10**18
    with pytest.raises(ValueError) as err:
        build(n)
    assert str(err.value) == message.format(n=n)


def test_tensor_checks_size_before_forming_the_product(monkeypatch):
    # ghz(12) x ghz(13) would be a 512 MiB product, above the 256 MiB cap
    left, right = ghz(12), ghz(13)

    def kron(a, b):
        raise AssertionError("the product was formed before the size check")

    monkeypatch.setattr(statevec.np, "kron", kron)
    with pytest.raises(ValueError) as err:
        tensor(left, right)
    assert str(err.value) == "a state on 25 qubits is above the 256 MiB cap"


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


def _no_layout(*args):
    raise AssertionError(f"_cut_layout{args} was called")


def _cuts_above_the_cap(n: int) -> list[Partition]:
    senders = [(1,), (2, 5, n), tuple(range(1, n // 2 + 1)), (3, 4, 7, 8, 11), (n - 1,)]
    return [Partition.from_sender(s, n) for s in senders]


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

    @pytest.mark.parametrize("n", [MAX_QUBITS + 1, 17])
    def test_above_the_layout_cap(self, monkeypatch, n):
        # No layout is kept above MAX_QUBITS: the offsets are built for the
        # given cuts, in a dtype that holds 17-qubit indices.
        monkeypatch.setattr(statevec, "_cut_layout", _no_layout)
        state = haar_random_state(n, seed=n)
        cuts = _cuts_above_the_cap(n)
        self._assert_bitwise(state, cuts)
        assert cut_spectra(state, cuts) == tuple(schmidt_spectrum(state, c) for c in cuts)

    def test_rejects_a_cut_of_another_size(self):
        with pytest.raises(ValueError, match="partition covers 3 qubits"):
            cut_spectra(bell(), [Partition.from_sender((1,), 3)])


class TestCutStacks:
    """Every ``_cut_stacks`` matrix equals, byte for byte, the cut matrix of
    each member of its class, laid out entry by entry by bit arithmetic on
    the joint index."""

    @staticmethod
    def _assert_oracle(state, cuts, stacks):
        seen = []
        for classes, stack in stacks:
            assert stack.shape[0] == len(classes)
            for members, mat in zip(classes, stack):
                for i in members:
                    want = brute_cut_matrix(state.amplitudes, state.num_qubits, cuts[i].sender)
                    assert mat.dtype == want.dtype and mat.shape == want.shape
                    assert mat.tobytes() == want.tobytes()
                seen += members
        assert sorted(seen) == list(range(len(cuts)))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_every_cut(self, n):
        state = haar_random_state(n, seed=n)
        cuts = _every_cut(n)
        self._assert_oracle(state, cuts, statevec._cut_stacks(state, cuts))

    def test_shuffled_mixed_sizes_with_repeats(self):
        state = haar_random_state(7, seed=4)
        cuts = _every_cut(7)
        rng = np.random.default_rng(1)
        shuffled = [cuts[i] for i in rng.permutation(len(cuts))] + cuts[::9]
        self._assert_oracle(state, shuffled, statevec._cut_stacks(state, shuffled))

    def test_conversion_obstruction_cuts(self, cut_stack_spy):
        source = haar_random_state(8, seed=2)
        target = apply_local(source, _random_unitary(2, seed=3), (1, 2))
        for subset in [(1, 2), (3,), (2, 5, 7)]:
            conversion_obstruction(source, target, subset)
        assert len(cut_stack_spy) == 6
        for state, cuts, chunks in cut_stack_spy:
            self._assert_oracle(state, cuts, [(c.classes, c.stack) for c in chunks])

    @pytest.mark.parametrize("n", [MAX_QUBITS + 1, 17])
    def test_above_the_layout_cap(self, monkeypatch, n):
        monkeypatch.setattr(statevec, "_cut_layout", _no_layout)
        state = haar_random_state(n, seed=n)
        cuts = _cuts_above_the_cap(n)
        self._assert_oracle(state, cuts, statevec._cut_stacks(state, cuts))

    @pytest.mark.parametrize(
        "state",
        [tensor(ghz(5), haar_random_state(2, seed=5)), tensor(bell(), ghz(3)), ghz(MAX_QUBITS + 1)],
        ids=["ghz5-haar2", "bell-ghz3", "ghz13"],
    )
    def test_classes_are_the_run_count_classes(self, state):
        # Shuffled cuts of every size, with repeats: each class is every
        # position whose sender takes the same count from each run, in
        # order of first position, and a repeat joins its original.
        n = state.num_qubits
        cuts = _every_cut(n) if n <= MAX_QUBITS else _cuts_above_the_cap(n)
        order = np.random.default_rng(n).permutation(len(cuts))
        cuts = [cuts[i] for i in order] + cuts[::7]
        runs = brute_runs(state.amplitudes, n)
        assert statevec._qubit_runs(state) == runs
        chunks = list(statevec._cut_stacks(state, cuts))
        self._assert_oracle(state, cuts, chunks)
        want: dict = {}
        for i, cut in enumerate(cuts):
            want.setdefault((len(cut.sender), run_counts(runs, cut.sender)), []).append(i)
        got = [members for classes, _ in chunks for members in classes]
        assert got == sorted(want.values(), key=lambda members: (len(cuts[members[0]].sender), members[0]))

    @pytest.mark.parametrize("n", [8, 9, 10, 11])
    def test_cut_report_chunks(self, cut_stack_spy, n):
        # One call over every balanced cut, yielding one chunk up to 9
        # qubits, 4 at 10 and 15 at 11.
        state = haar_random_state(n, seed=n)
        reports = list(capacity.cut_reports(state))
        ((_, cuts, chunks),) = cut_stack_spy
        assert len(chunks) == {8: 1, 9: 1, 10: 4, 11: 15}[n]
        assert [r.cut for r in reports] == [cuts[i] for chunk in chunks for i in chunk.where]
        self._assert_oracle(state, cuts, [(c.classes, c.stack) for c in chunks])


def _haar_pair(n: int) -> tuple[PureState, PureState]:
    """A Haar state and its image under a random unitary on qubits 1, 2."""
    source = haar_random_state(n, seed=n)
    return source, apply_local(source, _random_unitary(2, seed=n), (1, 2))


class TestChunkBound:
    """Every scan over many cuts reads its matrices from ``_cut_stacks``:
    per call, each stack holds at most CHUNK_BYTES (1 MiB) unless one cut
    is larger, and the chunks cover the input cuts per sender size, in
    input order, each full but the last of its size."""

    @staticmethod
    def _assert_bounded(seen):
        # On a state with no run of two qubits each cut is a class of its
        # own, so the chunks hold the cuts per size, in input order.
        assert statevec.CHUNK_BYTES == 1 << 20
        assert seen
        for state, cuts, chunks in seen:
            n = state.num_qubits
            assert len(statevec._qubit_runs(state)) == n
            per = max(statevec.CHUNK_BYTES // (16 * 2**n), 1)
            want = []
            for size in sorted({len(cut.sender) for cut in cuts}):
                at = [[i] for i, cut in enumerate(cuts) if len(cut.sender) == size]
                want += [at[k : k + per] for k in range(0, len(at), per)]
            assert [chunk.classes for chunk in chunks] == want
            for classes, shape, nbytes, _ in chunks:
                size = len(cuts[classes[0][0]].sender)
                assert shape == (len(classes), 2**size, 2 ** (n - size))
                assert nbytes <= max(statevec.CHUNK_BYTES, 16 * 2**n)

    @pytest.mark.parametrize("n", [11, MAX_QUBITS])
    @pytest.mark.parametrize(
        "scan",
        [
            lambda source, target: list(capacity.cut_reports(source)),
            lambda source, target: cut_spectra(source, all_bipartitions(source.num_qubits)[::-1]),
            lambda source, target: invariants.all_bipartition_spectra(source),
            lambda source, target: invariants.genuine_multipartite(source),
            lambda source, target: conversion_obstruction(source, target, (1, 2)),
        ],
        ids=["cut_reports", "cut_spectra", "all_bipartition_spectra",
             "genuine_multipartite", "conversion_obstruction"],
    )
    def test_entry_points(self, cut_stack_spy, n, scan):
        cut_stack_spy.keep_stacks = False
        scan(*_haar_pair(n))
        self._assert_bounded(cut_stack_spy)

    def test_one_cut_per_stack_at_16_qubits(self, cut_stack_spy):
        # A 16-qubit cut matrix is 1 MiB, exactly CHUNK_BYTES: each class is
        # a stack of its own.  On a Haar state each of 40 cuts of mixed
        # sizes is a class; on ghz:16, one run, each sender size is.
        cut_stack_spy.keep_stacks = False
        rng = np.random.default_rng(16)
        cuts = [
            Partition.from_sender(rng.choice(16, size, replace=False) + 1, 16)
            for size in rng.integers(1, 9, 40)
        ]
        state = haar_random_state(16, seed=16)
        got = cut_spectra(state, cuts)
        self._assert_bounded(cut_stack_spy)
        ((_, _, chunks),) = cut_stack_spy
        assert len(chunks) == 40
        assert all(chunk.nbytes == statevec.CHUNK_BYTES for chunk in chunks)
        assert got == tuple(schmidt_spectrum(state, cut) for cut in cuts)
        cut_stack_spy.clear()
        got = cut_spectra(ghz(16), cuts)
        ((_, _, chunks),) = cut_stack_spy
        sizes = sorted({len(cut.sender) for cut in cuts})
        assert [chunk.classes for chunk in chunks] == [
            [[i for i, cut in enumerate(cuts) if len(cut.sender) == size]] for size in sizes
        ]
        assert all(chunk.nbytes == statevec.CHUNK_BYTES for chunk in chunks)
        assert got == tuple(schmidt_spectrum(ghz(16), cut) for cut in cuts)


class TestOneCutCalls:
    """A one-cut call lays the state out with ``_cut_matrix`` alone: it
    builds no cut layout, so it takes every state the size policy allows
    (13 to 24 qubits too) and costs no table on a cold call."""

    @pytest.mark.parametrize(
        "state",
        [ghz(13), haar_random_state(13, seed=2), haar_random_state(MAX_QUBITS, seed=1)],
        ids=["ghz13", "haar13", "haar12"],
    )
    def test_spectrum_and_capacity(self, monkeypatch, state):
        monkeypatch.setattr(statevec, "_cut_layout", _no_layout)
        n = state.num_qubits
        for sender in [(1, 4, 9), tuple(range(1, n + 1, 2))]:
            cut = Partition.from_sender(sender, n)
            spec = schmidt_spectrum(state, cut)
            assert spec.eigenvalues == svd_cut_spectrum(state.amplitudes, n, sender)
            want = min(math.gcd(*(m for _, m in spec.clustered())).bit_length() - 1, n - len(sender))
            assert capacity.teleport_capacity(state, cut) == want

    def test_ghz13_figures(self):
        cut = Partition.from_sender((1, 4, 9), 13)
        assert schmidt_spectrum(ghz(13), cut).clustered() == ((pytest.approx(0.5), 2),)
        assert capacity.teleport_capacity(ghz(13), cut) == 1


class TestCutLayout:
    def test_import_builds_no_table(self):
        probe = (
            "import tmes\n"
            "from tmes import invariants, statevec\n"
            "print(statevec._cut_layout.cache_info().currsize,"
            " invariants._bipartitions.cache_info().currsize)\n"
        )
        src = str(Path(tmes.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.split() == ["0", "0"]

    def test_tables_are_read_only_and_small(self):
        # every table up to MAX_QUBITS qubits, senders of every size
        layouts = [_cut_layout(n, size) for n in range(2, MAX_QUBITS + 1) for size in range(1, n)]
        total = 0
        for layout in layouts:
            for table in (layout.rows, layout.cols):
                with pytest.raises(ValueError, match="read-only"):
                    table[0, 0] = 1
                total += table.nbytes
        assert total < 4 * 2**20
        assert _cut_layout(6, 3) is _cut_layout(6, 3)

    def test_layout_lists_every_cut_in_combinations_order(self):
        layout = _cut_layout(6, 2)
        senders = list(combinations(range(1, 7), 2))
        assert [tuple(sorted(cut.sender)) for cut in layout.cuts] == senders
        assert [layout.position[cut.sender] for cut in layout.cuts] == list(range(15))

    @pytest.mark.parametrize("n", [MAX_QUBITS + 1, 10**18])
    def test_cap_is_checked_before_building(self, n):
        before = _cut_layout.cache_info().currsize
        with pytest.raises(ValueError, match=f"capped at {MAX_QUBITS} qubits, got {n}"):
            _cut_layout(n, 1)
        assert _cut_layout.cache_info().currsize == before


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

    def test_capacity_is_the_least_run_valuation(self):
        # _capacity stops at the first odd run; it must still equal
        # min(v2(gcd of the cluster_values multiplicities), receivers).
        # Rows step down by factors on either side of 1 - CLUSTER_RTOL, a
        # few ulps apart, with zero and sub-EXACT_ATOL tails, scaled to sum 1.
        rng = np.random.default_rng(7)
        factors = [0.0, 0.5, 0.99, 1.0, 1.01, 2.0, 1e6]
        rows = []
        for _ in range(3000):
            row = [rng.uniform(0.05, 1.0)]
            for _ in range(5):
                v = row[-1] * (1 - statevec.CLUSTER_RTOL * rng.choice(factors))
                for _ in range(rng.integers(-3, 4)):
                    v = np.nextafter(v, np.inf if rng.random() < 0.5 else 0.0)
                row.append(min(float(v), row[-1]))
            cut = rng.integers(3, 7)
            row[cut:] = [rng.choice([0.0, EXACT_ATOL, 1e-20])] * (6 - cut)
            rows.append((np.array(row) / sum(row)).tolist())
        # a pair exactly on the boundary, lam_0 - lam_1 == CLUSTER_RTOL * lam_0
        on = [float.fromhex("0x1.333334dda4000p-2"), float.fromhex("0x1.333332da3e980p-2")]
        assert on[0] - on[1] == statevec.CLUSTER_RTOL * on[0]
        rest = 1.0 - on[0] - on[1]
        rows += [on + [rest / 2] * 2, [rest] + on, on + [rest / 2] * 2 + [0.0]]
        # a first run of even length, then an odd one (or none)
        rows += [
            [0.25, 0.25, 0.2, 0.2, 0.1],
            [0.3, 0.3, 0.2, 0.1, 0.1],
            [0.2] * 4 + [0.1] * 2,
            [0.25] * 2 + [0.125] * 4,
            [0.125] * 8,
        ]
        seen = []
        for row in rows:
            spectrum = SchmidtSpectrum(tuple(row))
            mults = [m for _, m in cluster_values(row)]
            v2 = two_adic(math.gcd(*mults))
            for receivers in range(1, 7):
                assert capacity._capacity(spectrum, receivers) == min(v2, receivers), row
            seen.append((mults[0] % 2, v2))
        # (parity of the first run, v2): rows with capacity, and rows whose
        # first run is even but a later one odd
        assert seen[-8:] == [(0, 1), (1, 0), (0, 0), (0, 0), (0, 0), (0, 1), (0, 1), (0, 3)]
        assert sum(v2 > 0 for _, v2 in seen) > 100
        assert seen.count((0, 0)) > 100

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
        # A threshold is a parameter only where it defines a figure: the
        # product test of genuine multipartiteness.  Message counts, the
        # verdicts built on them and what asserts, builds, compares or
        # reports decide at ATOL.  sdc_max_messages keeps a ``tol`` that
        # names ATOL and refuses any other value: perfbench/spans.py reads a
        # call's threshold from its third argument.
        takes = {
            name
            for name, params in _public_signatures()
            if {"tol", "atol", "tolerance"} & set(params)
        }
        assert takes == {"genuine_multipartite", "sdc_max_messages"}
        # Private helpers too: no def in src/ takes a parameter named tol
        # but those two.
        defs = {
            where
            for node, _, where in _src_nodes()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and "tol" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
        }
        assert defs == {"invariants.genuine_multipartite", "capacity.sdc_max_messages"}
        assert "tolerance" not in inspect.signature(tmes.ClaimConfig).parameters
        assert list(inspect.signature(tmes.build_sdc_codebook).parameters) == [
            "state", "sender_set", "num_messages"
        ]

    def test_one_clustering_rule(self):
        # The joining test is written once: in src/, CLUSTER_RTOL is read
        # only by the run generator and by the spectrum comparison.  A read
        # outside any function is filed under its module.
        readers = set()
        for node, _, where in _src_nodes():
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name == "CLUSTER_RTOL" and isinstance(node.ctx, ast.Load):
                readers.add(where)
        assert readers == {"statevec._cluster_runs", "invariants.spectra_match"}

    def test_one_chunk_rule(self):
        # Only _cut_stacks splits a scan over many cuts into chunks: in src/,
        # it alone reads CHUNK_BYTES, and only statevec binds the name (by
        # assignment or import), so capacity neither defines nor imports it.
        readers, binders = set(), set()
        for node, module, where in _src_nodes():
            if isinstance(node, ast.alias) and node.name == "CHUNK_BYTES":
                binders.add(module)
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name == "CHUNK_BYTES":
                (readers if isinstance(node.ctx, ast.Load) else binders).add(where)
        assert readers == {"statevec._cut_stacks"}
        assert binders == {"statevec"}

    def test_one_integer_rule(self):
        # Every integer a caller hands the library passes statevec._integer,
        # and every integer it reads from text statevec._integer_text, the
        # one function of each name.  int() is called only by those two and
        # on numpy scalars the library computes itself: a silent int() on a
        # caller's count, index, label or qubit, or on text, fails here.
        defined, callers = set(), set()
        for node, _, where in _src_nodes():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in ("_integer", "_integer_text"):
                defined.add(where)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "int":
                callers.add(where)
        assert defined == {"statevec._integer", "statevec._integer_text"}
        assert callers == {
            "statevec._integer",
            "statevec._integer_text",
            # numpy scalars the library computed
            "capacity._coset_pivots",
            "capacity.simulate_sdc",
            "operators.independence_rank",
        }


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
