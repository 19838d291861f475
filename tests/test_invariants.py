"""Bipartition enumeration, spectral conversion obstructions, GME checks."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_genuine_multipartite, brute_spectrum
from tmes import invariants, statevec
from tmes.capacity import haar_random_state
from tmes.claims import VERDICTS
from tmes.invariants import (
    ObstructionReport,
    OrthogonalFamily,
    all_bipartition_spectra,
    all_bipartitions,
    conversion_obstruction,
    genuine_multipartite,
    orthogonal_family,
    spectra_match,
)
from tmes.statevec import (
    ATOL,
    MAX_QUBITS,
    Partition,
    PureState,
    SchmidtSpectrum,
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


class TestBipartitionEnumeration:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 7), (5, 15)])
    def test_counts(self, n, count):
        parts = all_bipartitions(n)
        assert len(parts) == count == 2 ** (n - 1) - 1

    def test_each_split_appears_once(self):
        seen = set()
        for cut in all_bipartitions(5):
            key = frozenset((cut.sender, cut.receiver))
            assert key not in seen
            seen.add(key)

    def test_smaller_side_sends_and_balanced_keeps_qubit_one(self):
        for cut in all_bipartitions(6):
            assert len(cut.sender) <= len(cut.receiver)
            if len(cut.sender) == len(cut.receiver):
                assert 1 in cut.sender

    def test_ordering(self):
        parts = all_bipartitions(4)
        senders = [tuple(sorted(c.sender)) for c in parts]
        assert senders == [
            (1,), (2,), (3,), (4,),
            (1, 2), (1, 3), (1, 4),
        ]

    def test_needs_two_qubits(self):
        with pytest.raises(ValueError):
            all_bipartitions(1)

    def test_memoised(self):
        assert all_bipartitions(6) is all_bipartitions(6)

    @pytest.mark.parametrize("n", [MAX_QUBITS + 1, 10**18])
    def test_cap_is_checked_before_enumerating(self, monkeypatch, n):
        def refuse(*args):
            raise AssertionError("enumerated beyond the cap")

        monkeypatch.setattr(statevec, "combinations", refuse)
        before = invariants._bipartitions.cache_info().currsize
        with pytest.raises(ValueError, match=f"capped at {MAX_QUBITS} qubits, got {n}"):
            all_bipartitions(n)
        assert invariants._bipartitions.cache_info().currsize == before


class TestSpectraEnumeration:
    def test_matches_brute_force(self):
        state = haar_random_state(4, seed=21)
        spectra = all_bipartition_spectra(state)
        assert len(spectra) == 7
        for cut, spec in spectra.items():
            want = brute_spectrum(state.amplitudes, 4, tuple(sorted(cut.sender)))
            assert np.allclose(spec.eigenvalues, want, atol=1e-9)

    def test_qubit_guard(self):
        amps = np.zeros(2 ** (MAX_QUBITS + 1))
        amps[0] = 1.0
        with pytest.raises(ValueError, match=f"capped at {MAX_QUBITS} qubits"):
            all_bipartition_spectra(PureState(MAX_QUBITS + 1, amps))


class TestSpectraMatch:
    def test_rank_mismatch(self):
        assert not spectra_match(
            SchmidtSpectrum((1.0,)), SchmidtSpectrum((0.5, 0.5))
        )

    def test_relative_tolerance(self):
        a = SchmidtSpectrum((0.5, 0.5))
        b = SchmidtSpectrum((0.5 + 2e-8, 0.5 - 2e-8))
        c = SchmidtSpectrum((0.6, 0.4))
        assert spectra_match(a, b)
        assert not spectra_match(a, c)

    def test_tiny_values_absorbed_by_absolute_floor(self):
        a = SchmidtSpectrum((1.0 - 1e-13, 1e-13))
        b = SchmidtSpectrum((1.0 - 2e-13, 2e-13))
        assert spectra_match(a, b)


class TestConversionObstruction:
    def test_two_qubit_gate_cannot_reach_ghz4_from_pairs(self):
        report = conversion_obstruction(bell_product(2), ghz(4), (1, 3))
        assert report.obstructed
        violated = {tuple(sorted(v.cut.sender)) for v in report.violated_cuts}
        # single-qubit cuts agree (both sides maximally mixed); only the
        # balanced cut separating the gate's qubits differs: rank 4 vs 2
        assert violated == {(1, 3)}
        (violation,) = report.violated_cuts
        assert violation.source_spectrum.rank == 4
        assert violation.target_spectrum.rank == 2

    def test_ancilla_pairs_cannot_reach_w2(self):
        target = w_state(2)
        source = odd_resource(1)
        for subset in ((1, 2), (1, 3), (2, 3)):
            assert conversion_obstruction(source, target, subset).obstructed

    def test_constructive_route_is_unobstructed(self):
        report = conversion_obstruction(bell_product(2), cluster4(), (1, 3))
        assert not report.obstructed
        assert report.violated_cuts == ()

    def test_self_conversion_never_obstructed(self):
        for state in (chi(), cluster5(), hs()):
            n = state.num_qubits
            report = conversion_obstruction(state, state, (1, n))
            assert not report.obstructed

    def test_only_subset_preserving_cuts_inspected(self):
        # acting on everything leaves no cut with the subset on one side
        report = conversion_obstruction(bell_product(2), ghz(4), (1, 2, 3, 4))
        assert not report.obstructed

    def test_validation(self):
        with pytest.raises(ValueError):
            conversion_obstruction(bell(), ghz(3), (1,))
        with pytest.raises(ValueError):
            conversion_obstruction(bell(), bell(), ())
        with pytest.raises(ValueError):
            conversion_obstruction(bell(), bell(), (3,))

    def test_report_shape(self):
        report = ObstructionReport(frozenset({1}), ())
        assert not report.obstructed

    def test_qubit_guard(self):
        amps = np.zeros(2 ** (MAX_QUBITS + 1))
        amps[0] = 1.0
        state = PureState(MAX_QUBITS + 1, amps)
        with pytest.raises(ValueError, match=f"capped at {MAX_QUBITS} qubits"):
            conversion_obstruction(state, state, (1,))


def _near_product(n: int, delta: float) -> PureState:
    """sqrt(1 - delta)|0>|a> + sqrt(delta)|1>|b> with orthonormal (n-1)-qubit
    a, b: the Bell states phi+ and phi- for n = 3, else seeded Haar states."""
    if n == 3:
        a = np.array([1, 0, 0, 1]) / math.sqrt(2)
        b = np.array([1, 0, 0, -1]) / math.sqrt(2)
    else:
        a = haar_random_state(n - 1, seed=11).amplitudes
        b = haar_random_state(n - 1, seed=12).amplitudes
        b = b - np.vdot(a, b) * a
        b = b / np.linalg.norm(b)
    return PureState(n, np.concatenate([math.sqrt(1 - delta) * a, math.sqrt(delta) * b]))


_GME_SPECS = [spec for spec in VERDICTS if make_state(parse_spec(spec)).num_qubits <= 5]


@st.composite
def _gme_cases(draw):
    """A seeded Haar state, a catalog state or a product of two Haar states
    (qubits permuted), on 2-5 qubits, with a tolerance."""
    kind = draw(st.sampled_from(["haar", "catalog", "product"]), label="kind")
    seed = draw(st.integers(0, 10**6), label="seed")
    if kind == "catalog":
        state = make_state(parse_spec(draw(st.sampled_from(_GME_SPECS), label="spec")))
    elif kind == "haar":
        state = haar_random_state(draw(st.integers(2, 5), label="n"), seed)
    else:
        left = draw(st.integers(1, 3), label="left")
        right = draw(st.integers(1, 5 - left), label="right")
        state = tensor(haar_random_state(left, seed), haar_random_state(right, seed + 1))
        order = draw(st.permutations(range(state.num_qubits)), label="order")
        amps = state.tensor_view().transpose(order).reshape(-1)
        state = PureState(state.num_qubits, amps)
    tol = draw(st.sampled_from([ATOL, 1e-3, 0.1, 0.3]), label="tol")
    return state, tol


class TestGenuineMultipartite:
    @pytest.mark.parametrize(
        "state,expected",
        [
            (ghz(3), True),
            (ghz(4), True),
            (cluster4(), True),
            (cluster5(), True),
            (chi(), True),
            (hs(), True),
            (w_state(2), True),
            (bell_product(2), False),
            (odd_resource(1), False),
            (basis_state("000"), False),
            (tensor(bell(), basis_state("0")), False),
        ],
    )
    def test_table(self, state, expected):
        assert genuine_multipartite(state) is expected

    @pytest.mark.parametrize("tol", [-1e-9, 1.0, math.nan, math.inf])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match=r"tol must lie in \[0, 1\)"):
            genuine_multipartite(ghz(3), tol)

    def test_qubit_guard(self):
        amps = np.zeros(2 ** (MAX_QUBITS + 1))
        amps[0] = 1.0
        with pytest.raises(ValueError, match=f"capped at {MAX_QUBITS} qubits"):
            genuine_multipartite(PureState(MAX_QUBITS + 1, amps))

    @given(case=_gme_cases())
    @settings(max_examples=40)
    def test_matches_eigvalsh_oracle(self, case):
        state, tol = case
        want = brute_genuine_multipartite(state.amplitudes, state.num_qubits, tol)
        assert genuine_multipartite(state, tol) is want

    # Cut {1} has Schmidt eigenvalues (1 - delta, delta); every other cut is
    # far from a product.  The purity screen keeps cut {1} only if it
    # bounds lambda_max by sqrt(p): p = (1 - delta)^2 + delta^2 lies below
    # 1 - tol when lambda_max = 1 - tol + 1e-11.
    @pytest.mark.parametrize("tol", [ATOL, 1e-3, 0.25])
    @pytest.mark.parametrize("side", [1, -1], ids=["product", "entangled"])
    @pytest.mark.parametrize("n", [3, 6])
    def test_boundary(self, n, side, tol):
        delta = tol - side * 1e-11
        state = _near_product(n, delta)
        assert genuine_multipartite(state, tol) is (side < 0)
        assert brute_genuine_multipartite(state.amplitudes, n, tol) is (side < 0)


class TestOrthogonalFamily:
    def test_gram_matches_manual_overlaps(self):
        fam = orthogonal_family(ghz(3), (1, 2))
        assert fam.stack.shape == (16, 8)
        assert fam.gram.shape == (16, 16)
        for i in (0, 3, 7):
            for j in (1, 5, 11):
                want = np.vdot(fam.stack[i], fam.stack[j])
                assert fam.gram[i, j] == pytest.approx(want, abs=1e-12)
        assert np.allclose(np.diagonal(fam.gram), 1.0, atol=1e-12)

    def test_cluster4_family_is_orthogonal(self):
        fam = orthogonal_family(cluster4(), (1, 3))
        assert fam.mutually_orthogonal()
        assert np.allclose(fam.gram, np.eye(16), atol=1e-9)

    def test_product_state_family_is_not(self):
        fam = orthogonal_family(basis_state("00"), (1,))
        assert not fam.mutually_orthogonal()
        # sigma0 and sigma3 fix |0>, sigma1 and sigma2 flip it
        pattern = np.abs(fam.gram) > 0.5
        want = np.array(
            [
                [1, 0, 0, 1],
                [0, 1, 1, 0],
                [0, 1, 1, 0],
                [1, 0, 0, 1],
            ],
            dtype=bool,
        )
        assert np.array_equal(pattern, want)

    def test_gram_read_only(self):
        fam = orthogonal_family(bell(), (1,))
        with pytest.raises(ValueError):
            fam.gram[0, 0] = 0.0
        with pytest.raises(ValueError):
            fam.stack[0, 0] = 0.0

    def test_caller_stack_stays_writable_and_apart(self):
        stack = orthogonal_family(bell(), (1,)).stack.copy()
        fam = OrthogonalFamily(frozenset({1}), stack)
        assert stack.flags.writeable
        assert not np.shares_memory(stack, fam.stack)
        gram = fam.gram.copy()
        stack[:] = 0.0
        assert np.array_equal(fam.gram, gram)
        assert np.array_equal(fam.gram, fam.stack.conj() @ fam.stack.T)

    def test_validation(self):
        with pytest.raises(ValueError):
            orthogonal_family(bell(), ())
        with pytest.raises(ValueError):
            orthogonal_family(bell(), (5,))

    def test_size_cap(self):
        # 4^7 states of 2^12 amplitudes would take 1 GiB: refused before
        # the first one is built
        with pytest.raises(ValueError, match="MiB cap"):
            orthogonal_family(basis_state("0" * MAX_QUBITS), range(1, 8))

    def test_size_cap_counts_the_gram_matrix(self):
        # 4^6 states of 2^12 amplitudes are 256 MiB, at the cap, and their
        # Gram matrix 256 MiB more: refused before either is built
        with pytest.raises(ValueError, match="and its Gram matrix is above the 256 MiB cap"):
            orthogonal_family(basis_state("0" * MAX_QUBITS), range(1, 7))
