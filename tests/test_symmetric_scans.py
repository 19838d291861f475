"""Scans over many cuts of a state with runs of exchangeable qubits.

Neighbours q and q + 1 share a run when swapping them fixes the state bit
for bit.  Two cuts whose senders take the same count from every run have
the same cut matrix, so ``_cut_stacks`` yields one matrix per such class: a
state fixed by every qubit permutation is one run, with one class per
sender size.  Every scan must still equal the one-cut calls to the bit, and
a swap that fixes the state only by value, up to a phase or within rounding
must not join a run.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import tmes
from oracles import brute_runs, run_counts
from tmes import capacity, invariants, statevec
from tmes.capacity import (
    TmesVerdict,
    cut_reports,
    haar_random_state,
    haar_random_unitary,
    is_tmes,
    sdc_max_messages,
    teleport_capacity,
    tmes_verdict,
)
from tmes.invariants import (
    CutViolation,
    all_bipartition_spectra,
    all_bipartitions,
    conversion_obstruction,
    genuine_multipartite,
    spectra_match,
)
from tmes.statevec import (
    ATOL, LocalOperator, Partition, PureState, apply_local, cut_spectra, schmidt_spectrum, tensor,
)
from tmes.states import basis_state, bell, bell_product, ghz

_CLIFFORDS = (
    np.eye(2),
    np.array([[1, 1], [1, -1]]) / math.sqrt(2),
    np.diag([1, 1j]),
    np.array([[1, 1j], [1, -1j]]) / math.sqrt(2),
)


def dicke(n: int, k: int, dressed: bool = False) -> PureState:
    """The uniform superposition of the weight-k strings on n qubits, from
    its amplitudes; dressed, qubit q also gets the local Clifford (I, H, S,
    HS)[q mod 4], which keeps every figure but no qubit symmetry."""
    weight = np.array([x.bit_count() for x in range(2**n)])
    state = PureState(n, (weight == k) / math.sqrt(math.comb(n, k)))
    for q in range(1, n + 1) if dressed else ():
        state = apply_local(state, LocalOperator(1, _CLIFFORDS[q % 4]), (q,))
    return state


def _with(state: PureState, index: int, value: complex) -> PureState:
    amps = state.amplitudes.copy()
    amps[index] = value
    return PureState(state.num_qubits, amps)


def _image(state: PureState, qubits: tuple[int, ...], seed: int) -> PureState:
    """``state`` under a seeded Haar unitary on ``qubits``."""
    u = haar_random_unitary(2 ** len(qubits), np.random.default_rng(seed))
    return apply_local(state, LocalOperator(len(qubits), u), qubits)


def _one_run_less(n: int, index: int) -> tuple[tuple[int, ...], ...]:
    """The runs of a one-run n-qubit state after amplitude ``index`` alone
    changes: the swap of q and q + 1 moves that amplitude, and so no longer
    fixes the state, exactly when the two bits of ``index`` differ."""
    runs = [[1]]
    for q in range(1, n):
        if (index >> (n - q)) & 1 == (index >> (n - q - 1)) & 1:
            runs[-1].append(q + 1)
        else:
            runs.append([q + 1])
    return tuple(map(tuple, runs))


def _cases(pairs):
    return [pytest.param(state, id=name) for name, state in pairs]


# Fixed by every qubit permutation, bit for bit.
SYMMETRIC = (
    [("bell", bell()), ("bell:psi+", bell("psi+"))]
    + [(f"ghz:{n}", ghz(n)) for n in range(3, 13)]
    + [(f"basis:{b * n}", basis_state(b * n)) for b in "01" for n in (2, 5, 8)]
    + [(f"dicke({n},{k})", dicke(n, k)) for n in range(2, 11) for k in range(1, n)]
)

# Those whose one clique search (if any) is quick: dicke(9, 2) and
# dicke(10, 2..8) run searches of 3 s or more.
QUICK_VERDICT = [
    (name, state) for name, state in SYMMETRIC
    if not name.startswith("dicke") or state.num_qubits <= 8 or name.endswith(
        (",1)", f",{state.num_qubits - 1})")
    )
]

# One-run states with one amplitude changed to a value equal to it, or one
# ulp off: (name, state, index changed).
ONE_ENTRY_OFF = [
    # -0.0 == 0.0, so the scalar comparisons pass
    ("ghz:4 with -0.0 at 2", _with(ghz(4), 2, complex(-0.0, 0.0)), 2),
    ("ghz:5 with -0.0j at 12", _with(ghz(5), 12, complex(0.0, -0.0)), 12),
    ("dicke(6,1) one ulp off at 4", _with(dicke(6, 1), 4, np.nextafter(dicke(6, 1).amplitudes[4].real, 1.0)), 4),
    ("dicke(7,3) one ulp off at 7", _with(dicke(7, 3), 7, np.nextafter(dicke(7, 3).amplitudes[7].real, 0.0)), 7),
    ("dicke(6,1) one ulp off at 1", _with(dicke(6, 1), 1, np.nextafter(dicke(6, 1).amplitudes[1].real, 1.0)), 1),
]

# Symmetric by value, up to a global phase or within one ulp: a swap that
# fixes the state only so joins no run.
NEAR_MISSES = [(name, state) for name, state, _ in ONE_ENTRY_OFF] + [
    # swapping its qubits gives -psi
    ("bell:psi-", bell("psi-")),
] + [(f"dicke({n},1) dressed", dicke(n, 1, dressed=True)) for n in (6, 7, 8)]

# States with planted runs: 1- and 2-qubit Haar images of Dicke states, a
# GHZ state beside a Haar pair in both orders, and Bell-pair products.
PLANTED = (
    [(f"dicke({n},{k}) image on {qubits}", _image(dicke(n, k), qubits, 10 * n + k))
     for n in range(4, 11) for k in (1, 2) for qubits in [(1,), (1, 2), (2, 3), (n,)]]
    + [(f"ghz:{n} x haar2", tensor(ghz(n), haar_random_state(2, seed=n))) for n in range(3, 11)]
    + [(f"haar2 x ghz:{n}", tensor(haar_random_state(2, seed=n), ghz(n))) for n in range(3, 11)]
    + [(f"bell_product:{m}", bell_product(m)) for m in range(2, 6)]
)


def _classes(state: PureState, cuts) -> int:
    """How many classes the oracle's runs split ``cuts`` into."""
    runs = brute_runs(state.amplitudes, state.num_qubits)
    return len({(len(cut.sender), run_counts(runs, cut.sender)) for cut in cuts})


def _balanced(n: int) -> list[Partition]:
    return [Partition.from_sender(s, n) for s in combinations(range(1, n + 1), (n + 1) // 2)]


class TestDetection:
    @pytest.mark.parametrize("state", _cases(SYMMETRIC))
    def test_symmetric(self, state):
        one_run = (tuple(range(1, state.num_qubits + 1)),)
        assert statevec._qubit_runs(state) == brute_runs(state.amplitudes, state.num_qubits) == one_run

    @pytest.mark.parametrize("state", _cases(NEAR_MISSES))
    def test_near_misses(self, state):
        n = state.num_qubits
        runs = statevec._qubit_runs(state)
        assert runs == brute_runs(state.amplitudes, n)
        assert len(runs) > 1

    @pytest.mark.parametrize("state,index", [pytest.param(s, i, id=name) for name, s, i in ONE_ENTRY_OFF])
    def test_one_entry_breaks_exactly_the_swaps_it_touches(self, state, index):
        want = _one_run_less(state.num_qubits, index)
        assert statevec._qubit_runs(state) == brute_runs(state.amplitudes, state.num_qubits) == want

    @pytest.mark.parametrize("state", _cases(PLANTED))
    def test_planted(self, state):
        assert statevec._qubit_runs(state) == brute_runs(state.amplitudes, state.num_qubits)

    def test_a_generic_state_pays_scalar_comparisons(self, monkeypatch):
        # On a Haar state every pair fails its scalar test: no swap is
        # compared in full.
        monkeypatch.setattr(np, "array_equal", lambda *a: pytest.fail("a swap was compared in full"))
        for n in range(2, 13):
            state = haar_random_state(n, seed=n)
            assert statevec._qubit_runs(state) == tuple((q,) for q in range(1, n + 1))

    def test_skipped_when_no_size_has_two_cuts(self, monkeypatch):
        # one cut per sender size, 13 qubits included: no cut can share,
        # so no run is looked for
        def refuse(state):
            raise AssertionError("detection ran")

        monkeypatch.setattr(statevec, "_qubit_runs", refuse)
        for n in (4, 13):
            cuts = [Partition.from_sender(range(1, s + 1), n) for s in range(1, n)]
            assert cut_spectra(ghz(n), cuts) == tuple(schmidt_spectrum(ghz(n), c) for c in cuts)


class TestSharedSpectra:
    @pytest.mark.parametrize("state", _cases(SYMMETRIC))
    def test_every_scan_equals_one_cut_calls(self, cut_stack_spy, state):
        n = state.num_qubits
        cuts = all_bipartitions(n)
        want = tuple(schmidt_spectrum(state, cut) for cut in cuts)
        got = cut_spectra(state, cuts)
        assert got == want
        assert cut_spectra(state, cuts[::-1]) == want[::-1]
        assert all_bipartition_spectra(state) == dict(zip(cuts, want))
        # one matrix per sender size in each of the three calls, and one
        # frozen spectrum that every cut of the size shares
        sizes = {len(cut.sender) for cut in cuts}
        assert cut_stack_spy.matrices() == 3 * len(sizes)
        for size in sizes:
            assert len({id(s) for cut, s in zip(cuts, got) if len(cut.sender) == size}) == 1
        largest = max(s.eigenvalues[0] for s in want)
        assert genuine_multipartite(state) is (largest < 1.0 - ATOL)

    @pytest.mark.parametrize(
        "state",
        _cases([(name, state) for name, state in SYMMETRIC
                if not name.startswith("dicke") and state.num_qubits <= 10]
               + [(f"dicke({n},{k})", dicke(n, k)) for n in (4, 7, 10) for k in (1, n // 2)]),
    )
    def test_obstruction_equals_one_cut_calls(self, state):
        # 11 and 12 qubits would take seconds of one-cut SVDs; the test
        # above checks their spectra
        n = state.num_qubits
        rng = np.random.default_rng(n)
        image = apply_local(state, LocalOperator(2, haar_random_unitary(4, rng)), (1, 2))
        for target in (image, dicke(n, 1)):
            for subset in [(1, 2), (n,)]:
                cuts = [c for c in all_bipartitions(n) if set(subset) <= c.sender or set(subset) <= c.receiver]
                want = []
                for cut in cuts:
                    a, b = schmidt_spectrum(state, cut), schmidt_spectrum(target, cut)
                    if not spectra_match(a, b):
                        want.append(CutViolation(cut, a, b))
                assert conversion_obstruction(state, target, subset).violated_cuts == tuple(want)


class TestSharedReports:
    @pytest.mark.parametrize("state", _cases(QUICK_VERDICT))
    def test_reports_equal_one_cut_calls(self, cut_stack_spy, monkeypatch, state):
        n = state.num_qubits
        cuts = _balanced(n)
        reports = list(cut_reports(state))
        assert [r.cut for r in reports] == cuts
        assert cut_stack_spy.matrices() == 1
        for report in reports:
            assert report.spectrum == schmidt_spectrum(state, report.cut)
            assert report.capacity == teleport_capacity(state, report.cut)
        assert len({(id(r.spectrum), r.capacity, r.messages) for r in reports}) == 1
        # A one-cut count on each of the 252 cuts of dicke(10,1) would run
        # the 2.6 s of clique searches that sharing saves: check a spread.
        for report in reports[:: max(len(reports) // 6, 1)] + reports[-1:]:
            assert report.messages == sdc_max_messages(state, report.cut.sender)
        verdict = is_tmes(state)
        assert verdict == tmes_verdict(reports)
        # the general path's verdict, where it is quick (the dressed Dicke
        # test below pins dicke(9,1) and dicke(10,1))
        if n <= 8:
            monkeypatch.setattr(statevec, "_qubit_runs", lambda state: tuple((q,) for q in range(1, n + 1)))
            assert is_tmes(state) == verdict


class TestNearMisses:
    @pytest.mark.parametrize("state", _cases(NEAR_MISSES))
    def test_every_cut_is_scored(self, cut_stack_spy, state):
        # Each class of the oracle's runs is scored once, and every cut gets
        # its one-cut figures.
        n = state.num_qubits
        reports = list(cut_reports(state))
        assert cut_stack_spy.matrices() == _classes(state, [r.cut for r in reports])
        for report in reports:
            assert report.spectrum == schmidt_spectrum(state, report.cut)
            assert report.capacity == teleport_capacity(state, report.cut)
            assert report.messages == sdc_max_messages(state, report.cut.sender)
        cuts = all_bipartitions(n)
        assert cut_spectra(state, cuts) == tuple(schmidt_spectrum(state, c) for c in cuts)
        assert cut_stack_spy.matrices() == _classes(state, [r.cut for r in reports]) + _classes(state, cuts)

    @pytest.mark.parametrize("n", range(6, 11))
    def test_dressed_dicke_verdict_is_the_plain_one(self, cut_stack_spy, n):
        plain = is_tmes(dicke(n, 1))
        assert cut_stack_spy.matrices() == 1
        assert is_tmes(dicke(n, 1, dressed=True)) == plain
        assert cut_stack_spy.matrices() == 1 + math.comb(n, (n + 1) // 2)


class TestPlanted:
    """On states with planted runs every scan equals the one-cut calls, bit
    for bit, having formed one matrix per class."""

    @pytest.mark.parametrize("state", _cases(PLANTED))
    def test_scans_equal_one_cut_calls(self, cut_stack_spy, state):
        n = state.num_qubits
        cuts = all_bipartitions(n)
        want = {cut: schmidt_spectrum(state, cut) for cut in cuts}
        assert cut_spectra(state, cuts) == tuple(want.values())
        assert all_bipartition_spectra(state) == want
        assert cut_stack_spy.matrices() == 2 * _classes(state, cuts)
        largest = max(s.eigenvalues[0] for s in want.values())
        assert genuine_multipartite(state) is (largest < 1.0 - ATOL)
        target = _image(state, (1, 2), n)
        for subset in [(1, 2), (n,)]:
            kept = [c for c in cuts if set(subset) <= c.sender or set(subset) <= c.receiver]
            expected = []
            for cut in kept:
                b = schmidt_spectrum(target, cut)
                if not spectra_match(want[cut], b):
                    expected.append(CutViolation(cut, want[cut], b))
            assert conversion_obstruction(state, target, subset).violated_cuts == tuple(expected)

    @pytest.mark.parametrize("state", _cases([(name, s) for name, s in PLANTED if s.num_qubits <= 7]))
    def test_reports_equal_one_cut_calls(self, cut_stack_spy, state):
        reports = list(cut_reports(state))
        assert [r.cut for r in reports] == _balanced(state.num_qubits)
        assert cut_stack_spy.matrices() == _classes(state, [r.cut for r in reports])
        for report in reports:
            assert report.spectrum == schmidt_spectrum(state, report.cut)
            assert report.capacity == teleport_capacity(state, report.cut)
            assert report.messages == sdc_max_messages(state, report.cut.sender)
        assert is_tmes(state) == tmes_verdict(reports)

    def test_obstruction_matches_each_class_pair_once(self, monkeypatch):
        # ghz:10 and its image on (1, 2): the image's runs are {1}, {2},
        # {3..10}, so the 255 cuts that keep (1, 2) on one side fall into 8
        # pairs of classes, each compared once.
        calls = []
        match = invariants.spectra_match
        monkeypatch.setattr(invariants, "spectra_match", lambda a, b: calls.append((a, b)) or match(a, b))
        source = ghz(10)
        report = conversion_obstruction(source, _image(source, (1, 2), 10), (1, 2))
        assert not report.obstructed
        assert len(calls) == 8


class TestWork:
    """The work a shared scan does, counted and timed."""

    @staticmethod
    def _svd_rows(monkeypatch) -> list[int]:
        rows = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            rows.append(math.prod(np.shape(a)[:-2]))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        return rows

    def test_ghz12_verdict_forms_one_matrix(self, cut_stack_spy, monkeypatch):
        rows = self._svd_rows(monkeypatch)
        assert is_tmes(ghz(12)) == TmesVerdict(False, 1, 128, None)
        assert [chunk.shape for call in cut_stack_spy for chunk in call.chunks] == [(1, 64, 64)]
        assert rows == [1]

    def test_ghz10_spectra_take_one_svd_row_per_size(self, monkeypatch):
        rows = self._svd_rows(monkeypatch)
        assert len(all_bipartition_spectra(ghz(10))) == 511
        assert rows == [1] * 5

    def test_ghz12_image_verdict_forms_four_matrices(self, cut_stack_spy, monkeypatch):
        # The image of ghz:12 under a Haar unitary on (1, 2) has runs {1},
        # {2}, {3..12}: its 924 balanced cuts fall into 4 classes.
        searches = []
        search = capacity._max_clique
        monkeypatch.setattr(capacity, "_max_clique", lambda adj: searches.append(adj) or search(adj))
        assert is_tmes(_image(ghz(12), (1, 2), 12)) == TmesVerdict(False, 1, 128, None)
        assert cut_stack_spy.matrices() == 4
        assert len(searches) <= 4

    def test_dicke10_verdict_runs_one_clique_search(self, monkeypatch):
        searches = []
        search = capacity._max_clique
        monkeypatch.setattr(capacity, "_max_clique", lambda adj: searches.append(adj) or search(adj))
        assert is_tmes(dicke(10, 1)) == TmesVerdict(False, 1, 64, None)
        assert len(searches) == 1

    def test_verdict_times_on_one_blas_thread(self):
        # best of three, in a process whose BLAS runs one thread
        probe = (
            "import math, time\n"
            "import numpy as np\n"
            "from tmes.capacity import is_tmes\n"
            "from tmes.states import ghz\n"
            "from tmes.statevec import PureState\n"
            "weight = np.array([x.bit_count() for x in range(1024)])\n"
            "states = [ghz(12), PureState(10, (weight == 1) / math.sqrt(10))]\n"
            "for state in states:\n"
            "    took = []\n"
            "    for _ in range(3):\n"
            "        start = time.perf_counter()\n"
            "        is_tmes(state)\n"
            "        took.append(time.perf_counter() - start)\n"
            "    print(min(took))\n"
        )
        src = str(Path(tmes.__file__).resolve().parents[1])
        one = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, **one, "PYTHONPATH": src},
        )
        ghz12, dicke10 = map(float, out.stdout.split())
        assert ghz12 < 0.05
        assert dicke10 < 0.1
