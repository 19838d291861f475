"""Scans over many cuts of a qubit-symmetric state.

A state fixed bit for bit by every qubit permutation has one cut matrix per
sender size, so ``_cut_stacks`` yields that one matrix for every cut of the
size.  Every scan must still equal the one-cut calls to the bit, and a state
that is symmetric only by value, up to a phase or within rounding must take
the general path.
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
from tmes import capacity, statevec
from tmes.capacity import (
    TmesVerdict,
    cut_reports,
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
from tmes.statevec import ATOL, LocalOperator, Partition, PureState, apply_local, cut_spectra, schmidt_spectrum
from tmes.states import basis_state, bell, ghz

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

# Symmetric by value, up to a global phase or within one ulp: no bit-for-bit
# symmetry, so every cut is scored.
NEAR_MISSES = [
    # -0.0 == 0.0, so the scalar comparison of amplitudes 1 and 2 passes
    ("ghz:4 with -0.0 at 2", _with(ghz(4), 2, complex(-0.0, 0.0))),
    ("ghz:5 with -0.0j at 12", _with(ghz(5), 12, complex(0.0, -0.0))),
    # swapping its qubits gives -psi
    ("bell:psi-", bell("psi-")),
    ("dicke(6,1) one ulp off at 4", _with(dicke(6, 1), 4, np.nextafter(dicke(6, 1).amplitudes[4].real, 1.0))),
    ("dicke(7,3) one ulp off at 7", _with(dicke(7, 3), 7, np.nextafter(dicke(7, 3).amplitudes[7].real, 0.0))),
    ("dicke(6,1) one ulp off at 1", _with(dicke(6, 1), 1, np.nextafter(dicke(6, 1).amplitudes[1].real, 1.0))),
] + [(f"dicke({n},1) dressed", dicke(n, 1, dressed=True)) for n in (6, 7, 8)]


def _balanced(n: int) -> list[Partition]:
    return [Partition.from_sender(s, n) for s in combinations(range(1, n + 1), (n + 1) // 2)]


class TestDetection:
    @pytest.mark.parametrize("state", _cases(SYMMETRIC))
    def test_symmetric(self, state):
        assert statevec._qubit_symmetric(state)

    @pytest.mark.parametrize("state", _cases(NEAR_MISSES))
    def test_near_misses(self, state):
        assert not statevec._qubit_symmetric(state)

    def test_skipped_when_no_size_has_two_cuts(self, monkeypatch):
        # one cut per sender size, 13 qubits included: nothing is shared,
        # so nothing is tested
        def refuse(state):
            raise AssertionError("detection ran")

        monkeypatch.setattr(statevec, "_qubit_symmetric", refuse)
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
            monkeypatch.setattr(statevec, "_qubit_symmetric", lambda state: False)
            assert is_tmes(state) == verdict


class TestNearMisses:
    @pytest.mark.parametrize("state", _cases(NEAR_MISSES))
    def test_every_cut_is_scored(self, cut_stack_spy, state):
        n = state.num_qubits
        reports = list(cut_reports(state))
        assert cut_stack_spy.matrices() == math.comb(n, (n + 1) // 2)
        cuts = all_bipartitions(n)
        assert cut_spectra(state, cuts) == tuple(schmidt_spectrum(state, c) for c in cuts)
        assert cut_stack_spy.matrices() == len(reports) + len(cuts)

    @pytest.mark.parametrize("n", range(6, 11))
    def test_dressed_dicke_verdict_is_the_plain_one(self, cut_stack_spy, n):
        plain = is_tmes(dicke(n, 1))
        assert cut_stack_spy.matrices() == 1
        assert is_tmes(dicke(n, 1, dressed=True)) == plain
        assert cut_stack_spy.matrices() == 1 + math.comb(n, (n + 1) // 2)


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
