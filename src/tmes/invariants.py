"""Local-unitary invariants: bipartition spectra, conversion obstructions,
genuine multipartite entanglement, and Pauli relabeling families.

A unitary supported on a qubit subset cannot change the Schmidt spectrum of
any cut that keeps the subset entirely on one side; comparing spectra of a
source and a target state across all such cuts therefore certifies when no
placement of a local gate can realize the conversion.

Every analysis over many cuts takes a state's spectra from one
``statevec.cut_spectra`` call (one batched SVD per sender size);
``genuine_multipartite`` first screens cuts by purity so that only those
that may be products get an SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable

import numpy as np

from .pauli import apply_paulis
from .statevec import (
    ATOL,
    CLUSTER_RTOL,
    EXACT_ATOL,
    MAX_DENSE_BYTES,
    Partition,
    PureState,
    SchmidtSpectrum,
    _cut_stacks,
    check_qubits,
    cut_spectra,
)


@lru_cache(maxsize=None)
def all_bipartitions(num_qubits: int) -> tuple[Partition, ...]:
    """Every unordered bipartition once, smaller side as sender.

    Balanced splits keep the side containing qubit 1.  Ordered by sender
    size, then lexicographically.  Memoised: the tuple of frozen partitions
    depends on ``num_qubits`` alone.
    """
    if num_qubits < 2:
        raise ValueError("bipartitions need at least two qubits")
    parts = []
    for size in range(1, num_qubits // 2 + 1):
        for combo in combinations(range(1, num_qubits + 1), size):
            if 2 * size == num_qubits and combo[0] != 1:
                continue
            parts.append(Partition.from_sender(combo, num_qubits))
    return tuple(parts)


def all_bipartition_spectra(
    state: PureState,
) -> dict[Partition, SchmidtSpectrum]:
    """Schmidt spectrum of every bipartition, keyed by canonical partition."""
    check_qubits(state.num_qubits, "spectra enumeration")
    cuts = all_bipartitions(state.num_qubits)
    return dict(zip(cuts, cut_spectra(state, cuts)))


def spectra_match(
    a: SchmidtSpectrum, b: SchmidtSpectrum, rtol: float = CLUSTER_RTOL
) -> bool:
    """Equal rank and elementwise agreement at relative tolerance."""
    if a.rank != b.rank:
        return False
    av = np.asarray(a.eigenvalues)
    bv = np.asarray(b.eigenvalues)
    return bool(np.all(np.abs(av - bv) <= rtol * np.maximum(av, bv) + EXACT_ATOL))


@dataclass(frozen=True)
class CutViolation:
    """A cut whose spectra differ between source and target."""

    cut: Partition
    source_spectrum: SchmidtSpectrum
    target_spectrum: SchmidtSpectrum


@dataclass(frozen=True)
class ObstructionReport:
    """Cuts ruling out a conversion by a unitary on ``acting_subset``."""

    acting_subset: frozenset[int]
    violated_cuts: tuple[CutViolation, ...]

    @property
    def obstructed(self) -> bool:
        return bool(self.violated_cuts)


def conversion_obstruction(
    source: PureState,
    target: PureState,
    acting_subset: Iterable[int],
    rtol: float = CLUSTER_RTOL,
) -> ObstructionReport:
    """Spectral certificate that no unitary on the subset maps source to target.

    Checks every cut keeping the subset on one side; any spectrum mismatch is
    a violation.  An empty report is necessary but not sufficient for the
    conversion to exist.
    """
    if source.num_qubits != target.num_qubits:
        raise ValueError("source and target must have the same qubit count")
    n = source.num_qubits
    check_qubits(n, "the conversion obstruction")
    if not (math.isfinite(rtol) and rtol >= 0.0):
        raise ValueError(f"rtol must be finite and non-negative, got {rtol}")
    subset = frozenset(int(q) for q in acting_subset)
    if not subset:
        raise ValueError("acting subset is empty")
    if min(subset) < 1 or max(subset) > n:
        raise ValueError(f"acting subset out of range 1..{n}: {sorted(subset)}")
    cuts = [
        cut
        for cut in all_bipartitions(n)
        if subset <= cut.sender or subset <= cut.receiver
    ]
    violations = [
        CutViolation(cut, sa, sb)
        for cut, sa, sb in zip(cuts, cut_spectra(source, cuts), cut_spectra(target, cuts))
        if not spectra_match(sa, sb, rtol)
    ]
    return ObstructionReport(subset, tuple(violations))


def genuine_multipartite(state: PureState, tol: float = ATOL) -> bool:
    """True when no bipartition is a product: every cut's largest Schmidt
    eigenvalue lies below 1 - tol, ``tol`` in [0, 1).

    A purity screen spares most cuts their SVD.  The purity p = ||rho_A||_F^2
    = sum lambda_i^2 of every cut comes from one batched Gram product per
    sender size, and lambda_max <= sqrt(p).  Only cuts with sqrt(p) >=
    1 - tol - EXACT_ATOL (the slack covers rounding in p) get an SVD; every
    cut skipped has lambda_max < 1 - tol, so the answer is that of an SVD on
    every cut.
    """
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"tol must lie in [0, 1), got {tol}")
    check_qubits(state.num_qubits, "the multipartite entanglement test")
    for _, stack in _cut_stacks(state, all_bipartitions(state.num_qubits)):
        gram = stack @ stack.conj().transpose(0, 2, 1)
        purity = np.sum(np.abs(gram) ** 2, axis=(1, 2))
        near = stack[np.sqrt(purity) >= 1.0 - tol - EXACT_ATOL]
        if near.size:
            s = np.linalg.svd(near, compute_uv=False)
            if np.any(np.max(s * s, axis=-1) >= 1.0 - tol):
                return False
    return True


@dataclass(frozen=True, eq=False)
class OrthogonalFamily:
    """All Pauli-string relabelings of a state on a subset, with their Gram
    matrix (indexed by Pauli label)."""

    subset: frozenset[int]
    states: tuple[PureState, ...]
    gram: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.gram, dtype=complex)
        g.setflags(write=False)
        object.__setattr__(self, "subset", frozenset(self.subset))
        object.__setattr__(self, "gram", g)

    def mutually_orthogonal(self, tol: float = ATOL) -> bool:
        off = self.gram - np.diag(np.diagonal(self.gram))
        return bool(np.max(np.abs(off)) <= tol)


def orthogonal_family(state: PureState, subset: Iterable[int]) -> OrthogonalFamily:
    """Apply all 4^|subset| Pauli strings on the subset and collect overlaps.

    Refused before allocating when the 4^|subset| states exceed MAX_DENSE_BYTES.
    """
    qubits = tuple(sorted({int(q) for q in subset}))
    n = state.num_qubits
    if not qubits:
        raise ValueError("subset is empty")
    if qubits[0] < 1 or qubits[-1] > n:
        raise ValueError(f"subset out of range 1..{n}: {qubits}")
    if 16 * 4 ** len(qubits) * 2**n > MAX_DENSE_BYTES:
        raise ValueError(
            f"a family of 4^{len(qubits)} {n}-qubit states is above the "
            f"{MAX_DENSE_BYTES // 2**20} MiB cap"
        )
    stack = apply_paulis(state.amplitudes, qubits, range(4 ** len(qubits)))
    states = tuple(PureState(n, amps) for amps in stack)
    gram = stack.conj() @ stack.T
    return OrthogonalFamily(frozenset(qubits), states, gram)
