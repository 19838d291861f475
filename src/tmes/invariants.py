"""Local-unitary invariants: bipartition spectra, conversion obstructions,
genuine multipartite entanglement, and Pauli relabeling families.

A unitary supported on a qubit subset cannot change the Schmidt spectrum of
any cut that keeps the subset entirely on one side; comparing spectra of a
source and a target state across all such cuts therefore certifies when no
placement of a local gate can realize the conversion.

Every analysis over many cuts reads a state's ``statevec._cut_stacks``
chunks: ``cut_spectra`` makes one batched SVD per chunk, and
``genuine_multipartite`` first screens cuts by purity so that only those
that may be products get an SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
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
    _cut_layout,
    _cut_stacks,
    _freeze,
    _integer,
    _qubit_set,
    _stack_marginals,
    check_qubits,
    cut_spectra,
)


def all_bipartitions(num_qubits: int) -> tuple[Partition, ...]:
    """Every unordered bipartition once, smaller side as sender.

    Balanced splits keep the side containing qubit 1.  Ordered by sender
    size, then lexicographically.  Memoised: the tuple of frozen partitions
    depends on ``num_qubits`` alone.  A count other than an int of at least
    2, or above MAX_QUBITS, is refused before the memo is consulted.
    """
    num_qubits = _integer(num_qubits, 2, math.inf, "bipartitions need an int of at least 2 qubits")
    check_qubits(num_qubits, "bipartition enumeration")
    return _bipartitions(num_qubits)


@lru_cache(maxsize=None)
def _bipartitions(num_qubits: int) -> tuple[Partition, ...]:
    parts: list[Partition] = []
    for size in range(1, num_qubits // 2 + 1):
        cuts = _cut_layout(num_qubits, size).cuts
        # In combinations order the senders holding qubit 1 are the first half.
        parts += cuts[: len(cuts) // 2] if 2 * size == num_qubits else cuts
    return tuple(parts)


def all_bipartition_spectra(
    state: PureState,
) -> dict[Partition, SchmidtSpectrum]:
    """Schmidt spectrum of every bipartition, keyed by canonical partition."""
    cuts = all_bipartitions(state.num_qubits)
    return dict(zip(cuts, cut_spectra(state, cuts)))


def spectra_match(a: SchmidtSpectrum, b: SchmidtSpectrum) -> bool:
    """Equal rank and elementwise agreement at relative tolerance CLUSTER_RTOL
    (plus EXACT_ATOL)."""
    if a.rank != b.rank:
        return False
    av = np.asarray(a.eigenvalues)
    bv = np.asarray(b.eigenvalues)
    return bool(
        np.all(np.abs(av - bv) <= CLUSTER_RTOL * np.maximum(av, bv) + EXACT_ATOL)
    )


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
) -> ObstructionReport:
    """Spectral certificate that no unitary on the subset maps source to target.

    Checks every cut keeping the subset on one side; any spectrum mismatch is
    a violation.  An empty report is necessary but not sufficient for the
    conversion to exist.
    """
    if source.num_qubits != target.num_qubits:
        raise ValueError("source and target must have the same qubit count")
    n = source.num_qubits
    subset = frozenset(_qubit_set(acting_subset, n, "acting subset"))
    cuts = [
        cut
        for cut in all_bipartitions(n)
        if subset <= cut.sender or subset <= cut.receiver
    ]
    violations = [
        CutViolation(cut, sa, sb)
        for cut, sa, sb in zip(cuts, cut_spectra(source, cuts), cut_spectra(target, cuts))
        if not spectra_match(sa, sb)
    ]
    return ObstructionReport(subset, tuple(violations))


def genuine_multipartite(state: PureState, tol: float = ATOL) -> bool:
    """True when no bipartition is a product: every cut's largest Schmidt
    eigenvalue lies below 1 - tol, ``tol`` in [0, 1).

    A purity screen spares most cuts their SVD.  The purity p = ||rho_A||_F^2
    = sum lambda_i^2 of every cut comes from one batched Gram product per
    ``_cut_stacks`` chunk, and lambda_max <= sqrt(p).  Only cuts with
    sqrt(p) >= 1 - tol - EXACT_ATOL (the slack covers rounding in p) get an
    SVD; every cut skipped has lambda_max < 1 - tol, so the answer is that
    of an SVD on every cut.  It returns at the first chunk with a product.
    """
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"tol must lie in [0, 1), got {tol}")
    for _, stack in _cut_stacks(state, all_bipartitions(state.num_qubits)):
        purity = np.sum(np.abs(_stack_marginals(stack)) ** 2, axis=(1, 2))
        near = stack[np.sqrt(purity) >= 1.0 - tol - EXACT_ATOL]
        if near.size:
            s = np.linalg.svd(near, compute_uv=False)
            if np.any(np.max(s * s, axis=-1) >= 1.0 - tol):
                return False
    return True


@dataclass(frozen=True, eq=False)
class OrthogonalFamily:
    """All Pauli-string relabelings of a state on a subset: row d of ``stack``
    is Pauli string d applied, ``gram`` their overlaps; both read-only."""

    subset: frozenset[int]
    stack: np.ndarray
    gram: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        stack = np.asarray(self.stack, dtype=complex)
        gram = stack.conj() @ stack.T  # before the copy: one temporary at a time
        gram.setflags(write=False)
        object.__setattr__(self, "subset", frozenset(self.subset))
        object.__setattr__(self, "stack", _freeze(stack))
        object.__setattr__(self, "gram", gram)

    def mutually_orthogonal(self) -> bool:
        off = self.gram - np.diag(np.diagonal(self.gram))
        return bool(np.max(np.abs(off)) <= ATOL)


def orthogonal_family(state: PureState, subset: Iterable[int]) -> OrthogonalFamily:
    """Apply all 4^|subset| Pauli strings on the subset and collect overlaps.

    Refused before allocating when the states and their Gram matrix exceed MAX_DENSE_BYTES.
    """
    n = state.num_qubits
    qubits = _qubit_set(subset, n, "subset")
    if 16 * 4 ** len(qubits) * (2**n + 4 ** len(qubits)) > MAX_DENSE_BYTES:
        raise ValueError(
            f"a family of 4^{len(qubits)} {n}-qubit states and its Gram matrix "
            f"is above the {MAX_DENSE_BYTES // 2**20} MiB cap"
        )
    stack = apply_paulis(state.amplitudes, qubits, np.arange(4 ** len(qubits)))
    return OrthogonalFamily(frozenset(qubits), stack)
