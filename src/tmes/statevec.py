"""Dense state-vector engine for small multi-qubit systems.

Qubit numbering follows ket notation: qubit 1 is the most significant bit
of the amplitude index, so the amplitude of |q1 q2 ... qn> sits at index
q1*2^(n-1) + q2*2^(n-2) + ... + qn.  Every operation is a pure function on
immutable values; returned arrays are marked read-only.

Schmidt spectra come from the singular values of the amplitudes laid out as
a sender-by-receiver matrix.  ``cut_spectra`` takes many cuts of one state
at once: one batched SVD per chunk, bit-identical to an SVD per cut.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "ATOL",
    "EXACT_ATOL",
    "CLUSTER_RTOL",
    "MAX_QUBITS",
    "MAX_DENSE_BYTES",
    "check_qubits",
    "check_state_size",
    "PureState",
    "LocalOperator",
    "DensityMatrix",
    "SchmidtSpectrum",
    "Partition",
    "tensor",
    "apply_local",
    "partial_trace",
    "schmidt_spectrum",
    "cut_spectra",
    "schmidt_decomposition",
    "entropy",
    "negativity",
    "overlap",
    "states_close",
    "cluster_values",
]

# Norms, orthogonality and hermiticity are checked at ATOL.  Identities the
# constructions reproduce digit-for-digit are pinned at EXACT_ATOL.  Spectral
# multiplicity counting clusters eigenvalues at CLUSTER_RTOL relative; the
# spectra of interest are exact dyadic rationals, so the gap is enormous.
ATOL = 1e-9
EXACT_ATOL = 1e-12
CLUSTER_RTOL = 1e-7

# Size policy, checked before allocating: analyses that enumerate cuts or
# Pauli labels take at most MAX_QUBITS qubits, and no dense result may exceed
# MAX_DENSE_BYTES, the size of one MAX_QUBITS-qubit density matrix (256 MiB).
MAX_QUBITS = 12
MAX_DENSE_BYTES = 16 * 4**MAX_QUBITS

# Most bytes of one ``_cut_stacks`` stack (16 cuts at 12 qubits).  At 12
# qubits, 256 KiB to 4 MiB ran alike and 16 MiB about a third slower.
CHUNK_BYTES = 1 << 20


def check_qubits(num_qubits: int, what: str) -> None:
    """Refuse ``what`` on more than MAX_QUBITS qubits."""
    if num_qubits > MAX_QUBITS:
        raise ValueError(f"{what} is capped at {MAX_QUBITS} qubits, got {num_qubits}")


def check_state_size(num_qubits: int, what: str) -> None:
    """Refuse ``what`` when its 16 * 2^n bytes of amplitudes exceed
    MAX_DENSE_BYTES = 16 * 4^MAX_QUBITS; comparing counts never forms 2^n."""
    if num_qubits > 2 * MAX_QUBITS:
        cap = MAX_DENSE_BYTES // 2**20
        raise ValueError(f"{what} on {num_qubits} qubits is above the {cap} MiB cap")


def _integer(value, low: float, high: float, what: str) -> int:
    """The one integer rule for every count, index, label, qubit and seed a
    caller hands the library: ``value`` as an int when it is an int (a bool's
    type is not) or a numpy integer, in [low, high]; else ValueError(f"{what},
    got {value!r}").  Nothing else coerces such a value with ``int``."""
    if not (type(value) is int or isinstance(value, np.integer)) or not low <= value <= high:
        # str() refuses an int of more than 4300 digits: name such a one by its size.
        shown = f"an int of {value.bit_length()} bits" if isinstance(value, int) and value.bit_length() > 14000 else repr(value)
        raise ValueError(f"{what}, got {shown}")
    return int(value)


def _integer_text(text: str) -> int:
    """The int that ``text`` spells in ASCII decimal digits, after at most
    one leading minus sign; else ValueError.  ``int`` alone also takes
    underscores, a plus sign, surrounding spaces and non-ASCII digits, so
    every integer the library reads from text is parsed here, and the
    value then meets ``_integer``'s range check where it is used."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected an integer in ASCII digits, got {text!r}")
    return int(text)


def _qubit_list(qubits: Iterable[int], num_qubits: int, what: str) -> tuple[int, ...]:
    """``qubits`` in the order given, each an int in 1..num_qubits under
    ``_integer``, none repeated.  ``what`` names them in the message."""
    refusal = f"{what} out of range 1..{num_qubits}"
    qlist = tuple(_integer(q, 1, num_qubits, refusal) for q in qubits)
    if len(set(qlist)) != len(qlist):
        raise ValueError(f"repeated {what} in {qlist}")
    return qlist


def _qubit_set(qubits: Iterable[int], num_qubits: int, what: str) -> tuple[int, ...]:
    """The distinct qubits of ``qubits``, ascending, each checked as in
    ``_qubit_list``, a repeat dropped; refused when empty."""
    refusal = f"{what} out of range 1..{num_qubits}"
    qset = tuple(sorted({_integer(q, 1, num_qubits, refusal) for q in qubits}))
    if not qset:
        raise ValueError(f"no {what} given")
    return qset


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized pure state of ``num_qubits`` qubits.

    ``amplitudes`` holds 2^n complex entries in index order; their total
    probability must be 1 within ATOL or construction fails.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        n = _integer(self.num_qubits, 1, math.inf, "a state needs an int of at least 1 qubit")
        check_state_size(n, "a state")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != 2**n:
            raise ValueError(f"expected {2 ** n} amplitudes for {n} qubits, got {amps.size}")
        # No unit vector has a larger amplitude, and a huge one overflows the norm.
        peak = float(np.max(np.abs(amps)))
        if not peak <= 1.0 + ATOL:
            raise ValueError(f"state is not normalized: max |amplitude| = {peak!r}")
        # Every marginal trace and spectrum sum is this total, checked at ATOL.
        total = float(np.vdot(amps, amps).real)
        if not abs(total - 1.0) <= ATOL:
            raise ValueError(f"state is not normalized: total probability = {total!r}")
        object.__setattr__(self, "num_qubits", n)
        object.__setattr__(self, "amplitudes", _freeze(amps))

    def tensor_view(self) -> np.ndarray:
        """Read-only view shaped (2,)*n with axis k corresponding to qubit k+1."""
        return self.amplitudes.reshape((2,) * self.num_qubits)


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """Square operator on ``arity`` qubits.

    When applied to targets (t1, .., tk), t1 addresses the most significant
    bit of the matrix index, i.e. the outer 2x2 block structure.
    """

    arity: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        arity = _integer(self.arity, 1, math.inf, "operator arity must be an int of at least 1")
        check_qubits(arity, "operator arity")
        mat = np.asarray(self.matrix, dtype=complex)
        dim = 2**arity
        if mat.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("operator has a NaN or infinite entry")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "matrix", _freeze(mat))

    def is_unitary(self) -> bool:
        dim = self.matrix.shape[0]
        return bool(
            np.max(np.abs(self.matrix.conj().T @ self.matrix - np.eye(dim))) <= ATOL
        )


def _check_density(mat: np.ndarray) -> None:
    """Refuse a matrix, or a stack of them, that is not finite, Hermitian
    within ATOL and of unit trace within ATOL."""
    if not np.isfinite(mat).all():
        raise ValueError("density matrix has a NaN or infinite entry")
    if np.max(np.abs(mat - np.swapaxes(mat, -1, -2).conj())) > ATOL:
        raise ValueError("density matrix is not Hermitian")
    tr = np.trace(mat, axis1=-2, axis2=-1).reshape(-1)
    bad = np.flatnonzero(np.abs(tr - 1.0) > ATOL)
    if bad.size:
        raise ValueError(f"density matrix trace is {complex(tr[bad[0]])!r}, expected 1")


# _check_unitary forms U^H U for at most this many bytes of members at a
# time.  On the 1024 members of the level-5 family (1 BLAS thread, 2 vCPUs),
# chunks of 64 members (1 MiB) took about 0.6 times as long as the whole
# stack at once, three 8-16 MiB temporaries (17-19 ms against 28-30 ms).
# Stacks of 16 x 16 members ran 5% slower in chunks of 64 than whole, so the
# budget is in bytes: a stack of up to 1 MiB is checked whole.
UNITARY_CHUNK_BYTES = 1 << 20


def _check_unitary(stack: np.ndarray, what: str) -> None:
    """Refuse a finite (k, m, m) stack with a member U whose U^H U departs
    from the identity by more than ATOL, naming the first as ``what i``."""
    m = stack.shape[1]
    chunk = max(UNITARY_CHUNK_BYTES // (stack.itemsize * m * m), 1)
    diag = np.arange(m)
    for start in range(0, len(stack), chunk):
        part = stack[start : start + chunk]
        gram = np.matmul(part.conj().transpose(0, 2, 1), part)
        gram[:, diag, diag] -= 1.0
        bad = np.flatnonzero(np.abs(gram).max(axis=(1, 2)) > ATOL)
        if bad.size:
            raise ValueError(f"{what} {start + bad[0]} is not unitary")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace density matrix over ``num_qubits`` qubits."""

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        n = _integer(self.num_qubits, 1, math.inf, "a density matrix needs an int of at least 1 qubit")
        check_qubits(n, "a density matrix")
        mat = np.asarray(self.matrix, dtype=complex)
        dim = 2**n
        if mat.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got shape {mat.shape}")
        _check_density(mat)
        object.__setattr__(self, "num_qubits", n)
        object.__setattr__(self, "matrix", _freeze(mat))


def _cluster_runs(values: Iterable[float]) -> Iterator[tuple[float, int]]:
    """Group a descending value sequence into (first member, multiplicity)
    runs, lazily.  A value joins the current run when it lies within
    CLUSTER_RTOL (relative to the larger of the two) of the run's first
    member: the one joining test, at a constant, not a parameter."""
    first, count = 0.0, 0
    for v in values:
        if count and abs(first - v) <= CLUSTER_RTOL * max(abs(first), abs(v)):
            count += 1
        else:
            if count:
                yield first, count
            first, count = v, 1
    if count:
        yield first, count


def cluster_values(values: Sequence[float]) -> tuple[tuple[float, int], ...]:
    """Every run of ``_cluster_runs``, as a tuple."""
    return tuple(_cluster_runs(values))


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Descending nonzero eigenvalues of a reduced density matrix."""

    eigenvalues: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(map(float, self.eigenvalues))
        if not vals:
            raise ValueError("a Schmidt spectrum cannot be empty")
        if any(map(operator.lt, vals, vals[1:])):
            raise ValueError("eigenvalues must be sorted in descending order")
        if vals[-1] < -EXACT_ATOL:
            raise ValueError(f"negative eigenvalue {vals[-1]!r}")
        # Sorted, so only the tail can hold rounding below zero.
        if vals[-1] < 0.0:
            vals = tuple(max(v, 0.0) for v in vals)
        total = sum(vals)
        # A NaN or inf eigenvalue makes the sum NaN or inf, which fails.
        if not abs(total - 1.0) <= ATOL:
            raise ValueError(f"eigenvalues sum to {total!r}, expected 1")
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def rank(self) -> int:
        return len(self.eigenvalues)

    def clustered(self) -> tuple[tuple[float, int], ...]:
        """Eigenvalues grouped into (value, multiplicity) clusters."""
        return cluster_values(self.eigenvalues)


@dataclass(frozen=True)
class Partition:
    """Bipartition of qubits 1..n into a sender and a receiver side."""

    sender: frozenset[int]
    receiver: frozenset[int]

    def __post_init__(self) -> None:
        refusal = "partition qubits must be ints of at least 1"
        sender = frozenset(_integer(q, 1, math.inf, refusal) for q in self.sender)
        receiver = frozenset(_integer(q, 1, math.inf, refusal) for q in self.receiver)
        if not sender or not receiver:
            raise ValueError("both sides of a partition must be non-empty")
        if sender & receiver:
            raise ValueError("partition sides must be disjoint")
        union = sender | receiver
        if len(union) != max(union):
            raise ValueError("partition must cover qubits 1..n without gaps")
        object.__setattr__(self, "sender", sender)
        object.__setattr__(self, "receiver", receiver)

    @classmethod
    def from_sender(cls, sender: Iterable[int], num_qubits: int) -> "Partition":
        """Partition with the given sender set; the rest of 1..n receives."""
        num_qubits = _integer(num_qubits, 2, math.inf, "a partition needs an int of at least 2 qubits")
        s = frozenset(_qubit_set(sender, num_qubits, "sender qubits"))
        return cls(s, frozenset(range(1, num_qubits + 1)) - s)

    @property
    def num_qubits(self) -> int:
        return len(self.sender) + len(self.receiver)

    def sides(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(sorted sender, sorted receiver)."""
        return tuple(sorted(self.sender)), tuple(sorted(self.receiver))


def _require_cut(state: PureState, cut: Partition) -> None:
    if cut.num_qubits != state.num_qubits:
        raise ValueError(
            f"partition covers {cut.num_qubits} qubits but the state has "
            f"{state.num_qubits}"
        )


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product with ``a``'s qubits first (most significant)."""
    return PureState(a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes))


def apply_local(
    state: PureState, op: LocalOperator, targets: Sequence[int]
) -> PureState:
    """Apply ``op`` to the listed target qubits (1-based, order-significant).

    The first target addresses the most significant bit of the operator's
    basis.  ``op`` must be unitary for the result to remain normalized;
    anything else fails the output norm check.
    """
    n, k = state.num_qubits, op.arity
    targets = _qubit_list(targets, n, "target qubits")
    if len(targets) != k:
        raise ValueError(f"operator arity {k} does not match {len(targets)} targets")
    axes = [t - 1 for t in targets]
    psi = state.tensor_view()
    u = op.matrix.reshape((2,) * (2 * k))
    out = np.tensordot(u, psi, axes=(tuple(range(k, 2 * k)), axes))
    out = np.moveaxis(out, tuple(range(k)), axes)
    return PureState(n, out.reshape(-1))


def partial_trace(state: PureState, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix on at most MAX_QUBITS kept qubits (ascending)."""
    n = state.num_qubits
    kept = _qubit_set(keep, n, "kept qubits")
    check_qubits(len(kept), "a reduced density matrix")
    m = _cut_matrix(state, kept, [q for q in range(1, n + 1) if q not in kept])
    return DensityMatrix(len(kept), m @ m.conj().T)


def _cut_matrix(state: PureState, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
    """The amplitudes as a matrix, rows and columns indexed by the qubits
    ``rows`` and ``cols`` in the order given: a transposed view where numpy
    can make one.  Every one-cut function that lays a ``PureState`` out
    across a cut (``schmidt_spectrum`` among them) reads it from here;
    ``_cut_stacks`` gathers the same entries for many cuts at once."""
    psi = state.tensor_view().transpose([q - 1 for q in (*rows, *cols)])
    return psi.reshape(2 ** len(rows), 2 ** len(cols))


def schmidt_decomposition(
    state: PureState, cut: Partition
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt coefficients and matched orthonormal bases across a cut.

    Returns ``(coeffs, sender_vectors, receiver_vectors)`` with coefficients
    descending, ``sender_vectors[:, k]`` an amplitude vector on the sorted
    sender qubits and ``receiver_vectors[k, :]`` one on the sorted receiver
    qubits.  Coefficients with squared weight below EXACT_ATOL are dropped.
    """
    _require_cut(state, cut)
    u, s, vh = np.linalg.svd(_cut_matrix(state, *cut.sides()), full_matrices=False)
    keep = (s * s) > EXACT_ATOL
    return s[keep], u[:, keep], vh[keep, :]


def _side_offsets(qubits: np.ndarray, num_qubits: int) -> np.ndarray:
    """Row ``i`` holds, for every r in [0, 2^m), the amplitude index bits of
    r spread over the m qubits of ``qubits[i]``, the first of them taking
    r's most significant bit; qubit q is bit 2^(n - q).  The dtype is the
    smallest that holds every index below 2^max(n, MAX_QUBITS), so the
    memoised tables of every cut of up to MAX_QUBITS qubits share one."""
    m = qubits.shape[1]
    bits = (np.arange(2**m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    dtype = np.min_scalar_type(2 ** max(num_qubits, MAX_QUBITS) - 1)
    return ((1 << (num_qubits - qubits)) @ bits.T).astype(dtype)


class _CutLayout(NamedTuple):
    """Every cut of n qubits with a sender of one size, in ``combinations``
    order: the ``Partition``s, each sender's position, and the read-only row
    and column offsets of each cut's sender-by-receiver matrix (entry (r, c)
    is amplitude ``rows[i, r] | cols[i, c]``)."""

    cuts: tuple[Partition, ...]
    position: dict[frozenset[int], int]
    rows: np.ndarray
    cols: np.ndarray


@lru_cache(maxsize=None)
def _cut_layout(num_qubits: int, size: int) -> _CutLayout:
    """The ``_CutLayout`` of ``size``-qubit senders on ``num_qubits`` qubits,
    built on first use and memoised: it depends on the two counts alone."""
    check_qubits(num_qubits, "a cut layout")
    qubits = range(1, num_qubits + 1)
    senders = list(combinations(qubits, size))
    receivers = [tuple(q for q in qubits if q not in s) for s in senders]
    cuts = tuple(Partition(frozenset(s), frozenset(r)) for s, r in zip(senders, receivers))
    rows = _side_offsets(np.array(senders), num_qubits)
    cols = _side_offsets(np.array(receivers), num_qubits)
    for table in (rows, cols):
        table.setflags(write=False)
    return _CutLayout(cuts, {cut.sender: i for i, cut in enumerate(cuts)}, rows, cols)


def _qubit_runs(state: PureState) -> tuple[tuple[int, ...], ...]:
    """The qubits 1..n split into runs of neighbours, in order: q and q + 1
    share a run when swapping them fixes ``state`` bit for bit, so every
    permutation within a run fixes it too.  The swap exchanges the amplitude
    of the basis state with only qubit q + 1 set and the one with only q
    set, a scalar test that rejects most pairs; the full test compares bit
    patterns, which tell -0.0 from 0.0."""
    n, amps = state.num_qubits, state.amplitudes
    runs = [[1]]
    for q in range(1, n):
        low = 1 << (n - q - 1)
        if amps[low] == amps[2 * low]:
            quads = amps.view(np.uint64).reshape(2 ** (q - 1), 2, 2, -1)
            if quads[:, 0, 1].tobytes() == quads[:, 1, 0].tobytes():
                runs[-1].append(q + 1)
                continue
        runs.append([q + 1])
    return tuple(map(tuple, runs))


def _cut_classes(cuts: Sequence[Partition], group: list[int], runs: Sequence[Sequence[int]]) -> list[list[int]]:
    """The positions ``group`` of same-size ``cuts`` split into classes whose
    senders take the same count from every run, each class ascending, the
    classes in order of their first position.  A permutation within runs
    maps one member's sender onto another's keeping both sides in sorted
    order, so members' cut matrices are equal bit for bit.  With one run
    (a qubit-symmetric state) the group is one class; with no run of two
    qubits each position is a class of its own, repeats included."""
    if len(runs) == 1:
        return [group]
    if max(map(len, runs)) == 1:
        return [[i] for i in group]
    # A sender's counts, read as the digits of one mixed-radix number.
    weight: dict[int, int] = {}
    place = 1
    for run in runs:
        weight.update(dict.fromkeys(run, place))
        place *= len(run) + 1
    classes: dict[int, list[int]] = {}
    for i in group:
        classes.setdefault(sum(map(weight.__getitem__, cuts[i].sender)), []).append(i)
    return list(classes.values())


def _cut_stacks(
    state: PureState, cuts: Sequence[Partition]
) -> Iterator[tuple[list[list[int]], np.ndarray]]:
    """Per sender size, ascending, the ``_cut_classes`` of the positions in
    ``cuts`` of that size, at most max(CHUNK_BYTES // (16 * 2^n), 1) classes
    at a time, each chunk with the stack of one sender-by-receiver matrix
    per class: the one rule that splits a scan over many cuts.  Matrix k is
    every member's of class k, equal to ``_cut_matrix`` on its sorted sides,
    so a consumer gives each class's figures to all its members.  The runs
    are found only when some size has two cuts; a generic state has none
    and pays n - 1 scalar comparisons.

    A stack is one gather of the amplitudes at the offsets of each class's
    first member: an exact copy.  Up to MAX_QUBITS qubits the offsets are
    read from the memoised ``_cut_layout``; above it they are built for the
    chunk alone.  (On a 12-qubit scan, ``take`` made the same stacks with
    five times the page faults, and the batched calls that read them ran
    slower.)
    """
    groups: dict[int, list[int]] = {}
    for i, cut in enumerate(cuts):
        _require_cut(state, cut)
        groups.setdefault(len(cut.sender), []).append(i)
    n = state.num_qubits
    runs = _qubit_runs(state) if len(groups) < len(cuts) else [(q,) for q in range(1, n + 1)]
    limit = max(CHUNK_BYTES // (16 * 2**n), 1)
    for size, group in sorted(groups.items()):
        classes = _cut_classes(cuts, group, runs)
        for chunk in (classes[k : k + limit] for k in range(0, len(classes), limit)):
            take = [members[0] for members in chunk]
            if n <= MAX_QUBITS:
                layout = _cut_layout(n, size)
                at = [layout.position[cuts[i].sender] for i in take]
                rows, cols = layout.rows[at], layout.cols[at]
            else:
                sides = [cuts[i].sides() for i in take]
                rows = _side_offsets(np.array([r for r, _ in sides]), n)
                cols = _side_offsets(np.array([c for _, c in sides]), n)
            yield chunk, state.amplitudes[rows[:, :, None] | cols[:, None, :]]


def cut_spectra(
    state: PureState, cuts: Iterable[Partition]
) -> tuple[SchmidtSpectrum, ...]:
    """``schmidt_spectrum`` of every cut, in input order.

    Each ``_cut_stacks`` chunk is gathered in one indexing step and gets one
    batched SVD.  The gather copies the amplitudes exactly, and numpy runs
    the same LAPACK routine on each matrix of a stack as on the matrix
    alone, so every spectrum is identical to the bit to a one-cut SVD.  One
    SVD row and one spectrum object serve every member of a class: a
    qubit-symmetric state takes one per sender size.
    """
    cuts = tuple(cuts)
    spectra: list = [None] * len(cuts)
    for classes, stack in _cut_stacks(state, cuts):
        for members, spectrum in zip(classes, _stack_spectra(stack)):
            for i in members:
                spectra[i] = spectrum
    return tuple(spectra)


def _stack_spectra(stack: np.ndarray) -> list[SchmidtSpectrum]:
    """The Schmidt spectrum of every matrix of a ``_cut_stacks`` stack, from
    one batched SVD: the squared singular values above EXACT_ATOL, which
    LAPACK returns in descending order."""
    s = np.linalg.svd(stack, compute_uv=False)
    return [SchmidtSpectrum(tuple(row[row > EXACT_ATOL].tolist())) for row in s * s]


def _stack_marginals(stack: np.ndarray) -> np.ndarray:
    """Sender (row-side) reduced density matrix of every matrix of a
    ``_cut_stacks`` stack, from one batched Gram product.  Each equals
    ``partial_trace`` on its sender to the bit: numpy makes the same BLAS
    call per matrix of the stack."""
    return stack @ stack.conj().transpose(0, 2, 1)


def schmidt_spectrum(state: PureState, cut: Partition) -> SchmidtSpectrum:
    """Eigenvalues of either side's reduced density matrix, zeros dropped."""
    _require_cut(state, cut)
    return _stack_spectra(_cut_matrix(state, *cut.sides())[None])[0]


def entropy(spectrum: SchmidtSpectrum) -> float:
    """Von Neumann entropy in bits, with the 0*log(0) = 0 convention."""
    return float(-sum(p * math.log2(p) for p in spectrum.eigenvalues if p > 0.0))


def negativity(state: PureState, cut: Partition) -> float:
    """Entanglement negativity across a cut.

    The sum of |negative eigenvalues| of the density matrix partially
    transposed on the receiver side (not doubled).  For a pure state with
    Schmidt coefficients s_i this is sum_{i<j} s_i s_j = ((sum s)^2 -
    sum s^2) / 2 (Vidal & Werner, PRA 65, 032314, 2002), taken from the raw
    singular values of one SVD across the cut.
    """
    _require_cut(state, cut)
    s = np.linalg.svd(_cut_matrix(state, *cut.sides()), compute_uv=False)
    # Rounding may leave -1 ulp on a product state; negativity is >= 0.
    return max(float((np.sum(s) ** 2 - np.sum(s * s)) / 2.0), 0.0)


def overlap(a: PureState, b: PureState) -> complex:
    """Inner product <a|b> (conjugate-linear in ``a``)."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"qubit count mismatch: {a.num_qubits} vs {b.num_qubits}"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def states_close(a: PureState, b: PureState) -> bool:
    """Amplitude-wise equality within ATOL (no global-phase allowance)."""
    if a.num_qubits != b.num_qubits:
        return False
    return bool(np.max(np.abs(a.amplitudes - b.amplitudes)) <= ATOL)
