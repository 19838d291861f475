"""Named unitaries, the 16-element two-qubit gamma table, and the
block-recursive family construction with independence certification.

Block convention: in a 2x2 block layout [[A, B], [C, D]] the first qubit an
operator is applied to selects the block row, so for the CNOT below the
first target is the control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

import numpy as np

from .statevec import (
    ATOL,
    MAX_DENSE_BYTES,
    MAX_QUBITS,
    LocalOperator,
    PureState,
    _check_unitary,
    _freeze,
    _integer,
    _integer_text,
    _strip_text,
    apply_local,
    overlap,
)

_S0 = np.eye(2, dtype=complex)
_S1 = np.array([[0, 1], [1, 0]], dtype=complex)
_S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_S3 = np.array([[1, 0], [0, -1]], dtype=complex)
_SIGMA = (_S0, _S1, _S2, _S3)
_ZERO2 = np.zeros((2, 2), dtype=complex)


def sigma(index: int) -> LocalOperator:
    """Pauli matrix sigma_index for index in 0..3 (0 is the identity)."""
    return LocalOperator(1, _SIGMA[_integer(index, 0, 3, "Pauli index must be an int in 0..3")])


def cnot() -> LocalOperator:
    """Controlled-NOT [[s0, 0], [0, s1]]; first target is the control."""
    return LocalOperator(2, np.block([[_S0, _ZERO2], [_ZERO2, _S1]]))


def u_y() -> LocalOperator:
    """Controlled-sigma_2 gate [[s0, 0], [0, s2]]."""
    return LocalOperator(2, np.block([[_S0, _ZERO2], [_ZERO2, _S2]]))


def u_z() -> LocalOperator:
    """Controlled-sigma_3 gate [[s0, 0], [0, s3]]."""
    return LocalOperator(2, np.block([[_S0, _ZERO2], [_ZERO2, _S3]]))


def u_chi() -> LocalOperator:
    """Generator of the chi-class resources: (1/sqrt2) [[s3, s1], [i s2, s0]]."""
    return LocalOperator(
        2, np.block([[_S3, _S1], [1j * _S2, _S0]]) / math.sqrt(2.0)
    )


def u_w2() -> LocalOperator:
    """Printed two-qubit matrix associated with the W-class target state."""
    r = 1.0 / math.sqrt(2.0)
    mat = np.array(
        [
            [0, r, r, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, r, -r, 0],
        ],
        dtype=complex,
    )
    return LocalOperator(2, mat)


# The gamma table, verbatim: four diagonal members, four diagonal members
# with the lower block negated, then the same two families on the
# antidiagonal.  Entries are (antidiagonal?, upper sigma, lower sigma, sign).
_GAMMA_LAYOUT: tuple[tuple[bool, int, int, float], ...] = (
    (False, 0, 1, 1.0),
    (False, 1, 2, 1.0),
    (False, 2, 3, 1.0),
    (False, 3, 0, 1.0),
    (False, 0, 1, -1.0),
    (False, 1, 2, -1.0),
    (False, 2, 3, -1.0),
    (False, 3, 0, -1.0),
    (True, 0, 1, 1.0),
    (True, 1, 2, 1.0),
    (True, 2, 3, 1.0),
    (True, 3, 0, 1.0),
    (True, 0, 1, -1.0),
    (True, 1, 2, -1.0),
    (True, 2, 3, -1.0),
    (True, 3, 0, -1.0),
)


def _gamma_matrix(anti: bool, a: int, b: int, sign: float) -> np.ndarray:
    upper, lower = _SIGMA[a], sign * _SIGMA[b]
    if anti:
        return np.block([[_ZERO2, upper], [lower, _ZERO2]])
    return np.block([[upper, _ZERO2], [_ZERO2, lower]])


def gamma(index: int) -> LocalOperator:
    """Member ``index`` (1..16) of the two-qubit gamma table."""
    index = _integer(index, 1, 16, "gamma index must be an int in 1..16")
    return LocalOperator(2, _gamma_matrix(*_GAMMA_LAYOUT[index - 1]))


_NAMED = {
    "sigma0": lambda: sigma(0),
    "sigma1": lambda: sigma(1),
    "sigma2": lambda: sigma(2),
    "sigma3": lambda: sigma(3),
    "cnot": cnot,
    "u_y": u_y,
    "u_z": u_z,
    "u_chi": u_chi,
    "u_w2": u_w2,
}


def named_operator(name: str) -> LocalOperator:
    """Look up an operator by name: sigma0..sigma3, cnot, u_y, u_z, u_chi,
    u_w2, or gamma1..gamma16."""
    key = _strip_text(name).lower()
    if key.startswith("gamma"):
        try:
            return gamma(_integer_text(key[5:]))
        except ValueError:
            raise ValueError(f"unknown operator name {name!r}")
    if key not in _NAMED:
        raise ValueError(f"unknown operator name {name!r}")
    return _NAMED[key]()


@dataclass(frozen=True, eq=False)
class OperatorSet:
    """A level-d family: ``members`` is a read-only (4^d, 2^d, 2^d) stack of
    unitaries, copied from the caller's array; d is read off its shape."""

    members: np.ndarray

    def __post_init__(self) -> None:
        stack = np.asarray(self.members, dtype=complex)
        if not np.isfinite(stack).all():
            raise ValueError("operator family has a NaN or infinite entry")
        if stack.ndim != 3:
            raise ValueError(f"expected a stack of matrices, got shape {stack.shape}")
        count, rows, cols = stack.shape
        if rows != cols or rows < 2 or rows & (rows - 1):
            raise ValueError(f"members must be 2^d x 2^d with d >= 1, got {rows}x{cols}")
        if count != rows * rows:
            raise ValueError(f"a family of {rows}x{rows} matrices has {rows * rows} members, got {count}")
        _check_unitary(stack, "member")
        object.__setattr__(self, "members", _freeze(stack))

    @property
    def level(self) -> int:
        return self.members.shape[1].bit_length() - 1


def pauli_set() -> OperatorSet:
    """The level-1 base family {sigma0, sigma1, sigma2, sigma3}."""
    return OperatorSet(np.stack(_SIGMA))


def gamma_set() -> OperatorSet:
    """The full gamma table as a level-2 family."""
    return OperatorSet(np.stack([_gamma_matrix(*row) for row in _GAMMA_LAYOUT]))


def _lift(g: np.ndarray) -> np.ndarray:
    """One step of the four-block recursion on a (m, n, n) stack of members.

    Member a is paired with its cyclic successor a+1.  The output stack of
    4m members lists the diagonal family, the diagonal family with negated
    lower block, then the two antidiagonal counterparts.
    """
    m, n, _ = g.shape
    succ = np.roll(g, -1, axis=0)
    # Axes: antidiagonal?, negated lower block?, member.
    out = np.zeros((2, 2, m, 2 * n, 2 * n), dtype=complex)
    for k, sign in enumerate((1.0, -1.0)):
        out[0, k, :, :n, :n] = g
        # The lower block is sign * succ, multiplied as a complex product so
        # that signed zeros come out as they always have.
        np.multiply(sign, succ, out=out[0, k, :, n:, n:])
        out[1, k, :, :n, n:] = g
        np.multiply(sign, succ, out=out[1, k, :, n:, :n])
    return out.reshape(4 * m, 2 * n, 2 * n)


def sigma_construct(base: OperatorSet) -> OperatorSet:
    """Lift a level-d family to level d+1 by the four-block recursion.

    With cyclic successor pairing g_a -> g_{a+1}, the output lists the
    diagonal family, the diagonal family with negated lower block, then the
    two antidiagonal counterparts.
    """
    return OperatorSet(_lift(base.members))


def family_bytes(level: int) -> int:
    """Bytes of the level-``level`` family: 4^level complex matrices of
    2^level x 2^level entries, 16 bytes each."""
    return 16 * 16**level


def check_family_size(level: int) -> None:
    """Refuse a level-``level`` family above MAX_DENSE_BYTES.  The first
    test keeps an absurd level from forming a huge integer."""
    if level > MAX_QUBITS or family_bytes(level) > MAX_DENSE_BYTES:
        raise ValueError(
            f"a level-{level} family needs 16^{level + 1} bytes, above the "
            f"{MAX_DENSE_BYTES // 2**20} MiB cap"
        )


def operator_family(level: int) -> OperatorSet:
    """Level-``level`` family obtained by iterating the recursion on the Paulis.

    Refused before allocating when the family would exceed MAX_DENSE_BYTES.
    """
    level = _integer(level, 1, math.inf, "level must be an int of at least 1")
    check_family_size(level)
    # Intermediate levels stay bare stacks; only the requested level is
    # validated.
    stack = np.stack(_SIGMA)
    for _ in range(level - 1):
        stack = _lift(stack)
    return OperatorSet(stack)


def _support_components(support: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of a boolean (rows x columns) support in which
    every row has a nonzero entry; two rows are linked when they share a
    column.

    Returns (row label, column label): a row's label is the lowest row index
    of its component, and a column carries its rows' label, or the row count
    when no row uses it.  Found by min-label propagation through the columns,
    with pointer jumping on the row labels.
    """
    nrows = len(support)
    r, c = np.nonzero(support)
    starts = np.flatnonzero(np.diff(r, prepend=-1))
    label = np.arange(nrows)
    while True:
        col = np.full(support.shape[1], nrows)
        np.minimum.at(col, c, label[r])
        new = np.minimum.reduceat(col[c], starts)
        new = new[new]
        if np.array_equal(new, label):
            return label, col
        label = new


# Gershgorin margin of the full-rank certificate in independence_rank.  Any
# value below 1 keeps every eigenvalue of B B^H away from 0; at 1/2 the
# singular values of B lie in [sqrt(1/2), sqrt(3/2)], so the smallest is far
# above ATOL times the largest.  Rounding in B B^H is far smaller than the
# gap between the margin and 1, so it cannot turn a pass into a wrong rank.
CERT_MARGIN = 0.5


def _certified_full_rank(block: np.ndarray) -> bool:
    """True when the Gershgorin test on B B^H proves the unit rows of
    ``block`` independent.  A block with more rows than columns cannot have
    full row rank, and forming its Gram would take more memory than it."""
    p, q = block.shape
    if p > q:
        return False
    gram = block @ block.conj().T
    diag = np.arange(p)
    gram[diag, diag] -= 1.0
    return bool(np.abs(gram).sum(axis=1).max() <= CERT_MARGIN)


def independence_rank(stack: np.ndarray) -> int:
    """Linear-independence rank of the flattened, row-normalized matrices of
    a (k, m, m) stack.

    Zero operators add nothing.  The rows fall into the connected components
    of their nonzero support, two rows being linked when they share a
    nonzero column; permuting rows and columns into that block-diagonal form
    leaves the singular values unchanged.

    When every component B passes the Gershgorin certificate, the rank is the
    row count with no SVD: B has no more rows than columns and each row of
    B B^H - I sums to at most CERT_MARGIN in absolute value, which puts every
    singular value in [sqrt(1/2), sqrt(3/2)].  Every family the library
    builds passes, its Gram being I to rounding.  Otherwise each component
    gets its own SVD, and singular values above ATOL times the largest over
    all of them are counted.
    """
    stack = np.asarray(stack, dtype=complex)
    if stack.ndim != 3 or not stack.size:
        raise ValueError(f"need a nonempty stack of matrices, got shape {stack.shape}")
    rows = stack.reshape(len(stack), -1)
    if not np.isfinite(rows).all():
        raise ValueError("operators have a NaN or infinite entry")
    support = rows != 0
    nonzero = support.any(axis=1)
    if not nonzero.all():
        rows, support = rows[nonzero], support[nonzero]
        if not len(rows):
            return 0
    # Row norms from the interleaved (re, im) float view, with none of the
    # complex temporaries np.linalg.norm forms; each block divides by its own.
    flat = np.ascontiguousarray(rows).view(np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    label, col = _support_components(support)
    roots = np.flatnonzero(label == np.arange(len(label)))

    def block(root: int) -> np.ndarray:
        return rows[np.ix_(label == root, col == root)] / norms[label == root, None]

    if all(_certified_full_rank(block(root)) for root in roots):
        return len(rows)
    s = np.concatenate([np.linalg.svd(block(root), compute_uv=False) for root in roots])
    return int(np.sum(s > ATOL * s.max()))


def pauli_string(indices: Sequence[int]) -> LocalOperator:
    """Tensor product sigma_{i1} x ... x sigma_{ik}, first index most significant."""
    idx = tuple(_integer(i, 0, 3, "Pauli indices must be ints in 0..3") for i in indices)
    if not idx:
        raise ValueError("a Pauli string needs at least one factor")
    mat = _SIGMA[idx[0]]
    for i in idx[1:]:
        mat = np.kron(mat, _SIGMA[i])
    return LocalOperator(len(idx), mat)


@dataclass(frozen=True)
class PlacementReport:
    """Result of an exhaustive search for a realizing operator placement."""

    found: bool
    placement: tuple[int, ...] | None
    best_placement: tuple[int, ...]
    best_overlap: float

    @property
    def residual(self) -> float:
        return 1.0 - self.best_overlap


def find_realizing_application(
    op: LocalOperator, source: PureState, target: PureState
) -> PlacementReport:
    """Search every ordered target tuple for one where ``op`` maps ``source``
    onto ``target`` up to global phase.

    Placements are tried in lexicographic order; the first with overlap
    magnitude 1 within ATOL wins.  Otherwise the best placement and its
    overlap are reported.
    """
    if source.num_qubits != target.num_qubits:
        raise ValueError(
            f"source has {source.num_qubits} qubits but target has "
            f"{target.num_qubits}"
        )
    if op.arity > source.num_qubits:
        raise ValueError(
            f"operator arity {op.arity} exceeds the {source.num_qubits}-qubit state"
        )
    best_mag = -1.0
    best_placement: tuple[int, ...] = ()
    for placement in permutations(range(1, source.num_qubits + 1), op.arity):
        mag = abs(overlap(target, apply_local(source, op, placement)))
        if mag >= 1.0 - ATOL:
            return PlacementReport(True, placement, placement, float(mag))
        if mag > best_mag:
            best_mag, best_placement = float(mag), placement
    return PlacementReport(False, None, best_placement, best_mag)
