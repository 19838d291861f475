"""Pauli-string labels and their symplectic (x, z) form.

A label is a base-4 integer whose digits, most significant first, name the
Pauli factor on each qubit: 0 is I, 1 is X, 2 is Y and 3 is Z.  Up to a
phase every string equals X^x Z^z for two s-bit masks, with the first qubit
on the most significant bit (Aaronson & Gottesman, PRA 70, 052328, 2004).
Up to phase, the product of two strings is the xor of their labels.  Every
action of a label on amplitudes goes through ``pauli_rows``, which gathers
from a read-only table of all 4^s labels' rows, built once per length s and
kept for the life of the process.  Lengths are capped at MAX_QUBITS // 2 = 6,
the largest sender or payload the library forms; the s = 6 table, the
largest, holds 6 MiB.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .statevec import MAX_QUBITS


def pauli_digits(label: int, length: int) -> tuple[int, ...]:
    """Base-4 digits of a Pauli-string label, most significant digit first."""
    if length < 1:
        raise ValueError("length must be at least 1")
    if not 0 <= label < 4**length:
        raise ValueError(f"label {label} out of range for {length} factors")
    digits = []
    for _ in range(length):
        digits.append(label % 4)
        label //= 4
    return tuple(reversed(digits))


def pauli_label(digits: Sequence[int]) -> int:
    """Inverse of pauli_digits."""
    label = 0
    for d in digits:
        if d not in (0, 1, 2, 3):
            raise ValueError(f"Pauli digits must be 0..3, got {tuple(digits)}")
        label = label * 4 + d
    return label


def _checked_labels(labels: np.ndarray, length: int) -> np.ndarray:
    """``labels`` as int64, refusing any outside [0, 4^length) rather than
    reading it modulo 4^length."""
    labels = np.asarray(labels, dtype=np.int64)
    bad = labels[(labels < 0) | (labels >= 4**length)]
    if bad.size:
        raise ValueError(f"label {bad[0]} out of range for {length} factors")
    return labels


def xz_masks(labels: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, z) bit masks of each label, so that P_label is X^x Z^z up to phase.

    X sets the x bit, Z the z bit and Y both; bit s-1-k belongs to the k-th
    digit from the left, matching the basis index of the qubits.  A label
    outside [0, 4^length) is refused, not read modulo 4^length.
    """
    labels = _checked_labels(labels, length)
    x = np.zeros_like(labels)
    z = np.zeros_like(labels)
    for k in range(length):
        digit = (labels >> (2 * k)) & 3
        x |= ((digit == 1) | (digit == 2)).astype(np.int64) << k
        z |= (digit >> 1) << k
    return x, z


@lru_cache(maxsize=None)
def _all_label_masks(length: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``xz_masks`` of every label 0..4^length - 1.  Memoised: the
    masks depend on ``length`` alone."""
    masks = xz_masks(np.arange(4**length), length)
    for mask in masks:
        mask.setflags(write=False)
    return masks


def pauli_rows(labels: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather index and phase of every label's action on rows.

    P_d = i^{|x & z|} X^x Z^z, so for any M with 2^s rows
    (P_d M)[r] = phase[d, r] M[src[d, r]] with src = r xor x and
    phase = i^{|x & z|} (-1)^{z.src}; both have shape (len(labels), 2^s).
    Both are fresh arrays gathered from the memoised table of all labels.
    """
    labels = _checked_labels(labels, length)
    src, phase = _all_label_rows(length)
    return src[labels], phase[labels]


@lru_cache(maxsize=None)
def _all_label_rows(length: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``pauli_rows`` of every label 0..4^length - 1, memoised like
    ``_all_label_masks``.  Capped at MAX_QUBITS // 2 factors, the largest
    sender or payload the library forms."""
    if not 0 <= length <= MAX_QUBITS // 2:
        raise ValueError(
            f"Pauli row tables hold at most {MAX_QUBITS // 2} factors, got {length}"
        )
    x, z = _all_label_masks(length)
    src = x[:, None] ^ np.arange(2**length)
    y_count = np.zeros_like(x)
    parity = np.zeros_like(src)
    for k in range(length):
        y_count += (x & z) >> k & 1
        parity ^= (z[:, None] & src) >> k & 1
    phase = np.array([1, 1j, -1, -1j])[y_count % 4][:, None] * (1 - 2 * parity)
    for table in (src, phase):
        table.setflags(write=False)
    return src, phase


def apply_paulis(
    amplitudes: np.ndarray, qubits: Sequence[int], labels: Sequence[int]
) -> np.ndarray:
    """Amplitudes of P_d|psi> for every label d, one row per label.

    The labels act on the listed 1-based qubits in the given order: the first
    digit of a label acts on the first listed qubit.
    """
    amps = np.asarray(amplitudes)
    n = amps.size.bit_length() - 1
    axes = [int(q) - 1 for q in qubits]
    if len(set(axes)) != len(axes) or not all(0 <= a < n for a in axes):
        raise ValueError(f"qubits must be distinct and in 1..{n}, got {tuple(qubits)}")
    s = len(axes)
    order = axes + [a for a in range(n) if a not in axes]
    front = amps.reshape((2,) * n).transpose(order).reshape(2**s, -1)
    src, phase = pauli_rows(np.asarray(labels), s)
    out = (phase[:, :, None] * front[src]).reshape((len(src),) + (2,) * n)
    restore = [0, *(np.argsort(order) + 1)]
    return out.transpose(restore).reshape(len(src), amps.size)


def pauli_expectations(rho: np.ndarray) -> np.ndarray:
    """|Tr(rho P_d)| for every Pauli-string label d on rho's qubits.

    X^x Z^z maps |j> to (-1)^{z.j} |j xor x>, so Tr(rho X^x Z^z) is the
    Walsh-Hadamard transform over j of the slice v_x[j] = rho[j, j xor x]:
    O(4^s s) work for all 4^s labels.  A stack of matrices, shape
    (..., 2^s, 2^s), gives one row of 4^s values per matrix; the transform
    is elementwise, so each row equals the result for its matrix alone.
    """
    rho = np.asarray(rho)
    dim = rho.shape[-1] if rho.ndim >= 2 else 0
    length = dim.bit_length() - 1
    if dim < 2 or rho.shape[-2] != dim or 2**length != dim:
        raise ValueError(
            f"expected a 2^s x 2^s matrix or a stack of them, got shape {rho.shape}"
        )
    lead = rho.shape[:-2]
    j = np.arange(dim)
    table = rho[..., j, j ^ j[:, None]]
    spare = np.empty_like(table)
    # Butterfly on each bit of j: rows stay x, the last axis becomes z.
    for k in range(length):
        pairs = table.reshape(lead + (dim, -1, 2, 2**k))
        out = spare.reshape(pairs.shape)
        np.add(pairs[..., 0, :], pairs[..., 1, :], out=out[..., 0, :])
        np.subtract(pairs[..., 0, :], pairs[..., 1, :], out=out[..., 1, :])
        table, spare = spare, table
    x, z = _all_label_masks(length)
    return np.abs(table[..., x, z])
