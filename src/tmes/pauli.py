"""Pauli-string labels and their symplectic (x, z) form.

A label is a base-4 integer whose digits, most significant first, name the
Pauli factor on each qubit: 0 is I, 1 is X, 2 is Y and 3 is Z.  Up to a
phase every string equals X^x Z^z for two s-bit masks, with the first qubit
on the most significant bit (Aaronson & Gottesman, PRA 70, 052328, 2004).
Phases never matter here: the callers need |Tr(rho P)| and products of
strings up to phase, which is bitwise xor of labels.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Composition table of Pauli indices up to phase: sigma_a sigma_b is
# proportional to sigma_{XOR4[a][b]}.  Coincides with bitwise xor.
XOR4: tuple[tuple[int, ...], ...] = (
    (0, 1, 2, 3),
    (1, 0, 3, 2),
    (2, 3, 0, 1),
    (3, 2, 1, 0),
)


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


def xz_masks(labels: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, z) bit masks of each label, so that P_label is X^x Z^z up to phase.

    X sets the x bit, Z the z bit and Y both; bit s-1-k belongs to the k-th
    digit from the left, matching the basis index of the qubits.
    """
    labels = np.asarray(labels, dtype=np.int64)
    x = np.zeros_like(labels)
    z = np.zeros_like(labels)
    for k in range(length):
        digit = (labels >> (2 * k)) & 3
        x |= ((digit == 1) | (digit == 2)).astype(np.int64) << k
        z |= (digit >> 1) << k
    return x, z


def pauli_expectations(rho: np.ndarray) -> np.ndarray:
    """|Tr(rho P_d)| for every Pauli-string label d on rho's qubits.

    X^x Z^z maps |j> to (-1)^{z.j} |j xor x>, so Tr(rho X^x Z^z) is the
    Walsh-Hadamard transform over j of the slice v_x[j] = rho[j, j xor x]:
    O(4^s s) work for all 4^s labels.
    """
    rho = np.asarray(rho)
    dim = rho.shape[0]
    length = dim.bit_length() - 1
    if rho.shape != (dim, dim) or dim < 2 or 2**length != dim:
        raise ValueError(f"expected a 2^s x 2^s matrix, got shape {rho.shape}")
    j = np.arange(dim)
    table = rho[j, j ^ j[:, None]]
    # Butterfly on each bit of j: rows stay x, the last axis becomes z.
    for k in range(length):
        pairs = table.reshape(dim, -1, 2, 2**k)
        table = np.stack(
            (pairs[:, :, 0] + pairs[:, :, 1], pairs[:, :, 0] - pairs[:, :, 1]), axis=2
        ).reshape(dim, dim)
    x, z = xz_masks(np.arange(4**length), length)
    return np.abs(table[x, z])
