"""Symplectic Pauli layer: (x, z) masks, the row action of every label and
all-label expectations.

Expectations are checked against an oracle that applies each Pauli string
to the full state vector by index arithmetic, never through the reduced
density matrix or a Walsh-Hadamard transform.  The row action is checked
against dense Kronecker-product strings, phases included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_pauli_expectations
from tmes.capacity import haar_random_state
from tmes.operators import pauli_string
from tmes.pauli import (
    _all_label_masks,
    apply_paulis,
    pauli_digits,
    pauli_expectations,
    pauli_rows,
    xz_masks,
)
from tmes.states import chi, cluster5, ghz
from tmes.statevec import EXACT_ATOL, apply_local, partial_trace


@pytest.mark.parametrize("length", [1, 2, 3])
def test_masks_match_pauli_string_matrices(length):
    dim = 2**length
    j = np.arange(dim)
    x, z = xz_masks(np.arange(4**length), length)
    for label in range(4**length):
        signs = [(-1.0) ** bin(int(z[label]) & int(b)).count("1") for b in j]
        xz = np.zeros((dim, dim))
        xz[j ^ x[label], j] = signs
        mat = pauli_string(pauli_digits(label, length)).matrix
        phase = mat[x[label], 0]
        assert abs(abs(phase) - 1.0) <= EXACT_ATOL
        assert np.max(np.abs(mat - phase * xz)) <= EXACT_ATOL


@pytest.mark.parametrize("length", [1, 2, 3])
def test_rows_rebuild_pauli_string_matrices(length):
    dim = 2**length
    src, phase = pauli_rows(np.arange(4**length), length)
    for label in range(4**length):
        mat = np.zeros((dim, dim), dtype=complex)
        mat[np.arange(dim), src[label]] = phase[label]
        assert np.array_equal(mat, pauli_string(pauli_digits(label, length)).matrix)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_apply_paulis_matches_dense_strings(data):
    n = data.draw(st.integers(min_value=1, max_value=7), label="n")
    seed = data.draw(st.integers(min_value=0, max_value=10**6), label="seed")
    qubits = data.draw(
        st.permutations(range(1, n + 1)).flatmap(
            lambda perm: st.integers(1, min(n, 4)).map(lambda s: tuple(perm[:s]))
        ),
        label="qubits",
    )
    state = haar_random_state(n, seed)
    s = len(qubits)
    got = apply_paulis(state.amplitudes, qubits, range(4**s))
    for label in range(4**s):
        op = pauli_string(pauli_digits(label, s))
        assert np.array_equal(got[label], apply_local(state, op, qubits).amplitudes)


def test_apply_paulis_keeps_the_listed_qubit_order():
    # Label 4 * X + Z: X on the first listed qubit, Z on the second.
    state = haar_random_state(3, seed=1)
    got = apply_paulis(state.amplitudes, (3, 1), [4 * 1 + 3])[0]
    want = apply_local(state, pauli_string((1, 3)), (3, 1)).amplitudes
    assert np.array_equal(got, want)
    assert not np.array_equal(
        got, apply_local(state, pauli_string((1, 3)), (1, 3)).amplitudes
    )


def test_apply_paulis_rejects_bad_qubits():
    amps = haar_random_state(3, seed=0).amplitudes
    for qubits in [(0,), (4,), (1, 1)]:
        with pytest.raises(ValueError):
            apply_paulis(amps, qubits, [0])


# Read modulo 4^length, label 4 on one qubit would act as I and -1 as Z.
@pytest.mark.parametrize("label", [4, 5, -1, 2**40])
def test_out_of_range_labels_are_refused(label):
    amps = haar_random_state(2, seed=0).amplitudes
    with pytest.raises(ValueError, match=f"label {label} out of range for 1 factors"):
        apply_paulis(amps, (1,), [0, label])
    with pytest.raises(ValueError, match="out of range"):
        pauli_rows(np.array([label]), 1)
    with pytest.raises(ValueError, match="out of range"):
        xz_masks(np.array([label]), 1)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_expectations_match_oracle_on_random_states(data):
    n = data.draw(st.integers(min_value=2, max_value=8), label="n")
    seed = data.draw(st.integers(min_value=0, max_value=10**6), label="seed")
    sender = sorted(
        data.draw(
            st.sets(st.integers(1, n), min_size=1, max_size=min(n - 1, 5)),
            label="sender",
        )
    )
    state = haar_random_state(n, seed)
    got = pauli_expectations(partial_trace(state, sender).matrix)
    want = brute_pauli_expectations(state.amplitudes, n, sender)
    assert np.max(np.abs(got - want)) <= EXACT_ATOL


@pytest.mark.parametrize(
    "state,sender", [(ghz(6), (1, 2, 3)), (cluster5(), (1, 3, 5)), (chi(), (1, 4))]
)
def test_expectations_match_oracle_on_structured_states(state, sender):
    got = pauli_expectations(partial_trace(state, sender).matrix)
    want = brute_pauli_expectations(state.amplitudes, state.num_qubits, sender)
    assert np.max(np.abs(got - want)) <= EXACT_ATOL


def test_expectations_reject_non_qubit_shapes():
    for shape in [(3, 3), (2, 4), (1, 1), (4,)]:
        with pytest.raises(ValueError):
            pauli_expectations(np.zeros(shape))


def test_expectations_of_a_stack_equal_one_matrix_calls():
    # the transform is elementwise across the stack, so each row is the
    # one-matrix result to the bit, for any leading shape
    state = haar_random_state(6, seed=2)
    senders = [(1, 2, 3), (2, 4, 6), (1, 5, 6), (3, 4, 5)]
    rhos = np.stack([partial_trace(state, q).matrix for q in senders])
    got = pauli_expectations(rhos.reshape(2, 2, 8, 8))
    assert got.shape == (2, 2, 64)
    for row, rho in zip(got.reshape(4, 64), rhos):
        assert np.array_equal(row, pauli_expectations(rho))


@pytest.mark.parametrize("length", [1, 2, 3])
def test_label_masks_are_memoised_and_read_only(length):
    x, z = _all_label_masks(length)
    assert _all_label_masks(length)[0] is x
    want_x, want_z = xz_masks(np.arange(4**length), length)
    assert np.array_equal(x, want_x) and np.array_equal(z, want_z)
    with pytest.raises(ValueError, match="read-only"):
        x[0] = 1
