"""Independent brute-force reference implementations used as test oracles.

Everything here works on raw amplitude arrays with explicit index bit
arithmetic, deliberately avoiding the reshape/tensordot machinery of the
package under test.  Qubit 1 is the most significant bit throughout.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def bit_of(index: int, qubit: int, num_qubits: int) -> int:
    """Value of 1-based ``qubit`` inside a basis index."""
    return (index >> (num_qubits - qubit)) & 1


def sub_index(index: int, qubits, num_qubits: int) -> int:
    """Pack the listed qubits' bits (in the given order) into one integer."""
    out = 0
    for q in qubits:
        out = (out << 1) | bit_of(index, q, num_qubits)
    return out


def brute_reduced_density(amps, num_qubits: int, keep) -> np.ndarray:
    """Reduced density matrix on ``keep`` (ascending), by direct summation."""
    keep = sorted(keep)
    traced = [q for q in range(1, num_qubits + 1) if q not in keep]
    dim = 2 ** len(keep)
    rho = np.zeros((dim, dim), dtype=complex)
    nz = [i for i in range(2**num_qubits) if abs(amps[i]) > 1e-16]
    for i in nz:
        for j in nz:
            if sub_index(i, traced, num_qubits) != sub_index(j, traced, num_qubits):
                continue
            rho[sub_index(i, keep, num_qubits), sub_index(j, keep, num_qubits)] += amps[
                i
            ] * np.conj(amps[j])
    return rho


def brute_spectrum(amps, num_qubits: int, side) -> np.ndarray:
    """Nonzero eigenvalues of the reduced state on ``side``, descending."""
    rho = brute_reduced_density(amps, num_qubits, side)
    vals = np.linalg.eigvalsh(rho)[::-1]
    return vals[vals > 1e-12]


def brute_cut_matrix(amps, num_qubits: int, sender) -> np.ndarray:
    """The amplitudes as a matrix whose row index packs the ``sender`` bits
    (ascending) and whose column index packs the rest: each entry placed
    by bit arithmetic on its joint index, with no reshape or transpose."""
    sender = sorted(sender)
    rest = [q for q in range(1, num_qubits + 1) if q not in sender]
    index = np.arange(2**num_qubits)
    mat = np.zeros((2 ** len(sender), 2 ** len(rest)), dtype=complex)
    mat[sub_index(index, sender, num_qubits), sub_index(index, rest, num_qubits)] = amps
    return mat


def brute_runs(amps, num_qubits: int) -> tuple[tuple[int, ...], ...]:
    """Qubits 1..n split into runs of neighbours, in order: q and q + 1 share
    a run when the amplitude tensor with axes q and q + 1 swapped by
    ``np.swapaxes`` has the original's bytes (so -0.0 is not 0.0)."""
    psi = np.asarray(amps, dtype=complex).reshape((2,) * num_qubits)
    runs = [[1]]
    for q in range(1, num_qubits):
        swapped = np.ascontiguousarray(np.swapaxes(psi, q - 1, q))
        if swapped.tobytes() == psi.tobytes():
            runs[-1].append(q + 1)
        else:
            runs.append([q + 1])
    return tuple(map(tuple, runs))


def run_counts(runs, sender) -> tuple[int, ...]:
    """How many qubits of ``sender`` each run holds: two cuts with the same
    counts have the same cut matrix."""
    return tuple(len(set(run) & set(sender)) for run in runs)


def svd_cut_spectrum(amps, num_qubits: int, sender) -> tuple[float, ...]:
    """Squared singular values above 1e-12, descending, of
    ``brute_cut_matrix``: one ``np.linalg.svd`` per cut."""
    s = np.linalg.svd(brute_cut_matrix(amps, num_qubits, sender), compute_uv=False)
    lam = np.sort(s * s)[::-1]
    return tuple(float(x) for x in lam[lam > 1e-12])


def brute_genuine_multipartite(amps, num_qubits: int, tol: float) -> bool:
    """No cut with a reduced-state eigenvalue of at least 1 - tol, found by
    summing every reduced density matrix and diagonalising it."""
    for size in range(1, num_qubits // 2 + 1):
        for sender in itertools.combinations(range(1, num_qubits + 1), size):
            rho = brute_reduced_density(amps, num_qubits, sender)
            if np.linalg.eigvalsh(rho)[-1] >= 1.0 - tol:
                return False
    return True


def brute_apply(amps, num_qubits: int, matrix, targets) -> np.ndarray:
    """Apply a 2^k x 2^k matrix to ordered 1-based targets, index by index."""
    k = len(targets)
    out = np.zeros_like(np.asarray(amps, dtype=complex))
    for i in range(2**num_qubits):
        row = sub_index(i, targets, num_qubits)
        acc = 0.0 + 0.0j
        for col in range(2**k):
            src = i
            for pos, q in enumerate(targets):
                shift = num_qubits - q
                bit = (col >> (k - 1 - pos)) & 1
                src = (src & ~(1 << shift)) | (bit << shift)
            acc += matrix[row, col] * amps[src]
        out[i] = acc
    return out


def brute_negativity(amps, num_qubits: int, transpose_qubits) -> float:
    """Sum of negative eigenvalues (absolute) after partial transposition."""
    dim = 2**num_qubits
    rho = np.outer(amps, np.conj(np.asarray(amps)))
    pt = np.zeros_like(rho)
    for i in range(dim):
        for j in range(dim):
            i2, j2 = i, j
            for q in transpose_qubits:
                shift = num_qubits - q
                if ((i >> shift) ^ (j >> shift)) & 1:
                    i2 ^= 1 << shift
                    j2 ^= 1 << shift
            pt[i2, j2] = rho[i, j]
    eigs = np.linalg.eigvalsh(pt)
    return float(-np.sum(eigs[eigs < 0]))


def brute_teleport_outcome(
    resource, num_qubits: int, sender, payload, measurement, correction
) -> tuple[float, float]:
    """Probability and payload fidelity of one teleport outcome.

    The joint state is the payload (most significant qubits) then the
    ``num_qubits``-qubit resource.  ``measurement`` is a state on the payload
    qubits followed by the sorted ``sender`` qubits; ``correction`` acts on the
    sorted receiver qubits, and the payload must land on the first of them.
    Every index is formed by bit arithmetic on the joint basis index.
    """
    resource = np.asarray(resource, dtype=complex)
    payload = np.asarray(payload, dtype=complex)
    p = len(payload).bit_length() - 1
    n = num_qubits
    sender = sorted(sender)
    receiver = [q for q in range(1, n + 1) if q not in sender]
    joint_index = np.arange(2 ** (p + n))
    pay_index = joint_index >> n
    res_index = joint_index & (2**n - 1)
    joint = payload[pay_index] * resource[res_index]
    meas_row = (pay_index << len(sender)) | sub_index(res_index, sender, n)
    recv_row = sub_index(res_index, receiver, n)
    post = np.zeros(2 ** len(receiver), dtype=complex)
    np.add.at(post, recv_row, np.conj(np.asarray(measurement))[meas_row] * joint)
    prob = float(np.sum(np.abs(post) ** 2))
    if prob <= 1e-12:
        return 0.0, 1.0
    corrected = np.zeros_like(post)
    for row in range(post.size):
        corrected[row] = np.sum(np.asarray(correction)[row] * post)
    corrected /= math.sqrt(prob)
    # Receiver index = payload bits then ancilla bits; the fidelity sums
    # |<payload|ancilla slice>|^2 over the ancilla values.
    anc_bits = len(receiver) - p
    recv_index = np.arange(post.size)
    slices = np.zeros(2**anc_bits, dtype=complex)
    np.add.at(
        slices,
        recv_index & (2**anc_bits - 1),
        np.conj(payload[recv_index >> anc_bits]) * corrected,
    )
    return prob, float(np.sum(np.abs(slices) ** 2))


def dense_protocol_deviation(family, corrections) -> tuple[float, float]:
    """How far a teleport protocol's multiplied-out arrays are from valid:
    the largest entry of |F̄ Fᵀ - I| over the (k, d) measurement family F,
    and the largest entry of |U^H U - I| over each of the k corrections U."""
    family = np.asarray(family, dtype=complex)
    gram = family.conj() @ family.T - np.eye(len(family))
    worst = 0.0
    for u in np.asarray(corrections, dtype=complex):
        worst = max(worst, float(np.max(np.abs(u.conj().T @ u - np.eye(len(u))))))
    return float(np.max(np.abs(gram))), worst


def dense_codebook_deviation(stack) -> tuple[float, float]:
    """How far a superdense-coding codebook's encoded states are from an
    orthonormal set, from their dense Gram matrix G = S̄ Sᵀ over the rows S:
    the largest off-diagonal |G_ab| (0 for one row), and the largest
    |sqrt(G_aa) - 1|, the departure of a row norm from 1."""
    stack = np.asarray(stack, dtype=complex)
    gram = stack.conj() @ stack.T
    norms = np.sqrt(np.real(np.diagonal(gram)))
    off = np.abs(gram - np.diag(np.diagonal(gram)))
    return float(np.max(off)), float(np.max(np.abs(norms - 1.0)))


def vdot_decode(encoded, sent) -> int:
    """Index of the encoded state ``sent`` projects onto most strongly, one
    ``np.vdot`` per codebook entry."""
    return int(np.argmax([abs(np.vdot(e, sent)) ** 2 for e in encoded]))


def brute_pauli_expectations(amps, num_qubits: int, qubits) -> np.ndarray:
    """|<psi|P_d|psi>| for every Pauli-string label d on the ordered 1-based
    ``qubits``: base-4 digits of d, most significant first, pick I, X, Y, Z.

    Each factor flips and signs basis indices bit by bit: X|b> = |1-b>,
    Y|b> = i(-1)^b |1-b>, Z|b> = (-1)^b |b>.
    """
    amps = np.asarray(amps, dtype=complex)
    s = len(qubits)
    index = np.arange(2**num_qubits)
    out = np.empty(4**s)
    for label in range(4**s):
        image = index.copy()
        coeff = np.ones(index.size, dtype=complex)
        for pos, q in enumerate(qubits):
            digit = (label >> (2 * (s - 1 - pos))) & 3
            shift = num_qubits - q
            sign = 1 - 2 * ((index >> shift) & 1)
            if digit in (1, 2):
                image ^= 1 << shift
            if digit == 2:
                coeff *= 1j * sign
            elif digit == 3:
                coeff *= sign
        # P|psi> puts coeff[i] * amps[i] at basis index image[i]
        out[label] = abs(np.vdot(amps[image], coeff * amps))
    return out


def brute_orthogonality_adjacency(expect, tol: float) -> list[int]:
    """Bitmask rows of the graph joining labels p != q with
    expect[p xor q] <= tol, built pair by pair."""
    nverts = len(expect)
    adj = [0] * nverts
    for p in range(nverts):
        row = 0
        for q in range(nverts):
            if q != p and expect[p ^ q] <= tol:
                row |= 1 << q
        adj[p] = row
    return adj


def brute_max_orthogonal(vectors, tol: float = 1e-9) -> int:
    """Largest pairwise-orthogonal subset by exhaustive search with a simple
    bound; safe for up to ~16 vectors."""
    n = len(vectors)
    ok = [
        [abs(np.vdot(vectors[a], vectors[b])) <= tol for b in range(n)]
        for a in range(n)
    ]
    best = 0

    def extend(start: int, members: list[int]) -> None:
        nonlocal best
        best = max(best, len(members))
        for v in range(start, n):
            if len(members) + (n - v) <= best:
                break
            if all(ok[v][u] for u in members):
                members.append(v)
                extend(v + 1, members)
                members.pop()

    extend(0, [])
    return best


def gf2_rank(rows) -> int:
    """Rank over GF(2) of integer bit rows: each nonzero row clears its
    lowest set bit from the rows after it."""
    rows = [int(r) for r in rows]
    rank = 0
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


def gf2_leading_bits(rows) -> int:
    """The bits that lead some element of the GF(2) span of integer bit rows
    (the pivots of any row echelon form), as a mask.  Each row is reduced by
    the basis kept in descending order, then joins it if anything is left."""
    basis: list[int] = []
    for r in rows:
        r = int(r)
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis = sorted(basis + [r], reverse=True)
    mask = 0
    for b in basis:
        mask |= 1 << (b.bit_length() - 1)
    return mask


def graph_figures(adj, sender) -> tuple[int, int]:
    """Teleport capacity and message count of the graph state with 0/1
    adjacency matrix ``adj`` across the cut 1-based ``sender`` | rest, by
    GF(2) elimination alone; no statevector is built.

    With E the GF(2) rank of the sender-by-receiver block of ``adj``, the
    cut's Schmidt spectrum is flat of rank 2^E (Hein, Eisert & Briegel,
    PRA 69, 062311, 2004), so the capacity is min(E, |receiver|).  The
    stabilizer elements supported on the sender number 2^(|sender| - E);
    they are the labels with nonzero sender expectation, and their
    2^(|sender| + E) cosets carry one message each.
    """
    n = len(adj)
    sender = sorted(sender)
    receiver = [q for q in range(1, n + 1) if q not in sender]
    block = [
        sum(int(adj[a - 1][b - 1]) << i for i, b in enumerate(receiver))
        for a in sender
    ]
    rank = gf2_rank(block)
    return min(rank, len(receiver)), 2 ** (len(sender) + rank)


def graph_verdict(adj) -> tuple[bool, int, int, tuple[int, ...] | None]:
    """Maximality verdict of the graph state with 0/1 adjacency matrix
    ``adj``, folded from ``graph_figures`` alone: (maximal, best capacity,
    best message count, witnessing sender or None).

    The rule is the documented one: senders of ceil(n/2) qubits in
    ``itertools.combinations`` order; the state is maximal when some cut
    teleports floor(n/2) qubits and some cut carries 2^n messages; the
    witness is the first cut that does both, else (when maximal) the first
    that teleports floor(n/2).  Every cut is folded: a graph state's cut
    carries at most 2^n messages and teleports at most floor(n/2) qubits, so
    the figures equal those of a scan that stops at the first joint witness.
    """
    n = len(adj)
    best_cap = best_msgs = 0
    joint = teleport = None
    for sender in itertools.combinations(range(1, n + 1), (n + 1) // 2):
        cap, msgs = graph_figures(adj, sender)
        best_cap = max(best_cap, cap)
        best_msgs = max(best_msgs, msgs)
        if cap >= n // 2:
            teleport = teleport or sender
            if msgs >= 2**n:
                joint = joint or sender
    maximal = best_cap >= n // 2 and best_msgs >= 2**n
    return maximal, best_cap, best_msgs, joint or (teleport if maximal else None)


def two_adic(x: int) -> int:
    """Exponent of two in ``x`` by repeated division."""
    if x <= 0:
        raise ValueError("positive integers only")
    count = 0
    while x % 2 == 0:
        x //= 2
        count += 1
    return count


def shannon_bits(values) -> float:
    """Base-2 entropy of a probability vector, ignoring zeros."""
    total = 0.0
    for v in values:
        if v > 0:
            total -= v * math.log2(v)
    return total


def dense_independence_rank(matrices, atol: float = 1e-9) -> int:
    """Rank of the flattened, row-normalized matrices by one SVD of the whole
    row stack: singular values above ``atol`` times the largest.  Zero
    matrices are left out, so a list of them has rank 0."""
    rows = np.stack([np.asarray(m, dtype=complex).reshape(-1) for m in matrices])
    norms = np.linalg.norm(rows, axis=1)
    rows = rows[norms > 0] / norms[norms > 0, None]
    if not len(rows):
        return 0
    s = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(s > atol * s[0]))


def block_sigma_construct(matrices) -> list[np.ndarray]:
    """One level of the four-block recursion, one ``np.block`` per member:
    each g_a is paired with its cyclic successor g_{a+1} on the diagonal,
    on the diagonal with the lower block negated, then on the antidiagonal
    in the same two ways."""
    g = list(matrices)
    succ = g[1:] + g[:1]
    zero = np.zeros_like(g[0])
    out = []
    for sign in (1.0, -1.0):
        out.extend(np.block([[a, zero], [zero, sign * b]]) for a, b in zip(g, succ))
    for sign in (1.0, -1.0):
        out.extend(np.block([[zero, a], [sign * b, zero]]) for a, b in zip(g, succ))
    return out
