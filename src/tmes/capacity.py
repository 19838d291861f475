"""Operational task capacities across a cut: teleportation and superdense
coding, plus the combined maximality verdict.

Teleportation verdicts are spectral: every clustered Schmidt multiplicity
must divide by 2^k, which is exactly local-unitary equivalence to k Bell
pairs tensor a leftover state.  The verdict is cross-checked by an explicit
protocol simulator.  Superdense-coding verdicts count the largest family of
Pauli-string encodings with pairwise orthogonal outputs: one per coset when
the labels with nonzero sender expectation form a group, else by clique search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .pauli import apply_paulis, pauli_expectations, pauli_rows
from .statevec import (
    ATOL,
    CLUSTER_RTOL,
    EXACT_ATOL,
    MAX_QUBITS,
    Partition,
    PureState,
    _freeze,
    check_qubits,
    partial_trace,
    schmidt_decomposition,
    schmidt_spectrum,
    tensor,
)

def haar_random_state(num_qubits: int, seed: int = 0) -> PureState:
    """Haar-distributed pure state: normalized i.i.d. complex Gaussians."""
    if num_qubits < 1:
        raise ValueError("a state needs at least one qubit")
    rng = np.random.default_rng(seed)
    dim = 2**num_qubits
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(num_qubits, vec / np.linalg.norm(vec))


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a Ginibre matrix with phases fixed."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _two_adic_valuation(x: int) -> int:
    return (x & -x).bit_length() - 1


def teleport_capacity(
    state: PureState, cut: Partition, rtol: float = CLUSTER_RTOL
) -> int:
    """Largest k <= |receiver| with every clustered Schmidt multiplicity
    divisible by 2^k."""
    spectrum = schmidt_spectrum(state, cut)
    mults = [m for _, m in spectrum.clustered(rtol)]
    return min(_two_adic_valuation(math.gcd(*mults)), len(cut.receiver))


@dataclass(frozen=True, eq=False)
class TeleportProtocol:
    """Measurement family and corrections for perfect teleportation.

    Row i of ``measurement_family`` (read-only, k x 2^(p+s)) is a measurement
    state on payload+sender qubits, payload first, and ``corrections[i]``
    (read-only, k x 2^r x 2^r) its receiver unitary.  Outcome i is labeled
    (pauli label, Schmidt block); its correction relabels the receiver's
    Schmidt basis to the computational basis and undoes the Pauli, parking
    the payload on the first n_payload receiver qubits.  With a single block
    (rank exactly 2^n_payload) the family has 4^n_payload members and outcome
    probabilities are uniform 4^{-n_payload}.
    """

    cut: Partition
    n_payload: int
    measurement_family: np.ndarray
    corrections: np.ndarray
    outcome_labels: tuple[tuple[int, int], ...]
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n_payload < 1:
            raise ValueError("payload must hold at least one qubit")
        fam = np.asarray(self.measurement_family, dtype=complex)
        corr = np.asarray(self.corrections, dtype=complex)
        labels = tuple(self.outcome_labels)
        probs = tuple(float(p) for p in self.probabilities)
        recv_dim = 2 ** len(self.cut.receiver)
        if fam.ndim != 2 or fam.shape[1] != 2 ** (self.n_payload + len(self.cut.sender)):
            raise ValueError("measurement states must cover payload plus sender")
        if corr.shape[1:] != (recv_dim, recv_dim):
            raise ValueError("corrections must act on the receiver side")
        k = len(labels)
        if not k or not len(fam) == len(corr) == k == len(probs):
            raise ValueError("per-outcome fields must have equal nonzero length")
        if not (np.isfinite(fam).all() and np.isfinite(corr).all()):
            raise ValueError("protocol has a NaN or infinite entry")
        if np.max(np.abs(fam.conj() @ fam.T - np.eye(k))) > ATOL:
            raise ValueError("measurement family is not orthonormal")
        unitarity = np.abs(corr.conj().transpose(0, 2, 1) @ corr - np.eye(recv_dim))
        bad = np.flatnonzero(np.max(unitarity, axis=(1, 2)) > ATOL)
        if bad.size:
            raise ValueError(f"correction {bad[0]} is not unitary")
        if any(p < -EXACT_ATOL for p in probs) or abs(sum(probs) - 1.0) > ATOL:
            raise ValueError("outcome probabilities must be a distribution")
        object.__setattr__(self, "measurement_family", _freeze(fam))
        object.__setattr__(self, "corrections", _freeze(corr))
        object.__setattr__(self, "outcome_labels", labels)
        object.__setattr__(self, "probabilities", probs)


def build_teleport_protocol(
    state: PureState, cut: Partition, n_payload: int, rtol: float = CLUSTER_RTOL
) -> TeleportProtocol:
    """Measurement family and corrections for an n_payload-qubit payload.

    Requires teleport_capacity(state, cut) >= n_payload.  The Schmidt rank
    splits into blocks of 2^n_payload equal coefficients; each block
    contributes one measurement state per payload Pauli string.  Outcome
    (q, j) sits at index q * nblocks + j.
    """
    if n_payload < 1:
        raise ValueError("payload must hold at least one qubit")
    cap = teleport_capacity(state, cut, rtol)
    if n_payload > cap:
        raise ValueError(
            f"cut supports teleporting {cap} qubits, requested {n_payload}"
        )
    coeffs, a_vecs, b_vecs = schmidt_decomposition(state, cut)
    rank = coeffs.size
    block = 2**n_payload
    nblocks = rank // block
    npaulis = 4**n_payload
    recv_dim = b_vecs.shape[1]
    anc_dim = recv_dim // block

    # Receiver relabeling: Schmidt vector (m, j) goes to basis state m|j.
    relabel = np.zeros((recv_dim, recv_dim), dtype=complex)
    conj_rows = np.conjugate(b_vecs)
    k = np.arange(rank)
    used = (k % block) * anc_dim + k // block
    relabel[used] = conj_rows
    if rank < recv_dim:
        # The complement of the Schmidt vectors fills the free rows in order.
        _, _, vh = np.linalg.svd(conj_rows, full_matrices=True)
        relabel[np.setdiff1d(np.arange(recv_dim), used)] = vh[rank:, :]

    # Payload Pauli q acts on the in-block index m, both on the measurement
    # rows and on the relabeled receiver basis m|j>: P_q (x) I_anc @ relabel.
    src, phase = pauli_rows(np.arange(npaulis), n_payload)
    moved = phase[:, :, None, None] * relabel.reshape(block, anc_dim, recv_dim)[src]
    bases = a_vecs.T.reshape(nblocks, block, -1) * (1.0 / math.sqrt(block))
    family = phase[:, None, :, None] * np.swapaxes(bases[:, src], 0, 1)
    means = [float(np.mean(c)) for c in coeffs.reshape(nblocks, block)]
    block_probs = tuple(t * t / block for t in means)
    corrections = np.repeat(moved.reshape(npaulis, recv_dim, recv_dim), nblocks, axis=0)
    labels = tuple((q, j) for q in range(npaulis) for j in range(nblocks))
    return TeleportProtocol(
        cut, n_payload, family.reshape(len(labels), -1), corrections, labels,
        block_probs * npaulis,
    )


@dataclass(frozen=True)
class TeleportOutcome:
    index: int
    pauli_label: int
    block_index: int
    probability: float
    fidelity: float


@dataclass(frozen=True, eq=False)
class TeleportResult:
    """Per-outcome probabilities and fidelities of one simulated run."""

    payload: PureState
    protocol: TeleportProtocol
    outcomes: tuple[TeleportOutcome, ...]

    @property
    def total_probability(self) -> float:
        return float(sum(o.probability for o in self.outcomes))

    @property
    def min_fidelity(self) -> float:
        return float(min(o.fidelity for o in self.outcomes))


def simulate_teleportation(
    state: PureState,
    cut: Partition,
    payload: PureState | int,
    seed: int = 0,
    rtol: float = CLUSTER_RTOL,
) -> TeleportResult:
    """Run the full protocol on an explicit payload state.

    ``payload`` may be a PureState or a qubit count; a count draws a seeded
    Haar-random payload.  Every outcome reports its exact probability and the
    fidelity of the corrected receiver state with the payload.
    """
    if isinstance(payload, int):
        payload = haar_random_state(payload, seed)
    protocol = build_teleport_protocol(state, cut, payload.num_qubits, rtol)
    p = payload.num_qubits
    n = state.num_qubits
    sender, receiver = cut.sides()
    joint = tensor(payload, state).amplitudes
    perm = (
        list(range(p))
        + [p + q - 1 for q in sender]
        + [p + q - 1 for q in receiver]
    )
    mat = (
        joint.reshape((2,) * (p + n))
        .transpose(perm)
        .reshape(2 ** (p + len(sender)), 2 ** len(receiver))
    )
    # Every outcome at once, through (k, 1, d) and (k, d, 1) operands so that
    # matmul makes the same per-outcome BLAS calls (gemv, dot) as a loop.
    v = protocol.measurement_family.conj()[:, None, :] @ mat
    prob = np.real(v.conj() @ v.transpose(0, 2, 1))[:, 0, 0]
    ok = prob > EXACT_ATOL
    unit = v[:, 0, :] / np.sqrt(np.where(ok, prob, 1.0))[:, None]
    corrected = protocol.corrections @ unit[:, :, None]
    reduced = corrected.reshape(len(prob), 2**p, -1)
    rho = reduced @ reduced.conj().transpose(0, 2, 1)
    amps = payload.amplitudes
    fid = np.real(amps.conj() @ (rho @ amps)[:, :, None])[:, 0]
    prob = np.where(ok, prob, 0.0)
    fid = np.where(ok, fid, 1.0)
    outcomes = [
        TeleportOutcome(i, q, j, float(prob[i]), float(fid[i]))
        for i, (q, j) in enumerate(protocol.outcome_labels)
    ]
    return TeleportResult(payload, protocol, tuple(outcomes))


def _sender_qubits(state: PureState, sender_set: Iterable[int]) -> tuple[int, ...]:
    qubits = tuple(sorted({int(q) for q in sender_set}))
    n = state.num_qubits
    if not qubits:
        raise ValueError("sender set is empty")
    if qubits[0] < 1 or qubits[-1] > n:
        raise ValueError(f"sender qubits out of range 1..{n}: {qubits}")
    if len(qubits) >= n:
        raise ValueError("sender set must be a proper subset")
    # The largest sender is_tmes asks for; the xor gather has 16^s entries.
    if len(qubits) > MAX_QUBITS // 2:
        raise ValueError(f"senders are capped at {MAX_QUBITS // 2} qubits: {qubits}")
    return qubits


def _orthogonality_adjacency(expect: np.ndarray, tol: float) -> list[int]:
    """Bitmask adjacency of the graph joining labels with orthogonal encodings.

    ``expect[d]`` is |<psi|P_d|psi>|.  Labels p, q are adjacent iff
    expect[p xor q] <= tol; the encoded overlap equals that difference
    expectation up to phase.
    """
    labels = np.arange(expect.size)
    rows = (expect <= tol)[labels ^ labels[:, None]]
    rows[labels, labels] = False
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _max_clique(adj: list[int]) -> tuple[int, ...]:
    """Exact maximum clique, deterministic: branch-and-bound with greedy
    coloring bounds, vertices explored in a fixed order.  The best clique is
    replaced only on a strict increase, so the first maximum one met wins.
    The depth-first search keeps an explicit stack, so a clique of any size
    fits in it.
    """
    best: list[int] = []
    cur: list[int] = []

    def color_sort(cand: int) -> list[tuple[int, int]]:
        order: list[tuple[int, int]] = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                bit = 1 << v
                avail &= ~(bit | adj[v])
                rest &= ~bit
                order.append((v, color))
        return order

    # One frame per clique member in ``cur`` plus the open one on top: the
    # labels still to try at that depth, and their (label, color) pairs,
    # tried from the end (last class, highest label first).
    full = (1 << len(adj)) - 1
    frames = [[full, color_sort(full)]]
    while frames:
        frame = frames[-1]
        cand, order = frame
        if not order or len(cur) + order[-1][1] <= len(best):
            frames.pop()
            if cur:
                cur.pop()
            continue
        v, _ = order.pop()
        frame[0] = cand & ~(1 << v)
        nxt = cand & adj[v]
        if nxt:
            cur.append(v)
            frames.append([nxt, color_sort(nxt)])
        elif len(cur) + 1 > len(best):
            best = cur + [v]
    return tuple(sorted(best))


def _dimension_bounds_hold(tol: float, num_senders: int) -> bool:
    """Whether ``tol`` is fine enough that orthogonality at ``tol`` obeys the
    dimension bounds on message counts.

    A set of m unit vectors with pairwise overlaps at most tol has a
    positive-definite Gram matrix when (m - 1) tol < 1, so m is at most the
    dimension they span.  The m <= 4^s encodings span at most 2^s r
    dimensions, r the rank of the sender marginal; dropping its eigenvalues
    below EXACT_ATOL moves each Gram entry by at most 2^s EXACT_ATOL.
    """
    verts = 4**num_senders
    return verts * (tol + 2**num_senders * EXACT_ATOL) < 1.0


def sdc_orthogonal_labels(
    state: PureState, sender_set: Iterable[int], tol: float = ATOL
) -> tuple[int, ...]:
    """A maximum set of Pauli-string labels with pairwise orthogonal encodings,
    in ascending order.  ``tol`` lies in [0, 1).

    Labels p, q are orthogonal iff p xor q is outside Z, the labels d with
    |Tr(rho_A P_d)| > tol.  When Z is a group (stabilizer marginals, Haar
    states) the graph is complete multipartite over its cosets, and the
    answer is the highest label of each coset: every pivot bit of a GF(2)
    basis of Z set.  Otherwise the exact clique search runs.  Both give the
    search's tie-break: it branches on labels in reverse greedy-coloring
    order (classes filled from the lowest label up, tried last class and
    highest label first) and keeps the first maximum set met.  So an
    edgeless graph gives (4^s - 1,), not (0,).
    """
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"tol must lie in [0, 1), got {tol}")
    qubits = _sender_qubits(state, sender_set)
    expect = pauli_expectations(partial_trace(state, qubits).matrix)
    group = np.flatnonzero(expect > tol)
    # Row reduction from the top bit down; each leading bit is a pivot.
    rows, pivots = group, 0
    for bit in reversed(range(2 * len(qubits))):
        hit = (rows >> bit) & 1 == 1
        if hit.any():
            pivots |= 1 << bit
            rows = np.where(hit, rows ^ rows[hit.argmax()], rows)
    if group.size == 2 ** pivots.bit_count():
        labels = np.arange(expect.size)
        return tuple(np.flatnonzero(labels & pivots == pivots).tolist())
    return _max_clique(_orthogonality_adjacency(expect, tol))


def sdc_max_messages(
    state: PureState, sender_set: Iterable[int], tol: float = ATOL
) -> int:
    """Largest number of messages Pauli encodings on the sender can carry."""
    return len(sdc_orthogonal_labels(state, sender_set, tol))


@dataclass(frozen=True, eq=False)
class SdcCodebook:
    """Pauli-string encodings with pairwise orthogonal encoded states."""

    sender_set: frozenset[int]
    labels: tuple[int, ...]
    encoded_states: tuple[PureState, ...]

    def __post_init__(self) -> None:
        labels = tuple(int(x) for x in self.labels)
        if len(set(labels)) != len(labels) or not labels:
            raise ValueError("codebook labels must be distinct and non-empty")
        if len(labels) != len(self.encoded_states):
            raise ValueError("codebook fields must have equal length")
        stack = np.stack([s.amplitudes for s in self.encoded_states])
        gram = stack.conj() @ stack.T
        off = gram - np.diag(np.diagonal(gram))
        if np.max(np.abs(off)) > ATOL:
            raise ValueError("encoded states are not pairwise orthogonal")
        object.__setattr__(self, "sender_set", frozenset(self.sender_set))
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)


def build_sdc_codebook(
    state: PureState,
    sender_set: Iterable[int],
    num_messages: int | None = None,
    tol: float = ATOL,
) -> SdcCodebook:
    """Codebook of ``num_messages`` orthogonal encodings (default: maximum).

    Raises when the requested size exceeds the attainable maximum.
    """
    qubits = _sender_qubits(state, sender_set)
    labels = sdc_orthogonal_labels(state, qubits, tol)
    if num_messages is None:
        num_messages = len(labels)
    if num_messages < 1:
        raise ValueError("a codebook needs at least one message")
    if num_messages > len(labels):
        raise ValueError(
            f"requested {num_messages} messages but only {len(labels)} "
            f"pairwise-orthogonal encodings exist on sender {qubits}"
        )
    chosen = labels[:num_messages]
    stack = apply_paulis(state.amplitudes, qubits, chosen)
    encoded = tuple(PureState(state.num_qubits, amps) for amps in stack)
    return SdcCodebook(frozenset(qubits), chosen, encoded)


def simulate_sdc(
    state: PureState,
    sender_set: Iterable[int],
    message_index: int,
    codebook: SdcCodebook,
) -> int:
    """Encode one message and decode by projection onto the codebook."""
    qubits = _sender_qubits(state, sender_set)
    if frozenset(qubits) != codebook.sender_set:
        raise ValueError("codebook was built for a different sender set")
    if not 0 <= message_index < len(codebook):
        raise ValueError(
            f"message index {message_index} out of range 0..{len(codebook) - 1}"
        )
    sent = apply_paulis(state.amplitudes, qubits, [codebook.labels[message_index]])[0]
    probs = [abs(np.vdot(e.amplitudes, sent)) ** 2 for e in codebook.encoded_states]
    return int(np.argmax(probs))


@dataclass(frozen=True)
class TmesVerdict:
    """Outcome of the maximal-task test with the best achieved figures."""

    is_tmes: bool
    teleport_qubits: int
    sdc_messages: int
    witnessing_partition: Partition | None


def is_tmes(
    state: PureState, tol: float = ATOL, rtol: float = CLUSTER_RTOL
) -> TmesVerdict:
    """Existential maximality test over balanced partitions.

    An n-qubit state passes iff some partition with a ceil(n/2)-qubit sender
    can teleport floor(n/2) qubits, and some such sender set carries 2^n
    messages.  The reported figures are the best found; the witnessing
    partition meets both thresholds when one exists.  When ``tol`` is fine
    enough for the dimension bounds, the scan stops at the first such
    partition, since no later one can raise either figure.
    """
    n = state.num_qubits
    if n < 2:
        raise ValueError("the maximal-task test needs at least two qubits")
    check_qubits(n, "the maximal-task test")
    payload_threshold = n // 2
    message_threshold = 2**n
    best_cap = 0
    best_msgs = 0
    joint: Partition | None = None
    teleport_witness: Partition | None = None
    for combo in combinations(range(1, n + 1), n - payload_threshold):
        part = Partition.from_sender(combo, n)
        cap = teleport_capacity(state, part, rtol)
        msgs = sdc_max_messages(state, combo, tol)
        best_cap = max(best_cap, cap)
        best_msgs = max(best_msgs, msgs)
        if cap >= payload_threshold and teleport_witness is None:
            teleport_witness = part
        if cap >= payload_threshold and msgs >= message_threshold and joint is None:
            joint = part
            # cap <= |receiver| = floor(n/2) and, under the dimension
            # bounds, msgs <= 2^n: no later cut can change a figure.
            if _dimension_bounds_hold(tol, len(combo)):
                break
    verdict = best_cap >= payload_threshold and best_msgs >= message_threshold
    witness = joint if joint is not None else (teleport_witness if verdict else None)
    return TmesVerdict(verdict, best_cap, best_msgs, witness)


def default_partition(num_qubits: int) -> Partition:
    """Odd-indexed qubits send, even-indexed receive."""
    if num_qubits < 2:
        raise ValueError("a partition needs at least two qubits")
    return Partition.from_sender(range(1, num_qubits + 1, 2), num_qubits)
