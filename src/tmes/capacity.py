"""Operational task capacities across a cut: teleportation and superdense
coding, plus the combined maximality verdict.

Teleportation verdicts are spectral: every clustered Schmidt multiplicity
must divide by 2^k, which is exactly local-unitary equivalence to k Bell
pairs tensor a leftover state.  The verdict is cross-checked by an explicit
protocol simulator.  Superdense-coding verdicts count the largest family of
Pauli-string encodings with pairwise orthogonal outputs: one per coset when
the labels with nonzero sender expectation form a group, else by clique search.

``cut_reports``, which the maximality verdict folds over, scores the balanced
cuts a chunk at a time: one stack of amplitude matrices gives every cut's
Schmidt spectrum (a batched SVD) and sender marginal (a batched Gram
product), the marginals give the Pauli expectations in one transform, and
one vectorised GF(2) reduction tells which cuts have a group of labels.
Each value equals the one-cut call's to the bit; ``teleport_capacity`` and
``sdc_orthogonal_labels`` are the one-cut case of the same helpers.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .pauli import apply_paulis, pauli_expectations, pauli_rows
from .statevec import (
    ATOL,
    EXACT_ATOL,
    MAX_QUBITS,
    Partition,
    PureState,
    SchmidtSpectrum,
    _check_tol,
    _check_unitary,
    _cut_matrix,
    _cut_stacks,
    _freeze,
    _qubit_set,
    _stack_marginals,
    _stack_spectra,
    check_qubits,
    check_state_size,
    schmidt_decomposition,
    schmidt_spectrum,
    tensor,
)

# Byte budget of the amplitude stack one is_tmes chunk scores at once (16
# cuts at 12 qubits).  At 12 qubits budgets of 256 KiB to 4 MiB ran alike
# and 16 MiB about a third slower.
CHUNK_BYTES = 1 << 20


def haar_random_state(num_qubits: int, seed: int = 0) -> PureState:
    """Haar-distributed pure state: normalized i.i.d. complex Gaussians."""
    if num_qubits < 1:
        raise ValueError("a state needs at least one qubit")
    check_state_size(num_qubits, "a Haar-random state")
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


def teleport_capacity(state: PureState, cut: Partition) -> int:
    """Largest k <= |receiver| with every clustered Schmidt multiplicity
    divisible by 2^k."""
    return _capacity(schmidt_spectrum(state, cut), len(cut.receiver))


def _capacity(spectrum: SchmidtSpectrum, receivers: int) -> int:
    mults = [m for _, m in spectrum.clustered()]
    return min(_two_adic_valuation(math.gcd(*mults)), receivers)


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
    probabilities are uniform 4^{-n_payload}.  ``measurement_conj`` is the
    read-only complex conjugate of ``measurement_family``, formed once here
    for every simulation that projects onto the family.
    """

    cut: Partition
    n_payload: int
    measurement_family: np.ndarray
    corrections: np.ndarray
    outcome_labels: tuple[tuple[int, int], ...]
    probabilities: tuple[float, ...]
    measurement_conj: np.ndarray = field(init=False, repr=False)

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
        _check_unitary(corr, "correction")
        if any(p < -EXACT_ATOL for p in probs) or abs(sum(probs) - 1.0) > ATOL:
            raise ValueError("outcome probabilities must be a distribution")
        fam = _freeze(fam)
        object.__setattr__(self, "measurement_family", fam)
        object.__setattr__(self, "measurement_conj", _freeze(fam.conj()))
        object.__setattr__(self, "corrections", _freeze(corr))
        object.__setattr__(self, "outcome_labels", labels)
        object.__setattr__(self, "probabilities", probs)


def build_teleport_protocol(
    state: PureState, cut: Partition, n_payload: int
) -> TeleportProtocol:
    """Measurement family and corrections for an n_payload-qubit payload.

    Requires teleport_capacity(state, cut) >= n_payload.  The Schmidt rank
    splits into blocks of 2^n_payload equal coefficients; each block
    contributes one measurement state per payload Pauli string.  Outcome
    (q, j) sits at index q * nblocks + j.
    """
    if n_payload < 1:
        raise ValueError("payload must hold at least one qubit")
    coeffs, a_vecs, b_vecs = schmidt_decomposition(state, cut)
    cap = _capacity(SchmidtSpectrum(coeffs * coeffs), len(cut.receiver))
    if n_payload > cap:
        raise ValueError(
            f"cut supports teleporting {cap} qubits, requested {n_payload}"
        )
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


@dataclass(frozen=True, eq=False)
class TeleportResult:
    """Exact probability and fidelity of every outcome of one simulated run:
    read-only float arrays in ``protocol.outcome_labels`` order."""

    payload: PureState
    protocol: TeleportProtocol
    probabilities: np.ndarray
    fidelities: np.ndarray

    def __post_init__(self) -> None:
        for name in ("probabilities", "fidelities"):
            object.__setattr__(self, name, _freeze(np.asarray(getattr(self, name), float)))

    @property
    def total_probability(self) -> float:
        # Summed left to right, as a Python sum; np.sum adds pairwise.
        return float(sum(self.probabilities.tolist()))

    @property
    def min_fidelity(self) -> float:
        return float(self.fidelities.min())


# The last protocol simulate_teleportation built, keyed weakly on its
# resource: a PureState hashes by identity and its amplitudes are read-only,
# so the protocol stays valid for as long as the state lives, and goes with
# it.  A new dict replaces the old one on every miss, so at most one
# protocol is ever held.
_PROTOCOLS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _memo_protocol(state: PureState, cut: Partition, n_payload: int) -> TeleportProtocol:
    """``build_teleport_protocol(state, cut, n_payload)``, built once for a
    stream of payloads through one resource; a refused request stores nothing."""
    global _PROTOCOLS
    key, protocol = _PROTOCOLS.get(state, (None, None))
    if key != (cut, n_payload):
        protocol = build_teleport_protocol(state, cut, n_payload)
        _PROTOCOLS = weakref.WeakKeyDictionary({state: ((cut, n_payload), protocol)})
    return protocol


def simulate_teleportation(
    state: PureState,
    cut: Partition,
    payload: PureState | int,
    seed: int = 0,
) -> TeleportResult:
    """Run the full protocol on an explicit payload state.

    ``payload`` may be a PureState or a qubit count; a count draws a seeded
    Haar-random payload, once the cut is known to carry that many qubits.
    Every outcome reports its exact probability and the fidelity of the
    corrected receiver state with the payload, one array entry each.
    Consecutive calls with the same ``state`` object, cut and payload size
    share one protocol, built and validated on the first of them.
    """
    p = payload if isinstance(payload, int) else payload.num_qubits
    protocol = _memo_protocol(state, cut, p)
    if isinstance(payload, int):
        payload = haar_random_state(payload, seed)
    sender, receiver = cut.sides()
    # Payload qubits come first in the joint state, then the resource's.
    mat = _cut_matrix(
        tensor(payload, state),
        [*range(1, p + 1), *(p + q for q in sender)],
        [p + q for q in receiver],
    )
    # One GEMM projects every outcome; row i is the receiver's unnormalised
    # state after outcome i.
    v = protocol.measurement_conj @ mat
    prob = np.sum(v.real**2 + v.imag**2, axis=1)
    ok = prob > EXACT_ATOL
    unit = v / np.sqrt(np.where(ok, prob, 1.0))[:, None]
    corrected = protocol.corrections @ unit[:, :, None]
    reduced = corrected.reshape(len(prob), 2**p, -1)
    # The payload sits on the first p receiver qubits, so the fidelity of the
    # reduced state is sum_j |<payload| reduced[:, :, j]>|^2.
    overlap = payload.amplitudes.conj() @ reduced
    fid = np.sum(overlap.real**2 + overlap.imag**2, axis=1)
    return TeleportResult(payload, protocol, np.where(ok, prob, 0.0), np.where(ok, fid, 1.0))


def _sender_qubits(state: PureState, sender_set: Iterable[int]) -> tuple[int, ...]:
    qubits = _qubit_set(sender_set, state.num_qubits, "sender qubits")
    if len(qubits) >= state.num_qubits:
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


def _coset_pivots(expect: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """For each row of ``expect`` (the |Tr(rho_A P_d)| of one sender), the
    pivot mask of a GF(2) basis of Z = {d : expect[d] > tol}, and whether Z
    is closed under xor, that is |Z| = 2^rank.  The mask is the set of
    leading bits of a row reduction from the top bit down; it is meaningful
    only where Z is closed.  ``tol`` lies in [0, 1), so label 0 is in Z.

    Only rows whose |Z| is a power of two below 4^s are reduced, all rows of
    one |Z| at once on their member labels; a full Z (the generic case) is
    the group of every label.
    """
    _check_tol(tol)
    inside = expect > tol
    sizes = inside.sum(axis=1)
    nlabels = expect.shape[1]
    pivots = np.full(len(expect), nlabels - 1)
    rank = np.full(len(expect), nlabels.bit_length() - 1)
    for size in sorted({k for k in sizes.tolist() if k < nlabels and k & (k - 1) == 0}):
        where = np.flatnonzero(sizes == size)
        rows = np.nonzero(inside[where])[1].reshape(len(where), size)
        found = np.zeros(len(where), dtype=rows.dtype)
        index = np.arange(len(where))
        for bit in reversed(range(int(rows.max()).bit_length())):
            # The first member with this bit leads; xor it out of every
            # member that has the bit, itself included.
            hit = rows & (1 << bit)
            lead = rows[index, hit.argmax(axis=1)]
            rows ^= np.where(hit, lead[:, None], 0)
            found |= lead & (1 << bit)
        pivots[where] = found
        rank[where] = [int(mask).bit_count() for mask in found]
    return pivots, sizes == 1 << rank


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

    This is the one-cut case of the ``is_tmes`` scan: the marginal comes
    from a one-matrix cut stack.
    """
    qubits = _sender_qubits(state, sender_set)
    sides = Partition.from_sender(qubits, state.num_qubits).sides()
    expect = pauli_expectations(_stack_marginals(_cut_matrix(state, *sides)[None]))
    pivots, closed = _coset_pivots(expect, tol)
    if closed[0]:
        labels = np.arange(expect.shape[1])
        return tuple(np.flatnonzero(labels & pivots[0] == pivots[0]).tolist())
    return _max_clique(_orthogonality_adjacency(expect[0], tol))


def sdc_max_messages(
    state: PureState, sender_set: Iterable[int], tol: float = ATOL
) -> int:
    """Largest number of messages Pauli encodings on the sender can carry."""
    return len(sdc_orthogonal_labels(state, sender_set, tol))


@dataclass(frozen=True, eq=False)
class SdcCodebook:
    """Pauli-string encodings with pairwise orthogonal encoded states.

    Row i of ``stack`` (read-only) is the unit vector of 2^n >= 2 amplitudes
    that encodes message i, Pauli string ``labels[i]`` on the sender.
    """

    sender_set: frozenset[int]
    labels: tuple[int, ...]
    stack: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(int(x) for x in self.labels)
        if len(set(labels)) != len(labels) or not labels:
            raise ValueError("codebook labels must be distinct and non-empty")
        nlabels = 4 ** len(self.sender_set)
        if not all(0 <= x < nlabels for x in labels):
            raise ValueError(f"codebook labels must lie in 0..{nlabels - 1}: {labels}")
        stack = np.asarray(self.stack, dtype=complex)
        dim = stack.shape[-1] if stack.ndim == 2 else 0
        if dim < 2 or dim & (dim - 1) or len(stack) != len(labels):
            raise ValueError(f"need {len(labels)} rows of 2^n >= 2 amplitudes, got {stack.shape}")
        if not np.isfinite(stack).all():
            raise ValueError("encoded states have a NaN or infinite amplitude")
        gram = stack.conj() @ stack.T
        norms = np.sqrt(np.real(np.diagonal(gram)))
        bad = np.flatnonzero(np.abs(norms - 1.0) > ATOL)
        if bad.size:
            raise ValueError(f"encoded state {bad[0]} is not normalized: norm = {norms[bad[0]]}")
        off = gram - np.diag(np.diagonal(gram))
        if np.max(np.abs(off)) > ATOL:
            raise ValueError("encoded states are not pairwise orthogonal")
        object.__setattr__(self, "sender_set", frozenset(self.sender_set))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "stack", _freeze(stack))

    def __len__(self) -> int:
        return len(self.labels)


def build_sdc_codebook(
    state: PureState, sender_set: Iterable[int], num_messages: int | None = None
) -> SdcCodebook:
    """Codebook of ``num_messages`` orthogonal encodings (default: maximum).

    Labels are picked at the ``ATOL`` that ``SdcCodebook`` checks.  Raises
    when the requested size exceeds the attainable maximum.
    """
    qubits = _sender_qubits(state, sender_set)
    labels = sdc_orthogonal_labels(state, qubits)
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
    return SdcCodebook(frozenset(qubits), chosen, stack)


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
    # |conj z| = |z|, so projecting the conjugated message onto the stack
    # ranks the overlaps as projecting the message onto the conjugated stack.
    return int(np.argmax(np.abs(codebook.stack @ sent.conj()) ** 2))


@dataclass(frozen=True)
class TmesVerdict:
    """Outcome of the maximal-task test with the best achieved figures."""

    is_tmes: bool
    teleport_qubits: int
    sdc_messages: int
    witnessing_partition: Partition | None


class CutReport(NamedTuple):
    """Figures of one balanced cut: its Schmidt spectrum, teleport capacity
    and superdense-coding message count."""

    cut: Partition
    spectrum: SchmidtSpectrum
    capacity: int
    messages: int


def cut_reports(state: PureState, tol: float = ATOL) -> Iterator[CutReport]:
    """A ``CutReport`` for every cut with a ceil(n/2)-qubit sender, in
    ``combinations`` order: the cuts ``is_tmes`` decides over.  Each figure
    equals the one-cut call's (``schmidt_spectrum``, ``teleport_capacity``,
    ``sdc_max_messages`` at ``tol``, which lies in [0, 1)).

    Chunks start at one cut and double until their stack would pass
    CHUNK_BYTES, so a scan that stops early scores few cuts beyond its last,
    and a full scan makes few batched calls.  The clique search runs only
    for a cut whose Z is not a group, and only when the scan reaches it.
    """
    n = state.num_qubits
    if n < 2:
        raise ValueError("the maximal-task test needs at least two qubits")
    check_qubits(n, "the maximal-task test")
    senders = combinations(range(1, n + 1), (n + 1) // 2)
    limit = max(CHUNK_BYTES // (16 * 2**n), 1)
    width = 1
    while chunk := [Partition.from_sender(c, n) for c in islice(senders, width)]:
        ((_, stack),) = _cut_stacks(state, chunk)
        spectra = _stack_spectra(stack)
        expect = pauli_expectations(_stack_marginals(stack))
        pivots, closed = _coset_pivots(expect, tol)
        for i, cut in enumerate(chunk):
            if closed[i]:
                msgs = expect.shape[1] >> int(pivots[i]).bit_count()
            else:
                msgs = len(_max_clique(_orthogonality_adjacency(expect[i], tol)))
            cap = _capacity(spectra[i], len(cut.receiver))
            yield CutReport(cut, spectra[i], cap, msgs)
        width = min(2 * width, limit)


def is_tmes(state: PureState, tol: float = ATOL) -> TmesVerdict:
    """Existential maximality test over balanced partitions.

    An n-qubit state passes iff some partition with a ceil(n/2)-qubit sender
    can teleport floor(n/2) qubits, and some such sender set carries 2^n
    messages.  The reported figures are the best found; the witnessing
    partition meets both thresholds when one exists.  This is
    ``tmes_verdict`` over the lazy ``cut_reports``, which scores cuts in
    chunks: when the scan stops early, it stops at the end of the chunk that
    holds the witness, and the figures are those of a scan that scored one
    cut at a time.
    """
    return tmes_verdict(cut_reports(state, tol), tol)


def tmes_verdict(reports: Iterable[CutReport], tol: float = ATOL) -> TmesVerdict:
    """The maximality verdict folded over the ``CutReport`` of every
    balanced cut of one n-qubit state, in ``cut_reports`` order, with the
    message counts taken at ``tol``.

    n is read from the reports' cuts.  When ``tol`` is fine enough for the
    dimension bounds, the fold stops at the first cut that meets both
    thresholds, since no later one can raise either figure.
    """
    reports = iter(reports)
    first = next(reports, None)
    if first is None:
        raise ValueError("a verdict needs at least one cut report")
    n = first.cut.num_qubits
    payload_threshold = n // 2
    message_threshold = 2**n
    best_cap = 0
    best_msgs = 0
    joint: Partition | None = None
    teleport_witness: Partition | None = None
    for report in chain([first], reports):
        part, cap, msgs = report.cut, report.capacity, report.messages
        if part.num_qubits != n:
            raise ValueError(f"reports mix {n}- and {part.num_qubits}-qubit cuts")
        best_cap = max(best_cap, cap)
        best_msgs = max(best_msgs, msgs)
        if cap >= payload_threshold and teleport_witness is None:
            teleport_witness = part
        if cap >= payload_threshold and msgs >= message_threshold and joint is None:
            joint = part
            # cap <= |receiver| = floor(n/2) and, under the dimension
            # bounds, msgs <= 2^n: no later cut can change a figure.
            if _dimension_bounds_hold(tol, len(part.sender)):
                break
    verdict = best_cap >= payload_threshold and best_msgs >= message_threshold
    witness = joint if joint is not None else (teleport_witness if verdict else None)
    return TmesVerdict(verdict, best_cap, best_msgs, witness)


def default_partition(num_qubits: int) -> Partition:
    """Odd-indexed qubits send, even-indexed receive."""
    if num_qubits < 2:
        raise ValueError("a partition needs at least two qubits")
    return Partition.from_sender(range(1, num_qubits + 1, 2), num_qubits)
