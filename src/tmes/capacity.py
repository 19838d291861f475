"""Operational task capacities across a cut: teleportation and superdense
coding, plus the combined maximality verdict.

Teleportation verdicts are spectral: every clustered Schmidt multiplicity
must divide by 2^k, which is exactly local-unitary equivalence to k Bell
pairs tensor a leftover state; a simulator that contracts the payload first
cross-checks them.  Superdense-coding verdicts count the largest family of
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
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .pauli import apply_paulis, pauli_expectations, pauli_rows
from .statevec import (
    ATOL,
    EXACT_ATOL,
    MAX_DENSE_BYTES,
    MAX_QUBITS,
    Partition,
    PureState,
    SchmidtSpectrum,
    _check_tol,
    _check_unitary,
    _cluster_runs,
    _cut_layout,
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
)


def haar_random_state(num_qubits: int, seed: int = 0) -> PureState:
    """Haar-distributed pure state: normalized i.i.d. complex Gaussians."""
    if num_qubits < 1:
        raise ValueError("a state needs at least one qubit")
    check_state_size(num_qubits, "a Haar-random state")
    rng = np.random.default_rng(_seed(seed))
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
    """min(v2(gcd of the clustered multiplicities), receivers) as the least
    v2 over the runs (v2(gcd m_i) = min v2(m_i)): the first odd run ends it."""
    cap = receivers
    for _, mult in _cluster_runs(spectrum.eigenvalues):
        cap = min(cap, _two_adic_valuation(mult))
        if not cap:
            break
    return cap


def _integer(value, low: int, high: float, refusal: str) -> int:
    """The one rule for counts, indices and seeds: ``value`` as an int if it is an
    int or numpy integer, not a bool, in [low, high], else ValueError(refusal)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not low <= value <= high:
        raise ValueError(refusal)
    return int(value)


def _payload_qubits(n_payload) -> int:
    return _integer(n_payload, 1, math.inf, f"a payload size must be an int of at least 1 qubit, got {n_payload!r}")


def _seed(seed) -> int:
    return _integer(seed, 0, math.inf, f"seed must be a non-negative int, got {seed!r}")


@dataclass(frozen=True, eq=False)
class TeleportProtocol:
    """Perfect teleportation of a p-qubit payload across ``cut``, held and
    checked as its generators: ``bases`` (nblocks x 2^p x 2^s), the q = 0
    measurement rows, block j's sender Schmidt vectors over sqrt(2^p);
    ``relabel``, receiver Schmidt vector (m, j) to basis state m|j; and
    ``block_probabilities``, the weight of each outcome of a block.

    Outcome i = (q, j) of ``outcome_labels``, at index q * nblocks + j,
    measures ``measurement_family[i]``, P_q on the payload index of
    ``bases[j]`` (payload first), and applies ``corrections[i]`` = (P_q (x)
    I) @ ``relabel``, which parks the payload on the first p receiver qubits.
    ``measurement_conj`` is the family's conjugate; every array is read-only.
    A family Gram entry sums 2^p entries of B̄ Bᵀ (B the stacked rows) times
    unit phases, and each correction has the U^H U of ``relabel``."""

    cut: Partition
    n_payload: int
    bases: np.ndarray
    relabel: np.ndarray
    block_probabilities: tuple[float, ...]
    measurement_family: np.ndarray = field(init=False, repr=False)
    measurement_conj: np.ndarray = field(init=False, repr=False)
    corrections: np.ndarray = field(init=False, repr=False)
    outcome_labels: tuple[tuple[int, int], ...] = field(init=False, repr=False)
    probabilities: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        p = _payload_qubits(self.n_payload)
        if p > len(self.cut.receiver):
            raise ValueError(f"a {p}-qubit payload does not fit a {len(self.cut.receiver)}-qubit receiver")
        bases = np.array(self.bases, dtype=complex)
        relabel = np.array(self.relabel, dtype=complex)
        block_probs = tuple(float(x) for x in self.block_probabilities)
        block, recv_dim, nblocks = 2**p, 2 ** len(self.cut.receiver), len(bases)
        if bases.ndim != 3 or bases.shape[1:] != (block, 2 ** len(self.cut.sender)):
            raise ValueError("measurement rows must cover payload plus sender")
        if relabel.shape != (recv_dim, recv_dim):
            raise ValueError("relabeling must act on the receiver side")
        if not nblocks or len(block_probs) != nblocks:
            raise ValueError("per-block fields must have equal nonzero length")
        if not all(np.isfinite(x).all() for x in (bases, relabel, block_probs)):
            raise ValueError("protocol has a NaN or infinite entry")
        rows = bases.reshape(nblocks * block, -1)
        if np.max(np.abs(block * (rows.conj() @ rows.T) - np.eye(len(rows)))) > ATOL:
            raise ValueError("measurement rows are not orthonormal")
        _check_unitary(relabel[None], "receiver relabeling")
        npaulis = 4**p
        probs = block_probs * npaulis
        if any(x < -EXACT_ATOL for x in probs) or abs(sum(probs) - 1.0) > ATOL:
            raise ValueError("outcome probabilities must be a distribution")

        # Payload Pauli q acts on the in-block index m, both on the measurement
        # rows and on the relabeled receiver basis m|j>: P_q (x) I_anc @ relabel.
        # Both gathers land in outcome order (q, j, m, ...), phased in place.
        src, phase = pauli_rows(np.arange(npaulis), p)
        family = bases[np.arange(nblocks)[:, None], src[:, None]]
        family *= phase[:, None, :, None]
        moved = relabel.reshape(block, recv_dim // block, -1)[np.broadcast_to(src[:, None], family.shape[:3])]
        moved *= phase[:, None, :, None, None]
        family = family.reshape(npaulis * nblocks, -1)
        conj = family.conj()
        for arr in (bases, relabel, family, conj, moved):
            arr.setflags(write=False)
        labels = tuple((q, j) for q in range(npaulis) for j in range(nblocks))
        for name, value in dict(
            n_payload=p, bases=bases, relabel=relabel, block_probabilities=block_probs,
            measurement_family=family, measurement_conj=conj, outcome_labels=labels,
            corrections=moved.reshape(len(labels), recv_dim, recv_dim), probabilities=probs,
        ).items():
            object.__setattr__(self, name, value)


def build_teleport_protocol(
    state: PureState, cut: Partition, n_payload: int
) -> TeleportProtocol:
    """The generators of the n_payload-qubit protocol across ``cut``, which
    must teleport that many qubits: its Schmidt rank splits into blocks of
    2^n_payload equal coefficients."""
    n_payload = _payload_qubits(n_payload)
    coeffs, a_vecs, b_vecs = schmidt_decomposition(state, cut)
    cap = _capacity(SchmidtSpectrum(coeffs * coeffs), len(cut.receiver))
    if n_payload > cap:
        raise ValueError(f"cut supports teleporting {cap} qubits, requested {n_payload}")
    rank, block, recv_dim = coeffs.size, 2**n_payload, b_vecs.shape[1]

    # Receiver relabeling: Schmidt vector (m, j) goes to basis state m|j.
    relabel = np.zeros((recv_dim, recv_dim), dtype=complex)
    conj_rows = np.conjugate(b_vecs)
    k = np.arange(rank)
    used = (k % block) * (recv_dim // block) + k // block
    relabel[used] = conj_rows
    if rank < recv_dim:
        # The complement of the Schmidt vectors fills the free rows in order.
        _, _, vh = np.linalg.svd(conj_rows, full_matrices=True)
        relabel[np.setdiff1d(np.arange(recv_dim), used)] = vh[rank:, :]
    bases = a_vecs.T.reshape(rank // block, block, -1) * (1.0 / math.sqrt(block))
    means = [float(np.mean(c)) for c in coeffs.reshape(rank // block, block)]
    return TeleportProtocol(cut, n_payload, bases, relabel, tuple(t * t / block for t in means))


@dataclass(frozen=True, eq=False)
class TeleportResult:
    """Exact probability and fidelity of every outcome of one simulated run:
    read-only, finite float arrays in ``protocol.outcome_labels`` order."""

    payload: PureState
    protocol: TeleportProtocol
    probabilities: np.ndarray
    fidelities: np.ndarray

    def __post_init__(self) -> None:
        k = len(self.protocol.outcome_labels)
        for name in ("probabilities", "fidelities"):
            arr = np.asarray(getattr(self, name), float)
            if arr.shape != (k,) or not np.isfinite(arr).all():
                raise ValueError(f"{name} must be {k} finite values, one per outcome; got {arr!r}")
            object.__setattr__(self, name, _freeze(arr))

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
    share one protocol, built and validated on the first of them.  No joint
    state is formed: the payload meets the conjugated family first, then one
    GEMM with the resource's own cut matrix projects every outcome.
    """
    seed = _seed(seed)
    p = payload.num_qubits if isinstance(payload, PureState) else _payload_qubits(payload)
    protocol = _memo_protocol(state, cut, p)
    if not isinstance(payload, PureState):
        payload = haar_random_state(p, seed)
    # Row i of v is the receiver's unnormalised state after outcome i.
    proj = protocol.measurement_conj.reshape(-1, 2**p, 2 ** len(cut.sender))
    v = payload.amplitudes @ proj @ _cut_matrix(state, *cut.sides())
    prob = np.sum(v.real**2 + v.imag**2, axis=1)
    ok = prob > EXACT_ATOL
    unit = v / np.sqrt(np.where(ok, prob, 1.0))[:, None]
    reduced = (protocol.corrections @ unit[:, :, None]).reshape(len(prob), 2**p, -1)
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


def _sender_expectations(state: PureState, qubits: tuple[int, ...]) -> np.ndarray:
    """|Tr(rho_A P_d)| of every label d on the sorted sender ``qubits``: the
    one row that the message count and ``SdcCodebook`` decide on."""
    sides = Partition.from_sender(qubits, state.num_qubits).sides()
    return pauli_expectations(_stack_marginals(_cut_matrix(state, *sides)[None]))[0]


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
    expect = _sender_expectations(state, _sender_qubits(state, sender_set))
    pivots, closed = _coset_pivots(expect[None], tol)
    if closed[0]:
        labels = np.arange(expect.size)
        return tuple(np.flatnonzero(labels & pivots[0] == pivots[0]).tolist())
    return _max_clique(_orthogonality_adjacency(expect, tol))


def sdc_max_messages(
    state: PureState, sender_set: Iterable[int], tol: float = ATOL
) -> int:
    """Largest number of messages Pauli encodings on the sender can carry."""
    return len(sdc_orthogonal_labels(state, sender_set, tol))


@dataclass(frozen=True, eq=False)
class SdcCodebook:
    """Pauli-string encodings of ``state`` on ``sender_set`` with pairwise
    orthogonal encoded states, held as their generators.  Row i of the
    derived, read-only ``stack`` is P_{labels[i]}|psi>, formed only after
    its 16 m 2^n bytes fit MAX_DENSE_BYTES.  As |<P_a psi|P_b psi>| =
    |Tr(rho_A P_{a xor b})|, no off-diagonal expect[a xor b] of the row that
    ``sdc_orthogonal_labels`` counts on may pass ATOL."""

    state: PureState
    sender_set: frozenset[int]
    labels: tuple[int, ...]
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.state, PureState):
            raise ValueError(f"a codebook encodes a PureState, got {type(self.state).__name__}")
        qubits = _sender_qubits(self.state, self.sender_set)
        labels = tuple(int(x) for x in self.labels)
        if len(set(labels)) != len(labels) or not labels:
            raise ValueError("codebook labels must be distinct and non-empty")
        nlabels = 4 ** len(qubits)
        if not all(0 <= x < nlabels for x in labels):
            raise ValueError(f"codebook labels must lie in 0..{nlabels - 1}: {labels}")
        n, cap = self.state.num_qubits, MAX_DENSE_BYTES // 2**20
        if 16 * len(labels) * 2**n > MAX_DENSE_BYTES:
            raise ValueError(f"a codebook of {len(labels)} {n}-qubit states is above the {cap} MiB cap")
        index = np.array(labels, dtype=np.min_scalar_type(nlabels - 1))
        hit = (_sender_expectations(self.state, qubits) > ATOL)[index ^ index[:, None]]
        np.fill_diagonal(hit, False)
        if hit.any():
            raise ValueError("encoded states are not pairwise orthogonal")
        stack = apply_paulis(self.state.amplitudes, qubits, labels)
        stack.setflags(write=False)
        for name, value in dict(sender_set=frozenset(qubits), labels=labels, stack=stack).items():
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.labels)


def build_sdc_codebook(
    state: PureState, sender_set: Iterable[int], num_messages: int | None = None
) -> SdcCodebook:
    """Codebook of ``num_messages`` orthogonal encodings (default: maximum).

    Labels are picked at the ``ATOL`` that ``SdcCodebook`` checks, on the
    same expectation row.  Raises when the requested size exceeds the
    attainable maximum.
    """
    qubits = _sender_qubits(state, sender_set)
    labels = sdc_orthogonal_labels(state, qubits)
    if num_messages is None:
        num_messages = len(labels)
    num_messages = _integer(num_messages, 1, math.inf, f"a codebook needs an int of at least 1 message, got {num_messages!r}")
    if num_messages > len(labels):
        raise ValueError(
            f"requested {num_messages} messages but only {len(labels)} "
            f"pairwise-orthogonal encodings exist on sender {qubits}"
        )
    return SdcCodebook(state, qubits, labels[:num_messages])


def simulate_sdc(
    state: PureState,
    sender_set: Iterable[int],
    message_index: int,
    codebook: SdcCodebook,
) -> int:
    """Send the codebook's own row of one message and decode it by projection
    onto the codebook, which must hold ``state`` itself, byte for byte."""
    qubits = _sender_qubits(state, sender_set)
    if frozenset(qubits) != codebook.sender_set:
        raise ValueError("codebook was built for a different sender set")
    if state.amplitudes.tobytes() != codebook.state.amplitudes.tobytes():
        raise ValueError("codebook was built for a different state")
    index = len(codebook) - 1
    sent = codebook.stack[_integer(message_index, 0, index, f"message index must be an int in 0..{index}, got {message_index!r}")]
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

    The cuts ``statevec._cut_layout`` memoises are scored a ``_cut_stacks``
    chunk at a time, so a scan that stops early has scored the rest of the
    chunk that holds its last cut.  Each capacity reads the cut's clustered
    runs and stops at the first odd one, which in a Haar cut is the first.
    The clique search runs only for a cut whose Z is not a group, and only
    when the scan reaches it.  On a qubit-symmetric state one matrix stands
    for every cut, so one set of figures is scored and shared.
    """
    n = state.num_qubits
    if n < 2:
        raise ValueError("the maximal-task test needs at least two qubits")
    check_qubits(n, "the maximal-task test")
    cuts = _cut_layout(n, (n + 1) // 2).cuts
    for where, stack in _cut_stacks(state, cuts):
        spectra = _stack_spectra(stack)
        expect = pauli_expectations(_stack_marginals(stack))
        pivots, closed = _coset_pivots(expect, tol)
        for i, j in enumerate(where):
            if i < len(stack):  # past the end, a shared matrix's figures stand
                if closed[i]:
                    msgs = expect.shape[1] >> int(pivots[i]).bit_count()
                else:
                    msgs = len(_max_clique(_orthogonality_adjacency(expect[i], tol)))
                figures = spectra[i], _capacity(spectra[i], n // 2), msgs
            yield CutReport(cuts[j], *figures)


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
    _check_tol(tol)
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
