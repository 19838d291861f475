"""Operational task capacities across a cut: teleportation and superdense
coding, plus the combined maximality verdict.

Teleportation verdicts are spectral: every clustered Schmidt multiplicity
must divide by 2^k, which is exactly local-unitary equivalence to k Bell
pairs tensor a leftover state; a simulator that contracts the payload first
cross-checks them.  Superdense-coding verdicts count the largest family of
Pauli-string encodings with pairwise orthogonal outputs: one per coset when
the labels with nonzero sender expectation form a group, else by clique search.

The maximality verdict, over one report per class of cuts with equal matrices,
and ``cut_reports`` score the balanced cuts a chunk of classes at a time
(``statevec._cut_stacks``), through one kernel over any stack of amplitude
matrices: the stack gives every cut's Schmidt spectrum (a batched SVD) and
sender marginal (a batched Gram product), the marginals give the Pauli
expectations in one transform, and one vectorised GF(2) reduction tells
which cuts have a group of labels.  Each value equals the one-cut call's to
the bit; ``teleport_capacity`` and ``sdc_orthogonal_labels`` are the one-cut
case of the same helpers.  The claim suite's seeded trials run as stacks
too: through that kernel, and through the kernels that
``haar_random_unitary`` and ``simulate_teleportation`` take for one item.
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
    _check_unitary,
    _cluster_runs,
    _cut_layout,
    _cut_matrix,
    _cut_stacks,
    _freeze,
    _integer,
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
    num_qubits = _integer(num_qubits, 1, math.inf, "a state needs an int of at least 1 qubit")
    check_state_size(num_qubits, "a Haar-random state")
    rng = np.random.default_rng(_seed(seed))
    dim = 2**num_qubits
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(num_qubits, vec / np.linalg.norm(vec))


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a Ginibre matrix with phases fixed.
    A ``dim`` whose 16 dim^2 bytes exceed MAX_DENSE_BYTES is refused before
    anything is drawn.  This is the one-matrix case of the stacked draw
    that a claim's seeded trials take in one call."""
    return _haar_unitaries(dim, 1, rng)[0]


def _haar_unitaries(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` successive ``haar_random_unitary(dim, rng)`` draws as one
    stack, bit for bit, leaving ``rng`` where they would: the same
    real-then-imaginary Ginibre draws, matrix by matrix, then one stacked QR,
    which runs the same LAPACK routines on each matrix."""
    dim = _integer(dim, 1, math.inf, "a unitary needs an int dimension of at least 1")
    if 16 * dim * dim > MAX_DENSE_BYTES:
        raise ValueError(f"a {dim} x {dim} unitary is above the {MAX_DENSE_BYTES // 2**20} MiB cap")
    z = np.empty((count, dim, dim), dtype=complex)
    for ginibre in z:
        ginibre[...] = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


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


def _payload_qubits(n_payload) -> int:
    return _integer(n_payload, 1, math.inf, "a payload size must be an int of at least 1 qubit")


def _seed(seed) -> int:
    return _integer(seed, 0, math.inf, "seed must be a non-negative int")


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


# The last protocol simulate_teleportation built, with its resource's cut
# matrix, keyed weakly on that resource: a PureState hashes by identity and
# its amplitudes are read-only, so both stay valid for as long as the state
# lives, and go with it (the matrix refers to the amplitudes, not the state).
# A new dict replaces the old one on every miss, so at most one protocol is
# ever held.
_PROTOCOLS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _memo_protocol(
    state: PureState, cut: Partition, n_payload: int
) -> tuple[TeleportProtocol, np.ndarray]:
    """``build_teleport_protocol(state, cut, n_payload)`` and the state's
    ``_cut_matrix`` across ``cut``, made once for a stream of payloads
    through one resource; a refused request stores nothing."""
    global _PROTOCOLS
    key, built = _PROTOCOLS.get(state, (None, None))
    if key != (cut, n_payload):
        built = build_teleport_protocol(state, cut, n_payload), _cut_matrix(state, *cut.sides())
        _PROTOCOLS = weakref.WeakKeyDictionary({state: ((cut, n_payload), built)})
    return built


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
    share one protocol, built and validated on the first of them.  This is
    the one-payload case of the kernel that a claim's seeded payloads run
    through as one stack.
    """
    seed = _seed(seed)
    if not isinstance(payload, PureState):
        p = _payload_qubits(payload)
        _memo_protocol(state, cut, p)  # refuse an oversize payload before drawing it
        payload = haar_random_state(p, seed)
    protocol, prob, fid = _teleport_rows(state, cut, payload.amplitudes[None])
    return TeleportResult(payload, protocol, prob[0], fid[0])


def _teleport_rows(
    state: PureState, cut: Partition, payloads: np.ndarray
) -> tuple[TeleportProtocol, np.ndarray, np.ndarray]:
    """The memoised protocol for 2^p-amplitude ``payloads`` rows, and the
    probability and fidelity of its every outcome, one row per payload.

    No joint state is formed: each payload meets the conjugated family
    first, then one GEMM with the resource's own cut matrix projects every
    outcome.  Every product is the one-payload product broadcast over the
    payload axis, so row i equals the call on payload i alone, bit for bit.
    """
    p = payloads.shape[1].bit_length() - 1
    protocol, matrix = _memo_protocol(state, cut, p)
    # x[i, 0, 0] is payload i; v[i, o] the receiver's unnormalised state
    # after outcome o.
    x = payloads[:, None, None, :]
    proj = protocol.measurement_conj.reshape(-1, 2**p, matrix.shape[0])
    v = (x @ proj)[:, :, 0] @ matrix
    prob = np.sum(v.real**2 + v.imag**2, axis=2)
    ok = prob > EXACT_ATOL
    unit = v / np.sqrt(np.where(ok, prob, 1.0))[:, :, None]
    reduced = (protocol.corrections @ unit[:, :, :, None]).reshape(*prob.shape, 2**p, -1)
    # The payload sits on the first p receiver qubits, so the fidelity of the
    # reduced state is sum_j |<payload| reduced[:, :, j]>|^2.
    overlap = (x.conj() @ reduced)[:, :, 0]
    fid = np.sum(overlap.real**2 + overlap.imag**2, axis=2)
    return protocol, np.where(ok, prob, 0.0), np.where(ok, fid, 1.0)


def _sender_qubits(state: PureState, sender_set: Iterable[int]) -> tuple[int, ...]:
    qubits = _qubit_set(sender_set, state.num_qubits, "sender qubits")
    if len(qubits) >= state.num_qubits:
        raise ValueError("sender set must be a proper subset")
    # The largest sender is_tmes asks for; the xor gather has 16^s entries.
    if len(qubits) > MAX_QUBITS // 2:
        raise ValueError(f"senders are capped at {MAX_QUBITS // 2} qubits: {qubits}")
    return qubits


def _orthogonality_adjacency(expect: np.ndarray) -> list[int]:
    """Bitmask adjacency of the graph joining labels with orthogonal encodings.

    ``expect[d]`` is |<psi|P_d|psi>|.  Labels p, q are adjacent iff
    expect[p xor q] <= ATOL; the encoded overlap equals that difference
    expectation up to phase.
    """
    labels = np.arange(expect.size)
    rows = (expect <= ATOL)[labels ^ labels[:, None]]
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


def _coset_pivots(expect: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of ``expect`` (the |Tr(rho_A P_d)| of one sender), the
    pivot mask of a GF(2) basis of Z = {d : expect[d] > ATOL}, and whether Z
    is closed under xor, that is |Z| = 2^rank.  The mask is the set of
    leading bits of a row reduction from the top bit down; it is meaningful
    only where Z is closed.  Label 0 has expectation 1, so it is in Z.

    Only rows whose |Z| is a power of two below 4^s are reduced, all rows of
    one |Z| at once on their member labels; a full Z (the generic case) is
    the group of every label.
    """
    inside = expect > ATOL
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


def sdc_orthogonal_labels(state: PureState, sender_set: Iterable[int]) -> tuple[int, ...]:
    """A maximum set of Pauli-string labels with pairwise orthogonal encodings,
    in ascending order.

    Labels p, q are orthogonal iff p xor q is outside Z, the labels d with
    |Tr(rho_A P_d)| > ATOL.  When Z is a group (stabilizer marginals, Haar
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
    pivots, closed = _coset_pivots(expect[None])
    if closed[0]:
        labels = np.arange(expect.size)
        return tuple(np.flatnonzero(labels & pivots[0] == pivots[0]).tolist())
    return _max_clique(_orthogonality_adjacency(expect))


def sdc_max_messages(state: PureState, sender_set: Iterable[int], tol: float = ATOL) -> int:
    """Largest number of messages Pauli encodings on the sender can carry,
    decided at ``ATOL``.  ``tol`` only names that threshold to a caller
    that binds it (``perfbench/spans.py`` reads it to split flat sender
    marginals); any other value is refused."""
    if tol != ATOL:
        raise ValueError(f"message counts are decided at ATOL = {ATOL}, got tol {tol}")
    return len(sdc_orthogonal_labels(state, sender_set))


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
        nlabels = 4 ** len(qubits)
        refusal = f"codebook labels must lie in 0..{nlabels - 1}"
        labels = tuple(_integer(x, 0, nlabels - 1, refusal) for x in self.labels)
        if len(set(labels)) != len(labels) or not labels:
            raise ValueError("codebook labels must be distinct and non-empty")
        n, cap = self.state.num_qubits, MAX_DENSE_BYTES // 2**20
        if 16 * len(labels) * 2**n > MAX_DENSE_BYTES:
            raise ValueError(f"a codebook of {len(labels)} {n}-qubit states is above the {cap} MiB cap")
        index = np.array(labels, dtype=np.min_scalar_type(nlabels - 1))
        hit = (_sender_expectations(self.state, qubits) > ATOL)[index ^ index[:, None]]
        np.fill_diagonal(hit, False)
        if hit.any():
            raise ValueError("encoded states are not pairwise orthogonal")
        stack = apply_paulis(self.state.amplitudes, qubits, index)
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
    num_messages = _integer(num_messages, 1, math.inf, "a codebook needs an int of at least 1 message")
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
    sent = codebook.stack[_integer(message_index, 0, index, f"message index must be an int in 0..{index}")]
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


def cut_reports(state: PureState) -> Iterator[CutReport]:
    """A ``CutReport`` for every cut with a ceil(n/2)-qubit sender, in
    ``combinations`` order, each figure the one-cut call's
    (``schmidt_spectrum``, ``teleport_capacity``, ``sdc_max_messages``): a
    cut no class has covered yet pulls the next ``_balanced_classes`` class,
    whose first cut it is, and gives its figures to every member."""
    cuts, classes = _balanced_classes(state)
    figures: list = [None] * len(cuts)
    for j, cut in enumerate(cuts):
        if figures[j] is None:
            members, scored = next(classes)
            for i in members:
                figures[i] = scored
        yield CutReport(cut, *figures[j])


def _balanced_classes(state: PureState) -> tuple[tuple[Partition, ...], Iterator[tuple[list[int], tuple]]]:
    """The memoised balanced cuts of ``cut_reports`` and a lazy stream of
    (members, figures), one per ``_cut_stacks`` class in order of first
    cut: the positions of the cuts that share one matrix, and its figures.
    A chunk is gathered when its first class is asked for, and a class
    scored (its clique search run, when Z is not a group) when it is, so a
    scan that stops early has gathered the rest of its last class's chunk.
    Each capacity stops at the first odd clustered run: in a Haar cut, the
    first."""
    n = state.num_qubits
    if n < 2:
        raise ValueError("the maximal-task test needs at least two qubits")
    check_qubits(n, "the maximal-task test")
    cuts = _cut_layout(n, (n + 1) // 2).cuts
    chunks = _cut_stacks(state, cuts)
    return cuts, (pair for classes, stack in chunks for pair in zip(classes, _stack_figures(stack, n // 2)))


def _stack_figures(stack: np.ndarray, receivers: int) -> Iterator[tuple[SchmidtSpectrum, int, int]]:
    """(Schmidt spectrum, teleport capacity, message count) of each
    sender-by-receiver matrix of ``stack`` in turn, every matrix with
    ``receivers`` receiver qubits: one batched SVD gives the spectra and one
    batched Gram product the sender marginals, whose Pauli expectations the
    coset rule reads.  Nothing runs before the first figure is asked for,
    and a row whose Z is not a group gets its clique search only when it is
    reached.  Each figure equals the one-cut call's on that matrix."""
    spectra = _stack_spectra(stack)
    expect = pauli_expectations(_stack_marginals(stack))
    pivots, closed = _coset_pivots(expect)
    for i, spectrum in enumerate(spectra):
        if closed[i]:
            msgs = expect.shape[1] >> int(pivots[i]).bit_count()
        else:
            msgs = len(_max_clique(_orthogonality_adjacency(expect[i])))
        yield spectrum, _capacity(spectrum, receivers), msgs


def is_tmes(state: PureState) -> TmesVerdict:
    """Existential maximality test over balanced partitions.

    An n-qubit state passes iff some partition with a ceil(n/2)-qubit sender
    can teleport floor(n/2) qubits, and some such sender set carries 2^n
    messages.  The reported figures are the best found; the witnessing
    partition meets both thresholds when one exists.  This is
    ``tmes_verdict`` over one report per ``_balanced_classes`` class, at its
    first cut: the verdict of the fold over every cut's ``cut_reports``.
    When the scan stops early, it stops at the end of the chunk that holds
    the witness's class.
    """
    cuts, classes = _balanced_classes(state)
    return tmes_verdict(CutReport(cuts[members[0]], *figures) for members, figures in classes)


def tmes_verdict(reports: Iterable[CutReport]) -> TmesVerdict:
    """The maximality verdict folded over one n-qubit state's ``CutReport``s
    in ``cut_reports`` order: of every balanced cut, or, as in ``is_tmes``,
    of a subsequence holding the first cut of each class of equal matrices.

    n is read from the reports' cuts.  The fold stops at the first cut that
    meets both thresholds, since no later one can raise either figure.
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
    teleport_witness: Partition | None = None
    for report in chain([first], reports):
        part, cap, msgs = report.cut, report.capacity, report.messages
        if part.num_qubits != n:
            raise ValueError(f"reports mix {n}- and {part.num_qubits}-qubit cuts")
        best_cap = max(best_cap, cap)
        best_msgs = max(best_msgs, msgs)
        if cap >= payload_threshold and teleport_witness is None:
            teleport_witness = part
        if cap >= payload_threshold and msgs >= message_threshold:
            # cap <= |receiver| = floor(n/2).  m encodings pairwise within
            # ATOL of orthogonal have a positive-definite Gram matrix, as
            # (m - 1) ATOL < 4^s ATOL < 1, so msgs <= min(4^s, 2^s r) <= 2^n,
            # r the rank of the sender marginal: no later cut can change a
            # figure.
            return TmesVerdict(True, best_cap, best_msgs, part)
    verdict = best_cap >= payload_threshold and best_msgs >= message_threshold
    return TmesVerdict(verdict, best_cap, best_msgs, teleport_witness if verdict else None)


def default_partition(num_qubits: int) -> Partition:
    """Odd-indexed qubits send, even-indexed receive."""
    num_qubits = _integer(num_qubits, 2, math.inf, "a partition needs an int of at least 2 qubits")
    return Partition.from_sender(range(1, num_qubits + 1, 2), num_qubits)
