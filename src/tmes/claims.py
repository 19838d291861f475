"""Executable verification suite for the documented properties of the state
and operator catalog.

Each claim checks one documented assertion and yields a verdict: ``pass`` or
``fail`` for assertions with a definite expected outcome, ``recorded`` for
measurements that are reported as evidence rather than asserted (the two
construction ambiguities and the independence ranks of the larger operator
families).  Reports are deterministic given the configuration.

A claim is one ``@_register(claim_id, anchor, *case)`` row on a checker,
which the suite calls as ``checker(config, *case)``.  Claims of one family
stack their rows on one checker, and the rows carry spec strings, qubit
tuples and detail strings, never states, so importing this module builds
none.  To add a claim, put a row on the checker of its family; a claim of
a new kind gets a new checker that returns (verdict, detail, data).  No
checker looks at its claim id, and the expected figures come from
``FIGURES`` and ``VERDICTS``.

The seeded trial loops run as stacks, each through the private kernel that
its one-item public call already takes: the sender unitaries are one draw
of ``haar_random_unitary``'s kernel and are scored by the chunk kernel of
``cut_reports``, and each teleport case's payloads go through the kernel of
``simulate_teleportation`` in one call.  Every row equals its one-item call.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, NamedTuple

import numpy as np

from .capacity import (
    _haar_unitaries,
    _seed,
    _stack_figures,
    _teleport_rows,
    build_sdc_codebook,
    build_teleport_protocol,
    haar_random_state,
    is_tmes,
    sdc_max_messages,
    sdc_orthogonal_labels,
    simulate_sdc,
    teleport_capacity,
)
from .invariants import (
    all_bipartition_spectra,
    conversion_obstruction,
    genuine_multipartite,
    orthogonal_family,
)
from .operators import (
    cnot,
    find_realizing_application,
    gamma_set,
    independence_rank,
    operator_family,
    pauli_set,
    pauli_string,
    sigma,
    u_chi,
    u_w2,
)
from .pauli import pauli_digits
from .serialize import (
    document_text,
    operator_set_from_dict,
    operator_set_to_dict,
    operator_to_dict,
    operator_from_dict,
    parse_document,
    state_from_dict,
    state_to_dict,
)
from .states import (
    basis_state,
    bell,
    bell_product,
    chi,
    cluster4,
    cluster5,
    ghz,
    hs,
    make_state,
    odd_resource,
    omega,
    parse_spec,
    w_state,
)
from .statevec import (
    ATOL,
    EXACT_ATOL,
    Partition,
    _cut_matrix,
    apply_local,
    entropy,
    negativity,
    overlap,
    partial_trace,
    schmidt_spectrum,
    tensor,
)


# Seeded payloads per teleport claim and random unitaries per invariance claim.
PAYLOAD_TRIALS = 20
INVARIANCE_TRIALS = 50


@dataclass(frozen=True)
class ClaimConfig:
    """Seed and claim selection of a suite run; defaults reproduce the
    reference run.  Claims assert at ``ATOL`` (``EXACT_ATOL`` for identities
    exact to the digit) and call the library's counts, decided at ``ATOL``."""

    seed: int = 0
    claim_ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _seed(self.seed))
        if self.claim_ids is not None:
            ids = tuple(self.claim_ids)
            # A bare string would be read as a sequence of one-letter ids.
            if isinstance(self.claim_ids, str) or not all(isinstance(cid, str) for cid in ids):
                raise ValueError(f"claim_ids must be a tuple of claim id strings, got {self.claim_ids!r}")
            object.__setattr__(self, "claim_ids", ids)


@dataclass(frozen=True)
class ClaimReport:
    claim_id: str
    anchor: str
    verdict: str
    detail: str
    data: dict


# claim id -> (anchor, checker, case arguments); the checker is called as
# ``checker(config, *arguments)``.
_REGISTRY: dict[str, tuple[str, Callable[..., tuple[str, str, dict]], tuple]] = {}


def _register(claim_id: str, anchor: str, *args):
    """Register ``claim_id`` as the decorated checker run on ``args``; a
    checker shared by several claims carries one of these per claim."""

    def wrap(fn):
        if claim_id in _REGISTRY:
            raise ValueError(f"duplicate claim id {claim_id}")
        _REGISTRY[claim_id] = (anchor, fn, args)
        return fn

    return wrap


def claim_ids() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def _finish(bad: list[str], ok_detail: str, data: dict) -> tuple[str, str, dict]:
    if bad:
        return "fail", "; ".join(bad), data
    return "pass", ok_detail, data


def _cut(sender, n: int) -> Partition:
    return Partition.from_sender(sender, n)


def _cut_doc(cut: Partition) -> dict:
    return {"sender": sorted(cut.sender), "receiver": sorted(cut.receiver)}


def _spec_doc(spectrum) -> list[float]:
    return [float(x) for x in spectrum.eigenvalues]


def _spectrum_close(spectrum, expected) -> bool:
    vals = np.asarray(spectrum.eigenvalues)
    exp = np.asarray(expected, dtype=float)
    return vals.shape == exp.shape and bool(np.max(np.abs(vals - exp)) <= ATOL)


HALF = (0.5, 0.5)
QUARTER4 = (0.25, 0.25, 0.25, 0.25)
BALANCED_PHASE_SPEC = (0.5, 1 / 6, 1 / 6, 1 / 6)
PURE = (1.0,)


class Figure(NamedTuple):
    """Schmidt spectrum, teleport capacity and message count of one cut."""

    spectrum: tuple[float, ...]
    capacity: int
    messages: int


class Verdict(NamedTuple):
    """Expected ``is_tmes`` figures; ``witness`` is the witnessing sender."""

    maximal: bool
    payload: int
    messages: int
    witness: tuple[int, ...] | None


# The expected figures of the catalog states, keyed by (state spec, sender).
# Claims and tests read these; nothing else restates them.
FIGURES = {
    ("bell", (1,)): Figure(HALF, 1, 4),
    ("ghz:3", (1, 2)): Figure(HALF, 1, 8),
    **{("ghz:4", s): Figure(HALF, 1, 8) for s in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))},
    ("cluster4", (1, 3)): Figure(QUARTER4, 2, 16),
    ("cluster4", (1, 2)): Figure(HALF, 1, 8),
    ("cluster4", (1,)): Figure(HALF, 1, 4),
    ("cluster5", (1, 3, 5)): Figure(QUARTER4, 2, 32),
    ("cluster5", (1, 2, 3)): Figure(QUARTER4, 2, 32),
    ("cluster5", (1,)): Figure(HALF, 1, 4),
    ("chi", (1, 2)): Figure(QUARTER4, 2, 16),
    ("chi", (1, 3)): Figure(QUARTER4, 2, 16),
    ("chi", (1, 4)): Figure(HALF, 1, 8),
    ("omega", (1, 2)): Figure(QUARTER4, 2, 16),
    ("omega", (1, 3)): Figure(QUARTER4, 2, 16),
    ("omega", (1, 4)): Figure(HALF, 1, 8),
    ("omega", (2, 4)): Figure(QUARTER4, 2, 16),
    **{("hs", s): Figure(BALANCED_PHASE_SPEC, 0, 4) for s in ((1, 2), (1, 3), (1, 4))},
    ("w:2", (1, 2)): Figure(HALF, 1, 8),
    ("w:2", (1, 3)): Figure((2 / 3, 1 / 3), 0, 4),
    ("w:2", (2, 3)): Figure((5 / 6, 1 / 6), 0, 4),
    ("w:2", (1,)): Figure((5 / 6, 1 / 6), 0, 2),
    ("w:2", (2,)): Figure((2 / 3, 1 / 3), 0, 2),
    ("w:2", (3,)): Figure(HALF, 1, 4),
    ("bell_product:2", (1, 3)): Figure(QUARTER4, 2, 16),
    ("bell_product:2", (1, 2)): Figure(PURE, 0, 4),
    ("odd_resource:1", (1, 3)): Figure(HALF, 1, 8),
    ("odd_resource:1", (3,)): Figure(PURE, 0, 2),
    ("odd_resource:2", (1, 3, 5)): Figure(QUARTER4, 2, 32),
    ("odd_resource:2", (5,)): Figure(PURE, 0, 2),
    ("basis:00", (1,)): Figure(PURE, 0, 2),
    ("basis:0000", (1, 3)): Figure(PURE, 0, 4),
    ("basis:0000", (1, 2)): Figure(PURE, 0, 4),
}

# Expected maximality verdicts, in the order scripts/capacity_survey.py
# prints them.
VERDICTS = {
    "bell": Verdict(True, 1, 4, (1,)),
    "ghz:3": Verdict(True, 1, 8, (1, 2)),
    "ghz:4": Verdict(False, 1, 8, None),
    "ghz:5": Verdict(False, 1, 16, None),
    "omega": Verdict(True, 2, 16, (1, 2)),
    "chi": Verdict(True, 2, 16, (1, 2)),
    "hs": Verdict(False, 0, 4, None),
    "w:2": Verdict(True, 1, 8, (1, 2)),
    "bell_product:2": Verdict(True, 2, 16, (1, 3)),
    "odd_resource:1": Verdict(True, 1, 8, (1, 3)),
    "odd_resource:2": Verdict(True, 2, 32, (1, 3, 5)),
    "cluster4": Verdict(True, 2, 16, (1, 3)),
    "cluster5": Verdict(True, 2, 32, (1, 2, 3)),
    "basis:0000": Verdict(False, 0, 4, None),
    "basis:00": Verdict(False, 0, 2, None),
    "bell:psi-": Verdict(True, 1, 4, (1,)),
    "ghz:6": Verdict(False, 1, 16, None),
    "w:1": Verdict(True, 1, 8, (1, 2)),
    "bell_product:3": Verdict(True, 3, 64, (1, 3, 5)),
    "basis:01101": Verdict(False, 0, 8, None),
}


def _key(sender) -> str:
    return ",".join(str(q) for q in sender)


def _check_spectra(spec: str, senders):
    """Schmidt spectra of a catalog state across ``senders``, checked
    against FIGURES; returns (bad, data)."""
    bad = []
    data = {}
    state = make_state(parse_spec(spec))
    for sender in senders:
        got = schmidt_spectrum(state, _cut(sender, state.num_qubits))
        expected = FIGURES[spec, sender].spectrum
        data[_key(sender)] = _spec_doc(got)
        if not _spectrum_close(got, expected):
            bad.append(f"{spec} cut {sender}: got {data[_key(sender)]}, expected {list(expected)}")
    return bad, data


# ---------------------------------------------------------------------------
# catalog states


@_register("bell-catalog", "The four Bell pairs are orthonormal and match their printed amplitudes.")
def _bell_catalog(config: ClaimConfig):
    r = 1 / np.sqrt(2.0)
    printed = {
        "phi+": (r, 0, 0, r),
        "phi-": (r, 0, 0, -r),
        "psi+": (0, r, r, 0),
        "psi-": (0, r, -r, 0),
    }
    bad = []
    states = {}
    for kind, amps in printed.items():
        states[kind] = bell(kind)
        if np.max(np.abs(states[kind].amplitudes - np.array(amps))) > ATOL:
            bad.append(f"{kind} amplitudes differ from the printed form")
    kinds = list(printed)
    worst = 0.0
    for i, a in enumerate(kinds):
        for b in kinds[i + 1 :]:
            worst = max(worst, abs(overlap(states[a], states[b])))
    if worst > ATOL:
        bad.append(f"pairs are not mutually orthogonal (worst overlap {worst:.2e})")
    return _finish(bad, "printed amplitudes confirmed, pairwise orthogonal", {"worst_overlap": worst})


@_register("spectra-ghz", "Every bipartition of a GHZ state carries the two-level spectrum {1/2, 1/2}.")
def _spectra_ghz(config: ClaimConfig):
    bad = []
    data = {}
    total = 0
    for n in (3, 4, 5):
        spectra = all_bipartition_spectra(ghz(n))
        for cut, spec in spectra.items():
            if not _spectrum_close(spec, HALF):
                bad.append(f"ghz{n} cut {sorted(cut.sender)}: {_spec_doc(spec)}")
        data[f"ghz{n}_cuts"] = len(spectra)
        total += len(spectra)
    return _finish(bad, f"all {total} bipartitions across n=3,4,5 give {{1/2, 1/2}}", data)


# The balanced cuts of four qubits and the qubit pairs of three.
_BALANCED = ((1, 2), (1, 3), (1, 4))
_PAIRS3 = ((1, 2), (1, 3), (2, 3))


@_register("spectra-cluster", "Cluster states are rank four and flat across the odd/even cut, rank two across neighbor cuts.",
           (("cluster4", "cluster4", ((1, 3), (1, 2), (1,))), ("cluster5", "cluster5", ((1, 3, 5), (1,)))),
           "odd/even cuts flat at 1/4, edge cuts at 1/2")
@_register("spectra-chi-omega", "The four-term and eight-term phase states are flat on two of the three balanced cuts and rank two on the third.",
           (("chi", "chi", _BALANCED), ("omega", "omega", _BALANCED)),
           "both states: flat across {1,2} and {1,3}, two-level across {1,4}")
@_register("spectra-products", "Bell-pair products are flat across interleaved cuts and rank one across the pairing cut.",
           (("bell_product2", "bell_product:2", ((1, 3), (1, 2))), ("odd1", "odd_resource:1", ((1, 3), (3,))), ("odd2", "odd_resource:2", ((1, 3, 5), (5,)))),
           "interleaved cuts flat, pairing cuts rank one")
def _spectra_of_states(config: ClaimConfig, rows, ok_detail: str):
    """``_check_spectra`` on each (label, spec, senders) row, data by label."""
    bad = []
    data = {}
    for label, spec, senders in rows:
        case_bad, data[label] = _check_spectra(spec, senders)
        bad += case_bad
    return _finish(bad, ok_detail, data)


@_register("spectra-hs", "The six-term phase state has the same spectrum {1/2, 1/6, 1/6, 1/6} on every balanced cut.")
def _spectra_hs(config: ClaimConfig):
    bad, data = _check_spectra("hs", _BALANCED)
    ent = entropy(schmidt_spectrum(hs(), _cut((1, 2), 4)))
    data["balanced_entropy"] = float(ent)
    if abs(ent - 1.79248125036058) > ATOL:
        bad.append(f"balanced-cut entropy {ent} differs from 1.79248125036058")
    return _finish(bad, "all three balanced cuts agree, entropy 1.7925 bits", data)


@_register("spectra-w2", "The weighted three-qubit superposition has single-qubit spectra {5/6,1/6}, {2/3,1/3}, {1/2,1/2}.")
def _spectra_w2(config: ClaimConfig):
    bad, data = _check_spectra("w:2", [(1,), (2,), (3,)])
    return _finish(bad, "qubit spectra match the closed forms", data)


@_register("uniform-marginals", "GHZ single-qubit marginals and the flat two-qubit marginals of the four-qubit catalog states are maximally mixed.")
def _uniform_marginals(config: ClaimConfig):
    bad = []
    data = {}

    def check(label, state, keep):
        rho = partial_trace(state, keep).matrix
        dev = float(np.max(np.abs(rho - np.eye(rho.shape[0]) / rho.shape[0])))
        data[label] = dev
        if dev > ATOL:
            bad.append(f"{label}: deviation {dev:.2e}")

    for n in (3, 4, 5):
        for q in range(1, n + 1):
            check(f"ghz{n}_q{q}", ghz(n), (q,))
    check("chi_12", chi(), (1, 2))
    check("chi_13", chi(), (1, 3))
    check("omega_13", omega(), (1, 3))
    check("omega_24", omega(), (2, 4))
    check("cluster4_13", cluster4(), (1, 3))
    return _finish(bad, "all listed marginals are maximally mixed", data)


# ---------------------------------------------------------------------------
# constructions


@_register("construct-ghz3", "A controlled flip at (1, 3) turns a Bell pair plus ancilla into the three-qubit GHZ state.", "odd_resource:1", ((1, 3),), "ghz:3")
@_register("construct-cluster4", "A controlled flip at (1, 3) turns two interleaved Bell pairs into the four-qubit cluster state.", "bell_product:2", ((1, 3),), "cluster4")
@_register("construct-cluster5", "Controlled flips at (1, 3) then (3, 5) turn two Bell pairs plus ancilla into the five-qubit cluster state.", "odd_resource:2", ((1, 3), (3, 5)), "cluster5")
def _construct(config: ClaimConfig, source: str, placements, target: str):
    """Controlled flips at ``placements``, in order, turn ``source`` into ``target``."""
    out = make_state(parse_spec(source))
    for pair in placements:
        out = apply_local(out, cnot(), pair)
    dev = float(np.max(np.abs(out.amplitudes - make_state(parse_spec(target)).amplitudes)))
    return _finish([] if dev <= ATOL else [f"amplitude deviation {dev:.2e}"], "identity holds exactly", {"deviation": dev})


# ---------------------------------------------------------------------------
# per-state operational profiles


def _tmes_doc(verdict) -> dict:
    return {
        "is_tmes": verdict.is_tmes,
        "teleport_qubits": verdict.teleport_qubits,
        "sdc_messages": verdict.sdc_messages,
        "witness": _cut_doc(verdict.witnessing_partition)
        if verdict.witnessing_partition is not None
        else None,
    }


def _profile(spec: str, caps=(), msgs=()):
    """Measure a catalog state against FIGURES and VERDICTS.

    Computes the teleport capacity across each sender in ``caps``, the
    message count through each sender in ``msgs`` and the maximality verdict.
    Returns (mismatches, capacities, message counts, verdict document); the
    two count dicts are keyed by the comma-joined sender.
    """
    state = make_state(parse_spec(spec))
    n = state.num_qubits
    bad = []
    got_caps = {}
    got_msgs = {}
    for sender in caps:
        want = FIGURES[spec, sender].capacity
        got_caps[_key(sender)] = got = teleport_capacity(state, _cut(sender, n))
        if got != want:
            bad.append(f"{spec}: capacity across {sender} is {got} != {want}")
    for sender in msgs:
        want = FIGURES[spec, sender].messages
        got_msgs[_key(sender)] = got = sdc_max_messages(state, sender)
        if got != want:
            bad.append(f"{spec}: {got} messages through {sender} != {want}")
    verdict = is_tmes(state)
    part = verdict.witnessing_partition
    got_verdict = Verdict(
        verdict.is_tmes,
        verdict.teleport_qubits,
        verdict.sdc_messages,
        tuple(sorted(part.sender)) if part is not None else None,
    )
    if got_verdict != VERDICTS[spec]:
        bad.append(f"{spec}: verdict {tuple(got_verdict)} != {tuple(VERDICTS[spec])}")
    return bad, got_caps, got_msgs, _tmes_doc(verdict)


def _one_sender(spec: str, sender):
    """``_profile`` with one sender for both counts; returns (bad, data)."""
    bad, caps, msgs, tmes = _profile(spec, [sender], [sender])
    return bad, {"capacity": caps[_key(sender)], "messages": msgs[_key(sender)], "tmes": tmes}


@_register("bell-maximal", "A Bell pair teleports one qubit and carries four messages: maximal on two qubits.", "bell", (1,), "capacity 1, messages 4, maximal")
@_register("ghz3-maximal", "The three-qubit GHZ state teleports one qubit and carries eight messages through a two-qubit sender.", "ghz:3", (1, 2), "capacity 1, messages 8, maximal")
@_register("cluster5-maximal", "The five-qubit cluster state teleports two qubits and carries thirty-two messages through the odd triple.", "cluster5", (1, 3, 5), "capacity 2 and 32 messages on the odd triple")
def _one_sender_profile(config: ClaimConfig, spec: str, sender, ok_detail: str):
    bad, data = _one_sender(spec, sender)
    return _finish(bad, ok_detail, data)


@_register("ghz4-not-maximal", "The four-qubit GHZ state misses both thresholds: one teleported qubit and eight messages on every balanced split.",
           "ghz:4", _BALANCED, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)), "capacity 1 < 2 and 8 < 16 messages on every split")
@_register("chi-maximal", "The eight-term phase state is maximal, with the {1,4} split strictly weaker than the other two.",
           "chi", _BALANCED, _BALANCED, "maximal through {1,2} and {1,3}; {1,4} falls short")
@_register("omega-maximal", "The four-term phase state is maximal, with the {1,4} split strictly weaker than the other two.",
           "omega", _BALANCED, ((1, 3), (2, 4)), "maximal through {1,2} and {1,3}; {1,4} falls short")
@_register("hs-not-maximal", "The six-term phase state teleports nothing across any balanced cut and stays below sixteen messages.",
           "hs", _BALANCED, _BALANCED, "capacity 0 everywhere; messages stay below 16")
@_register("w2-maximal", "The weighted three-qubit superposition is maximal through the {1,2} sender but not through every pair.",
           "w:2", _PAIRS3, _PAIRS3, "maximal through (1, 2); other pairs fall short of 8 messages")
def _many_sender_profile(config: ClaimConfig, spec: str, caps, msgs, ok_detail: str):
    bad, got_caps, got_msgs, tmes = _profile(spec, caps, msgs)
    return _finish(bad, ok_detail, {"capacities": got_caps, "messages": got_msgs, "tmes": tmes})


@_register("ghz5-not-maximal", "The five-qubit GHZ state reaches sixteen messages but only one teleported qubit, so it is not maximal.")
def _ghz5_not_maximal(config: ClaimConfig):
    bad, _, _, tmes = _profile("ghz:5")
    return _finish(bad, "best figures 1 qubit and 16 < 32 messages", {"tmes": tmes})


@_register("cluster4-maximal", "The four-qubit cluster state teleports two qubits and carries sixteen messages through the odd pair.")
def _cluster4_maximal(config: ClaimConfig):
    bad, caps, msgs, tmes = _profile("cluster4", [(1, 3), (1, 2)], [(1, 3)])
    return _finish(
        bad,
        "capacity 2 and 16 messages on the odd/even split",
        {"capacity_odd": caps["1,3"], "capacity_edge": caps["1,2"], "messages": msgs["1,3"], "tmes": tmes},
    )


@_register("bell-product-maximal", "Two interleaved Bell pairs pass the maximality test despite being biseparable.")
def _bell_product_maximal(config: ClaimConfig):
    bad, caps, msgs, tmes = _profile("bell_product:2", [(1, 3)], [(1, 3)])
    gme = genuine_multipartite(bell_product(2))
    if gme:
        bad.append("product state reported as genuinely multipartite")
    return _finish(
        bad,
        "capacity 2, 16 messages, yet biseparable across the pairing cut",
        {"capacity": caps["1,3"], "messages": msgs["1,3"], "genuine_multipartite": gme, "tmes": tmes},
    )


@_register("odd-resource-maximal", "Bell pairs plus a single ancilla qubit are maximal on odd qubit counts.")
def _odd_resource_maximal(config: ClaimConfig):
    bad = []
    data = {}
    for label, spec, sender in (("n3", "odd_resource:1", (1, 3)), ("n5", "odd_resource:2", (1, 3, 5))):
        case_bad, data[label] = _one_sender(spec, sender)
        bad += case_bad
    return _finish(bad, "three- and five-qubit resources both maximal", data)


@_register("basis-not-maximal", "Computational basis states fail the maximality test and carry only the classical message count.")
def _basis_not_maximal(config: ClaimConfig):
    bad_two, _, msgs_two, _ = _profile("basis:00", msgs=[(1,)])
    bad_four, caps_four, msgs_four, _ = _profile("basis:0000", [(1, 3)], [(1, 3)])
    return _finish(
        bad_two + bad_four,
        "message counts collapse to the classical values; no teleportation",
        {"messages_2q": msgs_two["1"], "messages_4q": msgs_four["1,3"], "capacity_4q": caps_four["1,3"]},
    )


# ---------------------------------------------------------------------------
# protocol simulations


def _teleport_trials(spec: str, sender, n_payload, outcomes, config):
    """Seeded payload trials that should each have ``outcomes`` outcomes,
    run as one stack; returns (bad, data)."""
    state = make_state(parse_spec(spec))
    payloads = np.array(
        [haar_random_state(n_payload, config.seed + t).amplitudes for t in range(PAYLOAD_TRIALS)]
    )
    _, probs, fids = _teleport_rows(state, _cut(sender, state.num_qubits), payloads)
    count = probs.shape[1]
    # The figures of one TeleportResult per payload: a row's total is
    # summed left to right, as ``total_probability`` sums it.
    worst_fid = min(1.0, float(fids.min()))
    worst_prob_dev = max(0.0, float(np.max(np.abs(probs - 1.0 / count))))
    worst_total_dev = max(0.0, *(abs(sum(row) - 1.0) for row in probs.tolist()))
    bad = []
    if worst_fid < 1.0 - ATOL:
        bad.append(f"worst fidelity {worst_fid} below 1")
    if worst_prob_dev > ATOL:
        bad.append(f"outcome probabilities deviate from uniform by {worst_prob_dev:.2e}")
    if worst_total_dev > ATOL:
        bad.append(f"total probability off by {worst_total_dev:.2e}")
    if not bad and count != outcomes:
        bad.append(f"outcome count {count} != {outcomes}")
    data = {
        "outcomes": count,
        "trials": PAYLOAD_TRIALS,
        "worst_fidelity": worst_fid,
        "worst_probability_deviation": worst_prob_dev,
    }
    return bad, data


@_register("teleport-bell", "A Bell pair teleports arbitrary single-qubit payloads perfectly with four uniform outcomes.", "bell", (1,), 1, 4)
@_register("teleport-cluster4", "The four-qubit cluster state teleports arbitrary two-qubit payloads through the odd pair with sixteen uniform outcomes.", "cluster4", (1, 3), 2, 16)
@_register("teleport-cluster5", "The five-qubit cluster state teleports arbitrary two-qubit payloads through the odd triple with sixteen uniform outcomes.", "cluster5", (1, 3, 5), 2, 16)
def _seeded_teleport(config: ClaimConfig, spec: str, sender, n_payload: int, outcomes: int):
    bad, data = _teleport_trials(spec, sender, n_payload, outcomes, config)
    return _finish(bad, f"unit fidelity across seeded payloads, uniform 1/{outcomes} outcomes", data)


@_register("teleport-below-capacity", "Resources with spare capacity still teleport smaller payloads perfectly.")
def _teleport_below_capacity(config: ClaimConfig):
    bad = []
    data = {}
    for label, spec, sender, n_payload, count in (
        ("cluster4_p1", "cluster4", (1, 3), 1, 8),
        ("cluster5_p1", "cluster5", (1, 3, 5), 1, 8),
        ("ghz4_single_sender", "ghz:4", (1,), 1, 4),
        ("ghz5_pair_sender", "ghz:5", (1, 2), 1, 4),
    ):
        case_bad, data[label] = _teleport_trials(spec, sender, n_payload, count, config)
        bad.extend(f"{label}: {b}" for b in case_bad)
    return _finish(bad, "one-qubit payloads ride four resources at unit fidelity", data)


# The refusal rows call the library through these, which look its function
# up when they run, so a caller that rebinds a name in this module (a span
# tracer, a test spy) sees each call.
def _teleport_protocol(state, sender, n_payload: int):
    return build_teleport_protocol(state, _cut(sender, state.num_qubits), n_payload)


def _sdc_codebook(state, sender, num_messages: int):
    return build_sdc_codebook(state, sender, num_messages)


@_register("teleport-rejects-insufficient", "Protocol construction refuses payloads beyond the spectral capacity.", _teleport_protocol,
           (("ghz4_payload2", "ghz:4", (1, 3), 2), ("hs_payload1", "hs", (1, 2), 1), ("w2_weak_pair", "w:2", (1, 3), 1), ("bell_payload2", "bell", (1,), 2)),
           "all four over-capacity requests rejected")
@_register("sdc-rejects-overflow", "Codebook construction refuses message counts above the attainable maximum.", _sdc_codebook,
           (("ghz4_ask16", "ghz:4", (1, 3), 16), ("hs_ask16", "hs", (1, 2), 16), ("basis_ask3", "basis:00", (1,), 3)),
           "all oversize codebook requests rejected")
def _refusals(config: ClaimConfig, build, rows, ok_detail: str):
    """``build(state, sender, size)`` raises ValueError on every (label,
    spec, sender, size) row; data holds each message by label."""
    bad = []
    data = {}
    for label, spec, sender, size in rows:
        try:
            build(make_state(parse_spec(spec)), sender, size)
        except ValueError as err:
            data[label] = str(err)
        else:
            bad.append(f"{label}: construction unexpectedly succeeded")
            data[label] = None
    return _finish(bad, ok_detail, data)


@_register("protocol-structure", "The cluster-state protocol exposes sixteen orthonormal measurement states with uniform outcome weights and unitary corrections.")
def _protocol_structure(config: ClaimConfig):
    proto = build_teleport_protocol(cluster4(), _cut((1, 3), 4), 2)
    bad = []
    fam, corr = proto.measurement_family, proto.corrections
    if len(fam) != 16:
        bad.append(f"family size {len(fam)} != 16")
    gram_dev = float(np.max(np.abs(fam.conj() @ fam.T - np.eye(len(fam)))))
    if gram_dev > ATOL:
        bad.append(f"measurement family departs orthonormality by {gram_dev:.2e}")
    prob_dev = float(max(abs(p - 1 / 16) for p in proto.probabilities))
    if prob_dev > ATOL:
        bad.append(f"outcome weights deviate from 1/16 by {prob_dev:.2e}")
    if corr.shape[1:] != (4, 4) or np.max(
        np.abs(corr.conj().transpose(0, 2, 1) @ corr - np.eye(4))
    ) > ATOL:
        bad.append("corrections are not two-qubit unitaries")
    if [lab for lab in proto.outcome_labels] != [(q, 0) for q in range(16)]:
        bad.append("outcome labels are not the sixteen Pauli labels")
    data = {"gram_deviation": gram_dev, "probability_deviation": prob_dev}
    return _finish(bad, "sixteen orthonormal measurements, uniform weights, unitary corrections", data)


@_register("sdc-roundtrip", "Every encoded message decodes to itself through the maximal codebooks of the catalog resources.")
def _sdc_roundtrip(config: ClaimConfig):
    cases = (
        ("bell", "bell", (1,)),
        ("ghz3", "ghz:3", (1, 2)),
        ("cluster4", "cluster4", (1, 3)),
        ("cluster5", "cluster5", (1, 3, 5)),
        ("w2", "w:2", (1, 2)),
        ("odd1", "odd_resource:1", (1, 3)),
    )
    bad = []
    data = {}
    for label, spec, sender in cases:
        state = make_state(parse_spec(spec))
        want = FIGURES[spec, sender].messages
        book = build_sdc_codebook(state, sender)
        wrong = [i for i in range(len(book)) if simulate_sdc(state, sender, i, book) != i]
        data[label] = {"messages": len(book), "decode_errors": wrong}
        if len(book) != want:
            bad.append(f"{label}: codebook holds {len(book)} != {want} messages")
        if wrong:
            bad.append(f"{label}: decode errors at {wrong}")
    return _finish(bad, "4, 8, 16, and 32-message codebooks decode perfectly", data)


def _invariance_figures(seed: int) -> list[tuple[int, int]]:
    """(capacity, message count) of cluster4 across (1,3)|(2,4) after each
    of INVARIANCE_TRIALS seeded Haar unitaries on the sender pair, in draw
    order.  The unitaries are drawn as one stack, and U M (M the cut matrix,
    sender rows) is the matrix ``apply_local`` gives."""
    unitaries = _haar_unitaries(4, INVARIANCE_TRIALS, np.random.default_rng(seed))
    scored = _stack_figures(unitaries @ _cut_matrix(cluster4(), (1, 3), (2, 4)), 2)
    return [(cap, msgs) for _, cap, msgs in scored]


@_register("sender-unitary-invariance", "Relabeling the cluster-state sender pair by any unitary preserves capacity two and sixteen messages.")
def _sender_invariance(config: ClaimConfig):
    want = FIGURES["cluster4", (1, 3)]
    figures = _invariance_figures(config.seed)
    caps = {cap for cap, _ in figures}
    msgs = {count for _, count in figures}
    bad = []
    if caps != {want.capacity}:
        bad.append(f"capacities drifted to {sorted(caps)}")
    if msgs != {want.messages}:
        bad.append(f"message counts drifted to {sorted(msgs)}")
    data = {"trials": INVARIANCE_TRIALS, "capacities": sorted(caps), "messages": sorted(msgs)}
    return _finish(bad, f"{INVARIANCE_TRIALS} random sender unitaries leave both figures fixed", data)


# ---------------------------------------------------------------------------
# obstructions and constructive searches


def _violations_doc(report) -> list[dict]:
    return [
        {
            "cut": _cut_doc(v.cut),
            "source": _spec_doc(v.source_spectrum),
            "target": _spec_doc(v.target_spectrum),
        }
        for v in report.violated_cuts
    ]


@_register("obstruct-bell-pairs-to-ghz4", "No two-qubit gate on the odd pair can turn interleaved Bell pairs into the four-qubit GHZ state.")
def _obstruct_ghz4(config: ClaimConfig):
    src = bell_product(2)
    tgt = ghz(4)
    report = conversion_obstruction(src, tgt, (1, 3))
    place = find_realizing_application(cnot(), src, tgt)
    bad = []
    if not report.obstructed:
        bad.append("no spectral obstruction found")
    senders = {tuple(sorted(v.cut.sender)) for v in report.violated_cuts}
    if (1, 3) not in senders:
        bad.append("the odd/even cut is not among the violations")
    if place.found:
        bad.append("a controlled-flip placement unexpectedly realizes the conversion")
    data = {
        "violations": _violations_doc(report),
        "search_best_overlap": place.best_overlap,
        "search_best_placement": list(place.best_placement),
    }
    return _finish(bad, "flat 1/4 spectrum against two-level target certifies impossibility", data)


def _pair_obstructions(src, tgt) -> dict:
    """``conversion_obstruction`` of three-qubit ``src`` to ``tgt`` on each
    qubit pair, keyed by the pair."""
    return {pair: conversion_obstruction(src, tgt, pair) for pair in _PAIRS3}


@_register("obstruct-bell-ancilla-to-w2", "No two-qubit gate anywhere can turn a Bell pair plus ancilla into the weighted three-qubit superposition.")
def _obstruct_w2(config: ClaimConfig):
    reports = _pair_obstructions(tensor(bell(), basis_state("0")), w_state(2))
    bad = [f"subset {pair} is not obstructed" for pair, report in reports.items() if not report.obstructed]
    data = {_key(pair): _violations_doc(report) for pair, report in reports.items()}
    return _finish(bad, "every two-qubit placement hits a spectrum mismatch", data)


@_register("constructive-triples-unobstructed", "The three constructive identities pass the spectral screen and are found by placement search.")
def _constructive_triples(config: ClaimConfig):
    bad = []
    data = {}
    mid = apply_local(odd_resource(2), cnot(), (1, 3))
    cases = (
        ("ghz3", tensor(bell(), basis_state("0")), ghz(3), (1, 3)),
        ("cluster4", bell_product(2), cluster4(), (1, 3)),
        ("cluster5_step1", odd_resource(2), mid, (1, 3)),
        ("cluster5_step2", mid, cluster5(), (3, 5)),
    )
    for label, src, tgt, subset in cases:
        report = conversion_obstruction(src, tgt, subset)
        place = find_realizing_application(cnot(), src, tgt)
        data[label] = {
            "obstructed": report.obstructed,
            "found": place.found,
            "placement": list(place.placement) if place.placement else None,
        }
        if report.obstructed:
            bad.append(f"{label}: spectral screen unexpectedly fired")
        if not place.found:
            bad.append(f"{label}: placement search failed")
    return _finish(bad, "no obstruction and a realizing placement for every step", data)


@_register("chi-construction-discrepancy", "Applying the dedicated two-qubit generator to interleaved Bell pairs lands near, but not on, the printed eight-term state.")
def _chi_discrepancy(config: ClaimConfig):
    src = bell_product(2)
    tgt = chi()
    produced = apply_local(src, u_chi(), (1, 3))
    ov = overlap(tgt, produced)
    differing = [
        i
        for i in range(16)
        if abs(produced.amplitudes[i] - tgt.amplitudes[i]) > ATOL
    ]
    place = find_realizing_application(u_chi(), src, tgt)
    verdict = is_tmes(produced)
    data = {
        "overlap_with_target": [float(ov.real), float(ov.imag)],
        "differing_amplitude_indices": differing,
        "produced_is_tmes": verdict.is_tmes,
        "produced_teleport_qubits": verdict.teleport_qubits,
        "produced_sdc_messages": verdict.sdc_messages,
        "search_found": place.found,
        "search_placement": list(place.placement) if place.placement else None,
        "search_best_overlap": place.best_overlap,
        "search_best_placement": list(place.best_placement),
    }
    if place.found:
        where = tuple(place.placement)
        detail = (
            f"the printed placement (1, 3) lands at overlap {abs(ov):.3f} with "
            f"sign flips at indices {differing}; placement {where} realizes the "
            f"printed amplitudes exactly, and the (1, 3) product still passes "
            f"the maximality test"
        )
    else:
        detail = (
            f"overlap with the printed state is {abs(ov):.3f}; amplitudes "
            f"differ at indices {differing}; no placement reaches it exactly, "
            f"yet the produced state passes the maximality test"
        )
    return "recorded", detail, data


@_register("w2-construction-unrealizable", "No placement of the dedicated two-qubit generator turns a Bell pair plus ancilla into the weighted superposition, and spectra show why.")
def _w2_unrealizable(config: ClaimConfig):
    src = tensor(bell(), basis_state("0"))
    tgt = w_state(2)
    place = find_realizing_application(u_w2(), src, tgt)
    obstructions = {
        _key(pair): {"obstructed": report.obstructed, "violations": _violations_doc(report)}
        for pair, report in _pair_obstructions(src, tgt).items()
    }
    data = {
        "search_found": place.found,
        "search_best_overlap": place.best_overlap,
        "search_best_placement": list(place.best_placement),
        "obstructions": obstructions,
    }
    detail = (
        f"best overlap over all placements is {place.best_overlap:.3f}; every "
        f"two-qubit subset carries a spectral obstruction"
    )
    return "recorded", detail, data


# ---------------------------------------------------------------------------
# operator families


@_register("pauli-base", "Single-qubit relabelings are independent and compose according to the label group.")
def _pauli_base(config: ClaimConfig):
    bad = []
    base = pauli_set()
    rank1 = independence_rank(base.members)
    if rank1 != 4:
        bad.append(f"single-qubit rank {rank1} != 4")
    strings = np.stack([pauli_string(pauli_digits(d, 2)).matrix for d in range(16)])
    rank2 = independence_rank(strings)
    if rank2 != 16:
        bad.append(f"two-qubit string rank {rank2} != 16")
    worst = 1.0
    for a in range(4):
        for b in range(4):
            prod = sigma(a).matrix @ sigma(b).matrix
            worst = min(worst, abs(np.trace(sigma(a ^ b).matrix.conj().T @ prod)) / 2)
    if worst < 1.0 - ATOL:
        bad.append(f"label composition broke down (worst witness {worst})")
    data = {"rank_singles": rank1, "rank_pairs": rank2, "composition_witness": worst}
    return _finish(bad, "ranks 4 and 16; products match the label group up to phase", data)


@_register("gamma-certification", "The block construction yields sixteen independent two-qubit unitaries forming an orthogonal basis.")
def _gamma_certification(config: ClaimConfig):
    bad = []
    listed = gamma_set().members
    generated = operator_family(2).members
    if len(listed) != 16 or len(generated) != 16:
        bad.append("family size is not 16")
    worst = float(np.max(np.abs(listed - generated)))
    if worst > EXACT_ATOL:
        bad.append(f"generated family departs from the listed one by {worst:.2e}")
    rank = independence_rank(listed)
    if rank != 16:
        bad.append(f"independence rank {rank} != 16")
    stack = listed.reshape(16, -1)
    gram = stack.conj() @ stack.T
    off = float(np.max(np.abs(gram - np.diag(np.diagonal(gram)))))
    if off > ATOL:
        bad.append(f"members are not trace-orthogonal (max overlap {off:.2e})")
    data = {"rank": rank, "listed_vs_generated": worst, "max_trace_overlap": off}
    return _finish(bad, "16 unitaries, rank 16, pairwise trace-orthogonal", data)


@_register("family-rank-level-3", "The recursion yields 64 three-qubit unitaries; their independence rank is recorded.", 3)
@_register("family-rank-level-4", "The recursion yields 256 four-qubit unitaries; their independence rank is recorded.", 4)
def _family_rank(config: ClaimConfig, level: int):
    members = operator_family(level).members
    rank = independence_rank(members)
    data = {"members": len(members), "rank": rank}
    return "recorded", f"{len(members)} unitaries at arity {level}; independence rank {rank}", data


# ---------------------------------------------------------------------------
# serialization and diagnostics


@_register("serialization-roundtrip", "States and operator families survive a JSON round trip bit for bit.")
def _serialization(config: ClaimConfig):
    bad = []
    states = {
        "bell": bell(),
        "ghz4": ghz(4),
        "omega": omega(),
        "chi": chi(),
        "hs": hs(),
        "w2": w_state(2),
        "cluster4": cluster4(),
        "cluster5": cluster5(),
        "odd2": odd_resource(2),
        "basis01": basis_state("01"),
        "haar3": haar_random_state(3, config.seed),
    }
    for label, state in states.items():
        back = state_from_dict(parse_document(document_text(state_to_dict(state))))
        if back.num_qubits != state.num_qubits or not np.array_equal(
            back.amplitudes, state.amplitudes
        ):
            bad.append(f"state {label} did not survive the round trip")
    fam = gamma_set()
    fam_back = operator_set_from_dict(parse_document(document_text(operator_set_to_dict(fam))))
    if fam_back.level != fam.level or not np.array_equal(fam.members, fam_back.members):
        bad.append("operator family did not survive the round trip")
    op_back = operator_from_dict(parse_document(document_text(operator_to_dict(u_chi()))))
    if not np.array_equal(op_back.matrix, u_chi().matrix):
        bad.append("single operator did not survive the round trip")
    return _finish(bad, f"{len(states)} states and the operator family round-trip exactly", {"states": sorted(states)})


@_register("diagnostics", "Entanglement diagnostics reproduce the closed-form entropies, negativities, and multipartiteness verdicts.")
def _diagnostics(config: ClaimConfig):
    bad = []
    data = {}
    e_bell = entropy(schmidt_spectrum(bell(), _cut((1,), 2)))
    data["bell_entropy"] = float(e_bell)
    if abs(e_bell - 1.0) > ATOL:
        bad.append(f"Bell entropy {e_bell} != 1")
    e_w2 = entropy(schmidt_spectrum(w_state(2), _cut((1,), 3)))
    data["w2_qubit1_entropy"] = float(e_w2)
    if abs(e_w2 - 0.650022421648354) > ATOL:
        bad.append(f"weighted-state entropy {e_w2} != 0.650022421648354")
    neg_bell = negativity(bell(), _cut((1,), 2))
    data["bell_negativity"] = float(neg_bell)
    if abs(neg_bell - 0.5) > ATOL:
        bad.append(f"Bell negativity {neg_bell} != 1/2")
    neg_ghz4 = negativity(ghz(4), _cut((1, 2), 4))
    data["ghz4_negativity"] = float(neg_ghz4)
    if abs(neg_ghz4 - 0.5) > ATOL:
        bad.append(f"GHZ negativity {neg_ghz4} != 1/2")
    gme_true = {"ghz3": ghz(3), "cluster4": cluster4(), "chi": chi(), "omega": omega(), "hs": hs(), "cluster5": cluster5(), "w2": w_state(2)}
    gme_false = {"bell_product2": bell_product(2), "odd1": odd_resource(1), "basis0000": basis_state("0000")}
    for label, state in gme_true.items():
        if not genuine_multipartite(state):
            bad.append(f"{label} reported as not genuinely multipartite")
    for label, state in gme_false.items():
        if genuine_multipartite(state):
            bad.append(f"{label} reported as genuinely multipartite")
    data["genuine_multipartite_true"] = sorted(gme_true)
    data["genuine_multipartite_false"] = sorted(gme_false)
    return _finish(bad, "entropies, negativities, and multipartite verdicts all match", data)


@_register("orthogonal-family-witness", "Pauli relabeling families are fully orthogonal exactly when the sender marginal is flat, with the cluster witnesses explicit.")
def _orthogonal_witness(config: ClaimConfig):
    bad = []
    data = {}
    fam4 = orthogonal_family(cluster4(), (1, 3))
    data["cluster4_orthogonal"] = fam4.mutually_orthogonal()
    if not data["cluster4_orthogonal"]:
        bad.append("cluster4 family on the odd pair is not orthogonal")
    fam5 = orthogonal_family(cluster5(), (1, 3, 5))
    data["cluster5_full_orthogonal"] = fam5.mutually_orthogonal()
    if data["cluster5_full_orthogonal"]:
        bad.append("64 states cannot be orthogonal in a 32-dimensional space")
    labels = sdc_orthogonal_labels(cluster5(), (1, 3, 5))
    sub = fam5.gram[np.ix_(labels, labels)]
    off = float(np.max(np.abs(sub - np.diag(np.diagonal(sub)))))
    data["cluster5_witness_size"] = len(labels)
    data["cluster5_witness_max_overlap"] = off
    if len(labels) != 32 or off > ATOL:
        bad.append(f"cluster5 witness family of {len(labels)} states has overlap {off:.2e}")
    fam_basis = orthogonal_family(basis_state("00"), (1,))
    mags = np.abs(fam_basis.gram)
    pattern = np.array(
        [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]], dtype=float
    )
    dev = float(np.max(np.abs(mags - pattern)))
    data["basis_gram_deviation"] = dev
    if dev > ATOL:
        bad.append(f"basis-state family Gram deviates from the two-class pattern by {dev:.2e}")
    return _finish(bad, "16 orthogonal on cluster4, a 32-state witness on cluster5, two classes on a basis state", data)


def run_claim_suite(config: ClaimConfig | None = None) -> tuple[ClaimReport, ...]:
    """Run the selected claims (default: all) in sorted id order."""
    config = config or ClaimConfig()
    if config.claim_ids is None:
        selected = sorted(_REGISTRY)
    else:
        selected = sorted(set(config.claim_ids))
        if not selected:
            raise ValueError("the claim selection is empty")
        unknown = [cid for cid in selected if cid not in _REGISTRY]
        if unknown:
            raise ValueError(f"unknown claim ids: {', '.join(map(repr, unknown))}")
    reports = []
    for cid in selected:
        anchor, fn, args = _REGISTRY[cid]
        verdict, detail, data = fn(config, *args)
        reports.append(ClaimReport(cid, anchor, verdict, detail, data))
    return tuple(reports)


def suite_report_doc(
    reports: tuple[ClaimReport, ...],
    config: ClaimConfig,
    generated_at: str | None = None,
) -> dict:
    """JSON-ready document for a suite run.

    Deterministic except for ``generated_at`` (override it to pin the bytes).
    """
    counts = {"pass": 0, "fail": 0, "recorded": 0}
    for r in reports:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    stamp = generated_at or datetime.now(timezone.utc).isoformat()
    return {
        "format_version": 1,
        "kind": "claim_suite_report",
        "generated_at": stamp,
        "config": {
            "tolerance": ATOL,
            "seed": config.seed,
            "payload_trials": PAYLOAD_TRIALS,
            "invariance_trials": INVARIANCE_TRIALS,
            "claim_ids": list(config.claim_ids) if config.claim_ids else None,
        },
        "summary": counts,
        # asdict's entries, sharing each ``data`` dict instead of deep-copying it.
        "claims": [
            {"claim_id": r.claim_id, "anchor": r.anchor, "verdict": r.verdict, "detail": r.detail, "data": r.data}
            for r in reports
        ],
    }
