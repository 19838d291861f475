"""Acceptance suite: the eleven headline guarantees, one test per criterion.

Each test prints a single ``criterion NN [PASS|FAIL]`` line (visible with
``pytest -s`` or by running this file directly) and then asserts.
"""

from __future__ import annotations

import time

import numpy as np

from tmes.capacity import (
    build_sdc_codebook,
    haar_random_unitary,
    is_tmes,
    sdc_max_messages,
    simulate_sdc,
    simulate_teleportation,
    teleport_capacity,
)
from tmes.claims import FIGURES, VERDICTS, ClaimConfig, run_claim_suite
from tmes.invariants import conversion_obstruction, genuine_multipartite
from tmes.operators import (
    cnot,
    find_realizing_application,
    gamma,
    independence_rank,
    operator_family,
    pauli_set,
    sigma_construct,
    u_chi,
)
from tmes.statevec import (
    LocalOperator,
    Partition,
    SchmidtSpectrum,
    apply_local,
    entropy,
    negativity,
    schmidt_spectrum,
    tensor,
)
from tmes.states import (
    basis_state,
    bell,
    bell_product,
    chi,
    cluster4,
    cluster5,
    ghz,
    make_state,
    odd_resource,
    parse_spec,
    w_state,
)

AMP_TOL = 1e-12
FID_TOL = 1e-9


def _criterion(num: int, description: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} [{status}] {description}"
    if extra:
        line += f"  ({extra})"
    print(line)
    assert ok, line


def _amp_close(a, b) -> bool:
    return bool(np.max(np.abs(a.amplitudes - b.amplitudes)) <= AMP_TOL)


def _unitary_close(stack) -> bool:
    """Every matrix U of the stack has U^dagger U within AMP_TOL of I."""
    gram = stack.conj().transpose(0, 2, 1) @ stack
    return bool(np.max(np.abs(gram - np.eye(stack.shape[-1]))) <= AMP_TOL)


def test_criterion_01_cluster4_construction():
    produced = apply_local(bell_product(2), cnot(), (1, 3))
    _criterion(
        1,
        "controlled flip at (1,3) on two interleaved Bell pairs gives the "
        "four-qubit cluster state to 1e-12",
        _amp_close(produced, cluster4()),
    )


def test_criterion_02_ghz3_construction():
    produced = apply_local(tensor(bell(), basis_state("0")), cnot(), (1, 3))
    _criterion(
        2,
        "controlled flip at (1,3) on a Bell pair plus ancilla gives the "
        "three-qubit GHZ state to 1e-12",
        _amp_close(produced, ghz(3)),
    )


def test_criterion_03_cluster5_construction():
    mid = apply_local(odd_resource(2), cnot(), (1, 3))
    produced = apply_local(mid, cnot(), (3, 5))
    _criterion(
        3,
        "controlled flips at (1,3) then (3,5) on two Bell pairs plus ancilla "
        "give the five-qubit cluster state to 1e-12",
        _amp_close(produced, cluster5()),
    )


def test_criterion_04_gamma_certification():
    members = [gamma(k) for k in range(1, 17)]
    stack = np.stack([m.matrix for m in members])
    unitary = _unitary_close(stack)
    rank = independence_rank(stack)
    lifted = sigma_construct(pauli_set())
    reproduced = all(
        np.array_equal(a, b.matrix) for a, b in zip(lifted.members, members)
    )
    _criterion(
        4,
        "the sixteen two-qubit table members are unitary at 1e-12, linearly "
        "independent, and reproduced exactly by the block recursion",
        unitary and rank == 16 and reproduced,
        f"rank {rank}",
    )


def test_criterion_05_family_recursion():
    t0 = time.perf_counter()
    ranks = {}
    ok = True
    for level in (3, 4):
        fam = operator_family(level)
        ok = ok and len(fam.members) == 4**level
        ok = ok and _unitary_close(fam.members)
        ranks[level] = independence_rank(fam.members)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _criterion(
        5,
        "the recursion yields 64 and 256 unitaries at the next two levels "
        "within 10 s; independence ranks recorded",
        ok,
        f"ranks {ranks[3]}/{ranks[4]}, {elapsed:.2f} s",
    )


def test_criterion_06_capacity_table():
    checks = []
    for (spec, sender), want in FIGURES.items():
        state = make_state(parse_spec(spec))
        cut = Partition.from_sender(sender, state.num_qubits)
        checks.append(teleport_capacity(state, cut) == want.capacity)
        checks.append(sdc_max_messages(state, sender) == want.messages)
    for spec, want in VERDICTS.items():
        got = is_tmes(make_state(parse_spec(spec)))
        part = got.witnessing_partition
        witness = tuple(sorted(part.sender)) if part is not None else None
        checks.append(
            (got.is_tmes, got.teleport_qubits, got.sdc_messages, witness) == want
        )
    _criterion(
        6,
        "the capacity table is reproduced: every capacity and message count "
        "in claims.FIGURES and every verdict in claims.VERDICTS",
        all(checks),
        f"{sum(checks)}/{len(checks)} checks",
    )


def test_criterion_07_protocol_oracle():
    ok = True
    for state, sender, payload in (
        (bell(), (1,), 1),
        (cluster4(), (1, 3), 2),
        (cluster5(), (1, 3, 5), 2),
    ):
        cut = Partition.from_sender(sender, state.num_qubits)
        for seed in range(20):
            result = simulate_teleportation(state, cut, payload, seed=seed)
            uniform = 1.0 / len(result.probabilities)
            ok = ok and result.min_fidelity >= 1.0 - FID_TOL
            ok = ok and all(
                abs(p - uniform) <= FID_TOL for p in result.probabilities.tolist()
            )
            ok = ok and abs(result.total_probability - 1.0) <= FID_TOL
    decoded = 0
    total = 0
    for spec, sender in (("bell", (1,)), ("cluster4", (1, 3)), ("cluster5", (1, 3, 5))):
        state = make_state(parse_spec(spec))
        book = build_sdc_codebook(state, sender)
        ok = ok and len(book) == FIGURES[spec, sender].messages
        for msg in range(len(book)):
            total += 1
            decoded += simulate_sdc(state, sender, msg, book) == msg
    ok = ok and decoded == total
    _criterion(
        7,
        "teleportation holds fidelity >= 1-1e-9 with uniform outcomes over "
        "20 random payloads per resource, and every dense-coding message "
        "decodes correctly",
        ok,
        f"{decoded}/{total} messages",
    )


def test_criterion_08_sender_invariance():
    want = FIGURES["cluster4", (1, 3)]
    rng = np.random.default_rng(0)
    caps = set()
    msgs = set()
    for _ in range(50):
        u = LocalOperator(2, haar_random_unitary(4, rng))
        dressed = apply_local(cluster4(), u, (1, 3))
        caps.add(teleport_capacity(dressed, Partition.from_sender((1, 3), 4)))
        msgs.add(sdc_max_messages(dressed, (1, 3)))
    _criterion(
        8,
        "fifty random sender-side unitaries leave the cluster-state capacity "
        "and message count on the odd pair at their table values",
        caps == {want.capacity} and msgs == {want.messages},
        f"caps {sorted(caps)}, messages {sorted(msgs)}",
    )


def test_criterion_09_obstruction_soundness():
    checks = []
    checks.append(
        conversion_obstruction(bell_product(2), ghz(4), (1, 3)).obstructed
    )
    w2_src = tensor(bell(), basis_state("0"))
    checks.append(
        all(
            conversion_obstruction(w2_src, w_state(2), pair).obstructed
            for pair in ((1, 2), (1, 3), (2, 3))
        )
    )
    mid = apply_local(odd_resource(2), cnot(), (1, 3))
    for src, tgt, subset in (
        (bell_product(2), cluster4(), (1, 3)),
        (w2_src, ghz(3), (1, 3)),
        (odd_resource(2), mid, (1, 3)),
        (mid, cluster5(), (3, 5)),
    ):
        checks.append(not conversion_obstruction(src, tgt, subset).obstructed)
        checks.append(find_realizing_application(cnot(), src, tgt).found)
    _criterion(
        9,
        "spectral screening rejects the impossible conversions and passes the "
        "constructive ones, where placement search then succeeds",
        all(checks),
        f"{sum(checks)}/{len(checks)} checks",
    )


def test_criterion_10_ambiguity_reports():
    reports = run_claim_suite(
        ClaimConfig(
            claim_ids=(
                "chi-construction-discrepancy",
                "w2-construction-unrealizable",
            )
        )
    )
    by_id = {r.claim_id: r for r in reports}
    chi_rep = by_id["chi-construction-discrepancy"]
    w2_rep = by_id["w2-construction-unrealizable"]
    ok = chi_rep.verdict == "recorded" and w2_rep.verdict == "recorded"
    # the near-miss claim carries an exact placement certificate
    ok = ok and chi_rep.data["search_found"] is True
    ok = ok and chi_rep.data["search_best_overlap"] >= 1.0 - FID_TOL
    # the unrealizable claim carries best-overlap plus obstruction certificates
    ok = ok and w2_rep.data["search_found"] is False
    ok = ok and 0.0 < w2_rep.data["search_best_overlap"] < 1.0 - FID_TOL
    ok = ok and all(
        entry["obstructed"] for entry in w2_rep.data["obstructions"].values()
    )
    # independent check: the state the printed placement produces is maximal
    produced = apply_local(bell_product(2), u_chi(), (1, 3))
    ok = ok and is_tmes(produced).is_tmes
    _criterion(
        10,
        "both ambiguity claims terminate as recorded with placement or "
        "obstruction certificates, and the near-miss product is still "
        "task-maximal",
        ok,
        f"near-miss placement {chi_rep.data['search_placement']}, "
        f"best alternative overlap {w2_rep.data['search_best_overlap']:.3f}",
    )


def test_criterion_11_diagnostics():
    checks = []
    bell_cut = Partition.from_sender((1,), 2)
    checks.append(
        abs(entropy(schmidt_spectrum(bell(), bell_cut)) - 1.0) <= FID_TOL
    )
    checks.append(
        abs(entropy(SchmidtSpectrum((5 / 6, 1 / 6))) - 0.6500) <= 1e-3
    )
    checks.append(abs(negativity(bell(), bell_cut) - 0.5) <= FID_TOL)
    checks.append(genuine_multipartite(cluster4()))
    checks.append(genuine_multipartite(ghz(3)))
    checks.append(genuine_multipartite(chi()))
    checks.append(not genuine_multipartite(bell_product(2)))
    _criterion(
        11,
        "entropies, negativity, and multipartiteness verdicts match their "
        "closed forms",
        all(checks),
        f"{sum(checks)}/{len(checks)} checks",
    )


_CRITERIA = [
    test_criterion_01_cluster4_construction,
    test_criterion_02_ghz3_construction,
    test_criterion_03_cluster5_construction,
    test_criterion_04_gamma_certification,
    test_criterion_05_family_recursion,
    test_criterion_06_capacity_table,
    test_criterion_07_protocol_oracle,
    test_criterion_08_sender_invariance,
    test_criterion_09_obstruction_soundness,
    test_criterion_10_ambiguity_reports,
    test_criterion_11_diagnostics,
]


if __name__ == "__main__":
    failures = 0
    for fn in _CRITERIA:
        try:
            fn()
        except AssertionError:
            failures += 1
    raise SystemExit(1 if failures else 0)
