"""The benchmark's four workloads: fixed item lists, seeded inputs and the
correctness check of every item.

Each item is one closed-loop call into the public API of ``tmes``; a pass
runs every item of a workload once, in order.  Items call through module
attributes (``capacity.is_tmes``, not a bound name) so that the tracer in
``spans.py`` can wrap them.  Checks run outside the timed region and compare
against ``expected.json`` or against an identity the output must satisfy.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference
from tmes import capacity, claims, cli, invariants, operators, serialize, states, statevec

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

FIDELITY_ATOL = 1e-9
NEGATIVITY_ATOL = 1e-9
ACCEPTED_CLAIM_VERDICTS = frozenset({"pass", "recorded"})


@dataclass(frozen=True)
class Item:
    """One timed call; ``check`` returns a failure message or None.
    ``reference`` names the kernel of ``reference.KERNELS`` it is timed
    against."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    warm: bool = True
    reference: str = "mixed"


@dataclass(frozen=True)
class Workload:
    name: str
    frontier: str
    build: Callable[[int, Path], list[Item]]
    # Extra calls timed after each traced pass; gets the tracer's span().
    probe: Callable[[Callable], None] | None = None
    # Repeat the traced run with BLAS on two threads.
    two_thread_repeat: bool = False


def haar(num_qubits: int, seed: int) -> statevec.PureState:
    """Seeded Haar state; each size draws from its own stream."""
    return capacity.haar_random_state(num_qubits, seed * 100 + num_qubits)


def catalog(spec: str) -> statevec.PureState:
    return states.make_state(states.parse_spec(spec))


def state_roundtrip(state: statevec.PureState, path: Path) -> statevec.PureState:
    """Save and load one state; traced as ``serialize.state_roundtrip``."""
    serialize.save_state(state, path)
    return serialize.load_state(path)


# --- verdict ---------------------------------------------------------------

# Haar n = 7 takes the same edgeless-graph path as n = 6 and 8, and ghz:6
# and bell_product:3 take the clique search and flat-marginal shortcut of
# ghz:7 and bell_product:4 at a tenth of the cost: a pass stays near the
# Haar n = 8 call alone, so a run holds enough passes for a steady median.
VERDICT_HAAR = (6, 8)
VERDICT_CATALOG = ("ghz:6", "bell_product:3", "cluster5", "chi", "omega", "hs")


def _check_verdict(expected: dict) -> Callable[[Any], str | None]:
    def check(v: capacity.TmesVerdict) -> str | None:
        got = {
            "is_tmes": v.is_tmes,
            "teleport_qubits": v.teleport_qubits,
            "sdc_messages": v.sdc_messages,
        }
        return None if got == expected else f"verdict {got} != expected {expected}"

    return check


def _verdict_items(seed: int, workdir: Path) -> list[Item]:
    items = []
    for n in VERDICT_HAAR:
        state = haar(n, seed)
        items.append(
            Item(
                f"is_tmes:haar{n}",
                lambda s=state: capacity.is_tmes(s),
                _check_verdict(EXPECTED["haar_verdict"]),
                warm=n == 6,
            )
        )
    for spec in VERDICT_CATALOG:
        state = catalog(spec)
        items.append(
            Item(
                f"is_tmes:{spec}",
                lambda s=state: capacity.is_tmes(s),
                _check_verdict(EXPECTED["verdict"][spec]),
            )
        )
    return items


# --- spectra ---------------------------------------------------------------

# Negativity at n = 11 takes seconds per call, too few samples for a run;
# n = 10 keeps the same dense eigvalsh path.
SPECTRA_HAAR = (9, 10)
OBSTRUCTION_SUBSET = (1, 2)


def _check_spectra(n: int) -> Callable[[Any], str | None]:
    def check(spectra: dict) -> str | None:
        if len(spectra) != 2 ** (n - 1) - 1:
            return f"{len(spectra)} bipartitions, expected {2 ** (n - 1) - 1}"
        worst = max(abs(sum(sp.eigenvalues) - 1.0) for sp in spectra.values())
        return None if worst <= FIDELITY_ATOL else f"spectrum sums off by {worst:.2e}"

    return check


def _check_negativity(state: statevec.PureState, cut: statevec.Partition):
    def check(value: float) -> str | None:
        lam = np.asarray(statevec.schmidt_spectrum(state, cut).eigenvalues)
        closed = (np.sum(np.sqrt(lam)) ** 2 - 1.0) / 2.0
        err = abs(value - closed)
        return None if err <= NEGATIVITY_ATOL else f"negativity off closed form by {err:.2e}"

    return check


def _lu_image(state: statevec.PureState, seed: int) -> statevec.PureState:
    """The state under a seeded Haar unitary on OBSTRUCTION_SUBSET: no cut
    that keeps the subset on one side may tell the two apart."""
    rng = np.random.default_rng([seed, state.num_qubits])
    u = statevec.LocalOperator(2, capacity.haar_random_unitary(4, rng))
    return statevec.apply_local(state, u, OBSTRUCTION_SUBSET)


def _spectra_items(seed: int, workdir: Path) -> list[Item]:
    inputs = [(f"haar{n}", haar(n, seed)) for n in SPECTRA_HAAR]
    inputs.append(("ghz:10", catalog("ghz:10")))
    items = []
    for label, state in inputs:
        n = state.num_qubits
        cut = capacity.default_partition(n)
        target = _lu_image(state, seed)
        items += [
            Item(
                f"all_bipartition_spectra:{label}",
                lambda s=state: invariants.all_bipartition_spectra(s),
                _check_spectra(n),
            ),
            Item(
                f"genuine_multipartite:{label}",
                lambda s=state: invariants.genuine_multipartite(s),
                lambda ok: None if ok else "state reported as biseparable",
            ),
            Item(
                f"conversion_obstruction:{label}",
                lambda s=state, t=target: invariants.conversion_obstruction(
                    s, t, OBSTRUCTION_SUBSET
                ),
                lambda r: f"{len(r.violated_cuts)} spurious violations" if r.obstructed else None,
            ),
            Item(
                f"negativity:{label}",
                lambda s=state, c=cut: statevec.negativity(s, c),
                _check_negativity(state, cut),
                # one eigvalsh of the 2^n-row partial transpose
                reference="eigvalsh" if 2**n >= reference.DENSE_DIM else "mixed",
            ),
        ]
    return items


# --- protocols -------------------------------------------------------------

TELEPORT_RESOURCE = "bell_product:4"
# Payloads per teleport item: one 4-qubit teleport is too short a sample to
# be steady on a shared machine.
PAYLOADS_PER_ITEM = 8
SDC_CASES = (("cluster5", (1, 3, 5)), ("bell_product:3", (1, 3, 5)))


def _check_teleport(results: list[capacity.TeleportResult]) -> str | None:
    for r in results:
        fid, prob = r.min_fidelity, r.total_probability
        if fid < 1.0 - FIDELITY_ATOL or abs(prob - 1.0) > FIDELITY_ATOL:
            return f"min fidelity {fid!r}, total probability {prob!r}"
    return None


def _sdc_round(state: statevec.PureState, sender: tuple[int, ...]) -> list[int]:
    book = capacity.build_sdc_codebook(state, sender)
    return [capacity.simulate_sdc(state, sender, m, book) for m in range(len(book))]


def _check_sdc(expected: int) -> Callable[[Any], str | None]:
    def check(decoded: list[int]) -> str | None:
        if len(decoded) != expected:
            return f"{len(decoded)} messages, expected {expected}"
        wrong = sum(d != i for i, d in enumerate(decoded))
        return f"{wrong} messages decoded to another index" if wrong else None

    return check


def _family_rank(level: int) -> int:
    return operators.independence_rank(operators.operator_family(level).members)


def _protocol_items(seed: int, workdir: Path) -> list[Item]:
    resource = catalog(TELEPORT_RESOURCE)
    cut = capacity.default_partition(resource.num_qubits)
    items = []
    for p in (1, 2, 3, 4):
        payloads = [
            capacity.haar_random_state(p, seed * 1000 + 100 * p + k)
            for k in range(PAYLOADS_PER_ITEM)
        ]
        items.append(
            Item(
                f"teleport:payload{p}",
                lambda pls=payloads: [
                    capacity.simulate_teleportation(resource, cut, pl) for pl in pls
                ],
                _check_teleport,
            )
        )
    for spec, sender in SDC_CASES:
        state = catalog(spec)
        key = f"{spec}|{','.join(map(str, sender))}"
        items.append(
            Item(
                f"sdc:{spec}",
                lambda s=state, snd=sender: _sdc_round(s, snd),
                _check_sdc(EXPECTED["sdc_messages"][key]),
            )
        )
    for level in range(1, 6):
        expected = EXPECTED["family_rank"][str(level)]
        items.append(
            Item(
                f"operator_family:level{level}",
                lambda lv=level: _family_rank(lv),
                lambda r, e=expected: None if r == e else f"rank {r}, expected {e}",
                # one SVD of the 4^level-row matrix of flattened members
                reference="svd" if 4**level >= reference.DENSE_DIM else "mixed",
            )
        )
    return items


# --- verify ----------------------------------------------------------------

CATALOG_SPECS = (
    "bell", "bell:psi-", "ghz:4", "w:2", "cluster4", "cluster5", "omega", "chi",
    "hs", "bell_product:2", "odd_resource:2", "basis:0110",
)


def _claim_failures(verdicts: dict[str, str]) -> str | None:
    bad = {cid: v for cid, v in verdicts.items() if v not in ACCEPTED_CLAIM_VERDICTS}
    if bad:
        return f"claims not pass/recorded: {bad}"
    if not verdicts:
        return "no claims ran"
    return None


def _cli_verify(report: Path) -> tuple[int, Path]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify", "--report", str(report)])
    return code, report


def _check_cli_verify(out: tuple[int, Path]) -> str | None:
    code, report = out
    if code != 0:
        return f"tmes verify exited {code}"
    doc = json.loads(report.read_text())
    return _claim_failures({c["claim_id"]: c["verdict"] for c in doc["claims"]})


def _roundtrips(pairs, workdir: Path) -> list[tuple[str, bool]]:
    out = []
    for spec, state in pairs:
        loaded = state_roundtrip(state, workdir / "state.json")
        out.append((spec, bool(np.array_equal(loaded.amplitudes, state.amplitudes))))
    return out


def _verify_items(seed: int, workdir: Path) -> list[Item]:
    pairs = [(spec, catalog(spec)) for spec in CATALOG_SPECS]
    return [
        Item("cli.verify", lambda: _cli_verify(workdir / "report.json"), _check_cli_verify),
        Item(
            "claims.run_claim_suite",
            lambda: claims.run_claim_suite(),
            lambda reports: _claim_failures({r.claim_id: r.verdict for r in reports}),
        ),
        Item(
            "serialize.roundtrip",
            lambda: _roundtrips(pairs, workdir),
            lambda res: (
                None
                if all(ok for _, ok in res)
                else f"round trip changed {[s for s, ok in res if not ok]}"
            ),
        ),
    ]


def _time_each_claim(span: Callable) -> None:
    """One standalone run of each claim, for the ``claims.<claim_id>`` spans."""
    for cid in claims.claim_ids():
        with span(f"claims.{cid}"):
            claims.run_claim_suite(claims.ClaimConfig(claim_ids=(cid,)))


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verdict", "is_tmes:haar8", _verdict_items),
        Workload("spectra", "negativity:haar10", _spectra_items),
        Workload("protocols", "teleport:payload4", _protocol_items, two_thread_repeat=True),
        Workload("verify", "claims.run_claim_suite", _verify_items, probe=_time_each_claim),
    )
}
