"""Command-line entry points: build catalog states and operator families,
run capacity analyses, and execute the claim verification suite.

Exit codes: 0 on success, 1 on a runtime failure or a failed claim, 2 on a
usage error.  A bad ``--sender`` or ``--subset`` (malformed, empty, a
repeated qubit, or a qubit the state does not have) is a runtime failure:
only the loaded state can tell whether a qubit list fits it, and argparse
never sees the state.  No flag sets a tolerance: every command decides at the
library's ``ATOL``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, Sequence

import numpy as np

from .capacity import (
    default_partition,
    is_tmes,
    sdc_orthogonal_labels,
    simulate_teleportation,
    teleport_capacity,
)
from .claims import ClaimConfig, run_claim_suite, suite_report_doc
from .invariants import conversion_obstruction
from .operators import operator_family
from .pauli import pauli_digits
from .serialize import (
    check_family_text_size,
    document_text,
    load_state,
    operator_set_to_dict,
    save_operator_set,
    save_state,
    state_to_dict,
    write_file,
)
from .states import make_state, parse_spec
from .statevec import EXACT_ATOL, Partition, PureState, _integer_text, schmidt_spectrum


def _parse_qubits(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError(f"expected a comma-separated qubit list, got {text!r}")
    try:
        qubits = tuple(_integer_text(p) for p in parts)
    except ValueError:
        raise ValueError(f"expected a comma-separated qubit list, got {text!r}")
    for i, q in enumerate(qubits):
        if q in qubits[:i]:
            raise ValueError(f"qubit {q} is repeated in {text!r}")
    return qubits


def _fmt_set(qubits: Iterable[int]) -> str:
    return "{" + ",".join(str(q) for q in sorted(qubits)) + "}"


def _fmt_cut(cut: Partition) -> str:
    return f"{_fmt_set(cut.sender)} | {_fmt_set(cut.receiver)}"


def _sender_or_default(args, state: PureState) -> tuple[int, ...]:
    if getattr(args, "sender", None) is not None:
        return _parse_qubits(args.sender)
    return tuple(sorted(default_partition(state.num_qubits).sender))


def _cmd_state_build(args) -> int:
    state = make_state(parse_spec(args.spec))
    if args.out:
        save_state(state, args.out)
        print(f"wrote {state.num_qubits}-qubit state to {args.out}")
    else:
        sys.stdout.write(document_text(state_to_dict(state)))
    return 0


def _cmd_state_show(args) -> int:
    state = load_state(args.file)
    print(f"qubits: {state.num_qubits}")
    print(f"norm: {float(np.linalg.norm(state.amplitudes)):.12f}")
    print("amplitudes:")
    for idx, amp in enumerate(state.amplitudes):
        if abs(amp) <= EXACT_ATOL:
            continue
        bits = format(idx, f"0{state.num_qubits}b")
        print(f"  |{bits}>  {amp.real:+.9f} {amp.imag:+.9f}i")
    return 0


def _cmd_op_gen(args) -> int:
    check_family_text_size(args.level)
    family = operator_family(args.level)
    if args.out:
        save_operator_set(family, args.out)
        print(f"wrote {len(family.members)} operators at level {args.level} to {args.out}")
    else:
        sys.stdout.write(document_text(operator_set_to_dict(family)))
    return 0


def _cmd_capacity(args) -> int:
    state = load_state(args.state)
    sender = _sender_or_default(args, state)
    cut = Partition.from_sender(sender, state.num_qubits)
    spectrum = schmidt_spectrum(state, cut)
    clusters = spectrum.clustered()
    cap = teleport_capacity(state, cut)
    print(f"qubits: {state.num_qubits}")
    print(f"cut: {_fmt_cut(cut)}")
    print("spectrum: " + "  ".join(f"{v:.9f} x{m}" for v, m in clusters))
    print(f"teleport capacity: {cap} qubit(s)")
    return 0


def _cmd_sdc(args) -> int:
    state = load_state(args.state)
    sender = _sender_or_default(args, state)
    labels = sdc_orthogonal_labels(state, sender)
    count = len(labels)
    print(f"sender: {_fmt_set(sender)}")
    print(f"messages: {count} (log2 = {np.log2(count):g})")
    digits = [
        "".join(str(d) for d in pauli_digits(lab, len(sender))) for lab in labels
    ]
    print("encodings (base-4 digits): " + " ".join(digits))
    return 0


def _cmd_teleport(args) -> int:
    state = load_state(args.resource)
    sender = _sender_or_default(args, state)
    cut = Partition.from_sender(sender, state.num_qubits)
    result = simulate_teleportation(state, cut, args.payload_qubits, args.seed)
    print(f"resource: {state.num_qubits} qubits, cut {_fmt_cut(cut)}")
    print(f"payload: {args.payload_qubits} Haar-random qubit(s), seed {args.seed}")
    print("outcome  pauli  block  probability   fidelity")
    probs, fids = result.probabilities.tolist(), result.fidelities.tolist()
    for i, (q, j) in enumerate(result.protocol.outcome_labels):
        digits = "".join(str(d) for d in pauli_digits(q, args.payload_qubits))
        print(f"{i:7d}  {digits:>5s}  {j:5d}  {probs[i]:.9f}  {fids[i]:.9f}")
    print(f"total probability: {result.total_probability:.9f}")
    print(f"minimum fidelity: {result.min_fidelity:.9f}")
    return 0


def _cmd_tmes(args) -> int:
    state = load_state(args.state)
    verdict = is_tmes(state)
    n = state.num_qubits
    print(f"qubits: {n}")
    print(f"maximal for both tasks: {'yes' if verdict.is_tmes else 'no'}")
    print(
        f"best teleport payload: {verdict.teleport_qubits} qubit(s) "
        f"(threshold {n // 2})"
    )
    print(f"best message count: {verdict.sdc_messages} (threshold {2**n})")
    if verdict.witnessing_partition is not None:
        print(f"witness cut: {_fmt_cut(verdict.witnessing_partition)}")
    return 0


def _cmd_obstruct(args) -> int:
    source = load_state(args.source)
    target = load_state(args.target)
    subset = _parse_qubits(args.subset)
    report = conversion_obstruction(source, target, subset)
    print(f"acting subset: {_fmt_set(report.acting_subset)}")
    print(f"obstructed: {'yes' if report.obstructed else 'no'}")
    for v in report.violated_cuts:
        src = ", ".join(f"{x:.9f}" for x in v.source_spectrum.eigenvalues)
        tgt = ", ".join(f"{x:.9f}" for x in v.target_spectrum.eigenvalues)
        print(f"  cut {_fmt_cut(v.cut)}: source [{src}] vs target [{tgt}]")
    return 0


def _cmd_verify(args) -> int:
    ids = None
    if args.claims is not None:
        ids = tuple(p.strip() for p in args.claims.split(",") if p.strip())
    config = ClaimConfig(seed=args.seed, claim_ids=ids)
    reports = run_claim_suite(config)
    width = max(len(r.claim_id) for r in reports)
    for r in reports:
        print(f"{r.claim_id:<{width}}  {r.verdict:<8}  {r.detail}")
    doc = suite_report_doc(reports, config)
    counts = doc["summary"]
    print(
        f"{counts['pass']} passed, {counts['fail']} failed, "
        f"{counts['recorded']} recorded"
    )
    if args.report:
        write_file(args.report, document_text(doc))
        print(f"wrote report to {args.report}")
    return 1 if counts["fail"] else 0


def build_parser() -> argparse.ArgumentParser:
    def integer(text: str) -> int:
        # argparse names a refused value by its type's name: "invalid integer value"
        return _integer_text(text)

    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument(
        "--seed", type=integer, default=0, help="base random seed (default 0)"
    )

    parser = argparse.ArgumentParser(
        prog="tmes",
        description="Task capacities of multi-qubit resource states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="build or inspect catalog states")
    state_sub = p_state.add_subparsers(dest="state_command", required=True)
    p_build = state_sub.add_parser("build", help="construct a catalog state")
    p_build.add_argument(
        "spec",
        help="state spec, e.g. bell, bell:psi-, ghz:4, w:2, cluster4, "
        "cluster5, omega, chi, hs, bell_product:2, odd_resource:2, basis:0110",
    )
    p_build.add_argument("--out", help="write JSON here instead of stdout")
    p_build.set_defaults(handler=_cmd_state_build)
    p_show = state_sub.add_parser("show", help="print a stored state")
    p_show.add_argument("file")
    p_show.set_defaults(handler=_cmd_state_show)

    p_op = sub.add_parser("op", help="generate operator families")
    op_sub = p_op.add_subparsers(dest="op_command", required=True)
    p_gen = op_sub.add_parser("gen", help="generate the level-d family (4^d members)")
    p_gen.add_argument("--level", type=integer, required=True)
    p_gen.add_argument("--out", help="write JSON here instead of stdout")
    p_gen.set_defaults(handler=_cmd_op_gen)

    p_cap = sub.add_parser("capacity", help="teleportation capacity across a cut")
    p_cap.add_argument("--state", required=True)
    p_cap.add_argument("--sender", help="comma-separated sender qubits (default: odd)")
    p_cap.set_defaults(handler=_cmd_capacity)

    p_tel = sub.add_parser(
        "teleport", parents=[seed], help="simulate teleportation of a random payload"
    )
    p_tel.add_argument("--resource", required=True)
    p_tel.add_argument("--sender", help="comma-separated sender qubits (default: odd)")
    p_tel.add_argument("--payload-qubits", type=integer, required=True)
    p_tel.set_defaults(handler=_cmd_teleport)

    p_sdc = sub.add_parser("sdc", help="maximum orthogonal Pauli encodings")
    p_sdc.add_argument("--state", required=True)
    p_sdc.add_argument("--sender", help="comma-separated sender qubits (default: odd)")
    p_sdc.set_defaults(handler=_cmd_sdc)

    p_tmes = sub.add_parser("tmes", help="combined maximality verdict")
    p_tmes.add_argument("--state", required=True)
    p_tmes.set_defaults(handler=_cmd_tmes)

    p_obs = sub.add_parser("obstruct", help="spectral conversion obstructions")
    p_obs.add_argument("--source", required=True)
    p_obs.add_argument("--target", required=True)
    p_obs.add_argument("--subset", required=True, help="acting qubits, e.g. 1,3")
    p_obs.set_defaults(handler=_cmd_obstruct)

    p_ver = sub.add_parser(
        "verify", parents=[seed], help="run the claim verification suite"
    )
    p_ver.add_argument("--claims", help="comma-separated claim ids (default: all)")
    p_ver.add_argument("--report", help="write a JSON report here")
    p_ver.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except (ValueError, OSError, KeyError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
