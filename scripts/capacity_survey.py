"""Survey task capacities of the named catalog states.

For every state in ``tmes.claims.VERDICTS`` the script formats the
``cut_reports`` of the maximality test, one per balanced sender set: the
clustered spectrum, teleport capacity and message count per cut, then the
combined verdict folded over those same reports.  ``--json`` additionally
writes a machine-readable document.
"""

from __future__ import annotations

import argparse

from tmes.capacity import cut_reports, tmes_verdict
from tmes.claims import VERDICTS
from tmes.serialize import document_text, write_file
from tmes.states import make_state, parse_spec

# Every state with an expected verdict in the claim suite, named by its spec
# without the colon (``ghz:3`` -> ``ghz3``).
CATALOG = [(spec.replace(":", ""), make_state(parse_spec(spec))) for spec in VERDICTS]


def fmt_spectrum(clusters) -> str:
    return " ".join(f"{v:.6g}x{m}" for v, m in clusters)


def survey_state(name, state, tol):
    reports = list(cut_reports(state, tol))
    rows = [
        {
            "sender": sorted(report.cut.sender),
            "spectrum": list(report.spectrum.eigenvalues),
            "clusters": [[v, m] for v, m in report.spectrum.clustered()],
            "teleport_qubits": report.capacity,
            "messages": report.messages,
        }
        for report in reports
    ]
    verdict = tmes_verdict(reports, tol)
    return {
        "name": name,
        "qubits": state.num_qubits,
        "cuts": rows,
        "is_maximal": verdict.is_tmes,
        "best_teleport_qubits": verdict.teleport_qubits,
        "best_messages": verdict.sdc_messages,
        "witness_sender": (
            sorted(verdict.witnessing_partition.sender)
            if verdict.witnessing_partition
            else None
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--json", help="also write the survey to this path")
    args = parser.parse_args()

    results = []
    for name, state in CATALOG:
        entry = survey_state(name, state, args.tol)
        results.append(entry)
        n = entry["qubits"]
        print(f"{name}  ({n} qubits)")
        for row in entry["cuts"]:
            sender = ",".join(str(q) for q in row["sender"])
            clusters = fmt_spectrum([(v, m) for v, m in row["clusters"]])
            print(
                f"  sender {{{sender}}}  spectrum {clusters:<24s}  "
                f"teleport {row['teleport_qubits']}  messages {row['messages']}"
            )
        witness = entry["witness_sender"]
        tail = f", witness {{{','.join(map(str, witness))}}}" if witness else ""
        print(
            f"  verdict: {'maximal' if entry['is_maximal'] else 'not maximal'} "
            f"(teleport {entry['best_teleport_qubits']}/{n // 2}, "
            f"messages {entry['best_messages']}/{2**n}{tail})"
        )
        print()

    if args.json:
        doc = {"format_version": 1, "kind": "capacity_survey", "states": results}
        write_file(args.json, document_text(doc))
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
