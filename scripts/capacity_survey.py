"""Survey task capacities of the named catalog states.

For every state the script walks the balanced sender sets used by the
maximality test, printing the clustered spectrum, teleport capacity, and
message count per cut, then the combined verdict.  ``--json`` additionally
writes a machine-readable document.
"""

from __future__ import annotations

import argparse
import json
from itertools import combinations

from tmes.capacity import is_tmes, sdc_max_messages, teleport_capacity
from tmes.statevec import Partition, schmidt_spectrum
from tmes.states import make_state, parse_spec

CATALOG = [
    (name, make_state(parse_spec(spec)))
    for name, spec in (
        ("bell", "bell"),
        ("ghz3", "ghz:3"),
        ("ghz4", "ghz:4"),
        ("ghz5", "ghz:5"),
        ("omega", "omega"),
        ("chi", "chi"),
        ("hs", "hs"),
        ("w2", "w:2"),
        ("bell_product2", "bell_product:2"),
        ("odd_resource1", "odd_resource:1"),
        ("odd_resource2", "odd_resource:2"),
        ("cluster4", "cluster4"),
        ("cluster5", "cluster5"),
        ("basis0000", "basis:0000"),
    )
]


def fmt_spectrum(clusters) -> str:
    return " ".join(f"{v:.6g}x{m}" for v, m in clusters)


def survey_state(name, state, tol):
    n = state.num_qubits
    sender_size = n - n // 2
    rows = []
    for combo in combinations(range(1, n + 1), sender_size):
        cut = Partition.from_sender(combo, n)
        spec = schmidt_spectrum(state, cut)
        rows.append(
            {
                "sender": list(combo),
                "spectrum": [float(x) for x in spec.eigenvalues],
                "clusters": [[float(v), m] for v, m in spec.clustered()],
                "teleport_qubits": teleport_capacity(state, cut),
                "messages": sdc_max_messages(state, combo, tol),
            }
        )
    verdict = is_tmes(state, tol)
    return {
        "name": name,
        "qubits": n,
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
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
