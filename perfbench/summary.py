"""Run every workload and print each end-to-end metric with its unit.

    python3 perfbench/summary.py --seed 0
    python3 perfbench/summary.py --seed 0 --baseline perfbench/baseline.json

Each workload runs in its own process through ``run.py``.  ``failed_frac``
(items failing their check over items attempted) is printed beside the
metrics.  With ``--baseline`` the traced run of every workload follows, and
the file records per workload its frontier item, the seed, the fingerprint,
the end-to-end values and each layer's share of one traced pass.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def shares(metrics: dict) -> dict[str, float]:
    """Each timed layer over the traced pass time, largest first."""
    per_pass = metrics["bench.pass.traced_s"]["value"]
    out = {
        name: m["value"] / per_pass
        for name, m in metrics.items()
        if m["unit"] == "s" and m["value"] > 0
        and not name.startswith("bench.") and not name.endswith("_2t")
    }
    return {k: round(v, 4) for k, v in sorted(out.items(), key=lambda kv: -kv[1])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--baseline", type=Path, help="also trace and write this file")
    args = parser.parse_args()

    baseline = {}
    print(f"{'workload':<10} {'metric':<14} {'value':>12}  unit")
    for w in SPEC["workloads"]:
        record, result = run_once(w["name"], args.seed, 0)
        for name, m in result["metrics"].items():
            print(f"{w['name']:<10} {name:<14} {m['value']:>12.6g}  {m['unit']}")
        print(f"{w['name']:<10} {'failed_frac':<14} {record['failed_frac']:>12.6g}  ratio")
        for failure in record["failures"]:
            print(f"  failed: {failure}")
        if args.baseline:
            traced_record, traced = run_once(w["name"], args.seed, 1)
            baseline[w["name"]] = {
                "why": w["why"],
                "frontier_item": record["frontier_item"],
                "seed": args.seed,
                "passes": record["passes"],
                "tail_calls_pooled": record["tail_calls_pooled"],
                "failed_frac": record["failed_frac"],
                "end_to_end": {k: m["value"] for k, m in result["metrics"].items()},
                "traced_passes": traced_record["passes"],
                "layer_share_of_traced_pass": shares(traced["metrics"]),
                "fingerprint": record["fingerprint"],
            }
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"wrote {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
