"""Every item of the benchmark's workloads passes its own correctness check.

The benchmark (``perfbench/run.py``) refuses a run whose outputs fail the
checks in ``perfbench/workloads.py``; here each item is built for seed 0,
run once and checked, so a change that breaks an item fails the tests
first.  Nothing is timed, and nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py``, imported with its directory on the path
    (it imports ``reference`` from there) and no bytecode written, for as
    long as the import takes."""
    sys.path.insert(0, str(BENCH_DIR))
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH_DIR))
        sys.dont_write_bytecode = writes
    return workloads


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_item_passes_its_check(workloads, name, tmp_path):
    items = workloads.WORKLOADS[name].build(0, tmp_path)
    assert items
    failures = {item.name: item.check(item.run()) for item in items}
    assert {key: fault for key, fault in failures.items() if fault is not None} == {}
