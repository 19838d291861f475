"""The harness and BENCHMARK.json stay in step: the same workloads, the same
end-to-end and per-layer metric names and units, and per-layer names shaped
``<module>.<function>.<stat>``.  Nothing here asserts a timing.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_NAME = re.compile(r"^[a-z]+\.[A-Za-z0-9_-]+\.[a-z0-9_]+$")


def test_workload_names_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_metrics_match():
    emitted = run.end_to_end((1.0, 1.2, 0.5), [0.2, 0.3], 40.0)
    assert list(emitted) == [name for name, _ in run.END_TO_END]
    declared = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert declared == list(run.END_TO_END)


def test_per_layer_metrics_match():
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared == spans.layer_names()
    emitted = spans.Tracer().layer_metrics([], [])
    assert set(emitted) == {name for name, _, _ in declared}


def test_per_layer_names_are_module_function_stat():
    for name, _, _ in spans.layer_names():
        assert LAYER_NAME.match(name), name


def test_frontier_is_an_item_of_its_workload(tmp_path):
    for workload in workloads.WORKLOADS.values():
        names = [item.name for item in workload.build(0, tmp_path)]
        assert len(names) == len(set(names))
        assert workload.frontier in names


def test_each_item_is_framed_by_its_reference_kernel():
    items = [
        workloads.Item("a", lambda: None, lambda _: None),
        workloads.Item("b", lambda: None, lambda _: None),
        workloads.Item("c", lambda: None, lambda _: None, reference="svd"),
    ]
    kernels = {"mixed": lambda: None, "svd": lambda: None}
    runner = run.Runner(items, kernels)
    runner.one_pass(traced=False)
    runner.one_pass(traced=False)
    order = [
        ("reference", "mixed"), ("a", "mixed"), ("reference", "mixed"), ("b", "mixed"),
        ("reference", "mixed"), ("reference", "svd"), ("c", "svd"), ("reference", "svd"),
    ]
    assert [(i, n, k) for i, n, k, _, _ in runner.timeline] == [
        (p, n, k) for p in (0, 1) for n, k in order
    ]
    assert len(runner.untraced) == 2 and runner.failures == []


def test_calls_are_timed_against_the_nearest_runs_of_their_kernel():
    near = [(0, "reference", "mixed", float(t), 1.0) for t in range(1, 10)]
    far = [(0, "reference", "mixed", 100.0 + t, 10.0) for t in range(5)]
    dense = [(0, "reference", "svd", float(t), 0.5) for t in range(3)]
    timeline = [
        (0, "a", "mixed", 0.0, 2.0), *near, (0, "b", "mixed", 10.0, 3.0), *far, *dense,
        (0, "c", "svd", 11.0, 2.0),
    ]
    rel = run.relative(timeline)
    assert (rel[0], rel[10], rel[-1]) == (2.0, 3.0, 4.0)
    passes, items = run.by_pass(timeline, rel)
    assert passes == [9.0] and items == {"a": [2.0], "b": [3.0], "c": [4.0]}


def test_every_item_names_a_kernel(tmp_path):
    for workload in workloads.WORKLOADS.values():
        for item in workload.build(0, tmp_path):
            assert item.reference in reference.KERNELS, item.name


def test_tail_keeps_ten_samples_above_it():
    assert run.tail([float(x) for x in range(25)]) == (14.0, 10)
    assert run.tail([float(x) for x in range(11)]) == (0.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 2)


def test_slowdowns_pool_every_call_over_its_item_median():
    pooled = run.slowdowns({"a": [1.0, 2.0, 4.0], "b": [0.1], "c": []})
    assert pooled == [0.5, 1.0, 2.0, 1.0]
