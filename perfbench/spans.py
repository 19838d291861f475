"""Span tracer for the traced run, and the per-layer metrics built from it.

For the length of a traced pass the tracer swaps each public function named
in TRACED for a wrapper, in every ``tmes`` module namespace that binds it, so
calls between modules are seen too.  Each call becomes an in-memory span
(name, start, end, parent); nothing in ``tmes`` itself is edited.

Per-layer metrics are ``<module>.<function>.<stat>``: ``s`` is the summed
span time and ``calls`` the call count, both per traced pass, except
``states.make_state`` (per input set-up) and ``claims.<claim_id>`` (one
standalone run of each claim per traced pass).  ``self_s`` is the span time
minus the time of its direct traced children.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from tmes import claims

# Span name -> (module, attribute).  The harness's own state round trip is
# traced under the serialize layer.
TRACED = {
    name: ("tmes." + name.split(".")[0], name.split(".")[1])
    for name in (
        "capacity.is_tmes",
        "capacity.teleport_capacity",
        "capacity.sdc_max_messages",
        "capacity.build_teleport_protocol",
        "capacity.simulate_teleportation",
        "capacity.build_sdc_codebook",
        "capacity.simulate_sdc",
        "statevec.schmidt_spectrum",
        "statevec.schmidt_decomposition",
        "statevec.partial_trace",
        "statevec.apply_local",
        "statevec.negativity",
        "invariants.all_bipartition_spectra",
        "invariants.genuine_multipartite",
        "invariants.conversion_obstruction",
        "operators.operator_family",
        "operators.independence_rank",
        "claims.run_claim_suite",
        "claims.suite_report_doc",
        "cli.main",
        "states.make_state",
    )
}
TRACED["serialize.state_roundtrip"] = ("workloads", "state_roundtrip")

SELF_TIMED = ("capacity.is_tmes", "capacity.simulate_teleportation", "cli.main")
SETUP_LAYERS = ("states.make_state",)
SDC = "capacity.sdc_max_messages"

# Per-layer metrics the two-thread repeat reports, as ``<name>_2t``.
TWO_THREAD = (
    "capacity.build_teleport_protocol.s",
    "capacity.simulate_teleportation.s",
    "capacity.simulate_teleportation.self_s",
    "capacity.build_sdc_codebook.s",
    "capacity.simulate_sdc.s",
    "operators.operator_family.s",
    "operators.independence_rank.s",
    "statevec.apply_local.s",
    "bench.pass.untraced_s",
)

BENCH = (
    ("bench.reference.s", "s", "lower"),
    ("bench.pass.untraced_s", "s", "lower"),
    ("bench.pass.traced_s", "s", "lower"),
    ("bench.pass.overhead_s", "s", "lower"),
    ("bench.pass.spans", "count", "lower"),
)


def layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in emission order."""
    out = []
    for name in TRACED:
        out += [(f"{name}.s", "s", "lower"), (f"{name}.calls", "count", "lower")]
        if name in SELF_TIMED:
            out.append((f"{name}.self_s", "s", "lower"))
        if name == SDC:
            out += [
                (f"{SDC}.flat_s", "s", "lower"),
                (f"{SDC}.clique_s", "s", "lower"),
                (f"{SDC}.flat_share", "ratio", "higher"),
                (f"{SDC}.useful_ratio", "ratio", "higher"),
            ]
    out += [(f"claims.{cid}.s", "s", "lower") for cid in claims.claim_ids()]
    out += [(f"{name}_2t", "s", "lower") for name in TWO_THREAD]
    out += list(BENCH)
    return out


class Tracer:
    """In-memory spans: ``spans[i] = [name, start, end, parent index or -1]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        # Span index -> (marginal was flat, messages, 4^s) for SDC calls.
        self.sdc_notes: dict[int, tuple[bool, int, int]] = {}
        # SDC calls of the current pass, classified once the pass is over.
        self._sdc_pending: list[tuple[int, tuple, dict, int]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._originals = {
            name: getattr(importlib.import_module(mod), attr)
            for name, (mod, attr) in TRACED.items()
        }
        self._wrappers = {name: self._wrap(name, fn) for name, fn in self._originals.items()}
        self._sdc_signature = inspect.signature(self._originals[SDC])

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name == SDC:
                self._sdc_pending.append((idx, args, kwargs, result))
            return result

        return traced

    def _note_sdc(self, idx: int, args, kwargs, messages: int) -> None:
        """Split SDC calls by whether the sender marginal is flat, the case the
        library's shortcut decides without a clique search.  Runs after the
        pass, outside every span, so no span counts the harness's test."""
        bound = self._sdc_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        state, sender, tol = list(bound.arguments.values())[:3]
        qubits = sorted({int(q) for q in sender})
        rho = self._originals["statevec.partial_trace"](state, qubits).matrix
        dim = rho.shape[0]
        flat = bool(np.max(np.abs(rho - np.eye(dim) / dim)) <= tol)
        self.sdc_notes[idx] = (flat, int(messages), 4 ** len(qubits))

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "tmes" or k.startswith("tmes.")]
        modules.append(sys.modules["workloads"])
        for name, orig in self._originals.items():
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is orig]:
                    self._patches.append((module, key, orig))
                    setattr(module, key, self._wrappers[name])

    def uninstall(self) -> None:
        for module, key, orig in reversed(self._patches):
            setattr(module, key, orig)
        self._patches.clear()
        for note in self._sdc_pending:
            self._note_sdc(*note)
        self._sdc_pending.clear()

    def layer_metrics(
        self,
        traced_passes: list[float],
        untraced_passes: list[float],
        reference_s: float = 0.0,
        two_thread: dict[str, float] | None = None,
    ) -> dict[str, float]:
        """Every per-layer metric of ``layer_names()``; layers that did not
        run read 0, as do the ``_2t`` metrics without a two-thread repeat.
        ``reference_s`` is the reference kernel's median time in the run:
        the seconds here are wall seconds, and dividing by it takes out the
        host's drift, as the end-to-end metrics do."""
        per = max(len(traced_passes), 1)
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        child = [0.0] * len(self.spans)
        self_time: dict[str, float] = {}
        for name, start, end, parent in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), kids in zip(self.spans, child):
            if name in SELF_TIMED:
                self_time[name] = self_time.get(name, 0.0) + (end - start - kids)

        def scale(name: str) -> int:
            return 1 if name in SETUP_LAYERS else per

        values: dict[str, float] = {}
        for name, _, _ in layer_names():
            layer, _, stat = name.rpartition(".")
            if stat == "s":
                values[name] = total.get(layer, 0.0) / scale(layer)
            elif stat == "calls":
                values[name] = calls.get(layer, 0) / scale(layer)
            elif stat == "self_s":
                values[name] = self_time.get(layer, 0.0) / per
        notes = [(self.spans[i], note) for i, note in self.sdc_notes.items()]
        flat = [s[2] - s[1] for s, (is_flat, _, _) in notes if is_flat]
        clique = [s[2] - s[1] for s, (is_flat, _, _) in notes if not is_flat]
        values[f"{SDC}.flat_s"] = sum(flat) / per
        values[f"{SDC}.clique_s"] = sum(clique) / per
        values[f"{SDC}.flat_share"] = len(flat) / len(notes) if notes else 0.0
        values[f"{SDC}.useful_ratio"] = (
            sum(n[1] for _, n in notes) / sum(n[2] for _, n in notes) if notes else 0.0
        )
        for name in TWO_THREAD:
            values[f"{name}_2t"] = (two_thread or {}).get(name, 0.0)
        traced = statistics.median(traced_passes) if traced_passes else 0.0
        untraced = statistics.median(untraced_passes) if untraced_passes else 0.0
        values["bench.reference.s"] = reference_s
        values["bench.pass.untraced_s"] = untraced
        values["bench.pass.traced_s"] = traced
        values["bench.pass.overhead_s"] = traced - untraced
        values["bench.pass.spans"] = sum(
            1 for s in self.spans if s[0] not in SETUP_LAYERS
        ) / per
        return values

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "sdc_notes": {str(i): list(n) for i, n in self.sdc_notes.items()},
        }

