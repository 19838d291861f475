"""``scripts/capacity_survey.py`` run in-process against the expected figures."""

from __future__ import annotations

import io
import json
import math
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from oracles import brute_runs, run_counts
from tmes.claims import FIGURES, VERDICTS
from tmes.states import make_state, parse_spec

SURVEY = Path(__file__).resolve().parents[1] / "scripts" / "capacity_survey.py"
# The survey's --json document, pinned byte for byte.
BASELINE = Path(__file__).with_name("survey_baseline.json")


def run_survey(out: Path, patch: pytest.MonkeyPatch) -> str:
    """Run the survey with --json ``out``; returns what it printed."""
    printed = io.StringIO()
    patch.setattr(sys, "argv", [str(SURVEY), "--json", str(out)])
    with redirect_stdout(printed), pytest.raises(SystemExit) as stop:
        runpy.run_path(str(SURVEY), run_name="__main__")
    assert stop.value.code == 0
    assert printed.getvalue().endswith(f"wrote {out}\n")
    return printed.getvalue()


@pytest.fixture(scope="module")
def survey_json(tmp_path_factory):
    """The bytes the survey writes with --json, run once per module."""
    out = tmp_path_factory.mktemp("survey") / "survey.json"
    with pytest.MonkeyPatch.context() as patch:
        run_survey(out, patch)
    return out.read_bytes()


def test_survey_refuses_tol(monkeypatch, capsys):
    # Message counts are taken at ATOL; no flag sets another threshold.
    monkeypatch.setattr(sys, "argv", [str(SURVEY), "--tol", "1e-9"])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(SURVEY), run_name="__main__")
    assert stop.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_survey_scores_each_cut_once(tmp_path, monkeypatch, cut_stack_spy):
    # The verdict folds over the rows already reported, so no balanced cut
    # of any state is scored twice.
    cut_stack_spy.keep_stacks = False
    run_survey(tmp_path / "survey.json", monkeypatch)
    qubits = [make_state(parse_spec(spec)).num_qubits for spec in VERDICTS]
    assert [call.state.num_qubits for call in cut_stack_spy] == qubits
    assert sum(len(call.cuts) for call in cut_stack_spy) == sum(math.comb(n, (n + 1) // 2) for n in qubits)
    for call in cut_stack_spy:
        assert sorted(i for chunk in call.chunks for i in chunk.where) == list(range(len(call.cuts)))
    # One matrix per class of cuts whose senders take the same count from
    # every run: one for bell, the GHZ states and the uniform basis states
    # (a single run), one per cut for hs (no run of two qubits), and in
    # between for the rest (bell_product:3's runs are {1,2}, {3,4}, {5,6}).
    rows = [sum(chunk.shape[0] for chunk in call.chunks) for call in cut_stack_spy]
    classes = []
    for call in cut_stack_spy:
        runs = brute_runs(call.state.amplitudes, call.state.num_qubits)
        classes.append(len({run_counts(runs, cut.sender) for cut in call.cuts}))
    assert rows == classes
    assert dict(zip(VERDICTS, zip(classes, (len(call.cuts) for call in cut_stack_spy)))) == {
        "bell": (1, 2), "ghz:3": (1, 3), "ghz:4": (1, 6), "ghz:5": (1, 10), "omega": (4, 6),
        "chi": (4, 6), "hs": (6, 6), "w:2": (3, 3), "bell_product:2": (3, 6),
        "odd_resource:1": (2, 3), "odd_resource:2": (5, 10), "cluster4": (3, 6),
        "cluster5": (7, 10), "basis:0000": (1, 6), "basis:00": (1, 2), "bell:psi-": (2, 2),
        "ghz:6": (1, 20), "w:1": (2, 3), "bell_product:3": (7, 20), "basis:01101": (7, 10),
    }


def test_survey_json_matches_baseline(survey_json):
    assert survey_json == BASELINE.read_bytes()


def test_survey_agrees_with_tables(survey_json):
    states = json.loads(survey_json.decode("utf-8"))["states"]
    specs = {spec.replace(":", ""): spec for spec in VERDICTS}
    assert [entry["name"] for entry in states] == list(specs)
    seen = set()
    for entry in states:
        spec = specs[entry["name"]]
        witness = entry["witness_sender"]
        got = (
            entry["is_maximal"],
            entry["best_teleport_qubits"],
            entry["best_messages"],
            tuple(witness) if witness is not None else None,
        )
        assert got == VERDICTS[spec], spec
        for row in entry["cuts"]:
            key = (spec, tuple(row["sender"]))
            if key not in FIGURES:
                continue
            seen.add(key)
            want = FIGURES[key]
            np.testing.assert_allclose(row["spectrum"], want.spectrum, rtol=0, atol=1e-12)
            assert (row["teleport_qubits"], row["messages"]) == (
                want.capacity,
                want.messages,
            ), (spec, row["sender"])
    # every FIGURES row on a balanced cut was reported
    qubits = {specs[entry["name"]]: entry["qubits"] for entry in states}
    assert seen == {
        (spec, sender)
        for spec, sender in FIGURES
        if len(sender) == qubits[spec] - qubits[spec] // 2
    }
