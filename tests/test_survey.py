"""``scripts/capacity_survey.py`` run in-process against the expected figures."""

from __future__ import annotations

import io
import json
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from tmes.claims import FIGURES, VERDICTS

SURVEY = Path(__file__).resolve().parents[1] / "scripts" / "capacity_survey.py"
# The survey's --json document, pinned byte for byte.
BASELINE = Path(__file__).with_name("survey_baseline.json")


@pytest.fixture(scope="module")
def survey_json(tmp_path_factory):
    """The bytes the survey writes with --json, run once per module."""
    out = tmp_path_factory.mktemp("survey") / "survey.json"
    printed = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, redirect_stdout(printed):
        patch.setattr(sys, "argv", [str(SURVEY), "--json", str(out)])
        with pytest.raises(SystemExit) as stop:
            runpy.run_path(str(SURVEY), run_name="__main__")
    assert stop.value.code == 0
    assert printed.getvalue().endswith(f"wrote {out}\n")
    return out.read_bytes()


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
