"""The claim suite: registry hygiene, verdicts, and report documents."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tmes
from tmes.claims import (
    RECORDED_CLAIMS,
    ClaimConfig,
    claim_ids,
    run_claim_suite,
    suite_report_doc,
)


GOLDEN_REPORT = Path(__file__).with_name("claims_baseline.json")


def _assert_matches(got, want, where: str) -> None:
    """Equal JSON values, except that floats may differ by 1e-12."""
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: lengths differ"
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_matches(a, b, f"{where}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12, f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def full_suite():
    return run_claim_suite()


@pytest.fixture(scope="module")
def rerun_suite():
    """A second, independent run of the whole suite."""
    return run_claim_suite()


@pytest.fixture(scope="module")
def by_id(full_suite):
    return {r.claim_id: r for r in full_suite}


class TestRegistry:
    def test_ids_sorted_and_unique(self):
        ids = claim_ids()
        assert list(ids) == sorted(set(ids))
        assert len(ids) == 45

    def test_recorded_ids_are_registered(self):
        assert RECORDED_CLAIMS <= set(claim_ids())

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown claim ids"):
            run_claim_suite(ClaimConfig(claim_ids=("no-such-claim",)))

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="claim selection is empty"):
            run_claim_suite(ClaimConfig(claim_ids=()))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be a non-negative int, got -3"):
            ClaimConfig(seed=-3)

    def test_subset_selection(self):
        reports = run_claim_suite(ClaimConfig(claim_ids=("bell-catalog",)))
        assert len(reports) == 1
        assert reports[0].claim_id == "bell-catalog"

    def test_import_builds_no_state(self):
        # Claim cases are spec strings and tuples, so state construction stays
        # inside the claims that run.  The probe counts PureState.__post_init__
        # calls from before the package body imports tmes.claims.
        probe = (
            "import importlib.util, sys\n"
            "spec = importlib.util.find_spec('tmes')\n"
            "package = sys.modules['tmes'] = importlib.util.module_from_spec(spec)\n"
            "from tmes import statevec\n"
            "built = []\n"
            "init = statevec.PureState.__post_init__\n"
            "statevec.PureState.__post_init__ = lambda self: (built.append(self), init(self))[1]\n"
            "spec.loader.exec_module(package)\n"
            "import tmes.claims\n"
            "print(len(tmes.claims.claim_ids()), len(built))\n"
        )
        src = str(Path(tmes.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.split() == [str(len(claim_ids())), "0"]


class TestFullSuite:
    def test_no_failures(self, full_suite):
        failing = [r.claim_id for r in full_suite if r.verdict == "fail"]
        assert failing == []
        assert {r.verdict for r in full_suite} == {"pass", "recorded"}

    def test_recorded_set_is_exact(self, full_suite):
        recorded = {r.claim_id for r in full_suite if r.verdict == "recorded"}
        assert recorded == set(RECORDED_CLAIMS)

    def test_covers_every_registered_claim_in_order(self, full_suite):
        assert tuple(r.claim_id for r in full_suite) == claim_ids()

    def test_every_report_carries_evidence(self, full_suite):
        for r in full_suite:
            assert r.anchor and r.detail
            assert isinstance(r.data, dict)

    def test_deterministic_reruns(self, full_suite, rerun_suite):
        assert rerun_suite == full_suite


class TestRecordedEvidence:
    def test_near_miss_construction(self, by_id):
        data = by_id["chi-construction-discrepancy"].data
        assert data["overlap_with_target"][0] == pytest.approx(0.5, abs=1e-9)
        assert data["overlap_with_target"][1] == pytest.approx(0.0, abs=1e-9)
        assert data["differing_amplitude_indices"] == [5, 10]
        assert data["produced_is_tmes"] is True
        assert data["produced_teleport_qubits"] == 2
        assert data["produced_sdc_messages"] == 16
        # the printed placement misses, but the mirrored one hits exactly
        assert data["search_found"]
        assert data["search_placement"] == [2, 4]
        assert data["search_best_overlap"] == pytest.approx(1.0, abs=1e-9)

    def test_unrealizable_construction(self, by_id):
        data = by_id["w2-construction-unrealizable"].data
        assert not data["search_found"]
        assert 0.0 < data["search_best_overlap"] < 1.0 - 1e-9
        assert all(
            entry["obstructed"] for entry in data["obstructions"].values()
        )

    @pytest.mark.parametrize(
        "claim,members",
        [("family-rank-level-3", 64), ("family-rank-level-4", 256)],
    )
    def test_family_ranks_saturate(self, by_id, claim, members):
        data = by_id[claim].data
        assert data["members"] == members
        assert data["rank"] == members


class TestReportDocument:
    def test_pinned_timestamp_makes_bytes_reproducible(self, full_suite, rerun_suite):
        config = ClaimConfig()
        doc_a = suite_report_doc(full_suite, config, generated_at="run-0")
        doc_b = suite_report_doc(rerun_suite, config, generated_at="run-0")
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)

    def test_header_and_summary(self, full_suite):
        doc = suite_report_doc(full_suite, ClaimConfig(), generated_at="t")
        assert doc["format_version"] == 1
        assert doc["kind"] == "claim_suite_report"
        assert doc["generated_at"] == "t"
        assert doc["summary"] == {"pass": 41, "fail": 0, "recorded": 4}
        assert len(doc["claims"]) == 45
        assert doc["config"]["tolerance"] == 1e-9
        assert doc["config"]["claim_ids"] is None
        assert doc["config"]["payload_trials"] == 20
        assert doc["config"]["invariance_trials"] == 50

    def test_matches_golden_report(self, full_suite):
        # The reference run's report, pinned; floats may move by BLAS rounding.
        golden = json.loads(GOLDEN_REPORT.read_text(encoding="utf-8"))
        doc = suite_report_doc(full_suite, ClaimConfig(), generated_at="pinned")
        got = json.loads(json.dumps(doc))
        assert [c["claim_id"] for c in got["claims"]] == [
            c["claim_id"] for c in golden["claims"]
        ]
        _assert_matches(got, golden, "report")

    def test_claims_serialize_to_plain_json(self, full_suite):
        doc = suite_report_doc(full_suite, ClaimConfig(), generated_at="t")
        text = json.dumps(doc)
        back = json.loads(text)
        assert [c["claim_id"] for c in back["claims"]] == list(claim_ids())
