"""End-to-end CLI behavior through in-process main() calls."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from tmes import cli
from tmes.capacity import haar_random_state
from tmes.cli import main
from tmes.claims import VERDICTS
from tmes.operators import operator_family
from tmes.serialize import load_state, save_operator_set, save_state
from tmes.states import cluster4, make_state, parse_spec
from tmes.statevec import PureState

# ``tmes teleport`` stdout for these (resource, payload qubits, seed) runs,
# in order, pinned byte for byte: the default odd-qubit sender throughout.
TELEPORT_BASELINE = Path(__file__).with_name("teleport_baseline.txt")
TELEPORT_RUNS = [
    ("bell_product:4", 1, 1),
    ("bell_product:4", 2, 2),
    ("bell_product:4", 3, 3),
    ("bell_product:4", 4, 4),
    ("cluster4", 2, 5),
]


@pytest.fixture
def state_file(tmp_path):
    def write(spec: str, name: str = "state.json"):
        path = tmp_path / name
        save_state(make_state(parse_spec(spec)), path)
        return str(path)

    return write


class TestStateCommands:
    def test_build_to_stdout(self, capsys):
        assert main(["state", "build", "ghz:3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "state"
        assert doc["num_qubits"] == 3
        assert doc["amplitudes"][0][0] == pytest.approx(2**-0.5)

    def test_build_to_file_and_show(self, tmp_path, capsys):
        out = tmp_path / "c4.json"
        assert main(["state", "build", "cluster4", "--out", str(out)]) == 0
        stored = load_state(out)
        assert np.array_equal(stored.amplitudes, cluster4().amplitudes)
        capsys.readouterr()
        assert main(["state", "show", str(out)]) == 0
        text = capsys.readouterr().out
        assert "qubits: 4" in text
        assert "norm: 1.000000000000" in text
        for bits in ("0000", "0011", "1110", "1101"):
            assert f"|{bits}>  +0.500000000" in text

    @pytest.mark.parametrize("spec", sorted(VERDICTS))
    def test_build_stdout_is_the_saved_file(self, tmp_path, capsys, spec):
        path = tmp_path / "state.json"
        save_state(make_state(parse_spec(spec)), path)
        assert main(["state", "build", spec]) == 0
        assert capsys.readouterr().out.encode("utf-8") == path.read_bytes()

    def test_every_spec_kind_builds(self, capsys):
        specs = [
            "bell", "bell:psi-", "ghz:4", "w:2", "omega", "chi", "hs",
            "cluster4", "cluster5", "bell_product:2", "odd_resource:1",
            "basis:010",
        ]
        for spec in specs:
            assert main(["state", "build", spec]) == 0, spec
            capsys.readouterr()

    @pytest.mark.parametrize(
        "spec",
        [
            "ghz:40",
            "basis:" + "0" * 40,
            "bell_product:20",
            # 10^400 does not convert to a float
            pytest.param("w:1" + "0" * 400, id="w:huge"),
        ],
    )
    def test_oversized_spec_fails_cleanly(self, capsys, spec):
        assert main(["state", "build", spec]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        if spec.startswith("w:"):
            assert "w_state parameter must be an integer in" in captured.err
        else:
            assert "above the 256 MiB cap" in captured.err

    def test_unknown_spec_fails_cleanly(self, capsys):
        assert main(["state", "build", "septet:7"]) == 1
        assert "error:" in capsys.readouterr().err

    # A dict patches a valid 1-qubit document; a string is the whole file.
    @pytest.mark.parametrize(
        "patch",
        [
            {"amplitudes": [["NaN", 0], [0, 0]]},
            {"amplitudes": [[float("nan"), 0], [0, 0]]},
            {"amplitudes": [1, 0]},
            {"num_qubits": "1"},
            {"num_qubits": None},
            "[" * 200_000,
            {"amplitudes": [[int("9" * 400), 0], [0, 0]]},
        ],
        ids=[
            "string-amplitude", "json-nan", "bare-numbers", "string-count",
            "missing-count", "deep-nesting", "huge-integer",
        ],
    )
    def test_malformed_state_file_fails_cleanly(self, tmp_path, capsys, patch):
        path = tmp_path / "bad.json"
        if isinstance(patch, str):
            path.write_text(patch)
        else:
            doc = {
                "format_version": 1, "kind": "state", "convention": "q1-msb",
                "num_qubits": 1, "amplitudes": [[1, 0], [0, 0]],
            }
            doc.update(patch)
            doc = {k: v for k, v in doc.items() if v is not None}
            path.write_text(json.dumps(doc))
        assert main(["tmes", "--state", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command", [["state", "show"], ["tmes", "--state"], ["capacity", "--state"]]
    )
    def test_amplitude_too_large_to_square_fails_cleanly(self, tmp_path, capsys, command):
        # Squaring 1e308 overflows; the state refuses it first, so no numpy
        # warning (an error under this suite) comes before the error line.
        path = tmp_path / "huge.json"
        doc = {
            "format_version": 1, "kind": "state", "convention": "q1-msb",
            "num_qubits": 3, "amplitudes": [[1e308, 1e308]] + [[0, 0]] * 7,
        }
        path.write_text(json.dumps(doc))
        assert main([*command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: state is not normalized:")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", [["state", "show"], ["tmes", "--state"]])
    def test_total_probability_off_by_more_than_atol_fails_cleanly(self, tmp_path, capsys, command):
        # The norm, 1 + 0.9e-9, is within ATOL of 1; the total probability
        # is not, and the file is refused on load, before any analysis.
        path = tmp_path / "long.json"
        doc = {
            "format_version": 1, "kind": "state", "convention": "q1-msb", "num_qubits": 4,
            "amplitudes": [[z.real, z.imag] for z in haar_random_state(4, 0).amplitudes * (1 + 0.9e-9)],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="not normalized: total probability = 1.0000000018"):
            load_state(path)
        assert main([*command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: state is not normalized: total probability = ")
        assert captured.err.count("\n") == 1

    def test_show_missing_file(self, capsys):
        assert main(["state", "show", "/nonexistent/state.json"]) == 1
        assert "error:" in capsys.readouterr().err


# sha256 of `tmes op gen --level L` stdout, pinned byte for byte (signed
# zeros and float repr included) with the byte count at level 4.
OP_GEN_SHA256 = {
    1: "c66aa83a413db371c52c9f84a25b060b5b83c3b51294c9eb273ab8888ae991f1",
    2: "b38a28af718cb5d5b83e38b0c3ff689acd899a7bc3d824c4c10fda34cd669eff",
    3: "5f87335e7cc655b16b9c1fb9f97b9449bf8d7c9dacaf899f321bbe29cfc086e9",
    4: "646bc1595415bc0840be22b6004b6fb7e52e4ebe61b3fcaa5ca407809f110830",
}


class TestOperatorCommand:
    @pytest.mark.parametrize("level", sorted(OP_GEN_SHA256))
    def test_gen_stdout_bytes_are_pinned(self, capsys, level):
        assert main(["op", "gen", "--level", str(level)]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == OP_GEN_SHA256[level]
        if level == 4:
            assert len(out) == 3_358_103

    def test_gen_stdout_is_the_saved_file(self, tmp_path, capsys):
        path = tmp_path / "fam.json"
        save_operator_set(operator_family(2), path)
        assert main(["op", "gen", "--level", "2"]) == 0
        assert capsys.readouterr().out.encode("utf-8") == path.read_bytes()

    def test_gen_level_three(self, capsys):
        assert main(["op", "gen", "--level", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "operator_set"
        assert doc["level"] == 3
        assert len(doc["operators"]) == 64

    def test_gen_to_file(self, tmp_path, capsys):
        out = tmp_path / "fam.json"
        assert main(["op", "gen", "--level", "2", "--out", str(out)]) == 0
        assert "wrote 16 operators" in capsys.readouterr().out
        assert json.loads(out.read_text())["level"] == 2

    def test_bad_level(self, capsys):
        assert main(["op", "gen", "--level", "0"]) == 1

    def test_oversized_level_fails_cleanly(self, capsys):
        # level 8 would need 64 GiB; the size guard refuses it first
        assert main(["op", "gen", "--level", "8"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "MiB cap" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("level", [6, 7, 10**18])
    def test_oversized_document_is_refused_before_building(self, monkeypatch, capsys, level):
        # level 6 would print about 820 MB of JSON; the level alone decides
        def spy(lvl):
            raise AssertionError(f"operator_family({lvl}) was called")

        monkeypatch.setattr(cli, "operator_family", spy)
        assert main(["op", "gen", "--level", str(level)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: a level-{level} family as JSON is above the 256 MiB cap\n"
        assert captured.out == ""

    def test_level_five_passes_the_document_cap(self, monkeypatch, capsys):
        # level 5 (about 51 MB) still prints; a level-1 family stands in
        built = []

        def spy(level):
            built.append(level)
            return operator_family(1)

        monkeypatch.setattr(cli, "operator_family", spy)
        assert main(["op", "gen", "--level", "5"]) == 0
        assert built == [5]
        assert json.loads(capsys.readouterr().out)["kind"] == "operator_set"


class TestAnalysisCommands:
    def test_capacity_default_sender(self, state_file, capsys):
        assert main(["capacity", "--state", state_file("cluster4")]) == 0
        text = capsys.readouterr().out
        assert "cut: {1,3} | {2,4}" in text
        assert "spectrum: 0.250000000 x4" in text
        assert "teleport capacity: 2 qubit(s)" in text

    def test_capacity_explicit_sender(self, state_file, capsys):
        assert main(
            ["capacity", "--state", state_file("cluster4"), "--sender", "1,2"]
        ) == 0
        text = capsys.readouterr().out
        assert "cut: {1,2} | {3,4}" in text
        assert "teleport capacity: 1 qubit(s)" in text

    @pytest.mark.parametrize(
        "sender,cut",
        [(None, "{1,3,5,7,9,11,13} | {2,4,6,8,10,12}"), ("1,4,9", "{1,4,9} | {2,3,5,6,7,8,10,11,12,13}")],
    )
    def test_capacity_above_twelve_qubits(self, state_file, capsys, sender, cut):
        args = ["capacity", "--state", state_file("ghz:13")]
        assert main(args + (["--sender", sender] if sender else [])) == 0
        assert capsys.readouterr().out == (
            f"qubits: 13\ncut: {cut}\nspectrum: 0.500000000 x2\nteleport capacity: 1 qubit(s)\n"
        )

    def test_sdc_counts(self, state_file, capsys):
        assert main(["sdc", "--state", state_file("cluster4")]) == 0
        text = capsys.readouterr().out
        assert "sender: {1,3}" in text
        assert "messages: 16 (log2 = 4)" in text
        encodings = text.split("encodings (base-4 digits): ")[1].split()
        assert len(encodings) == 16
        assert encodings[0] == "00" and encodings[-1] == "33"

    def test_teleport_table(self, state_file, capsys):
        assert main(
            [
                "teleport",
                "--resource", state_file("cluster5"),
                "--payload-qubits", "2",
                "--seed", "3",
            ]
        ) == 0
        text = capsys.readouterr().out
        assert "cut {1,3,5} | {2,4}" in text
        assert "total probability: 1.000000000" in text
        assert "minimum fidelity: 1.000000000" in text
        rows = [l for l in text.splitlines() if l.strip() and l.lstrip()[0].isdigit()]
        assert len(rows) == 16

    def test_teleport_stdout_matches_baseline(self, state_file, capsys):
        printed = []
        for spec, n_payload, seed in TELEPORT_RUNS:
            resource = state_file(spec)
            argv = ["teleport", "--resource", resource, "--payload-qubits", str(n_payload)]
            assert main([*argv, "--seed", str(seed)]) == 0
            printed.append(capsys.readouterr().out)
        assert "".join(printed).encode("utf-8") == TELEPORT_BASELINE.read_bytes()

    def test_teleport_rejects_overload(self, state_file, capsys):
        assert main(
            [
                "teleport",
                "--resource", state_file("ghz:4", "g4.json"),
                "--payload-qubits", "2",
            ]
        ) == 1
        assert "supports teleporting" in capsys.readouterr().err

    def test_tmes_verdicts(self, state_file, capsys):
        assert main(["tmes", "--state", state_file("cluster5")]) == 0
        text = capsys.readouterr().out
        assert "maximal for both tasks: yes" in text
        assert "best teleport payload: 2 qubit(s) (threshold 2)" in text
        assert "best message count: 32 (threshold 32)" in text
        assert "witness cut: {1,2,3} | {4,5}" in text

        assert main(["tmes", "--state", state_file("hs", "hs.json")]) == 0
        text = capsys.readouterr().out
        assert "maximal for both tasks: no" in text
        assert "witness cut" not in text

    def test_obstruct(self, state_file, capsys):
        src = state_file("bell_product:2", "src.json")
        tgt = state_file("ghz:4", "tgt.json")
        assert main(
            ["obstruct", "--source", src, "--target", tgt, "--subset", "1,3"]
        ) == 0
        text = capsys.readouterr().out
        assert "obstructed: yes" in text
        assert "cut {1,3} | {2,4}" in text

        same = state_file("cluster4", "same.json")
        assert main(
            ["obstruct", "--source", same, "--target", same, "--subset", "1,3"]
        ) == 0
        assert "obstructed: no" in capsys.readouterr().out

    def test_oversized_sender_exits_one(self, state_file, capsys):
        # a 7-qubit sender would need a 16384 x 16384 xor gather (2 GiB)
        argv = ["sdc", "--state", state_file("bell_product:4"), "--sender", "1,2,3,4,5,6,7"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: senders are capped at 6 qubits: (1, 2, 3, 4, 5, 6, 7)\n"
        )

    def test_obstruct_refuses_oversized_states(self, tmp_path, capsys):
        amps = np.zeros(2**13)
        amps[0] = 1.0
        path = str(tmp_path / "big.json")
        save_state(PureState(13, amps), path)
        argv = ["obstruct", "--source", path, "--target", path, "--subset", "1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: bipartition enumeration is capped at 12 qubits, got 13\n"
        )

    def test_bad_sender_list(self, state_file, capsys):
        assert main(
            ["capacity", "--state", state_file("cluster4"), "--sender", "1,x"]
        ) == 1

    # A qubit list can only be checked against the loaded state, so a bad
    # one is a runtime error (exit 1), never a usage error (exit 2).
    @pytest.mark.parametrize(
        "value,message",
        [
            ("1,x", "expected a comma-separated qubit list"),
            ("", "expected a comma-separated qubit list"),
            ("1,1", "qubit 1 is repeated"),
            ("9", "out of range 1..4"),
        ],
        ids=["malformed", "empty", "repeated", "out-of-range"],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["sdc", "--state", "{s}", "--sender"],
            ["capacity", "--state", "{s}", "--sender"],
            ["teleport", "--resource", "{s}", "--payload-qubits", "1", "--sender"],
            ["obstruct", "--source", "{s}", "--target", "{s}", "--subset"],
        ],
        ids=["sdc", "capacity", "teleport", "obstruct"],
    )
    def test_bad_qubit_list_exits_one(self, state_file, capsys, command, value, message):
        path = state_file("cluster4")
        argv = [path if a == "{s}" else a for a in command] + [value]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert message in captured.err


    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_bad_payload_size_exits_one(self, state_file, capsys, size):
        argv = ["teleport", "--resource", state_file("bell_product:2"), "--payload-qubits", size]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: a payload size must be an int of at least 1 qubit, got {size}\n"
        )

    def test_negative_seed_exits_one(self, state_file, capsys):
        argv = ["teleport", "--resource", state_file("bell_product:2"), "--payload-qubits", "1"]
        assert main(argv + ["--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be a non-negative int, got -1\n"


class TestVerifyCommand:
    def test_subset_run_with_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "--claims", "bell-catalog,teleport-bell,family-rank-level-3",
                "--report", str(report),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "2 passed, 0 failed, 1 recorded" in text
        assert "bell-catalog" in text
        doc = json.loads(report.read_text())
        assert doc["kind"] == "claim_suite_report"
        assert doc["summary"] == {"pass": 2, "fail": 0, "recorded": 1}
        assert [c["claim_id"] for c in doc["claims"]] == [
            "bell-catalog",
            "family-rank-level-3",
            "teleport-bell",
        ]

    def test_unknown_claim_id(self, capsys):
        assert main(["verify", "--claims", "made-up"]) == 1
        assert "unknown claim ids" in capsys.readouterr().err

    def test_unknown_claim_ids_are_quoted(self, capsys):
        # Only ASCII whitespace is stripped from an id, so a no-break space
        # stays in it; the quotes show that it is part of the refused id.
        assert main(["verify", "--claims", "bell-catalog,\u00a0spectra-ghz"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown claim ids: '\\xa0spectra-ghz'\n"

    def test_empty_claim_selection(self, capsys):
        # An empty --claims is a selection of nothing, not the default of all.
        for claims in (",", ""):
            assert main(["verify", "--claims", claims]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: the claim selection is empty\n"


    def test_negative_seed_exits_one(self, capsys):
        assert main(["verify", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be a non-negative int, got -1\n"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["state"],
            ["state", "build"],
            ["capacity"],
            ["op", "gen"],
            ["teleport", "--resource", "x.json"],
            ["frobnicate"],
        ],
    )
    def test_exit_code_two(self, argv, capsys):
        assert main(argv) == 2
        capsys.readouterr()

    # --seed belongs to teleport and verify; a command that would ignore the
    # flag refuses it as a usage error.  No command takes --tol: every one
    # decides at ATOL.
    @pytest.mark.parametrize(
        "argv",
        [
            ["state", "build", "bell", "--tol", "5"],
            ["state", "build", "bell", "--seed", "9"],
            ["capacity", "--state", "s.json", "--tol", "1e-9"],
            ["capacity", "--state", "s.json", "--seed", "1"],
            ["op", "gen", "--level", "1", "--seed", "1"],
            ["sdc", "--state", "s.json", "--seed", "1"],
            ["teleport", "--resource", "s.json", "--payload-qubits", "1", "--tol", "0.1"],
            ["state", "show", "s.json", "--tol", "1e-9"],
            ["op", "gen", "--level", "1", "--tol", "1e-9"],
            ["sdc", "--state", "s.json", "--tol", "1e-9"],
            ["tmes", "--state", "s.json", "--tol", "1e-9"],
            ["obstruct", "--source", "s.json", "--target", "s.json", "--subset", "1", "--tol", "1e-9"],
            ["verify", "--tol", "1e-9"],
        ],
    )
    def test_ignored_flag_exits_two(self, argv, capsys):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "capacity" in capsys.readouterr().out
