"""The README's examples run as written."""

from __future__ import annotations

import shlex
from pathlib import Path

from tmes import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str) -> str:
    """The first fenced block under the README section ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


def test_quick_start_runs(capsys):
    exec(compile(_block("Quick start"), "README quick start", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "True"


def test_command_lines_run_in_order(tmp_path, monkeypatch, capsys):
    # Each line may read what an earlier one wrote, so they run in one
    # directory, in order.
    lines = _block("Command line").splitlines()
    assert lines and all(line.startswith("tmes ") for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)
