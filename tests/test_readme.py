"""The README's library tour and command-line block run as written."""

import re
import shlex
from pathlib import Path

from trisys.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first fenced `lang` block after the `## heading` line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_tour_runs():
    exec(_block("Library tour", "python"), {})


def test_command_line_block_runs_in_order(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = [shlex.split(line, comments=True) for line in _block("Command line", "sh").splitlines()]
    assert all(argv[0] == "trisys" for argv in lines)
    for argv in lines:
        code = main(argv[1:])
        assert code == 0, (argv, capsys.readouterr().err)
