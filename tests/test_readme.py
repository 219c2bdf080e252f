"""The README's quick-start code and command lines run as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from sepcode.cli import EXIT_INTERNAL, EXIT_PARSE, EXIT_USAGE, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.DOTALL | re.MULTILINE)


def _sepcode_commands() -> list[list[str]]:
    """Every ``sepcode`` line of the sh blocks, continuations joined and comments dropped."""
    commands = []
    for lang, body in BLOCKS:
        if lang != "sh":
            continue
        for line in body.replace("\\\n", " ").splitlines():
            tokens = shlex.split(line, comments=True)
            if tokens[:1] == ["sepcode"]:
                commands.append(tokens[1:])
    return commands


def test_python_quick_start_runs(tmp_path, monkeypatch) -> None:
    sources = [body for lang, body in BLOCKS if lang == "python"]
    assert sources
    monkeypatch.chdir(tmp_path)
    for source in sources:
        exec(compile(source, "README.md", "exec"), {})


def test_command_lines_run(tmp_path, monkeypatch, capsys) -> None:
    commands = _sepcode_commands()
    assert len(commands) >= 5
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        rc = main(argv)
        assert rc not in (EXIT_USAGE, EXIT_PARSE, EXIT_INTERNAL), (argv, capsys.readouterr().err)
