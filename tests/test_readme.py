"""README's library quickstart and CLI example run as written and print what README shows."""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

from sharedsched.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs_and_prints_its_values():
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md (Library quickstart)", "exec"), {})
    # each print line ends in a comment with the value it prints
    commented = [line.rsplit("#", 1)[1].strip() for line in block.splitlines() if "print(" in line]
    assert out.getvalue().split() == commented == ["5", "4", "29/3"]


def test_cli_example_prints_the_report_shown(capsys, monkeypatch):
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    shown = json.loads(block[block.index("{") : block.rindex("}") + 1])
    assert main(["gadget", "named", "lptect_322"]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(capsys.readouterr().out))
    assert main(["solve", "-", "--alg", "lpt-ect", "--obj", "makespan"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == set(shown)
    del report["wall_time_s"], shown["wall_time_s"]
    assert report == shown
