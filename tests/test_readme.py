"""README's library quickstart runs as written and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

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
