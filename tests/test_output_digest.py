"""`tools/output_digest.py` prints the lines committed in `tools/expected_digest.txt`."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "tools" / "expected_digest.txt"


def _expected(version: str) -> list[list[str]]:
    """The committed (name, value) lines that hold on Python `version`, in order."""
    lines = []
    for line in EXPECTED.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            name, value, *versions = line.split()
            if not versions or version in versions:
                lines.append([name, value])
    return lines


def test_every_output_digest_equals_its_committed_line():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "tools" / "output_digest.py")],
        capture_output=True, text=True, timeout=300, check=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    version = f"{sys.version_info.major}.{sys.version_info.minor}"
    assert [line.split() for line in out.stdout.splitlines()] == _expected(version)
