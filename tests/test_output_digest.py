"""`tools/output_digest.py` prints the lines committed in `tools/expected_digest.txt`,
and leaves the library as it found it."""

import importlib.util
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

from sharedsched import (
    Objective,
    capacity,
    cli,
    heuristics,
    instance_to_json,
    named_example,
    oracle,
    schemes,
)
from oracle_checks import reference_instance_json

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "tools" / "expected_digest.txt"


def _expected() -> list[list[str]]:
    """The committed (name, value) lines, in order."""
    lines = EXPECTED.read_text(encoding="utf-8").splitlines()
    return [line.split() for line in lines if line and not line.startswith("#")]


def test_every_output_digest_equals_its_committed_line():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "tools" / "output_digest.py")],
        capture_output=True, text=True, timeout=300, check=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert [line.split() for line in out.stdout.splitlines()] == _expected()


def _tool():
    spec = importlib.util.spec_from_file_location("output_digest", ROOT / "tools" / "output_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_a_digest_run_in_process_puts_the_library_back():
    tool = _tool()
    users = (heuristics, oracle, schemes)
    index = vars(schemes.GeometricBuckets)["index"]
    assert all(module.finish_key is capacity.finish_key for module in users)
    inst = named_example("lptect_322")
    with tool.Digest() as digest:
        assert all(module.finish_key is digest.finish_key for module in users)
        tool.run_algorithms(digest, "algorithms", "lptect_322", inst)
        assert digest.finish_key.calls > 0 and digest.runs > 0
    assert all(module.finish_key is capacity.finish_key for module in users)
    assert vars(schemes.GeometricBuckets)["index"] is index
    # the library's own kernel and buckets are counted no more
    calls = digest.finish_key.calls, digest.index.calls
    cli.ALGORITHMS["scheme-totaltime"].run(inst, Objective.TOTAL_COMPLETION, F(1, 2), None)
    assert (digest.finish_key.calls, digest.index.calls) == calls


def test_every_corpus_instance_serializes_as_json_dumps_writes_it():
    # the named examples and the malformed profiles too
    tool = _tool()
    for label, inst in tool.corpus() + tool.malformed():
        assert instance_to_json(inst) == reference_instance_json(inst), label
