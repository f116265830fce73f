"""Run one workload in this process and print its raw result as one JSON line.

    python3 perfbench/worker.py --workload pool --seed 1 --seconds 20 --trace 0

`run.py` starts this in a fresh process with `src` on the path; run it
directly only for debugging.  With `--trace 0` it sets up three times, makes
passes over the workload's instances, with no tracing, for `--seconds`, then
sets up twice more.  Every time is scaled to the machine's speed on a fixed
reference (see reference.py); it reports the median set-up and, for every
instance and every call, the median of its passes.  With `--trace 1` it runs
each instance of a fixed, seeded list untraced and then traced, so the
per-layer counts repeat exactly and the difference in wall time is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import json
import math
import os
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from reference import reference_s, scale
from tracer import Tracer
from workloads import WORKLOADS, Item, build_instance, load_expected, sha256

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
SETUPS_BEFORE, SETUPS_AFTER = 3, 2
MIN_PASSES = 2
REFERENCE_EVERY_S = 0.25
MAX_REPORTED_PROBLEMS = 10


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, where: str, problems: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < MAX_REPORTED_PROBLEMS:
            self.problems.append(f"{where}: {'; '.join(problems)}")


def import_library():
    """Import the package afresh, so every set-up pays the import."""
    for name in [name for name in sys.modules if name == "sharedsched" or name.startswith("sharedsched.")]:
        del sys.modules[name]
    importlib.import_module("sharedsched.cli")  # the package itself does not import its CLI
    return sys.modules["sharedsched"]


def prepare(lib, wl, entries, expected, workdir: Path, tally: Tally) -> list[Item]:
    """Generate, serialise, check and parse back each instance; write files where the workload reads them."""
    items = []
    for entry in entries:
        text = lib.model.instance_to_json(build_instance(lib, entry))
        tally.attempted += 1
        if expected is not None and sha256(text) != expected.get(entry.key, {}).get("instance"):
            tally.fail(entry.key, ["generated instance differs from the recorded one"])
        item = Item(entry, lib.model.instance_from_json(text), text)
        if wl.write_files:
            item.path = workdir / f"{sha256(entry.key)[:16]}.json"
            item.path.write_text(text, encoding="utf-8")
        items.append(item)
    return items


def process(lib, wl, item: Item, expected, tally: Tally, tracer=None, record=None, pace=None) -> dict:
    """Run every operation of the workload on one instance and check each output.

    Returns the start and end time of each algorithm call, by operation
    name; `pace`, if given, is called before each operation.  An operation fails when it raises, exits non-zero, breaks a check, or
    differs from the recorded output.  With `expected=None` the outputs are
    collected into `record` instead of compared.
    """
    done: dict = {}
    durations = {}
    want = expected.get(item.entry.key, {}).get("ops", {}) if expected is not None else None
    for op in wl.ops(lib, item):
        if pace is not None:
            pace()
        tally.attempted += 1
        start = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an operation that raises is a failed operation
            elapsed = perf_counter() - start
            problems, outcome = [f"raised {exc!r}"], None
        else:
            elapsed = perf_counter() - start
            with tracer.paused() if tracer is not None else contextlib.nullcontext():
                try:
                    outcome, problems = wl.outcome(lib, item, op, result, done)
                except Exception as exc:  # malformed output
                    outcome, problems = None, [f"checking raised {exc!r}"]
        if op.solve:
            durations[op.name] = (start, start + elapsed)
        if want is not None and outcome != want.get(op.name):
            problems = problems + [f"output {outcome} differs from the recorded {want.get(op.name)}"]
        if record is not None:
            record[op.name] = outcome
        if problems:
            tally.fail(f"{item.entry.key} {op.name}", problems)
    return durations


def setup(wl, seed, expected, workdir, tally):
    """Import, generate and write the whole plan, then warm up on one small instance."""
    started = perf_counter()
    lib = import_library()
    items = prepare(lib, wl, wl.plan(seed), expected, workdir, tally)
    warm_up(lib, wl, expected, workdir, tally)
    return lib, items, perf_counter() - started


def warm_up(lib, wl, expected, workdir, tally) -> None:
    process(lib, wl, prepare(lib, wl, [wl.warm_entry()], expected, workdir, tally)[0], expected, tally)


class Pace:
    """The reference, timed between operations once REFERENCE_EVERY_S has passed since the last one."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.seconds: list[float] = []
        self.spent = 0.0  # wall seconds spent in the reference

    def __call__(self, force: bool = False) -> None:
        if force or not self.ends or perf_counter() - self.ends[-1] >= REFERENCE_EVERY_S:
            start = perf_counter()
            self.seconds.append(reference_s())
            self.starts.append(start)
            self.ends.append(perf_counter())
            self.spent += self.ends[-1] - start

    def factor(self, start: float, end: float) -> float:
        """Scale for work done from `start` to `end`: by the references just before and after it and any in between."""
        first = bisect.bisect_right(self.ends, start) - 1
        last = bisect.bisect_left(self.starts, end)
        return scale(*self.seconds[first : last + 1])


def scaled_setup(wl, seed, expected, workdir, tally):
    before = reference_s()
    lib, items, took = setup(wl, seed, expected, workdir, tally)
    return lib, items, took * scale(before, reference_s())


def timed_run(wl, seed: int, seconds: float, expected, workdir: Path) -> dict:
    tally = Tally()
    setups = []
    for _ in range(SETUPS_BEFORE):
        lib, items, took = scaled_setup(wl, seed, expected, workdir, tally)
        setups.append(took)
    # Whole passes over the same instances, each checked every time.  The
    # reference runs before the first operation, between operations once
    # REFERENCE_EVERY_S has passed since it last ran, and at the end of each
    # pass; a call is scaled by the references around it, an instance by
    # those around and within it, whose own time it leaves out.  A pass
    # starts only if the fastest pass so far would end by the deadline.
    pace = Pace()
    work = []  # (instance index, start, end, seconds of work, call intervals by operation)
    passes, fastest_pass = 0, math.inf
    start = perf_counter()
    deadline = start + seconds
    while passes < MIN_PASSES or perf_counter() + fastest_pass <= deadline:
        pass_start = perf_counter()
        pace()
        for i, item in enumerate(items):
            spent, began = pace.spent, perf_counter()
            calls = process(lib, wl, item, expected, tally, pace=pace)
            ended = perf_counter()
            work.append((i, began, ended, ended - began - (pace.spent - spent), calls))
        pace(force=True)
        fastest_pass = min(fastest_pass, perf_counter() - pass_start)
        passes += 1
    wall = perf_counter() - start
    # more set-ups after the timed loop, so that a burst of load on the
    # machine moves fewer of the set-ups whose median is reported
    for _ in range(SETUPS_AFTER):
        setups.append(scaled_setup(wl, seed, expected, workdir, tally)[2])
    item_times = [[] for _ in items]
    call_times: dict = {}
    for i, began, ended, item_s, calls in work:
        item_times[i].append(item_s * pace.factor(began, ended))
        for op, (call_start, call_end) in calls.items():
            call_times.setdefault((i, op), []).append((call_end - call_start) * pace.factor(call_start, call_end))
    samples = sorted(statistics.median(times) for times in call_times.values())
    n = len(samples)
    # the highest percentile that leaves ten samples beyond it; a pass always
    # makes the same calls, so it is the same percentile in every run
    tail = max(n - 11, 0)
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "metrics": {
            "instances_per_s": len(items) / math.fsum(statistics.median(times) for times in item_times),
            "solve_p50_ms": statistics.median(samples) * 1000,
            "solve_tail_ms": samples[tail] * 1000,
            "setup_s": statistics.median(setups),
        },
        "notes": {
            "instances": len(items),
            "passes": passes,
            "timed_s": wall,
            "solve_samples": n,
            "solve_tail_percentile": 100 * (tail + 1) / n,
            "setup_runs": len(setups),
        },
    }


def traced_run(wl, seed: int, expected, workdir: Path, limit=None, spans_path=None) -> dict:
    """Run the fixed trace list untraced and traced, instance by instance; return per-layer metrics.

    Each instance runs untraced, then traced, so the overhead compares the
    two under the same load on the machine.  The traced part includes the
    instance's set-up (generation, serialisation, parsing).
    """
    tally = Tally()
    lib = import_library()
    entries = wl.trace_list(seed)[:limit]
    items = prepare(lib, wl, entries, expected, workdir, tally)
    warm_up(lib, wl, expected, workdir, tally)
    tracer = Tracer()
    untraced = traced = 0.0
    for entry, item in zip(entries, items):
        start = perf_counter()
        process(lib, wl, item, expected, tally)
        untraced += perf_counter() - start
        tracer.install(lib)
        try:
            item = prepare(lib, wl, [entry], expected, workdir, tally)[0]
            start = perf_counter()
            process(lib, wl, item, expected, tally, tracer)
            traced += perf_counter() - start
        finally:
            tracer.uninstall()
    if spans_path is not None:
        tracer.write_spans(spans_path)
    metrics = tracer.layer_stats()
    metrics["trace.overhead_pct"] = 100 * (traced / untraced - 1)
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "metrics": metrics,
        "notes": {"instances": len(items), "untraced_s": untraced, "traced_s": traced, "spans": len(tracer.span_start)},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, help="traced run: only the first LIMIT instances of its list")
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    expected = load_expected(wl.name)["entries"]
    workdir = WORK_ROOT / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            spans = WORK_ROOT / f"spans-{wl.name}.tsv.gz"
            result = traced_run(wl, args.seed, expected, workdir, args.limit, spans)
            result["notes"]["spans_file"] = str(spans.relative_to(ROOT))
        else:
            result = timed_run(wl, args.seed, args.seconds, expected, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
