"""The benchmark's workloads: seeded instance catalogues, algorithm mixes and output checks.

Every workload draws its instances from a fixed catalogue of random-instance
specs, so that the output for each (instance, operation) pair can be
recorded once in ``expected/<workload>.json`` and compared on every run.  The
seed only chooses which catalogue variant fills each cell of a pass; the
cells themselves, and their order, are fixed, so every run measures the same
mix of sizes whatever the seed.

This module imports nothing from the library: the worker imports the package
during set-up (which is timed) and passes it in as ``lib``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

HEURISTICS = ("ls", "lpt", "ls-ect", "lpt-ect", "spt", "spt-ect")
# the objective each heuristic targets, as in `sharedsched compare`
HEURISTIC_OBJECTIVE = {name: "totaltime" if name.startswith("spt") else "makespan" for name in HEURISTICS}
EPSILONS = (Fraction(1, 4), Fraction(1, 2))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def assignment_digest(assignment) -> str:
    """Short digest of a 0-based assignment; identical assignments only."""
    return sha256(json.dumps([list(seq) for seq in assignment], separators=(",", ":")))[:16]


@dataclass(frozen=True)
class Entry:
    """One catalogue instance: a cell of the workload and one variant of it."""

    key: str
    spec: dict  # keyword arguments of sharedsched.RandomSpec
    job_order: Optional[str] = None  # seeds a shuffle of the generated jobs; None keeps them


def build_instance(lib, entry: Entry):
    """Generate an entry's instance with the library, then put its jobs in the entry's order."""
    inst = lib.generators.random_instance(lib.generators.RandomSpec(**dict(entry.spec, e0=Fraction(entry.spec["e0"]))))
    if entry.job_order is None:
        return inst
    jobs = list(inst.jobs)
    random.Random(entry.job_order).shuffle(jobs)
    return dataclasses.replace(inst, jobs=tuple(jobs))


@dataclass
class Item:
    """A catalogue instance prepared during set-up."""

    entry: Entry
    inst: Any  # sharedsched.Instance, parsed back from its serialised form
    text: str  # instance_to_json output
    path: Optional[Path] = None  # instance file, for workloads that read files


@dataclass(frozen=True)
class Op:
    """One operation on one instance.

    `solve` marks an algorithm call, whose duration is a latency sample; the
    other operations (instance emission) count toward attempted and failed
    but not toward latency.
    """

    name: str
    objective: Optional[str]
    solve: bool
    call: Callable[[], Any]


class Workload:
    name = ""
    variants = 3  # catalogue variants per cell
    # Variants of a cell are the same generated instance with its jobs in
    # another order, rather than another generated instance: the same work
    # for every seed, so the seed cannot move the figures.
    reorder_jobs = False
    write_files = False
    trace_items = 0  # instances in the traced run's fixed list (0: the whole pass)

    def cells(self) -> list[tuple[str, dict]]:
        raise NotImplementedError

    def entries(self) -> list[Entry]:
        """The whole catalogue, in cell order then variant order."""
        return [self._entry(cell, base, v) for cell, base in self.cells() for v in range(self.variants)]

    def _entry(self, cell: str, base: dict, variant: int) -> Entry:
        spec = dict(base, **self.vary(base, variant))
        key = f"{cell}#{variant}"
        if self.reorder_jobs:
            spec["seed"] = int(sha256(f"{self.name}/{cell}")[:8], 16)
            return Entry(key=key, spec=spec, job_order=f"{self.name}/{key}")
        spec["seed"] = int(sha256(f"{self.name}/{key}")[:8], 16)
        return Entry(key=key, spec=spec)

    def vary(self, base: dict, variant: int) -> dict:
        return {}

    def plan(self, seed: int) -> list[Entry]:
        """The instances of one pass for a seed: every cell once, in cell order; the seed picks each cell's variant."""
        rng = random.Random(f"{self.name}:{seed}")
        return [self._entry(cell, base, rng.randrange(self.variants)) for cell, base in self.cells()]

    def warm_entry(self) -> Entry:
        """The same small instance for every seed, so that warm-up costs the same in every run."""
        cell, base = min(self.cells(), key=lambda cell: (cell[1]["m"], cell[1]["n"]))
        return self._entry(cell, base, 0)

    def trace_list(self, seed: int) -> list[Entry]:
        entries = self.plan(seed)
        return entries[: self.trace_items] if self.trace_items else entries

    def ops(self, lib, item: Item) -> list[Op]:
        raise NotImplementedError

    def outcome(self, lib, item: Item, op: Op, result, done: dict) -> tuple[list, list[str]]:
        """The recorded form of an operation's output, and the problems found in it.

        `done` maps the names of this instance's earlier operations to their
        objective values, for checks that need another operation's result.
        """
        raise NotImplementedError


def _objective(lib, name: str):
    return lib.model.Objective(name)


class Pool(Workload):
    """Criterion 2's mix: oracle, all heuristics and both schemes on small instances."""

    name = "pool"
    reorder_jobs = True
    trace_items = 45

    def cells(self):
        cells = [
            (f"m={m},m1={m1},e0={e0},n={n}", {"n": n, "m": m, "m1": m1, "e0": str(e0)})
            for m, m1s in ((2, (1, 2)), (3, (1, 2, 3)))
            for m1 in m1s
            for e0 in (Fraction(1, 4), Fraction(1, 2), Fraction(1))
            for n in range(3, 9)
        ]
        # a fixed shuffle, so that any prefix of a pass mixes every size
        random.Random("pool-cell-order").shuffle(cells)
        return cells

    def ops(self, lib, item):
        inst = item.inst
        ops = [
            Op(f"oracle/{obj}", obj, True, lambda obj=obj: lib.oracle.exact_optimal(inst, _objective(lib, obj)))
            for obj in ("makespan", "totaltime")
        ]
        ops += [
            Op(name, HEURISTIC_OBJECTIVE[name], True, lambda fn=name.replace("-", "_"): getattr(lib.heuristics, fn)(inst))
            for name in HEURISTICS
        ]
        ops += [
            Op(
                f"scheme-makespan@{eps}",
                "makespan",
                True,
                lambda eps=eps: lib.schemes.makespan_scheme(
                    inst, lib.schemes.compute_d(inst.m, inst.m1, inst.e0, eps, inst.n)
                ),
            )
            for eps in EPSILONS
        ]
        if inst.m1 >= inst.m - 1:
            ops += [
                Op(f"scheme-totaltime@{eps}", "totaltime", True, lambda eps=eps: lib.schemes.totaltime_scheme(inst, eps))
                for eps in EPSILONS
            ]
        return ops

    def outcome(self, lib, item, op, result, done):
        inst = item.inst
        schedule = result.best if op.name.startswith("oracle/") else result
        value = lib.model.objective_value(schedule, _objective(lib, op.objective))
        done[op.name] = value
        problems = []
        if lib.model.evaluate(inst, schedule.assignment).completions != schedule.completions:
            problems.append("completions differ from model.evaluate on the returned assignment")
        if op.name.startswith("oracle/") and result.objective_value != value:
            problems.append(f"oracle reports {result.objective_value} but its schedule has {value}")
        opt = done[f"oracle/{op.objective}"]
        alg, _, eps = op.name.partition("@")
        alg = "oracle" if alg.startswith("oracle/") else alg
        bound = lib.heuristics.guarantee_ratio(
            alg, n=inst.n, m=inst.m, m1=inst.m1, e0=inst.e0, epsilon=Fraction(eps) if eps else None
        )
        if value < opt:
            problems.append(f"value {value} beats the oracle's {opt}")
        if bound is not None and value > bound * opt:
            problems.append(f"ratio {value / opt} breaks the guarantee {bound}")
        return [str(value), assignment_digest(schedule.assignment)], problems


CLI_BREAKPOINTS = {"min_breakpoints": 20, "max_breakpoints": 40}


class CliLarge(Workload):
    """In-process `sharedsched solve` with every heuristic on large instances, beside `gadget random`."""

    name = "cli-large"
    write_files = True

    def cells(self):
        cells = [
            (f"m={m},n={n}", dict({"n": n, "m": m}, **CLI_BREAKPOINTS))
            for m in (5, 6, 7)
            for n in (700, 850, 1000, 1150, 1300)
        ]
        random.Random("cli-large-cell-order").shuffle(cells)
        return cells

    def vary(self, base, variant):
        return {"m1": base["m"] - variant, "e0": ("1/4", "1/2", "1/4")[variant]}

    def ops(self, lib, item):
        spec = item.entry.spec
        gadget = ["gadget", "random"]
        for key in ("seed", "n", "m", "m1", "e0", "min_breakpoints", "max_breakpoints"):
            gadget += [f"--{key.replace('_', '-')}", str(spec[key])]
        ops = [Op("gadget", None, False, lambda: self._emit(lib, item, gadget))]
        ops += [
            Op(name, obj, True, lambda argv=["solve", str(item.path), "--alg", name, "--obj", obj]: _cli(lib, argv))
            for name, obj in HEURISTIC_OBJECTIVE.items()
        ]
        return ops

    @staticmethod
    def _emit(lib, item, argv):
        code, text = _cli(lib, argv)
        # written beside the instance the solves read
        item.path.with_suffix(".emitted.json").write_text(text, encoding="utf-8")
        return code, text

    def outcome(self, lib, item, op, result, done):
        code, text = result
        if code != 0:
            return [], [f"exit code {code}"]
        if op.name == "gadget":
            digest = sha256(text.rstrip("\n"))
            return [digest], [] if digest == sha256(item.text) else ["emitted instance differs from set-up's"]
        report = json.loads(text)
        assignment = [[j - 1 for j in seq] for seq in report["assignment"]]
        problems = []
        if report["instance_digest"] != sha256(item.text):
            problems.append("instance digest differs from the instance file's")
        again = lib.model.evaluate(item.inst, assignment)
        value = lib.model.objective_value(again, _objective(lib, op.objective))
        if report["value"] != str(value) or report["completions"] != [str(c) for c in again.completions]:
            problems.append("reported value or completions differ from model.evaluate")
        return [report["value"], assignment_digest(assignment)], problems


def _cli(lib, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lib.cli.main(argv)
    return code, out.getvalue()


WORKLOADS = {wl.name: wl for wl in (Pool(), CliLarge())}


def load_expected(name: str) -> dict:
    with open(EXPECTED_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)
