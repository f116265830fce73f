"""Print SHA-256 digests of sharedsched's outputs over a fixed seeded corpus.

Equal lines mean equal outputs on every run of the corpus.  The expected
lines are committed in `tools/expected_digest.txt`, which the tier-1 test
`tests/test_output_digest.py` compares with the lines this prints:

    PYTHONPATH=src python tools/output_digest.py

The corpus is seeded random instances with m 1-4 and n 1-10 (m^n at most
4^7), the named examples, the partition gadgets, and full-speed instances
with repeated integer lengths, where the total-time scheme merges states.
Each part gets two lines: one for its outputs, and one, `<part>-counts`,
for the `finish_key` and `GeometricBuckets.index` call counts of each run
made for that part, refused or not, so a change of work shows in the family
that made it.  The parts:

- algorithms: every `cli.ALGORITHMS` entry at epsilon 1/4 and 1/2, under
  each objective it serves: the schedule and the parameters it reports;
- totaltime: `totaltime_scheme` at epsilon 1/4 and 1/2, with `delta` at the
  default, 0 and 1/2: the schedule and every state passed to `on_step`, and
  the schedule of the same call without `on_step`;
- makespan: `makespan_scheme` at each d <= n;
- refusals: the type and message of every refused call, in order; its runs
  are the calls beyond the corpus, made to be refused.  Among them, each
  malformed profile (the interval shapes every entry point refuses, one
  interval with three faults, an interval after an unbounded one) goes
  through `validate_instance`, whose whole report is recorded, `evaluate`
  and every `cli.ALGORITHMS` entry; so does each assignment that holds a
  job index that is not an `int`;
- parsing (no counts line): the value or the refusal of the number parser
  `model._frac_from_str` on each text of a fixed list (plain ASCII `p` and
  `p/q`, sides of 4299 and 4300 digits, signs, spaces, points, exponents,
  underscores, zero denominators and non-ASCII digits), and of
  `instance_from_json` with that text as a job length, as e0 and as a ratio.

The last line is the digest of the part digests.  Standard library only;
it takes no flags.  A `Digest` counts the kernel calls only while it is
open as a context manager, so its parts can also run inside another
process, which gets the library's own functions back when it closes.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction as F

from sharedsched import cli, generators, heuristics, oracle, schemes
from sharedsched.generators import RandomSpec, named_example, random_instance
from sharedsched.model import (
    Instance,
    MachineProfile,
    Objective,
    SharedInterval,
    _frac_from_str,
    evaluate,
    instance_from_json,
    instance_to_json,
    validate_instance,
)

# every module that imports the kernel calls it through its own name
KERNEL_USERS = (heuristics, oracle, schemes)
PARTS = ("algorithms", "totaltime", "makespan", "refusals")
EPSILONS = (F(1, 4), F(1, 2))
DELTAS = (None, F(0), F(1, 2))
NINES = "9" * 4300
NUMBER_TEXTS = (
    "0", "007/010", "6/8", "1/0", "0/0", "+3", "-3/4", "3/-4", " 3", "3/ 4",
    "1_000", "1.5", "1e3", "²", "٣", "３/4",
    *(side for k in (4299, 4300) for side in (NINES[:k], NINES[:k] + "/7", "7/" + NINES[:k])),
)


class Counted:
    """Counts the calls of a function it stands in for."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


class Digest:
    """The running digest of each part and of its runs' counts, over every run recorded.

    A context manager: it counts the kernel calls of the library modules
    while it is open, and puts their own functions back when it closes."""

    def __init__(self):
        names = [*PARTS, *(f"{part}-counts" for part in PARTS), "parsing"]
        self.parts = {name: hashlib.sha256() for name in names}
        self.runs = 0
        self.finish_key = Counted(oracle.finish_key)
        self.index = Counted(schemes.GeometricBuckets.index)

    def __enter__(self) -> "Digest":
        self.originals = [(module, "finish_key", module.finish_key) for module in KERNEL_USERS]
        self.originals.append((schemes.GeometricBuckets, "index", schemes.GeometricBuckets.index))
        for module in KERNEL_USERS:
            module.finish_key = self.finish_key
        # a plain function, so that it binds as a method
        index = self.index
        schemes.GeometricBuckets.index = lambda buckets, num, den: index(buckets, num, den)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, name, original in self.originals:
            setattr(owner, name, original)

    def record(self, part: str, *values) -> None:
        self.parts[part].update(repr(values).encode("utf-8") + b"\n")

    def run(self, part: str, label: str, call, *args, **kwargs):
        """Call, then record the result in `part` (or the refusal) and the counts in its counts.

        A ValueError or OracleLimitError is a refusal; any other exception
        fails the tool.
        """
        self.runs += 1
        self.finish_key.calls = self.index.calls = 0
        try:
            result = call(*args, **kwargs)
        except (ValueError, oracle.OracleLimitError) as exc:
            self.record("refusals", label, type(exc).__name__, str(exc))
            result = None
        self.record(f"{part}-counts", label, self.finish_key.calls, self.index.calls)
        return result


def parsed(call, *args):
    """The call's result, or the type and message of its ValueError."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def record_parsing(digest: Digest) -> None:
    """The number parser, alone and inside `instance_from_json`, on every text."""
    base = instance_to_json(named_example("lptect_322"))
    for text in NUMBER_TEXTS:
        digest.record("parsing", text, parsed(_frac_from_str, text, "x"))
        for slot in ("job", "e0", "ratio"):
            payload = json.loads(base)
            if slot == "job":
                payload["jobs"][0] = text
            elif slot == "e0":
                payload["e0"] = text
            else:
                payload["machines"][1]["intervals"][0]["ratio"] = text
            digest.record("parsing", text, slot, parsed(instance_from_json, json.dumps(payload)))


def schedule_of(schedule) -> tuple:
    return schedule.assignment, schedule.completions


def corpus() -> list[tuple[str, Instance]]:
    instances = []
    for m in range(1, 5):
        for n in range(1, 11):
            if m**n > 4**7:
                continue
            for seed in range(2):
                # m1 = m and m - 1; at m >= 3 also m1 = 1, which the total-time
                # scheme refuses
                for m1 in sorted({m, max(1, m - 1), 1 if m >= 3 else m}):
                    e0 = (F(1, 4), F(1, 2), F(1))[(m + n + seed) % 3]
                    spec = RandomSpec(n=n, m=m, m1=m1, e0=e0, seed=100 * m + 10 * n + seed)
                    instances.append((f"random {spec}", random_instance(spec)))
    for name in generators.NAMED_EXAMPLES:
        instances.append((f"named {name}", named_example(name)))
    for a in ([1, 1], [3, 1, 2], [2, 2, 3, 1], [1, 2, 3, 4, 2]):
        for f in (2, 3):
            for kind, gadget in (
                ("makespan", generators.partition_gadget_makespan),
                ("totaltime", generators.partition_gadget_totaltime),
            ):
                instances.append((f"partition-{kind} {a} {f}", gadget(a, f)))
    rng = random.Random(18)
    full = MachineProfile(intervals=())
    for k in range(20):
        m = 2 + k % 3
        n = rng.randint(3, {2: 9, 3: 7, 4: 6}[m])
        jobs = tuple(F(rng.randint(1, 3)) for _ in range(n))
        inst = Instance(machines=(full,) * m, jobs=jobs, m1=m, e0=F(1))
        instances.append((f"full-speed m={m} {jobs}", inst))
    return instances


def malformed() -> list[tuple[str, Instance]]:
    """One instance per malformed profile: each shape as the second of two
    machines, under three jobs of total length 4, so every entry point reads
    it; one interval with three faults; and an interval after an unbounded
    one, which lies past the total job work."""

    def profile(intervals) -> MachineProfile:
        return MachineProfile(
            tuple(SharedInterval(F(a), None if b is None else F(b), F(r)) for a, b, r in intervals)
        )

    shapes = {
        "gap": [(0, 1, F(1, 2)), (2, 3, F(1, 2))],
        "empty": [(0, 1, 1), (1, 1, 1)],
        "reversed": [(0, 2, 1), (2, 1, 1)],
        "zero-tail": [(0, 1, 1), (1, None, 0)],
        "ratio-2": [(0, 1, 2)],
        "tail-above-1": [(0, 1, 1), (1, None, F(3, 2))],
        "negative": [(0, 1, F(-1, 2))],
    }
    full = MachineProfile(intervals=())
    instances = [
        (f"malformed {name}", Instance((full, profile(ivs)), (F(2), F(1), F(1)), 1, F(1, 2)))
        for name, ivs in shapes.items()
    ]
    three = profile([(0, 1, 1), (2, 1, 2)])
    instances.append(("malformed three-faults", Instance((three,), (F(1),), 1, F(1, 2))))
    after = profile([(0, None, F(1, 2)), (5, 6, 1)])
    instances.append(("malformed after-unbounded", Instance((after,), (F(5),), 1, F(1, 2))))
    return instances


def run_algorithms(digest: Digest, part: str, label: str, inst: Instance) -> None:
    """Every `cli.ALGORITHMS` entry on `inst`, under each objective it serves."""
    for name, alg in cli.ALGORITHMS.items():
        objectives = [alg.objective] if alg.objective else list(Objective)
        # the heuristics and the oracle take no epsilon, and compare lists them without one
        epsilons = (None,) if alg.listed(inst.m, inst.m1, None) else EPSILONS
        for objective in objectives:
            for eps in epsilons:
                key = f"{label} {name} {objective.value} {eps}"
                out = digest.run(part, key, alg.run, inst, objective, eps, None)
                if out is not None:
                    digest.record(part, key, schedule_of(out[0]), out[1])


def record_corpus(digest: Digest) -> None:
    """Every part but parsing: the corpus, then the refusals beyond it."""
    run, record = digest.run, digest.record
    for label, inst in corpus():
        run_algorithms(digest, "algorithms", label, inst)
        for eps in EPSILONS:
            for delta in DELTAS:
                key = f"{label} totaltime {eps} {delta}"
                steps: list = []
                out = run(
                    "totaltime", key, schemes.totaltime_scheme, inst, eps,
                    delta=delta, on_step=lambda *step: steps.append(step),
                )
                record("totaltime", key, out and schedule_of(out), steps)
                key += " no on_step"
                out = run("totaltime", key, schemes.totaltime_scheme, inst, eps, delta=delta)
                record("totaltime", key, out and schedule_of(out))
        for d in range(inst.n + 1):
            key = f"{label} makespan d={d}"
            out = run("makespan", key, schemes.makespan_scheme, inst, d)
            record("makespan", key, out and schedule_of(out))
    # refusals beyond the corpus: grids too fine, a d past n or the
    # ceiling, an oracle past max_n, and bad epsilon and delta values
    lptect = named_example("lptect_322")
    run("refusals", "totaltime 1/10^4", schemes.totaltime_scheme, lptect, F(1, 10**4))
    gadget = generators.partition_gadget_totaltime([5, 3, 2, 4, 1, 1], 3)
    run("refusals", "totaltime gadget", schemes.totaltime_scheme, gadget, F(1, 2))
    run("refusals", "makespan d=4", schemes.makespan_scheme, lptect, 4)
    run("refusals", "makespan d=True", schemes.makespan_scheme, lptect, True)
    big = random_instance(RandomSpec(n=11, m=4, m1=4, e0=F(1, 2), seed=0))
    run("refusals", "makespan 4^11", schemes.makespan_scheme, big, 11)
    run("refusals", "oracle max_n", oracle.exact_optimal, big, Objective.MAKESPAN, 10)
    for eps in (F(0), F(1), F(-1, 2)):
        run("refusals", f"totaltime eps={eps}", schemes.totaltime_scheme, lptect, eps)
    run("refusals", "delta<0", schemes.totaltime_scheme, lptect, F(1, 2), delta=F(-1, 100))
    for label, inst in malformed():
        record("refusals", label, validate_instance(inst))
        assignment = [list(range(inst.n))] + [[] for _ in inst.machines[1:]]
        run("refusals", f"{label} evaluate", evaluate, inst, assignment)
        run_algorithms(digest, "refusals", label, inst)
    for index in (True, 1.0, "1"):
        run("refusals", f"evaluate index {index!r}", evaluate, lptect, [[0, 1, index], []])


def main() -> int:
    with Digest() as digest:
        record_corpus(digest)
        record_parsing(digest)
    total = hashlib.sha256()
    for part, sha in digest.parts.items():
        total.update(sha.hexdigest().encode("ascii"))
        print(f"{part:<17} {sha.hexdigest()}")
    print(f"{'runs':<17} {digest.runs}")
    print(f"{'total':<17} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
