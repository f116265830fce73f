"""Print SHA-256 digests of sharedsched's outputs over a fixed seeded corpus.

Run it once with each checkout's package on the path and compare the lines;
equal totals mean equal outputs on every run of the corpus:

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
  default, 0 and 1/2: the schedule and every state passed to `on_step`;
- makespan: `makespan_scheme` at each d <= n;
- refusals: the type and message of every refused call, in order; its runs
  are the calls beyond the corpus, made to be refused.

The last line is the digest of the part digests.  Standard library only;
it takes no flags.
"""

from __future__ import annotations

import hashlib
import random
import sys
from fractions import Fraction as F

from sharedsched import cli, generators, heuristics, oracle, schemes
from sharedsched.generators import RandomSpec, named_example, random_instance
from sharedsched.model import Instance, MachineProfile, Objective

PARTS = ("algorithms", "totaltime", "makespan", "refusals")
EPSILONS = (F(1, 4), F(1, 2))
DELTAS = (None, F(0), F(1, 2))


class Counted:
    """Counts the calls of a function it stands in for."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


class Digest:
    """The running digest of each part and of its runs' counts, over every run recorded."""

    def __init__(self):
        names = [*PARTS, *(f"{part}-counts" for part in PARTS)]
        self.parts = {name: hashlib.sha256() for name in names}
        self.runs = 0
        # every module that imports the kernel calls it through its own name
        self.finish_key = Counted(oracle.finish_key)
        for module in (heuristics, oracle, schemes):
            module.finish_key = self.finish_key
        # a plain function, so that it binds as a method
        index = self.index = Counted(schemes.GeometricBuckets.index)
        schemes.GeometricBuckets.index = lambda buckets, num, den: index(buckets, num, den)

    def record(self, part: str, *values) -> None:
        self.parts[part].update(repr(values).encode("utf-8") + b"\n")

    def run(self, part: str, label: str, call, *args, **kwargs):
        """Call, then record the result in `part` (or the refusal) and the counts in its counts."""
        self.runs += 1
        self.finish_key.calls = self.index.calls = 0
        try:
            result = call(*args, **kwargs)
        except (ValueError, oracle.OracleLimitError) as exc:
            self.record("refusals", label, type(exc).__name__, str(exc))
            result = None
        self.record(f"{part}-counts", label, self.finish_key.calls, self.index.calls)
        return result


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


def main() -> int:
    digest = Digest()
    run, record = digest.run, digest.record
    for label, inst in corpus():
        for name, alg in cli.ALGORITHMS.items():
            objectives = [alg.objective] if alg.objective else list(Objective)
            # the heuristics and the oracle take no epsilon, and compare lists them without one
            epsilons = (None,) if alg.listed(inst.m, inst.m1, None) else EPSILONS
            for objective in objectives:
                for eps in epsilons:
                    key = f"{label} {name} {objective.value} {eps}"
                    out = run("algorithms", key, alg.run, inst, objective, eps, None)
                    if out is not None:
                        record("algorithms", key, schedule_of(out[0]), out[1])
        for eps in EPSILONS:
            for delta in DELTAS:
                key = f"{label} totaltime {eps} {delta}"
                steps: list = []
                out = run(
                    "totaltime", key, schemes.totaltime_scheme, inst, eps,
                    delta=delta, on_step=lambda *step: steps.append(step),
                )
                record("totaltime", key, out and schedule_of(out), steps)
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

    total = hashlib.sha256()
    for part, sha in digest.parts.items():
        total.update(sha.hexdigest().encode("ascii"))
        print(f"{part:<17} {sha.hexdigest()}")
    print(f"{'runs':<17} {digest.runs}")
    print(f"{'total':<17} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
