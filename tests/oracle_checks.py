"""Reference checks the tests compare the library against.

`verify_spt_within_machine` backs the oracle's shortest-first order within a
machine by trying every order; `check_claim2_bound` compares optimal
completion-time sums on full-speed machines in closed form;
`exact_bucket_index` finds a geometric bucket index by exact powers alone;
`reference_list_schedule` is the list scheduler placing every job by
`Fraction` finish times; `work_at` is the inverse of `finish_time`,
`segment_finish_time` is `finish_time`'s segment formula in `Fraction`
steps, with no integer cross-products and no tail shortcut,
`reference_evaluate` is `evaluate` on `Fraction` prefix sums, whole tables
and `segment_finish_time`, and `reference_instance_json` is
`instance_to_json` as `json.dumps` of a payload object.
"""

import json
import math
import sys
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, permutations
from typing import Sequence

from sharedsched import (
    CapacityTable,
    Instance,
    OracleLimitError,
    OrderRule,
    PlacementRule,
    Schedule,
    build_capacity_table,
    evaluate,
    finish_time,
)


def work_at(table: CapacityTable, t) -> Fraction:
    """Total work a never-idle machine completes by time `t`; the exact inverse
    of `finish_time` for nonnegative work."""
    t = Fraction(t)
    if t < 0:
        raise ValueError("time must be nonnegative")
    bps = table.breakpoints
    if t <= bps[-1]:
        k = bisect_left(bps, t)
        if k == 0:
            return table.cum_work[0]
        return table.cum_work[k - 1] + table.rates[k - 1] * (t - bps[k - 1])
    return table.cum_work[-1] + table.rates[-1] * (t - bps[-1])


def segment_finish_time(table: CapacityTable, work) -> Fraction:
    """`finish_time` as ``bp + (work - cum) / rate`` on the segment holding
    `work`, by the same rule: the leftmost segment reaching it, so a work on
    a breakpoint resolves to the earlier time."""
    work = Fraction(work)
    if work < 0:
        raise ValueError("work must be nonnegative")
    cum = table.cum_work
    if work <= cum[-1]:
        k = bisect_left(cum, work)
        if k == 0:
            return table.breakpoints[0]
        return table.breakpoints[k - 1] + (work - cum[k - 1]) / table.rates[k - 1]
    return table.breakpoints[-1] + (work - cum[-1]) / table.rates[-1]


def reference_evaluate(inst: Instance, assignment: Sequence[Sequence[int]]) -> Schedule:
    """`evaluate` one `Fraction` step at a time: each machine's whole table,
    its jobs' `Fraction` prefix sums, a `segment_finish_time` per job, and
    the makespan and total over every completion.  It does not check the
    assignment, and refuses a malformed profile or a negative load as
    `evaluate` does, machine by machine."""
    completions = [Fraction(0)] * len(inst.jobs)
    for i, (mp, seq) in enumerate(zip(inst.machines, assignment), start=1):
        table = build_capacity_table(mp, i)
        prefix = Fraction(0)
        for j in seq:
            prefix += inst.jobs[j]
            completions[j] = segment_finish_time(table, prefix)
    return Schedule(
        assignment=tuple(tuple(seq) for seq in assignment),
        completions=tuple(completions),
        makespan=max(completions, default=Fraction(0)),
        total_completion=sum(completions, Fraction(0)),
    )


def verify_spt_within_machine(inst: Instance, max_n: int = 8) -> bool:
    """Check that shortest-first is the best within-machine order everywhere.

    Runs every job subset on every machine in every order and compares its
    completion-time sum against the shortest-first order.  Returns False (and
    prints the counterexample to stderr) on a violation.
    """
    n = inst.n
    if n > max_n:
        raise OracleLimitError(f"n={n} exceeds permutation check limit {max_n}")
    for i, mp in enumerate(inst.machines):
        table = build_capacity_table(mp)

        def order_sum(seq) -> Fraction:
            prefix = Fraction(0)
            total = Fraction(0)
            for j in seq:
                prefix += inst.jobs[j]
                total += finish_time(table, prefix)
            return total

        for size in range(2, n + 1):
            for subset in combinations(range(n), size):
                spt_seq = sorted(subset, key=lambda j: (inst.jobs[j], j))
                spt_sum = order_sum(spt_seq)
                for perm in permutations(subset):
                    if order_sum(perm) < spt_sum:
                        print(
                            f"shortest-first beaten on machine {i + 1}: "
                            f"order {perm} undercuts {tuple(spt_seq)}",
                            file=sys.stderr,
                        )
                        return False
    return True


def _spt_sum_full_speed(jobs_ascending: Sequence[Fraction], machines: int) -> Fraction:
    # classical optimum on identical full-speed machines: the j-th shortest of
    # n jobs is waited on by ceil((n-j+1)/machines) jobs including itself
    n = len(jobs_ascending)
    total = Fraction(0)
    for j0, p in enumerate(jobs_ascending):
        total += math.ceil(Fraction(n - j0, machines)) * p
    return total


def check_claim2_bound(jobs: Sequence[Fraction], m1: int, m: int) -> bool:
    """On full-speed machines, dropping from m to m1 machines costs at most ceil(m/m1).

    Compares the optimal completion-time sums directly.
    """
    if not (1 <= m1 <= m):
        raise ValueError(f"m1={m1} is outside [1, {m}]")
    ascending = sorted(Fraction(p) for p in jobs)
    opt_m1 = _spt_sum_full_speed(ascending, m1)
    opt_m = _spt_sum_full_speed(ascending, m)
    return opt_m1 <= math.ceil(Fraction(m, m1)) * opt_m


def exact_bucket_index(delta: Fraction, value: Fraction) -> int:
    """The x with q^x <= value < q^(x+1), q = 1 + delta, for a positive value.

    The float estimate only picks where to start; exact integer comparisons
    against powers of q decide, with no shortcut.
    """
    q = 1 + Fraction(delta)
    qn, qd = q.numerator, q.denominator
    num, den = value.numerator, value.denominator

    def at_least(x: int) -> bool:  # value >= q^x
        if x >= 0:
            return num * qd**x >= den * qn**x
        return num * qn**-x >= den * qd**-x

    x = math.floor((math.log(num) - math.log(den)) / (math.log(qn) - math.log(qd)))
    while not at_least(x):
        x -= 1
    while at_least(x + 1):
        x += 1
    return x


def reference_job_order(jobs: Sequence[Fraction], rule: OrderRule) -> list[int]:
    """Job indices in list order; equal processing times keep index order."""
    order = list(range(len(jobs)))
    if rule is OrderRule.LPT:
        order.sort(key=lambda j: (-jobs[j], j))
    elif rule is OrderRule.SPT:
        order.sort(key=lambda j: (jobs[j], j))
    return order


def reference_ect_placement(tables, loads: Sequence[Fraction], p: Fraction) -> tuple[int, Fraction]:
    """Machine (and resulting completion) where a job of length p finishes first."""
    best_i = 0
    best_c = finish_time(tables[0], loads[0] + p)
    for i in range(1, len(tables)):
        c = finish_time(tables[i], loads[i] + p)
        if c < best_c:
            best_i, best_c = i, c
    return best_i, best_c


def reference_list_schedule(inst: Instance, order: OrderRule, placement: PlacementRule) -> Schedule:
    """Greedy schedule for the given order and placement rule, decided on Fractions."""
    m = inst.m
    if m == 0:
        raise ValueError("instance has no machines")
    tables = [build_capacity_table(mp) for mp in inst.machines]
    loads = [Fraction(0)] * m
    finishes = [Fraction(0)] * m
    assignment: list[list[int]] = [[] for _ in range(m)]
    for j in reference_job_order(inst.jobs, order):
        p = inst.jobs[j]
        if placement is PlacementRule.EARLIEST_START:
            i = min(range(m), key=lambda k: finishes[k])
            c = finish_time(tables[i], loads[i] + p)
        else:
            i, c = reference_ect_placement(tables, loads, p)
        assignment[i].append(j)
        loads[i] += p
        finishes[i] = c
    return evaluate(inst, assignment)


def reference_instance_json(inst: Instance) -> str:
    """The instance as `json.dumps(..., indent=2)` writes its fields, each
    number as its `str`."""
    payload = {
        "machines": [
            {
                "intervals": [
                    {
                        "start": str(iv.start),
                        "end": "inf" if iv.end is None else str(iv.end),
                        "ratio": str(iv.ratio),
                    }
                    for iv in mp.intervals
                ]
            }
            for mp in inst.machines
        ],
        "jobs": [str(p) for p in inst.jobs],
        "m1": inst.m1,
        "e0": str(inst.e0),
    }
    return json.dumps(payload, indent=2)
