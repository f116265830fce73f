"""Exhaustive exact solvers for desk-scale instances.

These enumerate every assignment of jobs to machines, so they are usable as
ground truth in tests and experiments but nothing larger.  Within a machine
the completion-time-sum objective always runs its jobs shortest first; the
permutation check below exists to back that assumption.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Optional, Sequence

from .capacity import build_capacity_table, finish_time
from .heuristics import OrderRule, job_order
from .model import Instance, Objective, Schedule
from .search import OracleLimitError, SubsetTable, best_placement

__all__ = [
    "OracleLimitError",
    "OracleResult",
    "exact_optimal",
    "verify_spt_within_machine",
    "check_claim2_bound",
]

DEFAULT_MAX_N = 10
DEFAULT_MAX_M = 4


@dataclass(frozen=True)
class OracleResult:
    best: Schedule
    objective_value: Fraction
    states_explored: int


def _resolved_max_n(max_n: Optional[int]) -> int:
    if max_n is not None:
        return max_n
    env = os.environ.get("SCHED_ORACLE_MAX_N")
    if not env:
        return DEFAULT_MAX_N
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"SCHED_ORACLE_MAX_N={env!r} is not an integer") from None


def exact_optimal(
    inst: Instance,
    objective: Objective,
    max_n: Optional[int] = None,
    max_m: Optional[int] = None,
) -> OracleResult:
    """Optimal value over all m^n assignments, with a deterministic minimizer.

    Assignments are explored with the machine index ascending per job and the
    jobs in index order, and only strict improvements are kept, so the
    reported minimizer is the lexicographically smallest one.  Each job set's
    value on each machine is computed once, so a call makes at most m*2^n
    `finish_time` calls for its m^n leaves.
    """
    max_n = _resolved_max_n(max_n)
    max_m = DEFAULT_MAX_M if max_m is None else max_m
    n, m = inst.n, inst.m
    if n > max_n or m > max_m:
        raise OracleLimitError(
            f"instance size n={n}, m={m} exceeds oracle limits n<={max_n}, m<={max_m}"
        )
    if m == 0:
        raise ValueError("instance has no machines")
    subsets = SubsetTable(inst)
    get = subsets.get
    if objective is Objective.MAKESPAN:

        def value(masks: list[int]) -> Fraction:
            return max([get(i, mask)[1] for i, mask in enumerate(masks)])

    else:

        def value(masks: list[int]) -> Fraction:
            costs = [get(i, mask)[2] for i, mask in enumerate(masks)]
            return sum(costs[1:], costs[0])

    best_val, best_vec, leaves = best_placement(m, subsets.bits, value)
    assignment: list[list[int]] = [[] for _ in range(m)]
    if objective is Objective.MAKESPAN:
        for j, i in enumerate(best_vec):
            assignment[i].append(j)
    else:
        for j in job_order(inst.jobs, OrderRule.SPT):
            assignment[best_vec[j]].append(j)
    return OracleResult(
        best=subsets.schedule(assignment), objective_value=best_val, states_explored=leaves
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
