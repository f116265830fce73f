"""Exhaustive exact solvers for desk-scale instances.

These enumerate every assignment of jobs to machines, so they are usable as
ground truth in tests and experiments but nothing larger.  The search is
`search.best_placement`, the makespan scheme's own.  Within a machine the
makespan runs its jobs in index order and the completion-time sum shortest
first; the tests back the latter with a check of every order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .capacity import scale_instance
from .heuristics import OrderRule, job_order
from .model import Instance, Objective, Schedule, _schedule_of, objective_value
from .search import best_placement

__all__ = [
    "OracleLimitError",
    "OracleResult",
    "exact_optimal",
]

DEFAULT_MAX_N = 10
DEFAULT_MAX_M = 4


class OracleLimitError(Exception):
    """Instance exceeds the enumeration size limits."""


@dataclass(frozen=True)
class OracleResult:
    best: Schedule
    objective_value: Fraction
    states_explored: int


def exact_optimal(
    inst: Instance, objective: Objective, max_n: int = DEFAULT_MAX_N
) -> OracleResult:
    """Optimal value over all m^n assignments, with a deterministic minimizer.

    Both objectives run `search.best_placement`'s depth-first walk over the
    jobs, so the reported minimizer is the lexicographically smallest machine
    vector in job index order.  Each job set's finish key on each machine is
    computed once, so a call makes at most m*2^n `finish_key` calls for its
    m^n leaves.  The schedule and value reported are `evaluate`'s for the
    minimizer, each machine running its jobs in index order for the makespan
    and shortest first for the completion-time sum.  `objective` may be an
    `Objective` or its value, such as "makespan".
    """
    objective = Objective(objective)
    n, m = inst.n, inst.m
    if n > max_n or m > DEFAULT_MAX_M:
        raise OracleLimitError(
            f"instance size n={n}, m={m} exceeds oracle limits n<={max_n}, m<={DEFAULT_MAX_M}"
        )
    _, sizes, scaled = scale_instance(inst)
    placed, leaves = best_placement(sizes, scaled, range(n), objective)
    rule = OrderRule.INPUT if objective is Objective.MAKESPAN else OrderRule.SPT
    order = job_order(sizes, rule)
    best = _schedule_of(inst, order, [placed[j] for j in order])
    return OracleResult(
        best=best, objective_value=objective_value(best, objective), states_explored=leaves
    )
