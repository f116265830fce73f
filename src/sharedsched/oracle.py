"""Exhaustive exact solvers for desk-scale instances.

These enumerate every assignment of jobs to machines, so they are usable as
ground truth in tests and experiments but nothing larger.  `best_placement`,
the search the makespan scheme shares, walks the placements of a job list
depth first on `capacity.scale_instance`'s integer keys and computes each job
set's finish key on each machine once.  The oracle walks every placement;
the makespan scheme passes a limit that skips the placements worse than it,
and a tail that each leaf places greedily (`heuristics._place_ect`), kept as
the minimizer placed it.  Each caller checks its own limits first and reports
`evaluate`'s schedule for the placement returned.  Within a machine the
makespan runs its jobs in index order and the completion-time sum shortest
first; the tests back the latter with a check of every order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .capacity import ScaledTable, finish_key
from .heuristics import OrderRule, _place_ect, job_order
from .model import Instance, Objective, Schedule, _schedule_of, objective_value

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

    Both objectives run `best_placement`'s depth-first walk over the jobs,
    so the reported minimizer is the lexicographically smallest machine
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
    _, sizes, scaled = inst._view
    placed, leaves = best_placement(sizes, scaled, range(n), objective)
    rule = OrderRule.INPUT if objective is Objective.MAKESPAN else OrderRule.SPT
    order = job_order(sizes, rule)
    best = _schedule_of(inst, order, [placed[j] for j in order])
    return OracleResult(
        best=best, objective_value=objective_value(best, objective), states_explored=leaves
    )


def best_placement(
    sizes: Sequence[int],
    scaled: Sequence[ScaledTable],
    jobs: Sequence[int],
    objective: Objective,
    rest: Sequence[int] = (),
    limit: Optional[int] = None,
) -> tuple[list[int], int]:
    """The first placement of `jobs` of least objective key, and the number of leaves visited.

    `sizes` and `scaled` are `scale_instance`'s job keys (by job index) and
    scaled tables.  One iterative depth-first walk over the m^k placements
    of the k jobs, each job trying the machines in ascending index order.
    The minimizer reported is the first in lexicographic order of the
    machine vector, the first job of `jobs` most significant.  A node looks
    up the finish key of the one set that gains its job, from the load the
    walk carries, and carries the aggregate down the path:
    - the makespan walk takes the jobs in list order and keeps strict
      improvements only.  Its aggregate is the larger of the parent's and
      the new finish key; that is exact because no set's finish key drops
      when a job is added, as job lengths are nonnegative.  At each leaf the
      jobs of `rest` then go, in list order, to the machine where each
      finishes first (`_place_ect`), from the loads the walk holds.
      With an integer `limit`, a leaf counts only when its value, tail
      included, is at most `limit`, which then drops to one below that
      value, and a node whose aggregate passes `limit` is skipped with all
      its leaves.  The aggregate never drops down a path and the tail only
      adds jobs, so the first minimizer is kept whenever its value is at
      most the `limit` given; when no leaf is, ValueError is raised.
      Without a limit every leaf is visited.
    - the total-time walk takes the jobs shortest first, equal lengths in
      list order (`job_order(..., OrderRule.SPT)`), so each adds the job its
      set runs last, and its aggregate is the parent's plus the new finish
      key, the job's completion time.  A tie keeps the lexicographically
      smaller vector.
    The total-time walk takes no `rest` and no `limit`, and refuses either
    (ValueError) before any work.  The last job walked tries the
    machines in one loop at its parent node: each child within `limit` is a
    leaf, valued and scored there, so no leaf takes a step down or back.
    With no job walked, the one leaf is the tail alone.  Returns one machine
    per job of `jobs` and then of `rest`, the tail as the minimizer's leaf
    placed it, and the number of leaves visited: m^k without a limit.
    """
    total = objective is not Objective.MAKESPAN
    if total and (rest or limit is not None):
        raise ValueError("the total-time walk takes no rest and no limit")
    k = len(jobs)
    # walk[t] is the position in `jobs` of the t-th job walked, and at[p] the reverse
    walk = job_order([sizes[j] for j in jobs], OrderRule.SPT) if total else range(k)
    at = [0] * k
    for t, p in enumerate(walk):
        at[p] = t
    walked = [sizes[jobs[p]] for p in walk]
    # the t-th job walked is bit k-1-t, so the jobs walked deepest, which change
    # most often, vary the low bits that a dict slot is picked by
    bits = [1 << (k - 1 - t) for t in range(k)]
    tail = [sizes[j] for j in rest]
    m = len(scaled)
    # each machine's finish key of every set reached
    finishes = [{0: 0} for _ in scaled]
    masks, loads = [0] * m, [0] * m
    path = [0] * (k + 1)  # the aggregate over the first t jobs walked
    choice = [0] * k
    # a leaf counts when its value is at most `bound`, which then drops to one
    # below it: keys are integers, so only strict improvements count after it
    prune = limit is not None
    bound = math.inf if limit is None else limit
    best_choice, leaves = None, 0
    tail_placed: list[int] = []  # the machines `rest` took at the leaf last valued
    last = m - 1
    t = i = 0
    if not k:  # no job walked: one leaf, the tail alone
        t, leaves = -1, 1
        tail_placed, value = _place_ect(scaled, loads[:], tail)
        if value <= bound:
            best_choice = tail_placed
    while t >= 0:
        # down: job t onto machine i, then each later job but the last onto
        # machine 0, until a child passes the bound and is taken back as a
        # leaf would be
        while t < k - 1:
            mask = masks[i] | bits[t]
            load = loads[i] + walked[t]
            finish = finishes[i].get(mask)
            if finish is None:
                finish = finishes[i][mask] = finish_key(scaled[i], load)
            value = path[t]
            if total:
                value += finish
            elif finish > value:
                value = finish
            masks[i], loads[i] = mask, load
            choice[t] = i
            t += 1
            path[t] = value
            i = 0
            if prune and value > bound:
                break
        else:
            # the last job onto each machine in turn, each child within the
            # bound a leaf; none is placed, so none is taken back
            bit, size, above = bits[t], walked[t], path[t]
            for i in range(m):
                mask = masks[i] | bit
                finish = finishes[i].get(mask)
                if finish is None:
                    finish = finishes[i][mask] = finish_key(scaled[i], loads[i] + size)
                value = above
                if total:
                    value += finish
                elif finish > value:
                    value = finish
                if prune and value > bound:
                    continue
                leaves += 1
                choice[t] = i
                if tail:
                    held = loads[:]
                    held[i] += size
                    tail_placed, finish = _place_ect(scaled, held, tail)
                    value = max(value, finish)
                if value <= bound:
                    bound, best_choice = value - 1, [choice[t] for t in at] + tail_placed
                elif total and value == bound + 1:
                    best_choice = min(best_choice, [choice[t] for t in at])
        # up: take back the jobs on the last machine, then the one before them
        t -= 1
        while t >= 0:
            i = choice[t]
            masks[i] ^= bits[t]
            loads[i] -= walked[t]
            if i < last:
                i += 1
                break
            t -= 1
    if best_choice is None:
        raise ValueError(f"no placement has a makespan key of at most {limit}")
    return best_choice, leaves
