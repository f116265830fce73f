"""Exact placement search shared by the oracle and the approximation schemes.

The jobs on one machine form a set, written as a bitmask.  `SubsetTable`
holds each set's keys per machine, computed once however many placements
contain the set.  `best_placement` walks every placement of a job list over
the machines depth first, one job per level.  Each node looks up the key of
the one machine that takes its job and carries the objective down the path:
the makespan as a running max, exact because job lengths are nonnegative,
and the total time as a running sum.  No leaf reads the table.
`best_makespan` is the one makespan search: the oracle runs it on every job
with no tail, and `makespan_scheme` on the longest jobs with a greedy tail;
the oracle's total-time search is the same walk.  Each caller checks its
own size limits before it searches.

Every value the table holds is a whole multiple of one instance-wide
1/scale, so it holds each value times the scale, as an integer key, on the
integer view that `capacity.scale_instance` builds; the searches compare
and sum keys only.
`SubsetTable.order` is the table's bit order, shortest first; the oracle's
total-time minimizer and the total-time scheme run each machine's jobs in
that order.  The schedules they report are `model.evaluate`'s.
"""

from __future__ import annotations

from typing import Sequence

from .capacity import finish_key, scale_instance
from .heuristics import OrderRule, ect_placement, job_order
from .model import Instance, Objective, Schedule, _schedule_of

__all__ = ["SubsetTable", "best_placement", "best_makespan"]


class SubsetTable:
    """Load, finish time and shortest-first completion-time sum of job sets, per machine.

    Bit b of a mask stands for the b-th job in shortest-first order (equal
    lengths by index), so a set's highest bit is the job it runs last.  An
    entry of `get` is made on first use from the set without that job, at
    one `finish_key` call.  `best_placement` keeps finish keys alone, filled
    at one `finish_key` call each from the load it carries, whichever job of
    the set it adds last.  So filling either costs at most 2^n calls per
    machine.  Every key is a value times `scale`, as an integer.
    `order` lists the job indices in bit order, `bits` each job's bit and
    `sizes` each job's length times `scale`, both by job index.
    """

    def __init__(self, inst: Instance):
        self.scale, self.sizes, self.scaled = scale_instance(inst)
        self.order = job_order(self.sizes, OrderRule.SPT)
        self.bits = [0] * inst.n
        for b, j in enumerate(self.order):
            self.bits[j] = 1 << b
        self._entries = [{0: (0, 0, 0)} for _ in inst.machines]
        self._finishes = [{0: 0} for _ in inst.machines]

    def get(self, i: int, mask: int) -> tuple[int, int, int]:
        """(load, finish time, shortest-first completion-time sum) of set `mask` on
        machine i, each times `scale`."""
        entries = self._entries[i]
        got = entries.get(mask)
        if got is not None:
            return got
        missing = []
        while got is None:
            missing.append(mask)
            mask ^= 1 << (mask.bit_length() - 1)
            got = entries.get(mask)
        scaled = self.scaled[i]
        for mask in reversed(missing):
            load, _, cost = got
            load += self.sizes[self.order[mask.bit_length() - 1]]
            finish = finish_key(scaled, load)
            got = entries[mask] = (load, finish, cost + finish)
        return got


def best_placement(
    subsets: SubsetTable,
    jobs: Sequence[int],
    objective: Objective,
    rest: Sequence[int] = (),
) -> tuple[tuple[int, ...], int]:
    """The first placement of `jobs` of least objective key, and the number of placements.

    One iterative depth-first walk over all m^k placements of the k jobs,
    each job trying the machines in ascending index order.  The minimizer
    reported is the first in lexicographic order of the machine vector, the
    first job of `jobs` most significant.  A node looks up the finish key of
    the one set that gains its job, from the load the walk carries, and
    carries the aggregate down the path:
    - the makespan walk takes the jobs in list order and keeps strict
      improvements only.  Its aggregate is the larger of the parent's and
      the new finish key; that is exact because no set's finish key drops
      when a job is added, as job lengths are nonnegative.  At each leaf the
      jobs of `rest` then go, in list order, to the machine where each
      finishes first (`ect_placement`), from the loads the walk holds.
    - the total-time walk takes the jobs in the table's bit order, so each
      adds the job its set runs last, and its aggregate is the parent's
      plus the new finish key, the job's completion time.  A tie keeps the
      lexicographically smaller vector.
    Returns the minimizer's machine vector, one machine per job of `jobs`,
    and the number of leaves visited.
    """
    total = objective is not Objective.MAKESPAN
    k = len(jobs)
    # walk[t] is the position in `jobs` of the t-th job walked, and at[p] the reverse
    walk = sorted(range(k), key=lambda p: subsets.bits[jobs[p]]) if total else range(k)
    at = [0] * k
    for t, p in enumerate(walk):
        at[p] = t
    bits = [subsets.bits[jobs[p]] for p in walk]
    sizes = [subsets.sizes[jobs[p]] for p in walk]
    tail = [subsets.sizes[j] for j in rest]
    scaled, finishes = subsets.scaled, subsets._finishes
    m = len(scaled)
    masks, loads = [0] * m, [0] * m
    path = [0] * (k + 1)  # the aggregate over the first t jobs walked
    choice = [0] * k
    best, best_choice, leaves = None, (), 0
    last = m - 1
    t = i = 0
    while True:
        # down: job t onto machine i, then each later job onto machine 0
        while t < k:
            mask = masks[i] | bits[t]
            load = loads[i] + sizes[t]
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
        leaves += 1
        value = path[k]
        if tail:
            tail_loads = loads[:]
            for size in tail:
                i, finish = ect_placement(scaled, tail_loads, size)
                tail_loads[i] += size
                if finish > value:
                    value = finish
        if best is None or value < best:
            best, best_choice = value, tuple([choice[t] for t in at])
        elif total and value == best:
            best_choice = min(best_choice, tuple([choice[t] for t in at]))
        # up: take back the jobs on the last machine, then the one before them
        while True:
            t -= 1
            if t < 0:
                return best_choice, leaves
            i = choice[t]
            masks[i] ^= bits[t]
            loads[i] -= sizes[t]
            if i < last:
                i += 1
                break


def best_makespan(
    inst: Instance, subsets: SubsetTable, jobs: Sequence[int], rest: Sequence[int] = ()
) -> tuple[Schedule, int]:
    """The placement of `jobs` whose makespan is least once `rest` follows greedily.

    `best_placement`'s makespan walk, with `rest` as its tail.  Returns
    `evaluate`'s schedule, each machine running its jobs in the order `jobs`
    then `rest` lists them, and the number of placements tried.
    """
    choice, placements = best_placement(subsets, jobs, Objective.MAKESPAN, rest)
    sizes, loads = subsets.sizes, [0] * inst.m
    for j, i in zip(jobs, choice):
        loads[i] += sizes[j]
    placed = list(choice)
    for j in rest:
        i, _ = ect_placement(subsets.scaled, loads, sizes[j])
        loads[i] += sizes[j]
        placed.append(i)
    return _schedule_of(inst, [*jobs, *rest], placed), placements
