"""Exact placement search shared by the oracle and the approximation schemes.

The jobs on one machine form a set, written as a bitmask.  `SubsetTable`
holds each set's values per machine, computed once however many placements
contain the set; `best_placement` walks every placement of a job list over
the machines and reads the table at each leaf.  `best_makespan` is the one
makespan search: the oracle runs it on every job with no tail, and
`makespan_scheme` on the longest jobs with a greedy tail.  Each caller
checks its own size limits before it searches.

Every value the table holds is a whole multiple of one instance-wide
1/scale, so it holds each value times the scale, as an integer key, on the
integer view that `capacity.scale_instance` builds; the searches compare
and sum keys only.
`SubsetTable.order` is the table's bit order, shortest first; the oracle's
total-time minimizer and the total-time scheme run each machine's jobs in
that order.  The schedules they report are `model.evaluate`'s.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .capacity import finish_key, scale_instance
from .heuristics import OrderRule, ect_placement, job_order
from .model import Instance, Schedule, _schedule_of

__all__ = ["SubsetTable", "best_placement", "best_makespan"]


class SubsetTable:
    """Load, finish time and shortest-first completion-time sum of job sets, per machine.

    Bit b of a mask stands for the b-th job in shortest-first order (equal
    lengths by index), so a set's highest bit is the job it runs last.  An
    entry is made on first use from the set without that job, at one
    `finish_key` call, so filling a machine's table costs at most 2^n of them.
    Entries are (load, finish, cost), each times `scale`, as integers.
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
    m: int, bits: Sequence[int], value: Callable[[list[int]], int]
) -> tuple[tuple[int, ...], int]:
    """Minimize `value` over all m^k placements of k jobs, given by their bits, on m machines.

    `value` receives the per-machine masks of one placement (a list the walk
    goes on to change).  Placements run in lexicographic order of the machine
    vector, first job most significant and machine index ascending, and only
    strict improvements are kept, so the first minimizer in that order wins.
    Returns the minimizer's machine vector and the number of placements.
    """
    k = len(bits)
    choice = [0] * k
    masks = [0] * m
    masks[0] = sum(bits)
    best, best_choice, leaves = value(masks), tuple(choice), 1
    last = m - 1
    while True:
        # odometer step: trailing jobs on the last machine go back to machine
        # 0, and the job before them moves one machine up
        t = k - 1
        while t >= 0 and choice[t] == last:
            choice[t] = 0
            masks[last] ^= bits[t]
            masks[0] |= bits[t]
            t -= 1
        if t < 0:
            return best_choice, leaves
        i = choice[t]
        choice[t] = i + 1
        masks[i] ^= bits[t]
        masks[i + 1] |= bits[t]
        leaves += 1
        got = value(masks)
        if got < best:
            best, best_choice = got, tuple(choice)


def best_makespan(
    inst: Instance, subsets: SubsetTable, jobs: Sequence[int], rest: Sequence[int] = ()
) -> tuple[Schedule, int]:
    """The placement of `jobs` whose makespan is least once `rest` follows greedily.

    Every placement of `jobs` is tried, in `best_placement`'s order; the jobs
    of `rest` then go, in list order, to the machine where each finishes
    first (`ect_placement`).  The first placement of least makespan key wins.
    Returns `evaluate`'s schedule, each machine running its jobs in the order
    `jobs` then `rest` lists them, and the number of placements tried.
    """
    get, scaled = subsets.get, subsets.scaled
    sizes = [subsets.sizes[j] for j in rest]

    def finish_rest(masks: list[int], placed: list[int]) -> list[int]:
        # per-machine finish keys after the tail; its machines go onto `placed`
        entries = [get(i, mask) for i, mask in enumerate(masks)]
        loads = [entry[0] for entry in entries]
        finishes = [entry[1] for entry in entries]
        for size in sizes:
            i, finishes[i] = ect_placement(scaled, loads, size)
            loads[i] += size
            placed.append(i)
        return finishes

    if sizes:

        def value(masks: list[int]) -> int:
            return max(finish_rest(masks, []))

    else:

        def value(masks: list[int]) -> int:
            return max([get(i, mask)[1] for i, mask in enumerate(masks)])

    choice, placements = best_placement(inst.m, [subsets.bits[j] for j in jobs], value)
    masks = [0] * inst.m
    for j, i in zip(jobs, choice):
        masks[i] |= subsets.bits[j]
    placed = list(choice)
    finish_rest(masks, placed)
    return _schedule_of(inst, [*jobs, *rest], placed), placements
