"""List scheduling: pick a job order, then place each job greedily.

Two placement rules are supported: earliest start (the machine whose last job
finishes soonest) and earliest completion (the machine where this job would
finish soonest).  Ties always go to the lowest machine index, and equal
processing times keep the lower job index first, so every run is
deterministic.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .capacity import ScaledTable, finish_key, scale_instance
from .model import Instance, Schedule, _rational, _schedule_of

__all__ = [
    "OrderRule",
    "PlacementRule",
    "job_order",
    "list_schedule",
    "ls",
    "lpt",
    "ls_ect",
    "lpt_ect",
    "spt",
    "spt_ect",
    "ect_placement",
    "guarantee_ratio",
]


class OrderRule(Enum):
    INPUT = "input"
    LPT = "lpt"
    SPT = "spt"


class PlacementRule(Enum):
    EARLIEST_START = "earliest-start"
    EARLIEST_COMPLETION = "earliest-completion"


def job_order(jobs: Sequence[Fraction | int], rule: OrderRule) -> list[int]:
    """Job indices in list order; equal processing times keep index order.

    The lengths may be `Fraction`s or their integer keys over one scale
    (`capacity.scale_instance`), which sort the same and faster.
    """
    order = list(range(len(jobs)))
    # the sort is stable, also in reverse, so equal lengths stay in index order
    if rule is OrderRule.LPT:
        order.sort(key=jobs.__getitem__, reverse=True)
    elif rule is OrderRule.SPT:
        order.sort(key=jobs.__getitem__)
    return order


def ect_placement(tables: Sequence[ScaledTable], loads: Sequence[int], p: int) -> tuple[int, int]:
    """Machine (and resulting completion) where a job of length p finishes first.

    Tables, loads, p and the completion are all over one common scale (see
    `capacity.common_scale`); ties go to the lowest machine index.
    """
    best_i = 0
    best_c = finish_key(tables[0], loads[0] + p)
    for i in range(1, len(tables)):
        c = finish_key(tables[i], loads[i] + p)
        if c < best_c:
            best_i, best_c = i, c
    return best_i, best_c


def list_schedule(inst: Instance, order: OrderRule, placement: PlacementRule) -> Schedule:
    """Greedy schedule for the given order and placement rule.

    Placements are decided on exact integer keys over a common scale; the
    schedule returned is `evaluate`'s.
    """
    _, sizes, scaled = scale_instance(inst)
    m = inst.m
    loads = [0] * m
    finishes = [0] * m
    jobs = job_order(sizes, order)
    placed = []
    for j in jobs:
        p = sizes[j]
        if placement is PlacementRule.EARLIEST_START:
            i = min(range(m), key=finishes.__getitem__)
            c = finish_key(scaled[i], loads[i] + p)
        else:
            i, c = ect_placement(scaled, loads, p)
        placed.append(i)
        loads[i] += p
        finishes[i] = c
    return _schedule_of(inst, jobs, placed)


def ls(inst: Instance) -> Schedule:
    return list_schedule(inst, OrderRule.INPUT, PlacementRule.EARLIEST_START)


def lpt(inst: Instance) -> Schedule:
    return list_schedule(inst, OrderRule.LPT, PlacementRule.EARLIEST_START)


def ls_ect(inst: Instance) -> Schedule:
    return list_schedule(inst, OrderRule.INPUT, PlacementRule.EARLIEST_COMPLETION)


def lpt_ect(inst: Instance) -> Schedule:
    return list_schedule(inst, OrderRule.LPT, PlacementRule.EARLIEST_COMPLETION)


def spt(inst: Instance) -> Schedule:
    return list_schedule(inst, OrderRule.SPT, PlacementRule.EARLIEST_START)


def spt_ect(inst: Instance) -> Schedule:
    return list_schedule(inst, OrderRule.SPT, PlacementRule.EARLIEST_COMPLETION)


def _check_shares(m: int, m1: int, e0: Fraction) -> Fraction:
    """e0 as a rational; ValueError unless it lies in (0, 1] and m1 in [1, m]."""
    e0 = _rational(e0, "e0")
    if not (0 < e0 <= 1):
        raise ValueError(f"e0={e0} is outside (0, 1]")
    if not (1 <= m1 <= m):
        raise ValueError(f"m1={m1} is outside [1, {m}]")
    return e0


def guarantee_ratio(
    algorithm: str,
    *,
    n: int,
    m: int,
    m1: int,
    e0: Fraction,
    epsilon: Optional[Fraction] = None,
) -> Optional[Fraction]:
    """Proven worst-case ratio to the optimum, or None when no bound applies.

    For the earliest-start rules a bound only exists when every machine keeps
    at least an e0 share (m1 = m).  SPT alone has no bound at all: its ratio
    grows without limit as the unguarded machine's share shrinks.  Refuses
    n < 1, an m1 outside [1, m] and an e0 outside (0, 1] with ValueError.
    """
    if n < 1:
        raise ValueError(f"n={n} must be at least 1")
    e0 = _check_shares(m, m1, e0)
    if algorithm in ("ls", "lpt"):
        return 1 + 1 / e0 if m1 == m else None
    if algorithm == "ls-ect":
        if m1 >= m - 1:
            return 1 + 1 / e0
        return 1 + ((m - 1) // m1 + 1) / e0
    if algorithm == "lpt-ect":
        bound = 1 + ((m - 1) // m1 + Fraction(m, n)) / e0
        if m1 >= m - 1:
            bound = min(bound, 1 + Fraction(m, n) / e0)
        return bound
    if algorithm == "spt":
        return None
    if algorithm == "spt-ect":
        return Fraction(math.ceil(Fraction(m, m1))) / e0
    if algorithm in ("scheme-makespan", "scheme-totaltime"):
        return None if epsilon is None else 1 + _rational(epsilon, "epsilon")
    if algorithm == "oracle":
        return Fraction(1)
    raise ValueError(f"unknown algorithm {algorithm!r}")
