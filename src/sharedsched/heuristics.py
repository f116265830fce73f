"""List scheduling: pick a job order, then place each job greedily.

Two placement rules are supported: earliest start (the machine whose last job
finishes soonest) and earliest completion (the machine where this job would
finish soonest).  Ties always go to the lowest machine index, and equal
processing times keep the lower job index first, so every run is
deterministic.  `_place_ect` is the one earliest-completion loop, which the
makespan scheme's limit and each of its placements' greedy tails run too.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .capacity import ScaledTable, finish_key
from .model import Instance, Schedule, _check_epsilon, _check_shares, _schedule_of

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
    (`capacity.scale_instance`), which sort the same and faster.  `rule` may
    be an `OrderRule` or its value, such as "lpt".
    """
    rule = OrderRule(rule)
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
    `capacity.scale_instance`); ties go to the lowest machine index.
    """
    best_i = 0
    best_c = finish_key(tables[0], loads[0] + p)
    for i in range(1, len(tables)):
        c = finish_key(tables[i], loads[i] + p)
        if c < best_c:
            best_i, best_c = i, c
    return best_i, best_c


def _place_ect(
    tables: Sequence[ScaledTable], loads: list[int], lengths: Sequence[int]
) -> tuple[list[int], int]:
    """Each of `lengths` in turn onto the machine where it finishes first.

    Updates `loads`; returns each length's machine and the largest finish key (0 if none)."""
    placed, top = [], 0
    for p in lengths:
        i, finish = ect_placement(tables, loads, p)
        loads[i] += p
        placed.append(i)
        top = max(top, finish)
    return placed, top


def list_schedule(inst: Instance, order: OrderRule, placement: PlacementRule) -> Schedule:
    """Greedy schedule for the given order and placement rule.

    Placements are decided on exact integer keys over a common scale; the
    schedule returned is `evaluate`'s.  Each rule may be given as its enum
    member or its value, such as "earliest-completion".
    """
    order, placement = OrderRule(order), PlacementRule(placement)
    _, sizes, scaled = inst._view
    m = inst.m
    jobs = job_order(sizes, order)
    if placement is PlacementRule.EARLIEST_COMPLETION:
        placed, _ = _place_ect(scaled, [0] * m, [sizes[j] for j in jobs])
    else:
        loads, finishes, placed = [0] * m, [0] * m, []
        for j in jobs:
            i = min(range(m), key=finishes.__getitem__)
            loads[i] += sizes[j]
            finishes[i] = finish_key(scaled[i], loads[i])
            placed.append(i)
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
    n < 1, an m1 outside [1, m], an e0 outside (0, 1] and, for the schemes,
    an epsilon outside (0, 1) with ValueError.

    The LS-ECT bound may not be tight: at m=3, m1=1 the `lsect_tight`
    family's ratio tends to 1 + 2/e0 (5 at e0=1/2), while this gives
    1 + 3/e0 (7).  Only the paper's statement of the bound could say which.
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
        return None if epsilon is None else 1 + _check_epsilon(epsilon)
    if algorithm == "oracle":
        return Fraction(1)
    raise ValueError(f"unknown algorithm {algorithm!r}")
