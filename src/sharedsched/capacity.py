"""Cumulative-capacity tables for machines that lend only part of their speed.

A machine's availability is a piecewise-constant rate over left-open,
right-closed intervals.  The table below turns that into cumulative work at
each breakpoint, so completion-time queries become a binary search plus one
linear interpolation.

The same queries also run on integers, over one instance-wide scale.
`scale_instance` is the one place that builds an instance's integer view
(the scale, the job lengths as keys, the scaled tables); the list heuristics
and the searches decide on it, while `finish_time` stays the exact
reference with which `model.evaluate` builds every reported schedule.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

if TYPE_CHECKING:
    from .model import Instance, MachineProfile

__all__ = ["CapacityTable", "build_capacity_table", "finish_time", "work_at"]


@dataclass(frozen=True)
class CapacityTable:
    """Breakpoints and cumulative work for one machine.

    ``breakpoints[k]`` is the end of the k-th rate segment (``breakpoints[0]``
    is always 0) and ``cum_work[k]`` is the total work the machine completes
    by that time when never idle.  ``ratios[k]`` is the rate on the segment
    ``(breakpoints[k], breakpoints[k+1]]``.  Past the last breakpoint the
    machine runs at ``tail_ratio``.
    """

    breakpoints: tuple[Fraction, ...]
    cum_work: tuple[Fraction, ...]
    ratios: tuple[Fraction, ...]
    tail_ratio: Fraction


def build_capacity_table(profile: "MachineProfile") -> CapacityTable:
    """Precompute cumulative work at every breakpoint of a machine profile.

    A profile that ends at a finite breakpoint implicitly continues at full
    rate; a profile whose last interval is unbounded contributes its ratio as
    the tail rate instead.
    """
    return _table_up_to(profile, None)


def _table_up_to(profile: "MachineProfile", total: Optional[Fraction]) -> CapacityTable:
    """`build_capacity_table`, stopped at the first breakpoint whose
    cumulative work reaches `total` (if given), the next segment's rate kept
    as the tail: the same finish times for every work up to `total`."""
    breakpoints = [Fraction(0)]
    cum_work = [Fraction(0)]
    ratios: list[Fraction] = []
    tail_ratio = Fraction(1)
    for iv in profile.intervals:
        if iv.end is None or (total is not None and cum_work[-1] >= total):
            tail_ratio = iv.ratio
            break
        breakpoints.append(iv.end)
        cum_work.append(cum_work[-1] + iv.ratio * (iv.end - iv.start))
        ratios.append(iv.ratio)
    return CapacityTable(tuple(breakpoints), tuple(cum_work), tuple(ratios), tail_ratio)


def finish_time(table: CapacityTable, work) -> Fraction:
    """Earliest time by which a never-idle machine completes `work` units.

    Exact inverse of :func:`work_at` for nonnegative work.
    """
    work = Fraction(work)
    if work < 0:
        raise ValueError("work must be nonnegative")
    cum = table.cum_work
    if work <= cum[-1]:
        # leftmost segment reaching the work, so a value landing exactly on a
        # breakpoint resolves to the earlier time
        k = bisect_left(cum, work)
        if k == 0:
            return table.breakpoints[0]
        return table.breakpoints[k - 1] + (work - cum[k - 1]) / table.ratios[k - 1]
    return table.breakpoints[-1] + (work - cum[-1]) / table.tail_ratio


def work_at(table: CapacityTable, t) -> Fraction:
    """Total work a never-idle machine completes by time `t`."""
    t = Fraction(t)
    if t < 0:
        raise ValueError("time must be nonnegative")
    bps = table.breakpoints
    if t <= bps[-1]:
        k = bisect_left(bps, t)
        if k == 0:
            return table.cum_work[0]
        return table.cum_work[k - 1] + table.ratios[k - 1] * (t - bps[k - 1])
    return table.cum_work[-1] + table.tail_ratio * (t - bps[-1])


# The integer kernel.  Over a common scale S, every job length, breakpoint,
# cumulative work and finish time of an instance is a whole number of 1/S
# units, so the heuristics and the searches decide on integers; the
# Fraction kernel above stays the reference and builds reported schedules.


class ScaledTable(NamedTuple):
    """A `CapacityTable` times a scale: breakpoints and cumulative work as
    integers, and each segment's rate as (numerator, denominator), the tail
    last."""

    breakpoints: tuple[int, ...]
    cum_work: tuple[int, ...]
    rate_num: tuple[int, ...]
    rate_den: tuple[int, ...]


def common_scale(jobs: Iterable[Fraction], tables: Sequence[CapacityTable]) -> int:
    """An integer S such that S times any load of `jobs`, any breakpoint,
    cumulative work or finish time of `tables` is an integer.

    S = S0 * lcm(rate numerators), where S0 is the lcm of the job
    denominators and of den(bp) * rate denominator at both ends of every
    finite segment.  Then each segment's work r * (bp' - bp) is a multiple of
    1/S0, hence so are the cumulative works, and (w - cum) / r is a multiple
    of 1/S.  Every factor is small; the lcms are taken pairwise up a tree, so
    no step combines a large partial result with one small factor.
    """
    factors = {p.denominator for p in jobs}
    rate_nums = set()
    for table in tables:
        bps = table.breakpoints
        for k, r in enumerate(table.ratios):
            factors.add(bps[k].denominator * r.denominator)
            factors.add(bps[k + 1].denominator * r.denominator)
            rate_nums.add(r.numerator)
        rate_nums.add(table.tail_ratio.numerator)
    return _lcm_tree(factors) * _lcm_tree(rate_nums)


def _lcm_tree(values: Iterable[int]) -> int:
    values = list(values)
    while len(values) > 1:
        values = [math.lcm(*values[k : k + 2]) for k in range(0, len(values), 2)]
    return values[0] if values else 1


def to_key(value: Fraction, scale: int) -> int:
    """`value * scale`, which must be an integer; anything else raises, never rounds."""
    factor, rest = divmod(scale, value.denominator)
    if rest:
        raise ArithmeticError(f"a value is not a multiple of 1/scale ({scale.bit_length()} bits)")
    return value.numerator * factor


def scale_table(table: CapacityTable, scale: int) -> ScaledTable:
    """`table` times `scale`, which must come from `common_scale`."""
    bps = tuple(to_key(bp, scale) for bp in table.breakpoints)
    rates = table.ratios + (table.tail_ratio,)
    cum = [0]
    for k in range(len(bps) - 1):
        work, rest = divmod((bps[k + 1] - bps[k]) * rates[k].numerator, rates[k].denominator)
        if rest:
            raise ArithmeticError(f"the work of segment {k + 1} is off the scale")
        cum.append(cum[-1] + work)
    return ScaledTable(
        bps, tuple(cum), tuple(r.numerator for r in rates), tuple(r.denominator for r in rates)
    )


def finish_key(table: ScaledTable, work: int) -> int:
    """`finish_time` times the scale, for `work` (nonnegative) times the scale.

    Same segment rule as `finish_time`; a result off the scale raises
    ArithmeticError instead of rounding.
    """
    k = bisect_left(table.cum_work, work) - 1
    if k < 0:  # zero work, which finishes at time 0
        if work < 0:
            raise ValueError("work must be nonnegative")
        return 0
    # k is the segment holding `work`, or the tail past the last breakpoint
    time, rest = divmod((work - table.cum_work[k]) * table.rate_den[k], table.rate_num[k])
    if rest:
        raise ArithmeticError(f"the finish time of a work on segment {k + 1} is off the scale")
    return table.breakpoints[k] + time


def scale_instance(inst: "Instance") -> tuple[int, list[int], list[ScaledTable]]:
    """An instance's common scale, its job lengths times the scale (by job
    index) and its machines' scaled tables.

    The one integer set-up behind the list heuristics and the searches,
    and the one place that refuses an instance with no machines.  No load
    passes the total job work, so each table is built only up to it and
    segments no load reaches add nothing to the scale.
    """
    if not inst.machines:
        raise ValueError("instance has no machines")
    # the total job work, summed over the lcm of the job denominators
    den = math.lcm(*{p.denominator for p in inst.jobs})
    total = Fraction(sum([p.numerator * (den // p.denominator) for p in inst.jobs]), den)
    tables = [_table_up_to(mp, total) for mp in inst.machines]
    scale = common_scale(inst.jobs, tables)
    return scale, [to_key(p, scale) for p in inst.jobs], [scale_table(t, scale) for t in tables]
