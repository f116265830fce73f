"""Cumulative-capacity tables for machines that lend only part of their speed.

A machine's availability is a piecewise-constant rate over left-open,
right-closed intervals.  The table below turns that into cumulative work at
each breakpoint, so completion-time queries become a binary search plus one
linear interpolation.

The same queries also run on integers, over one instance-wide scale.
`scale_instance` is the one place that builds an instance's integer view
(the scale, the job lengths as keys, the scaled tables), straight from the
machine profiles; the list heuristics and the searches decide on it, while
`finish_time` stays the exact reference with which `model.evaluate` builds
every reported schedule.  The two halves share no code.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, NamedTuple

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


def _check_interval(iv, prev: Fraction, machine: int, k: int) -> None:
    """Refuse interval k of a machine, with `validate_instance`'s message, when it
    starts off `prev` (the previous end), is empty or reversed, or has a ratio
    outside (0, 1].  Numerators and denominators compare faster than Fractions."""
    start, end, r = iv.start, iv.end, iv.ratio
    num, den = start.numerator, start.denominator
    if num != prev.numerator or den != prev.denominator:
        raise ValueError(f"machine {machine} interval {k}: starts at {start}, expected {prev}")
    if end is not None and end.numerator * den <= num * end.denominator:
        raise ValueError(f"machine {machine} interval {k}: empty or reversed ({start}, {end}]")
    if not 0 < r.numerator <= r.denominator:
        raise ValueError(f"machine {machine} interval {k}: ratio {r} is outside (0, 1]")


def build_capacity_table(profile: "MachineProfile", machine: int = 1) -> CapacityTable:
    """Precompute cumulative work at every breakpoint of a machine profile.

    A profile that ends at a finite breakpoint implicitly continues at full
    rate; a profile whose last interval is unbounded contributes its ratio as
    the tail rate instead.  Every interval is read, and a malformed one is
    refused (ValueError) as `scale_instance` refuses it, naming the profile
    as machine `machine`.
    """
    breakpoints = [Fraction(0)]
    cum_work = [Fraction(0)]
    ratios: list[Fraction] = []
    tail_ratio = Fraction(1)
    for k, iv in enumerate(profile.intervals, start=1):
        _check_interval(iv, breakpoints[-1], machine, k)
        if iv.end is None:
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
    """One machine's capacity over an instance-wide scale S: breakpoints and
    cumulative work times S as integers, and each segment's rate as
    (numerator, denominator), the tail last."""

    breakpoints: tuple[int, ...]
    cum_work: tuple[int, ...]
    rate_num: tuple[int, ...]
    rate_den: tuple[int, ...]


def _lcm_tree(values: Iterable[int]) -> int:
    values = list(values)
    while len(values) > 1:
        values = [math.lcm(*values[k : k + 2]) for k in range(0, len(values), 2)]
    return values[0] if values else 1


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
    passes the total job work, so each profile is read only up to the first
    breakpoint whose cumulative work reaches it, the next interval's rate
    (or full speed) kept as the tail; later segments add nothing to the
    scale.  Each interval read is refused with `validate_instance`'s message
    (ValueError) when it starts off the previous end, is empty or reversed,
    or has a ratio outside (0, 1], the tail's included.

    S = S0 * lcm(rate numerators, tail included), where S0 is the lcm of
    the job denominators and of den(bp) * rate denominator at both ends of
    every kept segment.  Then each segment's work r * (bp' - bp) is a
    multiple of 1/S0, hence so are the cumulative works, and (w - cum) / r
    is a multiple of 1/S.  Every factor is small; the lcms are taken
    pairwise up a tree, so no step combines a large partial result with one
    small factor.
    """
    if not inst.machines:
        raise ValueError("instance has no machines")
    # the total job work, summed over the lcm of the job denominators
    den = math.lcm(*{p.denominator for p in inst.jobs})
    total = Fraction(sum([p.numerator * (den // p.denominator) for p in inst.jobs]), den)
    factors, rate_nums, kept = {den}, set(), []
    for i, mp in enumerate(inst.machines, start=1):
        ends, rates, start, reached = [], [], Fraction(0), Fraction(0)
        for k, iv in enumerate(mp.intervals, start=1):
            _check_interval(iv, start, i, k)
            r = iv.ratio
            if iv.end is None or reached >= total:
                rates.append(r)
                break
            factors.add(start.denominator * r.denominator)
            factors.add(iv.end.denominator * r.denominator)
            reached += r * (iv.end - start)
            start = iv.end
            ends.append(start)
            rates.append(r)
        else:
            rates.append(Fraction(1))
        rate_nums.update(r.numerator for r in rates)
        kept.append((ends, rates))
    scale = _lcm_tree(factors) * _lcm_tree(rate_nums)
    tables = []
    for ends, rates in kept:
        bps, cum = [0], [0]
        for end, r in zip(ends, rates):
            bp = end.numerator * (scale // end.denominator)
            work, rest = divmod((bp - bps[-1]) * r.numerator, r.denominator)
            if rest:
                raise ArithmeticError(f"the work of segment {len(bps)} is off the scale")
            bps.append(bp)
            cum.append(cum[-1] + work)
        nums, dens = zip(*[(r.numerator, r.denominator) for r in rates])
        tables.append(ScaledTable(tuple(bps), tuple(cum), nums, dens))
    return scale, [p.numerator * (scale // p.denominator) for p in inst.jobs], tables
