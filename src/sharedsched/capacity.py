"""Cumulative-capacity tables for machines that lend only part of their speed.

A machine's availability is a piecewise-constant rate over left-open,
right-closed intervals.  The table below turns that into cumulative work at
each breakpoint, so a completion-time query is a binary search on integer
cross-products plus one Fraction built from integers,
``bp + (work - cum) / rate`` on the segment holding the work.  The work
may come as an integer over a denominator, as `model` passes each prefix
load over the job denominator, so no Fraction is built for it.  A table can
stop at the first breakpoint that reaches a given work, when no query
passes it.

The same queries also run on integers, over one instance-wide scale.
`exact_view` reads each machine's profile once per instance, cut at the
positive job work, and `scale_instance` is the one place that builds the
instance's integer view (the scale, the job lengths as keys, the scaled
tables, all tuples) from those tables.  The `Instance` builds both on first
use and keeps them, so every algorithm call on one instance shares them;
the instance's fields are tuples that must not change after that.  The
list heuristics and the searches decide on the view and time the schedules
they return with `finish_time` on the kept tables, while `model.evaluate`,
the reference those schedules are checked against, reads each profile
afresh on every call.  `build_capacity_table` is the one reader of a
profile: it checks every interval with `_interval_faults`, the one
statement of the interval rules, which `model.validate_instance` reports
from too.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional

if TYPE_CHECKING:
    from .model import Instance, MachineProfile

__all__ = ["CapacityTable", "build_capacity_table", "finish_time"]


class CapacityTable(NamedTuple):
    """Breakpoints and cumulative work for one machine, in `ScaledTable`'s layout.

    ``breakpoints[k]`` is the end of the k-th rate segment (``breakpoints[0]``
    is always 0) and ``cum_work[k]`` is the total work the machine completes
    by that time when never idle.  ``rates[k]`` is the rate from
    ``breakpoints[k]`` on: on ``(breakpoints[k], breakpoints[k+1]]``, and
    past the last breakpoint for the last rate, the tail's.
    """

    breakpoints: tuple[Fraction, ...]
    cum_work: tuple[Fraction, ...]
    rates: tuple[Fraction, ...]


def _interval_faults(iv, prev: Optional[Fraction], machine: int, k: int) -> list[str]:
    """`validate_instance`'s messages for interval k of a machine, in order, or []
    when it is well formed.  `prev` is the previous interval's end, None when
    that interval is unbounded; a following interval reports only that.
    Integer ratios compare exactly, and several times faster than Fractions."""
    if prev is None:
        faults = ["follows an unbounded interval"]
    else:
        faults = []
        start, end, r = iv.start, iv.end, iv.ratio
        num, den = start.as_integer_ratio()
        if (num, den) != prev.as_integer_ratio():
            faults.append(f"starts at {start}, expected {prev}")
        if end is not None:
            end_num, end_den = end.as_integer_ratio()
            if end_num * den <= num * end_den:
                faults.append(f"empty or reversed ({start}, {end}]")
        r_num, r_den = r.as_integer_ratio()
        if not 0 < r_num <= r_den:
            faults.append(f"ratio {r} is outside (0, 1]")
    return [f"machine {machine} interval {k}: {fault}" for fault in faults]


def build_capacity_table(
    profile: "MachineProfile", machine: int = 1, reach: Optional[tuple[int, int]] = None
) -> CapacityTable:
    """Precompute cumulative work at every breakpoint of a machine profile.

    A profile that ends at a finite breakpoint implicitly continues at full
    rate; a profile whose last interval is unbounded contributes its ratio as
    the tail rate instead.  Every interval is read, an interval after an
    unbounded one too, and a malformed one is refused (ValueError) with the
    first of `validate_instance`'s messages on it, naming the profile as
    machine `machine`.

    With `reach = (num, den)`, no query passes the work num/den: the table
    stops at the first breakpoint whose cumulative work reaches it and takes
    the next interval's rate (or full speed) as the tail, so `finish_time`
    gives the same value for every work up to num/den.  The later intervals
    are still checked.  `exact_view` cuts each machine of an instance at
    the positive job work, and `model.evaluate` at its largest load.
    """
    breakpoints = [Fraction(0)]
    cum_work = [Fraction(0)]
    rates: list[Fraction] = []
    prev: Optional[Fraction] = Fraction(0)
    for k, iv in enumerate(profile.intervals, start=1):
        if faults := _interval_faults(iv, prev, machine, k):
            raise ValueError(faults[0])
        prev = iv.end
        if len(rates) == len(breakpoints):  # the tail is set; the rest is only checked
            continue
        rates.append(iv.ratio)
        if prev is not None and not _reaches(cum_work[-1], reach):
            cum_work.append(_work_by(cum_work[-1], breakpoints[-1], prev, iv.ratio))
            breakpoints.append(prev)
    if len(rates) < len(breakpoints):  # full speed after the last breakpoint
        rates.append(Fraction(1))
    return CapacityTable(tuple(breakpoints), tuple(cum_work), tuple(rates))


def _work_by(work: Fraction, start: Fraction, end: Fraction, rate: Fraction) -> Fraction:
    """`work` plus the segment's work ``rate * (end - start)``, built as one
    Fraction from integers.  The sum is Fraction addition, which skips the
    large gcd when the two denominators are coprime, as they are on long
    profiles with prime denominators; one constructor over the whole sum
    would not."""
    s_num, s_den = start.as_integer_ratio()
    e_num, e_den = end.as_integer_ratio()
    r_num, r_den = rate.as_integer_ratio()
    return work + Fraction((e_num * s_den - s_num * e_den) * r_num, e_den * s_den * r_den)


def _reaches(work: Fraction, reach: Optional[tuple[int, int]]) -> bool:
    """Whether `work` reaches the bound ``reach = (num, den)``, compared on
    integers; never without a bound."""
    if reach is None:
        return False
    num, den = work.as_integer_ratio()
    return num * reach[1] >= reach[0] * den


def finish_time(table: CapacityTable, work, den: int = 1) -> Fraction:
    """Earliest time by which a never-idle machine completes ``work / den``
    units: ``breakpoints[k] + (work / den - cum_work[k]) / rates[k]`` on the
    segment k holding that work, built as one Fraction from integers.

    An int `work` is the numerator as it stands, so an integer load over a
    common denominator builds no Fraction; any other work (a Fraction, a
    float, a bool) is read exactly first.  `den` must be at least 1.
    """
    if den < 1:
        raise ValueError(f"den must be at least 1, not {den}")
    num = work
    if type(work) is not int:
        num, work_den = (work if isinstance(work, Fraction) else Fraction(work)).as_integer_ratio()
        den *= work_den
    if num < 0:
        raise ValueError("work must be nonnegative")
    cum = table.cum_work
    last_num, last_den = cum[-1].as_integer_ratio()
    if num * last_den <= last_num * den:
        # the leftmost cum_work[k] reaching the work, so a value landing
        # exactly on a breakpoint resolves to the earlier time, found by
        # comparing integer cross-products as the test above does
        lo, hi = 0, len(cum) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            cum_num, cum_den = cum[mid].as_integer_ratio()
            if cum_num * den < num * cum_den:
                lo = mid + 1
            else:
                hi = mid
        if lo == 0:
            return table.breakpoints[0]
        k = lo - 1
    else:
        k = -1
    bp_num, bp_den = table.breakpoints[k].as_integer_ratio()
    cum_num, cum_den = cum[k].as_integer_ratio()
    rate_num, rate_den = table.rates[k].as_integer_ratio()
    # (work - cum) / rate over the denominator den * cum_den * rate_num, then bp added
    rest, over = (num * cum_den - cum_num * den) * rate_den, den * cum_den * rate_num
    return Fraction(bp_num * over + rest * bp_den, bp_den * over)


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


def _pairwise(items: list, join: Callable):
    """`items` (at least one) reduced with `join` in pairs up a tree, so each
    step joins two results of about the same size; an odd one out is passed
    to `join` alone."""
    while len(items) > 1:
        items = [join(*items[k : k + 2]) for k in range(0, len(items), 2)]
    return items[0]


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


def _job_keys(jobs: Iterable[Fraction]) -> tuple[int, list[int]]:
    """The lcm of the job denominators and each job length times it, by job index."""
    ratios = [p.as_integer_ratio() for p in jobs]
    den = math.lcm(*{d for _, d in ratios})
    return den, [num * (den // d) for num, d in ratios]


def exact_view(inst: "Instance") -> tuple[int, tuple[int, ...], tuple[CapacityTable, ...]]:
    """The job lengths over their common denominator (`_job_keys`: the
    denominator, then each length times it, by job index) and each machine's
    `build_capacity_table`, cut at the sum of the positive lengths, which no
    prefix load passes, a negative length's machine included.

    `Instance._exact` builds it on first use and keeps it: `scale_instance`
    converts its tables to the scale, and the algorithms time the schedules
    they return on them (`model._schedule_of`).  A malformed interval on any
    machine is refused (ValueError) with the first of `validate_instance`'s
    messages on it.
    """
    den, keys = _job_keys(inst.jobs)
    reach = (sum(key for key in keys if key > 0), den)
    tables = tuple(build_capacity_table(mp, i, reach) for i, mp in enumerate(inst.machines, start=1))
    return den, tuple(keys), tables


def scale_instance(inst: "Instance") -> tuple[int, tuple[int, ...], tuple[ScaledTable, ...]]:
    """An instance's common scale, its job lengths times the scale (by job
    index) and its machines' scaled tables, all immutable.

    The one integer set-up behind the list heuristics and the searches,
    and the one place that refuses an instance with no machines; they read
    it as `Instance._view`, which builds it on first use and keeps it.  Each
    machine's scaled table is its kept exact table (`Instance._exact`, cut
    at the positive job work by `exact_view`) converted to the scale:
    segments past the cut add nothing to the scale.  Reading those tables
    refuses (ValueError) a malformed interval anywhere in a profile, past
    the cut too, with the first of `validate_instance`'s messages on it.

    S = S0 * lcm(rate numerators, tail included), where S0 is the lcm of
    the job denominators and of den(bp) * rate denominator at both ends of
    every kept segment.  Then each segment's work r * (bp' - bp) is a
    multiple of 1/S0, hence so are the cumulative works, and (w - cum) / r
    is a multiple of 1/S.  Every factor is small; the lcms are taken
    pairwise up a tree, so no step combines a large partial result with one
    small factor, and none takes a cumulative work's denominator.
    """
    if not inst.machines:
        raise ValueError("instance has no machines")
    den, keys, exact = inst._exact
    factors, rate_nums = {den}, set()
    for bps, _, rates in exact:
        for start, end, r in zip(bps, bps[1:], rates):
            factors.update((start.denominator * r.denominator, end.denominator * r.denominator))
        rate_nums.update(r.numerator for r in rates)
    scale = _pairwise(list(factors), math.lcm) * _pairwise(list(rate_nums), math.lcm)
    tables = []
    for table in exact:
        # cumulative works summed on the scale, never from the exact ones,
        # whose denominators can grow with every segment
        bps, cum = [0], [0]
        for end, r in zip(table.breakpoints[1:], table.rates):
            bp = end.numerator * (scale // end.denominator)
            work, rest = divmod((bp - bps[-1]) * r.numerator, r.denominator)
            if rest:
                raise ArithmeticError(f"the work of segment {len(bps)} is off the scale")
            bps.append(bp)
            cum.append(cum[-1] + work)
        nums, dens = zip(*[(r.numerator, r.denominator) for r in table.rates])
        tables.append(ScaledTable(tuple(bps), tuple(cum), nums, dens))
    per_key = scale // den
    return scale, tuple([key * per_key for key in keys]), tuple(tables)
