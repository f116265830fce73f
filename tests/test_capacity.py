"""Capacity table construction and the finish-time / work-at queries."""

import math
import random
from fractions import Fraction as F

import pytest

from sharedsched import (
    MachineProfile,
    RandomSpec,
    SharedInterval,
    build_capacity_table,
    finish_time,
    random_instance,
)

from oracle_checks import segment_finish_time, work_at
from test_search import stress_instance


def _profile(*segments):
    intervals = []
    start = F(0)
    for end, ratio in segments:
        end = None if end is None else F(end)
        intervals.append(SharedInterval(start=start, end=end, ratio=F(ratio)))
        start = end
    return MachineProfile(intervals=tuple(intervals))


def test_table_for_slowdown_profile():
    table = build_capacity_table(_profile((1, 1), (None, F(1, 2))))
    assert table.breakpoints == (F(0), F(1))
    assert table.cum_work == (F(0), F(1))
    assert table.rates == (F(1), F(1, 2))


def test_table_for_single_unbounded_interval():
    table = build_capacity_table(_profile((None, 1)))
    assert table.breakpoints == (F(0),)
    assert table.cum_work == (F(0),)
    assert table.rates == (F(1),)


def test_table_for_empty_profile_is_full_speed():
    table = build_capacity_table(MachineProfile(intervals=()))
    assert finish_time(table, F(7)) == F(7)
    assert work_at(table, F(7)) == F(7)


def test_finish_time_interpolates_within_a_segment():
    # full speed until 1, then half speed: 3 units of work need 1 + 2/(1/2)
    table = build_capacity_table(_profile((1, 1), (None, F(1, 2))))
    assert finish_time(table, F(3)) == F(5)


def test_finish_time_on_constant_ratio():
    table = build_capacity_table(_profile((None, F(3, 4))))
    assert finish_time(table, F(2)) == F(8, 3)


def test_cumulative_work_and_inverse_on_two_segment_table():
    table = build_capacity_table(_profile((2, 1), (10, F(1, 8))))
    assert work_at(table, F(2)) == F(2)
    assert work_at(table, F(10)) == F(3)
    assert finish_time(table, F(5, 2)) == F(6)
    assert work_at(table, F(6)) == F(5, 2)


def test_tail_rule_resumes_full_speed_after_last_breakpoint():
    table = build_capacity_table(_profile((2, 1), (10, F(1, 8))))
    # 4 units: 3 are done by t=10, the remaining 1 at full speed
    assert finish_time(table, F(4)) == F(11)
    assert work_at(table, F(11)) == F(4)


def test_zero_work_and_zero_time():
    table = build_capacity_table(_profile((2, 1), (10, F(1, 8))))
    assert finish_time(table, F(0)) == F(0)
    assert work_at(table, F(0)) == F(0)


def test_negative_arguments_are_rejected():
    table = build_capacity_table(_profile((None, 1)))
    for work, den in ((F(-1), 1), (F(-1, 10**9), 1), (-1, 1), (-0.5, 1), (-1, 3), (-(10**20), 7)):
        with pytest.raises(ValueError) as caught:
            finish_time(table, work, den)
        assert str(caught.value) == "work must be nonnegative"
    for work, den in ((1, 0), (1, -1), (0, 0), (F(1, 2), -1)):
        with pytest.raises(ValueError, match="den must be at least 1"):
            finish_time(table, work, den)
    with pytest.raises(ValueError):
        work_at(table, F(-1))


def test_work_exactly_at_breakpoint_resolves_to_the_breakpoint():
    table = build_capacity_table(_profile((2, 1), (10, F(1, 8)), (None, F(1, 3))))
    for k, bp in enumerate(table.breakpoints):
        assert finish_time(table, table.cum_work[k]) == bp


def _random_table(rng):
    segments = []
    end = F(0)
    for _ in range(rng.randint(0, 5)):
        end = end + F(rng.randint(1, 40), rng.randint(1, 8))
        segments.append((end, F(rng.randint(1, 16), 16)))
    if rng.random() < 0.5:
        segments.append((None, F(rng.randint(1, 16), 16)))
    return build_capacity_table(_profile(*segments))


def test_round_trip_work_time_work_is_exact():
    rng = random.Random(2024)
    for _ in range(300):
        table = _random_table(rng)
        for _ in range(4):
            work = F(rng.randint(0, 4000), rng.randint(1, 16))
            t = finish_time(table, work)
            assert work_at(table, t) == work


def test_finish_time_is_strictly_increasing_in_work():
    rng = random.Random(99)
    for _ in range(200):
        table = _random_table(rng)
        w1 = F(rng.randint(0, 500), rng.randint(1, 8))
        w2 = w1 + F(rng.randint(1, 500), rng.randint(1, 8))
        assert finish_time(table, w1) < finish_time(table, w2)


def test_finish_time_bounds_follow_the_slowest_ratio_seen():
    rng = random.Random(7)
    for _ in range(200):
        table = _random_table(rng)
        work = F(rng.randint(1, 800), rng.randint(1, 8))
        t = finish_time(table, work)
        assert t >= work
        # the rate from each breakpoint before t on, the tail's after the last
        slowest = min(rate for bp, rate in zip(table.breakpoints, table.rates) if bp < t)
        assert t <= work / slowest


def _seeded_profiles(rng):
    """The empty profile, then seeded profiles whose last interval is bounded
    and unbounded in turn."""
    yield MachineProfile(intervals=())
    for k in range(60):
        segments = []
        end = F(0)
        for _ in range(rng.randint(1, 5)):
            end = end + F(rng.randint(1, 40), rng.randint(1, 8))
            segments.append((end, F(rng.randint(1, 16), rng.randint(16, 20))))
        if k % 2:
            segments.append((None, F(rng.randint(1, 16), 16)))
        yield _profile(*segments)


def test_each_rate_belongs_to_the_segment_from_its_breakpoint():
    rng = random.Random(26)
    for profile in _seeded_profiles(rng):
        table = build_capacity_table(profile)
        bps, cum, rates = table
        assert len(rates) == len(cum) == len(bps)
        # the profile's ratios in order, then full speed unless the last is unbounded
        intervals = profile.intervals
        tail = [] if intervals and intervals[-1].end is None else [F(1)]
        assert list(rates) == [iv.ratio for iv in intervals] + tail
        for k in range(len(bps) - 1):
            assert cum[k + 1] == cum[k] + rates[k] * (bps[k + 1] - bps[k])


def test_finish_time_equals_the_segment_formula():
    # at 0, at every cumulative work, 10^-6 either side of each and deep in
    # the tail, as int, float, Fraction and bool works, and each as an int
    # over its denominator, reduced or not, and over 3
    rng = random.Random(24)
    eps = F(1, 10**6)
    for profile in _seeded_profiles(rng):
        table = build_capacity_table(profile)
        points = [F(0), *table.cum_work, table.cum_work[-1] * 10**6 + F(1, 3)]
        works = []
        for w in points:
            works += [w, w - eps, w + eps, float(w), float(w) - 1e-6, float(w) + 1e-6]
            works += [math.floor(w), math.ceil(w)]
        works += [10**12, False, True]
        for work in works:
            if work < 0:
                continue
            got = finish_time(table, work)
            assert type(got) is F
            assert got == segment_finish_time(table, work), (table, work)
            num, den = F(work).as_integer_ratio()
            assert finish_time(table, num, den) == finish_time(table, 3 * num, 3 * den) == got
            assert finish_time(table, work, 3) == segment_finish_time(table, F(work) / 3), (table, work)


def test_a_table_with_a_work_bound_is_the_whole_table_up_to_the_first_breakpoint_reaching_it():
    # its tail is the rate from that breakpoint on, so every work up to the
    # bound finishes where it does on the whole table, its work given as a
    # Fraction or as an int over a denominator
    rng = random.Random(27)
    for profile in _seeded_profiles(rng):
        whole = build_capacity_table(profile)
        top = int(2 * whole.cum_work[-1]) + 2
        for bound in (F(0), *whole.cum_work, F(rng.randint(1, 16 * top), 16), F(top)):
            table = build_capacity_table(profile, 1, bound.as_integer_ratio())
            k = next((k for k, cum in enumerate(whole.cum_work) if cum >= bound), len(whole.cum_work) - 1)
            assert table == tuple(column[: k + 1] for column in whole)
            for work in (bound, bound / 3, *(cum for cum in whole.cum_work if cum <= bound)):
                num, den = work.as_integer_ratio()
                assert finish_time(table, work) == finish_time(table, 5 * num, 5 * den) == finish_time(whole, work)


def _check_search(table, step=1):
    """`finish_time` against `segment_finish_time`, whose `bisect_left` over
    Fractions picks the segment, at every `step`-th cumulative work (where
    the answer is its breakpoint), halfway to the next, 1/(2·den) either side
    of it and past the end."""
    cum = table.cum_work
    for k in (*range(0, len(cum), step), len(cum) - 1):
        assert finish_time(table, cum[k]) == table.breakpoints[k]
        beside = F(1, 2 * cum[k].denominator)
        works = [cum[k] - beside, cum[k] + beside]
        if k + 1 < len(cum):
            works.append((cum[k] + cum[k + 1]) / 2)
        for work in works:
            if work >= 0:
                assert finish_time(table, work) == segment_finish_time(table, work), (k, work)
    for work in (cum[-1] + F(1, 3), 2 * cum[-1] + 1):
        assert finish_time(table, work) == segment_finish_time(table, work)


def test_the_integer_search_picks_the_segment_bisect_left_picks():
    # every cumulative work of a table the size cli-large times (20-40
    # breakpoints per machine), and of the four whole tables of 1000
    # segments with prime denominators near 10^5, whose cross-products run
    # to about 67,000 bits; each of their queries costs milliseconds of gcd,
    # so those are checked at every 125th breakpoint and the last
    spec = RandomSpec(n=1000, m=6, m1=5, e0=F(1, 4), seed=29, min_breakpoints=20, max_breakpoints=40)
    for profile in random_instance(spec).machines:
        _check_search(build_capacity_table(profile))
    for profile in stress_instance(n=6).machines:
        _check_search(build_capacity_table(profile), step=125)
