"""The integer capacity kernel and the placement walk behind the oracle and the schemes."""

import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest

from sharedsched import (
    NAMED_EXAMPLES,
    Instance,
    MachineProfile,
    Objective,
    OrderRule,
    PlacementRule,
    RandomSpec,
    SharedInterval,
    build_capacity_table,
    evaluate,
    exact_optimal,
    finish_time,
    list_schedule,
    named_example,
    partition_gadget_makespan,
    partition_gadget_totaltime,
    random_instance,
    validate_instance,
)
from sharedsched import capacity, heuristics, oracle, schemes
from sharedsched.capacity import finish_key, scale_instance
from sharedsched.heuristics import ect_placement, job_order
from sharedsched.schemes import makespan_scheme, totaltime_scheme
from sharedsched.oracle import best_placement

from oracle_checks import reference_list_schedule


def _instances():
    rng = random.Random(5)
    for seed in range(24):
        m = rng.randint(1, 4)
        spec = RandomSpec(
            n=rng.randint(1, 8),
            m=m,
            m1=rng.randint(1, m),
            e0=rng.choice([F(1, 4), F(1, 2), F(2, 3), F(1)]),
            min_breakpoints=20,
            max_breakpoints=40,
            seed=seed,
        )
        yield pytest.param(random_instance(spec), id=f"random-{seed}")
    yield pytest.param(partition_gadget_makespan([3, 1, 1, 2, 2, 1], 3), id="gadget-makespan")
    yield pytest.param(partition_gadget_totaltime([3, 1, 1, 2, 2, 1], 3), id="gadget-totaltime")
    for name in NAMED_EXAMPLES:
        yield pytest.param(named_example(name), id=name)


@pytest.mark.parametrize("inst", list(_instances()))
def test_every_entry_key_is_its_value_times_the_scale(inst):
    # every job set's load and finish time on every machine, as the searches key them
    scale, sizes, scaled = scale_instance(inst)
    for i, machine in enumerate(inst.machines):
        table = build_capacity_table(machine)
        for mask in range(1 << inst.n):
            load = sum((inst.jobs[j] for j in range(inst.n) if mask >> j & 1), F(0))
            key = sum(sizes[j] for j in range(inst.n) if mask >> j & 1)
            assert key == load * scale
            assert finish_key(scaled[i], key) == finish_time(table, load) * scale


def test_a_value_off_the_scale_raises_instead_of_rounding(monkeypatch):
    inst = named_example("lsect_tight")
    scale, sizes, _ = scale_instance(inst)
    assert sizes == [p * scale for p in inst.jobs]
    # a scale too small for a segment's work (1 at rate 2/3) raises
    segment = MachineProfile(intervals=(SharedInterval(start=F(0), end=F(1), ratio=F(2, 3)),))
    inst = Instance(machines=(segment,), jobs=(F(1),), m1=1, e0=F(2, 3))
    assert scale_instance(inst)[0] == 6
    monkeypatch.setattr(capacity, "_lcm_tree", lambda values: 1)
    with pytest.raises(ArithmeticError):
        scale_instance(inst)


# (intervals of machine 2 as (start, end, ratio), validate_instance's one message);
# three jobs of total length 4, so the walk reads every interval listed
MALFORMED = {
    "gap": ([(0, 1, F(1, 2)), (2, 3, F(1, 2))], "machine 2 interval 2: starts at 2, expected 1"),
    "empty": ([(0, 1, 1), (1, 1, 1)], "machine 2 interval 2: empty or reversed (1, 1]"),
    "reversed": ([(0, 2, 1), (2, 1, 1)], "machine 2 interval 2: empty or reversed (2, 1]"),
    "zero-tail": ([(0, 1, 1), (1, None, 0)], "machine 2 interval 2: ratio 0 is outside (0, 1]"),
    "ratio-2": ([(0, 1, 2)], "machine 2 interval 1: ratio 2 is outside (0, 1]"),
    "tail-above-1": (
        [(0, 1, 1), (1, None, F(3, 2))], "machine 2 interval 2: ratio 3/2 is outside (0, 1]"
    ),
    "negative": ([(0, 1, F(-1, 2))], "machine 2 interval 1: ratio -1/2 is outside (0, 1]"),
}


@pytest.mark.parametrize("intervals, message", list(MALFORMED.values()), ids=list(MALFORMED))
def test_every_entry_point_refuses_a_malformed_interval_it_reads(intervals, message):
    profile = MachineProfile(
        tuple(SharedInterval(F(a), None if b is None else F(b), F(r)) for a, b, r in intervals)
    )
    machines = (MachineProfile(()), profile)
    inst = Instance(machines=machines, jobs=(F(2), F(1), F(1)), m1=1, e0=F(1, 2))
    assert validate_instance(inst) == [message]
    refusals = (
        lambda: list_schedule(inst, OrderRule.LPT, PlacementRule.EARLIEST_COMPLETION),
        lambda: list_schedule(inst, OrderRule.INPUT, PlacementRule.EARLIEST_START),
        lambda: exact_optimal(inst, Objective.MAKESPAN),
        lambda: exact_optimal(inst, Objective.TOTAL_COMPLETION),
        lambda: makespan_scheme(inst, 1),
        lambda: totaltime_scheme(inst, F(1, 2)),
    )
    for refused in refusals:
        with pytest.raises(ValueError) as caught:
            refused()
        assert str(caught.value) == message


# (intervals of a lone machine, validate_instance's first message); one job
# of length 5, so the integer walk stops at interval 2 and only evaluate
# reads interval 3
MALFORMED_PAST_THE_WORK = {
    "reversed": (
        [(0, 10, 1), (10, 11, 1), (11, 1, 1), (1, 2, 1), (2, 3, 1), (3, 20, F(1, 2))],
        "machine 1 interval 3: empty or reversed (11, 1]",
    ),
    "gap": ([(0, 10, 1), (10, 11, 1), (12, 13, 1)], "machine 1 interval 3: starts at 12, expected 11"),
    "zero": ([(0, 10, 1), (10, 11, 1), (11, 12, 0)], "machine 1 interval 3: ratio 0 is outside (0, 1]"),
}


@pytest.mark.parametrize(
    "intervals, message", list(MALFORMED_PAST_THE_WORK.values()), ids=list(MALFORMED_PAST_THE_WORK)
)
def test_evaluate_refuses_a_malformed_interval_past_the_total_work(intervals, message):
    profile = MachineProfile(tuple(SharedInterval(F(a), F(b), F(r)) for a, b, r in intervals))
    inst = Instance(machines=(profile,), jobs=(F(5),), m1=1, e0=F(1, 2))
    assert validate_instance(inst)[0] == message
    scale_instance(inst)  # the integer set-up never reads interval 3
    refusals = (
        lambda: evaluate(inst, [[0]]),
        lambda: list_schedule(inst, OrderRule.LPT, PlacementRule.EARLIEST_COMPLETION),
        lambda: list_schedule(inst, OrderRule.INPUT, PlacementRule.EARLIEST_START),
        lambda: exact_optimal(inst, Objective.MAKESPAN),
        lambda: exact_optimal(inst, Objective.TOTAL_COMPLETION),
        lambda: makespan_scheme(inst, 1),
        lambda: totaltime_scheme(inst, F(1, 2)),
    )
    for refused in refusals:
        with pytest.raises(ValueError) as caught:
            refused()
        assert str(caught.value) == message


def _primes_from(low: int, count: int) -> list[int]:
    high = 2 * low
    sieve = bytearray([1]) * high
    for p in range(2, math.isqrt(high) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, high, p)))
    primes = [p for p in range(low, high) if sieve[p]]
    assert len(primes) >= count
    return primes[:count]


def stress_instance(n: int, m: int = 4, segments: int = 1000) -> Instance:
    """m machines of `segments` rate segments each.  Every breakpoint is an
    integer plus a/q and every rate is a/q', each with its own prime near
    10^5, so the common scale has about 160,000 bits and the cumulative work
    of the Fraction tables carries denominators of that size."""
    primes = _primes_from(10**5, 2 * m * segments)
    rng = random.Random(17)
    machines = []
    for i in range(m):
        start = F(0)
        intervals = []
        for k in range(segments):
            q_end, q_rate = primes[(2 * i * segments) + 2 * k : (2 * i * segments) + 2 * k + 2]
            end = k + 1 + F(rng.randint(1, q_end - 1), q_end)
            ratio = F(rng.randint(q_rate // 4 + 1, q_rate), q_rate)
            intervals.append(SharedInterval(start=start, end=end, ratio=ratio))
            start = end
        machines.append(MachineProfile(intervals=tuple(intervals)))
    jobs = tuple(F(rng.randint(1, 10)) for _ in range(n))
    return Instance(machines=tuple(machines), jobs=jobs, m1=m, e0=F(1, 4))


def _times(value: F, scale: int) -> tuple[int, int]:
    # value * scale as (integer part, remainder), without Fraction's gcd
    return divmod(value.numerator * scale, value.denominator)


def _whole(inst: Instance) -> Instance:
    """`inst` plus one job longer than every machine's last breakpoint.  No
    rate passes 1, so the total job work passes every cumulative work and
    `scale_instance` keeps every segment of every profile."""
    ends = [iv.end for mp in inst.machines for iv in mp.intervals if iv.end is not None]
    long_job = F(math.floor(max(ends, default=0)) + 1)
    return Instance(machines=inst.machines, jobs=inst.jobs + (long_job,), m1=inst.m1, e0=inst.e0)


def _check_kernel(inst, cum_step=1, loads=40):
    """`scale_instance`'s tables are the Fraction tables times the scale, and
    finish_key(W) is finish_time(w) times the scale when that is an integer,
    and raises otherwise, at and beside every `cum_step`-th cumulative work
    value and at seeded random loads."""
    scale, _, scaled_tables = scale_instance(_whole(inst))
    lj = math.lcm(*(p.denominator for p in inst.jobs))
    rng = random.Random(len(inst.jobs))
    raised = 0
    for machine, scaled in zip(inst.machines, scaled_tables):
        table = build_capacity_table(machine)
        assert len(scaled.cum_work) == len(table.cum_work)
        rates = [F(num, den) for num, den in zip(scaled.rate_num, scaled.rate_den)]
        assert rates == [*table.ratios, table.tail_ratio]
        for k in range(0, len(table.cum_work), cum_step):
            assert (scaled.breakpoints[k], 0) == _times(table.breakpoints[k], scale)
            assert (scaled.cum_work[k], 0) == _times(table.cum_work[k], scale)
            # one unit of 1/scale beside the value picks the segment on either side
            for work in (scaled.cum_work[k] - 1, scaled.cum_work[k], scaled.cum_work[k] + 1):
                if work < 0:
                    continue
                exact, rest = _times(finish_time(table, F(work, scale)), scale)
                if rest == 0:
                    assert finish_key(scaled, work) == exact
                else:
                    raised += 1
                    with pytest.raises(ArithmeticError):
                        finish_key(scaled, work)
        # any load of the instance's jobs is on the scale, also past the last breakpoint
        top = 2 * int(table.cum_work[-1] + 1) * lj
        for _ in range(loads):
            w = F(rng.randint(0, top), lj)
            assert (finish_key(scaled, w * scale), 0) == _times(finish_time(table, w), scale)
    return raised


@pytest.mark.parametrize("inst", list(_instances()))
def test_integer_kernel_is_the_fraction_kernel_times_the_scale(inst):
    _check_kernel(inst)


def test_integer_kernel_on_many_segments_with_prime_denominators():
    # two machines keep the Fraction reference affordable; a scale of 80,000 bits
    inst = stress_instance(n=6, m=2)
    assert validate_instance(inst) == []
    # every segment's rate has a numerator above 1, so one unit beside a
    # cumulative work value is off the scale
    assert _check_kernel(inst, cum_step=250, loads=4) > 0


def test_an_off_scale_work_raises_instead_of_rounding():
    # one job of length 1 on a machine lending 2/3 of its speed: the scale is 2
    machine = MachineProfile(intervals=(SharedInterval(start=F(0), end=None, ratio=F(2, 3)),))
    inst = Instance(machines=(machine,), jobs=(F(1),), m1=1, e0=F(2, 3))
    scale, _, (scaled,) = scale_instance(inst)
    assert scale == 2
    assert finish_key(scaled, 2) == 3  # 1 unit of work ends at 3/2
    with pytest.raises(ArithmeticError):
        finish_key(scaled, 1)
    with pytest.raises(ValueError):
        finish_key(scaled, -1)


def test_the_scale_of_many_prime_denominators_is_built_quickly():
    # each scale factor is small, so no step takes an lcm with a large
    # cumulative-work denominator (that took the oracle about 23 s here)
    inst = stress_instance(n=6)
    started = time.perf_counter()
    result = exact_optimal(inst, Objective.MAKESPAN)
    assert time.perf_counter() - started < 6
    assert result.states_explored == 4**6


def test_the_scale_ignores_segments_past_the_total_job_work():
    # six jobs of total work 18 end within the first 31 of each machine's
    # 1000 segments, so the later segments add nothing to the scale
    inst = stress_instance(n=6)
    scale, _, scaled = scale_instance(inst)
    assert sum(inst.jobs) == 18
    assert all(len(table.breakpoints) <= 31 for table in scaled)
    full, _, whole = scale_instance(_whole(inst))
    assert all(len(table.breakpoints) == 1001 for table in whole)
    assert 20 * scale.bit_length() < full.bit_length()
    for order in OrderRule:
        for placement in PlacementRule:
            assert list_schedule(inst, order, placement) == reference_list_schedule(
                inst, order, placement
            )


@pytest.mark.parametrize(
    "jobs, breakpoints, tail",
    [
        ((), (0,), F(1, 2)),
        ((F(1, 2),), (0, 1), F(1, 3)),  # the total lands on a breakpoint
        ((F(1, 2), F(1, 3)), (0, 1, 2), F(1, 4)),
        ((F(1),), (0, 1, 2, 3), F(1)),  # reached only at the last breakpoint
        ((F(100),), (0, 1, 2, 3), F(1)),  # never reached
    ],
)
def test_each_table_stops_at_the_first_breakpoint_reaching_the_total_work(jobs, breakpoints, tail):
    # rates 1/2, 1/3, 1/4 on (0, 1], (1, 2], (2, 3], then full speed
    intervals = tuple(
        SharedInterval(start=F(k), end=F(k + 1), ratio=F(1, k + 2)) for k in range(3)
    )
    inst = Instance(machines=(MachineProfile(intervals=intervals),), jobs=jobs, m1=1, e0=F(1, 4))
    scale, _, (scaled,) = scale_instance(inst)
    assert tuple(F(bp, scale) for bp in scaled.breakpoints) == breakpoints
    assert F(scaled.rate_num[-1], scaled.rate_den[-1]) == tail


def test_the_integer_set_up_builds_no_fraction_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scale_instance built a CapacityTable")

    monkeypatch.setattr(capacity, "build_capacity_table", refuse)
    monkeypatch.setattr(capacity, "CapacityTable", refuse)
    for param in _instances():
        scale_instance(param.values[0])
    for inst in (stress_instance(n=6), _whole(stress_instance(n=6, m=2))):
        scale_instance(inst)


def _brute_force(inst, jobs, objective, rest):
    """`best_placement` by brute force: every machine vector in lexicographic
    order, each valued from its own sets' lengths with `finish_key`, the
    first least kept, and the machines the tail then takes."""
    _, sizes, scaled = scale_instance(inst)
    best, count = None, 0
    for vector in itertools.product(range(inst.m), repeat=len(jobs)):
        lengths = [[] for _ in range(inst.m)]
        for j, i in zip(jobs, vector):
            lengths[i].append(sizes[j])
        loads = [sum(own) for own in lengths]
        placed = list(vector)
        if objective is Objective.MAKESPAN:
            value = max(finish_key(table, load) for table, load in zip(scaled, loads))
            for j in rest:
                i, finish = ect_placement(scaled, loads, sizes[j])
                loads[i] += sizes[j]
                placed.append(i)
                value = max(value, finish)
        else:
            # each set runs its jobs shortest first
            value = sum(
                finish_key(table, work)
                for table, own in zip(scaled, lengths)
                for work in itertools.accumulate(sorted(own))
            )
        count += 1
        if best is None or value < best[0]:
            best = (value, placed)
    return best[1], count


@pytest.mark.parametrize("identical", [False, True], ids=["random", "identical"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_the_walk_keeps_the_first_minimizer_of_every_placement(m, identical):
    # lengths in {1/2, 1, ..., 3} on identical machines leave many ties
    inst = random_instance(RandomSpec(n=8, m=m, m1=m, e0=F(1, 2), p_max=3, max_breakpoints=4, seed=m))
    if identical:
        inst = Instance(machines=(inst.machines[0],) * m, jobs=inst.jobs, m1=m, e0=inst.e0)
    _, sizes, scaled = scale_instance(inst)
    rng = random.Random(m)
    for k in range(7):
        # the jobs walked, and the tail, in shuffled list orders
        jobs = rng.sample(range(inst.n), k)
        rest = rng.sample([j for j in range(inst.n) if j not in jobs], inst.n - k)
        for objective, tail in (
            (Objective.MAKESPAN, []),
            (Objective.MAKESPAN, rest),
            (Objective.TOTAL_COMPLETION, []),
        ):
            got = best_placement(sizes, scaled, jobs, objective, tail)
            assert got == _brute_force(inst, jobs, objective, tail), (k, objective, tail)
            assert got[1] == m**k
            if objective is Objective.MAKESPAN:
                # the optimum's key, and the greedy key of the list order that one leaf reproduces
                limits = [_makespan_key(scaled, sizes, jobs + tail, got[0]), _ect_key(scaled, sizes, jobs + tail)]
                for limit in limits:
                    placed, leaves = best_placement(sizes, scaled, jobs, objective, tail, limit)
                    assert placed == got[0] and leaves <= m**k, (k, tail, limit)
                with pytest.raises(ValueError, match="no placement"):
                    best_placement(sizes, scaled, jobs, objective, tail, limits[0] - 1)


def _ect_key(scaled, sizes, jobs):
    """The makespan key of `jobs` placed in list order where each finishes first."""
    loads, key = [0] * len(scaled), 0
    for j in jobs:
        i, finish = ect_placement(scaled, loads, sizes[j])
        loads[i] += sizes[j]
        key = max(key, finish)
    return key


def _makespan_key(scaled, sizes, jobs, placed):
    loads = [0] * len(scaled)
    for j, i in zip(jobs, placed):
        loads[i] += sizes[j]
    return max(finish_key(table, load) for table, load in zip(scaled, loads))


@pytest.fixture()
def calls(monkeypatch):
    """The `finish_key` calls of the placement walk, the total-time sweep and the ECT loop."""
    count = [0]

    def counted(table, work):
        count[0] += 1
        return finish_key(table, work)

    monkeypatch.setattr(oracle, "finish_key", counted)
    monkeypatch.setattr(schemes, "finish_key", counted)
    monkeypatch.setattr(heuristics, "finish_key", counted)
    return count


@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_an_exhaustive_oracle_call_fills_each_set_once(calls, m, objective):
    n = 6
    inst = random_instance(RandomSpec(n=n, m=m, m1=m, e0=F(1, 2), max_breakpoints=4, seed=m))
    assert exact_optimal(inst, objective).states_explored == m**n
    # every nonempty set shows on every machine at m >= 2; one machine takes one set of each size
    assert calls[0] == m * (2**n - 1 if m > 1 else n)


@pytest.mark.parametrize("m, filled", [(2, 126), (3, 189)])
def test_an_exact_sweep_fills_each_set_once(calls, m, filled):
    n = 6
    inst = random_instance(RandomSpec(n=n, m=m, m1=m - 1, e0=F(1, 2), max_breakpoints=4, seed=m))
    totaltime_scheme(inst, F(1, 2), delta=F(0))
    # with no merging every nonempty set shows on every machine
    assert calls[0] == filled == m * (2**n - 1)


def test_the_largest_admitted_scheme_walk_prunes_against_lpt_ect(calls):
    # m=2 admits d=20: 2^20 placements, which the walk prunes to a few leaves
    inst = random_instance(RandomSpec(n=20, m=2, m1=2, e0=F(1), seed=0))
    assert schemes.compute_d(2, 2, F(1), F(1, 10), 20) == 20
    assert makespan_scheme(inst, 20).makespan == F(136, 3)
    # the walk's 99,980, against 2*(2^20 - 1) for the exhaustive walk, and
    # 2*20 for the LPT-ECT limit
    assert calls[0] == 99980 + 40


@pytest.mark.parametrize(
    "seed, m1, n, d, makespan, filled",
    [(220900, 2, 9, 4, F(776, 35), 124), (211000, 1, 10, 8, F(4591, 168), 390)],
)
def test_a_tailed_scheme_call_keeps_the_tail_its_leaf_placed(calls, seed, m1, n, d, makespan, filled):
    # from criterion 2's tail pool: m=2, e0=1, epsilon=1/2, so d < n; a replay
    # of the minimizer's tail after the walk would add m*(n-d) calls
    inst = random_instance(RandomSpec(n=n, m=2, m1=m1, e0=F(1), seed=seed))
    assert schemes.compute_d(2, m1, F(1), F(1, 2), n) == d
    assert makespan_scheme(inst, d).makespan == makespan
    assert calls[0] == filled


def test_one_machine_walks_twelve_hundred_jobs_deep(calls):
    inst = random_instance(RandomSpec(n=1200, m=1, m1=1, e0=F(1), seed=0))
    # one placement: the longest jobs first, all on the one machine
    schedule = makespan_scheme(inst, 1200)
    assert schedule.makespan == F(742993, 120)
    assert schedule.assignment == (tuple(job_order(inst.jobs, OrderRule.LPT)),)
    for objective, value in ((Objective.MAKESPAN, F(742993, 120)), (Objective.TOTAL_COMPLETION, F(351343519, 140))):
        calls[0] = 0
        result = exact_optimal(inst, objective, max_n=1200)
        assert (result.objective_value, result.states_explored) == (value, 1)
        # each job adds one set, so a walk that keeps every prefix stays linear
        assert calls[0] == 1200
