"""The integer capacity kernel, the subset table and the placement walk behind the oracle and the schemes."""

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
    exact_optimal,
    finish_time,
    list_schedule,
    named_example,
    partition_gadget_makespan,
    partition_gadget_totaltime,
    random_instance,
    validate_instance,
)
from sharedsched import oracle, search
from sharedsched.capacity import common_scale, finish_key, scale_instance, scale_table, to_key
from sharedsched.heuristics import ect_placement, job_order
from sharedsched.schemes import makespan_scheme
from sharedsched.search import SubsetTable, best_placement

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
    table = SubsetTable(inst)
    for i, machine in enumerate(inst.machines):
        capacity = build_capacity_table(machine)
        for mask in range(1 << inst.n):
            # the set's jobs shortest first, and the work done as each completes
            lengths = sorted(inst.jobs[j] for j in range(inst.n) if mask & table.bits[j])
            prefixes = list(itertools.accumulate(lengths, initial=F(0)))
            load = prefixes[-1]
            cost = sum((finish_time(capacity, w) for w in prefixes[1:]), F(0))
            assert table.get(i, mask) == (
                load * table.scale,
                finish_time(capacity, load) * table.scale,
                cost * table.scale,
            )


def test_a_value_off_the_scale_raises_instead_of_rounding():
    table = SubsetTable(named_example("lsect_tight"))
    assert to_key(F(7, table.scale), table.scale) == 7
    with pytest.raises(ArithmeticError):
        to_key(F(1, 2 * table.scale), table.scale)


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


def _check_kernel(inst, cum_step=1, loads=40):
    """finish_key(W) is finish_time(w) times the scale when that is an
    integer, and raises otherwise, at and beside every `cum_step`-th
    cumulative work value and at seeded random loads."""
    tables = [build_capacity_table(mp) for mp in inst.machines]
    scale = common_scale(inst.jobs, tables)
    lj = math.lcm(*(p.denominator for p in inst.jobs))
    rng = random.Random(len(inst.jobs))
    raised = 0
    for table in tables:
        scaled = scale_table(table, scale)
        assert len(scaled.cum_work) == len(table.cum_work)
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
    table = build_capacity_table(machine)
    scale = common_scale([F(1)], [table])
    scaled = scale_table(table, scale)
    assert scale == 2
    assert finish_key(scaled, 2) == 3  # 1 unit of work ends at 3/2
    with pytest.raises(ArithmeticError):
        finish_key(scaled, 1)
    with pytest.raises(ValueError):
        finish_key(scaled, -1)
    # a scale other than common_scale's can leave a segment's work off it
    segment = MachineProfile(intervals=(SharedInterval(start=F(0), end=F(1), ratio=F(2, 3)),))
    with pytest.raises(ArithmeticError):
        scale_table(build_capacity_table(segment), 1)


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
    full = common_scale(inst.jobs, [build_capacity_table(mp) for mp in inst.machines])
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


def _brute_force(inst, jobs, objective, rest):
    """`best_placement` by brute force: every machine vector in lexicographic
    order, each valued from its own sets' `get` entries, the first least kept."""
    table = SubsetTable(inst)
    best, count = None, 0
    for vector in itertools.product(range(inst.m), repeat=len(jobs)):
        masks = [0] * inst.m
        for j, i in zip(jobs, vector):
            masks[i] |= table.bits[j]
        entries = [table.get(i, mask) for i, mask in enumerate(masks)]
        if objective is Objective.MAKESPAN:
            loads = [load for load, _, _ in entries]
            value = max(finish for _, finish, _ in entries)
            for j in rest:
                i, finish = ect_placement(table.scaled, loads, table.sizes[j])
                loads[i] += table.sizes[j]
                value = max(value, finish)
        else:
            value = sum(cost for _, _, cost in entries)
        count += 1
        if best is None or value < best[0]:
            best = (value, vector)
    return best[1], count


@pytest.mark.parametrize("identical", [False, True], ids=["random", "identical"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_the_walk_keeps_the_first_minimizer_of_every_placement(m, identical):
    # lengths in {1/2, 1, ..., 3} on identical machines leave many ties
    inst = random_instance(RandomSpec(n=8, m=m, m1=m, e0=F(1, 2), p_max=3, max_breakpoints=4, seed=m))
    if identical:
        inst = Instance(machines=(inst.machines[0],) * m, jobs=inst.jobs, m1=m, e0=inst.e0)
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
            got = best_placement(SubsetTable(inst), jobs, objective, tail)
            assert got == _brute_force(inst, jobs, objective, tail), (k, objective, tail)
            assert got[1] == m**k


@pytest.fixture()
def tables(monkeypatch):
    """The subset tables the oracle builds, and the walk's `finish_key` calls."""
    made, calls = [], [0]

    class Recorded(SubsetTable):
        def __init__(self, inst):
            super().__init__(inst)
            made.append(self)

    def counted(table, work):
        calls[0] += 1
        return finish_key(table, work)

    monkeypatch.setattr(oracle, "SubsetTable", Recorded)
    monkeypatch.setattr(search, "finish_key", counted)
    return made, calls


@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_an_exhaustive_oracle_call_fills_each_set_once(tables, m, objective):
    made, calls = tables
    n = 6
    inst = random_instance(RandomSpec(n=n, m=m, m1=m, e0=F(1, 2), max_breakpoints=4, seed=m))
    assert exact_optimal(inst, objective).states_explored == m**n
    (table,) = made
    # every set shows on every machine at m >= 2; one machine takes one set of each size
    filled = 2**n if m > 1 else n + 1
    assert [len(finishes) for finishes in table._finishes] == [filled] * m
    assert calls[0] == m * (filled - 1)


def test_one_machine_walks_twelve_hundred_jobs_deep(tables):
    made, calls = tables
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
