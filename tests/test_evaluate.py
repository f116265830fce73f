"""`evaluate` against `reference_evaluate`, its `Fraction` one step at a time."""

import random
from fractions import Fraction as F

import pytest

from sharedsched import (
    Instance,
    MachineProfile,
    RandomSpec,
    Schedule,
    SharedInterval,
    evaluate,
    heuristics,
    model,
    random_instance,
)

from oracle_checks import reference_evaluate
from test_search import stress_instance


def _profile(*segments):
    intervals = []
    start = F(0)
    for end, ratio in segments:
        end = None if end is None else F(end)
        intervals.append(SharedInterval(start=start, end=end, ratio=F(ratio)))
        start = end
    return MachineProfile(intervals=tuple(intervals))


def _random_assignment(rng, n: int, m: int) -> list[list[int]]:
    order = list(range(n))
    rng.shuffle(order)
    assignment = [[] for _ in range(m)]
    for j in order:
        assignment[rng.randrange(m)].append(j)
    return assignment


def _check(inst, assignment):
    got = evaluate(inst, assignment)
    assert got == reference_evaluate(inst, assignment)
    assert all(type(value) is F for value in (*got.completions, got.makespan, got.total_completion))
    return got


def test_pool_sized_instances_match_the_reference():
    rng = random.Random(27)
    for seed in range(200):
        n, m = rng.randint(3, 8), rng.randint(2, 3)
        m1 = rng.randint(1, m)
        inst = random_instance(RandomSpec(n=n, m=m, m1=m1, e0=F(rng.choice((1, 2, 4)), 4), seed=seed))
        _check(inst, _random_assignment(rng, n, m))


def test_a_thousand_jobs_on_long_profiles_match_the_reference():
    rng = random.Random(1000)
    for seed in range(3):
        m = 5 + seed
        spec = RandomSpec(n=1000, m=m, m1=m - 1, e0=F(1, 4), seed=seed, min_breakpoints=20, max_breakpoints=40)
        inst = random_instance(spec)
        _check(inst, _random_assignment(rng, inst.n, m))
        # one machine holds every job, so its load passes its last breakpoint
        _check(inst, [list(range(inst.n))] + [[] for _ in range(m - 1)])


def test_mixed_job_denominators_match_the_reference():
    rng = random.Random(5)
    machines = (_profile((F(7, 3), F(2, 5)), (None, F(3, 7))), _profile((F(1, 2), 1), (4, F(5, 9))))
    for _ in range(50):
        jobs = tuple(F(rng.randint(1, 60), rng.randint(1, 12)) for _ in range(rng.randint(1, 12)))
        inst = Instance(machines=machines, jobs=jobs, m1=1, e0=F(1, 4))
        _check(inst, _random_assignment(rng, len(jobs), 2))


def test_the_makespan_comes_from_the_longest_machine_wherever_it_is():
    # machine 1 runs at 1/4 and ends last; machines 2 and 3 are full speed
    slow, full = _profile((None, F(1, 4))), MachineProfile(intervals=())
    inst = Instance(machines=(slow, full, full), jobs=(F(2), F(3), F(1), F(1)), m1=3, e0=F(1, 4))
    sched = _check(inst, [[0], [1], [2, 3]])
    assert sched.makespan == sched.completions[0] == 8


def test_an_idle_machine_adds_nothing():
    full = MachineProfile(intervals=())
    inst = Instance(machines=(full, _profile((1, F(1, 2))), full), jobs=(F(1), F(2)), m1=3, e0=F(1, 2))
    assert _check(inst, [[1, 0], [], []]).total_completion == 5
    assert _check(inst, [[], [0, 1], []]).makespan == F(7, 2)


def test_a_load_on_a_breakpoint_finishes_at_the_breakpoint():
    # cumulative work 1/2 at time 1 and 1 at time 3; the table stops at the
    # first breakpoint reaching the load, and the load still ends on it
    profile = _profile((1, F(1, 2)), (3, F(1, 4)), (4, F(1, 3)))
    for jobs, completions in (
        ((F(1, 2),), (F(1),)),
        ((F(1, 4), F(1, 4)), (F(1, 2), F(1))),
        ((F(1, 2), F(1, 2)), (F(1), F(3))),
        ((F(1, 4), F(1, 2)), (F(1, 2), F(2))),
    ):
        inst = Instance(machines=(profile,), jobs=jobs, m1=1, e0=F(1, 4))
        assert _check(inst, [list(range(len(jobs)))]).completions == completions


def test_no_jobs_give_the_empty_schedule():
    inst = Instance(machines=(_profile((1, F(1, 2))), MachineProfile(intervals=())), jobs=(), m1=1, e0=F(1, 2))
    sched = _check(inst, [[], []])
    assert (sched.completions, sched.makespan, sched.total_completion) == ((), 0, 0)


def test_a_job_of_negative_length_is_timed_as_the_reference_times_it():
    # the library's entry points do not validate: a load that drops keeps
    # the makespan at the machine's largest load, and one below 0 is refused
    profile = _profile((2, F(1, 2)))
    sched = _check(Instance(machines=(profile,), jobs=(F(3), F(-1)), m1=1, e0=F(1, 2)), [[0, 1]])
    assert sched.makespan == sched.completions[0] == 4
    inst = Instance(machines=(profile,), jobs=(F(3), F(-1), F(-5)), m1=1, e0=F(1, 2))
    for call in (evaluate, reference_evaluate):
        with pytest.raises(ValueError, match="^work must be nonnegative$"):
            call(inst, [[0, 1, 2]])


def test_no_machines_and_no_jobs_give_the_empty_schedule():
    inst = Instance(machines=(), jobs=(), m1=1, e0=F(1, 2))
    sched = _check(inst, [])
    assert sched == Schedule(assignment=(), completions=(), makespan=F(0), total_completion=F(0))
    # only the integer view refuses an instance with no machines
    with pytest.raises(ValueError, match="^instance has no machines$"):
        inst._view


def test_a_malformed_interval_on_any_machine_is_refused_before_any_job_is_timed():
    # machine 1's load drops below 0, which finish_time refuses, but every
    # machine's table is read, and machine 2's gap refused, before any timing
    gap = MachineProfile((SharedInterval(F(0), F(1), F(1, 2)), SharedInterval(F(2), F(3), F(1, 2))))
    inst = Instance(machines=(_profile((2, F(1, 2))), gap), jobs=(F(-1), F(1)), m1=1, e0=F(1, 2))
    with pytest.raises(ValueError) as refused:
        evaluate(inst, [[0], [1]])
    assert str(refused.value) == "machine 2 interval 2: starts at 2, expected 1"
    # with the gap closed, the load below 0 is refused as before
    closed = Instance((_profile((2, F(1, 2))), _profile((1, F(1, 2)))), inst.jobs, 1, F(1, 2))
    with pytest.raises(ValueError, match="^work must be nonnegative$"):
        evaluate(closed, [[0], [1]])


@pytest.mark.parametrize("count", [0, 1, 2, 3, 5])
def test_the_tree_total_is_the_sum_of_its_terms(count):
    rng = random.Random(count)
    sums = {}
    while len(sums) < count:
        sums[rng.randint(1, 10**12)] = rng.randint(-(10**15), 10**15)
    total = model._tree_total(sums)
    assert type(total) is F
    assert total == sum([F(num, den) for den, num in sums.items()], F(0))


def _round_robin(n: int, m: int) -> list[list[int]]:
    return [list(range(i, n, m)) for i in range(m)]


def test_the_total_on_long_profiles_is_the_sum_of_the_completions():
    # nearly every completion has a denominator of thousands of bits of its own
    inst = stress_instance(n=300)
    sched = evaluate(inst, _round_robin(inst.n, inst.m))
    assert sched.total_completion == sum(sched.completions, F(0))


def test_timing_a_schedule_builds_one_fraction_in_model_the_total(monkeypatch):
    # a count bounds the work on any host: each prefix load reaches
    # finish_time as an integer over the job denominator, so `model` builds
    # only the total, in `evaluate` and in a heuristic's `_schedule_of`
    # alike; summing one Fraction per completion denominator would build n more
    built = []

    def counted(*args):
        built.append(args)
        return F(*args)

    inst = stress_instance(n=60)
    monkeypatch.setattr(model, "Fraction", counted)
    evaluate(inst, _round_robin(inst.n, inst.m))
    assert len(built) == 1
    built.clear()
    heuristics.lpt(inst)
    assert len(built) == 1
