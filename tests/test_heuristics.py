"""Greedy list schedulers: worked examples, tie-breaks, placement invariants."""

import random
from fractions import Fraction as F

import pytest

from sharedsched import (
    Instance,
    MachineProfile,
    OrderRule,
    PlacementRule,
    RandomSpec,
    build_capacity_table,
    compute_d,
    finish_time,
    guarantee_ratio,
    job_order,
    list_schedule,
    lpt,
    lpt_ect,
    ls,
    ls_ect,
    named_example,
    random_instance,
    spt,
    spt_ect,
)

from oracle_checks import reference_job_order, reference_list_schedule


def test_job_order_rules_and_index_tie_breaks():
    jobs = (F(2), F(3), F(2), F(1))
    assert job_order(jobs, OrderRule.INPUT) == [0, 1, 2, 3]
    assert job_order(jobs, OrderRule.LPT) == [1, 0, 2, 3]
    assert job_order(jobs, OrderRule.SPT) == [3, 0, 2, 1]
    # many equal lengths, in both directions: each tie keeps index order
    rng = random.Random(4)
    for n in (1, 2, 7, 60, 300):
        jobs = tuple(F(rng.randint(1, 3), rng.choice([1, 1, 2])) for _ in range(n))
        for rule in OrderRule:
            assert job_order(jobs, rule) == reference_job_order(jobs, rule)
    jobs = (F(1),) * 4 + (F(2),) * 3 + (F(1),) * 2
    assert job_order(jobs, OrderRule.LPT) == [4, 5, 6, 0, 1, 2, 3, 7, 8]
    assert job_order(jobs, OrderRule.SPT) == [0, 1, 2, 3, 7, 8, 4, 5, 6]


def test_job_order_takes_a_rule_by_its_value():
    jobs = (F(2), F(3), F(2), F(1))
    for rule in OrderRule:
        assert job_order(jobs, rule.value) == job_order(jobs, rule)
    with pytest.raises(ValueError):
        job_order(jobs, "longest")


def test_list_schedule_takes_its_rules_by_their_values():
    inst = random_instance(RandomSpec(n=6, m=3, m1=3, e0=F(1, 2), seed=4))
    for order in OrderRule:
        for placement in PlacementRule:
            assert list_schedule(inst, order.value, placement.value) == list_schedule(
                inst, order, placement
            )
    assert list_schedule(inst, "lpt", "earliest-completion") == lpt_ect(inst)
    for order, placement in (("longest", "earliest-start"), ("lpt", "earliest")):
        with pytest.raises(ValueError):
            list_schedule(inst, order, placement)


def test_ls_splits_across_a_nearly_unavailable_machine():
    inst = named_example("ls_bad", e0=F(1, 2), x=F(1, 100))
    sched = ls(inst)
    assert sched.makespan == F(100)
    assert sched.assignment == ((0,), (1,))


def test_ls_ect_avoids_the_nearly_unavailable_machine():
    inst = named_example("ls_bad", e0=F(1, 2), x=F(1, 100))
    sched = ls_ect(inst)
    assert sched.makespan == F(4)
    assert sched.assignment == ((0, 1), ())


def test_lpt_spreads_two_jobs_but_lpt_ect_stacks_them():
    inst = named_example("lpt_n2", e0=F(1, 4))
    assert lpt(inst).makespan == F(4)  # one job lands on the 1/4-speed machine
    assert lpt_ect(inst).makespan == F(2)


def test_lpt_ect_worked_example_with_three_jobs():
    inst = named_example("lptect_322")
    sched = lpt_ect(inst)
    assert sched.makespan == F(5)
    assert sched.completions == (F(3), F(8, 3), F(5))
    assert sched.assignment == ((0, 2), (1,))


def test_spt_and_spt_ect_worked_examples():
    inst = named_example("spt_vs_sptect")
    assert spt(inst).total_completion == F(8)
    assert spt_ect(inst).total_completion == F(7)
    bigger = named_example("spt_vs_sptect_plus3")
    assert spt(bigger).total_completion == F(13)
    assert spt_ect(bigger).total_completion == F(14)


def test_machine_ties_go_to_the_lowest_index():
    inst = named_example("spt_vs_sptect")
    sched = spt_ect(inst)
    # the first job completes at 1 on both machines; machine 1 wins
    assert 0 in sched.assignment[0]
    sched = spt(inst)
    assert 0 in sched.assignment[0]


def test_earliest_completion_choice_is_optimal_per_step():
    # replay each placement and confirm no other machine finishes the job sooner
    for seed in range(25):
        inst = random_instance(RandomSpec(n=7, m=3, m1=1, e0=F(1, 2), seed=seed))
        tables = [build_capacity_table(mp) for mp in inst.machines]
        sched = list_schedule(inst, OrderRule.INPUT, PlacementRule.EARLIEST_COMPLETION)
        loads = [F(0)] * inst.m
        placed_on = {j: i for i, seq in enumerate(sched.assignment) for j in seq}
        for j in range(inst.n):
            i = placed_on[j]
            chosen = finish_time(tables[i], loads[i] + inst.jobs[j])
            for other in range(inst.m):
                hypothetical = finish_time(tables[other], loads[other] + inst.jobs[j])
                assert chosen <= hypothetical
            loads[i] += inst.jobs[j]
            assert sched.completions[j] == chosen


def test_earliest_start_and_earliest_completion_agree_at_full_speed():
    for seed in range(25):
        inst = random_instance(RandomSpec(n=8, m=3, m1=3, e0=F(1), seed=seed))
        assert all(iv.ratio == 1 for mp in inst.machines for iv in mp.intervals)
        assert ls(inst).assignment == ls_ect(inst).assignment
        assert lpt(inst).assignment == lpt_ect(inst).assignment


def test_wrappers_match_list_schedule():
    inst = named_example("spt_vs_sptect_plus3")
    assert spt(inst) == list_schedule(inst, OrderRule.SPT, PlacementRule.EARLIEST_START)
    assert lpt_ect(inst) == list_schedule(inst, OrderRule.LPT, PlacementRule.EARLIEST_COMPLETION)


def test_guarantee_ratio_formulas():
    half = F(1, 2)
    assert guarantee_ratio("ls", n=5, m=3, m1=3, e0=half) == F(3)
    assert guarantee_ratio("ls", n=5, m=3, m1=2, e0=half) is None
    assert guarantee_ratio("ls-ect", n=5, m=3, m1=1, e0=half) == F(7)
    assert guarantee_ratio("ls-ect", n=5, m=3, m1=2, e0=half) == F(3)
    assert guarantee_ratio("lpt-ect", n=5, m=3, m1=1, e0=half) == 1 + (2 + F(3, 5)) * 2
    assert guarantee_ratio("lpt-ect", n=5, m=3, m1=2, e0=half) == 1 + F(3, 5) * 2
    assert guarantee_ratio("spt", n=5, m=3, m1=1, e0=half) is None
    assert guarantee_ratio("spt-ect", n=5, m=2, m1=1, e0=half) == F(4)
    assert guarantee_ratio("scheme-makespan", n=5, m=2, m1=1, e0=half, epsilon=F(1, 4)) == F(5, 4)
    assert guarantee_ratio("oracle", n=5, m=2, m1=1, e0=half) == F(1)
    with pytest.raises(ValueError):
        guarantee_ratio("nope", n=5, m=2, m1=1, e0=half)


@pytest.mark.parametrize(
    "shape",
    [
        {"n": 0, "m": 2, "m1": 1, "e0": F(1, 2)},
        {"n": -1, "m": 2, "m1": 2, "e0": F(1, 2)},
        {"n": 5, "m": 2, "m1": 0, "e0": F(1, 2)},
        {"n": 5, "m": 2, "m1": 5, "e0": F(1, 2)},
        {"n": 5, "m": 0, "m1": 0, "e0": F(1, 2)},
        {"n": 5, "m": 2, "m1": 2, "e0": F(0)},
        {"n": 5, "m": 2, "m1": 2, "e0": F(-1, 2)},
        {"n": 5, "m": 2, "m1": 2, "e0": F(3, 2)},
    ],
    ids=["n-0", "n-negative", "m1-0", "m1-above-m", "m-0", "e0-0", "e0-negative", "e0-above-1"],
)
def test_guarantee_ratio_refuses_shapes_outside_its_domain(shape):
    for algorithm in ("ls", "lpt", "ls-ect", "lpt-ect", "spt", "spt-ect", "scheme-makespan",
                      "scheme-totaltime", "oracle"):
        with pytest.raises(ValueError):
            guarantee_ratio(algorithm, epsilon=F(1, 4), **shape)


@pytest.mark.parametrize("epsilon", [-1, 0, 1, 7, "abc"])
def test_guarantee_ratio_refuses_an_epsilon_the_schemes_refuse(epsilon):
    with pytest.raises(ValueError) as refused:
        compute_d(2, 1, F(1, 2), epsilon, 5)
    if epsilon != "abc":
        assert str(refused.value) == f"epsilon={epsilon} is outside (0, 1)"
    for algorithm in ("scheme-makespan", "scheme-totaltime"):
        with pytest.raises(ValueError) as exc:
            guarantee_ratio(algorithm, n=5, m=2, m1=1, e0=F(1, 2), epsilon=epsilon)
        assert str(exc.value) == str(refused.value)


def test_no_machines_is_refused_by_name():
    refusals = (
        lambda: guarantee_ratio("ls", n=5, m=0, m1=0, e0=F(1, 2)),
        lambda: compute_d(0, 0, F(1, 2), F(1, 2), 5),
        lambda: random_instance(RandomSpec(n=3, m=0, m1=0, e0=F(1, 2))),
    )
    for refused in refusals:
        with pytest.raises(ValueError, match=r"^m=0 must be at least 1$"):
            refused()
    # e0 is still named first, and m before m1
    with pytest.raises(ValueError, match=r"^e0=2 is outside \(0, 1\]$"):
        guarantee_ratio("ls", n=5, m=0, m1=0, e0=F(2))
    with pytest.raises(ValueError, match=r"^m=-1 must be at least 1$"):
        compute_d(-1, 1, F(1, 2), F(1, 2), 5)


def test_guarantee_ratio_at_the_edges_of_its_domain():
    # n = 1, m1 = m and e0 = 1 are all allowed
    assert guarantee_ratio("lpt-ect", n=1, m=2, m1=2, e0=F(1)) == 1 + F(2)
    assert guarantee_ratio("spt-ect", n=1, m=1, m1=1, e0=F(1)) == F(1)
    assert guarantee_ratio("ls", n=3, m=3, m1=3, e0=F(1, 10**6)) == 1 + 10**6


def _reference_instances():
    rng = random.Random(11)
    for k in range(200):
        m, n = rng.randint(1, 7), rng.randint(1, 60)
        if k % 3 == 0:
            # identical full-speed machines and few distinct lengths: ties everywhere
            yield Instance(
                machines=(MachineProfile(intervals=()),) * m,
                jobs=tuple(F(rng.randint(1, 4), rng.choice([1, 2])) for _ in range(n)),
                m1=m,
                e0=F(1),
            )
        else:
            yield random_instance(
                RandomSpec(
                    n=n,
                    m=m,
                    m1=rng.randint(1, m),
                    e0=rng.choice([F(1, 4), F(1, 2), F(1)]),
                    max_breakpoints=rng.randint(0, 40),
                    seed=k,
                )
            )


def test_every_rule_matches_the_fraction_reference():
    # integer placement keys decide exactly as Fraction finish times do
    for inst in _reference_instances():
        for order in OrderRule:
            for placement in PlacementRule:
                assert list_schedule(inst, order, placement) == reference_list_schedule(
                    inst, order, placement
                )
