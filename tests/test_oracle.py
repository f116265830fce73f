"""Exhaustive oracle: cross-checks against naive enumeration, limits, helpers."""

import itertools
import random
import sys
from fractions import Fraction as F

import pytest

from sharedsched import (
    Instance,
    Objective,
    OracleLimitError,
    RandomSpec,
    evaluate,
    exact_optimal,
    lpt_ect,
    ls,
    ls_ect,
    named_example,
    random_instance,
    spt,
    spt_ect,
)
from sharedsched.capacity import finish_key
from sharedsched.model import MachineProfile

from oracle_checks import _spt_sum_full_speed, check_claim2_bound, verify_spt_within_machine


def _naive_optimal(inst, objective):
    """Independent reference: every assignment through evaluate(), in lexicographic order.

    Returns the optimal value and the first assignment reaching it.
    """
    best = None
    for vec in itertools.product(range(inst.m), repeat=inst.n):
        assignment = [[] for _ in range(inst.m)]
        for j, i in enumerate(vec):
            assignment[i].append(j)
        if objective is Objective.TOTAL_COMPLETION:
            assignment = [
                sorted(seq, key=lambda j: (inst.jobs[j], j)) for seq in assignment
            ]
        sched = evaluate(inst, assignment)
        value = sched.makespan if objective is Objective.MAKESPAN else sched.total_completion
        if best is None or value < best[0]:
            best = (value, sched.assignment)
    return best


def _cross_check_instances():
    for seed in range(3):
        for m, n in ((1, 6), (2, 7), (3, 6)):
            yield random_instance(RandomSpec(n=n, m=m, m1=max(m - 1, 1), e0=F(1, 2), seed=seed))
    # identical full-speed machines and few distinct lengths: ties everywhere
    rng = random.Random(5)
    for m, n in ((2, 7), (3, 7), (3, 5)):
        yield Instance(
            machines=(MachineProfile(intervals=()),) * m,
            jobs=tuple(F(rng.randint(1, 3)) for _ in range(n)),
            m1=m,
            e0=F(1),
        )


def test_oracle_makespan_on_worked_example():
    result = exact_optimal(named_example("lptect_322"), Objective.MAKESPAN)
    assert result.objective_value == F(4)
    assert result.states_explored == 8
    # the long job alone on the 3/4-speed machine, the short pair together
    assert result.best.assignment == ((1, 2), (0,))


def test_oracle_total_completion_on_worked_example():
    inst = named_example("lptect_322")
    result = exact_optimal(inst, Objective.TOTAL_COMPLETION)
    assert result.objective_value == _naive_optimal(inst, Objective.TOTAL_COMPLETION)[0]
    assert result.objective_value == F(29, 3)


def test_oracle_prefers_the_bounded_machine_in_ls_bad():
    inst = named_example("ls_bad", e0=F(1, 2), x=F(1, 100))
    assert exact_optimal(inst, Objective.MAKESPAN).objective_value == F(4)


def test_oracle_matches_naive_enumeration_on_random_instances():
    # same value and same minimizer: the lexicographically first one
    for inst in _cross_check_instances():
        for objective in Objective:
            got = exact_optimal(inst, objective)
            value, assignment = _naive_optimal(inst, objective)
            assert got.objective_value == value
            assert got.best.assignment == assignment
            assert got.best == evaluate(inst, assignment)
            assert got.states_explored == inst.m**inst.n


def test_oracle_makes_at_most_m_times_2_to_the_n_kernel_calls(monkeypatch):
    # the oracle's walk fills each job set's finish key with the integer kernel
    calls = []

    def counted(table, work):
        calls.append(work)
        return finish_key(table, work)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sharedsched" and getattr(module, "finish_key", None) is finish_key:
            monkeypatch.setattr(module, "finish_key", counted)
    inst = random_instance(RandomSpec(n=8, m=3, m1=2, e0=F(1, 2), seed=5))
    for objective in Objective:
        calls.clear()
        result = exact_optimal(inst, objective)
        assert result.states_explored == 3**8
        assert 0 < len(calls) <= 3 * 2**8


def test_oracle_value_is_reproduced_by_its_schedule():
    for seed in range(8):
        inst = random_instance(RandomSpec(n=5, m=2, m1=1, e0=F(1, 4), seed=seed))
        for objective in Objective:
            result = exact_optimal(inst, objective)
            again = evaluate(inst, result.best.assignment)
            value = again.makespan if objective is Objective.MAKESPAN else again.total_completion
            assert value == result.objective_value


def test_oracle_is_invariant_under_job_relabeling():
    rng = random.Random(3)
    for seed in range(8):
        inst = random_instance(RandomSpec(n=6, m=2, m1=2, e0=F(1, 2), seed=seed))
        perm = list(range(inst.n))
        rng.shuffle(perm)
        shuffled = Instance(
            machines=inst.machines,
            jobs=tuple(inst.jobs[j] for j in perm),
            m1=inst.m1,
            e0=inst.e0,
        )
        for objective in Objective:
            assert (
                exact_optimal(inst, objective).objective_value
                == exact_optimal(shuffled, objective).objective_value
            )


def test_oracle_never_beats_any_heuristic():
    for seed in range(10):
        inst = random_instance(RandomSpec(n=6, m=3, m1=1, e0=F(1, 2), seed=seed))
        opt_mk = exact_optimal(inst, Objective.MAKESPAN).objective_value
        for heuristic in (ls, ls_ect, lpt_ect):
            assert heuristic(inst).makespan >= opt_mk
        opt_tt = exact_optimal(inst, Objective.TOTAL_COMPLETION).objective_value
        for heuristic in (spt, spt_ect):
            assert heuristic(inst).total_completion >= opt_tt


def test_oracle_size_limits():
    big = random_instance(RandomSpec(n=11, m=2, m1=1, e0=F(1, 2), seed=0))
    with pytest.raises(OracleLimitError):
        exact_optimal(big, Objective.MAKESPAN)
    assert exact_optimal(big, Objective.MAKESPAN, max_n=12).objective_value > 0
    wide = random_instance(RandomSpec(n=2, m=5, m1=1, e0=F(1, 2), seed=0))
    with pytest.raises(OracleLimitError):
        exact_optimal(wide, Objective.MAKESPAN)


def test_oracle_takes_an_objective_by_its_value():
    inst = random_instance(RandomSpec(n=6, m=3, m1=3, e0=F(1, 2), seed=4))
    for objective in Objective:
        assert exact_optimal(inst, objective.value) == exact_optimal(inst, objective)
    with pytest.raises(ValueError):
        exact_optimal(inst, "sum")


def test_oracle_job_limit_ignores_the_environment(monkeypatch):
    # only the CLI reads SCHED_ORACLE_MAX_N; the library takes its limit from max_n
    big = random_instance(RandomSpec(n=11, m=2, m1=1, e0=F(1, 2), seed=0))
    for env in ("12", "abc"):
        monkeypatch.setenv("SCHED_ORACLE_MAX_N", env)
        with pytest.raises(OracleLimitError):
            exact_optimal(big, Objective.MAKESPAN)
        assert exact_optimal(big, Objective.MAKESPAN, max_n=12).objective_value > 0
        small = exact_optimal(named_example("lptect_322"), Objective.MAKESPAN)
        assert small.objective_value == 4


def test_spt_within_machine_holds_on_varied_profiles():
    for name in ("spt_vs_sptect_plus3", "lptect_322"):
        assert verify_spt_within_machine(named_example(name))
    for seed in range(6):
        inst = random_instance(RandomSpec(n=5, m=2, m1=1, e0=F(1, 3), seed=seed))
        assert verify_spt_within_machine(inst)


def test_spt_within_machine_respects_its_size_limit():
    inst = random_instance(RandomSpec(n=9, m=2, m1=1, e0=F(1, 2), seed=1))
    with pytest.raises(OracleLimitError):
        verify_spt_within_machine(inst)


def test_full_speed_spt_sum_matches_the_oracle():
    # the closed form used by the machine-count comparison, checked end to end
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(1, 6)
        m = rng.randint(1, 3)
        jobs = [F(rng.randint(1, 9)) for _ in range(n)]
        inst = Instance(
            machines=tuple(MachineProfile(intervals=()) for _ in range(m)),
            jobs=tuple(jobs),
            m1=m,
            e0=F(1),
        )
        opt = exact_optimal(inst, Objective.TOTAL_COMPLETION).objective_value
        assert _spt_sum_full_speed(sorted(jobs), m) == opt


def test_claim2_worked_example_and_random_sweep():
    assert check_claim2_bound([F(1), F(2), F(3)], m1=1, m=2)
    assert _spt_sum_full_speed([F(1), F(2), F(3)], 1) == F(10)
    assert _spt_sum_full_speed([F(1), F(2), F(3)], 2) == F(7)
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 10)
        m = rng.randint(1, 4)
        m1 = rng.randint(1, m)
        jobs = [F(rng.randint(1, 20), rng.randint(1, 4)) for _ in range(n)]
        assert check_claim2_bound(jobs, m1=m1, m=m)
    with pytest.raises(ValueError):
        check_claim2_bound([F(1)], m1=0, m=2)
