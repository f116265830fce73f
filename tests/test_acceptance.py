"""Acceptance suite: one test per criterion, each a single pass/fail line under -v.

Every check uses exact rational arithmetic; "exact" below means tolerance 0.
Run `pytest -v tests/test_acceptance.py` for the per-criterion lines and add
-s to see the detail output (counts and timings).
"""

import random
import time
from fractions import Fraction as F

import pytest

from sharedsched import (
    Instance,
    MachineProfile,
    Objective,
    SharedInterval,
    build_capacity_table,
    compute_d,
    evaluate,
    exact_optimal,
    finish_time,
    guarantee_ratio,
    ls,
    ls_ect,
    lpt_ect,
    makespan_scheme,
    named_example,
    partition_gadget_makespan,
    partition_gadget_totaltime,
    random_instance,
    spt,
    spt_ect,
    totaltime_scheme,
)
from sharedsched.generators import RandomSpec

from oracle_checks import verify_spt_within_machine, work_at


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_criterion_1_worked_examples_exact():
    # Three jobs [3, 2, 2], second machine at ratio 3/4: LPT-ECT lands on 5
    # while the optimum is 4.
    def bullet_1():
        inst = named_example("lptect_322")
        assert lpt_ect(inst).makespan == F(5)
        assert exact_optimal(inst, Objective.MAKESPAN).objective_value == F(4)

    # SPT beats / loses to SPT-ECT depending on one extra job.
    def bullet_2():
        inst = named_example("spt_vs_sptect")
        assert spt(inst).total_completion == F(8)
        assert spt_ect(inst).total_completion == F(7)
        plus3 = named_example("spt_vs_sptect_plus3")
        assert spt(plus3).total_completion == F(13)
        assert spt_ect(plus3).total_completion == F(14)

    # Input-order list scheduling can be off by e0/(2x); here exactly 25.
    def bullet_3():
        e0, x = F(1, 2), F(1, 100)
        inst = named_example("ls_bad", e0=e0, x=x)
        ls_value = ls(inst).makespan
        opt = exact_optimal(inst, Objective.MAKESPAN).objective_value
        assert ls_value == F(100)
        assert opt == F(4)
        assert ls_value / opt == F(25) == e0 / (2 * x)

    # LS-ECT tightness family: ratio approaches 1 + 2/e0 as x grows.
    def bullet_4(x):
        e0 = F(1, 2)
        inst = named_example("lsect_tight", e0=e0, x=F(x))
        value = ls_ect(inst).makespan
        opt = exact_optimal(inst, Objective.MAKESPAN).objective_value
        assert value == x + 2 + (2 * x - 2) / e0
        assert opt == x + 2
        return value / opt

    _, t1 = _timed(bullet_1)
    _, t2 = _timed(bullet_2)
    _, t3 = _timed(bullet_3)
    r10, t4a = _timed(lambda: bullet_4(10))
    r100, t4b = _timed(lambda: bullet_4(100))
    limit = 1 + 2 / F(1, 2)
    assert abs(r100 - limit) / limit <= F(1, 10)
    assert r100 > r10
    for t in (t1, t2, t3, t4a, t4b):
        assert t < 1.0
    print(
        "criterion 1 PASS: all worked examples exact"
        f" (ratios 25 and {r10}->{r100} vs {limit}; slowest bullet"
        f" {max(t1, t2, t3, t4a, t4b):.3f}s)"
    )


def _bound_pool():
    specs = []
    for m, m1_choices in ((2, (1, 2)), (3, (1, 2, 3))):
        for m1 in m1_choices:
            for e0 in (F(1, 4), F(1, 2), F(1)):
                for n in range(3, 9):
                    for trial in range(3):
                        seed = 100000 * m + 10000 * m1 + 100 * n + trial + int(e0 * 4)
                        specs.append(RandomSpec(n=n, m=m, m1=m1, e0=e0, seed=seed))
    return specs


def _tail_pool():
    # m=2, e0=1, epsilon=1/2: d=4 with m1=2 and d=8 with m1=1, below n
    return [
        RandomSpec(n=n, m=2, m1=m1, e0=F(1), seed=200000 + 10000 * m1 + 100 * n + trial)
        for m1 in (1, 2)
        for n in (9, 10)
        for trial in range(5)
    ]


def test_criterion_2_guarantee_bounds_hold_on_random_instances():
    start = time.perf_counter()
    pool = _bound_pool()
    assert len(pool) >= 200
    checked = {
        "ls": 0,
        "ls-ect": 0,
        "spt-ect": 0,
        "scheme-makespan": 0,
        "scheme-totaltime": 0,
        "scheme-makespan-tail": 0,
    }
    epsilons = (F(1, 4), F(1, 2))
    for spec in pool:
        inst = random_instance(spec)
        opt_mk = exact_optimal(inst, Objective.MAKESPAN).objective_value
        opt_tt = exact_optimal(inst, Objective.TOTAL_COMPLETION).objective_value
        where = f"seed={spec.seed} n={inst.n} m={inst.m} m1={inst.m1} e0={inst.e0}"

        if inst.m1 == inst.m:
            bound = guarantee_ratio("ls", n=inst.n, m=inst.m, m1=inst.m1, e0=inst.e0)
            assert ls(inst).makespan <= bound * opt_mk, f"ls bound broken: {where}"
            checked["ls"] += 1

        bound = guarantee_ratio("ls-ect", n=inst.n, m=inst.m, m1=inst.m1, e0=inst.e0)
        assert ls_ect(inst).makespan <= bound * opt_mk, f"ls-ect bound broken: {where}"
        checked["ls-ect"] += 1

        bound = guarantee_ratio("spt-ect", n=inst.n, m=inst.m, m1=inst.m1, e0=inst.e0)
        assert spt_ect(inst).total_completion <= bound * opt_tt, f"spt-ect bound broken: {where}"
        checked["spt-ect"] += 1

        for eps in epsilons:
            d = compute_d(inst.m, inst.m1, inst.e0, eps, inst.n)
            value = makespan_scheme(inst, d).makespan
            assert value <= (1 + eps) * opt_mk, f"makespan scheme broke eps={eps}: {where}"
            checked["scheme-makespan"] += 1
            if inst.m1 >= inst.m - 1:
                value = totaltime_scheme(inst, eps).total_completion
                assert value <= (1 + eps) * opt_tt, f"totaltime scheme broke eps={eps}: {where}"
                checked["scheme-totaltime"] += 1

    # the pool above mostly has d == n, where the makespan scheme is itself
    # exhaustive; here d < n, so its greedy tail places the remaining jobs
    eps = F(1, 2)
    tail_pool = _tail_pool()
    depths = set()
    for spec in tail_pool:
        inst = random_instance(spec)
        d = compute_d(inst.m, inst.m1, inst.e0, eps, inst.n)
        where = f"seed={spec.seed} n={inst.n} m1={inst.m1} d={d}"
        assert d < inst.n, f"no greedy tail: {where}"
        opt_mk = exact_optimal(inst, Objective.MAKESPAN).objective_value
        value = makespan_scheme(inst, d).makespan
        assert value <= (1 + eps) * opt_mk, f"makespan scheme broke with a tail: {where}"
        checked["scheme-makespan-tail"] += 1
        depths.add(d)

    elapsed = time.perf_counter() - start
    assert checked["ls"] >= 100
    assert checked["ls-ect"] == len(pool)
    assert checked["spt-ect"] == len(pool)
    assert checked["scheme-makespan"] == 2 * len(pool)
    assert checked["scheme-totaltime"] >= 2 * 200
    assert checked["scheme-makespan-tail"] == len(tail_pool) == 20
    assert depths == {4, 8}
    assert elapsed < 300.0
    print(
        f"criterion 2 PASS: zero bound violations over {len(pool)} instances"
        f" (checks per family: {checked}; {elapsed:.1f}s)"
    )


def _partitions(total):
    def rec(remaining, minimum):
        if remaining == 0:
            yield ()
            return
        for part in range(minimum, remaining + 1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    return rec(total, 1)


def _perfectly_partitionable(a):
    # Independent subset-sum check: bitset over reachable subset totals.
    total = sum(a)
    if total % 2:
        return False
    reachable = 1
    for value in a:
        reachable |= reachable << value
    return bool((reachable >> (total // 2)) & 1)


def test_criterion_3_partition_gadget_dichotomies():
    start = time.perf_counter()
    f = 2
    even_lists = odd_lists = split_yes = 0
    for total in range(1, 13):
        for a in _partitions(total):
            if total % 2:
                with pytest.raises(ValueError):
                    partition_gadget_makespan(a, f)
                with pytest.raises(ValueError):
                    partition_gadget_totaltime(a, f)
                odd_lists += 1
                continue
            even_lists += 1
            expected = _perfectly_partitionable(a)
            split_yes += expected

            inst = partition_gadget_makespan(a, f)
            opt = exact_optimal(inst, Objective.MAKESPAN, max_n=12).objective_value
            if expected:
                assert opt == F(total, 2), f"a={a}: makespan {opt} != A/2"
            else:
                assert opt > F(f * total, 2), f"a={a}: makespan {opt} <= fA/2"

            inst = partition_gadget_totaltime(a, f)
            opt = exact_optimal(inst, Objective.TOTAL_COMPLETION, max_n=12).objective_value
            assert (opt <= F(len(a) * total, 2)) == expected, f"a={a}: total {opt}"

    elapsed = time.perf_counter() - start
    assert even_lists == 159
    assert odd_lists == 112
    assert elapsed < 120.0
    print(
        f"criterion 3 PASS: dichotomy exact on all {even_lists} even-sum lists"
        f" ({split_yes} partitionable), odd sums rejected ({odd_lists});"
        f" {elapsed:.1f}s"
    )


def _scaled(inst, lam):
    machines = []
    for mach in inst.machines:
        intervals = tuple(
            SharedInterval(iv.start * lam, None if iv.end is None else iv.end * lam, iv.ratio)
            for iv in mach.intervals
        )
        machines.append(MachineProfile(intervals))
    return Instance(tuple(machines), tuple(p * lam for p in inst.jobs), inst.m1, inst.e0)


def test_criterion_4_kernel_invariants():
    start = time.perf_counter()
    rng = random.Random(20240)

    round_trips = 0
    while round_trips < 1000:
        spec = RandomSpec(
            n=3,
            m=rng.randint(1, 3),
            m1=1,
            e0=F(1, rng.randint(1, 4)),
            max_breakpoints=4,
            seed=rng.randrange(10**6),
        )
        for machine in random_instance(spec).machines:
            table = build_capacity_table(machine)
            samples = sorted(
                F(rng.randint(0, 400), rng.randint(1, 16)) for _ in range(6)
            )
            finishes = []
            for w in samples:
                t = finish_time(table, w)
                assert work_at(table, t) == w
                finishes.append(t)
                round_trips += 1
            pairs = list(zip(samples, finishes))
            for (w1, t1), (w2, t2) in zip(pairs, pairs[1:]):
                if w1 < w2:
                    assert t1 < t2

    scalings = 0
    for trial in range(40):
        spec = RandomSpec(n=5, m=3, m1=2, e0=F(1, 3), seed=777 + trial)
        inst = random_instance(spec)
        assignment = [[] for _ in range(inst.m)]
        for j in range(inst.n):
            assignment[rng.randrange(inst.m)].append(j)
        base = evaluate(inst, assignment)
        for lam in (F(7, 3), F(3), F(1, 7)):
            scaled = evaluate(_scaled(inst, lam), assignment)
            assert scaled.completions == tuple(lam * c for c in base.completions)
            assert scaled.makespan == lam * base.makespan
            scalings += 1

    spt_checks = 0
    for name in ("lptect_322", "spt_vs_sptect", "spt_vs_sptect_plus3", "lpt_n2"):
        assert verify_spt_within_machine(named_example(name), max_n=6)
        spt_checks += 1
    for trial in range(12):
        inst = random_instance(RandomSpec(n=6, m=2, m1=1, e0=F(1, 2), seed=31337 + trial))
        assert verify_spt_within_machine(inst, max_n=6)
        spt_checks += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"criterion 4 PASS: {round_trips} exact round-trips, monotone finishes,"
        f" {scalings} scaling checks, {spt_checks} shortest-first-within-machine"
        f" verifications; {elapsed:.1f}s"
    )


def test_criterion_5_full_speed_degeneration():
    start = time.perf_counter()
    for trial in range(100):
        n = 2 + trial % 6
        m = 2 + trial % 2
        inst = random_instance(RandomSpec(n=n, m=m, m1=m, e0=F(1), seed=50000 + trial))
        assert all(iv.ratio == 1 for mach in inst.machines for iv in mach.intervals)

        opt_tt = exact_optimal(inst, Objective.TOTAL_COMPLETION).objective_value
        assert spt_ect(inst).total_completion == opt_tt, f"trial {trial}"

        opt_mk = exact_optimal(inst, Objective.MAKESPAN).objective_value
        assert makespan_scheme(inst, inst.n).makespan == opt_mk, f"trial {trial}"

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        "criterion 5 PASS: on 100 full-speed instances SPT-ECT matches the"
        f" optimal completion-time sum and full-depth search matches the optimal"
        f" makespan; {elapsed:.1f}s"
    )
