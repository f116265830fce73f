"""Accuracy-parameterized schemes and the geometric bucket machinery."""

import collections
import functools
import itertools
import random
import time
from fractions import Fraction as F

import pytest

from sharedsched import (
    GeometricBuckets,
    Instance,
    MachineProfile,
    Objective,
    OracleLimitError,
    OrderRule,
    RandomSpec,
    build_capacity_table,
    compute_d,
    evaluate,
    exact_optimal,
    finish_time,
    job_order,
    lpt_ect,
    makespan_scheme,
    named_example,
    random_instance,
    schemes,
    spt_ect,
    totaltime_scheme,
)

from oracle_checks import exact_bucket_index


def bucket_of(buckets, value):
    return buckets.index(value.numerator, value.denominator)


def similar(s1, s2, delta):
    """True when two (loads, costs) states agree bucket-by-bucket on every load and cost."""
    (loads1, costs1), (loads2, costs2) = s1, s2
    if len(loads1) != len(loads2):
        raise ValueError("states span different machine counts")
    buckets = GeometricBuckets(delta)
    return all(bucket_of(buckets, a) == bucket_of(buckets, b) for a, b in zip(loads1 + costs1, loads2 + costs2))


def unpack(state, inst):
    """A sweep state's per-machine job sets: machine i's set is bits i*n ... i*n+n-1."""
    full = (1 << inst.n) - 1
    return tuple(state >> i * inst.n & full for i in range(inst.m))


def decoder(inst):
    """Per-machine (loads, costs) of a sweep state's job sets, on the Fraction reference.

    Bit b of a set stands for the b-th job shortest first, and each machine
    runs its set in that order.
    """
    tables = [build_capacity_table(mp) for mp in inst.machines]
    order = job_order(inst.jobs, OrderRule.SPT)

    def decode(state):
        loads, costs = [], []
        for table, mask in zip(tables, unpack(state, inst)):
            load = cost = F(0)
            for b, j in enumerate(order):
                if mask >> b & 1:
                    load += inst.jobs[j]
                    cost += finish_time(table, load)
            loads.append(load)
            costs.append(cost)
        return tuple(loads), tuple(costs)

    return decode


def test_compute_d_worked_values():
    assert compute_d(2, 2, F(1, 2), F(1, 2), 100) == 8
    assert compute_d(2, 1, F(1, 2), F(1, 2), 100) == 16
    assert compute_d(2, 2, F(1, 2), F(1, 2), 3) == 3


def test_compute_d_rejects_bad_parameters():
    with pytest.raises(ValueError):
        compute_d(2, 2, F(1, 2), F(0), 10)
    with pytest.raises(ValueError):
        compute_d(2, 2, F(1, 2), F(1), 10)
    with pytest.raises(ValueError):
        compute_d(2, 2, F(3, 2), F(1, 2), 10)
    with pytest.raises(ValueError):
        compute_d(2, 3, F(1, 2), F(1, 2), 10)
    with pytest.raises(ValueError):
        compute_d(2, 2, F(1, 2), F(1, 2), -1)


def test_makespan_scheme_full_enumeration_is_optimal():
    inst = named_example("lptect_322")
    assert makespan_scheme(inst, inst.n).makespan == F(4)
    for seed in range(8):
        rnd = random_instance(RandomSpec(n=5, m=2, m1=1, e0=F(1, 2), seed=seed))
        opt = exact_optimal(rnd, Objective.MAKESPAN).objective_value
        assert makespan_scheme(rnd, rnd.n).makespan == opt


def _reference_scheme(inst, d):
    """Independent reference: every m^d placement of the d longest jobs in lexicographic order,
    each finished by the greedy earliest-completion tail; the first best one wins."""
    tables = [build_capacity_table(mp) for mp in inst.machines]
    by_length = job_order(inst.jobs, OrderRule.LPT)
    best = None
    for vec in itertools.product(range(inst.m), repeat=d):
        assignment = [[] for _ in range(inst.m)]
        loads = [F(0)] * inst.m
        for j, i in zip(by_length, vec):
            assignment[i].append(j)
            loads[i] += inst.jobs[j]
        for j in by_length[d:]:
            # earliest completion, ties to the lowest machine index
            i = min(range(inst.m), key=lambda i: finish_time(tables[i], loads[i] + inst.jobs[j]))
            assignment[i].append(j)
            loads[i] += inst.jobs[j]
        sched = evaluate(inst, assignment)
        if best is None or sched.makespan < best.makespan:
            best = sched
    return best


def test_makespan_scheme_matches_reference_enumeration():
    rng = random.Random(9)
    instances = [
        random_instance(RandomSpec(n=n, m=m, m1=1, e0=F(1, 3), seed=seed))
        for seed in range(3)
        for m, n in ((1, 5), (2, 7), (3, 6))
    ]
    # identical full-speed machines and few distinct lengths: ties everywhere
    instances += [
        Instance(
            machines=(MachineProfile(intervals=()),) * m,
            jobs=tuple(F(rng.randint(1, 3)) for _ in range(n)),
            m1=m,
            e0=F(1),
        )
        for m, n in ((2, 7), (3, 6))
    ]
    for inst in instances:
        for d in range(inst.n + 1):
            assert makespan_scheme(inst, d) == _reference_scheme(inst, d)


def test_makespan_scheme_refuses_beyond_the_oracle_ceiling():
    deep = random_instance(RandomSpec(n=20, m=3, m1=1, e0=F(1, 4), seed=1))
    started = time.perf_counter()
    with pytest.raises(OracleLimitError):
        makespan_scheme(deep, 20)
    # refused before any search work
    assert time.perf_counter() - started < 0.5
    # one machine has a single branch at any depth
    single = random_instance(RandomSpec(n=40, m=1, m1=1, e0=F(1, 2), seed=1))
    assert makespan_scheme(single, 40) == lpt_ect(single)


def test_totaltime_scheme_refuses_a_step_beyond_the_ceiling(monkeypatch):
    # delta=0 merges nothing, so before its k-th job the sweep extends 2^k
    # states onto 2 machines: 2, 4 and 8 for three jobs
    inst = random_instance(RandomSpec(n=3, m=2, m1=2, e0=F(1, 2), seed=1))
    monkeypatch.setattr(schemes, "_LIMIT", 8)
    steps = []
    totaltime_scheme(inst, F(1, 2), delta=F(0), on_step=lambda j, states: steps.append(len(states)))
    assert steps == [2, 4, 8]
    monkeypatch.setattr(schemes, "_LIMIT", 7)
    with pytest.raises(OracleLimitError):
        totaltime_scheme(inst, F(1, 2), delta=F(0))


def test_makespan_scheme_zero_depth_is_the_greedy_longest_first_run():
    for seed in range(8):
        inst = random_instance(RandomSpec(n=6, m=3, m1=2, e0=F(1, 2), seed=seed))
        assert makespan_scheme(inst, 0) == lpt_ect(inst)


def test_makespan_scheme_improves_monotonically_with_depth():
    for seed in range(6):
        inst = random_instance(RandomSpec(n=5, m=2, m1=1, e0=F(1, 3), seed=seed))
        values = [makespan_scheme(inst, d).makespan for d in range(inst.n + 1)]
        for a, b in zip(values, values[1:]):
            assert b <= a


def test_makespan_scheme_rejects_bad_depth():
    inst = named_example("lptect_322")
    with pytest.raises(ValueError):
        makespan_scheme(inst, -1)
    with pytest.raises(ValueError):
        makespan_scheme(inst, inst.n + 1)
    # a depth that is not an integer is refused as input, not as a TypeError
    for d in (2.5, "2", None):
        with pytest.raises(ValueError, match="is not an integer"):
            makespan_scheme(inst, d)
    # a bool is an int in Python, but not a depth
    for d in (True, False):
        with pytest.raises(ValueError, match=f"^d={d} is not an integer$"):
            makespan_scheme(inst, d)


def test_makespan_scheme_meets_its_guarantee():
    for seed in range(10):
        inst = random_instance(RandomSpec(n=6, m=3, m1=1, e0=F(1, 2), seed=seed))
        opt = exact_optimal(inst, Objective.MAKESPAN).objective_value
        for eps in (F(1, 4), F(1, 2)):
            d = compute_d(inst.m, inst.m1, inst.e0, eps, inst.n)
            assert makespan_scheme(inst, d).makespan <= (1 + eps) * opt


def test_bucket_indexing_at_delta_one():
    buckets = GeometricBuckets(F(1))
    assert bucket_of(buckets, F(0)) is None
    assert bucket_of(buckets, F(1)) == 0
    assert bucket_of(buckets, F(3, 2)) == 0
    assert bucket_of(buckets, F(2)) == 1
    assert bucket_of(buckets, F(1, 2)) == -1
    assert bucket_of(buckets, F(1, 3)) == -2
    assert bucket_of(buckets, F(1024)) == 10
    assert bucket_of(buckets, F(1023)) == 9


def test_bucket_indexing_is_exact_at_boundaries():
    buckets = GeometricBuckets(F(1, 3))
    q = F(4, 3)
    for x in (-40, -7, 0, 13, 60):
        edge = q**x
        assert bucket_of(buckets, edge) == x
        assert bucket_of(buckets, edge - F(1, 10**9)) == x - 1
    with pytest.raises(ValueError):
        bucket_of(buckets, F(-1))
    with pytest.raises(ValueError):
        GeometricBuckets(F(0))


@pytest.mark.parametrize("den", [0, -1, -3])
def test_bucket_index_refuses_a_denominator_that_is_not_positive(den):
    # -3/-3 would be 1, but only a positive denominator is taken
    buckets = GeometricBuckets(F(1))
    with pytest.raises(ValueError, match="denominator"):
        buckets.index(-3, den)
    with pytest.raises(ValueError, match="denominator"):
        buckets.index(0, den)
    assert buckets.index(6, 3) == buckets.index(2, 1) == 1


@pytest.mark.parametrize(
    "delta",
    [F(3), F(1), F(1, 2), F(1, 192), F(1, 768), F(1, 10**7), F(1, 10**8), F(1, 10**9)],
    ids=str,
)
def test_bucket_index_matches_exact_powers(delta):
    # at and just below q^x, where a float estimate is closest to an integer,
    # and on values near 1 and q^±1 written with 100-digit integers
    rng = random.Random(str(delta))
    q = 1 + delta
    values = []
    for x in [1, 2, 10, 11, 1000, rng.randint(100, 3000), 3 * 10**4]:
        for y in (x, -x):
            values += [(f"q^{y}", q**y), (f"q^{y}*(1-10^-60)", q**y * (1 - F(1, 10**60)))]
    for _ in range(30):
        den = rng.randrange(10**99, 10**100)
        near_one = F(den + rng.choice([-1, 1]) * rng.randrange(10 ** rng.randint(0, 95)), den)
        values += [(near_one, near_one), (f"q*{near_one}", q * near_one), (f"{near_one}/q", near_one / q)]
    buckets = GeometricBuckets(delta)
    for label, value in values:
        assert bucket_of(buckets, value) == exact_bucket_index(delta, value), label


def test_buckets_refuse_indices_with_oversized_powers():
    # q = 1 + 10^-400 is 1 in floating point; q = 1 + 10^-12 would need
    # powers of about 10^13 bits for the value 2
    for delta, value in [(F(1, 10**400), F(2)), (F(1, 10**400), F(1)), (F(1, 10**12), F(2))]:
        with pytest.raises(OracleLimitError):
            bucket_of(GeometricBuckets(delta), value)
    assert bucket_of(GeometricBuckets(F(1, 10**12)), F(1)) == 0
    with pytest.raises(OracleLimitError):
        totaltime_scheme(named_example("lptect_322"), F(1, 10**4))


def test_similar_compares_bucket_by_bucket():
    one = ((F(1),), (F(0),))
    similar_load = ((F(3, 2),), (F(0),))
    far_load = ((F(2),), (F(0),))
    assert similar(one, similar_load, F(1))
    assert not similar(one, far_load, F(1))
    # zero only matches zero
    zero = ((F(0),), (F(0),))
    tiny = ((F(1, 10**6),), (F(0),))
    assert not similar(zero, tiny, F(1))
    assert similar(zero, zero, F(1))
    with pytest.raises(ValueError):
        similar(one, ((F(1), F(1)), (F(0), F(0))), F(1))


def test_totaltime_scheme_on_worked_example():
    inst = named_example("spt_vs_sptect")
    assert totaltime_scheme(inst, F(1, 4)).total_completion == F(7)


def test_totaltime_scheme_single_machine_is_exact():
    for seed in range(6):
        inst = random_instance(RandomSpec(n=6, m=1, m1=1, e0=F(1, 2), seed=seed))
        opt = exact_optimal(inst, Objective.TOTAL_COMPLETION).objective_value
        assert totaltime_scheme(inst, F(1, 2)).total_completion == opt


def test_totaltime_scheme_without_merging_is_exact():
    for seed in range(8):
        inst = random_instance(RandomSpec(n=5, m=3, m1=2, e0=F(1, 2), seed=seed))
        opt = exact_optimal(inst, Objective.TOTAL_COMPLETION).objective_value
        assert totaltime_scheme(inst, F(1, 2), delta=F(0)).total_completion == opt


def test_totaltime_scheme_meets_its_guarantee():
    for seed in range(8):
        inst = random_instance(RandomSpec(n=6, m=2, m1=1, e0=F(1, 2), seed=seed))
        opt = exact_optimal(inst, Objective.TOTAL_COMPLETION).objective_value
        for eps in (F(1, 4), F(1, 2)):
            assert totaltime_scheme(inst, eps).total_completion <= (1 + eps) * opt


def test_totaltime_scheme_requires_bounded_prefix():
    inst = random_instance(RandomSpec(n=4, m=3, m1=1, e0=F(1, 2), seed=0))
    with pytest.raises(ValueError):
        totaltime_scheme(inst, F(1, 2))
    with pytest.raises(ValueError):
        totaltime_scheme(named_example("spt_vs_sptect"), F(2))
    with pytest.raises(ValueError):
        totaltime_scheme(named_example("spt_vs_sptect"), F(1, 2), delta=F(-1, 100))


def test_totaltime_scheme_takes_delta_and_on_step_by_keyword_only():
    inst = named_example("spt_vs_sptect")
    steps = []
    with pytest.raises(TypeError):
        totaltime_scheme(inst, F(1, 2), F(0))
    with pytest.raises(TypeError):
        totaltime_scheme(inst, F(1, 2), None, lambda j, s: steps.append(s))
    assert steps == []
    totaltime_scheme(inst, F(1, 2), delta=F(0), on_step=lambda j, s: steps.append(s))
    assert len(steps) == inst.n


def test_totaltime_scheme_never_keeps_two_similar_states():
    for seed in range(4):
        inst = random_instance(RandomSpec(n=5, m=2, m1=1, e0=F(1, 2), seed=seed))
        delta = F(1, 2)  # coarse buckets so merging actually happens
        decode = decoder(inst)
        steps = []
        totaltime_scheme(inst, F(1, 2), delta=delta, on_step=lambda j, s: steps.append(s))
        assert len(steps) == inst.n
        kept_total = sum(len(kept) for kept in steps)
        unpruned_total = sum(inst.m ** (i + 1) for i in range(inst.n))
        assert kept_total < unpruned_total
        for states in steps:
            kept = [decode(state) for state in states]
            for a in range(len(kept)):
                for b in range(a + 1, len(kept)):
                    assert not similar(kept[a], kept[b], delta)


def test_totaltime_scheme_survivor_rule_per_step():
    # replay each extension step by hand and check exactly who survives:
    # per bucket signature, the first state (in creation order) with the
    # smallest load on the last machine, the survivors in creation order;
    # identical full-speed machines tie on that load, where the older state stays
    tied = Instance(
        machines=(MachineProfile(intervals=()),) * 2, jobs=tuple(map(F, [1, 2, 1, 2, 1])),
        m1=2, e0=F(1),
    )
    for inst in (random_instance(RandomSpec(n=5, m=2, m1=1, e0=F(1, 2), seed=3)), tied):
        _check_survivors(inst, F(1, 2))
    # at m=4, where state s extended onto machine i sits at position 4s + i
    tied4 = Instance(
        machines=(MachineProfile(intervals=()),) * 4, jobs=tuple(map(F, [1, 2, 1, 2, 1])),
        m1=4, e0=F(1),
    )
    for inst in (random_instance(RandomSpec(n=5, m=4, m1=3, e0=F(1, 2), seed=0)), tied4):
        _check_survivors(inst, F(1, 2))


def test_totaltime_scheme_survivor_rule_at_the_default_delta():
    # three machines at delta = epsilon*e0/(6n): most steps share no bucket
    # pair on any machine; some merge two states that got the job on two
    # machines (on each, one holds the set the job made and the other a
    # parent set of equal buckets), some merge two that got it on one machine,
    # and some merge two tied on the last machine's load
    kinds = collections.Counter()
    for seed in range(12):
        m1 = 2 + seed % 2
        e0 = (F(1, 4), F(1, 2), F(1))[seed % 3]
        inst = random_instance(RandomSpec(n=5 + seed % 3, m=3, m1=m1, e0=e0, seed=seed))
        kinds += _check_survivors(inst, None)
    assert kinds["no shared pair"] > 0
    assert kinds["merged, the job on two machines"] > 0
    assert kinds["merged, the job on one machine"] > 0
    assert kinds["tied on the last load"] > 0


def _check_survivors(inst, delta):
    """Replay `totaltime_scheme(inst, 1/2, delta)` step by step on the Fraction
    reference, check its survivors, and count the kinds of step it met."""
    steps = []
    totaltime_scheme(inst, F(1, 2), delta=delta, on_step=lambda j, s: steps.append(s))
    if delta is None:
        delta = F(1, 2) * inst.e0 / (6 * inst.n)
    buckets = GeometricBuckets(delta)
    decode = decoder(inst)
    tables = [build_capacity_table(mp) for mp in inst.machines]
    n, m = inst.n, inst.m
    kinds = collections.Counter()
    prev = [(0, (F(0),) * m, (F(0),) * m)]  # (packed job sets, loads, costs)
    for b, (j, kept) in enumerate(zip(job_order(inst.jobs, OrderRule.SPT), steps)):
        p = inst.jobs[j]
        candidates = []
        for s_state, s_loads, s_costs in prev:
            for i in range(m):
                c = finish_time(tables[i], s_loads[i] + p)
                state = s_state | 1 << (i * n + b)
                loads = s_loads[:i] + (s_loads[i] + p,) + s_loads[i + 1 :]
                costs = s_costs[:i] + (s_costs[i] + c,) + s_costs[i + 1 :]
                candidates.append((state, loads, costs))
        # each candidate's buckets: its loads', then its costs'
        signatures = [tuple(bucket_of(buckets, v) for v in loads + costs) for _, loads, costs in candidates]
        # does any machine hold two sets whose (load, cost) buckets agree?
        held = [
            {(unpack(state, inst)[i], (sig[i], sig[m + i])) for (state, _, _), sig in zip(candidates, signatures)}
            for i in range(m)
        ]
        if all(len({pair for _, pair in sets}) == len(sets) for sets in held):
            kinds["no shared pair"] += 1
        survivors = {}  # signature: [position in creation order, state, loads, costs]
        for pos, ((state, loads, costs), sig) in enumerate(zip(candidates, signatures)):
            mate = survivors.get(sig)
            if mate is None:
                survivors[sig] = [pos, state, loads, costs]
                continue
            one_machine = mate[0] % m == pos % m
            kinds["merged, the job on one machine" if one_machine else "merged, the job on two machines"] += 1
            if loads[m - 1] == mate[2][m - 1]:
                kinds["tied on the last load"] += 1
            elif loads[m - 1] < mate[2][m - 1]:
                mate[:] = [pos, state, loads, costs]
        expected = [(state, loads, costs) for _, state, loads, costs in sorted(survivors.values())]
        assert list(kept) == [state for state, _, _ in expected]
        assert [decode(state) for state in kept] == [(loads, costs) for _, loads, costs in expected]
        prev = expected
    return kinds


@pytest.mark.parametrize(
    "jobs, m, kept_per_job",
    [
        ([1] * 6, 2, [2, 3, 4, 5, 6, 7]),
        ([1, 1, 2, 2, 3, 3, 1], 3, [3, 6, 10, 30, 60, 180, 360]),
        ([1, 1, 2, 2, 1], 4, [4, 10, 20, 80, 200]),
    ],
)
def test_merging_fires_at_the_default_delta(jobs, m, kept_per_job):
    # repeated integer lengths on full-speed machines: many states share
    # their loads and costs, so they merge even at delta = epsilon*e0/(6n)
    inst = Instance(
        machines=(MachineProfile(intervals=()),) * m, jobs=tuple(map(F, jobs)), m1=m, e0=F(1)
    )
    eps = F(1, 2)
    kept, unmerged = [], []
    value = totaltime_scheme(inst, eps, on_step=lambda j, s: kept.append(len(s)))
    exact = totaltime_scheme(inst, eps, delta=F(0), on_step=lambda j, s: unmerged.append(len(s)))
    assert kept == kept_per_job
    assert unmerged == [m ** (k + 1) for k in range(len(jobs))]
    assert sum(kept) < sum(unmerged)
    opt = exact_optimal(inst, Objective.TOTAL_COMPLETION).objective_value
    assert exact.total_completion == opt
    assert value.total_completion <= (1 + eps) * opt


def test_partial_state_chain_reproduces_the_returned_schedule():
    inst = named_example("spt_vs_sptect_plus3")
    finals = []
    sched = totaltime_scheme(inst, F(1, 2), on_step=lambda j, s: finals.append(s))
    decode = decoder(inst)
    states = [decode(state) for state in finals[-1]]
    # the first state of least cost, in creation order
    best_loads, best_costs = min(states, key=lambda s: sum(s[1], F(0)))
    assert sum(best_costs, F(0)) == sched.total_completion
    again = evaluate(inst, sched.assignment)
    for i, seq in enumerate(sched.assignment):
        assert sum((inst.jobs[j] for j in seq), F(0)) == best_loads[i]
        assert sum((again.completions[j] for j in seq), F(0)) == best_costs[i]


@pytest.mark.parametrize("delta", [None, F(1, 2), F(0)], ids=str)
def test_on_step_gets_job_sets_it_cannot_change(delta):
    inst = random_instance(RandomSpec(n=5, m=3, m1=2, e0=F(1, 2), seed=4))
    plain = totaltime_scheme(inst, F(1, 2), delta=delta)
    kept = []

    def keep_and_meddle(j, states):
        # a tuple of packed integers: neither it nor its states can be changed
        assert type(states) is tuple
        assert all(type(state) is int for state in states)
        with pytest.raises(TypeError):
            states[0] = 0
        with pytest.raises(TypeError):
            del states[-1]
        kept.append(states)

    assert totaltime_scheme(inst, F(1, 2), delta=delta, on_step=keep_and_meddle) == plain
    assert len(kept) == inst.n
    again = []
    totaltime_scheme(inst, F(1, 2), delta=delta, on_step=lambda j, s: again.append(s))
    assert kept == again


def _callback_cases():
    """Per m in 2-4 and n in 4-7: a seeded random instance with m1 = m - 1,
    and full-speed machines with repeated integer lengths, where states merge."""
    rng = random.Random(23)
    full = MachineProfile(intervals=())
    for m in (2, 3, 4):
        for n in (4, 5, 6, 7):
            yield random_instance(RandomSpec(n=n, m=m, m1=m - 1, e0=F(1, 2), seed=10 * m + n))
            jobs = tuple(F(rng.randint(1, 3)) for _ in range(n))
            yield Instance(machines=(full,) * m, jobs=jobs, m1=m, e0=F(1))


@pytest.mark.parametrize("delta", [None, F(0), F(1, 2)], ids=str)
def test_the_sweeps_choice_does_not_depend_on_the_callback(delta):
    # the schedule is the same with and without `on_step`, and it is the first
    # of the final states the callback gets whose cost, on the Fraction
    # reference, is least
    for inst in _callback_cases():
        steps = []
        called = totaltime_scheme(inst, F(1, 2), delta=delta, on_step=lambda j, s: steps.append(s))
        plain = totaltime_scheme(inst, F(1, 2), delta=delta)
        assert plain == called
        tables = [build_capacity_table(mp) for mp in inst.machines]
        order = job_order(inst.jobs, OrderRule.SPT)

        @functools.cache
        def cost(i, mask):
            done = [inst.jobs[j] for b, j in enumerate(order) if mask >> b & 1]
            return sum((finish_time(tables[i], load) for load in itertools.accumulate(done)), F(0))

        costs = [sum(itertools.starmap(cost, enumerate(unpack(state, inst)))) for state in steps[-1]]
        first = steps[-1][costs.index(min(costs))]
        machines = [tuple(j for b, j in enumerate(order) if mask >> b & 1) for mask in unpack(first, inst)]
        assert plain.assignment == tuple(machines), (inst, delta)
        assert plain.total_completion == min(costs)


def test_totaltime_scheme_never_beats_the_oracle_but_tracks_spt_ect():
    for seed in range(6):
        inst = random_instance(RandomSpec(n=5, m=2, m1=2, e0=F(3, 4), seed=seed))
        opt = exact_optimal(inst, Objective.TOTAL_COMPLETION).objective_value
        value = totaltime_scheme(inst, F(1, 4)).total_completion
        assert opt <= value <= spt_ect(inst).total_completion
