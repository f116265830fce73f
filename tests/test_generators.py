"""Instance builders: gadget shapes, named examples, random generation."""

from fractions import Fraction as F

import pytest

from sharedsched import (
    NAMED_EXAMPLES,
    Objective,
    RandomSpec,
    exact_optimal,
    instance_from_json,
    instance_to_json,
    ls,
    ls_ect,
    lpt,
    lpt_ect,
    named_example,
    partition_gadget_makespan,
    partition_gadget_totaltime,
    random_instance,
    spt,
    spt_ect,
    validate_instance,
)


def test_makespan_gadget_shape():
    inst = partition_gadget_makespan([1, 1, 2], f=2)
    assert inst.m == 2
    assert inst.jobs == (F(1), F(1), F(2))
    for mp in inst.machines:
        first, second = mp.intervals
        assert (first.start, first.end, first.ratio) == (F(0), F(2), F(1))
        assert (second.start, second.end, second.ratio) == (F(2), F(10), F(1, 8))
    assert validate_instance(inst) == []


def test_totaltime_gadget_shape():
    inst = partition_gadget_totaltime([1, 1, 2], f=2)
    for mp in inst.machines:
        first, second = mp.intervals
        assert (first.start, first.end, first.ratio) == (F(0), F(2), F(1))
        assert second.end is None
        assert second.ratio == F(1, 24)  # 1 / (n * f * total)
    assert validate_instance(inst) == []


def test_gadgets_reject_bad_input():
    with pytest.raises(ValueError):
        partition_gadget_makespan([1, 1, 3], f=2)  # odd total
    with pytest.raises(ValueError):
        partition_gadget_makespan([1, 1, 2], f=1)
    with pytest.raises(ValueError):
        partition_gadget_makespan([0, 2], f=2)
    with pytest.raises(ValueError):
        partition_gadget_totaltime([1, -1], f=2)
    with pytest.raises(ValueError):
        partition_gadget_totaltime([1, 1, 2], f=1)
    for build in (partition_gadget_makespan, partition_gadget_totaltime):
        with pytest.raises(ValueError):
            build([], f=2)  # no jobs: nothing to split


def test_named_examples_all_validate():
    for name in NAMED_EXAMPLES:
        inst = named_example(name)
        assert validate_instance(inst) == [], name


def test_named_example_shapes():
    ls_bad = named_example("ls_bad", e0=F(1, 2), x=F(1, 100))
    assert (ls_bad.m, ls_bad.n, ls_bad.m1, ls_bad.e0) == (2, 2, 1, F(1, 2))
    tight = named_example("lsect_tight", e0=F(1, 2), x=F(10))
    assert (tight.m, tight.n, tight.m1) == (3, 5, 1)
    assert tight.jobs == (F(10), F(1), F(1), F(10), F(10))
    assert tight.machines[1].intervals[1].ratio == F(1, 60)  # e0/(3x)
    plus3 = named_example("spt_vs_sptect_plus3")
    assert plus3.jobs == (F(1), F(2), F(2), F(3))
    unbounded = named_example("spt_unbounded", alpha=F(50))
    assert unbounded.machines[1].intervals[0].ratio == F(1, 50)


def test_named_example_rejects_bad_parameters():
    with pytest.raises(ValueError):
        named_example("no_such_example")
    with pytest.raises(ValueError):
        named_example("spt_unbounded", alpha=F(1, 2))
    with pytest.raises(ValueError):
        named_example("ls_bad", e0=F(1, 4), x=F(1, 2))  # x above e0
    with pytest.raises(ValueError):
        named_example("lsect_tight", e0=F(1), x=F(1, 100))  # ratio above 1
    with pytest.raises(ValueError):
        named_example("lpt_n2", e0=F(2))


@pytest.mark.parametrize(
    "name, param",
    [
        ("lptect_322", "e0"),
        ("spt_vs_sptect", "x"),
        ("lpt_n2", "x"),
        ("ls_bad", "alpha"),
        ("spt_unbounded", "e0"),
    ],
)
def test_named_example_refuses_a_parameter_it_does_not_take(name, param):
    with pytest.raises(ValueError, match=f"^example {name} takes no parameter {param}$"):
        named_example(name, **{param: "1/3"})
    # an unknown name is named as such, whatever parameters come with it
    with pytest.raises(ValueError, match="^unknown example 'no_such_example'"):
        named_example("no_such_example", **{param: "1/3"})


@pytest.mark.parametrize(
    "name, params, rule, objective, ratio",
    [
        ("ls_bad", {}, ls, Objective.MAKESPAN, F(25)),
        ("ls_bad", {"e0": F(1), "x": F(1, 10)}, ls, Objective.MAKESPAN, F(5)),
        ("lsect_tight", {"x": F(10)}, ls_ect, Objective.MAKESPAN, F(4)),
        ("lsect_tight", {"x": F(1000)}, ls_ect, Objective.MAKESPAN, F(833, 167)),
        ("lsect_tight", {"e0": F(1, 4), "x": F(10)}, ls_ect, Objective.MAKESPAN, F(7)),
        ("lpt_n2", {"e0": F(1, 4)}, lpt, Objective.MAKESPAN, F(2)),
        ("lpt_n2", {"e0": F(1, 3)}, lpt, Objective.MAKESPAN, F(3, 2)),
        ("lptect_322", {}, lpt_ect, Objective.MAKESPAN, F(5, 4)),
        ("spt_vs_sptect", {}, spt, Objective.TOTAL_COMPLETION, F(8, 7)),
        ("spt_vs_sptect", {}, spt_ect, Objective.TOTAL_COMPLETION, F(1)),
        ("spt_vs_sptect_plus3", {}, spt, Objective.TOTAL_COMPLETION, F(1)),
        ("spt_vs_sptect_plus3", {}, spt_ect, Objective.TOTAL_COMPLETION, F(14, 13)),
        ("spt_unbounded", {"alpha": F(100)}, spt, Objective.TOTAL_COMPLETION, F(101, 3)),
        ("spt_unbounded", {"alpha": F(1000)}, spt, Objective.TOTAL_COMPLETION, F(1001, 3)),
    ],
)
def test_each_named_example_reaches_its_documented_ratio(name, params, rule, objective, ratio):
    # the closed forms in the builders' docstrings, at a few parameters
    inst = named_example(name, **params)
    schedule = rule(inst)
    value = schedule.makespan if objective is Objective.MAKESPAN else schedule.total_completion
    assert value / exact_optimal(inst, objective).objective_value == ratio


def test_string_parameters_parse_as_rationals():
    assert named_example("ls_bad", e0="1/2", x="1e-2") == named_example("ls_bad", e0=F(1, 2), x=F(1, 100))
    spec = RandomSpec(n=4, m=2, m1=2, e0="0.5", seed=3)
    assert random_instance(spec) == random_instance(RandomSpec(n=4, m=2, m1=2, e0=F(1, 2), seed=3))


def test_random_instances_are_deterministic_per_seed():
    spec = RandomSpec(n=6, m=3, m1=2, e0=F(1, 2), seed=42)
    a = random_instance(spec)
    b = random_instance(spec)
    assert a == b
    assert instance_to_json(a) == instance_to_json(b)
    c = random_instance(RandomSpec(n=6, m=3, m1=2, e0=F(1, 2), seed=43))
    assert c != a


def test_random_instances_respect_their_spec():
    for seed in range(40):
        spec = RandomSpec(
            n=5, m=3, m1=2, e0=F(2, 3), p_max=7, min_breakpoints=1, max_breakpoints=4, seed=seed
        )
        inst = random_instance(spec)
        assert validate_instance(inst) == []
        assert (inst.m, inst.n, inst.m1, inst.e0) == (3, 5, 2, F(2, 3))
        for p in inst.jobs:
            assert 0 < p <= 7
        for i, mp in enumerate(inst.machines, start=1):
            finite = [iv for iv in mp.intervals if iv.end is not None]
            assert 1 <= len(finite) <= 4
            for iv in mp.intervals:
                if i <= 2:
                    assert iv.ratio >= F(2, 3)
                assert 0 < iv.ratio <= 1
                # breakpoints stay on a coarse rational grid
                for t in (iv.start, iv.end):
                    if t is not None:
                        assert t.denominator <= 64


def test_random_instance_with_e0_one_is_fully_available():
    inst = random_instance(RandomSpec(n=4, m=2, m1=2, e0=F(1), seed=9))
    assert all(iv.ratio == 1 for mp in inst.machines for iv in mp.intervals)


def test_random_instances_round_trip_through_json():
    for seed in range(10):
        inst = random_instance(RandomSpec(n=3, m=2, m1=1, e0=F(1, 4), seed=seed))
        assert instance_from_json(instance_to_json(inst)) == inst


def test_random_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        random_instance(RandomSpec(n=3, m=2, m1=3, e0=F(1, 2)))
    with pytest.raises(ValueError):
        random_instance(RandomSpec(n=3, m=2, m1=1, e0=F(2)))
    with pytest.raises(ValueError):
        random_instance(RandomSpec(n=0, m=2, m1=1, e0=F(1, 2)))
    with pytest.raises(ValueError):
        random_instance(RandomSpec(n=3, m=2, m1=1, e0=F(1, 2), min_breakpoints=3, max_breakpoints=1))
