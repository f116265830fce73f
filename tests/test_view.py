"""The integer view an `Instance` keeps: built once, shared by every algorithm, never stale."""

import dataclasses
from fractions import Fraction as F

import pytest

from sharedsched import (
    Instance,
    MachineProfile,
    Objective,
    RandomSpec,
    SharedInterval,
    instance_from_json,
    instance_to_json,
    random_instance,
)
from sharedsched import capacity, cli, heuristics, model, oracle, schemes
from sharedsched.capacity import scale_instance

EPSILONS = (F(1, 4), F(1, 2))


def _runs(inst):
    """(label, call) for every `cli.ALGORITHMS` entry under each objective it
    serves, at each epsilon when it takes one, as `compare` lists them."""
    runs = []
    for name, alg in cli.ALGORITHMS.items():
        objectives = [alg.objective] if alg.objective else list(Objective)
        epsilons = (None,) if alg.listed(inst.m, inst.m1, None) else EPSILONS
        for objective in objectives:
            for eps in epsilons:
                runs.append(
                    (
                        f"{name} {objective.value} {eps}",
                        lambda inst, alg=alg, objective=objective, eps=eps: alg.run(
                            inst, objective, eps, None
                        )[0],
                    )
                )
    return runs


@pytest.fixture
def builds(monkeypatch):
    """The number of views built: `scale_instance` counted under every
    name the package binds it to, the property's own call site included."""
    count = [0]

    def counted(inst):
        count[0] += 1
        return scale_instance(inst)

    for module in (capacity, model, heuristics, oracle, schemes, cli):
        if hasattr(module, "scale_instance"):
            monkeypatch.setattr(module, "scale_instance", counted)
    return count


def _instances():
    # m1 >= m - 1 throughout, so every entry runs, the total-time scheme included
    return [
        random_instance(RandomSpec(n=n, m=m, m1=m1, e0=e0, seed=seed))
        for seed, (n, m, m1, e0) in enumerate(
            [(5, 2, 1, F(1, 2)), (6, 3, 2, F(1, 4)), (4, 3, 3, F(1)), (7, 2, 2, F(1, 4))]
        )
    ]


@pytest.mark.parametrize("inst", _instances())
def test_every_algorithm_on_one_instance_builds_the_view_once(inst, builds):
    runs = _runs(inst)
    assert len(runs) == 12  # six rules, each scheme at two epsilons, the oracle twice
    for _, run in runs:
        run(inst)
    assert builds[0] == 1


def test_a_replaced_instance_gets_a_view_of_its_own(builds):
    inst = random_instance(RandomSpec(n=5, m=2, m1=2, e0=F(1, 2), seed=3))
    scale, sizes, scaled = inst._view
    assert sizes == tuple(p * scale for p in inst.jobs)
    longer = dataclasses.replace(inst, jobs=inst.jobs[1:] + (F(7, 3),))
    new_scale, new_sizes, new_scaled = longer._view
    assert builds[0] == 2
    assert new_sizes == tuple(p * new_scale for p in longer.jobs) != sizes
    assert (new_scale, new_sizes, new_scaled) == scale_instance(longer)
    # the first instance keeps its own view
    assert inst._view == (scale, sizes, scaled)
    assert builds[0] == 2


def _gap():
    """`tools/output_digest.py`'s `malformed gap` instance: a profile with a
    gap between its intervals, as the second of two machines."""
    gap = MachineProfile(
        intervals=(
            SharedInterval(F(0), F(1), F(1, 2)),
            SharedInterval(F(2), F(3), F(1, 2)),
        )
    )
    return Instance((MachineProfile(intervals=()), gap), (F(2), F(1), F(1)), 1, F(1, 2))


@pytest.mark.parametrize(
    "inst, message",
    [
        (Instance(machines=(), jobs=(F(1), F(2)), m1=1, e0=F(1, 2)), "instance has no machines"),
        (_gap(), "machine 2 interval 2: starts at 2, expected 1"),
    ],
    ids=["no-machines", "gap"],
)
def test_a_refused_view_is_refused_again_with_the_same_message(inst, message, builds):
    for attempt in (1, 2):
        with pytest.raises(ValueError) as refused:
            inst._view
        assert str(refused.value) == message
        assert builds[0] == attempt
    # nor are the exact tables the view is built from kept
    assert "_view" not in vars(inst) and "_exact" not in vars(inst)
    # each algorithm refuses it again, with the message it gave the first time
    for label, run in _runs(inst):
        messages = []
        for _ in (1, 2):
            with pytest.raises(ValueError) as refused:
                run(inst)
            messages.append(str(refused.value))
        assert messages[0] == messages[1], label


@pytest.mark.parametrize("inst", _instances())
def test_a_shared_view_gives_the_schedules_of_fresh_instances(inst):
    runs = _runs(inst)
    # dataclasses.replace with no change: an equal instance with no view yet
    fresh = {label: run(dataclasses.replace(inst)) for label, run in runs}
    forward = {label: run(inst) for label, run in runs}
    backward = {label: run(inst) for label, run in reversed(runs)}
    assert forward == fresh
    assert backward == fresh
    assert inst._view == scale_instance(inst)


@pytest.mark.parametrize("inst", _instances())
def test_float_jobs_give_the_schedules_of_the_equal_fraction_jobs(inst):
    # a float is read exactly, as the Fraction it equals, by the view and by evaluate
    floats = dataclasses.replace(inst, jobs=tuple(float(p) for p in inst.jobs))
    exact = dataclasses.replace(inst, jobs=tuple(F(p) for p in floats.jobs))
    assert any(p.denominator > 2**40 for p in exact.jobs)
    # and written exactly, so the round trip gives the same instance
    assert instance_from_json(instance_to_json(floats)) == exact
    for label, run in _runs(inst):
        assert run(floats) == run(exact), label
