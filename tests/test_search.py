"""The subset table behind the oracle and the schemes: exact values and their integer keys."""

import random
from fractions import Fraction as F

import pytest

from sharedsched import (
    NAMED_EXAMPLES,
    RandomSpec,
    finish_time,
    named_example,
    partition_gadget_makespan,
    partition_gadget_totaltime,
    random_instance,
)
from sharedsched.search import SubsetTable


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
    for i in range(inst.m):
        for mask in range(1 << inst.n):
            load, finish, cost, load_key, finish_key, cost_key = table.get(i, mask)
            assert load == sum((inst.jobs[j] for j in range(inst.n) if mask & table.bits[j]), F(0))
            assert finish == finish_time(table.capacity[i], load)
            assert (load_key, finish_key, cost_key) == (
                load * table.scale,
                finish * table.scale,
                cost * table.scale,
            )


def test_a_value_off_the_scale_raises_instead_of_rounding():
    table = SubsetTable(named_example("lsect_tight"))
    assert table.key(F(7, table.scale)) == 7
    with pytest.raises(ArithmeticError):
        table.key(F(1, 2 * table.scale))
