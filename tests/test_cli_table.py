"""Which algorithms each subcommand runs, and what `solve` reports about its parameters.

Pinned row by row so that a change to how the CLI names and dispatches
algorithms shows up as a failing case here.
"""

import csv
import io
import json
from fractions import Fraction as F

import pytest

from sharedsched import (
    Instance,
    MachineProfile,
    Objective,
    RandomSpec,
    Schedule,
    guarantee_ratio,
    instance_to_json,
    named_example,
    random_instance,
)
from sharedsched.cli import ALGORITHMS, main

MAKESPAN_RULES = ["ls", "lpt", "ls-ect", "lpt-ect"]
TOTALTIME_RULES = ["spt", "spt-ect"]

# (objective, epsilon, m1 >= m - 1) -> algorithm column, in order
LISTED = {
    ("makespan", None, True): MAKESPAN_RULES,
    ("makespan", None, False): MAKESPAN_RULES,
    ("makespan", "1/4", True): MAKESPAN_RULES + ["scheme-makespan"],
    ("makespan", "1/4", False): MAKESPAN_RULES + ["scheme-makespan"],
    ("totaltime", None, True): TOTALTIME_RULES,
    ("totaltime", None, False): TOTALTIME_RULES,
    ("totaltime", "1/4", True): TOTALTIME_RULES + ["scheme-totaltime"],
    ("totaltime", "1/4", False): TOTALTIME_RULES,
}


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def _column(out, name):
    return [row[name] for row in csv.DictReader(io.StringIO(out))]


@pytest.mark.parametrize("obj, epsilon, wide", sorted(LISTED, key=str))
def test_compare_lists_algorithms_in_order(capsys, tmp_path, obj, epsilon, wide):
    # m = 3: m1 = 2 meets m1 >= m - 1, m1 = 1 does not
    inst = random_instance(RandomSpec(n=4, m=3, m1=2 if wide else 1, e0=F(1, 2), seed=5))
    path = tmp_path / "inst.json"
    path.write_text(instance_to_json(inst))
    argv = ["compare", str(path), "--obj", obj] + (["--epsilon", epsilon] if epsilon else [])
    assert _column(_run(capsys, argv), "algorithm") == LISTED[(obj, epsilon, wide)] + ["oracle"]


@pytest.mark.parametrize("obj, epsilon, wide", sorted(LISTED, key=str))
def test_experiment_lists_algorithms_in_order(capsys, obj, epsilon, wide):
    argv = ["experiment", "--n", "4", "--m", "3", "--m1", "2" if wide else "1", "--e0", "1/2",
            "--trials", "2", "--obj", obj] + (["--epsilon", epsilon] if epsilon else [])
    assert _column(_run(capsys, argv), "algorithm") == LISTED[(obj, epsilon, wide)] * 2


# (alg, obj, extra flags) -> the report's "params" entries in order, None when absent
SOLVE_PARAMS = [
    ("ls", "makespan", [], None),
    ("lpt", "makespan", [], None),
    ("ls-ect", "makespan", [], None),
    ("lpt-ect", "makespan", [], None),
    ("spt", "totaltime", [], None),
    ("spt-ect", "totaltime", [], None),
    ("lpt-ect", "makespan", ["--epsilon", "1/4"], None),
    ("spt", "totaltime", ["--epsilon", "1/4", "--d", "2"], None),
    ("scheme-makespan", "makespan", ["--d", "2"], [("d", 2)]),
    ("scheme-makespan", "makespan", ["--epsilon", "1/2"], [("epsilon", "1/2"), ("d", 3)]),
    ("scheme-makespan", "makespan", ["--epsilon", "0.5", "--d", "2"], [("d", 2)]),
    ("scheme-totaltime", "totaltime", ["--epsilon", "1/4"], [("epsilon", "1/4")]),
    ("scheme-totaltime", "totaltime", ["--epsilon", "0.25"], [("epsilon", "1/4")]),
    ("oracle", "makespan", [], [("states_explored", 8)]),
    ("oracle", "totaltime", ["--epsilon", "1/4"], [("states_explored", 8)]),
]


@pytest.mark.parametrize("alg, obj, extra, params", SOLVE_PARAMS)
def test_solve_reports_exact_params(capsys, tmp_path, alg, obj, extra, params):
    path = tmp_path / "lptect_322.json"
    path.write_text(instance_to_json(named_example("lptect_322")))
    report = json.loads(_run(capsys, ["solve", str(path), "--alg", alg, "--obj", obj] + extra))
    assert report["algorithm"] == alg
    assert (list(report["params"].items()) if "params" in report else None) == params


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_every_algorithm_name_has_a_guarantee(name):
    # the names live both here and in guarantee_ratio, which raises on a name it does not know
    for m1 in (2, 3):
        for epsilon in (None, F(1, 2)):
            bound = guarantee_ratio(name, n=4, m=3, m1=m1, e0=F(1, 2), epsilon=epsilon)
            assert bound is None or bound >= 1


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_no_jobs_give_the_empty_schedule_and_no_machines_are_refused(name):
    alg = ALGORITHMS[name]
    machine = MachineProfile(intervals=())
    no_jobs = Instance(machines=(machine, machine), jobs=(), m1=2, e0=F(1, 2))
    no_machines = Instance(machines=(), jobs=(F(1), F(2)), m1=1, e0=F(1, 2))
    empty = Schedule(assignment=((), ()), completions=(), makespan=F(0), total_completion=F(0))
    for objective in [alg.objective] if alg.objective else list(Objective):
        # epsilon 1/2 and d = 0: the makespan scheme takes d as given
        assert alg.run(no_jobs, objective, F(1, 2), 0)[0] == empty
        with pytest.raises(ValueError, match="^instance has no machines$"):
            alg.run(no_machines, objective, F(1, 2), 0)
