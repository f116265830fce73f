"""Command line behavior: reports, CSV shapes, exit codes, determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from sharedsched import evaluate, generators, instance_from_json, instance_to_json, named_example, schemes
from sharedsched.cli import ALGORITHMS, CEILINGS, main
from sharedsched.generators import RandomSpec, random_instance


@pytest.fixture()
def example_path(tmp_path):
    path = tmp_path / "lptect_322.json"
    path.write_text(instance_to_json(named_example("lptect_322")))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_reports_value_completions_and_assignment(capsys, example_path):
    code, out, err = _run(capsys, ["solve", example_path, "--alg", "lpt-ect", "--obj", "makespan"])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["algorithm"] == "lpt-ect"
    assert report["value"] == "5"
    assert report["completions"] == ["3", "8/3", "5"]
    assert report["assignment"] == [[1, 3], [2]]
    assert len(report["instance_digest"]) == 64
    assert report["wall_time_s"] >= 0


def test_instance_digest_is_the_sha256_of_the_canonical_instance(capsys, tmp_path):
    argv = ["gadget", "random", "--n", "12", "--m", "3", "--e0", "1/2", "--max-breakpoints", "4"]
    code, text, _ = _run(capsys, argv + ["--seed", "5"])
    assert code == 0 and text.endswith("}\n")
    payload = json.loads(text)
    # the same instance spelled otherwise: 2/4 for e0, keys reversed, no indent
    respelled = dict(reversed(list(dict(payload, e0="2/4").items())))
    digests = []
    for name, content in (("canonical", text), ("respelled", json.dumps(respelled))):
        path = tmp_path / f"{name}.json"
        path.write_text(content)
        code, out, _ = _run(capsys, ["solve", str(path), "--alg", "ls", "--obj", "makespan"])
        assert code == 0
        digests.append(json.loads(out)["instance_digest"])
    assert digests == [hashlib.sha256(text[:-1].encode("utf-8")).hexdigest()] * 2


def test_solve_report_value_is_rederivable(capsys, example_path):
    code, out, _ = _run(capsys, ["solve", example_path, "--alg", "spt-ect", "--obj", "totaltime"])
    assert code == 0
    report = json.loads(out)
    inst = named_example("lptect_322")
    assignment = [[j - 1 for j in seq] for seq in report["assignment"]]
    sched = evaluate(inst, assignment)
    assert str(sched.total_completion) == report["value"]
    assert [str(c) for c in sched.completions] == report["completions"]


def test_solve_oracle_and_schemes(capsys, example_path):
    code, out, _ = _run(capsys, ["solve", example_path, "--alg", "oracle", "--obj", "makespan"])
    assert code == 0
    report = json.loads(out)
    assert report["value"] == "4"
    assert report["params"]["states_explored"] == 8

    code, out, _ = _run(
        capsys,
        ["solve", example_path, "--alg", "scheme-makespan", "--obj", "makespan", "--epsilon", "1/2"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["value"] == "4"
    assert report["params"]["d"] == 3

    code, out, _ = _run(
        capsys,
        ["solve", example_path, "--alg", "scheme-totaltime", "--obj", "totaltime", "--epsilon", "1/4"],
    )
    assert code == 0
    assert json.loads(out)["value"] == "29/3"


def test_solve_decimal_flag(capsys, example_path):
    code, out, _ = _run(
        capsys, ["solve", example_path, "--alg", "lpt-ect", "--obj", "makespan", "--decimal"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["value"] == "5.0"
    assert report["completions"][1] == repr(8 / 3)


def test_every_solve_report_is_written_as_json_dumps_writes_it(capsys, example_path):
    # json.loads gives back the report's strings, ints and float unchanged
    shown = set()
    for name, alg in ALGORITHMS.items():
        for obj in [alg.objective.value] if alg.objective else ["makespan", "totaltime"]:
            for extra in ([], ["--epsilon", "1/2"], ["--d", "2"], ["--decimal", "--epsilon", "1/4"]):
                argv = ["solve", example_path, "--alg", name, "--obj", obj, *extra]
                code, out, _ = _run(capsys, argv)
                if code != 0:  # a scheme without the --epsilon (or --d) it needs
                    continue
                report = json.loads(out)
                assert out == json.dumps(report, indent=2) + "\n", argv
                shown.add((name, "params" in report, "--decimal" in extra))
    assert {name for name, _, _ in shown} == set(ALGORITHMS)
    assert {(params, decimal) for _, params, decimal in shown} == {
        (False, False), (False, True), (True, False), (True, True)
    }


def test_solve_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(instance_to_json(named_example("lptect_322"))))
    code, out, _ = _run(capsys, ["solve", "-", "--alg", "ls", "--obj", "makespan"])
    assert code == 0
    assert json.loads(out)["value"] == "16/3"


def test_solve_input_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code, _, err = _run(capsys, ["solve", str(bad), "--alg", "ls", "--obj", "makespan"])
    assert code == 2
    assert json.loads(err)["error"] == "input"

    code, _, err = _run(capsys, ["solve", str(tmp_path / "missing.json"), "--alg", "ls", "--obj", "makespan"])
    assert code == 2

    # scheme without its accuracy parameter
    path = tmp_path / "ok.json"
    path.write_text(instance_to_json(named_example("lptect_322")))
    code, _, err = _run(capsys, ["solve", str(path), "--alg", "scheme-makespan", "--obj", "makespan"])
    assert code == 2
    assert "epsilon" in json.loads(err)["message"]


def test_solve_oracle_limit_exits_3(capsys, tmp_path, monkeypatch):
    inst = random_instance(RandomSpec(n=12, m=2, m1=1, e0=F(1, 2), seed=0))
    path = tmp_path / "big.json"
    path.write_text(instance_to_json(inst))
    code, _, err = _run(capsys, ["solve", str(path), "--alg", "oracle", "--obj", "makespan"])
    assert code == 3
    assert json.loads(err)["error"] == "limit"
    monkeypatch.setenv("SCHED_ORACLE_MAX_N", "12")
    code, out, _ = _run(capsys, ["solve", str(path), "--alg", "oracle", "--obj", "makespan"])
    assert code == 0


def test_scheme_makespan_branch_cap_exits_3(capsys, tmp_path):
    # d = n = 20 here, so the search would have 3^20 branches
    code, out, _ = _run(
        capsys,
        ["gadget", "random", "--n", "20", "--m", "3", "--m1", "1", "--e0", "1/4", "--seed", "1"],
    )
    assert code == 0
    path = tmp_path / "deep.json"
    path.write_text(out)
    code, _, err = _run(
        capsys,
        ["solve", str(path), "--alg", "scheme-makespan", "--obj", "makespan", "--epsilon", "1/2"],
    )
    assert code == 3
    assert json.loads(err)["error"] == "limit"


def test_scheme_totaltime_bucket_cap_exits_3(capsys, example_path):
    code, out, err = _run(
        capsys,
        ["solve", example_path, "--alg", "scheme-totaltime", "--obj", "totaltime",
         "--epsilon", "1e-400"],
    )
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "limit"


def test_scheme_totaltime_state_ceiling_exits_3(capsys, example_path, monkeypatch):
    # the first job already extends one state onto two machines
    monkeypatch.setattr(schemes, "_LIMIT", 1)
    code, out, err = _run(
        capsys,
        ["solve", example_path, "--alg", "scheme-totaltime", "--obj", "totaltime",
         "--epsilon", "1/2"],
    )
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "limit"


@pytest.mark.parametrize(
    "argv, env",
    [
        (["compare", "{example}", "--obj", "makespan", "--epsilon", "0"], None),
        (["experiment", "--n", "4", "--m", "2", "--m1", "0", "--e0", "1/2", "--trials", "1"], None),
        (
            ["experiment", "--n", "4", "--m", "2", "--m1", "2", "--e0", "1/2", "--trials", "1",
             "--epsilon", "2"],
            None,
        ),
        (["solve", "{example}", "--alg", "oracle", "--obj", "makespan"], "abc"),
        (["solve", "{example}", "--alg", "scheme-totaltime", "--obj", "totaltime"], None),
        (["experiment", "--n", "4", "--m", "2", "--m1", "2", "--e0", "1/2", "--trials", "-1"], None),
    ],
    ids=["compare-epsilon-0", "experiment-m1-0", "experiment-epsilon-2", "oracle-max-n-not-int",
         "scheme-totaltime-no-epsilon", "experiment-trials-negative"],
)
def test_library_value_errors_exit_2(capsys, monkeypatch, example_path, argv, env):
    if env is not None:
        monkeypatch.setenv("SCHED_ORACLE_MAX_N", env)
    code, out, err = _run(capsys, [arg.format(example=example_path) for arg in argv])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "input"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{example}", "--alg", "ls", "--obj", "makespan", "--epsilon", "abc"],
        ["solve", "{example}", "--alg", "oracle", "--obj", "makespan", "--epsilon", "abc"],
        ["solve", "{example}", "--alg", "scheme-makespan", "--obj", "makespan", "--d", "2",
         "--epsilon", "abc"],
        ["compare", "{example}", "--obj", "makespan", "--epsilon", ""],
        ["experiment", "--n", "4", "--m", "2", "--m1", "2", "--e0", "1/2", "--trials", "1",
         "--epsilon", ""],
    ],
    ids=["solve-heuristic", "solve-oracle", "solve-scheme-with-d", "compare-empty",
         "experiment-empty"],
)
def test_every_given_epsilon_must_parse(capsys, example_path, argv):
    code, out, err = _run(capsys, [arg.format(example=example_path) for arg in argv])
    assert code == 2
    assert out == ""
    assert json.loads(err)["message"].startswith("--epsilon: cannot parse")


# every entry path for a number; {big} stands for a value above 1, {small}
# for one in (0, 1), and {huge} for an instance file with a job set to {big}
NUMBER_PATHS = [
    ["solve", "{huge}", "--alg", "ls", "--obj", "makespan"],
    ["solve", "{example}", "--alg", "scheme-totaltime", "--obj", "totaltime",
     "--epsilon", "{small}"],
    ["compare", "{example}", "--obj", "makespan", "--epsilon", "{small}"],
    ["experiment", "--n", "3", "--m", "2", "--m1", "2", "--e0", "{small}", "--trials", "1"],
    ["experiment", "--n", "3", "--m", "2", "--m1", "2", "--e0", "1/2", "--trials", "1",
     "--epsilon", "{small}"],
    ["gadget", "named", "ls_bad", "--e0", "{small}"],
    ["gadget", "named", "ls_bad", "--x", "{small}"],
    ["gadget", "named", "spt_unbounded", "--alpha", "{big}"],
    ["gadget", "random", "--n", "3", "--m", "2", "--e0", "{small}"],
]
NUMBER_PATH_IDS = ["instance-json", "solve-epsilon", "compare-epsilon", "experiment-e0",
                   "experiment-epsilon", "named-e0", "named-x", "named-alpha", "random-e0"]


def _refused_quickly(capsys, tmp_path, example_path, argv, big, small):
    huge = tmp_path / "huge.json"
    huge.write_text(instance_to_json(named_example("lptect_322")).replace('"3"', f'"{big}"'))
    started = time.perf_counter()
    filled = [arg.format(example=example_path, huge=huge, big=big, small=small) for arg in argv]
    code, out, err = _run(capsys, filled)
    assert time.perf_counter() - started < 0.5
    assert code == 2
    assert out == ""
    assert "exponent" in json.loads(err)["message"]


@pytest.mark.parametrize("argv", NUMBER_PATHS, ids=NUMBER_PATH_IDS)
def test_huge_exponents_exit_2_quickly(capsys, tmp_path, example_path, argv):
    _refused_quickly(capsys, tmp_path, example_path, argv, "1e10000000", "1e-10000000")


@pytest.mark.parametrize("argv", NUMBER_PATHS, ids=NUMBER_PATH_IDS)
def test_numbers_past_the_digit_limit_exit_2(capsys, tmp_path, example_path, argv):
    # each expands past Python's 4300-digit limit for integer strings
    _refused_quickly(capsys, tmp_path, example_path, argv, "2e4300", "1e-4300")


@pytest.mark.parametrize("subcommand", [["solve", "--alg", "ls"], ["compare"]])
def test_decimal_beyond_float_range_exits_2(capsys, tmp_path, subcommand):
    path = tmp_path / "huge.json"
    path.write_text(instance_to_json(named_example("lptect_322")).replace('"3"', '"1e400"'))
    argv = subcommand[:1] + [str(path)] + subcommand[1:] + ["--obj", "makespan", "--decimal"]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["message"] == "--decimal: a value is beyond the range of a float"


def _past_the_digit_limit(tmp_path):
    # two jobs 1/a and 1/b with 2500-digit odd a, b: every number of the input
    # prints, but the second completion, 1/a + 1/b, has a 5000-digit denominator
    rng = random.Random(7)
    a, b = (rng.randrange(10**2499, 10**2500) | 1 for _ in range(2))
    path = tmp_path / "digits.json"
    path.write_text(
        json.dumps({"machines": [{"intervals": []}], "jobs": [f"1/{a}", f"1/{b}"], "m1": 1, "e0": "1"})
    )
    return str(path)


@pytest.mark.parametrize(
    "argv, what",
    [
        (["solve", "--alg", "ls", "--obj", "makespan"], "the completion of job 2"),
        (["solve", "--alg", "ls", "--obj", "totaltime"], "the completion of job 2"),
        (["solve", "--alg", "oracle", "--obj", "makespan"], "the completion of job 2"),
        # shortest first: job 2 is the shorter here, so job 1 completes at 1/a + 1/b
        (["solve", "--alg", "oracle", "--obj", "totaltime"], "the completion of job 1"),
        (["compare", "--obj", "makespan"], "the value of ls"),
        (["compare", "--obj", "totaltime"], "the value of spt"),
    ],
)
def test_results_past_the_digit_limit_exit_3_naming_the_value(capsys, tmp_path, argv, what):
    code, out, err = _run(capsys, argv[:1] + [_past_the_digit_limit(tmp_path)] + argv[1:])
    assert code == 3
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "limit"
    assert error["message"].startswith(f"{what} has more digits")


@pytest.mark.parametrize(
    "argv, what",
    [
        # e0/(3x) = 1/(30N) on the crowded machines
        (["gadget", "named", "lsect_tight", "--e0"], "the ratio of machine 2 interval 2"),
        # every ratio is e0 plus a multiple of (1 - e0)
        (["gadget", "random", "--n", "3", "--m", "2", "--e0"], "the ratio of machine 1 interval 1"),
    ],
)
def test_generated_numbers_past_the_digit_limit_exit_3_naming_the_value(capsys, argv, what):
    # e0 = 1/N with a 4299-digit N parses and prints, but the instance built from it does not
    n = random.Random(11).randrange(4 * 10**4298, 10**4299)
    code, out, err = _run(capsys, argv + [f"1/{n}"])
    assert code == 3
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "limit"
    assert error["message"].startswith(f"{what} has more digits")


def test_compare_makespan_table(capsys, tmp_path):
    path = tmp_path / "ls_bad.json"
    path.write_text(instance_to_json(named_example("ls_bad", e0=F(1, 2), x=F(1, 100))))
    code, out, _ = _run(capsys, ["compare", str(path), "--obj", "makespan"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "algorithm,value,ratio_to_oracle"
    table = {row.split(",")[0]: row.split(",")[1:] for row in lines[1:]}
    assert table["ls"] == ["100", "25"]
    assert table["ls-ect"] == ["4", "1"]
    assert table["oracle"] == ["4", "1"]


def test_compare_full_speed_totaltime_ratios_are_one(capsys, tmp_path):
    inst = random_instance(RandomSpec(n=5, m=2, m1=2, e0=F(1), seed=4))
    path = tmp_path / "full.json"
    path.write_text(instance_to_json(inst))
    code, out, _ = _run(capsys, ["compare", str(path), "--obj", "totaltime", "--epsilon", "1/4"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    by_name = {row[0]: row for row in rows}
    assert by_name["spt"][2] == "1"
    assert by_name["spt-ect"][2] == "1"
    assert by_name["scheme-totaltime"][2] == "1"


def test_compare_marks_oracle_unavailable_when_too_big(capsys, tmp_path):
    inst = random_instance(RandomSpec(n=12, m=2, m1=2, e0=F(1, 2), seed=0))
    path = tmp_path / "big.json"
    path.write_text(instance_to_json(inst))
    code, out, _ = _run(capsys, ["compare", str(path), "--obj", "makespan"])
    assert code == 0
    lines = out.strip().splitlines()
    assert all(row.endswith(",unavailable") for row in lines[1:])
    assert not any(row.startswith("oracle") for row in lines)


@pytest.mark.parametrize(
    "gadget_flags, obj",
    [
        # d = n = 20: 3^20 placements pass the makespan scheme's branch cap
        (["--m1", "1"], "makespan"),
        # m1 = m: the total-time sweep passes its state ceiling partway through
        ([], "totaltime"),
    ],
)
def test_compare_leaves_out_a_refused_scheme(capsys, tmp_path, gadget_flags, obj):
    code, out, _ = _run(
        capsys, ["gadget", "random", "--n", "20", "--m", "3", "--seed", "1"] + gadget_flags
    )
    assert code == 0
    path = tmp_path / "deep.json"
    path.write_text(out)
    code, out, err = _run(capsys, ["compare", str(path), "--obj", obj, "--epsilon", "1/2"])
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    heuristics = {"makespan": ["ls", "lpt", "ls-ect", "lpt-ect"], "totaltime": ["spt", "spt-ect"]}
    assert [row.split(",")[0] for row in lines[1:]] == heuristics[obj]
    # the oracle refuses too, so no ratio is available
    assert all(row.endswith(",unavailable") for row in lines[1:])


def test_experiment_is_deterministic_and_checks_bounds(capsys):
    argv = [
        "experiment", "--n", "6", "--m", "3", "--m1", "3", "--e0", "1/2",
        "--trials", "50", "--seed", "0", "--with-oracle",
    ]
    code, first, _ = _run(capsys, argv)
    assert code == 0
    code, second, _ = _run(capsys, argv)
    assert first == second
    lines = first.strip().splitlines()
    assert lines[0] == "seed,algorithm,value,oracle_value,ratio,bound,bound_satisfied"
    ls_rows = [line.split(",") for line in lines[1:] if line.split(",")[1] == "ls"]
    assert len(ls_rows) == 50
    for row in ls_rows:
        assert row[5] == "3"  # 1 + 1/e0
        assert row[6] == "true"
        assert F(row[2]) / F(row[3]) <= F(3)


def test_experiment_zero_trials_prints_header_only(capsys):
    code, out, _ = _run(
        capsys,
        ["experiment", "--n", "4", "--m", "2", "--m1", "1", "--e0", "1/2", "--trials", "0"],
    )
    assert code == 0
    assert out == "seed,algorithm,value,oracle_value,ratio,bound,bound_satisfied\n"


def test_experiment_without_oracle_leaves_columns_empty(capsys):
    code, out, _ = _run(
        capsys,
        ["experiment", "--n", "4", "--m", "2", "--m1", "2", "--e0", "1/2", "--trials", "2"],
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        seed, alg, value, oracle_value, ratio, bound, satisfied = line.split(",")
        assert oracle_value == "" and ratio == "" and satisfied == ""
        assert bound != ""  # m1 = m, every listed rule has a bound here


def test_experiment_oracle_limit_exits_3(capsys):
    code, _, err = _run(
        capsys,
        ["experiment", "--n", "12", "--m", "2", "--m1", "1", "--e0", "1/2",
         "--trials", "1", "--with-oracle"],
    )
    assert code == 3
    assert json.loads(err)["error"] == "limit"


def test_experiment_totaltime_includes_scheme_when_applicable(capsys):
    code, out, _ = _run(
        capsys,
        ["experiment", "--n", "4", "--m", "2", "--m1", "1", "--e0", "1/2",
         "--trials", "2", "--obj", "totaltime", "--epsilon", "1/4", "--with-oracle"],
    )
    assert code == 0
    names = {line.split(",")[1] for line in out.strip().splitlines()[1:]}
    assert names == {"spt", "spt-ect", "scheme-totaltime"}
    for line in out.strip().splitlines()[1:]:
        parts = line.split(",")
        if parts[1] == "scheme-totaltime":
            assert parts[5] == "5/4" and parts[6] == "true"
        if parts[1] == "spt":
            assert parts[5] == "" and parts[6] == ""


def test_gadget_named_round_trips_into_solve(capsys, tmp_path):
    code, out, _ = _run(capsys, ["gadget", "named", "lptect_322"])
    assert code == 0
    inst = instance_from_json(out)
    assert inst == named_example("lptect_322")

    code, out, _ = _run(capsys, ["gadget", "named", "ls_bad", "--e0", "1/2", "--x", "1/100"])
    assert code == 0
    assert instance_from_json(out) == named_example("ls_bad", e0=F(1, 2), x=F(1, 100))


@pytest.mark.parametrize("name", generators.NAMED_EXAMPLES)
def test_gadget_named_round_trips_every_example(capsys, name):
    code, out, err = _run(capsys, ["gadget", "named", name])
    assert (code, err) == (0, "")
    assert instance_from_json(out) == named_example(name)


def test_gadget_named_refuses_a_flag_the_example_does_not_take(capsys):
    code, out, err = _run(capsys, ["gadget", "named", "lptect_322", "--e0", "1/3"])
    assert (code, out) == (2, "")
    message = "example lptect_322 takes no parameter e0"
    assert json.loads(err) == {"error": "input", "message": message}


def test_gadget_partition_and_random(capsys):
    code, out, _ = _run(capsys, ["gadget", "partition-makespan", "--a", "1,1,2", "--f", "2"])
    assert code == 0
    inst = instance_from_json(out)
    assert inst.jobs == (F(1), F(1), F(2))

    code, out, _ = _run(capsys, ["gadget", "random", "--seed", "7", "--n", "5", "--m", "2"])
    assert code == 0
    inst = instance_from_json(out)
    assert (inst.n, inst.m) == (5, 2)
    code, again, _ = _run(capsys, ["gadget", "random", "--seed", "7", "--n", "5", "--m", "2"])
    assert again == out


def test_gadget_input_errors_exit_2(capsys):
    code, _, err = _run(capsys, ["gadget", "partition-makespan", "--a", "1,1,3", "--f", "2"])
    assert code == 2
    assert json.loads(err)["error"] == "input"
    code, _, err = _run(capsys, ["gadget", "partition-makespan", "--a", "1,x", "--f", "2"])
    assert code == 2
    code, _, err = _run(capsys, ["gadget", "named", "spt_unbounded", "--alpha", "1/2"])
    assert code == 2
    code, _, err = _run(capsys, ["gadget", "random", "--n", "3", "--m", "0"])
    assert code == 2
    assert json.loads(err) == {"error": "input", "message": "m=0 must be at least 1"}


@pytest.mark.parametrize(
    "a, shown",
    [
        ("1,x", "'1,x'"),
        # a refusal quotes the first 60 characters of a longer text
        ("1," * 3000 + "x", f"{'1,' * 30!r}... (6001 characters)"),
    ],
    ids=["short", "6001-characters"],
)
def test_an_unparsed_a_is_quoted_as_every_refusal_quotes(capsys, a, shown):
    code, out, err = _run(capsys, ["gadget", "partition-makespan", "--a", a, "--f", "2"])
    assert (code, out) == (2, "")
    message = f"--a: cannot parse {shown} as comma-separated integers"
    assert json.loads(err) == {"error": "input", "message": message}


def test_unknown_algorithm_is_an_argparse_error(capsys, example_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", example_path, "--alg", "magic", "--obj", "makespan"])
    assert exc.value.code == 2


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _python_m(module, argv, stdin):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        input=stdin, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_python_m_pipes_a_gadget_into_solve():
    gadget = _python_m("sharedsched", ["gadget", "named", "lptect_322"], "")
    assert gadget.returncode == 0 and gadget.stderr == ""
    solved = _python_m(
        "sharedsched", ["solve", "-", "--alg", "lpt-ect", "--obj", "makespan"], gadget.stdout
    )
    assert solved.returncode == 0 and solved.stderr == ""
    assert json.loads(solved.stdout)["value"] == "5"


@pytest.mark.parametrize("module", ["sharedsched", "sharedsched.cli"])
def test_python_m_refuses_a_malformed_instance_with_one_json_error(module):
    done = _python_m(module, ["solve", "-", "--alg", "lpt-ect", "--obj", "makespan"], '{"jobs": [')
    assert done.returncode == 2 and done.stdout == ""
    assert "Traceback" not in done.stderr
    # json.loads refuses anything past one object
    assert json.loads(done.stderr)["error"] == "input"


def test_python_m_solves_a_one_machine_scheme_twelve_hundred_jobs_deep(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(instance_to_json(random_instance(RandomSpec(n=1200, m=1, m1=1, e0=F(1), seed=0))))
    done = _python_m(
        "sharedsched",
        ["solve", str(path), "--alg", "scheme-makespan", "--obj", "makespan", "--d", "1200"],
        "",
    )
    assert done.returncode == 0 and done.stderr == ""
    report = json.loads(done.stdout)
    assert report["value"] == "742993/120" and report["params"] == {"d": 1200}


def _sized(command, **sizes):
    """`gadget random` or `experiment` argv with its size flags set."""
    if command == "gadget":
        argv, flags = ["gadget", "random"], {"n": 3, "m": 2, "max_breakpoints": 3}
    else:
        argv, flags = ["experiment", "--m1", "1", "--e0", "1/2"], {"n": 3, "m": 2, "trials": 1}
    for name, value in dict(flags, **sizes).items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    return argv


@pytest.mark.parametrize(
    "command, name",
    [(command, name) for command in ("gadget", "experiment") for name in CEILINGS
     if (command, name) != ("gadget", "trials")],
)
def test_a_size_flag_past_its_ceiling_exits_3_before_any_work(capsys, monkeypatch, command, name):
    def refused(*args, **kwargs):
        raise AssertionError("an instance was built")

    monkeypatch.setattr(generators, "random_instance", refused)
    past = CEILINGS[name] + 1
    code, out, err = _run(capsys, _sized(command, **{name: past}))
    assert (code, out) == (3, "")
    flag = "--" + name.replace("_", "-")
    assert json.loads(err) == {
        "error": "limit",
        "message": f"{flag}={past} exceeds its ceiling of {CEILINGS[name]}",
    }


@pytest.mark.parametrize(
    "sizes",
    [
        {"n": CEILINGS["n"], "m": 1},
        {"n": 1, "m": CEILINGS["m"]},
        {"n": 1, "m": 1, "min_breakpoints": 1000, "max_breakpoints": CEILINGS["max_breakpoints"]},
    ],
    ids=["n", "m", "max-breakpoints"],
)
def test_gadget_random_takes_each_size_flag_at_its_ceiling(capsys, sizes):
    code, out, err = _run(capsys, _sized("gadget", **sizes))
    assert (code, err) == (0, "")
    inst = instance_from_json(out)
    assert (inst.n, inst.m) == (sizes["n"], sizes["m"])


def test_commands_in_turn_in_one_process_print_what_separate_runs_print(tmp_path, capsys):
    # the parser is built once per process and shared by every main call
    path = tmp_path / "lptect.json"
    path.write_text(instance_to_json(named_example("lptect_322")), encoding="utf-8")
    commands = [
        ["solve", str(path), "--alg", "lpt-ect", "--obj", "makespan"],
        ["gadget", "random", "--n", "5", "--m", "2", "--seed", "3"],
        ["compare", str(path), "--obj", "totaltime", "--epsilon", "1/2"],
        ["solve", str(path), "--alg", "scheme-totaltime", "--obj", "totaltime"],  # exits 2
        ["gadget", "named", "lptect_322"],
        ["solve", str(path), "--alg", "spt-ect", "--obj", "totaltime", "--decimal"],
    ]

    def shown(code, out, err):
        if '"wall_time_s"' in out:  # a solve report; its wall time differs between runs
            out = json.loads(out)
            del out["wall_time_s"]
        return code, out, err

    in_turn = []
    for argv in commands:
        code = main(argv)
        captured = capsys.readouterr()
        in_turn.append(shown(code, captured.out, captured.err))
    assert [code for code, _, _ in in_turn] == [0, 0, 0, 2, 0, 0]
    for argv, got in zip(commands, in_turn):
        alone = _python_m("sharedsched", argv, "")
        assert shown(alone.returncode, alone.stdout, alone.stderr) == got, argv
