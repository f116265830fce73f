"""Seeded mutation fuzzing of instance JSON and CLI flags.

Every run must end in exit code 0, 2 or 3; errors from `main` itself are a
JSON object on stderr.  An exception escaping `main` fails the test with its
traceback.  Instances stay small and the oracle is capped through
SCHED_ORACLE_MAX_N, so the whole sweep takes a few seconds.
"""

import copy
import io
import json
import random
from fractions import Fraction as F

import pytest

from sharedsched import RandomSpec, instance_to_json, named_example, random_instance
from sharedsched.cli import main

SEED = 20240617
JUNK = [
    "", "abc", "-", "0", "-1", "2", "1/2", "1/0", "0.5", "3/2", "1e400", "1e-400", "1e999999999",
    "-1e-999999999", "1e4301", "nan", "inf", "7", "--decimal", "makespan", "totaltime", "ls",
]
JSON_JUNK = JUNK + [None, [], {}, True, 0, 2, -3, 1.5, 1e308, [[]], {"start": "0"}]
ALGORITHMS = ["ls", "lpt", "ls-ect", "lpt-ect", "spt", "spt-ect", "oracle"]


def _bases():
    yield named_example("lptect_322")
    yield named_example("lsect_tight")
    yield named_example("spt_vs_sptect_plus3")
    for seed in range(3):
        yield random_instance(RandomSpec(n=4, m=3, m1=2, e0=F(1, 2), max_breakpoints=2, seed=seed))


def _containers(node, found):
    if isinstance(node, (dict, list)):
        found.append(node)
        for child in node.values() if isinstance(node, dict) else node:
            _containers(child, found)
    return found


def _mutate_json(rng, payload):
    for _ in range(rng.randint(1, 3)):
        node = rng.choice(_containers(payload, []))
        if not node:
            if isinstance(node, dict):
                node["start"] = rng.choice(JSON_JUNK)
            else:
                node.append(rng.choice(JSON_JUNK))
            continue
        key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
        action = rng.randrange(3)
        if action == 0:
            node[key] = copy.deepcopy(rng.choice(JSON_JUNK))
        elif action == 1:
            del node[key]
        elif isinstance(node, list):
            node.insert(key, copy.deepcopy(node[key]))
    text = json.dumps(payload)
    if rng.random() < 0.2:
        cut = rng.randrange(len(text))
        text = text[:cut] + rng.choice(["", "}", "[", '"', "\\u0000", "1e999"]) + text[cut + 1 :]
    return text


def _mutate_argv(rng, argv):
    argv = list(argv)
    values = [pos for pos, arg in enumerate(argv) if pos > 1 and not arg.startswith("--")]
    for _ in range(rng.randint(1, 3)):
        action = rng.randrange(4)
        if action < 2:  # a flag's value
            argv[rng.choice(values)] = rng.choice(JUNK)
        elif action == 2:
            argv.append(rng.choice(["--epsilon", "--d", "--e0", "--x", "--alpha"]))
            argv.append(rng.choice(JUNK))
        else:
            token = rng.choice(JUNK + ["--decimal", "--with-oracle"])
            argv.insert(rng.randrange(1, len(argv)), token)
    return argv


def _check(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejecting the command line
        code = exc.code
        assert code == 2, argv
        capsys.readouterr()
        return
    err = capsys.readouterr().err
    assert code in (0, 2, 3), argv
    if code:
        assert json.loads(err)["error"] == ("input" if code == 2 else "limit"), argv


def test_mutated_instances_never_crash_the_cli(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SCHED_ORACLE_MAX_N", "4")
    rng = random.Random(SEED)
    path = tmp_path / "fuzz.json"
    bases = [json.loads(instance_to_json(inst)) for inst in _bases()]
    for _ in range(250):
        path.write_text(_mutate_json(rng, copy.deepcopy(rng.choice(bases))))
        obj = rng.choice(["makespan", "totaltime"])
        decimal = ["--decimal"] if rng.random() < 0.3 else []
        if rng.random() < 0.25:
            _check(capsys, ["compare", str(path), "--obj", obj] + decimal)
        else:
            alg = rng.choice(ALGORITHMS)
            _check(capsys, ["solve", str(path), "--alg", alg, "--obj", obj] + decimal)


COMMANDS = [
    ["solve", "{path}", "--alg", "lpt-ect", "--obj", "makespan"],
    ["solve", "{path}", "--alg", "oracle", "--obj", "totaltime", "--decimal"],
    ["solve", "{path}", "--alg", "scheme-totaltime", "--obj", "totaltime", "--epsilon", "1/2"],
    ["solve", "{path}", "--alg", "scheme-makespan", "--obj", "makespan", "--d", "2"],
    ["compare", "{path}", "--obj", "totaltime", "--epsilon", "1/2"],
    ["experiment", "--n", "4", "--m", "2", "--m1", "1", "--e0", "1/2", "--trials", "2",
     "--obj", "totaltime", "--epsilon", "1/4", "--with-oracle"],
    ["experiment", "--n", "4", "--m", "2", "--m1", "2", "--e0", "1/3", "--trials", "2"],
    ["gadget", "partition-makespan", "--a", "1,1,2", "--f", "2"],
    ["gadget", "partition-totaltime", "--a", "2,2", "--f", "3"],
    ["gadget", "named", "lsect_tight", "--e0", "1/2", "--x", "2"],
    ["gadget", "named", "spt_unbounded", "--alpha", "4"],
    ["gadget", "random", "--n", "3", "--m", "2", "--e0", "1/2", "--max-breakpoints", "2"],
]


@pytest.mark.parametrize("command", COMMANDS, ids=[f"{i}-{c[0]}" for i, c in enumerate(COMMANDS)])
def test_mutated_flags_never_crash_the_cli(capsys, tmp_path, monkeypatch, command):
    monkeypatch.setenv("SCHED_ORACLE_MAX_N", "4")
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    path = tmp_path / "inst.json"
    path.write_text(instance_to_json(named_example("lptect_322")))
    rng = random.Random(f"{SEED} {command}")
    base = [arg.format(path=path) for arg in command]
    for _ in range(40):
        _check(capsys, _mutate_argv(rng, base))
