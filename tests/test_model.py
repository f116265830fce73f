"""Instance validation, schedule evaluation, and JSON round-trips."""

import dataclasses
import json
import random
import time
from fractions import Fraction as F

import pytest

from sharedsched import (
    GeometricBuckets,
    Instance,
    MachineProfile,
    Objective,
    SharedInterval,
    compute_d,
    evaluate,
    guarantee_ratio,
    instance_from_json,
    instance_to_json,
    named_example,
    objective_value,
    random_instance,
    RandomSpec,
    totaltime_scheme,
    validate_instance,
)
from sharedsched import model
from sharedsched.model import _frac_from_str, _indented

from oracle_checks import reference_instance_json


def _machine(*segments):
    intervals = []
    start = F(0)
    for end, ratio in segments:
        end = None if end is None else F(end)
        intervals.append(SharedInterval(start=start, end=end, ratio=F(ratio)))
        start = end
    return MachineProfile(intervals=tuple(intervals))


def _instance(machines, jobs, m1=None, e0=F(1)):
    return Instance(
        machines=tuple(machines),
        jobs=tuple(F(p) for p in jobs),
        m1=m1 if m1 is not None else len(machines),
        e0=F(e0),
    )


def test_valid_instance_has_no_errors():
    inst = _instance([_machine((1, 1), (None, F(1, 2)))], [1, 2], e0=F(1, 2))
    assert validate_instance(inst) == []


def test_validation_flags_gaps_and_bad_ratios():
    gap = MachineProfile(
        intervals=(
            SharedInterval(F(0), F(1), F(1)),
            SharedInterval(F(2), F(3), F(1, 2)),
        )
    )
    inst = _instance([gap], [1])
    assert any("expected 1" in e for e in validate_instance(inst))

    zero_ratio = _instance([_machine((1, 0))], [1])
    assert any("ratio 0" in e for e in validate_instance(zero_ratio))

    big_ratio = _instance([_machine((1, 2))], [1])
    assert any("outside (0, 1]" in e for e in validate_instance(big_ratio))

    # every fault of one interval, in order
    three = MachineProfile(
        intervals=(SharedInterval(F(0), F(1), F(1)), SharedInterval(F(2), F(1), F(2)))
    )
    assert validate_instance(_instance([three], [1])) == [
        "machine 1 interval 2: starts at 2, expected 1",
        "machine 1 interval 2: empty or reversed (2, 1]",
        "machine 1 interval 2: ratio 2 is outside (0, 1]",
    ]


def test_validation_flags_instance_level_problems():
    inst = _instance([_machine((None, 1))], [1, 0])
    assert any("not positive" in e for e in validate_instance(inst))
    inst = _instance([_machine((None, 1))], [1], m1=2)
    assert any("m1=2" in e for e in validate_instance(inst))
    inst = _instance([_machine((None, 1))], [1], e0=F(3, 2))
    assert any("e0=3/2" in e for e in validate_instance(inst))
    assert any("no jobs" in e for e in validate_instance(_instance([_machine((None, 1))], [])))
    assert any("no machines" in e for e in validate_instance(_instance([], [1], m1=1)))
    # both share messages, m1's first, each worded as the library's own refusals word it
    both = validate_instance(_instance([_machine((None, 1))], [1], m1=2, e0=F(3, 2)))
    assert both[:2] == ["m1=2 is outside [1, 1]", "e0=3/2 is outside (0, 1]"]
    for message, e0 in ((both[0], F(1, 2)), (both[1], F(3, 2))):
        with pytest.raises(ValueError) as refused:
            compute_d(1, 2, e0, F(1, 2), 1)
        assert str(refused.value) == message


def test_validation_refuses_float_lengths_that_are_no_finite_number():
    inst = _instance([_machine((None, 1))], [1])
    jobs = (float("nan"), float("inf"), float("-inf"), 0.5, -0.5, 10**400)
    assert validate_instance(dataclasses.replace(inst, jobs=jobs)) == [
        "job 1: processing time nan is not a finite number",
        "job 2: processing time inf is not a finite number",
        "job 3: processing time -inf is not a finite number",
        "job 5: processing time -0.5 is not positive",
    ]


def _with_interval(inst, **fields):
    """`inst` with the fields given replaced in machine 1's second interval."""
    first, second, *rest = inst.machines[0].intervals
    intervals = (first, dataclasses.replace(second, **fields), *rest)
    return dataclasses.replace(inst, machines=(MachineProfile(intervals), *inst.machines[1:]))


# machine 1 is bounded, its interval 2 below e0 and its interval 3 above rate 1
_BELOW = "machine 1 interval 2: ratio 1/4 below e0=1/2 on a bounded machine"
_ABOVE = "machine 1 interval 3: ratio 5 is outside (0, 1]"


def _no_number(where, field, value):
    return f"{where}{field} {value!r} is not a finite number"


@pytest.mark.parametrize(
    "change, messages",
    [
        # an e0 that is no number bounds no ratio
        (dict(e0="1/2"), [_no_number("", "e0", "1/2"), _ABOVE]),
        (
            dict(jobs=(F(1), "2", None)),
            [_no_number("job 2: ", "processing time", "2"), _no_number("job 3: ", "processing time", None)]
            + [_BELOW, _ABOVE],
        ),
        # a machine's check stops at an interval with a field that is no number
        (dict(start="1"), [_no_number("machine 1 interval 2: ", "start", "1")]),
        (dict(end=float("inf")), [_no_number("machine 1 interval 2: ", "end", float("inf"))]),
        (dict(ratio=None), [_no_number("machine 1 interval 2: ", "ratio", None)]),
    ],
    ids=["e0", "job", "start", "end", "ratio"],
)
def test_validation_reports_a_field_that_is_no_number_and_never_raises(change, messages):
    inst = _instance([_machine((1, 1), (2, F(1, 4)), (3, 5)), _machine((None, 1))], [1], m1=1, e0=F(1, 2))
    assert validate_instance(inst) == [_BELOW, _ABOVE]
    if {"start", "end", "ratio"} & set(change):
        changed = _with_interval(inst, **change)
    else:
        changed = dataclasses.replace(inst, **change)
    assert validate_instance(changed) == messages


@pytest.mark.parametrize("m1", [True, 2.0, "2", None], ids=["bool", "float", "str", "none"])
def test_an_m1_that_is_no_int_is_refused_everywhere(m1):
    # bounded by e0 on machine 1 only under an integer m1
    low = _instance([_machine((None, F(1, 4))), _machine((None, 1))], [1], e0=F(1, 2))
    assert validate_instance(dataclasses.replace(low, m1=m1)) == ["m1 must be an integer"]
    for call in (
        lambda: compute_d(2, m1, F(1, 2), F(1, 2), 3),
        lambda: guarantee_ratio("ls", n=3, m=2, m1=m1, e0=F(1, 2)),
        lambda: random_instance(RandomSpec(n=3, m=2, m1=m1, e0=F(1, 2))),
    ):
        with pytest.raises(ValueError, match="^m1 must be an integer$"):
            call()


def test_validation_enforces_e0_on_the_bounded_prefix():
    low = _machine((None, F(1, 4)))
    inst = _instance([low], [1], m1=1, e0=F(1, 2))
    assert any("below e0" in e for e in validate_instance(inst))
    # the same machine after the bounded prefix is fine
    inst = _instance([_machine((None, F(1, 2))), low], [1], m1=1, e0=F(1, 2))
    assert validate_instance(inst) == []


def test_validation_rejects_intervals_after_an_unbounded_one():
    bad = MachineProfile(
        intervals=(
            SharedInterval(F(0), None, F(1, 2)),
            SharedInterval(F(1), F(2), F(1)),
        )
    )
    assert any("unbounded" in e for e in validate_instance(_instance([bad], [1])))


def test_evaluate_on_slowdown_machine():
    inst = _instance([_machine((1, 1), (None, F(1, 2)))], [1, 2], e0=F(1, 2))
    sched = evaluate(inst, [[0, 1]])
    assert sched.completions == (F(1), F(5))
    assert sched.makespan == F(5)
    assert sched.total_completion == F(6)


def test_evaluate_on_constant_ratio_machine():
    inst = _instance([_machine((None, F(3, 4)))], [2], e0=F(3, 4))
    sched = evaluate(inst, [[0]])
    assert sched.completions == (F(8, 3),)


def test_evaluate_requires_a_partition():
    inst = _instance([_machine((None, 1)), _machine((None, 1))], [1, 2])
    with pytest.raises(ValueError):
        evaluate(inst, [[0], []])
    with pytest.raises(ValueError):
        evaluate(inst, [[0, 1], [1]])
    with pytest.raises(ValueError):
        evaluate(inst, [[0, 1]])


@pytest.mark.parametrize("index", [True, 1.0, "1"], ids=["bool", "float", "str"])
def test_evaluate_refuses_a_job_index_that_is_not_an_int(index):
    # each equals or sorts like job 1, so only its type can refuse it
    inst = _instance([_machine((None, 1))], [1, 2])
    with pytest.raises(ValueError) as refused:
        evaluate(inst, [[0, index]])
    assert str(refused.value) == f"assignment holds {index!r}, which is not a job index"


def test_completions_increase_along_each_machine():
    rng = random.Random(11)
    for seed in range(30):
        inst = random_instance(RandomSpec(n=6, m=2, m1=1, e0=F(1, 2), seed=seed))
        order = list(range(6))
        rng.shuffle(order)
        cut = rng.randint(0, 6)
        assignment = [order[:cut], order[cut:]]
        sched = evaluate(inst, assignment)
        for machine_jobs in assignment:
            for a, b in zip(machine_jobs, machine_jobs[1:]):
                assert sched.completions[a] < sched.completions[b]


def test_evaluate_is_deterministic():
    inst = named_example("lptect_322")
    first = evaluate(inst, [[1, 2], [0]])
    second = evaluate(inst, [[1, 2], [0]])
    assert first == second


def test_scaling_jobs_and_breakpoints_scales_completions():
    for seed in range(20):
        inst = random_instance(RandomSpec(n=5, m=2, m1=1, e0=F(1, 3), seed=seed))
        c = F(7, 3)
        scaled = Instance(
            machines=tuple(
                MachineProfile(
                    intervals=tuple(
                        SharedInterval(
                            start=iv.start * c,
                            end=None if iv.end is None else iv.end * c,
                            ratio=iv.ratio,
                        )
                        for iv in mp.intervals
                    )
                )
                for mp in inst.machines
            ),
            jobs=tuple(p * c for p in inst.jobs),
            m1=inst.m1,
            e0=inst.e0,
        )
        assignment = [[0, 2, 4], [1, 3]]
        base = evaluate(inst, assignment)
        big = evaluate(scaled, assignment)
        assert big.completions == tuple(x * c for x in base.completions)


def test_all_full_speed_machines_degenerate_to_prefix_sums():
    inst = _instance([MachineProfile(intervals=()), MachineProfile(intervals=())], [3, 1, 2])
    sched = evaluate(inst, [[0, 1], [2]])
    assert sched.completions == (F(3), F(4), F(2))


def test_objective_value_picks_the_right_field():
    inst = _instance([_machine((None, 1))], [1, 2])
    sched = evaluate(inst, [[0, 1]])
    assert objective_value(sched, Objective.MAKESPAN) == F(3)
    assert objective_value(sched, Objective.TOTAL_COMPLETION) == F(4)
    # an objective's value names it as well as the member does
    assert objective_value(sched, "makespan") == F(3)
    assert objective_value(sched, "totaltime") == F(4)
    with pytest.raises(ValueError):
        objective_value(sched, "sum")


def test_json_round_trip_is_bit_exact():
    for name in ("lptect_322", "spt_vs_sptect", "ls_bad"):
        inst = named_example(name)
        text = instance_to_json(inst)
        again = instance_from_json(text)
        assert again == inst
        assert instance_to_json(again) == text


def test_json_round_trip_equals_a_hand_built_instance():
    inst = Instance(machines=(MachineProfile(intervals=()),) * 2, jobs=(F(1), F(2)), m1=2, e0=F(1))
    assert instance_from_json(instance_to_json(inst)) == inst


def test_json_numbers_with_a_huge_exponent_are_refused_quickly():
    within = _mutated(lambda p: p.update(jobs=["25e-1", "1E+3", "2e4298", "0.5e-4297"]))
    parsed = instance_from_json(within)
    assert parsed.jobs == (F(5, 2), F(1000), F(2 * 10**4298), F(1, 2 * 10**4297))
    assert instance_from_json(instance_to_json(parsed)) == parsed
    for edit in [
        lambda p: p["jobs"].__setitem__(0, "1e10000000"),
        lambda p: p["jobs"].__setitem__(0, "1e-1_000_000_0"),
        lambda p: p["jobs"].__setitem__(0, "1e4301"),
        lambda p: p.update(e0="1E-999999999"),
        lambda p: p["machines"][1]["intervals"][0].update(ratio="1e-10000000"),
        # past Python's 4300-digit limit once expanded, though the exponent alone is not
        lambda p: p["jobs"].__setitem__(0, "2e4300"),
        lambda p: p["jobs"].__setitem__(0, "0.5e-4299"),
        lambda p: p["jobs"].__setitem__(0, "0." + "0" * 4298 + "1"),
        lambda p: p.update(e0="1e-4300"),
        lambda p: p["machines"][1]["intervals"][0].update(end="12345e4296"),
    ]:
        text = _mutated(edit)
        started = time.perf_counter()
        with pytest.raises(ValueError, match="exponent"):
            instance_from_json(text)
        assert time.perf_counter() - started < 0.5


@pytest.mark.parametrize(
    "call",
    [
        lambda: named_example("ls_bad", e0="1e-3000000"),
        lambda: named_example("ls_bad", x="1e-3000000"),
        lambda: named_example("lsect_tight", e0="1e-3000000"),
        lambda: named_example("lsect_tight", x="1e3000000"),
        lambda: named_example("lpt_n2", e0="1e-3000000"),
        lambda: named_example("spt_unbounded", alpha="1e3000000"),
        lambda: random_instance(RandomSpec(n=3, m=2, m1=2, e0="1e-3000000")),
        lambda: random_instance(RandomSpec(n=3, m=2, m1=2, e0="1e-4300")),
        lambda: compute_d(2, 2, "1e-3000000", F(1, 2), 3),
        lambda: compute_d(2, 2, F(1, 2), "1e-3000000", 3),
        lambda: totaltime_scheme(named_example("lptect_322"), "1e-3000000"),
        lambda: totaltime_scheme(named_example("lptect_322"), F(1, 2), delta="1e-3000000"),
        lambda: GeometricBuckets("1e-3000000"),
        lambda: guarantee_ratio("ls", n=2, m=2, m1=2, e0="1e-3000000"),
        lambda: guarantee_ratio("scheme-totaltime", n=2, m=2, m1=2, e0=F(1), epsilon="1e-3000000"),
    ],
    ids=["ls_bad-e0", "ls_bad-x", "lsect_tight-e0", "lsect_tight-x", "lpt_n2-e0",
         "spt_unbounded-alpha", "random-e0", "random-e0-digits", "compute_d-e0",
         "compute_d-epsilon", "totaltime-epsilon", "totaltime-delta", "buckets-delta",
         "guarantee-e0", "guarantee-epsilon"],
)
def test_library_string_numbers_with_huge_exponents_are_refused_quickly(call):
    started = time.perf_counter()
    with pytest.raises(ValueError, match="exponent"):
        call()
    assert time.perf_counter() - started < 0.5


def _unparsed(text):
    return f"x: cannot parse {text!r} as a rational"


_NINES = "9" * 4300


@pytest.mark.parametrize(
    "text, expected",
    [
        # plain ASCII p and p/q, which the fast path takes
        ("0", F(0)),
        ("007/010", F(7, 10)),
        ("6/8", F(3, 4)),
        (_NINES[:4299], F(int(_NINES[:4299]))),
        (_NINES[:4299] + "/7", F(int(_NINES[:4299]), 7)),
        ("7/" + _NINES[:4299], F(7, int(_NINES[:4299]))),
        # everything else, which the general parser takes
        ("1/0", _unparsed("1/0")),
        ("0/0", _unparsed("0/0")),
        ("+3", F(3)),
        ("-3/4", F(-3, 4)),
        ("3/-4", _unparsed("3/-4")),
        (" 3", F(3)),
        # Python 3.13's grammar on every Python, which 3.10 and 3.11 Fraction
        # do not read in full: a space beside the slash, a "_" between digits
        ("3/ 4", F(3, 4)),
        (" 3 / 4 ", F(3, 4)),
        ("1_000", F(1000)),
        ("1_0/2", F(5)),
        ("1e1_0", F(10**10)),
        ("1.5", F(3, 2)),
        ("1e3", F(1000)),
        (".5", F(1, 2)),
        ("5.", F(5)),
        ("1__0", _unparsed("1__0")),
        ("_1", _unparsed("_1")),
        ("1_", _unparsed("1_")),
        ("1/_2", _unparsed("1/_2")),
        ("1.5/2", _unparsed("1.5/2")),
        # "²".isdigit() holds, but int("²") raises
        ("²", _unparsed("²")),
        ("٣", F(3)),
        ("３/4", F(3, 4)),
        # a refusal quotes the first 60 characters of a longer text
        (_NINES, f"x: the mantissa digits plus exponent of {_NINES[:60]!r}... (4300 characters) reach 4300"),
        (_NINES + "/7", F(int(_NINES), 7)),
        ("7/" + _NINES, F(7, int(_NINES))),
        (_NINES + "9/7", f"x: a side of {_NINES[:60]!r}... (4303 characters) has more than 4300 digits"),
        ("7/9" + _NINES, f"x: a side of {'7/' + _NINES[:58]!r}... (4303 characters) has more than 4300 digits"),
        # outside the grammar, whatever its length
        ("x/9" + _NINES, f"x: cannot parse {'x/' + _NINES[:58]!r}... (4303 characters) as a rational"),
    ],
    ids=[
        "0", "007/010", "6/8", "4299-digits", "4299-digits/7", "7/4299-digits",
        "1/0", "0/0", "+3", "-3/4", "3/-4", "space-3", "3/space-4", "spaces-3/4", "1_000",
        "1_0/2", "1e1_0", "1.5", "1e3", ".5", "5.", "1__0", "_1", "1_", "1/_2", "1.5/2",
        "superscript-2", "arabic-indic-3", "fullwidth-3/4", "4300-digits", "4300-digits/7",
        "7/4300-digits", "4301-digits/7", "7/4301-digits", "x/4301-digits",
    ],
)
def test_both_number_parser_paths_agree(text, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError) as refused:
            _frac_from_str(text, "x")
        assert str(refused.value) == expected
    else:
        got = _frac_from_str(text, "x")
        assert type(got) is F and got == expected


def test_every_text_the_running_fraction_reads_keeps_its_value():
    # short texts over the grammar's characters, a few non-ASCII digits among them
    rng = random.Random(32)
    alphabet = "0123456789+-./eE_ \t٣²"
    for _ in range(4000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
        try:
            got = _frac_from_str(text, "x")
        except ValueError as exc:
            got = exc
        try:
            expected = F(text)
        except (ValueError, ZeroDivisionError):
            continue
        if isinstance(got, ValueError):
            # only the digit limit refuses what Fraction reads
            assert str(got).endswith(("reach 4300", "more than 4300 digits")), text
        else:
            assert type(got) is F and got == expected, text


@pytest.mark.parametrize(
    "value",
    [
        {"machines": [], "jobs": [], "m1": 1, "e0": "1"},
        {"machines": [{"intervals": []}, {"intervals": [{"start": "0", "end": "inf"}]}], "jobs": ["1/2"]},
        ("a", 1, ("b", [], ())),
        {"wall_time_s": 0.000123, "nested": [[1.5, -2], {}], "flags": [True, False, None]},
        "caf\u00e9 \u2192 \U0001f600 \"quoted\"\n\t",
        {"\u00e9": ["\u2192", {"k": [1e300, float("inf")]}]},
        {1: "an int key", "a": [2, 3]},
        [{"a": {1: [True]}}],
        -(10**40),
        0,
        [],
        {},
        (),
        None,
        ["3", "8/3", "caf\u00e9"],
        [1, -2, 10**40],
        ["a", 1, "b", 2],
        [True, False],
        [1, True],
        [[1, 3], [2], []],
        [[], (), [[]]],
    ],
)
def test_indented_writes_exactly_what_json_dumps_writes(value):
    assert _indented(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "inst",
    [
        Instance(machines=(), jobs=(F(1),), m1=1, e0=F(1)),
        Instance(machines=(MachineProfile(intervals=()),), jobs=(F(3, 2),), m1=1, e0=F(1)),
        Instance(machines=(MachineProfile(intervals=()),), jobs=(), m1=1, e0=F(1, 2)),
        _instance([_machine((1, 1), (F(5, 2), F(1, 3)), (None, F(1, 2)))], [2, F(7, 3)], e0=F(1, 3)),
        _instance([_machine((F(-1, 2), F(-3)))], [-1, F(-5, 7)], m1=-2, e0=F(-1, 4)),
        _instance([_machine((None, 1)), _machine()], [10**40, F(1, 10**30)], m1=True),
    ],
    ids=["no-machines", "no-intervals", "no-jobs", "unbounded-last", "negative", "m1-true"],
)
def test_instance_to_json_writes_what_json_dumps_writes_of_its_fields(inst):
    assert instance_to_json(inst) == reference_instance_json(inst)


def test_each_distinct_number_text_is_parsed_once_per_call(monkeypatch):
    texts = ["3", "1/2", "7/3", "0.25", "1e2", " 5 ", "2_0"]
    rng = random.Random(7)
    jobs = [rng.choice(texts) for _ in range(1000)]
    assert set(jobs) == set(texts)
    payload = json.loads(instance_to_json(named_example("lptect_322")))
    text = json.dumps(dict(payload, jobs=jobs))
    calls = []

    def counted(raw, what):
        calls.append(raw)
        return _frac_from_str(raw, what)

    monkeypatch.setattr(model, "_frac_from_str", counted)
    inst = instance_from_json(text)
    assert inst.jobs == tuple(_frac_from_str(p, "job") for p in jobs)
    numbers = [iv[key] for mp in payload["machines"] for iv in mp["intervals"] for key in iv]
    distinct = set(jobs + numbers + [payload["e0"]]) - {"inf"}
    assert sorted(calls) == sorted(distinct)


def test_a_repeated_bad_number_is_refused_at_its_first_place():
    jobs = ["1"] * 12
    jobs[2] = jobs[8] = "1/0"
    text = _mutated(lambda p: p.update(jobs=jobs))
    with pytest.raises(ValueError, match=r"^job 3: cannot parse '1/0' as a rational$"):
        instance_from_json(text)


def test_json_numbers_and_true_are_parsed_apart_from_texts():
    # a JSON number is read by its str; true is no number, though "1" was read before it
    inst = instance_from_json(_mutated(lambda p: p.update(jobs=["1", 1, 0.5, "0.5", 2])))
    assert inst.jobs == (F(1), F(1), F(1, 2), F(1, 2), F(2))
    with pytest.raises(ValueError, match=r"^job 2: cannot parse 'True' as a rational$"):
        instance_from_json(_mutated(lambda p: p.update(jobs=["1", True])))


def test_json_round_trip_on_random_instances():
    for seed in range(25):
        inst = random_instance(RandomSpec(n=4, m=3, m1=2, e0=F(2, 3), seed=seed))
        assert instance_from_json(instance_to_json(inst)) == inst


def test_json_rationals_serialize_as_integer_or_p_over_q():
    inst = named_example("lptect_322")
    text = instance_to_json(inst)
    assert '"3/4"' in text
    assert '"3"' in text
    assert '"inf"' in text


def test_json_parse_errors_are_value_errors():
    with pytest.raises(ValueError):
        instance_from_json("not json")
    with pytest.raises(ValueError):
        instance_from_json("[]")
    with pytest.raises(ValueError):
        instance_from_json("[" * 100000)
    with pytest.raises(ValueError):
        instance_from_json('{"machines": [], "jobs": []}')
    good = instance_to_json(named_example("lptect_322"))
    with pytest.raises(ValueError):
        instance_from_json(good.replace('"3/4"', '"3/4/5"'))
    with pytest.raises(ValueError):
        instance_from_json(good.replace('"m1": 2', '"m1": "2"'))


def _mutated(edit) -> str:
    payload = json.loads(instance_to_json(named_example("lptect_322")))
    edit(payload)
    return json.dumps(payload)


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: p["machines"][1]["intervals"][0].pop("start"),
        lambda p: p["machines"][1]["intervals"][0].pop("end"),
        lambda p: p["machines"][1]["intervals"][0].pop("ratio"),
        lambda p: p.update(machines=[5, 5]),
        lambda p: p["machines"][1].update(intervals=[5]),
        lambda p: p["machines"][1].update(intervals="0"),
        lambda p: p.update(machines={"intervals": []}),
        lambda p: p.update(jobs="12"),
    ],
    ids=[
        "interval-without-start",
        "interval-without-end",
        "interval-without-ratio",
        "machine-not-an-object",
        "interval-not-an-object",
        "intervals-not-a-list",
        "machines-not-a-list",
        "jobs-not-a-list",
    ],
)
def test_json_shape_errors_are_value_errors(edit):
    with pytest.raises(ValueError):
        instance_from_json(_mutated(edit))


def test_json_rejects_invalid_instances():
    # ratio above 1 parses but fails validation
    bad = instance_to_json(named_example("lptect_322")).replace('"3/4"', '"5/4"')
    with pytest.raises(ValueError):
        instance_from_json(bad)
