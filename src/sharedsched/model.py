"""Problem data model: machines with partially shared capacity, jobs, schedules.

Machines process a background workload that leaves only a fraction of their
speed for the jobs we schedule.  That fraction is piecewise constant over
time.  All arithmetic is exact (`fractions.Fraction`); nothing here rounds.

Job indices are 0-based inside the library and 1-based in serialized output.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from typing import Iterable, Optional, Sequence

from .capacity import (
    CapacityTable,
    ScaledTable,
    _interval_faults,
    _job_keys,
    _pairwise,
    build_capacity_table,
    exact_view,
    finish_time,
    scale_instance,
)

__all__ = [
    "SharedInterval",
    "MachineProfile",
    "Instance",
    "Schedule",
    "Objective",
    "validate_instance",
    "evaluate",
    "objective_value",
    "instance_to_json",
    "instance_from_json",
]


@dataclass(frozen=True)
class SharedInterval:
    """One rate segment ``(start, end]``; ``end is None`` means unbounded.

    `ratio` is the fraction of the machine's speed available to our jobs on
    the segment, in (0, 1].
    """

    start: Fraction
    end: Optional[Fraction]
    ratio: Fraction


@dataclass(frozen=True)
class MachineProfile:
    """Contiguous rate segments of one machine, starting at time 0.

    An empty interval tuple means the machine is fully available throughout.
    After the last finite breakpoint the machine is fully available again
    unless the final interval is unbounded.  `intervals` is kept as a tuple,
    whatever sequence it is given as.
    """

    intervals: tuple[SharedInterval, ...]

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(self.intervals))


@dataclass(frozen=True)
class Instance:
    """A scheduling instance.

    The first `m1` machines are guaranteed to keep at least an `e0` fraction
    of their speed available at all times; machines after them may drop
    arbitrarily low.

    Each machine's exact capacity table (`capacity.exact_view`), on which
    the algorithms time the schedules they return, and the integer view
    they decide on (`capacity.scale_instance`, built from those tables) are
    built on first use and kept on the instance, so every algorithm call on
    it shares one of each.  `machines` and `jobs` are kept as tuples,
    whatever sequences they are given as, so a list the caller changes later
    cannot make them stale; `dataclasses.replace` makes an instance with
    tables and a view of its own.
    """

    machines: tuple[MachineProfile, ...]
    jobs: tuple[Fraction, ...]
    m1: int
    e0: Fraction

    def __post_init__(self):
        object.__setattr__(self, "machines", tuple(self.machines))
        object.__setattr__(self, "jobs", tuple(self.jobs))

    @property
    def m(self) -> int:
        return len(self.machines)

    @property
    def n(self) -> int:
        return len(self.jobs)

    @cached_property
    def _exact(self) -> tuple[int, tuple[int, ...], tuple[CapacityTable, ...]]:
        """`exact_view(self)`: the job keys over their denominator and each
        machine's exact table.  A refusal is not kept, as for `_view`."""
        return exact_view(self)

    @cached_property
    def _view(self) -> tuple[int, tuple[int, ...], tuple[ScaledTable, ...]]:
        """`scale_instance(self)`: the scale, the job keys and the scaled tables.

        A refusal is not kept, so every use of a view refused raises again."""
        return scale_instance(self)


class Objective(Enum):
    MAKESPAN = "makespan"
    TOTAL_COMPLETION = "totaltime"


@dataclass(frozen=True)
class Schedule:
    """An evaluated schedule.

    `assignment[i]` lists 0-based job indices in the order machine i runs
    them; `completions[j]` is job j's completion time.  Machines never idle,
    so completions depend only on per-machine prefix work.
    """

    assignment: tuple[tuple[int, ...], ...]
    completions: tuple[Fraction, ...]
    makespan: Fraction
    total_completion: Fraction


def validate_instance(inst: Instance) -> list[str]:
    """Return a list of problems with the instance, empty when it is well formed.

    Never raises; callers decide what a nonempty report means.
    """
    errors: list[str] = []
    m = len(inst.machines)
    if m == 0:
        errors.append("instance has no machines")
    if len(inst.jobs) == 0:
        errors.append("instance has no jobs")
    for j, p in enumerate(inst.jobs):
        # every algorithm reads a number as the rational it equals; a NaN, an
        # infinity or a string equals none
        if type(p) is not Fraction and (fault := _number_fault(f"job {j + 1}: processing time", p)):
            errors += fault
        # a Fraction's sign is its numerator's, which compares without building a Fraction
        elif (p.numerator if type(p) is Fraction else p) <= 0:
            errors.append(f"job {j + 1}: processing time {p} is not positive")
    errors += _m1_faults(m, inst.m1) + _e0_faults(inst.e0)
    # an m1 that is no int, or an e0 that is no number, bounds no machine, so
    # neither is compared with an index or a ratio
    m1 = inst.m1 if _is_int(inst.m1) and not _number_fault("e0", inst.e0) else 0
    for i, mp in enumerate(inst.machines, start=1):
        prev_end: Optional[Fraction] = Fraction(0)
        for k, iv in enumerate(mp.intervals, start=1):
            # nothing compares with a field that is no number, so a machine's
            # check stops there, as it stops after an unbounded interval
            if prev_end is not None and (bad := _field_faults(iv, i, k)):
                errors += bad
                break
            errors += _interval_faults(iv, prev_end, i, k)
            if prev_end is None:
                break
            if i <= m1 and iv.ratio < inst.e0:
                where = f"machine {i} interval {k}"
                errors.append(f"{where}: ratio {iv.ratio} below e0={inst.e0} on a bounded machine")
            prev_end = iv.end
    return errors


def evaluate(inst: Instance, assignment: Sequence[Sequence[int]]) -> Schedule:
    """Compute every job's completion time for a fixed assignment.

    `assignment` must partition the job indices across exactly the instance's
    machines, each index an `int` (a `bool` is not one); jobs run back to
    back in the given per-machine order.  The reference every algorithm's
    schedule is checked against: on every call it reads each machine's
    profile afresh with `build_capacity_table`, cut at that machine's
    largest load, not the tables the instance keeps for the algorithms.  A
    malformed interval anywhere in any profile, an interval after an
    unbounded one included, is refused (ValueError) there, before any job
    is timed.  Each completion is one `finish_time` call.
    """
    jobs = inst.jobs
    if len(assignment) != inst.m:
        raise ValueError(f"assignment covers {len(assignment)} machines, instance has {inst.m}")
    seen = [j for seq in assignment for j in seq]
    for j in seen:
        if not _is_int(j):
            raise ValueError(f"assignment holds {j!r}, which is not a job index")
    if sorted(seen) != list(range(len(jobs))):
        raise ValueError("assignment is not a partition of the job indices")
    # job lengths as integers over one denominator, so each prefix load is an int
    den, keys = _job_keys(jobs)
    prefixes = [list(accumulate([keys[j] for j in seq])) for seq in assignment]
    tables = [
        build_capacity_table(mp, i, (max(loads, default=0), den))
        for i, (mp, loads) in enumerate(zip(inst.machines, prefixes), start=1)
    ]
    return _timed(inst, assignment, den, prefixes, tables)


def _timed(inst: Instance, assignment, den: int, prefixes: list, tables: Sequence[CapacityTable]) -> Schedule:
    """The schedule of `assignment`, a partition of the jobs: each completion
    the `finish_time`, on its machine's table, of the job's prefix load
    (`prefixes`, by machine) over `den`."""
    completions: list = [None] * inst.n  # every slot is set: the assignment is a partition
    sums: dict[int, int] = {}  # numerators of the completions, by denominator
    tops = []  # each machine's completion at its largest load
    for table, seq, loads in zip(tables, assignment, prefixes):
        for j, prefix in zip(seq, loads):
            c = completions[j] = finish_time(table, prefix, den)
            num, d = c.as_integer_ratio()
            sums[d] = sums.get(d, 0) + num
        if seq:
            # finish_time never decreases with work
            tops.append(completions[seq[loads.index(max(loads))]])
    return Schedule(
        assignment=tuple(map(tuple, assignment)),
        completions=tuple(completions),
        makespan=max(tops) if tops else Fraction(0),
        total_completion=_tree_total(sums),
    )


def _tree_total(sums: dict[int, int]) -> Fraction:
    """The sum of num/den over `sums`, which maps each denominator to a
    numerator, as one Fraction.  The terms are added in pairs up a tree on
    integers, each pair over the lcm of its two denominators, so each step
    joins two sums of about the same size; added one by one, every term
    would meet the whole running total in a gcd."""
    d, num = _pairwise(list(sums.items()) or [(1, 0)], _add_terms)
    return Fraction(num, d)


def _add_terms(a: tuple[int, int], b: tuple[int, int] = (1, 0)) -> tuple[int, int]:
    """The sum of two (denominator, numerator) terms, over the lcm of their denominators."""
    (d1, n1), (d2, n2) = a, b
    d = math.lcm(d1, d2)
    return d, n1 * (d // d1) + n2 * (d // d2)


def _is_int(value) -> bool:
    """Whether value is an int; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _schedule_of(inst: Instance, jobs: Iterable[int], machines: Iterable[int]) -> Schedule:
    """The schedule an algorithm returns, running job jobs[k] on machine
    machines[k], in list order, over all the jobs: `evaluate`'s, timed on
    the instance's kept tables and job keys (`Instance._exact`)."""
    den, keys, tables = inst._exact
    assignment: list[list[int]] = [[] for _ in inst.machines]
    for j, i in zip(jobs, machines):
        assignment[i].append(j)
    prefixes = [list(accumulate([keys[j] for j in seq])) for seq in assignment]
    return _timed(inst, assignment, den, prefixes, tables)


def objective_value(schedule: Schedule, objective: Objective) -> Fraction:
    """The schedule's value under an `Objective` or its value, such as "makespan"."""
    if Objective(objective) is Objective.MAKESPAN:
        return schedule.makespan
    return schedule.total_completion


def _checked(inst: Instance) -> Instance:
    errors = validate_instance(inst)
    if errors:
        raise ValueError("; ".join(errors))
    return inst


# A decimal exponent is expanded into an integer, so unchecked, "1e10000000"
# alone would take seconds.  Python converts no integer of more than 4300
# digits to or from a string.  A decimal's numerator and denominator have at
# most one digit more than its mantissa digits plus its exponent, so a number
# whose sum stays below the limit parses and prints; each side of p/q may
# have up to the limit.
MAX_DIGITS = 4300

# A refusal quotes at most this many characters of the text it refuses.
MAX_SHOWN = 60

# The number grammar of Fraction(text) on Python 3.13: space around the
# whole, a sign, then p/q with space allowed beside the slash, or digits with
# a decimal part and an exponent, each optional; a single "_" may join two
# digits, and a digit is whatever `\d` matches.
_DIGITS = r"\d+(?:_\d+)*"
_NUMBER = re.compile(
    rf"\s*(?P<sign>[-+]?)(?=\.?\d)(?P<num>(?:{_DIGITS})?)(?:\s*/\s*(?P<den>{_DIGITS})"
    rf"|(?:\.(?P<dec>(?:{_DIGITS})?))?(?:[eE](?P<exp>[-+]?{_DIGITS}))?)\s*"
)


def _shown(text: str) -> str:
    """`text` quoted for a refusal, cut to its first MAX_SHOWN characters."""
    if len(text) <= MAX_SHOWN:
        return repr(text)
    return f"{text[:MAX_SHOWN]!r}... ({len(text)} characters)"


def _frac_from_str(text, what: str) -> Fraction:
    """Parse one exact rational from instance JSON, a command line flag or a library string.

    The grammar is `_NUMBER`'s, the one `Fraction(text)` reads on Python
    3.13, on every Python; the value is built from the matched digits, and
    the digit limits (MAX_DIGITS) are checked on them first."""
    text = str(text)
    num, slash, den = text.partition("/")
    # plain ASCII p or p/q, each side below the digit limit and q nonzero;
    # isascii() too, as "²".isdigit() holds but int("²") raises
    if text.isascii() and num.isdigit() and len(num) < MAX_DIGITS:
        if not slash:
            return Fraction(int(num))
        if den.isdigit() and len(den) < MAX_DIGITS and (q := int(den)):
            return Fraction(int(num), q)
    match = _NUMBER.fullmatch(text)
    if match:
        sign, num, den, dec, exp = [part.replace("_", "") for part in match.groups("")]
        # an exponent longer than int() converts reaches the limit, whatever its value
        shift = int(exp or 0) if len(exp) <= MAX_DIGITS else MAX_DIGITS
        if den and max(len(num), len(den)) > MAX_DIGITS:
            raise ValueError(f"{what}: a side of {_shown(text)} has more than {MAX_DIGITS} digits")
        if not den and len(num + dec) + abs(shift) >= MAX_DIGITS:
            raise ValueError(
                f"{what}: the mantissa digits plus exponent of {_shown(text)} reach {MAX_DIGITS}"
            )
        shift -= len(dec)
        if q := (int(den) if den else 10 ** max(-shift, 0)):  # else a zero denominator
            return Fraction(int(sign + num + dec) * 10 ** max(shift, 0), q)
    raise ValueError(f"{what}: cannot parse {_shown(text)} as a rational")


def _rational(value, what: str) -> Fraction:
    """A number a library caller passed; strings go through the bounded parser."""
    return _frac_from_str(value, what) if isinstance(value, str) else Fraction(value)


def _m1_faults(m: int, m1: int) -> list[str]:
    """The message for an m1 that is no int (a bool is not one) or lies
    outside [1, m], or none; with no machine, m1 = 1 passes."""
    if not _is_int(m1):
        return ["m1 must be an integer"]
    return [] if 1 <= m1 <= max(m, 1) else [f"m1={m1} is outside [1, {m}]"]


def _number_fault(what: str, value) -> list[str]:
    """[] when `value` is a finite number, which every algorithm reads as the
    ratio its `as_integer_ratio` gives; else the one message saying it is not."""
    try:
        value.as_integer_ratio()
        return []
    except (AttributeError, ValueError, OverflowError):  # no number, a NaN or an infinity
        return [f"{what} {value!r} is not a finite number"]


def _field_faults(iv: SharedInterval, machine: int, k: int) -> list[str]:
    """`_number_fault`'s messages for the start, end and ratio of interval k
    of a machine, in that order; an unbounded end (None) has none."""
    if type(iv.start) is type(iv.ratio) is Fraction and type(iv.end) in (Fraction, type(None)):
        return []  # three type tests, for the Fractions every parsed instance holds
    fields = {"start": iv.start, "end": 0 if iv.end is None else iv.end, "ratio": iv.ratio}
    where = f"machine {machine} interval {k}: "
    return [fault for what, value in fields.items() for fault in _number_fault(where + what, value)]


def _e0_faults(e0: Fraction) -> list[str]:
    """The message for an e0 that is no number or lies outside (0, 1], or none."""
    return _number_fault("e0", e0) or ([] if 0 < e0 <= 1 else [f"e0={e0} is outside (0, 1]"])


def _check_shares(m: int, m1: int, e0: Fraction) -> Fraction:
    """e0 as a rational; ValueError unless it lies in (0, 1], m >= 1 and m1
    lies in [1, m], checked in that order."""
    e0 = _rational(e0, "e0")
    faults = _e0_faults(e0) + ([] if m >= 1 else [f"m={m} must be at least 1"]) + _m1_faults(m, m1)
    if faults:
        raise ValueError(faults[0])
    return e0


def _check_epsilon(epsilon: Fraction) -> Fraction:
    """epsilon as a rational; ValueError unless it lies in (0, 1)."""
    epsilon = _rational(epsilon, "epsilon")
    if not (0 < epsilon < 1):
        raise ValueError(f"epsilon={epsilon} is outside (0, 1)")
    return epsilon


def instance_to_json(inst: Instance) -> str:
    """Serialize an instance; every finite number becomes an exact "p/q" string.

    The text is exactly `json.dumps(..., indent=2)` of the object
    {"machines": [{"intervals": [{"start", "end", "ratio"}, ...]}, ...],
    "jobs", "m1", "e0"}, written here in that fixed layout."""
    machines = []
    for mp in inst.machines:
        intervals = [
            f'{{\n          "start": {_number(iv.start)},'
            f'\n          "end": {_number("inf" if iv.end is None else iv.end)},'
            f'\n          "ratio": {_number(iv.ratio)}\n        }}'
            for iv in mp.intervals
        ]
        machines.append(f'{{\n      "intervals": {_block(intervals, "      ")}\n    }}')
    return (
        f'{{\n  "machines": {_block(machines, "  ")},'
        f'\n  "jobs": {_block([_number(p) for p in inst.jobs], "  ")},'
        f'\n  "m1": {_indented(inst.m1, "  ")},\n  "e0": {_number(inst.e0)}\n}}'
    )


def _number(x) -> str:
    """A number of an instance as a JSON string: exactly "p/q" or "p" for a
    Fraction, an int or a finite float, and what str() gives otherwise."""
    if type(x) is not Fraction and (
        isinstance(x, int) or isinstance(x, float) and math.isfinite(x)
    ):
        x = Fraction(x)
    return encode_basestring_ascii(str(x))


def _block(items: list[str], pad: str, brackets: str = "[]") -> str:
    """The items, each already written, in `json.dumps(indent=2)`'s layout
    of a list (or, with brackets "{}", an object) nested `pad` deep."""
    if not items:
        return brackets
    inner = pad + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def _indented(value, pad: str = "") -> str:
    """Exactly `json.dumps(value, indent=2)`, nested `pad` deep, without the
    json module's pure-Python encoder (the one `indent` selects) for the
    strings, plain ints, lists, tuples and string-keyed dicts that
    serialized instances and reports hold; anything else goes through
    `json.dumps`."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int:
        return repr(value)
    if value and isinstance(value, (list, tuple)):
        kinds = set(map(type, value))
        # a flat list of strings or of plain ints, as a report's rows are, in one join
        if kinds in ({str}, {int}):
            return _block(list(map(encode_basestring_ascii if str in kinds else repr, value)), pad)
        return _block([_indented(item, pad + "  ") for item in value], pad)
    if value and isinstance(value, dict) and all(isinstance(key, str) for key in value):
        inner = pad + "  "
        items = [f"{encode_basestring_ascii(k)}: {_indented(v, inner)}" for k, v in value.items()]
        return _block(items, pad, "{}")
    # json.dumps escapes every newline inside a string, so each one it
    # writes starts a line, which the nesting indents
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def instance_from_json(text: str) -> Instance:
    """Parse an instance; raises ValueError on malformed input."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nesting too deep
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("instance JSON must be an object")
    try:
        raw_machines = payload["machines"]
        raw_jobs = payload["jobs"]
        raw_m1 = payload["m1"]
        raw_e0 = payload["e0"]
    except KeyError as exc:
        raise ValueError(f"instance JSON is missing key {exc}") from exc
    if not isinstance(raw_machines, list) or not isinstance(raw_jobs, list):
        raise ValueError("machines and jobs must be lists")
    parsed: dict[str, Fraction] = {}

    def number(raw, what: str) -> Fraction:
        """`_frac_from_str(raw, what)`, each distinct text parsed once per
        call; a JSON number or `true` is no text, and is parsed every time."""
        if type(raw) is not str:
            return _frac_from_str(raw, what)
        value = parsed.get(raw)
        if value is None:
            value = parsed[raw] = _frac_from_str(raw, what)
        return value

    machines = []
    for i, raw_mp in enumerate(raw_machines, start=1):
        if not isinstance(raw_mp, dict):
            raise ValueError(f"machine {i} must be an object")
        raw_intervals = raw_mp.get("intervals", [])
        if not isinstance(raw_intervals, list):
            raise ValueError(f"machine {i}: intervals must be a list")
        intervals = []
        for k, raw_iv in enumerate(raw_intervals, start=1):
            where = f"machine {i} interval {k}"
            if not isinstance(raw_iv, dict):
                raise ValueError(f"{where} must be an object")
            try:
                raw_start, raw_end, raw_ratio = raw_iv["start"], raw_iv["end"], raw_iv["ratio"]
            except KeyError as exc:
                raise ValueError(f"{where} is missing key {exc}") from exc
            start = number(raw_start, where)
            end = None if raw_end == "inf" else number(raw_end, where)
            ratio = number(raw_ratio, where)
            intervals.append(SharedInterval(start=start, end=end, ratio=ratio))
        machines.append(MachineProfile(intervals=tuple(intervals)))
    if not _is_int(raw_m1):
        raise ValueError("m1 must be an integer")
    return _checked(
        Instance(
            machines=tuple(machines),
            jobs=tuple(number(p, f"job {j + 1}") for j, p in enumerate(raw_jobs)),
            m1=raw_m1,
            e0=number(raw_e0, "e0"),
        )
    )
