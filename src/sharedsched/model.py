"""Problem data model: machines with partially shared capacity, jobs, schedules.

Machines process a background workload that leaves only a fraction of their
speed for the jobs we schedule.  That fraction is piecewise constant over
time.  All arithmetic is exact (`fractions.Fraction`); nothing here rounds.

Job indices are 0-based inside the library and 1-based in serialized output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .capacity import build_capacity_table, finish_time

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
    unless the final interval is unbounded.
    """

    intervals: tuple[SharedInterval, ...]


@dataclass(frozen=True)
class Instance:
    """A scheduling instance.

    The first `m1` machines are guaranteed to keep at least an `e0` fraction
    of their speed available at all times; machines after them may drop
    arbitrarily low.
    """

    machines: tuple[MachineProfile, ...]
    jobs: tuple[Fraction, ...]
    m1: int
    e0: Fraction

    @property
    def m(self) -> int:
        return len(self.machines)

    @property
    def n(self) -> int:
        return len(self.jobs)


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
        if p <= 0:
            errors.append(f"job {j + 1}: processing time {p} is not positive")
    if not (1 <= inst.m1 <= max(m, 1)):
        errors.append(f"m1={inst.m1} is outside [1, {m}]")
    if not (0 < inst.e0 <= 1):
        errors.append(f"e0={inst.e0} is outside (0, 1]")
    for i, mp in enumerate(inst.machines, start=1):
        prev_end: Optional[Fraction] = Fraction(0)
        for k, iv in enumerate(mp.intervals, start=1):
            where = f"machine {i} interval {k}"
            if prev_end is None:
                errors.append(f"{where}: follows an unbounded interval")
                break
            if iv.start != prev_end:
                errors.append(f"{where}: starts at {iv.start}, expected {prev_end}")
            if iv.end is not None and iv.end <= iv.start:
                errors.append(f"{where}: empty or reversed ({iv.start}, {iv.end}]")
            if not (0 < iv.ratio <= 1):
                errors.append(f"{where}: ratio {iv.ratio} is outside (0, 1]")
            if i <= inst.m1 and iv.ratio < inst.e0:
                errors.append(
                    f"{where}: ratio {iv.ratio} below e0={inst.e0} on a bounded machine"
                )
            prev_end = iv.end
    return errors


def evaluate(inst: Instance, assignment: Sequence[Sequence[int]]) -> Schedule:
    """Compute every job's completion time for a fixed assignment.

    `assignment` must partition the job indices across exactly the instance's
    machines; jobs run back to back in the given per-machine order.  A
    malformed interval anywhere in a profile is refused (ValueError).
    """
    n = inst.n
    if len(assignment) != inst.m:
        raise ValueError(f"assignment covers {len(assignment)} machines, instance has {inst.m}")
    seen = sorted(j for seq in assignment for j in seq)
    if seen != list(range(n)):
        raise ValueError("assignment is not a partition of the job indices")
    completions: list[Fraction] = [Fraction(0)] * n
    total = Fraction(0)
    for i, (mp, seq) in enumerate(zip(inst.machines, assignment), start=1):
        table = build_capacity_table(mp, i)
        prefix = machine_total = Fraction(0)
        for j in seq:
            prefix += inst.jobs[j]
            completions[j] = finish_time(table, prefix)
            # summed per machine first: one machine's completions share most
            # of their denominators, different machines' are often coprime,
            # and one running sum over all would carry their product along
            machine_total += completions[j]
        total += machine_total
    makespan = max(completions, default=Fraction(0))
    return Schedule(
        assignment=tuple(tuple(seq) for seq in assignment),
        completions=tuple(completions),
        makespan=makespan,
        total_completion=total,
    )


def _schedule_of(inst: Instance, jobs: Iterable[int], machines: Iterable[int]) -> Schedule:
    """`evaluate`'s schedule running job jobs[k] on machine machines[k], in list order."""
    assignment: list[list[int]] = [[] for _ in inst.machines]
    for j, i in zip(jobs, machines):
        assignment[i].append(j)
    return evaluate(inst, assignment)


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


# Fraction expands a decimal exponent into an integer before anything can
# check it, so "1e10000000" alone takes seconds.  Python converts no integer
# of more than 4300 digits to or from a string.  A decimal's numerator and
# denominator have at most one digit more than its mantissa digits plus its
# exponent, so a number whose sum stays below the limit parses and prints.
MAX_DIGITS = 4300


def _frac_from_str(text, what: str) -> Fraction:
    """Parse one exact rational from instance JSON, a command line flag or a library string."""
    text = str(text)
    if "/" not in text:  # each side of p/q meets Python's own digit limit
        mantissa, _, exponent = text.lower().partition("e")
        try:
            shift = abs(int(exponent)) if exponent else 0
        except ValueError:  # Fraction rejects the text below
            shift = 0
        if sum(map(str.isdigit, mantissa)) + shift >= MAX_DIGITS:
            raise ValueError(
                f"{what}: the mantissa digits plus exponent of {text!r} reach {MAX_DIGITS}"
            )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{what}: cannot parse {text!r} as a rational") from exc


def _rational(value, what: str) -> Fraction:
    """A number a library caller passed; strings go through the bounded parser."""
    return _frac_from_str(value, what) if isinstance(value, str) else Fraction(value)


def instance_to_json(inst: Instance) -> str:
    """Serialize an instance; exact rationals become "p/q" strings."""
    payload = {
        "machines": [
            {
                "intervals": [
                    {
                        "start": str(iv.start),
                        "end": "inf" if iv.end is None else str(iv.end),
                        "ratio": str(iv.ratio),
                    }
                    for iv in mp.intervals
                ]
            }
            for mp in inst.machines
        ],
        "jobs": [str(p) for p in inst.jobs],
        "m1": inst.m1,
        "e0": str(inst.e0),
    }
    return json.dumps(payload, indent=2)


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
            start = _frac_from_str(raw_start, where)
            end = None if raw_end == "inf" else _frac_from_str(raw_end, where)
            ratio = _frac_from_str(raw_ratio, where)
            intervals.append(SharedInterval(start=start, end=end, ratio=ratio))
        machines.append(MachineProfile(intervals=tuple(intervals)))
    if not isinstance(raw_m1, int) or isinstance(raw_m1, bool):
        raise ValueError("m1 must be an integer")
    return _checked(
        Instance(
            machines=tuple(machines),
            jobs=tuple(_frac_from_str(p, f"job {j + 1}") for j, p in enumerate(raw_jobs)),
            m1=raw_m1,
            e0=_frac_from_str(raw_e0, "e0"),
        )
    )
