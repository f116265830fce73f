"""Instance builders: reduction gadgets, worked examples, random instances.

The partition gadgets embed an equal-split question into two machines whose
shared window makes any overflow past half the total work catastrophically
slow, so the optimal objective value answers the question.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .model import Instance, MachineProfile, SharedInterval, _check_shares, _checked, _rational

__all__ = [
    "partition_gadget_makespan",
    "partition_gadget_totaltime",
    "named_example",
    "NAMED_EXAMPLES",
    "RandomSpec",
    "random_instance",
]


def _int_jobs(a: Sequence[int]) -> tuple[Fraction, ...]:
    if len(a) == 0:
        raise ValueError("a gadget needs at least one job")
    jobs = []
    for v in a:
        if int(v) != v or v <= 0:
            raise ValueError(f"gadget job sizes must be positive integers, got {v!r}")
        jobs.append(Fraction(int(v)))
    return tuple(jobs)


def _partition_gadget(a: Sequence[int], f: int, totaltime: bool) -> Instance:
    """Two machines at full speed up to half the total, then at a slow rate.

    The slow rate is 1/(f*total) for the makespan and 1/(n*f*total) for the
    completion-time sum; the makespan's slow window lasts f*total, the
    completion-time sum's never ends.
    """
    jobs = _int_jobs(a)
    f = int(f)
    if f <= 1:
        raise ValueError("f must be an integer greater than 1")
    total = sum(jobs, Fraction(0))
    if total % 2 != 0:
        raise ValueError(f"total job size {total} must be even")
    half = total / 2
    slow = Fraction(1, (len(jobs) if totaltime else 1) * f * int(total))
    profile = (
        SharedInterval(start=Fraction(0), end=half, ratio=Fraction(1)),
        SharedInterval(start=half, end=None if totaltime else half + f * total, ratio=slow),
    )
    machines = (MachineProfile(intervals=profile),) * 2
    return _checked(Instance(machines=machines, jobs=jobs, m1=2, e0=slow))


def partition_gadget_makespan(a: Sequence[int], f: int) -> Instance:
    """Two machines whose makespan is total/2 exactly when `a` splits evenly.

    Both run at full speed up to half the total, then at 1/(f*total) for a
    window of length f*total, then at full speed again.  Any load past the
    halfway point drags the makespan beyond f*total/2.
    """
    return _partition_gadget(a, f, totaltime=False)


def partition_gadget_totaltime(a: Sequence[int], f: int) -> Instance:
    """Two machines whose completion-time sum is at most n*total/2 exactly
    when `a` splits evenly; the slow window here never ends."""
    return _partition_gadget(a, f, totaltime=True)


_FULL_MACHINE = MachineProfile(intervals=())


def _constant_machine(ratio: Fraction) -> MachineProfile:
    iv = SharedInterval(start=Fraction(0), end=None, ratio=ratio)
    return MachineProfile(intervals=(iv,))


def _ls_bad(e0: Fraction = Fraction(1, 2), x: Fraction = Fraction(1, 100)) -> Instance:
    """LS makespan ratio max(1, e0/(2x)): 25 at the defaults."""
    if not (0 < x <= e0 <= 1):
        raise ValueError("ls_bad needs 0 < x <= e0 <= 1")
    machines = (_constant_machine(e0), _constant_machine(x))
    return Instance(machines=machines, jobs=(Fraction(1), Fraction(1)), m1=1, e0=e0)


def _lsect_tight(e0: Fraction = Fraction(1, 2), x: Fraction = Fraction(10)) -> Instance:
    """LS-ECT makespan ratio (x + 2 + (2x - 2)/e0)/(x + 2), tending to 1 + 2/e0."""
    if not (0 < e0 <= 1) or x <= 0 or e0 > 3 * x:
        raise ValueError("lsect_tight needs e0 in (0, 1] and x >= e0/3")
    m1_profile = MachineProfile(
        intervals=(
            SharedInterval(Fraction(0), x + 2, Fraction(1)),
            SharedInterval(x + 2, None, e0),
        )
    )
    crowded = MachineProfile(
        intervals=(
            SharedInterval(Fraction(0), x, Fraction(1)),
            SharedInterval(x, None, e0 / (3 * x)),
        )
    )
    jobs = (x, Fraction(1), Fraction(1), x, x)
    return Instance(machines=(m1_profile, crowded, crowded), jobs=jobs, m1=1, e0=e0)


def _lpt_n2(e0: Fraction = Fraction(1, 4)) -> Instance:
    """LPT makespan ratio max(1, 1/(2 e0)): 2 at the default."""
    if not (0 < e0 <= 1):
        raise ValueError("lpt_n2 needs e0 in (0, 1]")
    machines = (_FULL_MACHINE, _constant_machine(e0))
    return Instance(machines=machines, jobs=(Fraction(1), Fraction(1)), m1=1, e0=e0)


def _lptect_322() -> Instance:
    """LPT-ECT makespan ratio 5/4."""
    machines = (_FULL_MACHINE, _constant_machine(Fraction(3, 4)))
    jobs = (Fraction(3), Fraction(2), Fraction(2))
    return Instance(machines=machines, jobs=jobs, m1=2, e0=Fraction(3, 4))


def _spt_vs_sptect() -> Instance:
    """Total-time ratios: SPT 8/7, SPT-ECT 1."""
    slowdown = MachineProfile(
        intervals=(
            SharedInterval(Fraction(0), Fraction(1), Fraction(1)),
            SharedInterval(Fraction(1), None, Fraction(1, 2)),
        )
    )
    jobs = (Fraction(1), Fraction(2), Fraction(2))
    return Instance(machines=(slowdown, _FULL_MACHINE), jobs=jobs, m1=2, e0=Fraction(1, 2))


def _spt_vs_sptect_plus3() -> Instance:
    """Total-time ratios with one more job of 3: SPT 1, SPT-ECT 14/13."""
    inst = _spt_vs_sptect()
    return replace(inst, jobs=inst.jobs + (Fraction(3),))


def _spt_unbounded(alpha: Fraction = Fraction(100)) -> Instance:
    """SPT total-time ratio max(1, (alpha + 1)/3): 101/3 at the default."""
    if alpha < 1:
        raise ValueError("spt_unbounded needs alpha >= 1")
    machines = (_FULL_MACHINE, _constant_machine(1 / alpha))
    return Instance(machines=machines, jobs=(Fraction(1), Fraction(1)), m1=1, e0=Fraction(1))


# each named example's builder; its keyword defaults are the example's parameters
_EXAMPLES = {
    "ls_bad": _ls_bad,
    "lsect_tight": _lsect_tight,
    "lpt_n2": _lpt_n2,
    "lptect_322": _lptect_322,
    "spt_vs_sptect": _spt_vs_sptect,
    "spt_vs_sptect_plus3": _spt_vs_sptect_plus3,
    "spt_unbounded": _spt_unbounded,
}
NAMED_EXAMPLES = tuple(_EXAMPLES)


def named_example(
    name: str,
    e0: Optional[Fraction] = None,
    x: Optional[Fraction] = None,
    alpha: Optional[Fraction] = None,
) -> Instance:
    """Small instances on which the greedy rules show their worst sides.

    Names: ls_bad(e0, x), lsect_tight(e0, x), lpt_n2(e0), lptect_322,
    spt_vs_sptect, spt_vs_sptect_plus3, spt_unbounded(alpha).  An unknown
    name, or a parameter given to an example that does not take it, raises
    ValueError.
    """
    if name not in _EXAMPLES:
        raise ValueError(f"unknown example {name!r}; known names: {', '.join(NAMED_EXAMPLES)}")
    build = _EXAMPLES[name]
    given = {k: v for k, v in {"e0": e0, "x": x, "alpha": alpha}.items() if v is not None}
    for param in given:
        if param not in inspect.signature(build).parameters:
            raise ValueError(f"example {name} takes no parameter {param}")
    return _checked(build(**{param: _rational(value, param) for param, value in given.items()}))


@dataclass(frozen=True)
class RandomSpec:
    """Parameters for seeded random instances.

    Machines up to `m1` draw every ratio from [e0, 1]; later machines draw
    from (0, 1].  Breakpoints are multiples of a random denominator <= 64.
    """

    n: int
    m: int
    m1: int
    e0: Fraction
    p_max: int = 10
    min_breakpoints: int = 0
    max_breakpoints: int = 3
    seed: int = 0


def random_instance(spec: RandomSpec) -> Instance:
    """Deterministic pseudo-random instance for the given spec and seed."""
    e0 = _check_shares(spec.m, spec.m1, spec.e0)
    if spec.n < 1 or spec.p_max < 1:
        raise ValueError("need at least one job and p_max >= 1")
    if not (0 <= spec.min_breakpoints <= spec.max_breakpoints):
        raise ValueError("breakpoint range is invalid")
    rng = random.Random(spec.seed)

    def draw_ratio(bounded: bool) -> Fraction:
        den = rng.randint(1, 64)
        if bounded:
            return e0 + (1 - e0) * Fraction(rng.randint(0, den), den)
        return Fraction(rng.randint(1, den), den)

    machines = []
    for i in range(1, spec.m + 1):
        bounded = i <= spec.m1
        segments = rng.randint(spec.min_breakpoints, spec.max_breakpoints)
        den = rng.randint(1, 64)
        t = Fraction(0)
        intervals = []
        for _ in range(segments):
            t_next = t + Fraction(rng.randint(1, spec.p_max * den), den)
            intervals.append(SharedInterval(start=t, end=t_next, ratio=draw_ratio(bounded)))
            t = t_next
        if rng.random() < 0.5:
            intervals.append(SharedInterval(start=t, end=None, ratio=draw_ratio(bounded)))
        machines.append(MachineProfile(intervals=tuple(intervals)))
    jobs = []
    for _ in range(spec.n):
        den = rng.randint(1, 8)
        jobs.append(Fraction(rng.randint(1, spec.p_max * den), den))
    return _checked(
        Instance(machines=tuple(machines), jobs=tuple(jobs), m1=spec.m1, e0=e0)
    )
