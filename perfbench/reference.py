"""A fixed piece of standard-library work that measures how fast the machine runs right now.

The benchmark shares a few cores of a host with other jobs, and their load
can halve its speed for tens of seconds at a time.  The timed run times this
reference every so often between operations and scales the time of each
piece of work by `NOMINAL_S` over the mean of the references around it: the
time the work would have taken on a machine on which the reference takes
`NOMINAL_S`.  The reference does the kinds of work the library does
(Fraction arithmetic on growing denominators, sorting, a dict, JSON of
Fraction strings) but calls none of its code, so a change to the library
never changes the reference.  The garbage collector is off while it
runs, so the heap the library leaves behind does not change its cost either.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.025  # close to what the reference takes on a 2-vCPU x86-64 machine

_rng = random.Random(0)
_DATA = [Fraction(_rng.randint(1, 10**6), _rng.randint(1, 10**4)) for _ in range(1500)]


def _work() -> int:
    for _ in range(2):
        acc = Fraction(0)
        for i in range(1, 400):
            acc = (acc + Fraction(i, 7 * i + 3)) * Fraction(5, 6) - Fraction(1, i)
    ordered = sorted(_DATA)
    total = sum(ordered[:300], acc)
    back = [Fraction(text) for text in json.loads(json.dumps([str(x) for x in ordered]))[:750]]
    index = {x: i for i, x in enumerate(back)}
    return len(index) + total.denominator % 7


def reference_s() -> float:
    """Seconds the reference takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(*references: float) -> float:
    """Factor that turns seconds measured beside these reference times into seconds at the nominal speed."""
    return NOMINAL_S / statistics.fmean(references)
