"""Approximation schemes: trade running time for a (1 + epsilon) guarantee.

For makespan: place the d largest jobs in every possible way, finish each
branch greedily, keep the best branch.  For the completion-time sum: sweep
jobs shortest-first through a state space of per-machine (load, cost) pairs,
merging states that agree bucket-by-bucket on a geometric grid.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .heuristics import OrderRule, _check_shares, job_order
from .model import Instance, Schedule, _rational, _schedule_of
from .oracle import DEFAULT_MAX_M, DEFAULT_MAX_N, OracleLimitError
from .search import SubsetTable, best_makespan

__all__ = [
    "compute_d",
    "makespan_scheme",
    "GeometricBuckets",
    "totaltime_scheme",
]


def _check_epsilon(epsilon: Fraction) -> Fraction:
    epsilon = _rational(epsilon, "epsilon")
    if not (0 < epsilon < 1):
        raise ValueError(f"epsilon={epsilon} is outside (0, 1)")
    return epsilon


def compute_d(m: int, m1: int, e0: Fraction, epsilon: Fraction, n: int) -> int:
    """How many of the largest jobs to enumerate for a (1 + epsilon) makespan.

    When every machine keeps an e0 share the cheaper count m/(epsilon*e0)
    suffices; either way d never exceeds n.
    """
    epsilon = _check_epsilon(epsilon)
    e0 = _check_shares(m, m1, e0)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if m1 == m:
        d = math.ceil(Fraction(m) / (epsilon * e0))
    else:
        d = math.ceil(Fraction(m * (m + m1 - 1)) / (epsilon * e0 * m1))
    return min(n, d)


# The oracle's own ceiling of leaves, read by both schemes: the makespan
# scheme's m^d branches, and the states the total-time sweep extends per job.
_LIMIT = DEFAULT_MAX_M**DEFAULT_MAX_N


def makespan_scheme(inst: Instance, d: int) -> Schedule:
    """Best-of-enumeration makespan schedule.

    Tries all m^d placements of the d longest jobs; the rest follow longest
    first onto whichever machine completes them earliest.  Ties keep the
    lexicographically smallest placement vector, so the result is
    deterministic.  Refuses with OracleLimitError, before any work, when m^d
    exceeds the oracle's own ceiling of DEFAULT_MAX_M^DEFAULT_MAX_N leaves.
    The search is `search.best_makespan`, the oracle's own.
    """
    n, m = inst.n, inst.m
    if not (0 <= d <= n):
        raise ValueError(f"d={d} is outside [0, {n}]")
    if m**d > _LIMIT:
        raise OracleLimitError(f"{m}^{d} placements exceed the limit of {_LIMIT}")
    subsets = SubsetTable(inst)
    by_length = job_order(subsets.sizes, OrderRule.LPT)
    return best_makespan(inst, subsets, by_length[:d], by_length[d:])[0]


# The exact powers of q behind a bucket index x have about |x| times the
# bits of q's numerator, and one power of 2**22 bits takes about half a
# second to compute.  The criterion-2 checks reach about 50,000 bits.
MAX_BUCKET_BITS = 2**22


# Each math.log of an integer, and each float subtraction and division, is
# within a few units in the last place (2^-52 relative).  So the estimate
# (log num - log den) / log q is off by at most about 2^-52 times
# (log num + log den + 2 + |estimate| * (log qn + log qd + 2)) / log q; the
# filter's margin is that bound times 2^12.
_LOG_ERROR = 2.0**-40


class GeometricBuckets:
    """Geometric value buckets [q^x, q^(x+1)) with q = 1 + delta.

    Bucket indices are found from a float log estimate.  When the estimate
    lies farther from an integer than its certified error margin, its floor
    is the index; otherwise exact integer comparisons against powers of q
    pin it down.  Either way two values land in the same bucket exactly
    when the rationals say so.  Zero gets its own bucket (None).  An index
    whose powers of q would exceed MAX_BUCKET_BITS raises OracleLimitError.
    """

    def __init__(self, delta: Fraction):
        delta = _rational(delta, "delta")
        if delta <= 0:
            raise ValueError("delta must be positive")
        q = 1 + delta
        self._qn = q.numerator
        self._qd = q.denominator
        self._log_q = math.log(self._qn) - math.log(self._qd)
        self._log_q_size = math.log(self._qn) + math.log(self._qd) + 2
        self._bits = self._qn.bit_length()

    def _at_least(self, num: int, den: int, x: int) -> bool:
        # num/den >= q^x, by cross-multiplication with integer powers
        if x >= 0:
            return num * self._qd**x >= den * self._qn**x
        return num * self._qn**-x >= den * self._qd**-x

    def index(self, value: Fraction) -> Optional[int]:
        """Bucket index of a nonnegative value; None is the zero bucket."""
        if value == 0:
            return None
        if value < 0:
            raise ValueError("bucketed values must be nonnegative")
        num, den = value.numerator, value.denominator
        log_num, log_den = math.log(num), math.log(den)
        log_value = log_num - log_den
        # |log_value / log_q| * bits >= MAX_BUCKET_BITS, multiplied out so
        # that a q which is 1 in floating point (log_q == 0) is always refused
        if abs(log_value) * self._bits >= MAX_BUCKET_BITS * self._log_q:
            raise OracleLimitError(
                f"the bucket grid is too fine: an index needs powers of q beyond "
                f"{MAX_BUCKET_BITS} bits; use a larger epsilon or delta"
            )
        estimate = log_value / self._log_q
        x = math.floor(estimate)
        margin = (
            _LOG_ERROR
            * (log_num + log_den + 2 + abs(estimate) * self._log_q_size)
            / self._log_q
        )
        if margin < estimate - x < 1 - margin:
            return x
        while not self._at_least(num, den, x):
            x -= 1
        while self._at_least(num, den, x + 1):
            x += 1
        return x


def totaltime_scheme(
    inst: Instance,
    epsilon: Fraction,
    delta: Optional[Fraction] = None,
    on_step=None,
) -> Schedule:
    """(1 + epsilon)-approximate completion-time sum via state-space sweeps.

    Requires every machine except possibly the last to keep at least an e0
    share (m1 >= m - 1).  Jobs are processed shortest-first; after each job,
    states with identical bucket signatures are merged, keeping the one with
    the smaller load on the last machine (ties keep the older state).  Pass
    delta=0 to disable merging, which makes the sweep exact.  States are kept
    as per-machine job sets and compared on integer keys; the schedule
    returned is `evaluate`'s.  `on_step`, if given, is called with
    (job_index, kept_states) after each job: a tuple, in creation order, of
    each survivor's per-machine job sets, where bit b stands for the b-th
    job of `job_order(inst.jobs, OrderRule.SPT)`.
    Refuses with OracleLimitError before a job whose states times m would
    exceed the oracle's ceiling of DEFAULT_MAX_M^DEFAULT_MAX_N leaves.
    """
    n, m = inst.n, inst.m
    if inst.m1 < m - 1:
        raise ValueError(
            f"m1={inst.m1} but the guarantee needs bounded shares on the first {m - 1} machines"
        )
    epsilon = _check_epsilon(epsilon)
    if delta is None:
        # with no jobs there is nothing to merge
        delta = epsilon * inst.e0 / (6 * n) if n else Fraction(0)
    else:
        delta = _rational(delta, "delta")
        if delta < 0:
            raise ValueError("delta must be nonnegative")

    subsets = SubsetTable(inst)
    get = subsets.get
    last = m - 1
    # a state is its per-machine job sets; states stay in creation order
    states: tuple[tuple[int, ...], ...] = ((0,) * m,)
    buckets = GeometricBuckets(delta) if delta > 0 else None
    if buckets is not None:
        index_of: dict[int, Optional[int]] = {}  # bucket index by key

        def bucket(key: int) -> Optional[int]:
            if key not in index_of:
                index_of[key] = buckets.index(Fraction(key, subsets.scale))
            return index_of[key]

        pairs: list[dict[int, tuple]] = [{} for _ in range(m)]

        def pair(i: int, mask: int) -> tuple:
            # bucket indices of a set's (load, cost) on machine i
            got = pairs[i].get(mask)
            if got is None:
                load, _, cost = get(i, mask)
                got = pairs[i][mask] = (bucket(load), bucket(cost))
            return got

        signatures = [tuple(pair(i, 0) for i in range(m))]

    for j in subsets.order:
        if len(states) * m > _LIMIT:
            raise OracleLimitError(
                f"extending {len(states)} states onto {m} machines exceeds the limit of {_LIMIT}"
            )
        bit = subsets.bits[j]
        # every state extended onto every machine, in creation order
        extended = [s[:i] + (s[i] | bit,) + s[i + 1 :] for s in states for i in range(m)]
        if buckets is None:
            chosen: Sequence[int] = range(len(extended))
        else:
            kept: dict[tuple, tuple[int, int]] = {}
            extended_sigs = []
            for pos, masks in enumerate(extended):
                idx, i = divmod(pos, m)
                sig = signatures[idx]
                sig = sig[:i] + (pair(i, masks[i]),) + sig[i + 1 :]
                extended_sigs.append(sig)
                last_load = get(last, masks[last])[0]
                prev = kept.get(sig)
                # survivor keeps the smaller load on the last machine
                if prev is None or last_load < prev[1]:
                    kept[sig] = (pos, last_load)
            chosen = sorted(pos for pos, _ in kept.values())
            signatures = [extended_sigs[pos] for pos in chosen]
        states = tuple([extended[pos] for pos in chosen])
        if on_step is not None:
            on_step(j, states)

    # the first state of least cost is the oldest one
    best = min(states, key=lambda masks: sum([get(i, mask)[2] for i, mask in enumerate(masks)]))
    # job order[b] runs on the machine whose set holds bit b
    machines = [next(i for i in range(m) if best[i] >> b & 1) for b in range(n)]
    return _schedule_of(inst, subsets.order, machines)
