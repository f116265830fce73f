"""Approximation schemes: trade running time for a (1 + epsilon) guarantee.

For makespan: place the d largest jobs in every possible way, finish each
branch greedily, keep the best branch; the search is `oracle.best_placement`,
the oracle's own.  For the completion-time sum: sweep jobs shortest-first
through a state space of per-machine job sets, merging states whose
(load, cost) pairs agree bucket-by-bucket on a geometric grid.  Both run on
`capacity.scale_instance`'s integer keys.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Optional

from .capacity import finish_key, scale_instance
from .heuristics import OrderRule, _check_epsilon, _check_shares, job_order
from .model import Instance, Objective, Schedule, _rational, _schedule_of
from .oracle import DEFAULT_MAX_M, DEFAULT_MAX_N, OracleLimitError, best_placement

__all__ = [
    "compute_d",
    "makespan_scheme",
    "GeometricBuckets",
    "totaltime_scheme",
]


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
    deterministic.  Refuses, before any work, a d that is not an integer in
    [0, n] with ValueError, and with OracleLimitError an m^d beyond the
    oracle's own ceiling of DEFAULT_MAX_M^DEFAULT_MAX_N leaves.  Each
    machine runs its jobs longest first.
    """
    n, m = inst.n, inst.m
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError(f"d={d!r} is not an integer")
    if not (0 <= d <= n):
        raise ValueError(f"d={d} is outside [0, {n}]")
    if m**d > _LIMIT:
        raise OracleLimitError(f"{m}^{d} placements exceed the limit of {_LIMIT}")
    _, sizes, scaled = scale_instance(inst)
    by_length = job_order(sizes, OrderRule.LPT)
    placed, _ = best_placement(sizes, scaled, by_length[:d], Objective.MAKESPAN, by_length[d:])
    return _schedule_of(inst, by_length, placed)


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

    `index(num, den)` takes a value as integers, reduced or not, and refuses
    a den <= 0 with ValueError; a key over a scale S is `index(key, S)`.
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

    def index(self, num: int, den: int) -> Optional[int]:
        """Bucket index of the nonnegative value num/den; None is the zero bucket."""
        if den <= 0:
            raise ValueError(f"a bucketed value's denominator must be positive, not {den}")
        if num == 0:
            return None
        if num < 0:
            raise ValueError("bucketed values must be nonnegative")
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
    inst: Instance, epsilon: Fraction, *, delta: Optional[Fraction] = None, on_step=None
) -> Schedule:
    """(1 + epsilon)-approximate completion-time sum via state-space sweeps.

    Requires every machine except possibly the last to keep at least an e0
    share (m1 >= m - 1).  Jobs are processed shortest-first; after each job,
    states with identical bucket signatures are merged, keeping the one with
    the smaller load on the last machine (ties keep the older state).  Pass
    delta=0 to disable merging, which makes the sweep exact.  A state is one
    integer: bits i*n ... i*n+n-1 hold machine i's job set, bit i*n+b
    standing for the b-th job of `job_order(inst.jobs, OrderRule.SPT)`.
    States are compared on integer keys, and the schedule returned is
    `evaluate`'s.  A state can merge only when the set the job joined shares
    its (load, cost) buckets with another set on that machine, so only such
    states get a signature.  `on_step`, if given, is called with
    (job_index, kept_states) after each job: the survivors as the sweep
    holds them, a tuple of those integers in creation order.
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

    scale, sizes, scaled = scale_instance(inst)
    order = job_order(sizes, OrderRule.SPT)
    # a state is one integer: machine i's job set takes bits i*n ... i*n+n-1,
    # bit i*n+b standing for job order[b]; states stay in creation order
    full = (1 << n) - 1
    shifts = [i * n for i in range(m)]
    states: tuple[int, ...] = (0,)
    # each machine's (load, shortest-first completion-time sum) keys of every
    # job set a state holds, and their bucket pair (None when nothing merges)
    sets: list[dict[int, tuple]] = [{0: (0, 0, (None, None))} for _ in range(m)]
    buckets = GeometricBuckets(delta) if delta > 0 else None
    for b, j in enumerate(order):
        if len(states) * m > _LIMIT:
            raise OracleLimitError(
                f"extending {len(states)} states onto {m} machines exceeds the limit of {_LIMIT}"
            )
        bit, size = 1 << b, sizes[j]
        # per machine, the parents whose new set shares its (load, cost)
        # buckets with a parent or another new set there
        marked = []
        for i, made in enumerate(sets):
            shift = shifts[i]
            parents = {s >> shift & full for s in states}
            # each set the job makes, filled from its parent
            for mask in parents:
                load, cost, _ = made[mask]
                load += size
                cost += finish_key(scaled[i], load)
                pair = buckets and (buckets.index(load, scale), buckets.index(cost, scale))
                made[mask | bit] = (load, cost, pair)
            if buckets is not None:
                made_pairs = [made[mask | bit][2] for mask in parents]
                counts = Counter([made[mask][2] for mask in parents] + made_pairs)
                sharing = {mask for mask, pair in zip(parents, made_pairs) if counts[pair] > 1}
                if sharing:
                    marked.append((i, sharing))
        # every state extended onto every machine, in creation order
        extended = [s | bit << shift for s in states for shift in shifts]
        # Only a state whose new set is marked can merge: the states kept after
        # the last job have distinct signatures, so two extended states of one
        # signature that got the job on one machine hold two new sets of equal
        # buckets there, and two that got it on machines i and k hold, on i, a
        # new set and a parent of equal buckets.  Taken in creation order, a
        # state merged away becomes 0; every other one holds the job's bit.
        kept: dict[tuple, tuple[int, int]] = {}  # signature: (position, last load)
        for idx, s in enumerate(states):
            for i, sharing in marked:
                if s >> shifts[i] & full in sharing:
                    pos = idx * m + i
                    t = extended[pos]
                    sig = tuple([held[t >> shift & full][2] for held, shift in zip(sets, shifts)])
                    last_load = sets[-1][t >> shifts[-1]][0]
                    # the survivor keeps the smaller load on the last machine; a tie
                    # keeps the older state
                    keeper, keeper_load = kept.setdefault(sig, (pos, last_load))
                    if last_load < keeper_load:
                        extended[keeper] = 0
                        kept[sig] = (pos, last_load)
                    elif keeper != pos:
                        extended[pos] = 0
        states = tuple(filter(None, extended))
        if on_step is not None:
            on_step(j, states)

    # each state's cost summed over the machines; the first least is the oldest state
    costs = [[made[s >> shift & full][1] for s in states] for made, shift in zip(sets, shifts)]
    totals = list(map(sum, zip(*costs)))
    best = states[totals.index(min(totals))]
    # job order[b] runs on the machine whose set holds bit b
    machines = [next(i for i in range(m) if best >> shifts[i] + b & 1) for b in range(n)]
    return _schedule_of(inst, order, machines)
