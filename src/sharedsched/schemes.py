"""Approximation schemes: trade running time for a (1 + epsilon) guarantee.

For makespan: place the d largest jobs in every possible way, finish each
branch greedily, keep the best branch; the search is `oracle.best_placement`,
the oracle's own, and it skips every branch that cannot beat the greedy
LPT-ECT schedule.  For the completion-time sum: sweep jobs shortest-first
through a state space of per-machine job sets, merging states whose
(load, cost) pairs agree bucket-by-bucket on a geometric grid.  Both run on
`capacity.scale_instance`'s integer keys.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import chain, compress
from typing import Optional

from .capacity import finish_key, scale_instance
from .heuristics import OrderRule, _check_epsilon, _check_shares, _place_ect, job_order
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

    Searches the m^d placements of the d longest jobs; the rest follow
    longest first onto whichever machine completes them earliest.  The
    search is limited by LPT-ECT's makespan, which one placement reproduces,
    so it skips every placement whose partial makespan already passes the
    best found.  Ties keep the lexicographically smallest placement vector,
    so the result is deterministic and the same as an exhaustive search's.
    Refuses, before any work, a d that is not an integer in [0, n] with
    ValueError, and with OracleLimitError an m^d beyond the oracle's own
    ceiling of DEFAULT_MAX_M^DEFAULT_MAX_N leaves: a walk that cannot prune
    still visits every placement.  Each machine runs its jobs longest first.
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
    # LPT-ECT's makespan key: one of the branches reproduces it
    _, limit = _place_ect(scaled, [0] * m, [sizes[j] for j in by_length])
    placed, _ = best_placement(
        sizes, scaled, by_length[:d], Objective.MAKESPAN, by_length[d:], limit
    )
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
    The powers for the exponents next to the last exact index are kept, so
    a repeated value computes none again.
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
        # q^x as (top, bottom) for the exponents next to the last exact index
        self._powers: dict[int, tuple[int, int]] = {}

    def _at_least(self, num: int, den: int, x: int) -> bool:
        # num/den >= q^x = top/bottom, by cross-multiplication with integer powers
        power = self._powers.get(x)
        if power is None:
            power = (self._qn**x, self._qd**x) if x >= 0 else (self._qd**-x, self._qn**-x)
            self._powers[x] = power
        return num * power[1] >= den * power[0]

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
        # a repeated value needs only these powers again
        self._powers = {k: power for k, power in self._powers.items() if abs(k - x) <= 1}
        return x


def totaltime_scheme(
    inst: Instance, epsilon: Fraction, *, delta: Optional[Fraction] = None, on_step=None
) -> Schedule:
    """(1 + epsilon)-approximate completion-time sum via state-space sweeps.

    Requires every machine except possibly the last to keep at least an e0
    share (m1 >= m - 1).  Jobs are processed shortest-first.  The states are
    held as one column of job sets per machine: cols[i][s] is machine i's
    set in state s, bit b standing for the b-th job of
    `job_order(inst.jobs, OrderRule.SPT)`.  State s extended onto machine i
    is position s*m + i, so states stay in creation order.  After each job,
    states with identical bucket signatures merge, and each signature keeps
    its least (last-machine load, position): the smaller load on the last
    machine wins, and a tie keeps the older state.  Only a state whose new
    set shares its (load, cost) buckets with another set on that machine can
    merge, so only such states get a signature.  Pass delta=0 to disable
    merging, which makes the sweep exact.  States are compared on integer
    keys, and the schedule returned is `evaluate`'s.  `on_step`, if given,
    is called with (job_index, kept_states) after each job: the survivors in
    creation order, each packed for the callback alone into one integer
    whose bits i*n ... i*n+n-1 hold machine i's set.  Refuses with
    OracleLimitError before a job whose states times m would exceed the
    oracle's ceiling of DEFAULT_MAX_M^DEFAULT_MAX_N leaves.
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
    cols: list[list[int]] = [[0] for _ in range(m)]  # one state, every set empty
    # each machine's (load, shortest-first completion-time sum) keys of every
    # job set a state holds, and their bucket pair (None when nothing merges)
    sets: list[dict[int, tuple]] = [{0: (0, 0, (None, None))} for _ in range(m)]
    buckets = GeometricBuckets(delta) if delta > 0 else None
    for b, j in enumerate(order):
        if len(cols[0]) * m > _LIMIT:
            raise OracleLimitError(
                f"extending {len(cols[0])} states onto {m} machines exceeds the limit of {_LIMIT}"
            )
        bit, size = 1 << b, sizes[j]
        # per machine, the parents whose new set shares its (load, cost)
        # buckets with a parent or another new set there
        extended, marked = [], []
        for i, (col, made) in enumerate(zip(cols, sets)):
            grown = {}  # parent: the set the job makes from it, one int shared by its states
            for mask in set(col):
                load, cost, _ = made[mask]
                load += size
                cost += finish_key(scaled[i], load)
                pair = buckets and (buckets.index(load, scale), buckets.index(cost, scale))
                grown[mask] = new = mask | bit
                made[new] = (load, cost, pair)
            if buckets is not None:
                counts = Counter(made[mask][2] for mask in chain.from_iterable(grown.items()))
                sharing = {mask for mask, new in grown.items() if counts[made[new][2]] > 1}
                if sharing:
                    marked.append((i, sharing))
            # each parent m times; the job joins machine i's set at positions i, i+m, ...
            ext = list(chain.from_iterable(zip(*[col] * m)))
            ext[i::m] = map(grown.__getitem__, col)
            extended.append(ext)
        # Only a state whose new set is marked can merge: the states kept after
        # the last job have distinct signatures, so two extended states of one
        # signature that got the job on one machine hold two new sets of equal
        # buckets there, and two that got it on machines i and k hold, on i, a
        # new set and a parent of equal buckets.  Each signature keeps its least
        # (last-machine load, position): the smaller last load wins, and a tie
        # keeps the older state.
        least: dict[tuple, tuple[int, int]] = {}  # signature: least (last load, position)
        keep = bytearray(b"\x01") * len(extended[0])  # 0: merged away
        for i, sharing in marked:
            for s, mask in enumerate(cols[i]):
                if mask in sharing:
                    pos = s * m + i
                    sig = tuple([made[ext[pos]][2] for made, ext in zip(sets, extended)])
                    here = (sets[-1][extended[-1][pos]][0], pos)
                    least[sig] = min(here, least.get(sig, here))
                    keep[pos] = 0
        for _, pos in least.values():
            keep[pos] = 1
        if 0 in keep:
            extended = [list(compress(ext, keep)) for ext in extended]
        cols = extended
        if on_step is not None:
            shifted = [[c << i * n for c in col] for i, col in enumerate(cols)]
            on_step(j, tuple(map(sum, zip(*shifted))))

    # each state's cost summed over the machines; the first least is the oldest state
    totals = list(map(sum, zip(*[[made[c][1] for c in col] for made, col in zip(sets, cols)])))
    best = totals.index(min(totals))
    # job order[b] runs on the machine whose set holds bit b
    machines = [next(i for i, col in enumerate(cols) if col[best] >> b & 1) for b in range(n)]
    return _schedule_of(inst, order, machines)
