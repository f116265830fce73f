"""Command line front end.

Subcommands: solve (one algorithm, JSON report), compare (all algorithms
against the exact optimum, CSV), experiment (seeded random trials with bound
checks, CSV), gadget (emit instance JSON).  Exit codes: 0 success, 2 bad
input, 3 work beyond a limit (the oracle's size limits, the makespan
scheme's branch cap, the total-time scheme's state ceiling or bucket cap,
a size flag of `gadget random` or `experiment` past its ceiling, or a
result or generated instance with more digits than Python converts to a
string).  `compare` leaves out the row of an algorithm that refuses on a
limit and prints the rest.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from . import generators, heuristics, schemes
from .model import (
    Instance,
    Objective,
    Schedule,
    _frac_from_str,
    instance_from_json,
    instance_to_json,
    objective_value,
)
from .oracle import DEFAULT_MAX_N, OracleLimitError, exact_optimal


class Algorithm(NamedTuple):
    objective: Optional[Objective]  # None: the oracle, which serves either objective
    # (inst, objective, epsilon, d) -> (schedule, the parameters solve reports)
    run: Callable[[Instance, Objective, Optional[Fraction], Optional[int]], tuple[Schedule, dict]]
    # (m, m1, epsilon) -> whether compare and experiment run it
    listed: Callable[[int, int, Optional[Fraction]], bool] = lambda m, m1, epsilon: True


def _heuristic(rule: Callable[[Instance], Schedule]) -> Callable:
    return lambda inst, objective, epsilon, d: (rule(inst), {})


def _scheme_makespan(inst: Instance, objective, epsilon, d) -> tuple:
    params: dict = {}
    if d is None:
        if epsilon is None:
            raise ValueError("scheme-makespan needs --epsilon or --d")
        d = schemes.compute_d(inst.m, inst.m1, inst.e0, epsilon, inst.n)
        params["epsilon"] = str(epsilon)
    params["d"] = d
    return schemes.makespan_scheme(inst, d), params


def _scheme_totaltime(inst: Instance, objective, epsilon, d) -> tuple:
    if epsilon is None:
        raise ValueError("scheme-totaltime needs --epsilon")
    return schemes.totaltime_scheme(inst, epsilon), {"epsilon": str(epsilon)}


def _oracle(inst: Instance, objective, epsilon, d) -> tuple:
    # the one reader of SCHED_ORACLE_MAX_N; the library takes only max_n
    env = os.environ.get("SCHED_ORACLE_MAX_N")
    try:
        max_n = int(env) if env else DEFAULT_MAX_N
    except ValueError:
        raise ValueError(f"SCHED_ORACLE_MAX_N={env!r} is not an integer") from None
    result = exact_optimal(inst, objective, max_n)
    return result.best, {"states_explored": result.states_explored}


ALGORITHMS = {
    "ls": Algorithm(Objective.MAKESPAN, _heuristic(heuristics.ls)),
    "lpt": Algorithm(Objective.MAKESPAN, _heuristic(heuristics.lpt)),
    "ls-ect": Algorithm(Objective.MAKESPAN, _heuristic(heuristics.ls_ect)),
    "lpt-ect": Algorithm(Objective.MAKESPAN, _heuristic(heuristics.lpt_ect)),
    "spt": Algorithm(Objective.TOTAL_COMPLETION, _heuristic(heuristics.spt)),
    "spt-ect": Algorithm(Objective.TOTAL_COMPLETION, _heuristic(heuristics.spt_ect)),
    "scheme-makespan": Algorithm(
        Objective.MAKESPAN, _scheme_makespan, lambda m, m1, epsilon: epsilon is not None
    ),
    "scheme-totaltime": Algorithm(
        Objective.TOTAL_COMPLETION,
        _scheme_totaltime,
        lambda m, m1, epsilon: epsilon is not None and m1 >= m - 1,
    ),
    "oracle": Algorithm(None, _oracle),
}


class OutputLimitError(Exception):
    """A result has more digits than Python converts to a string."""


class FlagLimitError(Exception):
    """A size flag asks for more than its ceiling."""


# Ceilings on the flags that size `gadget random` and `experiment`, far above
# the largest benchmark instance (n 1300, m 7, 40 breakpoints per machine).
# Each flag is checked before anything is built, so a refused run does no work.
CEILINGS = {"n": 10_000, "m": 64, "max_breakpoints": 1_000, "trials": 10_000}


def _check_ceilings(args) -> None:
    for name, ceiling in CEILINGS.items():
        value = getattr(args, name, None)
        if value is not None and value > ceiling:
            flag = "--" + name.replace("_", "-")
            raise FlagLimitError(f"{flag}={value} exceeds its ceiling of {ceiling}")


def _fail(kind: str, message: str) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return 2 if kind == "input" else 3


def _read_instance(path: str) -> Instance:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    return instance_from_json(text)


def _epsilon(args) -> Optional[Fraction]:
    # absent only when the flag is; every given value must parse
    return None if args.epsilon is None else _frac_from_str(args.epsilon, "--epsilon")


def _fmt(value: Fraction, what: str, decimal: bool = False) -> str:
    """`value` as p/q (or as a float with `decimal`); `what` names it in a refusal."""
    if decimal:
        try:
            return repr(float(value))
        except OverflowError:
            raise ValueError("--decimal: a value is beyond the range of a float") from None
    try:
        return str(value)
    except ValueError:  # Python's limit on integer string conversion
        raise OutputLimitError(
            f"{what} has more digits than Python converts to a string (4300 by default)"
        ) from None


def cmd_solve(args) -> int:
    inst = _read_instance(args.instance)
    objective = Objective(args.obj)
    epsilon = _epsilon(args)
    started = time.perf_counter()
    schedule, params = ALGORITHMS[args.alg].run(inst, objective, epsilon, args.d)
    elapsed = time.perf_counter() - started
    digest = hashlib.sha256(instance_to_json(inst).encode("utf-8")).hexdigest()
    completions = [
        _fmt(c, f"the completion of job {j}", args.decimal)
        for j, c in enumerate(schedule.completions, start=1)
    ]
    report = {
        "instance_digest": digest,
        "algorithm": args.alg,
        "objective": args.obj,
        "value": _fmt(objective_value(schedule, objective), f"the {args.obj} value", args.decimal),
        "wall_time_s": round(elapsed, 6),
        "completions": completions,
        "assignment": [[j + 1 for j in seq] for seq in schedule.assignment],
    }
    if params:
        report["params"] = params
    print(json.dumps(report, indent=2))
    return 0


def cmd_compare(args) -> int:
    inst = _read_instance(args.instance)
    objective = Objective(args.obj)
    epsilon = _epsilon(args)

    runs: dict[str, Fraction] = {}
    for name, alg in ALGORITHMS.items():
        if alg.objective not in (objective, None) or not alg.listed(inst.m, inst.m1, epsilon):
            continue
        try:
            schedule, _ = alg.run(inst, objective, epsilon, None)
        except OracleLimitError:
            continue  # a refused row is left out
        runs[name] = objective_value(schedule, objective)
    # the oracle's row is the reference; without it every ratio is unavailable
    oracle_value = runs.get("oracle")

    rows = [
        [
            name,
            _fmt(value, f"the value of {name}", args.decimal),
            "unavailable"
            if oracle_value is None
            else _fmt(value / oracle_value, f"the ratio of {name}", args.decimal),
        ]
        for name, value in runs.items()
    ]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["algorithm", "value", "ratio_to_oracle"])
    writer.writerows(rows)
    return 0


def _random_spec(args, e0: Fraction, seed: int) -> generators.RandomSpec:
    # experiment and gadget random share these flags; only gadget's --m1 is optional
    return generators.RandomSpec(
        n=args.n, m=args.m, m1=args.m if args.m1 is None else args.m1, e0=e0,
        p_max=args.p_max, min_breakpoints=args.min_breakpoints,
        max_breakpoints=args.max_breakpoints, seed=seed,
    )


def cmd_experiment(args) -> int:
    _check_ceilings(args)
    e0 = _frac_from_str(args.e0, "--e0")
    epsilon = _epsilon(args)
    objective = Objective(args.obj)
    if args.trials < 0:
        raise ValueError("--trials must be nonnegative")
    names = [
        name
        for name, alg in ALGORITHMS.items()
        if alg.objective is objective and alg.listed(args.m, args.m1, epsilon)
    ]

    rows = []
    for trial in range(args.trials):
        seed = args.seed + trial
        inst = generators.random_instance(_random_spec(args, e0, seed))
        opt: Optional[Fraction] = None
        if args.with_oracle:
            # the first trial's oracle call refuses an oversized run before any other work
            opt = objective_value(_oracle(inst, objective, epsilon, None)[0], objective)
        for name in names:
            schedule, _ = ALGORITHMS[name].run(inst, objective, epsilon, None)
            value = objective_value(schedule, objective)
            bound = heuristics.guarantee_ratio(
                name, n=inst.n, m=inst.m, m1=inst.m1, e0=inst.e0, epsilon=epsilon
            )
            ratio = value / opt if opt else None
            satisfied = ""
            if bound is not None and ratio is not None:
                satisfied = "true" if ratio <= bound else "false"
            where = f"trial seed {seed}, {name}"
            rows.append(
                [
                    seed,
                    name,
                    _fmt(value, f"the value of {where}"),
                    _fmt(opt, f"the oracle value of {where}") if opt is not None else "",
                    _fmt(ratio, f"the ratio of {where}") if ratio is not None else "",
                    _fmt(bound, f"the bound of {where}") if bound is not None else "",
                    satisfied,
                ]
            )

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        ["seed", "algorithm", "value", "oracle_value", "ratio", "bound", "bound_satisfied"]
    )
    writer.writerows(rows)
    return 0


def cmd_gadget(args) -> int:
    if args.kind in ("partition-makespan", "partition-totaltime"):
        try:
            sizes = [int(part) for part in args.a.split(",") if part.strip() != ""]
        except ValueError as exc:
            raise ValueError(f"--a: cannot parse {args.a!r} as comma-separated integers") from exc
        build = (
            generators.partition_gadget_makespan
            if args.kind == "partition-makespan"
            else generators.partition_gadget_totaltime
        )
        inst = build(sizes, args.f)
    elif args.kind == "named":
        kwargs = {
            name: _frac_from_str(value, f"--{name}")
            for name in ("e0", "x", "alpha")
            if (value := getattr(args, name)) is not None
        }
        inst = generators.named_example(args.name, **kwargs)
    else:
        _check_ceilings(args)
        e0 = _frac_from_str(args.e0, "--e0") if args.e0 is not None else Fraction(1, 2)
        inst = generators.random_instance(_random_spec(args, e0, args.seed))
    # numbers built from parameters that parse can still pass the digit limit
    for i, mp in enumerate(inst.machines, start=1):
        for k, iv in enumerate(mp.intervals, start=1):
            for field, value in (("start", iv.start), ("end", iv.end), ("ratio", iv.ratio)):
                if value is not None:
                    _fmt(value, f"the {field} of machine {i} interval {k}")
    for j, p in enumerate(inst.jobs, start=1):
        _fmt(p, f"job {j}")
    _fmt(inst.e0, "e0")
    print(instance_to_json(inst))
    return 0


def _ceiling_help(name: str) -> str:
    return f"at most {CEILINGS[name]:,}; more exits 3"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sharedsched",
        description="Schedule jobs on machines that only lend part of their capacity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags of a run on an instance file that solve and compare share
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("instance", help="instance JSON path, or - for stdin")
    run_flags.add_argument("--obj", required=True, choices=["makespan", "totaltime"])
    run_flags.add_argument("--epsilon", help="accuracy parameter for the schemes, e.g. 1/4")
    run_flags.add_argument("--decimal", action="store_true", help="print floats instead of p/q")

    solve = sub.add_parser(
        "solve", parents=[run_flags], help="run one algorithm on an instance file"
    )
    solve.add_argument("--alg", required=True, choices=ALGORITHMS)
    solve.add_argument("--d", type=int, help="enumeration depth for scheme-makespan")
    solve.set_defaults(func=cmd_solve)

    compare = sub.add_parser(
        "compare", parents=[run_flags], help="run every algorithm and compare to the optimum"
    )
    compare.set_defaults(func=cmd_compare)

    # the flags of a random instance that experiment and gadget random share
    random_flags = argparse.ArgumentParser(add_help=False)
    random_flags.add_argument("--n", type=int, required=True, help=_ceiling_help("n"))
    random_flags.add_argument("--m", type=int, required=True, help=_ceiling_help("m"))
    random_flags.add_argument("--seed", type=int, default=0)
    random_flags.add_argument("--p-max", type=int, default=10)
    random_flags.add_argument("--min-breakpoints", type=int, default=0)
    random_flags.add_argument(
        "--max-breakpoints", type=int, default=3, help=_ceiling_help("max_breakpoints")
    )

    experiment = sub.add_parser(
        "experiment", parents=[random_flags], help="seeded random trials with bound checks"
    )
    experiment.add_argument("--m1", type=int, required=True)
    experiment.add_argument("--e0", required=True)
    experiment.add_argument("--trials", type=int, required=True, help=_ceiling_help("trials"))
    experiment.add_argument("--obj", default="makespan", choices=["makespan", "totaltime"])
    experiment.add_argument("--epsilon")
    experiment.add_argument("--with-oracle", action="store_true")
    experiment.set_defaults(func=cmd_experiment)

    gadget = sub.add_parser("gadget", help="emit an instance as JSON")
    gsub = gadget.add_subparsers(dest="kind", required=True)
    for kind in ("partition-makespan", "partition-totaltime"):
        g = gsub.add_parser(kind, help="two-machine equal-split gadget")
        g.add_argument("--a", required=True, help="comma-separated integer job sizes")
        g.add_argument("--f", type=int, required=True, help="slowdown factor > 1")
        g.set_defaults(func=cmd_gadget)
    named = gsub.add_parser("named", help="worked example by name")
    named.add_argument("name", choices=generators.NAMED_EXAMPLES)
    named.add_argument("--e0")
    named.add_argument("--x")
    named.add_argument("--alpha")
    named.set_defaults(func=cmd_gadget)
    rand = gsub.add_parser("random", parents=[random_flags], help="seeded random instance")
    rand.add_argument("--m1", type=int)
    rand.add_argument("--e0")
    rand.set_defaults(func=cmd_gadget)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # the library raises ValueError on every input it rejects
        return _fail("input", str(exc))
    except (OracleLimitError, OutputLimitError, FlagLimitError) as exc:
        return _fail("limit", str(exc))


if __name__ == "__main__":
    sys.exit(main())
