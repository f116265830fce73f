"""Run the benchmark in alternating pairs of parent and change, and write the summary.

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_N.json
    python3 tools/bench_pairs.py --parent HEAD~1 --workload pool --seed 101 --out BENCH_N.json

The change is this checkout as it stands, uncommitted edits included; the
parent is the commit `--parent` names, extracted with `git archive` into a
temporary directory outside the checkout (`tempfile`, so `TMPDIR` chooses
where) and deleted at the end, so neither the work tree nor the repository
is changed.  For each workload, pair k of ten runs `perfbench/run.py --seed
<seed + k>` once on each side, one run at a time, the parent first when k is
even and the change first when k is odd.  Every run lasts BENCHMARK.json's
`run_seconds`.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


def _quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles, inclusive; a single value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload, each end-to-end metric compared over the pairs of `runs`.

    A run is a dict with `workload`, `seed`, `side` ("parent" or "change"),
    `attempted`, `failed` and `metrics` (name to value); a pair is the two
    sides' runs of one workload and seed, and a seed with only one side is
    left out.  `end_to_end` is BENCHMARK.json's list of metrics, each with
    `name`, `better` ("lower" or "higher") and `bound`.  Each metric's
    `claim_rule_met` and `unresolved` apply the rules of a claimed gain and
    of a spread wider than the bound.
    """
    by_key = {(run["workload"], run["seed"], run["side"]): run for run in runs}
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        seeds = sorted(
            {seed for w, seed, _ in by_key if w == workload and all((w, seed, s) in by_key for s in SIDES)}
        )
        pairs = [{side: by_key[workload, seed, side] for side in SIDES} for seed in seeds]
        if not pairs:
            continue
        entry: dict = {"seeds": seeds}
        for metric in end_to_end:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "higher" else -1
            values = {side: [pair[side]["metrics"][name] for pair in pairs] for side in SIDES}
            median = {side: statistics.median(values[side]) for side in SIDES}
            q1, q3 = _quartiles(values["parent"])
            gain = sign * (median["change"] - median["parent"])
            better_in = sum(
                sign * (pair["change"]["metrics"][name] - pair["parent"]["metrics"][name]) > 0 for pair in pairs
            )
            beyond_spread = gain > q3 - q1
            every_run_better = min(sign * v for v in values["change"]) > max(sign * v for v in values["parent"])
            entry[name] = {
                "pairs": len(pairs),
                "parent_median": median["parent"],
                "change_median": median["change"],
                "relative_change": (median["change"] - median["parent"]) / median["parent"],
                "change_better_in": better_in,
                "parent_q1": q1,
                "parent_q3": q3,
                "parent_range": [min(values["parent"]), max(values["parent"])],
                "change_range": [min(values["change"]), max(values["change"])],
                "bound": bound,
                "within_bound": gain >= -bound * median["parent"],
                "beyond_parent_spread": beyond_spread,
                # a gain may be claimed: the change wins nine tenths of the
                # pairs, ties counting for neither, beyond the parent's spread
                "claim_rule_met": 10 * better_in >= 9 * len(pairs) and beyond_spread,
                # the parent's own spread is wider than the bound, so the bound
                # cannot be judged, unless every change run beats every parent run
                "unresolved": q3 - q1 > bound * median["parent"] and not every_run_better,
            }
            if name == "peak_rss_mib":
                entry[name]["attempted_median"] = {
                    side: statistics.median(pair[side]["attempted"] for pair in pairs) for side in SIDES
                }
        for key in ("failed", "attempted"):
            entry[f"{key}_operations"] = {side: sum(pair[side][key] for pair in pairs) for side in SIDES}
        summary[workload] = entry
    return summary


def _git(*args: str) -> str:
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def _extract(commit: str, tree: Path) -> None:
    """The files of `commit`, as `git archive` gives them, written under `tree`."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True)
    tree.mkdir()
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)


def _run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One `perfbench/run.py` run in the checkout at `root`, as a run dict."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    child = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = child.stdout.strip().splitlines()
    if child.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {root} exited {child.returncode}: {child.stderr.strip()}")
    result = json.loads(lines[-1])
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "exit": child.returncode,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="the commit to compare against (default HEAD)")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="a workload to run, repeatable (default: every workload)")
    parser.add_argument("--seed", type=int, default=101, help="the seed of the first pair")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    parent = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    report = {
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {seconds}",
        "parent": parent,
        "change": f"the work tree on {_git('rev-parse', 'HEAD')}",
        "setup": "alternating pairs, one run at a time: pair k runs seed + k, the parent first when k is "
                 "even; quartiles by statistics.quantiles(method='inclusive')",
        "host": f"{platform.machine()}, Python {platform.python_version()}",
        "summary": {},
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as scratch:
        tree = Path(scratch) / "parent"
        _extract(parent, tree)
        roots = {"parent": tree, "change": ROOT}
        for workload in args.workload or workloads:
            for k in range(PAIRS):
                seed = args.seed + k
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    run = _run(roots[side], workload, seed, seconds)
                    report["runs"].append({**run, "side": side})
                    report["summary"] = summarize(report["runs"], spec["end_to_end"])
                    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
                    print(f"{workload} seed {seed} {side}: {run['metrics']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
