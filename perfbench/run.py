"""sharedsched benchmark: run one workload in a fresh process and report its metrics.

    python3 perfbench/run.py --workload pool --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the library is taken
from the checkout's `src`.  Prints every metric by name and unit, then, as
the last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics of BENCHMARK.json with `--trace 0`, its
per-layer metrics with `--trace 1`).  Exits non-zero when any output is
wrong or the run cannot complete.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "sharedsched" / "__init__.py").is_file():
        return fail(f"no library source under {ROOT / 'src'}")
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        child = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"workload {args.workload} did not finish within {TIMEOUT_S} s")
    if child.returncode != 0:
        return fail(f"workload process exited with code {child.returncode}")
    try:
        raw = json.loads(child.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return fail("workload process printed no result")
    # the only child, so this is the workload process's own peak
    raw["metrics"]["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    missing = [m["name"] for m in wanted if m["name"] not in raw["metrics"]]
    if missing:
        return fail(f"workload reported no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": raw["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, failed = raw["attempted"], raw["failed"]

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'error_rate':<44} {failed / attempted:>14.6g} fraction ({failed} failed of {attempted} attempted)")
    for key, value in raw["notes"].items():
        print(f"  {key:<44} {value}")
    for problem in raw["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
