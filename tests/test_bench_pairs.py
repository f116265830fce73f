"""`tools/bench_pairs.py`'s summary of alternating benchmark pairs, on canned runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "solve_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "instances_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mib", "better": "lower", "bound": 0.1},
]


def _run(workload, seed, side, p50, rate, rss, attempted, failed=0):
    metrics = {"solve_p50_ms": p50, "instances_per_s": rate, "peak_rss_mib": rss}
    return {"workload": workload, "seed": seed, "side": side, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _canned():
    # five pool pairs: the change is faster in four (a tie in the fifth), and
    # its peak is 11% higher with 20% more operations; one cli-large pair and
    # a lone change run that has no parent to pair with
    runs = []
    for k, (parent_p50, change_p50) in enumerate([(10, 8), (11, 8), (12, 9), (13, 10), (9, 9)]):
        seed = 101 + k
        runs.append(_run("pool", seed, "parent", parent_p50, 100 + k, 50, 1000))
        runs.append(_run("pool", seed, "change", change_p50, 100 + k, 55.5, 1200, failed=k == 4))
    runs.append(_run("cli-large", 101, "change", 17, 6.5, 26, 200))
    runs.append(_run("cli-large", 101, "parent", 18, 6.0, 27, 190))
    runs.append(_run("cli-large", 102, "change", 1, 60, 2, 2))
    return runs


def test_the_summary_compares_each_metric_over_the_pairs():
    summary = bench_pairs.summarize(_canned(), END_TO_END)
    assert list(summary) == ["pool", "cli-large"]
    pool = summary["pool"]
    assert pool["seeds"] == [101, 102, 103, 104, 105]
    p50 = pool["solve_p50_ms"]
    assert (p50["pairs"], p50["parent_median"], p50["change_median"]) == (5, 11, 9)
    assert p50["relative_change"] == pytest.approx(-2 / 11)
    assert p50["change_better_in"] == 4  # the tie counts for neither side
    assert (p50["parent_q1"], p50["parent_q3"]) == (10, 12)
    assert (p50["parent_range"], p50["change_range"]) == ([9, 13], [8, 10])
    assert p50["within_bound"] and not p50["beyond_parent_spread"]  # a gain of 2 against a spread of 2
    assert not p50["claim_rule_met"] and not p50["unresolved"]  # 4 of 5 pairs; a spread of 2 within 2.75
    rate = pool["instances_per_s"]
    assert rate["change_better_in"] == 0 and rate["within_bound"] and not rate["beyond_parent_spread"]
    rss = pool["peak_rss_mib"]
    assert rss["relative_change"] == pytest.approx(0.11)
    assert not rss["within_bound"]  # 11% over a 10% bound
    assert rss["attempted_median"] == {"parent": 1000, "change": 1200}
    assert pool["failed_operations"] == {"parent": 0, "change": 1}
    assert pool["attempted_operations"] == {"parent": 5000, "change": 6000}


def test_a_seed_with_one_side_only_is_left_out():
    cli = bench_pairs.summarize(_canned(), END_TO_END)["cli-large"]
    assert cli["seeds"] == [101]
    p50 = cli["solve_p50_ms"]
    assert (p50["pairs"], p50["change_better_in"]) == (1, 1)
    assert (p50["parent_q1"], p50["parent_q3"]) == (18, 18)
    assert p50["beyond_parent_spread"] and p50["within_bound"]
    assert p50["claim_rule_met"] and not p50["unresolved"]
    assert bench_pairs.summarize([_canned()[-1]], END_TO_END) == {}


def test_the_claim_rule_and_an_unresolved_metric():
    # ten pool pairs.  solve_p50_ms: the change wins 9, but the parent's runs
    # spread 4 (10 to 14) over a bound of 3 and its gain of 1 is within
    # them, and one change run reads worse than a parent run.
    # instances_per_s: 9 wins and a tie, a gain of 10 over no spread.
    # peak_rss_mib: the parent spreads 30 over a bound of 6.5 and the gain
    # of 25 is within it, but every change run beats every parent run.
    runs = []
    for k in range(10):
        parent_p50, change_p50 = (10, 9) if k % 2 == 0 else (14, 13)
        if k == 9:
            change_p50 = 15
        runs.append(_run("pool", k, "parent", parent_p50, 100, 50 if k % 2 == 0 else 80, 1000))
        runs.append(_run("pool", k, "change", change_p50, 100 if k == 0 else 110, 40, 1000))
    pool = bench_pairs.summarize(runs, END_TO_END)["pool"]
    p50, rate, rss = (pool[name] for name in ("solve_p50_ms", "instances_per_s", "peak_rss_mib"))
    assert (p50["change_better_in"], p50["parent_q3"] - p50["parent_q1"], p50["parent_median"]) == (9, 4, 12)
    assert not p50["claim_rule_met"] and p50["unresolved"]
    assert rate["change_better_in"] == 9 and rate["claim_rule_met"] and not rate["unresolved"]
    assert rss["change_better_in"] == 10 and not rss["beyond_parent_spread"]
    assert not rss["claim_rule_met"] and not rss["unresolved"]


def test_main_runs_alternating_pairs_on_an_extracted_parent_and_removes_it(monkeypatch, tmp_path):
    # `_run` stubbed: each call records its tree and what that tree holds then
    status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, check=True)
    names = [metric["name"] for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    calls = []

    def fake_run(root, workload, seed, seconds):
        wanted = (root / "perfbench" / "run.py", root / "src" / "sharedsched" / "__init__.py")
        calls.append((root, seed, all(path.is_file() for path in wanted)))
        metrics = dict.fromkeys(names, 1.0)
        return {"workload": workload, "seed": seed, "seconds": seconds, "exit": 0, "correct": True,
                "attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", "HEAD", "--workload", "pool", "--seed", "7", "--out", str(out)]) == 0
    parent_roots = {root for root, _, _ in calls if root != ROOT}
    assert len(parent_roots) == 1 and all(held for _, _, held in calls)
    tree = parent_roots.pop()
    sides = ["change" if root == ROOT else "parent" for root, _, _ in calls]
    assert [seed for _, seed, _ in calls] == [7 + k // 2 for k in range(2 * bench_pairs.PAIRS)]
    assert sides == ["parent", "change", "change", "parent"] * (bench_pairs.PAIRS // 2)
    assert not tree.exists()
    assert json.loads(out.read_text())["summary"]["pool"]["seeds"] == list(range(7, 7 + bench_pairs.PAIRS))
    after = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, check=True)
    assert after.stdout == status.stdout
