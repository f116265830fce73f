"""`tools/bench_pairs.py`'s summary of alternating benchmark pairs, on canned runs."""

import importlib.util
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
    assert bench_pairs.summarize([_canned()[-1]], END_TO_END) == {}
