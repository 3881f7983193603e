"""The pair runner's summary and, at toy size, its output schema (no time bounds)."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRIC_KEYS = {"unit", "better", "bound", "parent", "change", "median_change_rel",
               "parent_iqr", "change_wins", "within_bound", "runs"}


def result(rate, rss, failed=0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"main.samples_per_s": {"value": rate, "unit": "1/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}},
            "raw_rates": {"main": 2 * rate}}


def test_summary_counts_wins_bounds_and_the_claim():
    metrics = {"main.samples_per_s": {"name": "main.samples_per_s", "unit": "1/s",
                                      "better": "higher", "bound": 0.2},
               "peak_rss_mb": {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
                               "bound": 0.1}}
    runs = [{"parent": result(100.0 + i, 50.0), "change": result(110.0 + i, 56.0, i == 3)}
            for i in range(10)]
    runs[9]["change"] = result(100.0, 50.0)       # a tie counts for neither side
    block = pairs.summarise(runs, list(range(10)), metrics)
    assert block["first_in_pair"][:3] == ["parent", "change", "parent"]
    assert block["failed"] == {"parent": 0, "change": 1}
    assert block["attempted"] == {"parent": 100, "change": 100}
    assert not block["all_correct"]
    rate, rss = block["metrics"]["main.samples_per_s"], block["metrics"]["peak_rss_mb"]
    assert rate["change_wins"] == 9 and rate["within_bound"]
    assert rate["parent"] == {"q1": 102.25, "median": 104.5, "q3": 106.75}
    assert rss["change_wins"] == 0 and not rss["within_bound"]   # +12% against a 10% bound
    assert block["raw_rates"] == {"main": {"parent": {"q1": 204.5, "median": 209.0, "q3": 213.5},
                                           "change": {"q1": 222.5, "median": 227.0,
                                                      "q3": 231.5}}}
    assert pairs.claim(block, "train", "main.samples_per_s")["met"]
    runs[0]["change"] = result(99.0, 50.0)        # 8 wins in 10
    assert not pairs.claim(pairs.summarise(runs, list(range(10)), metrics), "train",
                           "main.samples_per_s")["met"]


def test_toy_pairs_write_the_schema(tmp_path):
    # two copies of this tree's program and benchmark, one run of each per pair
    trees = {}
    for side in pairs.SIDES:
        tree = trees[side] = tmp_path / side
        for part in ("src", "bench", "configs"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".bench_work"))
        shutil.copy(ROOT / "BENCHMARK.json", tree)
    metrics = pairs.declared(trace=False)
    runs = pairs.run_pairs(trees, "build", [3, 4], seconds=0.1, toy=True)
    block = pairs.summarise(runs, [3, 4], metrics)
    assert set(block) == {"pairs", "seeds", "first_in_pair", "all_correct", "failed",
                          "attempted", "metrics", "raw_rates"}
    # build times transform as main, filter as aux and synth as synth
    assert set(block["raw_rates"]) == {"main", "aux", "synth"}
    for rates in block["raw_rates"].values():
        assert all(rates[side]["q1"] > 0 for side in pairs.SIDES)
    assert block["pairs"] == 2 and block["first_in_pair"] == ["parent", "change"]
    assert all(block["attempted"][side] >= 2 for side in pairs.SIDES)
    assert set(block["metrics"]) == set(metrics)
    for m in block["metrics"].values():
        assert set(m) == METRIC_KEYS
        assert set(m["parent"]) == {"q1", "median", "q3"}
        assert len(m["runs"]["parent"]) == len(m["runs"]["change"]) == 2
    assert set(pairs.claim(block, "build", "main.samples_per_s")) == {
        "workload", "metric", "parent_median", "change_median", "median_change_rel",
        "parent_iqr", "change_wins", "pairs", "met"}
