"""The summary arithmetic of ``tools/pair_bench.py``, on synthetic runs; no
benchmark is launched."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pair_bench", ROOT / "tools" / "pair_bench.py")
pair_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair_bench)


def test_quartiles_are_inclusive():
    assert pair_bench.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (2.0, 3.0, 4.0)
    # between order statistics: positions 0.75, 1.5 and 2.25 of 0..3
    assert pair_bench.quartiles([1.0, 2.0, 4.0, 8.0]) == (1.75, 3.0, 5.0)
    assert pair_bench.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_compare_counts_pairs_and_measures_the_gap():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 1.0, 4.0, 2.0]
    got = pair_bench.compare(parent, change)
    assert got["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "runs": parent}
    assert got["change"] == {"median": 2.0, "q1": 1.0, "q3": 2.5, "runs": change}
    # pair by pair: better, worse, better, tied, better
    assert (got["change_better_in"], got["change_worse_in"]) == ("3/5", "1/5")
    assert got["median_ratio"] == 2.0 / 3.0
    # (3 - 2) over the parent's IQR of 4 - 2
    assert got["median_gap_over_parent_iqr"] == 0.5


def test_compare_higher_is_better_flips_the_signs():
    got = pair_bench.compare([1.0, 2.0, 3.0], [2.0, 2.0, 1.0], better="higher")
    assert (got["change_better_in"], got["change_worse_in"]) == ("1/3", "1/3")
    assert got["median_gap_over_parent_iqr"] == 0.0


def test_compare_without_parent_spread_has_no_gap():
    got = pair_bench.compare([1.0, 1.0], [0.5, 0.5])
    assert got["median_gap_over_parent_iqr"] is None
    with pytest.raises(ValueError, match="pairs"):
        pair_bench.compare([1.0], [1.0, 2.0])


def test_reproduces_a_recorded_bench_file():
    # BENCH_13.json was assembled by hand in the schema the tool writes
    recorded = json.loads((ROOT / "BENCH_13.json").read_text())["end_to_end"]["verify"]
    for name in ("wall_s", "op_p50_s", "peak_rss_mb"):
        entry = recorded[name]
        got = pair_bench.compare(entry["parent"]["runs"], entry["change"]["runs"])
        for side in ("parent", "change"):
            assert got[side] == pytest.approx(entry[side]), name
        for key in ("change_better_in", "change_worse_in"):
            assert got[key] == entry[key], name
        for key in ("median_ratio", "median_gap_over_parent_iqr"):
            assert got[key] == pytest.approx(entry[key]), name


def test_summarize_builds_a_workload_entry():
    def record(wall, attempted=10, correct=True, failed=0):
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}}}

    results = {"screen": {"seeds": [1, 2, 3],
                          "parent": [record(1.0), record(1.2), record(1.1)],
                          "change": [record(0.8, 12), record(0.9, 11),
                                     record(1.3, 9, failed=1)]}}
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]
    got = pair_bench.summarize(results, metrics)["screen"]
    assert got["seeds"] == [1, 2, 3]
    assert got["wall_s"]["unit"] == "s"
    assert got["wall_s"]["change_better_in"] == "2/3"
    # every run's op count, beside its metrics; more ops count as better
    ops = got["ops_attempted"]
    assert ops["unit"] == "count"
    assert ops["parent"]["runs"] == [10, 10, 10] and ops["change"]["runs"] == [12, 11, 9]
    assert (ops["parent"]["median"], ops["change"]["median"]) == (10, 11)
    assert (ops["change_better_in"], ops["change_worse_in"]) == ("2/3", "1/3")
    assert "ops_attempted_median" not in got
    assert got["all_correct"] is True
    assert got["failed"] == {"parent": 0, "change": 1}


def test_probe_seconds_scale_to_the_quiet_kernel():
    # ready 0.25 s after the launch began; the kernel took twice its quiet
    # time, so the launch counts half
    assert pair_bench.probe_seconds(10.0, "10.25 0.001\n", 5e-4) == (0.25, 0.125)


def test_summarize_launches_compares_both_readings():
    parent = [(0.20, 0.10), (0.30, 0.12), (0.25, 0.11)]
    change = [(0.18, 0.11), (0.31, 0.10), (0.24, 0.09)]
    got = pair_bench.summarize_launches(parent, change)
    assert got["launches"] == 3
    seconds, scaled = got["seconds"], got["scaled_s"]
    assert (seconds["parent"]["median"], seconds["change"]["median"]) == (0.25, 0.24)
    assert (seconds["change_better_in"], seconds["change_worse_in"]) == ("2/3", "1/3")
    assert scaled["parent"]["runs"] == [0.10, 0.12, 0.11]
    assert (scaled["parent"]["median"], scaled["change"]["median"]) == (0.11, 0.10)
    assert scaled["change_better_in"] == "2/3"
    with pytest.raises(ValueError, match="pairs"):
        pair_bench.summarize_launches(parent, change[:2])
