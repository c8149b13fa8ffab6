"""scripts/bench_summary.py on synthetic perfbench run records."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_summary",
                                               ROOT / "scripts" / "bench_summary.py")
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)


def write_record(directory, seed, op_p50_ref, commit, trace=0, peak_rss_mb=34.0, ok_frac=1.0,
                 setup_s=0.3):
    metrics = {"op_p50_ref": (op_p50_ref, "ref"), "ops_per_ref": (1.0 / op_p50_ref, "1/ref"),
               "setup_s": (setup_s, "s"), "op_tail_ref": (1.5 * op_p50_ref, "ref"),
               "ok_frac": (ok_frac, "1"), "peak_rss_mb": (peak_rss_mb, "MB")}
    record = {"workload": "sweep_solve", "seconds": 30.0, "trace": trace, "seed": seed,
              "python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "cpu_model": "test cpu",
              "git_commit": commit, "attempted": 100, "failed": 0, "incorrect": 0,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    directory.mkdir(exist_ok=True)
    path = directory / f"sweep_solve-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record))


def test_two_run_records_summarise_to_the_bench_layout(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_record(parent, 1, 2.0, "abc")
    write_record(parent, 2, 2.4, "abc")
    write_record(parent, 3, 9.9, "abc", trace=1)  # traced runs are not pairs
    write_record(change, 1, 1.6, "unknown")
    write_record(change, 2, 2.5, "unknown")
    out = tmp_path / "BENCH.json"
    bench_summary.main([str(parent), str(change), "--claim", "sweep_solve:op_p50_ref",
                        "--out", str(out)])
    document = json.loads(out.read_text())
    assert document["parent_commit"] == "abc"
    assert document["machine"] == {"nproc": 2, "cpu_model": "test cpu",
                                   "python": "3.11.7", "numpy": "2.4.6"}
    assert list(document["workloads"]) == ["sweep_solve"]
    entry = document["workloads"]["sweep_solve"]
    assert (entry["seeds"], entry["pairs"], entry["seconds"]) == ([1, 2], 2, 30.0)
    assert entry["op_p50_ref_change_lower_in"] == "1 of 2 pairs"
    assert entry["parent"]["op_p50_ref"] == pytest.approx({"median": 2.2, "q1": 2.1, "q3": 2.3})
    assert entry["change"]["ops_per_ref"]["median"] == pytest.approx((1 / 1.6 + 1 / 2.5) / 2)
    assert set(entry["parent"]) == {"setup_s", "op_p50_ref", "op_tail_ref", "ops_per_ref",
                                    "ok_frac", "peak_rss_mb", "failed_ops", "incorrect_ops"}
    assert document["claim"].startswith("sweep_solve op_p50_ref: lower in 1 of 2 pairs, "
                                        "median 2.2 -> 2.05")


def test_without_a_claim_the_runs_are_still_summarised(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (before, after) in enumerate([(2.0, 2.8), (2.2, 2.8), (2.4, 2.8)]):
        write_record(parent, seed, before, "abc")
        write_record(change, seed, after, "def", peak_rss_mb=35.0)
    out = tmp_path / "BENCH.json"
    bench_summary.main([str(parent), str(change), "--out", str(out)])
    document = json.loads(out.read_text())
    assert document["claim"] is None
    assert document["claim_met"] is None
    entry = document["workloads"]["sweep_solve"]
    assert not any(key.endswith("_in") for key in entry)  # no wins are counted
    assert entry["pairs"] == 3
    assert entry["parent"]["op_p50_ref"] == pytest.approx({"median": 2.2, "q1": 2.1, "q3": 2.3})
    assert entry["change"]["peak_rss_mb"]["median"] == 35.0
    assert entry["relative_change"]["op_p50_ref"] == pytest.approx(2.8 / 2.2 - 1.0)
    # +27 % on op_p50_ref (bound 20 %) and op_tail_ref (25 %); -21 % on ops_per_ref (25 %)
    assert document["over_bound"] == ["sweep_solve:op_p50_ref", "sweep_solve:op_tail_ref"]


def test_a_higher_is_better_claim_counts_higher_values(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (before, after) in enumerate([(2.0, 1.0), (2.0, 1.5), (2.0, 2.5)]):
        write_record(parent, seed, before, "abc")
        write_record(change, seed, after, "def")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    document = bench_summary.summarise(bench_summary.load_runs(parent),
                                       bench_summary.load_runs(change),
                                       "sweep_solve:ops_per_ref", benchmark)
    assert document["workloads"]["sweep_solve"]["ops_per_ref_change_higher_in"] == "2 of 3 pairs"


def test_relative_changes_and_metrics_over_their_bounds(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    # Over: op_p50_ref +30 % (bound 20 %), op_tail_ref +30 % (25 %), ok_frac -15 % (10 %).
    # Inside: ops_per_ref -23 % (25 %), peak_rss_mb +5 % (10 %), setup_s unchanged.
    for seed in range(3):
        write_record(parent, seed, 2.0, "abc")
        write_record(change, seed, 2.6, "def", peak_rss_mb=35.7, ok_frac=0.85)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    document = bench_summary.summarise(bench_summary.load_runs(parent),
                                       bench_summary.load_runs(change),
                                       "sweep_solve:op_p50_ref", benchmark)
    changes = document["workloads"]["sweep_solve"]["relative_change"]
    assert changes == pytest.approx({"setup_s": 0.0, "op_p50_ref": 0.3, "op_tail_ref": 0.3,
                                     "ops_per_ref": 2.0 / 2.6 - 1.0, "ok_frac": -0.15,
                                     "peak_rss_mb": 0.05})
    assert document["over_bound"] == ["sweep_solve:op_p50_ref", "sweep_solve:op_tail_ref",
                                      "sweep_solve:ok_frac"]


def test_a_better_change_is_over_no_bound(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_record(parent, 1, 2.0, "abc", ok_frac=0.0)
    write_record(change, 1, 1.0, "def", peak_rss_mb=30.0, ok_frac=0.5)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    document = bench_summary.summarise(bench_summary.load_runs(parent),
                                       bench_summary.load_runs(change),
                                       "sweep_solve:op_p50_ref", benchmark)
    changes = document["workloads"]["sweep_solve"]["relative_change"]
    assert changes["op_p50_ref"] == pytest.approx(-0.5)
    assert changes["ok_frac"] is None  # a parent median of 0 has no relative change
    assert document["over_bound"] == []


def summarise_pairs(tmp_path, pairs, claim="sweep_solve:op_p50_ref"):
    """The document of one (parent, change) pair of records per item of
    ``pairs``, each item an (op_p50_ref, setup_s) pair of pairs."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, ((p50_before, p50_after), (setup_before, setup_after)) in enumerate(pairs):
        write_record(parent, seed, p50_before, "abc", setup_s=setup_before)
        write_record(change, seed, p50_after, "def", setup_s=setup_after)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return bench_summary.summarise(bench_summary.load_runs(parent),
                                   bench_summary.load_runs(change), claim, benchmark)


PARENT_P50 = [2.0 + 0.04 * i for i in range(10)]  # median 2.18, q3 - q1 = 0.18 (8 %)


def test_a_nine_in_ten_win_inside_the_parent_spread_is_not_met(tmp_path):
    # 9 of 10 pairs 0.05 lower, one 0.05 higher: the medians differ by less than 0.18
    steps = [-0.05] * 9 + [0.05]
    document = summarise_pairs(tmp_path, [((p, p + dp), (0.3, 0.3))
                                          for p, dp in zip(PARENT_P50, steps)])
    entry = document["workloads"]["sweep_solve"]
    assert entry["op_p50_ref_change_lower_in"] == "9 of 10 pairs"
    assert entry["parent"]["op_p50_ref"]["q3"] - entry["parent"]["op_p50_ref"]["q1"] \
        == pytest.approx(0.18)
    assert document["claim_met"] is False
    assert document["unresolved"] == []


@pytest.mark.parametrize("steps, met", [
    ([-0.5] * 10, True),             # a clear win in every pair
    ([-0.5] * 9 + [0.05], True),     # 9 of 10 is enough
    ([-0.5] * 8 + [0.05] * 2, False),  # 8 of 10 is not, however far the medians move
    ([-0.5] * 9 + [0.0], True),      # a tie counts for neither side
    ([-0.5] * 8 + [0.0] * 2, False),
])
def test_the_claim_rule_counts_wins_and_ties(tmp_path, steps, met):
    document = summarise_pairs(tmp_path, [((p, p + dp), (0.3, 0.3))
                                          for p, dp in zip(PARENT_P50, steps)])
    assert document["claim_met"] is met


@pytest.mark.parametrize("setup_after, listed", [
    (lambda before: before, True),          # the parent spread hides any change
    (lambda before: before - 0.15, True),   # medians apart, but the runs overlap
    (lambda before: 0.1 * before, False),   # every change run beats every parent run
])
def test_a_metric_spread_wider_than_its_bound_is_unresolved(tmp_path, setup_after, listed):
    # setup_s quartiles 0.3-0.6 around a median of 0.45: 67 % against a bound of 25 %
    setup_before = [0.2 + 0.1 * (i % 5) for i in range(10)]
    document = summarise_pairs(tmp_path, [((p, p - 0.5), (s, setup_after(s)))
                                          for p, s in zip(PARENT_P50, setup_before)])
    assert document["unresolved"] == (["sweep_solve:setup_s"] if listed else [])
    assert document["claim_met"] is True  # the claimed metric is resolved either way
    assert document["over_bound"] == []
