"""scripts/bench_pairs.py's summary of alternating parent/change pairs, on
synthetic runs: medians, the parent's quartiles, the pairs in which the
change is lower, a failed run or a missing metric left out, and episodes
compared pair by pair."""
import importlib.util
from pathlib import Path

import pytest

SCRIPT_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(run_s, episodes, raw_s, failed=0):
    """One run as run_once returns it: perfbench's result line plus the raw
    time and kernel samples."""
    return {"metrics": {"run_s": {"value": run_s}, "episodes_to_target": {"value": episodes}},
            "correct": True, "failed": failed,
            "raw_s": raw_s, "in_call_kernel_ms": 7.0, "edge_kernel_ms": 6.5}


PARENT_RUN_S = [1.0, 1.2, 1.1, 1.4, 1.3]
CHANGE_RUN_S = [0.9, 1.3, 1.0, 1.2, 1.1]


def _pairs(change_episodes=(40, 40, 40, 40, 40)):
    return [{"seed": seed, "first": "parent" if seed % 2 else "change",
             "parent": _run(old, 40, 2 * old), "change": _run(new, episodes, 2 * new)}
            for seed, old, new, episodes in zip(range(1, 6), PARENT_RUN_S, CHANGE_RUN_S,
                                                change_episodes)]


def test_medians_quartiles_and_lower_pairs(bench_pairs):
    summary = bench_pairs.summarize(_pairs())
    run_s = summary["run_s"]
    assert run_s["pairs"] == 5
    assert run_s["parent_median"] == 1.2 and run_s["change_median"] == 1.1
    assert run_s["relative_change_of_median"] == pytest.approx((1.1 - 1.2) / 1.2)
    # inclusive quartiles of the five parent runs: the 2nd and 4th smallest
    assert run_s["parent_quartiles"] == pytest.approx([1.1, 1.3])
    assert run_s["change_quartiles"] == pytest.approx([1.0, 1.2])
    assert run_s["change_lower_in_pairs"] == 4 and run_s["equal_in_pairs"] == 0
    # the raw time and kernel samples are summarized beside perfbench's metrics
    assert summary["raw_s"]["parent_median"] == 2.4
    assert summary["edge_kernel_ms"]["equal_in_pairs"] == 5
    assert summary["correct_all"] is True
    assert summary["failed_total"] == {"parent": 0, "change": 0}
    assert summary["runs_that_raised"] == 0


def test_a_pair_with_a_failed_run_is_left_out(bench_pairs):
    failed = {"seed": 6, "first": "change", "parent": _run(0.1, 1, 0.2),
              "change": {"error": "exit 1: Traceback"}}
    summary = bench_pairs.summarize(_pairs() + [failed])
    assert summary["run_s"]["pairs"] == 5
    assert summary["run_s"]["parent_median"] == 1.2
    assert summary["run_s"]["parent_quartiles"] == pytest.approx([1.1, 1.3])
    assert summary["runs_that_raised"] == 1
    assert summary["correct_all"] is False  # the run that raised reported nothing
    assert summary["episodes_equal_pair_by_pair"] is True


def test_failed_operations_are_counted_per_side(bench_pairs):
    pairs = _pairs()
    pairs[2]["change"]["failed"] = 3
    assert bench_pairs.summarize(pairs)["failed_total"] == {"parent": 0, "change": 3}


def test_episodes_are_compared_pair_by_pair(bench_pairs):
    assert bench_pairs.summarize(_pairs())["episodes_equal_pair_by_pair"] is True
    # equal medians do not hide a pair that differs
    summary = bench_pairs.summarize(_pairs(change_episodes=(40, 40, 41, 40, 40)))
    assert summary["episodes_to_target"]["change_median"] == 40
    assert summary["episodes_to_target"]["equal_in_pairs"] == 4
    assert summary["episodes_equal_pair_by_pair"] is False


def test_a_metric_missing_from_a_run_leaves_out_only_that_pair(bench_pairs):
    # a run too short for a kernel sample inside a call reports no in-call mean
    pairs = _pairs()
    del pairs[0]["change"]["in_call_kernel_ms"]
    del pairs[1]["parent"]["in_call_kernel_ms"]
    summary = bench_pairs.summarize(pairs)
    assert summary["in_call_kernel_ms"]["pairs"] == 3
    assert summary["run_s"]["pairs"] == 5
    for pair in pairs:
        pair["parent"].pop("in_call_kernel_ms", None)
    assert "in_call_kernel_ms" not in bench_pairs.summarize(pairs)
