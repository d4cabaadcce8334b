"""The summary of tools/bench_pairs.py, on fixed run lines."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"jobs_per_s": "higher", "job_p90_ms": "lower", "peak_rss_mb": "lower"}


def line(p90, jobs, rss=33.0):
    """The last line run.py prints, with three metrics."""
    metrics = {"job_p90_ms": (p90, "ms"), "jobs_per_s": (jobs, "1/s"), "peak_rss_mb": (rss, "MB")}
    return json.dumps({"correct": True, "attempted": 304, "failed": 0,
                       "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}})


# (seed, pair, side, run line)
RUN_LINES = [
    (131, 0, "base", line(18.0, 110.0)),
    (131, 0, "head", line(16.5, 115.0)),
    (131, 1, "head", line(17.0, 112.0)),
    (131, 1, "base", line(18.4, 112.0)),
    (131, 2, "base", line(17.8, 111.0)),
    (131, 2, "head", line(18.1, 116.0)),
    (7, 0, "base", line(18.2, 109.0, 33.5)),
    (7, 0, "head", line(16.9, 114.0, 33.5)),
    # a pair cut short by an interrupted run counts nowhere
    (7, 1, "head", line(1.0, 999.0)),
]


def runs():
    return [{"seed": seed, "pair": pair, "side": side, "result": json.loads(text)}
            for seed, pair, side, text in RUN_LINES]


def test_groups_and_pair_counts():
    summary = bench_pairs.summarize(runs(), BETTER)
    assert set(summary) == {"131", "7", "all"}
    assert {m["pairs"] for m in summary["131"].values()} == {3}
    assert {m["pairs"] for m in summary["7"].values()} == {1}
    assert {m["pairs"] for m in summary["all"].values()} == {4}


def test_medians_and_quartile_distance():
    p90 = bench_pairs.summarize(runs(), BETTER)["all"]["job_p90_ms"]
    # base 17.8, 18.0, 18.2, 18.4; head 16.5, 16.9, 17.0, 18.1
    assert p90["base"]["median"] == pytest.approx(18.1)
    assert p90["head"]["median"] == pytest.approx(16.95)
    # inclusive quartiles: 17.95 and 18.25; 16.8 and 17.275
    assert p90["base"]["iqr"] == pytest.approx(0.3)
    assert p90["head"]["iqr"] == pytest.approx(0.475)
    assert bench_pairs.summarize(runs(), BETTER)["7"]["job_p90_ms"]["base"] == {"median": 18.2, "iqr": 0.0}


def test_wins_follow_the_better_direction_and_ties_count_for_neither():
    summary = bench_pairs.summarize(runs(), BETTER)
    # lower is better: the head wins pairs 0 and 1 of seed 131 and pair 0 of seed 7
    assert summary["all"]["job_p90_ms"]["head_wins"] == 3
    assert summary["131"]["job_p90_ms"]["head_wins"] == 2
    # higher is better: pair 1 of seed 131 ties
    assert summary["all"]["jobs_per_s"]["head_wins"] == 3
    assert summary["all"]["jobs_per_s"]["ties"] == 1
    assert summary["all"]["peak_rss_mb"]["head_wins"] == 0
    assert summary["all"]["peak_rss_mb"]["ties"] == 4


def test_metrics_missing_from_a_run_are_left_out():
    summary = bench_pairs.summarize(runs(), {**BETTER, "setup_s": "lower"})
    assert "setup_s" not in summary["all"]


def prefixed(run, workload):
    """`run` as `run.py --workload all` reports it, each metric under `workload.`."""
    metrics = {f"{workload}.{name}": m for name, m in run["result"]["metrics"].items()}
    return {**run, "result": {**run["result"], "metrics": metrics}}


def test_prefixed_names_are_kept_and_take_the_direction_of_their_bare_name():
    combined = [prefixed(run, "optimize") for run in runs()]
    for run, extra in zip(combined, runs()):
        run["result"]["metrics"].update(prefixed(extra, "bounds")["result"]["metrics"])
    summary = bench_pairs.summarize(combined, BETTER)
    plain = bench_pairs.summarize(runs(), BETTER)
    assert set(summary["all"]) == {f"{w}.{name}" for w in ("bounds", "optimize") for name in BETTER}
    for group in ("131", "7", "all"):
        for name in BETTER:
            for workload in ("bounds", "optimize"):
                assert summary[group][f"{workload}.{name}"] == plain[group][name]


def test_metrics_without_a_direction_are_left_out():
    summary = bench_pairs.summarize([prefixed(run, "optimize") for run in runs()], {"jobs_per_s": "higher"})
    assert set(summary["all"]) == {"optimize.jobs_per_s"}
    assert summary["all"]["optimize.jobs_per_s"]["better"] == "higher"
