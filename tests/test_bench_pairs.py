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


# verdict(base, head, direction, bound): pairs are the i-th base and head runs
def test_verdict_gain_needs_nine_of_ten_wins_and_a_gap_past_the_base_quartiles():
    base = [1.00, 1.02, 1.04, 1.06, 1.08, 1.01, 1.03, 1.05, 1.07, 1.09]
    head = [b - 0.1 for b in base]
    assert bench_pairs.verdict(base, head, "lower", 0.25) == "gain"
    # a tie counts for neither side: 9 wins of 10 pairs is still a gain
    assert bench_pairs.verdict(base, head[:9] + [base[9]], "lower", 0.25) == "gain"
    # 8 wins of 10 is not
    assert bench_pairs.verdict(base, head[:8] + base[8:], "lower", 0.25) == "within bound"
    # every pair won, but the medians differ by less than the base quartile distance (0.045)
    assert bench_pairs.verdict(base, [b - 0.01 for b in base], "lower", 0.25) == "within bound"
    # higher is better
    assert bench_pairs.verdict(head, base, "higher", 0.25) == "gain"
    assert bench_pairs.verdict(base, head, "higher", 0.25) == "within bound"


def test_verdict_regression_is_a_median_worse_by_more_than_the_bound():
    base = [100.0, 101.0, 99.0, 100.0, 100.0]
    assert bench_pairs.verdict(base, [74.0, 75.0, 76.0, 73.0, 74.0], "higher", 0.25) == "regression"
    assert bench_pairs.verdict(base, [76.0, 77.0, 78.0, 75.0, 76.0], "higher", 0.25) == "within bound"
    assert bench_pairs.verdict(base, [126.0, 127.0, 124.0, 126.0, 126.0], "lower", 0.25) == "regression"
    assert bench_pairs.verdict([1.0] * 5, [0.99] * 5, "higher", 0.005) == "regression"
    assert bench_pairs.verdict([1.0] * 5, [0.996] * 5, "higher", 0.005) == "within bound"


def test_verdict_below_five_pairs_is_unresolved():
    # setup_s of the optimize workload over three pairs at seed 131
    # (BENCH_49_optimize_bytecode.json): the head median is 37 % above the
    # base median, past the 0.25 bound, on one pair won of three.
    base = [0.04181915802176488, 0.029767184608479734, 0.030177405240750563]
    head = [0.041415153194582444, 0.04713442116951776, 0.03129497067652203]
    assert bench_pairs.verdict(base, head, "lower", 0.25) == "unresolved"
    # four pairs are still too few, for a regression and for a gain
    assert bench_pairs.verdict([100.0] * 4, [60.0] * 4, "higher", 0.25) == "unresolved"
    assert bench_pairs.verdict([100.0] * 4, [140.0] * 4, "higher", 0.25) == "unresolved"
    assert bench_pairs.verdict([100.0] * 5, [140.0] * 5, "higher", 0.25) == "gain"


def test_verdict_unresolved_when_the_runs_spread_past_the_bound():
    # the base spreads 0.5 of its median, past a bound of 0.25
    base = [1.0, 2.0, 3.0, 4.0, 5.0]
    head = [2.9, 3.0, 3.1, 3.0, 3.0]
    assert bench_pairs.verdict(base, head, "lower", 0.25) == "unresolved"
    # the head's spread counts too
    assert bench_pairs.verdict(head, base, "lower", 0.25) == "unresolved"
    # unless every head run beats every base run: here by less than the
    # base quartile distance (0.6), so no gain either
    base = [1.0, 1.1, 1.4, 1.7, 1.8]
    assert bench_pairs.verdict(base, [0.95, 0.96, 0.97, 0.98, 0.99], "lower", 0.25) == "within bound"
    assert bench_pairs.verdict(base, [0.95, 0.96, 0.97, 0.98, 1.05], "lower", 0.25) == "unresolved"


def test_summary_carries_the_verdict_of_each_metric_with_a_bound():
    bounds = {"jobs_per_s": 0.25, "job_p90_ms": 0.25}
    summary = bench_pairs.summarize(runs(), BETTER, bounds)
    # 4 pairs over both seeds, and one at seed 7: too few for any verdict
    assert summary["all"]["job_p90_ms"]["verdict"] == "unresolved"
    assert summary["all"]["jobs_per_s"]["verdict"] == "unresolved"
    assert "verdict" not in summary["all"]["peak_rss_mb"]
    assert summary["7"]["job_p90_ms"]["verdict"] == "unresolved"
    # a fifth pair at seed 7, won: 4 of 5 pairs won, no gain; within the
    # bound and not spread
    more = runs() + [{"seed": 7, "pair": 1, "side": "base", "result": json.loads(line(18.3, 110.0))}]
    five = bench_pairs.summarize(more, BETTER, bounds)["all"]
    assert five["job_p90_ms"]["pairs"] == 5
    assert five["job_p90_ms"]["verdict"] == five["jobs_per_s"]["verdict"] == "within bound"
    combined = bench_pairs.summarize([prefixed(run, "optimize") for run in runs()], BETTER, bounds)
    assert combined["all"]["optimize.job_p90_ms"] == summary["all"]["job_p90_ms"]
