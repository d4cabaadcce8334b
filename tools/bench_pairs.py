"""Alternating benchmark pairs of two revisions, summarized into one JSON file.

    python3 tools/bench_pairs.py --base HEAD~1 --head HEAD --workload optimize \\
        --seeds 131,7 --pairs 5 --out BENCH_42.json

Run from a git checkout.  Both revisions are checked out with `git worktree
add --detach` in a temporary directory, and for each seed the pairs run
`perfbench/run.py --workload W --seed S --seconds T --trace 0` once in each
tree, T being the run length BENCHMARK.json sets (25 s); the first pair
starts with the base, and each later pair swaps which side goes first.
Both sides see the same environment, PYTHONDONTWRITEBYTECODE included: when
bytecode is written, each tree's `src/` and `perfbench/` are compiled before
the first run, so no run pays for compiling them; when it is not, every run
compiles.  The output holds both revisions, the Python version, the
processor count, the seeds, every run's metrics and, per seed and over all
pairs, each end-to-end metric's median, quartile distance and win count (a
pair is won by the side whose value is better in the direction
BENCHMARK.json gives; ties count for neither) and its `verdict`.
With `--workload all` the metrics keep run.py's workload prefix
(`optimize.job_p50_ms`), and each takes the direction and the bound of its
bare name.  The worktrees are removed on the way out, and every run has
ended by then.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, stdout=subprocess.PIPE, text=True).stdout.strip()


def _stats(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "iqr": q3 - q1}


def _spread(values: list[float]) -> float:
    """Quartile distance over the median, as perfbench/README.md defines a
    spread; +inf when the median is 0 and the quartiles differ."""
    stats = _stats(values)
    if stats["median"]:
        return stats["iqr"] / abs(stats["median"])
    return 0.0 if stats["iqr"] == 0 else float("inf")


def verdict(base: list[float], head: list[float], direction: str, bound: float) -> str:
    """The verdict on one metric, from its paired runs (the i-th base and
    head values form a pair), its better direction and its bound, a
    fraction of the base median as BENCHMARK.json gives it:

    * "gain": the head wins at least 9 of 10 pairs (ties count for
      neither), and its median is better than the base median by more
      than the base quartile distance;
    * "regression": the head median is worse than the base median by
      more than the bound;
    * "unresolved": either side spreads wider than the bound, unless every
      head run is better than every base run;
    * "within bound" otherwise."""
    sign = 1 if direction == "higher" else -1
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    base_stats, head_median = _stats(base), statistics.median(head)
    gain = sign * (head_median - base_stats["median"])
    if 10 * wins >= 9 * len(base) and gain > base_stats["iqr"]:
        return "gain"
    if -gain > bound * abs(base_stats["median"]):
        return "regression"
    if max(_spread(base), _spread(head)) > bound and min(sign * h for h in head) <= max(sign * b for b in base):
        return "unresolved"
    return "within bound"


def summarize(runs: list[dict], better: dict[str, str], bounds: dict[str, float] | None = None) -> dict:
    """Per seed and over "all" pairs, each metric that every run of the
    group reports, by its full name, whose bare name (the part after the
    last dot, which `run.py --workload all` prefixes with the workload) is
    a key of `better` ("lower" or "higher" is better): each side's median
    and quartile distance, the pairs the head wins, the ties and the
    pairs, and the `verdict` when `bounds` gives the bare name's bound.
    A run is a dict with "seed", "pair", "side" ("base" or "head") and
    "result", the JSON object of the last line run.py prints."""
    pairs = {}
    for run in runs:
        pairs.setdefault((run["seed"], run["pair"]), {})[run["side"]] = run["result"]["metrics"]
    groups = {}
    for (seed, _), sides in sorted(pairs.items()):
        if set(sides) == set(SIDES):
            groups.setdefault(str(seed), []).append(sides)
            groups.setdefault("all", []).append(sides)
    summary = {}
    for group, members in groups.items():
        summary[group] = {}
        names = set.intersection(*(set(sides[side]) for sides in members for side in SIDES))
        for name in sorted(names):
            bare = name.rsplit(".", 1)[-1]
            direction = better.get(bare)
            if direction is None:
                continue
            values = {side: [sides[side][name]["value"] for sides in members] for side in SIDES}
            sign = 1 if direction == "higher" else -1
            gaps = [sign * (h - b) for b, h in zip(values["base"], values["head"])]
            summary[group][name] = {
                "better": direction,
                **{side: _stats(values[side]) for side in SIDES},
                "head_wins": sum(gap > 0 for gap in gaps),
                "ties": gaps.count(0),
                "pairs": len(gaps),
            }
            if bounds and bare in bounds:
                summary[group][name]["verdict"] = verdict(values["base"], values["head"], direction, bounds[bare])
    return summary


def _run(tree: str, workload: str, seed: int, seconds: float, env: dict) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, env=env, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision measured as the parent")
    parser.add_argument("--head", required=True, help="revision measured as the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated benchmark seeds")
    parser.add_argument("--pairs", type=int, required=True, help="pairs per seed")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args()
    seeds = [int(seed) for seed in args.seeds.split(",")]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    revs = {"base": _git("rev-parse", args.base), "head": _git("rev-parse", args.head)}
    env = dict(os.environ)
    no_bytecode = bool(env.get("PYTHONDONTWRITEBYTECODE"))
    temp = tempfile.mkdtemp(prefix="bench-pairs-")
    trees = {side: os.path.join(temp, side) for side in SIDES}
    runs = []
    try:
        for side in SIDES:
            _git("worktree", "add", "--detach", trees[side], revs[side])
            if not no_bytecode:
                subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                               cwd=trees[side], env=env, check=True, stdout=subprocess.DEVNULL)
        count = 0
        for seed in seeds:
            for pair in range(args.pairs):
                order = SIDES if count % 2 == 0 else SIDES[::-1]
                count += 1
                for position, side in enumerate(order, 1):
                    result = _run(trees[side], args.workload, seed, seconds, env)
                    runs.append({"seed": seed, "pair": pair, "side": side, "position": position, "result": result})
                    metrics = {name: round(m["value"], 4) for name, m in result["metrics"].items()}
                    print(f"seed {seed} pair {pair} {side}: {metrics}", file=sys.stderr)
    finally:
        for side in SIDES:
            if os.path.isdir(trees[side]):
                subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", trees[side]], check=False)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"], check=False)
        shutil.rmtree(temp, ignore_errors=True)
    report = {
        "workload": args.workload,
        "base": revs["base"],
        "head": revs["head"],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seeds": seeds,
        "pairs_per_seed": args.pairs,
        "seconds": seconds,
        "pythondontwritebytecode": no_bytecode,
        "all_correct": all(run["result"]["correct"] for run in runs),
        "failed": sum(run["result"]["failed"] for run in runs),
        "runs": runs,
        "summary": summarize(runs, better, bounds),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
