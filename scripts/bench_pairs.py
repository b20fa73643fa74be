"""Paired timed benchmark runs of two checkouts, written as a BENCH_<n>.json.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_2.json \\
        [--description TEXT]

Each run is `python3 perfbench/run.py --workload W --seed N --seconds 30
--trace 0` inside one checkout, one run at a time, for seeds 1 to 10 and
the three workloads. The runs go seed by seed, and for each seed workload
by workload; each workload runs once per checkout, the parent first on odd
seeds and the change first on even ones.
Every run gets the same CHILD_ENVIRONMENT on top of this process's own:
a fixed PYTHONHASHSEED, and glibc's malloc mmap and trim thresholds fixed
at 32 and 64 MiB, the most its dynamic threshold rises to on 64-bit
hosts (setting them switches that adjustment off), so that the heap
layout does not differ from run to run; run.py passes its environment on
to its jobs, and the file records it under "child_environment". glibc's
initial 128 KiB instead maps and unmaps every array of 128 KiB or more:
a construct-sg2 job then takes 1.06 million minor page faults and 7.4 s,
against 0.12 million and 5.0 s with the dynamic threshold and 19,500 and
4.7 s with these values.
The file is rewritten after every run, so an interrupted series keeps the
runs it finished. Per workload and side it holds each end-to-end metric's
median and quartiles (statistics.quantiles, method='inclusive') with the
runs in seed order, the same for each run's CPU seconds (user plus
system, of the run and every process it waited for, from the
RUSAGE_CHILDREN difference around it) under "cpu_s", the environment line
of the first run (without its seed), whether every run was correct, and
the job counts of each run.
Per workload it also counts, for each metric, the pairs (runs of one seed)
that the change won and lost by the direction of BENCHMARK.json; a tie
counts for neither side.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
WORKLOADS = ("construct-sg2", "derivative-sg2", "evolve-sg2")
SEEDS = range(1, 11)
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SECONDS = 30
COMMAND = f"python3 perfbench/run.py --workload W --seed N --seconds {SECONDS} --trace 0"
STATISTICS = ("median and quartiles (statistics.quantiles, method='inclusive') over the "
              "runs; 'runs' lists each run's value in seed order")
CHILD_ENVIRONMENT = {"PYTHONHASHSEED": "0", "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
                     "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}


def sides_in_order(seed: int) -> tuple[str, str]:
    """The parent first on odd seeds, the change first on even ones."""
    return SIDES if seed % 2 else SIDES[::-1]


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_benchmark(checkout: Path, workload: str, seed: int) -> tuple[str, float]:
    """(stdout, CPU seconds) of one timed perfbench run inside checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    before = _children_cpu_s()
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True,
                          env=dict(os.environ, **CHILD_ENVIRONMENT))
    cpu_s = _children_cpu_s() - before
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}")
    return proc.stdout, cpu_s


def parse_run(stdout: str) -> tuple[dict, dict]:
    """(environment, result) from the last two lines perfbench/run.py prints."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError("a timed run prints its environment line and its result line")
    return json.loads(lines[-2])["environment"], json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": list(values)}


def side_record(runs: list[tuple[int, dict, dict, float]]) -> dict:
    """One side of one workload from its (seed, environment, result, CPU
    seconds) runs."""
    runs = sorted(runs, key=lambda run: run[0])
    results = [r for _, _, r, _ in runs]
    environment = {k: v for k, v in runs[0][1].items() if k != "seed"}
    metrics = {}
    for name, first in results[0]["metrics"].items():
        metrics[name] = dict(summary([r["metrics"][name]["value"] for r in results]),
                             unit=first["unit"])
    return {"correct": all(r["correct"] for r in results),
            "cpu_s": dict(summary([cpu for *_, cpu in runs]), unit="s"),
            "environment": environment,
            "jobs_attempted": [r["attempted"] for r in results],
            "jobs_failed": [r["failed"] for r in results],
            "metrics": metrics,
            "seeds": [run[0] for run in runs]}


def directions() -> dict:
    """Each end-to-end metric's better side, "lower" or "higher", as
    BENCHMARK.json declares it."""
    return {m["name"]: m["better"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}


def pair_record(runs: dict) -> dict:
    """Of the seeds both sides ran, how many each metric's change won and
    lost; runs[side] lists that side's (seed, environment, result, CPU
    seconds) runs."""
    by_seed = {side: {seed: r["metrics"] for seed, _, r, _ in runs[side]} for side in SIDES}
    seeds = sorted(by_seed["parent"].keys() & by_seed["change"].keys())
    better = directions()
    won, lost = {}, {}
    for name in by_seed["parent"][seeds[0]] if seeds else ():
        sign = 1.0 if better[name] == "lower" else -1.0
        gains = [sign * (by_seed["parent"][s][name]["value"] - by_seed["change"][s][name]["value"])
                 for s in seeds]
        won[name] = sum(g > 0 for g in gains)
        lost[name] = sum(g < 0 for g in gains)
    return {"count": len(seeds), "won_by_change": won, "lost_by_change": lost}


def bench_document(runs: dict, description: str) -> dict:
    """The BENCH_<n>.json document; runs[workload][side] lists that side's
    (seed, environment, result, CPU seconds) runs."""
    return {"child_environment": CHILD_ENVIRONMENT,
            "command": COMMAND,
            "description": description,
            "statistics": STATISTICS,
            "workloads": {w: {**{side: side_record(runs[w][side])
                                 for side in SIDES if runs[w][side]},
                              "pairs": pair_record(runs[w])}
                          for w in runs}}


def main(argv=None, run=run_benchmark) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    ap.add_argument("--description", default="timed runs of the parent and of the change")
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    runs = {w: {side: [] for side in SIDES} for w in WORKLOADS}
    for seed in SEEDS:
        for workload in WORKLOADS:
            for side in sides_in_order(seed):
                stdout, cpu_s = run(checkouts[side], workload, seed)
                runs[workload][side].append((seed, *parse_run(stdout), cpu_s))
                doc = bench_document(runs, args.description)
                args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
                print(f"seed {seed} {workload} {side} done", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
