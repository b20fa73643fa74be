"""Paired timed benchmark runs of two checkouts, written as a BENCH_<n>.json.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_2.json \\
        [--description TEXT]

Each run is `python3 perfbench/run.py --workload W --seed N --seconds 30
--trace 0` inside one checkout, one run at a time, for seeds 1 to 5 and
the three workloads. The runs go seed by seed, and for each seed workload
by workload; each workload runs once per checkout, the parent first on odd
seeds and the change first on even ones.
The file is rewritten after every run, so an interrupted series keeps the
runs it finished. Per workload and side it holds each end-to-end metric's
median and quartiles (statistics.quantiles, method='inclusive') with the
runs in seed order, the environment line of the first run (without its
seed), whether every run was correct, and the job counts of each run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
WORKLOADS = ("construct-sg2", "derivative-sg2", "evolve-sg2")
SEEDS = range(1, 6)
SECONDS = 30
COMMAND = f"python3 perfbench/run.py --workload W --seed N --seconds {SECONDS} --trace 0"
STATISTICS = ("median and quartiles (statistics.quantiles, method='inclusive') over the "
              "runs; 'runs' lists each run's value in seed order")


def sides_in_order(seed: int) -> tuple[str, str]:
    """The parent first on odd seeds, the change first on even ones."""
    return SIDES if seed % 2 else SIDES[::-1]


def run_benchmark(checkout: Path, workload: str, seed: int) -> str:
    """stdout of one timed perfbench run inside checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}")
    return proc.stdout


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


def side_record(runs: list[tuple[int, dict, dict]]) -> dict:
    """One side of one workload from its (seed, environment, result) runs."""
    runs = sorted(runs, key=lambda run: run[0])
    environment = {k: v for k, v in runs[0][1].items() if k != "seed"}
    metrics = {}
    for name, first in runs[0][2]["metrics"].items():
        metrics[name] = dict(summary([r["metrics"][name]["value"] for _, _, r in runs]),
                             unit=first["unit"])
    return {"correct": all(r["correct"] for _, _, r in runs),
            "environment": environment,
            "jobs_attempted": [r["attempted"] for _, _, r in runs],
            "jobs_failed": [r["failed"] for _, _, r in runs],
            "metrics": metrics,
            "seeds": [seed for seed, _, _ in runs]}


def bench_document(runs: dict, description: str) -> dict:
    """The BENCH_<n>.json document; runs[workload][side] lists that side's
    (seed, environment, result) runs."""
    return {"command": COMMAND,
            "description": description,
            "statistics": STATISTICS,
            "workloads": {w: {side: side_record(runs[w][side])
                              for side in SIDES if runs[w][side]}
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
                stdout = run(checkouts[side], workload, seed)
                runs[workload][side].append((seed, *parse_run(stdout)))
                doc = bench_document(runs, args.description)
                args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
                print(f"seed {seed} {workload} {side} done", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
