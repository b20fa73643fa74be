"""Benchmark of the multikink library: construction, parameter derivatives
and the construction-free user path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each job is one single-threaded
process (BLAS threads pinned to 1) that finishes before the next starts: a
closed loop with one caller. A timed run (--trace 0) starts jobs while the
previous job's duration still fits in S seconds (at least one), then
set-up-only processes until MIN_SETUPS set-up samples exist, and reports
medians. A traced run (--trace 1) times one untraced job of the workload,
then one traced job of every workload, and reports the per-layer metrics.
The last stdout line is the JSON result; the line before it records the
environment. NOTES.md gives the reasons for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS, OVERHEAD_METRIC, source_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("construct-sg2", "derivative-sg2", "evolve-sg2")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ref_err": "1",
              "ok_frac": "1"}
MIN_SETUPS = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_commit(root: Path):
    """HEAD of the checkout read from .git, or None outside a repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": {v: "1" for v in THREAD_VARS},
        "git_commit": git_commit(ROOT),
        "seed": seed,
    }


class Runner:
    """Starts job processes one at a time and counts the operations."""

    def __init__(self, seed: int, deadline: float):
        self.seed = seed
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, **{v: "1" for v in THREAD_VARS})

    def spawn(self, workload: str, *flags: str):
        """Run one job process; returns its result (with setup_s and the
        process's own duration) or None when it failed."""
        self.attempted += 1
        out = OUT / f"{workload}-{os.getpid()}-{self.attempted}"
        cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload,
               "--seed", str(self.seed), "--out", str(out), *flags]
        start = now()
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired:
            print(f"job {workload} {' '.join(flags)} timed out", file=sys.stderr)
            proc = None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        end = now()
        lines = proc.stdout.strip().splitlines() if proc is not None else []
        if proc is None or proc.returncode != 0 or not lines:
            self.failed += 1
            return None
        doc = json.loads(lines[-1])
        doc["setup_s"] = doc["setup_done"] - start
        doc["process_s"] = end - start
        if not doc.get("ok", True):
            print(f"job {workload}: gate failed: {json.dumps(doc['gates'])}", file=sys.stderr)
            self.failed += 1
        return doc

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def timed_run(runner: Runner, workload: str, seconds: float):
    jobs, setups = [], []
    first = now()
    while True:
        doc = runner.spawn(workload)
        if doc is not None:
            jobs.append(doc)
            setups.append(doc["setup_s"])
        last = doc["process_s"] if doc else 0.0
        t = now()
        if doc is None or t - first + last > seconds or t + last > runner.deadline:
            break
    while len(setups) < MIN_SETUPS and now() + 5.0 < runner.deadline:
        doc = runner.spawn(workload, "--setup-only")
        if doc is None:
            break
        setups.append(doc["setup_s"])
    if not jobs:
        return None
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(j["wall_s"] for j in jobs),
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
        "ref_err": statistics.median(j["ref_err"] for j in jobs),
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def traced_run(runner: Runner, workload: str):
    untraced = runner.spawn(workload)
    if untraced is None:
        return None
    layers = {}
    for w in WORKLOADS:
        layers[w] = runner.spawn(w, "--trace")
        if layers[w] is None:
            return None
    metrics = {name: {"value": layers[source_workload(name, workload)]["layers"][name],
                      "unit": unit}
               for name, (unit, _) in LAYER_METRICS.items()}
    name, unit = OVERHEAD_METRIC
    metrics[name] = {"value": layers[workload]["wall_s"] - untraced["wall_s"], "unit": unit}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in ("src/multikink/__init__.py", "configs/sg2_construct.cfg",
                           "configs/sg2_verify.cfg", "configs/sg_kink.cfg")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a multikink checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    # exit through subprocess.run, which then kills and reaps the running job
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    runner = Runner(args.seed, now() + RUN_LIMIT_S)
    print(json.dumps({"environment": environment(args.seed)}))
    try:
        if args.trace:
            metrics = traced_run(runner, args.workload)
        else:
            metrics = timed_run(runner, args.workload, args.seconds)
    finally:
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()
    if metrics is None:
        print(f"no job of {args.workload} completed", file=sys.stderr)
        return 1
    print(json.dumps(runner.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
