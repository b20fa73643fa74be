import importlib.util
import json
import statistics
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

ENVIRONMENT = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "nproc": 2,
               "cpu_model": "test cpu", "blas_threads": {"OMP_NUM_THREADS": "1"},
               "git_commit": None}


def canned_stdout(side, workload, seed):
    """What perfbench/run.py prints for a timed run: its environment line,
    then its result line; wall_s encodes the side, workload and seed."""
    wall = {"parent": 10.0, "change": 20.0}[side] + bench_pairs.WORKLOADS.index(workload) + seed / 10
    result = {"correct": not (side == "change" and seed == 4), "attempted": 5 + seed,
              "failed": int(side == "change" and seed == 4),
              "metrics": {"wall_s": {"value": wall, "unit": "s"},
                          "ok_frac": {"value": 1.0, "unit": "1"}}}
    return "\n".join(["job noise", json.dumps({"environment": dict(ENVIRONMENT, seed=seed)}),
                      json.dumps(result)]) + "\n"


def test_bench_pairs_interleaves_and_aggregates(tmp_path):
    calls = []

    def fake_run(checkout, workload, seed):
        side = checkout.name
        calls.append((seed, workload, side))
        return canned_stdout(side, workload, seed)

    out = tmp_path / "BENCH_9.json"
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--out", str(out)], run=fake_run) == 0
    # seed by seed, workload by workload, the first side alternating by seed
    assert len(calls) == 5 * 3 * 2
    for i in range(0, len(calls), 2):
        (seed, w1, first), (seed2, w2, second) = calls[i], calls[i + 1]
        assert seed == seed2 and w1 == w2
        assert (first, second) == (("parent", "change") if seed % 2 else ("change", "parent"))
    assert [c[0] for c in calls] == sorted(c[0] for c in calls)

    doc = json.loads(out.read_text())
    assert doc["command"] == ("python3 perfbench/run.py --workload W --seed N --seconds 30 "
                              "--trace 0")
    assert set(doc["workloads"]) == set(bench_pairs.WORKLOADS)
    record = doc["workloads"]["derivative-sg2"]["change"]
    runs = [21.1, 21.2, 21.3, 21.4, 21.5]
    assert record["metrics"]["wall_s"]["runs"] == runs
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    assert record["metrics"]["wall_s"] == {"median": median, "q1": q1, "q3": q3,
                                           "runs": runs, "unit": "s"}
    assert record["metrics"]["wall_s"]["median"] == pytest.approx(21.3)
    assert record["seeds"] == [1, 2, 3, 4, 5]
    assert record["jobs_attempted"] == [6, 7, 8, 9, 10]
    assert record["jobs_failed"] == [0, 0, 0, 1, 0]
    assert record["correct"] is False
    assert doc["workloads"]["derivative-sg2"]["parent"]["correct"] is True
    assert record["environment"] == ENVIRONMENT


def test_bench_pairs_rejects_a_run_without_its_result_line():
    with pytest.raises(ValueError):
        bench_pairs.parse_run('{"environment": {}}\n')
