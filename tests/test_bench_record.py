"""Every committed BENCH_<n>.json is a well-formed benchmark record.

A record holds perfbench result lines for each workload of BENCHMARK.json,
on the parent commit and on the change, plus the environment they ran in.
Speed claims are read from these files, so a record missing a workload, a
failed or incorrect run, or the environment cannot be committed.
"""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
ENVIRONMENT_KEYS = ("nproc", "python", "numpy", "scipy",
                    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_covers_every_workload(path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in bench["end_to_end"]]
    doc = json.loads(path.read_text())
    env = doc["environment"]
    for key in ENVIRONMENT_KEYS:
        assert key in env, f"environment lacks {key}"
    for workload in bench["workloads"]:
        runs = doc["workloads"][workload["name"]]["runs"]
        assert any(run["trace"] == 0 for run in runs), \
            f"no untraced runs of {workload['name']}"
        for run in runs:
            for side in ("parent", "change"):
                result = run[side]
                assert result["correct"] is True
                assert result["failed"] == 0
                assert result["attempted"] > 0
                # traced runs report per-layer stages, untraced ones the
                # end-to-end metrics
                if run["trace"] == 0:
                    assert set(metrics) <= set(result["metrics"])
