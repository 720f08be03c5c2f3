"""Smoke test of the benchmark harness, on tiny inputs, in seconds.

    python3 perfbench/smoke.py

Run from the root of a checkout. Checks the result schema against
BENCHMARK.json for every smoke workload in both modes, that a job which
misses a gate or raises is counted as failed without stopping the run, that
the negative control is counted as failed, and that run.py refuses to
run without the kzmono sources. Exits 0 when every check holds.
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PROBLEMS = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        PROBLEMS.append(what)


def run_py(args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          capture_output=True, text=True, cwd=cwd,
                          timeout=180)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_schema(workload, trace):
    proc = run_py(["--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace)])
    label = f"{workload} --trace {trace}"
    expect(proc.returncode == 0, f"{label}: exit 0 ({proc.stderr[-200:]})")
    if proc.returncode != 0:
        return
    res = result_of(proc)
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    expect(set(res) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys")
    expect(res["correct"] is True and res["failed"] == 0
           and isinstance(res["attempted"], int) and res["attempted"] >= 1,
           f"{label}: correct, {res['attempted']} attempted, "
           f"{res['failed']} failed")
    expect([m["name"] for m in wanted] == list(res["metrics"]),
           f"{label}: metric names as in BENCHMARK.json")
    expect(all(res["metrics"][m["name"]]["unit"] == m["unit"]
               and isinstance(res["metrics"][m["name"]]["value"],
                              (int, float)) for m in wanted),
           f"{label}: units and numeric values")
    if trace:
        vals = {name: m["value"] for name, m in res["metrics"].items()}
        staged = sum(v for name, v in vals.items() if name.endswith("_s")
                     and name.split(".")[0] in
                     ("reps", "connection", "blocks", "transport"))
        expect(abs(staged + vals["other_s"] - vals["trace.job_s"]) < 1e-9,
               f"{label}: staged times plus other_s equal the traced job")


def check_failure_counting():
    spec = run.WORKLOADS["smoke-fusion"](random.Random(0))
    spec["expect"]["digests"]["A1k2"] = "0" * 64
    job = run.run_job(spec, False, 60)
    expect(any("fusion table A1k2" in f for f in job["failures"]),
           "a missed gate fails the job")
    spec = run.WORKLOADS["smoke-verify"](random.Random(0))
    spec["points"][1] = spec["points"][0]
    job = run.run_job(spec, True, 60)
    expect(any("Error" in f for f in job["failures"]) and "job_s" in job,
           "a raising job is counted and timed")


def check_negative_control():
    proc = run_py(["--workload", "smoke-verify", "--negative-control"])
    res = result_of(proc)
    expect(proc.returncode == 0 and res["failed"] == res["attempted"] == 1
           and res["correct"] is False,
           "negative control is counted as failed")


def check_refuses_bare_directory():
    run.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        bare = run.pathlib.Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = run_py(["--workload", "smoke-verify", "--seed", "0",
                       "--seconds", "1", "--trace", "0"], cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the sources: nonzero exit and no result")


def main():
    for workload in ("smoke-verify", "smoke-braid", "smoke-fusion"):
        for trace in (0, 1):
            check_schema(workload, trace)
    check_failure_counting()
    check_negative_control()
    check_refuses_bare_directory()
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
