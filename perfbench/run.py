"""Cold-job benchmark runner for kzmono.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload verify-a1-6pt --negative-control

Run from the root of a checkout. Each job runs in a fresh worker process
(perfbench/jobs.py), one at a time, so every job pays the cold caches a
single `kzmono` CLI invocation pays. The loop is closed with one client:
jobs start back to back until S seconds have passed.

With --trace 0 the last line of standard output reports the end-to-end
metrics of BENCHMARK.json: medians over the jobs of the run, with times put
on a reference machine speed by a calibration loop each worker times right
after importing kzmono and right after its job. With --trace 1 untraced and
traced jobs alternate; the per-layer metrics (wall seconds) come from the
traced job of median length, plus one subprocess run of the matching CLI
command. The line before the result records the seed, the environment and
every job, with its wall times. The runner sets no BLAS thread variable:
workers run as users run them.
"""

import argparse
import hashlib
import json
import os
import pathlib
import random
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = pathlib.Path(__file__).resolve().parent / "jobs.py"
WORK_DIR = pathlib.Path(__file__).resolve().parent / ".work"
# every process a run starts is killed by then, so a run ends inside 180 s
RUN_LIMIT_S = 160.0
# Reference time of jobs.calibrate(), close to its uncontended time on the
# 2-CPU Xeon VM the benchmark was written on. On a shared machine one cold
# job's wall time ranges over 2x within a run and the run median drifts by
# 20-30 % between runs; the same worker's calibration time moves with it
# (correlation about 0.8), so scaled times spread about 5x less.
CALIBRATION_REF_S = 0.1

A1 = ("A", 1)
G2 = ("G", 2)
LADDER = (("A2k5", "A", 2, 5), ("A3k2", "A", 3, 2), ("G2k3", "G", 2, 3),
          ("F4k2", "F", 4, 2))
# sha256 of fusion_to_csv for each ring, frozen when this file was written
FUSION_DIGESTS = {
    "A1k2": "e0a5898d342670172a71b9ee36e0f04800f2adb9856685c19239a1bcadb904ad",
    "A2k5": "9cceb0181f18c63929b8e87b436bd9ffdeaa0a54f9e9c94d345f02efb1134cff",
    "A3k2": "e4c4eba4013d1dc4e982f33c9a18e89a7b188d18bff438fae864f5f87c0809c4",
    "G2k3": "f349a2ab18b6225ed348b003c7f60627cd3148554bc71bd66d5a2b2fe2143d19",
    "F4k2": "9127e732a46443971e5a31d075d1eeb8294a4ea65f94eab3516aa286ca0bef01",
}


def gaussian_integer_points(n, rng):
    """2^i - 1 plus an imaginary offset in {-1, 0, 1}, from the seed."""
    return [[2 ** i - 1, rng.choice((-1, 0, 1))] for i in range(n)]


def jittered_points(n, rng):
    """2^i - 1 moved by at most 0.1 in each coordinate: float inputs whose
    exact Gaussian-rational images carry hundreds of bits."""
    return [[2 ** i - 1 + rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)]
            for i in range(n)]


def system_spec(kind, algebra, weight, n, level, points, expect):
    return {"kind": kind, "algebra": list(algebra),
            "weights": [list(weight)] * n, "level": level,
            "points": points, "expect": expect}


def fusion_spec(rings, rng):
    """The seed only permutes the order in which the rings are built."""
    cli_ring = rings[-1][0]
    rings = list(rings)
    rng.shuffle(rings)
    return {"kind": "fusion", "rings": [list(r) for r in rings],
            "cli_ring": cli_ring,
            "expect": {"digests": {r[0]: FUSION_DIGESTS[r[0]]
                                   for r in rings}}}


WORKLOADS = {
    "verify-a1-6pt": lambda rng: system_spec(
        "verify", A1, (1,), 6, 2, gaussian_integer_points(6, rng),
        {"invariant_dim": 5, "block_dim": 4, "kohno_checks": 105}),
    "verify-g2-3pt": lambda rng: system_spec(
        "verify", G2, (1, 0), 3, 1, gaussian_integer_points(3, rng),
        {"invariant_dim": 1, "block_dim": 1, "kohno_checks": 3}),
    "braid-a1-6pt": lambda rng: system_spec(
        "braid", A1, (1,), 6, 2, jittered_points(6, rng),
        {"invariant_dim": 5, "block_dim": 4}),
    "fusion-ladder": lambda rng: fusion_spec(LADDER, rng),
    # tiny variants for perfbench/smoke.py
    "smoke-verify": lambda rng: system_spec(
        "verify", A1, (1,), 4, 1, gaussian_integer_points(4, rng),
        {"invariant_dim": 2, "block_dim": 1, "kohno_checks": 15}),
    "smoke-braid": lambda rng: system_spec(
        "braid", A1, (1,), 4, 1, jittered_points(4, rng),
        {"invariant_dim": 2, "block_dim": 1}),
    "smoke-fusion": lambda rng: fusion_spec((("A1k2", "A", 1, 2),), rng),
}


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_job(spec, trace, timeout, environment=False):
    """One cold job in a fresh worker; failures are returned, not raised."""
    payload = dict(spec, trace=trace, src=str(SRC), environment=environment)
    try:
        proc = subprocess.run([sys.executable, str(WORKER)],
                              input=json.dumps(payload), capture_output=True,
                              text=True, timeout=timeout, env=worker_env(),
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"traced": trace, "timed_out": True,
                "failures": [f"worker exceeded {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"traced": trace, "failures": [
            f"worker exit {proc.returncode}: {' | '.join(tail)}"]}
    out["traced"] = trace
    return out


def _left(deadline):
    return max(deadline - perf_counter(), 1.0)


def cli_run(spec, tmp, deadline):
    """Time one subprocess run of the CLI command matching the job kind."""
    tmp = pathlib.Path(tmp)
    manifest = tmp / "manifest.json"
    if spec["kind"] == "fusion":
        name, series, rank, k = next(r for r in spec["rings"]
                                     if r[0] == spec["cli_ring"])
        doc = {"algebra": [series, rank], "level": k}
        args = ["fusion-table"]
    else:
        doc = {key: spec[key] for key in
               ("algebra", "level", "weights", "points")}
        n = len(spec["weights"])
        if spec["kind"] == "braid":
            doc["braid_word"] = " ".join(str(i) for i in range(1, n))
            args = ["braid", "--out", str(tmp / "out")]
        else:
            args = ["verify"]
    manifest.write_text(json.dumps(doc))
    cmd = [sys.executable, "-m", "kzmono.cli"] + args + [
        "--manifest", str(manifest)]
    start = perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True,
                              timeout=_left(deadline), env=worker_env(),
                              cwd=tmp)
    except subprocess.TimeoutExpired:
        return {"run_s": perf_counter() - start,
                "failures": ["cli run timed out"]}
    elapsed = perf_counter() - start
    failures = []
    if proc.returncode != 0:
        failures.append(f"cli exit {proc.returncode}: "
                        f"{proc.stderr.decode(errors='replace')[-200:]}")
    elif spec["kind"] == "fusion":
        digest = hashlib.sha256(proc.stdout).hexdigest()
        if digest != FUSION_DIGESTS[name]:
            failures.append(f"cli fusion table {name}: digest {digest[:12]}")
    return {"run_s": elapsed, "failures": failures}


def run_loop(spec, seconds, trace, deadline):
    """Cold jobs back to back until `seconds` pass; traced runs alternate
    untraced and traced jobs and need at least one of each."""
    start = perf_counter()
    jobs = []
    while True:
        traced = bool(trace) and len(jobs) % 2 == 1
        job = run_job(spec, traced, _left(deadline), environment=not jobs)
        if "import_error" in job:
            raise SystemExit(f"cannot import kzmono: {job['import_error']}")
        jobs.append(job)
        if job.get("timed_out"):
            break
        elapsed = perf_counter() - start
        if len(jobs) >= (2 if trace else 1) and elapsed >= seconds:
            break
    return jobs


def _median(values):
    return statistics.median(values) if values else 0.0


def _scaled(job, key):
    """A worker's time put on the reference machine speed: scaled by
    CALIBRATION_REF_S over the mean of that worker's calibration times."""
    return job[key] * CALIBRATION_REF_S / statistics.mean(job["calib_s"])


def end_to_end(jobs):
    ok = [j for j in jobs if not j["failures"]] or jobs
    timed = [j for j in jobs if "job_s" in j]
    return {
        "setup_s": _median([_scaled(j, "setup_s") for j in timed]),
        "job_s": _median([_scaled(j, "job_s") for j in ok if "job_s" in j]),
        "peak_rss_mb": _median([j["peak_rss_mb"] for j in timed]),
    }


def per_layer(jobs, cli):
    """Values of the traced job of median scaled length. Its stage times
    (the recorded names ending in _s, in wall seconds) plus other_s add up
    to its wall job time (trace.job_s) exactly."""
    timed = sorted((j for j in jobs if j["traced"] and "job_s" in j),
                   key=lambda j: _scaled(j, "job_s"))
    plain = [_scaled(j, "job_s") for j in jobs
             if not j["traced"] and "job_s" in j]
    values = {}
    if timed:
        pick = timed[(len(timed) - 1) // 2]
        values.update(pick["values"])
        staged = sum(v for name, v in pick["values"].items()
                     if name.endswith("_s"))
        values["trace.job_s"] = pick["job_s"]
        values["other_s"] = pick["job_s"] - staged
        if plain:
            values["trace.overhead_frac"] = _median(
                [_scaled(j, "job_s") for j in timed]) / _median(plain) - 1.0
    values["cli.run_s"] = cli["run_s"]
    return values


def load_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return doc["end_to_end"], doc["per_layer"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true",
                        help="run one verify job with one Omega entry "
                             "flipped; exit 0 only if it counts as failed")
    args = parser.parse_args(argv)

    if not (SRC / "kzmono" / "__init__.py").is_file():
        print(f"error: no kzmono sources under {SRC}; run from the root of "
              "a kzmono checkout", file=sys.stderr)
        return 2
    e2e_metrics, layer_metrics = load_metrics()
    spec = WORKLOADS[args.workload](random.Random(args.seed))

    if args.negative_control:
        if spec["kind"] != "verify":
            parser.error("the negative control needs a verify workload")
        job = run_job(dict(spec, inject_sign_error=True), False, RUN_LIMIT_S)
        print(json.dumps({"negative_control": args.workload,
                          "failures": job["failures"]}))
        print(json.dumps({"correct": not job["failures"], "attempted": 1,
                          "failed": int(bool(job["failures"])),
                          "metrics": {}}))
        return 0 if job["failures"] else 1

    cli = None
    deadline = perf_counter() + RUN_LIMIT_S
    jobs = run_loop(spec, args.seconds, args.trace, deadline)
    if args.trace:
        WORK_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
            cli = cli_run(spec, tmp, deadline)
    for n, job in enumerate(jobs):
        for failure in job["failures"]:
            print(f"job {n} failed: {failure}", file=sys.stderr)
    failed = sum(1 for j in jobs if j["failures"])
    attempted = len(jobs)
    if cli is not None:
        attempted += 1
        failed += int(bool(cli["failures"]))
        for failure in cli["failures"]:
            print(f"cli run failed: {failure}", file=sys.stderr)

    if args.trace:
        values = per_layer(jobs, cli)
        chosen = layer_metrics
    else:
        values = end_to_end(jobs)
        chosen = e2e_metrics
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in chosen}

    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": jobs[0].get("environment"),
        "jobs": [{key: j.get(key) for key in
                  ("traced", "setup_s", "job_s", "peak_rss_mb", "calib_s",
                   "failures")}
                 for j in jobs],
        "cli": cli}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
