"""Ceiling probe: push each ladder up until a job breaks its time cap.

    python3 perfbench/probe.py [--cap SECONDS]

Run from the root of a checkout, once and outside the timed benchmark. Each
probe is one cold job in a fresh worker (the same jobs as perfbench/run.py,
with every correctness check but no frozen dimensions), killed at the cap.
A ladder stops at its first probe that fails or hits the cap. One line per
probe goes to standard output, then a JSON summary.
"""

import argparse
import json
import random
import sys

import run


def _a1(kind, n):
    rng = random.Random(0)
    points = (run.jittered_points(n, rng) if kind == "braid"
              else run.gaussian_integer_points(n, rng))
    return run.system_spec(kind, run.A1, (1,), n, 2, points, {})


def _g2(n):
    return run.system_spec("verify", run.G2, (1, 0), n, 1,
                           run.gaussian_integer_points(n, random.Random(0)),
                           {})


def _ring(name, series, rank, k):
    return {"kind": "fusion", "rings": [[name, series, rank, k]]}


LADDERS = {
    "verify A1 (1)^n, k=2": [(f"n={n}", _a1("verify", n))
                             for n in (4, 6, 8, 10)],
    "verify G2 (1,0)^n, k=1": [(f"n={n}", _g2(n)) for n in (3, 4, 5)],
    "braid A1 (1)^n, k=2, adaptive + Magnus": [
        (f"n={n}", _a1("braid", n)) for n in (4, 6, 8, 10)],
    "fusion A2": [(f"k={k}", _ring(f"A2k{k}", "A", 2, k))
                  for k in (4, 6, 8, 10)],
    "fusion E-type, k=2": [(name, _ring(name, "E", rank, 2))
                           for name, rank in (("E6k2", 6), ("E7k2", 7),
                                              ("E8k2", 8))],
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cap", type=float, default=60.0,
                        help="wall-time cap of one probe job, seconds")
    args = parser.parse_args(argv)
    if not (run.SRC / "kzmono" / "__init__.py").is_file():
        print(f"error: no kzmono sources under {run.SRC}", file=sys.stderr)
        return 2
    summary = {"cap_s": args.cap, "ladders": {}}
    for ladder, probes in LADDERS.items():
        rows = summary["ladders"][ladder] = []
        for label, spec in probes:
            job = run.run_job(spec, True, args.cap, environment=not rows)
            row = {"probe": label, "job_s": job.get("job_s"),
                   "failures": job["failures"]}
            if "values" in job:
                row["stages"] = {name: round(v, 3) for name, v in
                                 job["values"].items() if name.endswith("_s")}
            if "environment" in job:
                summary.setdefault("environment", job["environment"])
            rows.append(row)
            shown = (f"{job['job_s']:.2f} s" if "job_s" in job
                     else f"> {args.cap:.0f} s")
            print(f"{ladder} {label}: {shown}"
                  + (f" FAILED {job['failures']}" if job["failures"] else ""),
                  flush=True)
            if job["failures"]:
                break
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
