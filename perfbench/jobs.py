"""One cold benchmark job, run in a fresh worker process.

Usage: python3 perfbench/jobs.py < spec.json, with the checkout's `src`
directory on PYTHONPATH. The spec (JSON, written by perfbench/run.py) names
the job kind and its inputs. The worker times `import kzmono.cli`, then makes
the same public-API calls a user makes, checks every result, and prints one
JSON line with its timings, failures and, when traced, per-layer values.

Because the process is fresh, the library's lru_caches (build_algebra, irrep,
casimir_constants, fusion_ring) start empty, as in one CLI invocation.
Tracing only wraps calls made from this file; no library module is touched.
"""

import hashlib
import json
import pathlib
import resource
import sys
from fractions import Fraction
from time import perf_counter

# every float accuracy gate of the benchmark
ACCURACY_TOL = 1e-8
TRANSPORT_TOL = 1e-10


class Recorder:
    """Per-stage wall time and counters of one job, kept only when traced.

    Stages are sequential top-level calls, so a stage's self time is its own
    duration, summed over repeated calls of the same stage.
    """

    def __init__(self, trace):
        self.trace = trace
        self.values = {}
        self._deferred = []

    def call(self, stage, fn, *args, **kwargs):
        if not self.trace:
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.values[stage] = (self.values.get(stage, 0.0)
                                  + perf_counter() - start)

    def note(self, name, value):
        """Keep the worst value seen for an accuracy record."""
        self.values[name] = max(self.values.get(name, 0.0), value)

    def later(self, name, fn):
        """Count work from a returned object after the job clock stops."""
        if self.trace:
            self._deferred.append((name, fn))

    def count_calls(self, obj, method, name):
        """Count calls of a bound method by shadowing it on this instance."""
        if not self.trace:
            return
        inner = getattr(obj, method)
        self.values[name] = 0

        def counted(*args, **kwargs):
            self.values[name] += 1
            return inner(*args, **kwargs)

        setattr(obj, method, counted)

    def finish(self):
        for name, fn in self._deferred:
            self.values[name] = fn()


class Gate:
    """Correctness checks of one job; any miss fails the job."""

    def __init__(self):
        self.failures = []

    def check(self, what, ok, detail=""):
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)


def _weights(spec):
    return [tuple(w) for w in spec["weights"]]


def _points(spec):
    return [complex(re, im) for re, im in spec["points"]]


def _modules(rec, alg, weights):
    from kzmono import irrep
    from kzmono.reps import casimir_constants
    for w in sorted(set(weights)):
        rec.call("reps.irrep_s", irrep, alg, w)
    rec.call("reps.casimir_constants_s", casimir_constants, alg)


def _invariants(alg, weights):
    from kzmono import tensor_system
    system = tensor_system(alg, weights)
    system.invariant_basis
    return system


def _flip_omega_entry(form):
    """The negative control of `kzmono verify`: negate one off-diagonal
    exact coefficient of the first two-slot Casimir."""
    pair = form.pairs[0]
    bad = form.omega_full[pair].copy()
    entry = next((rc for rc in sorted(bad.data) if rc[0] != rc[1]), None)
    if entry is not None:
        bad.data[entry] = -bad.data[entry]
    form.omega_full[pair] = bad


def _coeff_bits(block):
    return max((max(abs(x).bit_length() for x in
                    (v.re.numerator, v.re.denominator,
                     v.im.numerator, v.im.denominator))
                for v in block.coeffs.data.values()), default=0)


def _fusion_nonzero(ring):
    return sum(len(ring.row(lam, mu)) for lam in ring.weights
               for mu in ring.weights)


def _system_counts(rec, system, form):
    rec.later("reps.total_dim", lambda: system.total_dim)
    rec.later("reps.zero_weight_dim",
              lambda: len(system.zero_weight_indices()))
    rec.later("reps.invariant_dim", lambda: system.invariant_dim)
    rec.later("reps.module_dim_max",
              lambda: max(rep.dim for rep in system.factors))
    rec.later("connection.omega_nnz",
              lambda: sum(form.omega_full[p].nnz for p in form.pairs))


def _block_checks(rec, gate, spec, system, ring, block):
    from kzmono import block_dim
    expect = spec.get("expect", {})
    oracle = block_dim(ring, system.weights)
    gate.check("block dimension", block.dim == oracle,
               f"{block.dim} != fusion {oracle}")
    if "block_dim" in expect:
        gate.check("frozen block dimension", oracle == expect["block_dim"],
                   f"{oracle} != {expect['block_dim']}")
    if "invariant_dim" in expect:
        gate.check("frozen invariant dimension",
                   system.invariant_dim == expect["invariant_dim"],
                   f"{system.invariant_dim} != {expect['invariant_dim']}")
    rec.later("blocks.block_coeff_bits", lambda: _coeff_bits(block))
    rec.later("blocks.fusion_weights", lambda: len(ring.weights))
    rec.later("blocks.fusion_nonzero", lambda: _fusion_nonzero(ring))


def verify_job(spec, rec, gate):
    """Exact identities of one system plus the rotation oracle."""
    import numpy as np
    from kzmono import (block_subspace, build_algebra, flatness_check,
                        fusion_ring, kz_form, rotation_monodromy,
                        rotation_path, transport)
    alg = build_algebra(*spec["algebra"])
    weights = _weights(spec)
    k = spec["level"]
    points = _points(spec)
    _modules(rec, alg, weights)
    system = rec.call("reps.invariants_s", _invariants, alg, weights)
    form = rec.call("connection.kz_form_s", kz_form, system, k)
    if spec.get("inject_sign_error"):
        _flip_omega_entry(form)
    rec.count_calls(form, "evaluate", "transport.form_evals")
    report = rec.call("connection.flatness_s", flatness_check, form)
    rot = rec.call("connection.rotation_s", rotation_monodromy, form)
    moved = rec.call("transport.rotation_s", transport, form,
                     rotation_path(tuple(points)), tol=TRANSPORT_TOL)
    ring = rec.call("blocks.fusion_ring_s", fusion_ring, alg, k)
    block = rec.call("blocks.block_s", block_subspace, system, k, points)

    gate.check("flatness", report.exact,
               f"max deviation {report.max_abs_full}, restricted "
               f"{report.max_abs_restricted}")
    expected_checks = spec.get("expect", {}).get("kohno_checks")
    if expected_checks is not None:
        gate.check("frozen Kohno check count",
                   report.checks == expected_checks,
                   f"{report.checks} != {expected_checks}")
    gate.check("rotation monodromy", rot.max_residual < ACCURACY_TOL,
               f"residual {rot.max_residual:.3e}")
    dev = float(np.linalg.norm(moved.matrix - rot.scalar * np.eye(form.dim)))
    rec.note("transport.rotation_dev", dev)
    gate.check("rotation transport", dev < ACCURACY_TOL,
               f"deviation {dev:.3e} from the exact scalar")
    _block_checks(rec, gate, spec, system, ring, block)
    rec.later("connection.kohno_checks", lambda: report.checks)
    _system_counts(rec, system, form)


def braid_job(spec, rec, gate):
    """Braid generators on the blocks, both integrators for sigma_1."""
    import numpy as np
    from kzmono import (block_subspace, braid_generator, build_algebra,
                        fusion_ring, kz_form, projective_compare)
    alg = build_algebra(*spec["algebra"])
    weights = _weights(spec)
    k = spec["level"]
    points = _points(spec)
    n = len(weights)
    _modules(rec, alg, weights)
    system = rec.call("reps.invariants_s", _invariants, alg, weights)
    ring = rec.call("blocks.fusion_ring_s", fusion_ring, alg, k)
    block = rec.call("blocks.block_s", block_subspace, system, k, points)
    form = rec.call("connection.kz_form_s", kz_form, system, k)
    rec.count_calls(form, "evaluate", "transport.form_evals")
    gens = {}
    for i in range(1, n):
        gens[i] = rec.call("transport.adaptive_s", braid_generator, form,
                           block, i, tol=TRANSPORT_TOL,
                           block_tol=ACCURACY_TOL)
    magnus = rec.call("transport.magnus_s", braid_generator, form, block, 1,
                      tol=TRANSPORT_TOL, block_tol=ACCURACY_TOL,
                      method="magnus")

    _block_checks(rec, gate, spec, system, ring, block)
    for res in list(gens.values()) + [magnus]:
        rec.note("transport.max_block_residual", res.block_residual)
        gate.check("block residual", res.block_residual < ACCURACY_TOL,
                   f"{res.block_residual:.3e}")
    mats = {i: res.matrix for i, res in gens.items()}
    for i in range(1, n - 1):
        _c, resid = projective_compare(mats[i] @ mats[i + 1] @ mats[i],
                                       mats[i + 1] @ mats[i] @ mats[i + 1])
        rec.note("transport.braid_relation_resid", resid)
        gate.check(f"braid relation {i}", resid < ACCURACY_TOL,
                   f"{resid:.3e}")
    for i in range(1, n):
        for j in range(i + 2, n):
            resid = float(np.linalg.norm(mats[i] @ mats[j]
                                         - mats[j] @ mats[i]))
            rec.note("transport.braid_relation_resid", resid)
            gate.check(f"far commutativity {i},{j}", resid < ACCURACY_TOL,
                       f"{resid:.3e}")
    _c, resid = projective_compare(magnus.matrix, mats[1])
    rec.note("transport.method_disagreement", resid)
    gate.check("magnus against adaptive sigma_1", resid < ACCURACY_TOL,
               f"{resid:.3e}")
    _system_counts(rec, system, form)


def fusion_job(spec, rec, gate):
    """Fusion rings with their modules built first, checked by digest."""
    from kzmono import build_algebra, fusion_ring, irrep
    from kzmono.blocks import admissible_weights, fusion_to_csv
    digests = spec.get("expect", {}).get("digests", {})
    rings = []
    for name, series, rank, k in spec["rings"]:
        alg = build_algebra(series, rank)
        for w in admissible_weights(alg, k):
            rec.call("reps.irrep_s", irrep, alg, w)
        ring = rec.call("blocks.fusion_ring_s", fusion_ring, alg, k)
        digest = hashlib.sha256(fusion_to_csv(ring).encode()).hexdigest()
        if name in digests:
            gate.check(f"fusion table {name}", digest == digests[name],
                       f"digest {digest[:12]} != {digests[name][:12]}")
        rings.append(ring)
    rec.later("blocks.fusion_weights",
              lambda: sum(len(r.weights) for r in rings))
    rec.later("blocks.fusion_nonzero",
              lambda: sum(_fusion_nonzero(r) for r in rings))
    rec.later("reps.module_dim_max",
              lambda: max(irrep(r.alg, w).dim for r in rings
                          for w in r.weights))


JOBS = {"verify": verify_job, "braid": braid_job, "fusion": fusion_job}


def environment():
    import os
    import platform
    import numpy
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    config = numpy.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def calibrate(rounds=20_000):
    """Time a fixed piece of exact rational arithmetic, the kind of work
    the exact layer does, so a job can be set against the machine's speed
    at the moment it ran."""
    start = perf_counter()
    total = 0
    for i in range(1, rounds):
        x = (Fraction(i, i + 1) * Fraction(i + 2, 3 * i + 1)
             + Fraction(1, i + 7))
        total += x.numerator % 7
    return perf_counter() - start


def main():
    spec = json.loads(sys.stdin.read())
    start = perf_counter()
    try:
        import kzmono.cli
    except ImportError as exc:
        print(json.dumps({"import_error": f"{type(exc).__name__}: {exc}"}))
        return 3
    setup = perf_counter() - start
    calib_before = calibrate()
    src = pathlib.Path(spec["src"]).resolve()
    if src not in pathlib.Path(kzmono.cli.__file__).resolve().parents:
        print(json.dumps({"import_error":
                          f"kzmono imported from {kzmono.cli.__file__}, "
                          f"not from {src}"}))
        return 3

    rec = Recorder(spec["trace"])
    gate = Gate()
    start = perf_counter()
    try:
        JOBS[spec["kind"]](spec, rec, gate)
    except Exception as exc:  # a failing job is counted, never fatal
        gate.failures.append(f"{type(exc).__name__}: {exc}")
    job = perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calib_after = calibrate()
    try:
        rec.finish()
    except Exception as exc:
        gate.failures.append(f"counting: {type(exc).__name__}: {exc}")
    out = {"setup_s": setup, "job_s": job, "peak_rss_mb": rss_mb,
           "calib_s": [calib_before, calib_after],
           "failures": gate.failures, "values": rec.values}
    if spec.get("environment"):
        out["environment"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
