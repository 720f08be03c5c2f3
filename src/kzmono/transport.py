"""Parallel transport of the KZ connection along configuration-space paths.

Flat sections obey Y' = -A(t) Y with A(t) the form evaluated on the path
tangent; transport integrates the matrix ODE with the identity as initial
frame. Two integrators are available, both in `kzmono._integrators` and
neither needing scipy: an adaptive embedded Runge-Kutta (DOP853, with the
tableau and step control of Hairer's code) on the complex linear system,
and a fourth-order Magnus stepper (two-point Gauss quadrature with a single
commutator, one matrix exponential per step). Magnus works in chunks of at
most 256 steps: one evaluation of A(t) at the chunk's 512 Gauss nodes, and
one Pade scaling-and-squaring call on the chunk's stack of step cores, so
its memory stays O(256 d^2) at any step count.

DOP853 solves each path once, at rtol = max(tol/100, 1e-13) and
atol = rtol/100. Its tolerance bounds only the local error of a step, so
the reported error estimate is a global one from the same run: each
accepted step's local error eps_k (the embedded fifth-order estimate,
damped by the third-order one as Hairer's error norm damps it) is carried
to the end of the path by the flow, Y(1) Y_{k+1}^{-1}, and the estimate is
||Y(1) sum_k Y_{k+1}^{-1} eps_k||_F. The frame starts as the identity, so Y
is the fundamental matrix and the sum runs over every segment. Magnus runs
a ladder instead: it doubles its step count from 8 and stops at the first
rung whose move ||cur - prev||_F is at most tol * max(1, ||cur||_F),
failing past the step budget; its estimate is the last rung's move.
Tolerances at or below 1e-13 are rejected: there Magnus has no finer rung
to refine onto, and DOP853 no finer rtol.

Block monodromy uses the dual transport (dual=True, sections of the dual
bundle, Y' = +A(t) Y). The block subspace is the subspace model, through the
contravariant form, of the invariant functionals annihilating the image of
the raising-operator power; functionals are parallel for the dual of the
connection on sections, and since the two-slot Casimirs are self-adjoint for
the contravariant form, that dual transport in the subspace model is exactly
the sign-flipped ODE. Transporting the block frame this way reproduces the
fusion-dimension subspace at the endpoint to integrator accuracy, which is
the subbundle-preservation check; the plain section transport moves the
complement instead and matches the global-rotation scalar oracle.

Braid generators are realised as half-twists: the two exchanged points move
on a circle about their midpoint (counterclockwise for the positive
generator), everything else stays put. When the exchanged slots carry equal
weights the transport is composed with the inverse slot transposition, which
turns the path transports into endomorphisms of one fibre that compose like
braid-group elements; braid matrices are then expressed in the block basis.
For unequal weights the generator still makes sense as a map into the block
space at the permuted points and is returned in that endpoint basis.

Path segments return their points z(t) and velocities dz/dt as complex
arrays. The integrators ask for A(t) on whole stacks of times: DOP853 for
the eleven nodes of a step attempt, Magnus for the Gauss nodes of a chunk.
The segment functions run once per time; the stacked points then go
through one pair difference z[..., left] - z[..., right], shared by the
pole monitor and the form's coefficients, and one `KZForm.evaluate` call,
whose rows are bitwise the single-time values. The monitor takes the
minimum of |z_i - z_j| over the form's pairs at every time; coming too
close to a diagonal aborts with the first offending time, in the order the
integrator would have reached it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._integrators import dop853, expm
from .blocks import block_subspace
from .connection import _Points
from .errors import (PathSingularError, TransportError, ValidationError,
                     require_int)

DEFAULT_TOL = 1e-10
DEFAULT_BLOCK_TOL = 1e-8
_MIN_TOL = 1e-13
_MAGNUS_MAX_STEPS = 1 << 16
# Magnus steps whose cores are exponentiated as one stack
_MAGNUS_CHUNK = 256
_CONCAT_GAP = 1e-9
_GAUSS_OFFSET = math.sqrt(3) / 6


@dataclass(frozen=True)
class Segment:
    """One smooth piece of a path: z(t) and dz/dt(t) for t in [0, 1].

    Both return complex arrays with one entry per marked point.
    """

    z: object
    dz: object


@dataclass(frozen=True)
class Path:
    n: int
    segments: tuple

    def start(self):
        return self.segments[0].z(0.0)

    def end(self):
        return self.segments[-1].z(1.0)


def constant_path(points):
    pts = np.array(points, dtype=complex)
    zero = np.zeros_like(pts)
    return Path(len(pts), (Segment(lambda t: pts, lambda t: zero),))


def rotation_path(points):
    pts = np.array(points, dtype=complex)
    w = 2j * math.pi

    def z(t):
        return cmath.exp(w * t) * pts

    def dz(t):
        return w * cmath.exp(w * t) * pts

    return Path(len(pts), (Segment(z, dz),))


def braid_path(points, i, clockwise=False, wobble=0.0):
    """Half-twist exchanging points i and i+1 (1-based), others fixed.

    wobble != 0 bulges the circle radius by (1 + wobble sin(pi t)), giving a
    homotopic but differently shaped representative.
    """
    pts = np.array(points, dtype=complex)
    n = len(pts)
    i = require_int(i, "braid generator")
    if not 1 <= i <= n - 1:
        raise ValidationError(f"braid generator {i} out of range for n={n}")
    a, b = i - 1, i
    mid = complex(pts[a] + pts[b]) / 2
    rad = complex(pts[b] - pts[a]) / 2
    sgn = -1.0 if clockwise else 1.0

    def arm(t):
        return rad * (1 + wobble * math.sin(math.pi * t)) * \
            cmath.exp(1j * sgn * math.pi * t)

    def darm(t):
        rho = 1 + wobble * math.sin(math.pi * t)
        drho = wobble * math.pi * math.cos(math.pi * t)
        return rad * (drho + rho * 1j * sgn * math.pi) * \
            cmath.exp(1j * sgn * math.pi * t)

    def z(t):
        w = arm(t)
        out = pts.copy()
        out[a], out[b] = mid - w, mid + w
        return out

    def dz(t):
        w = darm(t)
        out = np.zeros(n, dtype=complex)
        out[a], out[b] = -w, w
        return out

    return Path(n, (Segment(z, dz),))


def concat_paths(first, second):
    if first.n != second.n:
        raise ValidationError("paths have different point counts")
    gap = float(np.max(np.abs(first.end() - second.start())))
    # a NaN endpoint gives a NaN gap, which compares false to any bound
    if not gap <= _CONCAT_GAP:
        raise ValidationError(f"paths do not concatenate: endpoint gap {gap}")
    return Path(first.n, first.segments + second.segments)


def reverse_path(path):
    segs = []
    for seg in reversed(path.segments):
        z, dz = seg.z, seg.dz
        segs.append(Segment(lambda t, z=z: z(1.0 - t),
                            lambda t, dz=dz: -dz(1.0 - t)))
    return Path(path.n, tuple(segs))


def reparametrize(path, fn, dfn):
    """Same geometric path traversed with parameter t -> fn(t)."""
    segs = []
    for seg in path.segments:
        z, dz = seg.z, seg.dz
        segs.append(Segment(lambda t, z=z: z(fn(t)),
                            lambda t, dz=dz: dfn(t) * dz(fn(t))))
    return Path(path.n, tuple(segs))


@dataclass
class MonodromyResult:
    """Transport matrix with its error estimate and block residual."""

    matrix: np.ndarray
    est_error: float
    block_residual: float | None = None


def _min_separation(form, z):
    """min |z_i - z_j| over the form's pairs (inf with fewer than two)."""
    return _Points(form, z).sep


class _FormOnPath:
    """A(t) for one segment as a stack over times, with diagonal-proximity
    monitoring.

    The segment functions run once per time and their points are stacked,
    so one `KZForm.evaluate` call serves the whole stack. Errors follow
    time order: the first time whose points are within the floor of a
    diagonal raises PathSingularError, unless the form fails at an earlier
    time.
    """

    def __init__(self, form, segment, floor):
        self.form = form
        self.segment = segment
        self.floor = floor

    def __call__(self, ts):
        seg = self.segment
        z = np.array([seg.z(t) for t in ts])
        v = np.array([seg.dz(t) for t in ts])
        pts = _Points(self.form, z)
        near = np.flatnonzero(pts.sep < self.floor)
        if near.size:
            r = near[0]
            if r:
                # the form failing at an earlier time comes first
                self.form.evaluate(z[:r], v[:r])
            t = float(ts[r])
            raise PathSingularError(
                f"points within {self.floor} of a diagonal at t={t}", t=t)
        return self.form.evaluate(pts, v)


def _solve_segment_adaptive(afun, y0, tol, sign):
    return dop853(lambda ts: sign * afun(ts), y0, rtol=tol, atol=tol * 1e-2)


def _solve_segment_magnus(afun, y0, steps, sign):
    y = y0
    h = 1.0 / steps
    nodes = np.array([h * (0.5 - _GAUSS_OFFSET), h * (0.5 + _GAUSS_OFFSET)])
    for first in range(0, steps, _MAGNUS_CHUNK):
        starts = np.arange(first, min(first + _MAGNUS_CHUNK, steps)) * h
        a = afun((starts[:, None] + nodes).ravel())
        a1, a2 = a[0::2], a[1::2]
        # fourth order for Y' = sign*A Y; the commutator term carries sign^2
        cores = sign * (h / 2) * (a1 + a2) \
            - (math.sqrt(3) * h * h / 12) * (a1 @ a2 - a2 @ a1)
        for factor in expm(cores):
            y = factor @ y
    # Magnus estimates its error from its ladder, not from its steps
    return y, 0.0


_SEGMENT_SOLVERS = {"adaptive": _solve_segment_adaptive,
                    "magnus": _solve_segment_magnus}


def _run_path(form, path, resolution, method, floor, sign):
    """Every segment at one resolution (rtol or step count): Y(1) and the
    sum S of DOP853's pulled-back local errors (0 for Magnus)."""
    solve = _SEGMENT_SOLVERS[method]
    y = np.eye(form.dim, dtype=complex)
    drift = 0.0
    for seg in path.segments:
        y, seg_drift = solve(_FormOnPath(form, seg, floor), y, resolution,
                             sign)
        drift = drift + seg_drift
    return y, drift


def _ladder():
    """The Magnus step counts: 8, 16, 32, ... up to the step budget."""
    steps = 8
    rungs = []
    while steps <= _MAGNUS_MAX_STEPS:
        rungs.append(steps)
        steps *= 2
    return rungs


def require_tol(tol):
    """Raise ValidationError unless tol is a finite number, not a bool,
    that the ladder can refine below."""
    if isinstance(tol, bool) or not _MIN_TOL < tol < math.inf:
        raise ValidationError(
            f"tolerance must be finite and exceed {_MIN_TOL:g}, got {tol!r}")


def _require_positive(value, what):
    if isinstance(value, bool) or not 0 < value < math.inf:
        raise ValidationError(
            f"{what} must be finite and positive, got {value!r}")


def transport(form, path, tol=DEFAULT_TOL, method="adaptive",
              min_separation=1e-9, dual=False):
    """Parallel transport along a path; frame starts as the identity.

    dual=True transports dual-bundle frames (Y' = +A Y), the parallel
    structure of the block subspaces; the default transports sections
    (Y' = -A Y), the one the rotation-scalar oracle pins down.

    DOP853 solves the path once at rtol max(tol/100, 1e-13), and est_error
    is the first-order global error of that solve: every accepted step's
    local error carried to the end of the path by the flow (see the module
    docstring). Magnus solves it at 8, 16, 32, ... steps until the
    Frobenius move between consecutive rungs is at most
    tol * max(1, ||matrix||_F); the matrix is the last rung and est_error
    its move. tol must exceed 1e-13. min_separation, finite and positive,
    sets the pole guard: two of the form's points closer than
    min_separation times the smallest pair distance at the start raise
    PathSingularError. Magnus raises TransportError when its step budget
    runs out first.
    """
    require_tol(tol)
    if method not in _SEGMENT_SOLVERS:
        raise ValidationError(f"unknown transport method {method!r}")
    if path.n != form.n:
        raise ValidationError(
            f"path has {path.n} points, form expects {form.n}")
    _require_positive(min_separation, "minimum separation")
    floor = min_separation * max(_min_separation(form, path.start()),
                                 1e-30)
    sign = 1.0 if dual else -1.0
    if method == "adaptive":
        y, drift = _run_path(form, path, max(tol * 1e-2, _MIN_TOL), method,
                             floor, sign)
        return MonodromyResult(matrix=y,
                               est_error=float(np.linalg.norm(y @ drift)))
    prev = None
    for steps in _ladder():
        cur, _ = _run_path(form, path, steps, method, floor, sign)
        if prev is not None:
            move = float(np.linalg.norm(cur - prev))
            if move <= tol * max(1.0, np.linalg.norm(cur)):
                return MonodromyResult(matrix=cur, est_error=move)
        prev = cur
    raise TransportError(
        f"magnus stepper exceeded the step budget of {_MAGNUS_MAX_STEPS} "
        f"before reaching tol={tol}")


def magnus_fixed_steps(form, path, steps, dual=False):
    """Fixed-step Magnus transport, exposed for convergence-order checks."""
    return _run_path(form, path, steps, "magnus", 1e-30,
                     1.0 if dual else -1.0)[0]


def projective_compare(a, b):
    """Unit scalar c minimising ||a - c b||_F and the attained residual."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValidationError("matrices must have the same shape")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise ValidationError("projective comparison of a zero matrix")
    t = np.vdot(b, a)
    c = t / abs(t) if abs(t) > 0 else 1.0 + 0j
    return c, float(np.linalg.norm(a - c * b))


def _in_block_basis(columns, transported):
    """Least-squares coordinates plus the relative off-subspace residual."""
    sol, _res, _rank, _sv = np.linalg.lstsq(columns, transported, rcond=None)
    off = transported - columns @ sol
    denom = max(np.linalg.norm(transported), 1e-300)
    return sol, float(np.linalg.norm(off) / denom)


def braid_generator(form, block, i, tol=DEFAULT_TOL,
                    block_tol=DEFAULT_BLOCK_TOL, clockwise=False,
                    method="adaptive"):
    """Monodromy of one braid generator on the block subspace (i is 1-based).

    The block frame is moved with the dual transport, under which the block
    subbundle is parallel (see the module docstring). Equal weights on the
    exchanged slots give an endomorphism of the block at the starting
    configuration, expressed in its basis (this is what braid words
    compose). Otherwise the matrix maps into the block basis at the
    permuted configuration. The block residual is the relative norm of the
    transported frame's component outside the target subspace and must stay
    below block_tol.
    """
    system = form.system
    n = system.n
    i = require_int(i, "braid generator")
    if not 1 <= i <= n - 1:
        raise ValidationError(f"braid generator {i} out of range for n={n}")
    if block.dim == 0:
        raise ValidationError("block subspace is zero dimensional")
    _require_positive(block_tol, "block tolerance")
    z0 = tuple(complex(p) for p in block.points)
    path = braid_path(z0, i, clockwise=clockwise)
    res = transport(form, path, tol=tol, method=method, dual=True)
    cols = block.coeffs.to_array(complex)

    equal = system.weights[i - 1] == system.weights[i]
    if equal:
        # the restricted flip squares to Id, so it is its own inverse
        acting = system.swap_restricted(i - 1).to_array(complex) @ res.matrix
        target = cols
    else:
        acting = res.matrix
        pts = list(block.points)
        pts[i - 1], pts[i] = pts[i], pts[i - 1]
        endpoint = block_subspace(system, block.k, pts)
        target = endpoint.coeffs.to_array(complex)

    mat, residual = _in_block_basis(target, acting @ cols)
    if residual > block_tol:
        raise TransportError(
            f"braid generator {i}: block residual {residual:.3e} exceeds "
            f"{block_tol:.1e} (integrator or block construction failure)")
    return MonodromyResult(matrix=mat, est_error=res.est_error,
                           block_residual=residual)


def parse_braid_word(text):
    """Signed integers separated by whitespace, e.g. '1 -2 1'."""
    letters = []
    for tok in str(text).split():
        try:
            w = int(tok)
        except ValueError as exc:
            raise ValidationError(f"bad braid letter {tok!r}") from exc
        if w == 0:
            raise ValidationError("braid letters are nonzero integers")
        letters.append(w)
    return letters


def braid_word_transport(form, block, word, tol=DEFAULT_TOL,
                         block_tol=DEFAULT_BLOCK_TOL, method="adaptive"):
    """Monodromy of a braid word on the block, letters acting left first.

    Requires all tensor weights equal so every generator is an endomorphism
    of the same fibre. Letter matrices are cached and reused. `tol` is
    checked first, so an empty word refuses a bad tolerance too. est_error
    sums the letters' estimates, each of the error of a transported frame;
    it is not a bound on the error of the word's matrix in the block basis.
    """
    require_tol(tol)
    letters = (parse_braid_word(word) if isinstance(word, str)
               else [require_int(w, "braid letter") for w in word])
    system = form.system
    n = system.n
    if len(set(system.weights)) > 1:
        raise ValidationError(
            "braid words need all marked points to carry the same weight")
    for w in letters:
        if not 1 <= abs(w) <= n - 1:
            raise ValidationError(
                f"braid letter {w} out of range for n={n}")
    _require_positive(block_tol, "block tolerance")
    cache = {}
    total = np.eye(block.dim, dtype=complex)
    worst_res = 0.0
    err = 0.0
    for w in letters:
        if w not in cache:
            cache[w] = braid_generator(form, block, abs(w), tol=tol,
                                       block_tol=block_tol,
                                       clockwise=(w < 0), method=method)
        res = cache[w]
        total = res.matrix @ total
        worst_res = max(worst_res, res.block_residual)
        err += res.est_error
    return MonodromyResult(matrix=total, est_error=err,
                           block_residual=worst_res)


def monodromy_to_json(result, manifest=None):
    import json
    doc = {
        "matrix_re": result.matrix.real.tolist(),
        "matrix_im": result.matrix.imag.tolist(),
        "est_error": result.est_error,
        "block_residual": result.block_residual,
    }
    if manifest is not None:
        doc["manifest"] = manifest
    return json.dumps(doc, sort_keys=True)
