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

Two paths are solved without sampling them, on their exact poles, by one
arc solver: with u = e^{i sweep t}, every pair coefficient
dlog(z_i - z_j) is du/(u - p) with an exact pole p (Kohno, Ann. Inst.
Fourier 37, 1987).
- The global rotation z(t) = e^{2 pi i t} z(0) of `rotation_path` (sweep
  2 pi): every pair has p = 0. The adaptive `transport` moves the identity
  frame along it.
- The half-twist of `braid_generator` (sweep +-pi): with m the midpoint
  and r = (z_b - z_a)/2 the moving points are m -+ r u, so p = 0 for the
  exchanged pair and +-(m - z_j)/r for a pair with one moving slot; pairs
  of two fixed slots have no coefficient. It moves the d x b block frame.
Pairs at exactly one pole are merged by summing their residues, so the
rotation has a single pole. The transport is then the Fuchsian system
dY/du = +-sum_p R_p/(u - p) Y, R_p = Omega^p/(k+h) (+ dual, - sections).
It runs in Gram-orthonormal coordinates x = C^T y, C the Cholesky factor
of the invariant Gram matrix, where each R_p is symmetric
(`KZForm.gram_residues`). The arc goes in steps whose chord is at most
half the distance rho to the nearest pole; at each centre u_0, with
w_p = 1/(p - u_0), the Taylor coefficients obey
(n+1) Y_{n+1} = -sum_p R_p Z_{p,n}, Z_{p,n} = w_p (Y_n + Z_{p,n-1}). A
square frame (b = d: the rotation's identity, or a letter whose block
fills the invariants) runs this recurrence once for all K steps, on a
stack of K identities, one (d, P d) @ (K, P d, d) product per term, and
is then carried through the K step maps; a block frame (b < d) runs it
one step at a time, one (d, P d) @ (P d, b) product per term. The series
is majorised by ||Y_0|| (1 - x/rho)^{-M} (Cauchy's majorant method;
Mezzarobba, "Rigorous multiple-precision evaluation of D-finite functions
in SageMath", 2016), so every step's term count is fixed in advance from
the closed-form tail, and the tails carried to the end by the flow
majorant exp(int sum_p ||R_p||/|u - p| |du|) bound the error in exact
arithmetic; float rounding is not covered. When every pole is 0, as on the
rotation, the flow exp(+-i theta R) is unitary in Gram coordinates and
carries the tails with factor 1. The plan needs only the residue norms
(`KZForm.residue_norms`), so the Gram matrix is built only for arcs the
solver then runs. Arcs whose planned work passes a fixed crossover (the
multiply-adds sum_k N_k P d^2 b against DOP853's time, measured at
A1 (1)^8 and (1)^10) are sampled and run DOP853 like any path, as are the
paths of `braid_path`, `reverse_path`, `reparametrize` and `concat_paths`.

Path segments take a 1-d array of times and return the points z(t) and
velocities dz/dt as complex (times, n) arrays. The integrators ask for A(t)
on whole stacks of times: DOP853 for the eleven nodes of a step attempt,
Magnus for the Gauss nodes of a chunk. Each segment function runs once per
stack; the points then go through one pair difference
z[..., left] - z[..., right], shared by the pole monitor and the form's
coefficients, and one `KZForm.evaluate` call, whose rows are bitwise the
single-time values. The monitor takes the minimum of |z_i - z_j| over the
form's pairs at every time; coming too close to a diagonal aborts with the
first offending time, in the order the integrator would have reached it.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._integrators import dop853, expm, spectral_bound
from .blocks import block_subspace
from .connection import _Points
from .errors import (PathSingularError, TransportError, ValidationError,
                     require_int)
from .exact import to_float

DEFAULT_TOL = 1e-10
DEFAULT_BLOCK_TOL = 1e-8
_MIN_TOL = 1e-13
_MIN_SEPARATION = 1e-9
_MAGNUS_MAX_STEPS = 1 << 16
# Magnus steps whose cores are exponentiated as one stack
_MAGNUS_CHUNK = 256
_CONCAT_GAP = 1e-9
_GAUSS_OFFSET = math.sqrt(3) / 6
_TAYLOR_MAX_STEPS = 1 << 10
_TAYLOR_MAX_TERMS = 1 << 8
# arcs planned past this many multiply-adds sum_k N_k P d^2 b run DOP853
# instead: at A1 (1)^10, k=2, Taylor letters of 1.3-2.0e8 took
# 15-21 ms against DOP853's 15-27 ms, and at k=3 one of 3.5e8 took 68 ms
# against 26 ms (2-CPU Xeon VM)
_TAYLOR_MAX_MADDS = 250_000_000


@dataclass(frozen=True)
class Segment:
    """One smooth piece of a path: z(t) and dz/dt(t) for t in [0, 1].

    Both take a 1-d array of times and return a complex array of shape
    (len(ts), n), one row of marked points per time.
    """

    z: object
    dz: object


@dataclass(frozen=True)
class Path:
    n: int
    segments: tuple

    def start(self):
        return self.segments[0].z(np.zeros(1))[0]

    def end(self):
        return self.segments[-1].z(np.ones(1))[0]


class _FullTurn(Path):
    """The loop z(t) = e^{2 pi i t} z(0) of `rotation_path`, along which
    every pair coefficient is du/u, u = e^{2 pi i t}: the adaptive
    `transport` solves it on that exact pole."""


def constant_path(points):
    pts = np.array(points, dtype=complex)

    def z(ts):
        return np.repeat(pts[None], len(ts), axis=0)

    def dz(ts):
        return np.zeros((len(ts), len(pts)), dtype=complex)

    return Path(len(pts), (Segment(z, dz),))


def rotation_path(points):
    pts = np.array(points, dtype=complex)
    w = 2j * math.pi

    def z(ts):
        return np.exp(w * ts)[:, None] * pts

    def dz(ts):
        return (w * np.exp(w * ts))[:, None] * pts

    return _FullTurn(len(pts), (Segment(z, dz),))


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

    def arm(ts):
        return rad * (1 + wobble * np.sin(math.pi * ts)) * \
            np.exp(1j * sgn * math.pi * ts)

    def darm(ts):
        rho = 1 + wobble * np.sin(math.pi * ts)
        drho = wobble * math.pi * np.cos(math.pi * ts)
        return rad * (drho + rho * 1j * sgn * math.pi) * \
            np.exp(1j * sgn * math.pi * ts)

    def z(ts):
        w = arm(ts)
        out = np.repeat(pts[None], len(w), axis=0)
        out[:, a], out[:, b] = mid - w, mid + w
        return out

    def dz(ts):
        w = darm(ts)
        out = np.zeros((len(w), n), dtype=complex)
        out[:, a], out[:, b] = -w, w
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
        segs.append(Segment(lambda ts, z=z: z(1.0 - ts),
                            lambda ts, dz=dz: -dz(1.0 - ts)))
    return Path(path.n, tuple(segs))


def reparametrize(path, fn, dfn):
    """Same geometric path traversed with parameter t -> fn(t).

    fn and dfn map an array of times to an array of the same shape.
    """
    segs = []
    for seg in path.segments:
        z, dz = seg.z, seg.dz
        segs.append(Segment(lambda ts, z=z: z(fn(ts)),
                            lambda ts, dz=dz: dfn(ts)[:, None] * dz(fn(ts))))
    return Path(path.n, tuple(segs))


@dataclass
class MonodromyResult:
    """Transport matrix with its error estimate and block residual."""

    matrix: np.ndarray
    est_error: float
    block_residual: float | None = None


class _FormOnPath:
    """A(t) for one segment as a stack over times, with diagonal-proximity
    monitoring.

    The segment functions run once on the whole stack of times, and so
    does one `KZForm.evaluate` call. Errors follow
    time order: the first time whose points are within the floor of a
    diagonal raises PathSingularError, unless the form fails at an earlier
    time.
    """

    def __init__(self, form, segment, floor):
        self.form = form
        self.segment = segment
        self.floor = floor

    def __call__(self, ts):
        ts = np.asarray(ts, dtype=float)
        z = self.segment.z(ts)
        v = self.segment.dz(ts)
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
    """Raise ValidationError unless tol is a finite real number, not a
    bool, that the ladder can refine below."""
    if not (isinstance(tol, numbers.Real) and not isinstance(tol, bool)
            and _MIN_TOL < tol < math.inf):
        raise ValidationError(
            f"tolerance must be finite and exceed {_MIN_TOL:g}, got {tol!r}")


def _require_positive(value, what):
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and 0 < value < math.inf):
        raise ValidationError(
            f"{what} must be finite and positive, got {value!r}")


def transport(form, path, tol=DEFAULT_TOL, method="adaptive",
              min_separation=_MIN_SEPARATION, dual=False):
    """Parallel transport along a path; frame starts as the identity.

    dual=True transports dual-bundle frames (Y' = +A Y), the parallel
    structure of the block subspaces; the default transports sections
    (Y' = -A Y), the one the rotation-scalar oracle pins down.

    The adaptive method solves a `rotation_path` loop by the arc solver on
    its exact pole u = 0 (module docstring), evaluating the form nowhere;
    there est_error is the a-priori truncation bound on
    ||matrix - Y(1)||_F, at most max(tol/100, 1e-13), which holds in exact
    arithmetic and does not cover float rounding. Past the crossover, and
    on every other path, DOP853 solves the path once at rtol
    max(tol/100, 1e-13), and est_error is the first-order global error of
    that solve: every accepted step's local error carried to the end of
    the path by the flow (see the module docstring). Magnus solves it at
    8, 16, 32, ... steps until the Frobenius move between consecutive
    rungs is at most tol * max(1, ||matrix||_F); the matrix is the last
    rung and est_error its move. tol must exceed 1e-13. min_separation,
    finite and positive, sets the pole guard: two of the form's points
    closer than min_separation times the smallest pair distance at the
    start raise PathSingularError (in closed form on the rotation loop,
    where the distances never shrink, so only min_separation > 1 raises,
    at t = 0). Magnus raises TransportError when its step budget runs out
    first.
    """
    require_tol(tol)
    if method not in _SEGMENT_SOLVERS:
        raise ValidationError(f"unknown transport method {method!r}")
    if path.n != form.n:
        raise ValidationError(
            f"path has {path.n} points, form expects {form.n}")
    _require_positive(min_separation, "minimum separation")
    start = _Points(form, path.start())
    floor = min_separation * max(start.sep, 1e-30)
    sign = 1.0 if dual else -1.0
    rtol = max(tol * 1e-2, _MIN_TOL)
    if method == "adaptive" and isinstance(path, _FullTurn) and form.dim:
        # every pair coefficient is du/u: every pole is 0, and
        # |z_i - z_j| = |z0_i - z0_j| |u|
        npair = len(form.pairs)
        moved = _arc_transport(form, 2 * math.pi, sign,
                               np.zeros(npair, dtype=complex),
                               np.arange(npair), np.abs(start.dz),
                               floor, np.eye(form.dim, dtype=complex), rtol)
        if moved is not None:
            return MonodromyResult(*moved)
    if method == "adaptive":
        y, drift = _run_path(form, path, rtol, method, floor, sign)
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


def _twist_poles(form, z0, a, b):
    """The half-twist of slots a < b in u = e^{+-i pi t}: for each pair it
    moves, its pole, its row in `form.pairs` and its span, the factor s
    with |z_i - z_j| = s |u - p|.

    With m the midpoint and r = (z_b - z_a)/2, z_a = m - r u and
    z_b = m + r u, so the pair coefficient dlog(z_i - z_j) is du/(u - p):
    p = 0 for (a, b), with span 2|r|, and c_j/r for (a, j) and -c_j/r for
    (b, j), with span |r|, where c_j = m - z_j. Pairs of two fixed slots
    have no coefficient.
    """
    mid = (z0[a] + z0[b]) / 2
    rad = (z0[b] - z0[a]) / 2
    poles, rows, spans = [], [], []
    for row, pair in enumerate(form.pairs):
        if pair == (a, b):
            poles.append(0j)
            spans.append(2 * abs(rad))
        elif a in pair or b in pair:
            moving = a if a in pair else b
            c = (mid - z0[sum(pair) - moving]) / rad
            poles.append(c if moving == a else -c)
            spans.append(abs(rad))
        else:
            continue
        rows.append(row)
    return (np.array(poles, dtype=complex), np.array(rows, dtype=np.intp),
            np.array(spans))


def _guard_time(poles, sweep, delta):
    """The first t in [0, 1] at which u = e^{i sweep t} is within delta[p]
    of poles[p], or None.

    On the unit circle |u - p|^2 = (1 - |p|)^2 + 4|p| sin^2((theta - arg p)/2),
    so each pole's guard is one arc of angles, |theta - arg p| < alpha,
    found in closed form.
    """
    span = abs(sweep)
    first = math.inf
    for p, dl in zip(poles.tolist(), delta.tolist()):
        rho = abs(p)
        gap = abs(1 - rho)
        if dl <= gap:
            continue
        if rho == 0:
            first = 0.0
            continue
        s = math.sqrt((dl - gap) * (dl + gap) / (4 * rho))
        alpha = 2 * math.asin(s) if s < 1 else math.pi
        phi = math.copysign(1.0, sweep) * cmath.phase(p)
        for shift in (-2 * math.pi, 0.0, 2 * math.pi):
            lo = phi - alpha + shift
            if lo + 2 * alpha > 0 and lo < span:
                first = min(first, max(lo, 0.0) / span)
    return first if first <= 1 else None


def _arc_times(poles, sweep):
    """Step times 0 = t_0 < ... < t_K = 1 on u = e^{i sweep t}: each step's
    chord is at most half the distance rho from its start to the nearest
    pole. A pole at 0 keeps rho <= 1, so a half-twist takes at least seven
    steps and a full turn thirteen."""
    ts = [0.0]
    while ts[-1] < 1.0:
        if len(ts) > _TAYLOR_MAX_STEPS:
            raise TransportError(
                f"taylor stepper exceeded the step budget of "
                f"{_TAYLOR_MAX_STEPS} steps")
        u = cmath.exp(1j * sweep * ts[-1])
        rho = float(np.abs(poles - u).min())
        ts.append(min(1.0, ts[-1] + 2 * math.asin(rho / 4) / abs(sweep)))
    return np.array(ts)


def _arc_distance(poles, ts, sweep):
    """(K, P) distances from each pole to each step's arc, exactly: |1 - |p||
    if the pole's angle lies on the arc, else the nearer end."""
    p = poles if sweep > 0 else poles.conj()
    phase = np.angle(p) % (2 * math.pi)
    lo, hi = abs(sweep) * ts[:-1, None], abs(sweep) * ts[1:, None]
    ends = np.exp(1j * np.concatenate((lo, hi), axis=1))
    near = np.minimum(np.abs(p - ends[:, :1]), np.abs(p - ends[:, 1:]))
    on_arc = (phase >= lo) & (phase <= hi)
    return np.where(on_arc, np.abs(1 - np.abs(p)), near)


def _taylor_plan(poles, norms, ts, sweep):
    """The arc points u_k, the logarithm of each step's tail bound for
    1, ..., _TAYLOR_MAX_TERMS terms, and each step's flow exponent L_k.

    On step k the centre is u_k, rho_k the distance to the nearest pole and
    q_k = |u_{k+1} - u_k|/rho_k <= 1/2. Since |p - u_k| >= rho_k, the
    coefficients of sum_p ||S_p||/(u - p) in x = u - u_k are majorised by
    those of M_k/(rho_k - x), M_k = sum_p ||S_p|| rho_k/|p - u_k|. So the
    series of the frame is majorised by ||X_k||_F (1 - x/rho_k)^{-M_k}, whose
    n-th coefficient at x = u_{k+1} - u_k is ||X_k||_F c_n q_k^n with
    c_n = (M_k)_n/n!; as c_{n+1}/c_n = (M_k + n)/(n + 1), the tail from N on
    is at most c_N q_k^N/(1 - q_k max(1, (M_k + N)/(N + 1))) ||X_k||_F. The
    flow majorant exp(int sum_p ||S_p||/|u - p| |du|) bounds the growth of
    any frame; per step its exponent is L_k = |sweep| dt_k sum_p ||S_p||/d_pk
    with d_pk the pole's distance to the arc. When every pole is 0,
    du/u = i dtheta and the flow X(theta) = exp(i theta S_0) X_0, S_0 real
    symmetric in Gram coordinates, is unitary: it keeps every frame's norm
    and carries every tail with factor 1, so L_k = 0. The sweep is a
    whole number of half turns, so the arc ends on cos(sweep) = +-1
    exactly.
    """
    us = np.exp(1j * sweep * ts)
    us[-1] = math.cos(sweep)
    centre = us[:-1]
    dist = np.abs(poles - centre[:, None])
    rho = dist.min(axis=1)
    q = np.abs(np.diff(us)) / rho
    big_m = (norms * rho[:, None] / dist).sum(axis=1)
    flow = abs(sweep) * np.diff(ts) * (norms / _arc_distance(poles, ts, sweep)
                                       ).sum(axis=1) * poles.any()
    n = np.arange(1, _TAYLOR_MAX_TERMS + 1)
    ratio = q[:, None] * np.maximum(1.0, (big_m[:, None] + n) / (n + 1))
    # M_k = 0 (no residue) gives log c_n = -inf: one term is exact
    with np.errstate(divide="ignore", invalid="ignore"):
        log_c = np.cumsum(np.log((big_m[:, None] + n - 1) / n), axis=1)
        log_tail = np.where(ratio < 1, log_c + n * np.log(q)[:, None]
                            - np.log1p(-ratio), np.inf)
    return us, log_tail, flow


def _term_counts(log_tail, flow, budget):
    """Each step's term count N_k and its tail factor, or None when some step
    needs more than _TAYLOR_MAX_TERMS terms.

    N_k is the least count whose tail, for the a-priori frame bound
    ||X_k|| <= ||X_0|| exp(L_0 + ... + L_{k-1}) and carried to the end by
    exp(L_{k+1} + ...), is at most budget/K, with budget relative to
    ||X_0||_F. A smaller budget never takes fewer terms.
    """
    room = math.log(budget / len(flow)) - (flow.sum() - flow)
    fits = log_tail <= room[:, None]
    if not fits.any(axis=1).all():
        return None
    counts = np.argmax(fits, axis=1) + 1
    return counts, np.exp(log_tail[np.arange(len(flow)), counts - 1])


def _taylor_steps(flat, scale, counts, x):
    """The frames x[k], (K, d, b), each moved over its own step by the
    Taylor series of dX/du = sum_p S_p/(u - p) X, step k summing exactly
    counts[k] terms.

    flat is the (d, P d) row [S_1 ... S_P] and scale the (K, P + 1, 1, 1)
    stack of h_k w_{p,k}, h_k = u_{k+1} - u_k and w_{p,k} = 1/(p - u_k),
    and of 1 in its last slot. With the terms scaled by h_k^n,
    (n+1) X_{n+1} = -sum_p S_p Z_{p,n} and
    Z_{p,n} = h_k w_{p,k} (X_n + Z_{p,n-1}), and the frame at u_{k+1} is
    the sum of the terms. The residues are real, so a term of all K steps
    is one (d, P d) @ (K, P d, 2b) product on the float view of the complex
    Z. The last slot of Z, of scale 1, is filled by the recurrence itself
    with the running sum of the terms. When a step reaches its count, its
    term and its Z are zeroed, so it adds no further term.
    """
    steps, d, b = x.shape
    npole = scale.shape[1] - 1
    z = np.zeros((steps, npole + 1, d, b), dtype=complex)
    zf = z.view(float).reshape(steps, -1, 2 * b)[:, :npole * d]
    term = x.copy()
    out, spread = term.view(float), term[:, None]
    ends = set(counts.tolist())
    for m in range(1, max(ends)):
        z += spread
        z *= scale
        np.matmul(flat, zf, out=out)
        term *= -1.0 / m
        if m in ends:
            done = counts == m
            term[done] = 0
            z[done, :npole] = 0
    return z[:, npole] + term


def _taylor_frame(res, poles, us, counts, x):
    """The frame x carried along the arc u_0, ..., u_K by the Taylor series
    of dX/du = sum_p S_p/(u - p) X (`_taylor_steps`), and the Frobenius
    norm of each step's starting frame.

    A square frame (b = d) runs one recurrence for all K steps, on a stack
    of K identities, and is then carried through the K step maps, each
    applied as two real products (`_real_times`). A block frame (b < d)
    runs one step at a time on the frame itself, since stacking identities
    would cost d/b times the multiply-adds.
    """
    d, b = x.shape
    flat = np.ascontiguousarray(res.transpose(1, 0, 2).reshape(d, -1))
    h = np.diff(us)[:, None]
    scale = np.concatenate((h / (poles - us[:-1, None]), np.ones_like(h)),
                           axis=1)[..., None, None]
    if b == d:
        maps = _taylor_steps(flat, scale, counts, np.broadcast_to(
            np.eye(d, dtype=complex), (len(counts), d, d)))
        real, imag = maps.real.copy(), maps.imag.copy()
    norms = []
    for k in range(len(counts)):
        norms.append(np.linalg.norm(x))
        if b == d:
            x = _real_times(real[k], x) + 1j * _real_times(imag[k], x)
        else:
            x = _taylor_steps(flat, scale[k:k + 1], counts[k:k + 1],
                              x[None])[0]
    return x, np.array(norms)


def _real_times(a, x):
    """a @ x for a real a and a complex x, as one real product on the float
    view of x. At d = 42 a complex product takes OpenBLAS's threaded path
    and these real ones do not: with its default two threads on a 2-CPU
    Xeon VM, the 13 complex step products of the A1 (1)^10 rotation loop
    took about 200 ms in one fresh process of 30, against 0.2 ms."""
    return (a @ np.ascontiguousarray(x).view(float)).view(complex)


def _merge_poles(poles):
    """The distinct poles, in order of first appearance, and the positions
    of the pairs at each: pairs at one pole share the sum of their
    residues."""
    at = {}
    for pos, p in enumerate(poles.tolist()):
        at.setdefault(p, []).append(pos)
    return np.array(list(at), dtype=complex), list(at.values())


def _arc_transport(form, sweep, sign, poles, rows, spans, floor, frame,
                   bound):
    """The frame moved along u = e^{i sweep t}, t in [0, 1], by the Taylor
    series of dY/du = sign sum_p R_p/(u - p) Y, or None past the crossover.

    R_p = Omega^p/(k+h) for the pairs `rows` of `form.pairs`, poles[p] the
    pole of pair p and spans[p] its factor s with |z_i - z_j| = s |u - p|.
    sign is +1 for the dual transport and -1 for sections. Pairs at one
    pole are merged (`_merge_poles`). A point within `floor` of a diagonal
    on the arc raises PathSingularError at the first such t
    (`_guard_time`). The term counts are planned from the residue norms
    (`KZForm.residue_norms`), which need no Gram matrix: if even the
    loosest budget plans more multiply-adds sum_k (N_k - 1) P d^2 b than
    _TAYLOR_MAX_MADDS, or a step more than _TAYLOR_MAX_TERMS terms, this
    returns None before `KZForm.gram_residues` is built. Otherwise the
    frame moves in Gram-orthonormal coordinates (`_taylor_frame`: a square
    frame through the step maps of one stacked recurrence, which runs
    max_k N_k terms on every step but sums only each step's own N_k, a
    block frame step by step) and the result is the moved frame with a
    bound on its Frobenius error, the carried tails, at most `bound`, in
    exact arithmetic; each step's tail is scaled by the norm of the frame
    that starts it.
    """
    t = _guard_time(poles, sweep, floor / spans)
    if t is not None:
        raise PathSingularError(
            f"points within {floor} of a diagonal at t={t}", t=t)
    if not (np.isfinite(poles).all()
            and np.isfinite(form.residues(rows)).all()):
        raise TransportError("integrator failed: non-finite residue or pole")
    poles, at = _merge_poles(poles)
    groups = [tuple(rows[pos].tolist()) for pos in at]
    us, log_tail, flow = _taylor_plan(poles, form.residue_norms(groups),
                                      _arc_times(poles, sweep), sweep)
    d, b = frame.shape

    def planned(budget):
        plan = _term_counts(log_tail, flow, budget)
        if plan is None or int((plan[0] - 1).sum()) * len(poles) * d * d * b \
                > _TAYLOR_MAX_MADDS:
            return None
        return plan

    # ||C^{-T}||_2 ||C^T frame||_F >= ||frame||_F, so this plan takes no
    # more terms than the one below
    if planned(bound / np.linalg.norm(frame)) is None:
        return None
    chol, res = form.gram_residues
    res = res[rows] if len(at) == len(rows) else np.array(
        [res[rows[pos]].sum(axis=0) for pos in at])
    if not np.isfinite(res).all():
        raise TransportError("integrator failed: non-finite residue or pole")
    inv = np.linalg.inv(chol)
    x = _real_times(chol.T, frame)
    # the error is C^{-T} (the carried tails); ||C^{-T}||_2^2 is the largest
    # eigenvalue of C^{-T} C^{-1}, bounded from above
    lift = math.sqrt(spectral_bound(inv.T @ inv))
    plan = planned(bound / (lift * np.linalg.norm(x)))
    if plan is None:
        return None
    counts, tails = plan
    x, starts = _taylor_frame(sign * res, poles, us, counts, x)
    after = flow[::-1].cumsum()[::-1] - flow
    return _real_times(inv.T, x), float(
        (starts * tails * np.exp(after)).sum() * lift)


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

    The default method solves the half-twist by the arc solver, Taylor
    series on its exact poles (module docstring), moving only the block
    frame B, and est_error is an a-priori bound on ||(Y~ - Y) B||_F /
    ||B||_2, the error of the transport on the block: the truncation tail
    of every step carried to the end by the flow majorant, at most
    max(tol/100, 1e-13). The bound holds in exact arithmetic; float
    rounding is not covered. A point coming within 1e-9 times the starting
    separation of the moving arc raises PathSingularError naming the first
    such t. Letters whose planned work passes a fixed crossover run DOP853
    on the fundamental matrix instead, with its first-order estimate, as
    method="magnus" runs the Magnus ladder (see `transport`).
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
    cols = block.coeffs.to_array(complex)
    moved = None
    if method == "adaptive":
        require_tol(tol)
        floor = _MIN_SEPARATION * max(_Points(form, z0).sep, 1e-30)
        size = np.linalg.norm(cols, 2)
        moved = _arc_transport(form, -math.pi if clockwise else math.pi, 1.0,
                               *_twist_poles(form, z0, i - 1, i), floor,
                               cols, max(tol * 1e-2, _MIN_TOL) * size)
        if moved is not None:
            moved = moved[0], moved[1] / size
    if moved is None:
        res = transport(form, braid_path(z0, i, clockwise=clockwise),
                        tol=tol, method=method, dual=True)
        moved = res.matrix @ cols, res.est_error
    frame, est_error = moved

    equal = system.weights[i - 1] == system.weights[i]
    if equal:
        # the restricted flip squares to Id, so it is its own inverse
        acting = to_float(*system.swap_restricted(i - 1)) @ frame
        target = cols
    else:
        acting = frame
        pts = list(block.points)
        pts[i - 1], pts[i] = pts[i], pts[i - 1]
        endpoint = block_subspace(system, block.k, pts)
        target = endpoint.coeffs.to_array(complex)

    mat, residual = _in_block_basis(target, acting)
    if residual > block_tol:
        raise TransportError(
            f"braid generator {i}: block residual {residual:.3e} exceeds "
            f"{block_tol:.1e} (integrator or block construction failure)")
    return MonodromyResult(matrix=mat, est_error=est_error,
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
    sums the letters' estimates (see `braid_generator`: a Taylor truncation
    bound on the transported block frame, or DOP853's first-order estimate
    past the crossover), each of the error of a transported frame; it is
    not a bound on the error of the word's matrix in the block basis.
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
