"""The float kernels of transport: DOP853 on [0, 1] and a matrix exponential.

`dop853` is the Dormand-Prince 8(5,3) Runge-Kutta pair of Hairer's DOP853
code (Hairer, Norsett, Wanner, Solving Ordinary Differential Equations I,
II.10), kept to what a transport needs: the twelve step stages, the
eighth-order solution and the combined fifth/third-order error estimate,
with no dense output. It integrates the linear system Y' = A(t) Y, whose
stage derivatives A(t_s) Y_s need A only at the step's nodes
t + c_s h, known before the step starts; so the eleven matrices of a step
attempt come from one call for the stack, and the last (c = 1) also gives
the derivative at the new point. Step control is Hairer's, in the form
of `scipy.integrate.solve_ivp(method="DOP853")`: the same initial-step
selection, safety factor 0.9, step factors clipped to [0.2, 10] (at most 1
right after a rejection) and a smallest step of ten float spacings of t.
Every arithmetic operation is the one that code makes on the flattened Y,
in the same order, so on the same A(t) both take the same steps and return
the same floats. Beside Y(1), `dop853` returns the sum of each accepted
step's local error pulled back through the frame, from which the caller
forms a first-order global error estimate of the one solve.

`spectral_bound` bounds the spectral radius of matrices with real
eigenvalues from above by the trace of a high power, with matrix products
alone.

`expm` is scaling and squaring with Pade approximants (Higham, "The scaling
and squaring method for the matrix exponential revisited", SIAM J. Matrix
Anal. Appl. 26, 2005). It takes one matrix or a stack (..., d, d): the
degree (3, 5, 7, 9 or 13) and the number of squarings come from the
largest 1-norm in the stack, so every matrix of the stack goes through the
same few batched products and one batched solve.
"""

import math

import numpy as np

from .errors import TransportError

# Dormand-Prince 8(5,3): nodes, stage coefficients, the eighth-order weights
# and the fifth- and third-order error weights (the last entry of each
# error row weighs f at the new point)
_C = np.array([0.0,
               0.526001519587677318785587544488e-01,
               0.789002279381515978178381316732e-01,
               0.118350341907227396726757197510,
               0.281649658092772603273242802490,
               0.333333333333333333333333333333,
               0.25,
               0.307692307692307692307692307692,
               0.651282051282051282051282051282,
               0.6,
               0.857142857142857142857142857142,
               1.0])

_A = np.zeros((12, 12))
_A[1, 0] = 5.26001519587677318785587544488e-2
_A[2, 0] = 1.97250569845378994544595329183e-2
_A[2, 1] = 5.91751709536136983633785987549e-2
_A[3, 0] = 2.95875854768068491816892993775e-2
_A[3, 2] = 8.87627564304205475450678981324e-2
_A[4, 0] = 2.41365134159266685502369798665e-1
_A[4, 2] = -8.84549479328286085344864962717e-1
_A[4, 3] = 9.24834003261792003115737966543e-1
_A[5, 0] = 3.7037037037037037037037037037e-2
_A[5, 3] = 1.70828608729473871279604482173e-1
_A[5, 4] = 1.25467687566822425016691814123e-1
_A[6, 0] = 3.7109375e-2
_A[6, 3] = 1.70252211019544039314978060272e-1
_A[6, 4] = 6.02165389804559606850219397283e-2
_A[6, 5] = -1.7578125e-2
_A[7, 0] = 3.70920001185047927108779319836e-2
_A[7, 3] = 1.70383925712239993810214054705e-1
_A[7, 4] = 1.07262030446373284651809199168e-1
_A[7, 5] = -1.53194377486244017527936158236e-2
_A[7, 6] = 8.27378916381402288758473766002e-3
_A[8, 0] = 6.24110958716075717114429577812e-1
_A[8, 3] = -3.36089262944694129406857109825
_A[8, 4] = -8.68219346841726006818189891453e-1
_A[8, 5] = 2.75920996994467083049415600797e1
_A[8, 6] = 2.01540675504778934086186788979e1
_A[8, 7] = -4.34898841810699588477366255144e1
_A[9, 0] = 4.77662536438264365890433908527e-1
_A[9, 3] = -2.48811461997166764192642586468
_A[9, 4] = -5.90290826836842996371446475743e-1
_A[9, 5] = 2.12300514481811942347288949897e1
_A[9, 6] = 1.52792336328824235832596922938e1
_A[9, 7] = -3.32882109689848629194453265587e1
_A[9, 8] = -2.03312017085086261358222928593e-2
_A[10, 0] = -9.3714243008598732571704021658e-1
_A[10, 3] = 5.18637242884406370830023853209
_A[10, 4] = 1.09143734899672957818500254654
_A[10, 5] = -8.14978701074692612513997267357
_A[10, 6] = -1.85200656599969598641566180701e1
_A[10, 7] = 2.27394870993505042818970056734e1
_A[10, 8] = 2.49360555267965238987089396762
_A[10, 9] = -3.0467644718982195003823669022
_A[11, 0] = 2.27331014751653820792359768449
_A[11, 3] = -1.05344954667372501984066689879e1
_A[11, 4] = -2.00087205822486249909675718444
_A[11, 5] = -1.79589318631187989172765950534e1
_A[11, 6] = 2.79488845294199600508499808837e1
_A[11, 7] = -2.85899827713502369474065508674
_A[11, 8] = -8.87285693353062954433549289258
_A[11, 9] = 1.23605671757943030647266201528e1
_A[11, 10] = 6.43392746015763530355970484046e-1

_B = np.array([5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
               4.45031289275240888144113950566,
               1.89151789931450038304281599044,
               -5.8012039600105847814672114227,
               3.1116436695781989440891606237e-1,
               -1.52160949662516078556178806805e-1,
               2.01365400804030348374776537501e-1,
               4.47106157277725905176885569043e-2])

_E3 = np.zeros(13)
_E3[:-1] = _B
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1

_E5 = np.zeros(13)
_E5[0] = 0.1312004499419488073250102996e-1
_E5[5] = -0.1225156446376204440720569753e+1
_E5[6] = -0.4957589496572501915214079952
_E5[7] = 0.1664377182454986536961530415e+1
_E5[8] = -0.3503288487499736816886487290
_E5[9] = 0.3341791187130174790297318841
_E5[10] = 0.8192320648511571246570742613e-1
_E5[11] = -0.2235530786388629525884427845e-1

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / 8


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(amats, deriv, y0, f0, rtol, atol):
    """Hairer's starting step for an error estimate of order 7 on [0, 1]."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, 1.0)
    f1 = deriv(amats(np.array([h0]))[0], y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, 1.0)


def _rk_step(amats, deriv, t, y, f, h, K):
    """One step from (t, y) with f the derivative at t; fills the stages K.

    The matrices A at the eleven nodes of stages 1 to 11 come from one
    `amats` call made before the stages run: the system is linear, so they
    depend only on the step's nodes. Stage 11 has c = 1, so its matrix is
    A(t + h) and also gives the derivative at the new point (FSAL).
    """
    K[0] = f
    a = amats(t + _C[1:] * h)
    for s in range(1, 12):
        dy = np.dot(K[:s].T, _A[s, :s]) * h
        K[s] = deriv(a[s - 1], y + dy)
    y_new = y + h * np.dot(K[:-1].T, _B)
    f_new = deriv(a[10], y_new)
    K[-1] = f_new
    return y_new, f_new


def _error_norm(K, h, scale):
    """Hairer's error norm of a step attempt, and its local error vector.

    The local error is the fifth-order estimate h K^T E5 damped as the norm
    damps it, by ||e5|| / sqrt(||e5||^2 + 0.01 ||e3||^2) on the fifth- and
    third-order estimates e5, e3 divided by the scale.
    """
    local = np.dot(K.T, _E5)
    err5 = local / scale
    err3 = np.dot(K.T, _E3) / scale
    err5_sq = np.linalg.norm(err5) ** 2
    err3_sq = np.linalg.norm(err3) ** 2
    if err5_sq == 0 and err3_sq == 0:
        return 0.0, np.zeros_like(local)
    error = np.abs(h) * err5_sq / np.sqrt((err5_sq + 0.01 * err3_sq)
                                          * len(scale))
    damping = np.sqrt(err5_sq / (err5_sq + 0.01 * err3_sq))
    return error, (h * damping) * local


def dop853(amats, y0, rtol, atol):
    """Y(1) for the linear system Y' = A(t) Y, Y(0) = y0, by DOP853, and
    the sum of the local errors pulled back to the start.

    y0 is an invertible (d, d) array. amats(ts) returns the stack of the
    A(t), shape (len(ts), d, d), for a 1-d array of times; it is called once
    for each of the two evaluations of the initial step and once per step
    attempt. The second value is S, the sum over accepted steps of
    Y_{k+1}^{-1} eps_k, with eps_k the step's local error (see
    `_error_norm`) and Y_{k+1} the frame after it. Y(1) Y_{k+1}^{-1} is the
    flow from t_{k+1} to 1, so Y(1) S is every local error carried to
    t = 1, to first order (Hairer, Norsett, Wanner, II.3); the sums of
    consecutive solves add up the same way.
    Raises TransportError when the step falls below ten float spacings of
    t or stops being a number (a non-finite A).
    """
    y0 = np.asarray(y0)
    if y0.size == 0:
        return y0, np.zeros_like(y0)
    shape = y0.shape

    def deriv(a, y):
        # the step runs on Y flattened; A Y is formed as a matrix product
        return (a @ y.reshape(shape)).ravel()

    y = y0.ravel()
    f = deriv(amats(np.zeros(1))[0], y)
    h_abs = _initial_step(amats, deriv, y, f, rtol, atol)
    K = np.empty((13, y.size), dtype=y.dtype)
    drift = np.zeros(shape, dtype=y.dtype)
    t = 0.0
    while t < 1.0:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            # false for a NaN step too, which would otherwise never shrink
            if not h_abs >= min_step:
                raise TransportError(
                    f"integrator failed at t={t}: step size {h_abs:.3g} "
                    f"is below ten float spacings ({min_step:.3g})")
            t_new = min(t + h_abs, 1.0)
            h = t_new - t
            y_new, f_new = _rk_step(amats, deriv, t, y, f, h, K)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error, local = _error_norm(K, h, scale)
            if error < 1:
                factor = _MAX_FACTOR if error == 0 else min(
                    _MAX_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
                h_abs = h * (min(1, factor) if rejected else factor)
                break
            h_abs = h * max(_MIN_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
            rejected = True
        drift += np.linalg.solve(y_new.reshape(shape), local.reshape(shape))
        t, y, f = t_new, y_new, f_new
    return y.reshape(shape), drift


# Pade degrees m with the largest 1-norm theta_m at which the [m/m]
# approximant alone meets double precision (Higham 2005, Table 2.3), and
# the coefficients b_0..b_m of each approximant
_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
          (7, 9.504178996162932e-1), (9, 2.097847961257068e0))
_THETA_13 = 5.371920351148152e0
_PADE = {
    3: (120., 60., 12., 1.),
    5: (30240., 15120., 3360., 420., 30., 1.),
    7: (17297280., 8648640., 1995840., 277200., 25200., 1512., 56., 1.),
    9: (17643225600., 8821612800., 2075673600., 302702400., 30270240.,
        2162160., 110880., 3960., 90., 1.),
    13: (64764752532480000., 32382376266240000., 7771770303897600.,
         1187353796428800., 129060195264000., 10559470521600.,
         670442572800., 33522128640., 1323241920., 40840800., 960960.,
         16380., 182., 1.),
}


def _pade_low(a, ident, b):
    """[m/m] Pade approximant of exp for m <= 9, from the even powers."""
    evens = [ident, a @ a]
    while len(evens) < (len(b) + 1) // 2:
        evens.append(evens[-1] @ evens[1])
    u = a @ sum(b[2 * j + 1] * p for j, p in enumerate(evens))
    v = sum(b[2 * j] * p for j, p in enumerate(evens))
    return np.linalg.solve(v - u, v + u)


def _pade_13(a, ident):
    b = _PADE[13]
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    return np.linalg.solve(v - u, v + u)


def expm(a):
    """exp(a) for a square matrix or each matrix of a stack (..., d, d)."""
    a = np.asarray(a)
    norm = float(np.abs(a).sum(axis=-2).max(initial=0.0))
    if not math.isfinite(norm):
        raise TransportError(
            "integrator failed: matrix exponential of a non-finite matrix")
    ident = np.eye(a.shape[-1], dtype=a.dtype)
    for m, theta in _THETA:
        if norm <= theta:
            return _pade_low(a, ident, _PADE[m])
    squarings = max(0, math.ceil(math.log2(norm / _THETA_13)))
    r = _pade_13(a / 2.0 ** squarings, ident)
    for _ in range(squarings):
        r = r @ r
    return r


def spectral_bound(a):
    """An upper bound on the spectral radius of each matrix of a stack
    (..., d, d) with real eigenvalues, within a factor d^(1/256) of it.

    With m = 2^8 = 256, tr(a^m) is the sum of lambda^m over the
    eigenvalues, each nonnegative for even m, so rho^m <= tr(a^m) <=
    d rho^m. a^m comes from repeated squaring, each square taken of the
    matrix divided by its largest |entry|, whose logarithm is carried
    apart, so nothing overflows.
    """
    a = np.asarray(a, dtype=float)
    log_scale = np.zeros(a.shape[:-2])
    for _ in range(8):
        top = np.abs(a).max(axis=(-2, -1), initial=0.0)
        top = np.where(top > 0, top, 1.0)
        log_scale = 2 * (log_scale + np.log(top))
        a = a / top[..., None, None]
        a = a @ a
    with np.errstate(divide="ignore"):
        return np.exp((np.log(np.trace(a, axis1=-2, axis2=-1)) + log_scale)
                      / 256)
