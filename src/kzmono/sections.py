"""Polynomial model of the degree-m line bundle sections over the
projective line with its sl2 action, and the intertwiner onto the abstract
highest-weight module of the same dimension.

Derivation of the action matrices (kept explicit so the check is auditable).
Global sections of the degree-m bundle are homogeneous polynomials
F(x0, x1) of degree m, with the group acting by (g.F)(x) = F(g^{-1} x).
In the affine chart s(w) = F(1, w) a group element with inverse
[[a, b], [c, d]] acts as

    (g.s)(w) = (a + b w)^m s((c + d w)/(a + b w)).

Differentiating the one-parameter flows of the standard sl2 basis at t = 0:

  e = [[0,1],[0,0]]:  exp(-te) = [[1,-t],[0,1]],  (g_t.s)(w) = (1 - t w)^m
      s(w/(1 - t w)),  so  e.s = (w^2 d/dw - m w) s
  f = [[0,0],[1,0]]:  exp(-tf) = [[1,0],[-t,1]],  (g_t.s)(w) = s(w - t),
      so  f.s = -(d/dw) s
  h = [[1,0],[0,-1]]: exp(-th) = diag(e^{-t}, e^t),  (g_t.s)(w) =
      e^{-mt} s(e^{2t} w),  so  h.s = (2 w d/dw - m) s

On the monomial basis 1, w, ..., w^m this gives e(w^j) = (j - m) w^{j+1},
f(w^j) = -j w^{j-1}, h(w^j) = (2j - m) w^j: an irreducible module with
highest weight m (highest vector w^m), as it must be. The intertwiner with
the abstract module is found by solving the linear system T X_model =
X_abstract T for all three generators; Schur's lemma makes the solution
space exactly one dimensional.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .algebra import build_algebra
from .errors import NoIntertwinerError, require_int
from .exact import SRMatrix, nullspace
from .reps import _simple, dense, irrep


class SectionSpace:
    """Monomial-basis action matrices (int64) on degree <= m polynomials."""

    def __init__(self, m):
        self.m = m = require_int(m, "degree", 0)
        self.dim = m + 1
        j = np.arange(self.dim)
        self.e = np.diag(j[:-1] - m, -1)      # e(w^j) = (j - m) w^(j+1)
        self.f = np.diag(-j[1:], 1)           # f(w^j) = -j w^(j-1)
        self.h = np.diag(2 * j - m)

    def casimir(self):
        """e f + f e + h^2/2 under the theta-normalised form, in Fractions."""
        twice = 2 * (self.e @ self.f + self.f @ self.e) + self.h @ self.h
        return twice.astype(object) * Fraction(1, 2)

    def __repr__(self):
        return f"SectionSpace(m={self.m}, dim={self.dim})"


def intertwiner(ss, rep):
    """Invertible T with T (model action) = (abstract action) T.

    Solves the stacked linear system over the rationals; raises unless the
    solution space is exactly one dimensional with invertible T.
    """
    if rep.dim != ss.dim:
        raise NoIntertwinerError(
            f"dimension mismatch: sections {ss.dim}, module {rep.dim}")
    d = ss.dim
    eye = np.eye(d, dtype=np.int64)
    # the module's integers: X_abs = N / D for e and f, the weights for h
    (e, de), (f, df) = _simple(rep.e_int[0]), _simple(rep.f_int[0])
    h = np.diag([w for (w,) in rep.basis_weights])
    # T flattened row-major: D (X_abs T - T X_mod) = 0 reads
    # (N (x) I - D I (x) X_mod^T) vec(T) = 0, stacked over e, f, h
    basis = nullspace(SRMatrix.from_rows(np.concatenate([
        np.kron(n_abs, eye) - den * np.kron(eye, x_mod.T)
        for x_mod, n_abs, den in [(ss.e, dense(d, *e), de),
                                  (ss.f, dense(d, *f), df),
                                  (ss.h, h, 1)]]).tolist()))
    if basis.ncols != 1:
        raise NoIntertwinerError(
            f"intertwiner space has dimension {basis.ncols}, expected 1")
    t_rows = [[basis.get(r * d + c, 0) for c in range(d)] for r in range(d)]
    if nullspace(SRMatrix.from_rows(t_rows, d)).ncols:
        raise NoIntertwinerError("intertwiner is singular")
    return t_rows


def verify_bbw(max_degree=6):
    """Run the full rank-1 check; returns the list of verified degrees."""
    a1 = build_algebra("A", 1)
    verified = []
    for m in range(max_degree + 1):
        ss = SectionSpace(m)
        rep = irrep(a1, (m,))
        intertwiner(ss, rep)
        verified.append(m)
    return verified
