"""The former step-by-step Taylor route of the arc solver, as a test-only
reference.

`kzmono.monodromy._taylor_frame` chooses between two routes by a cost
rule (`_stacked`): one recurrence for all steps of the arc, on a stack of
identities ordered by term count, whose step maps then carry the frame in
step order; or one step at a time through the same routine on the frame
itself. `step_by_step` is the route both replaced: each step runs its own
recurrence on the frame itself, keeps all its terms and sums them at the
end.
"""

import numpy as np


def step_by_step(res, poles, us, counts, x):
    """The frame x carried along the arc u_0, ..., u_K by the Taylor series
    of dX/du = sum_p S_p/(u - p) X, and the Frobenius norm of each step's
    starting frame: the arguments and results of `_taylor_frame`.

    With w_p = 1/(p - u_k), (n+1) X_{n+1} = -sum_p S_p Z_{p,n} and
    Z_{p,n} = w_p (X_n + Z_{p,n-1}); the terms are scaled by h^n,
    h = u_{k+1} - u_k, so the frame at u_{k+1} is their sum.
    """
    npole = len(poles)
    d, b = x.shape
    flat = np.ascontiguousarray(res.transpose(1, 0, 2).reshape(d, npole * d))
    z = np.empty((npole, d, b), dtype=complex)
    zf = z.view(float).reshape(npole * d, 2 * b)
    norms = []
    for k, count in enumerate(counts.tolist()):
        norms.append(np.linalg.norm(x))
        scale = ((us[k + 1] - us[k]) / (poles - us[k]))[:, None, None]
        terms = np.empty((count, d, b), dtype=complex)
        terms[0] = x
        z.fill(0)
        prev = terms[0]
        for m, term, out in zip(range(1, count), terms[1:],
                                terms[1:].view(float)):
            z += prev
            z *= scale
            np.matmul(flat, zf, out=out)
            term *= -1.0 / m
            prev = term
        x = terms.sum(axis=0)
    return x, np.array(norms)
