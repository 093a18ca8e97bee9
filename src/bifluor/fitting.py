"""Damped Gauss-Newton least squares.

Small hand-rolled optimizer used by the spectrum fits.  ``residual_fn(P)``
takes an (m, k) stack of parameter vectors and returns the (m, n)
residuals, one row per member.  Each call is a (2k + 1, k) stack: a
point p in row 0, then p +- h_i e_i with h_i = max(1e-6 |p_i|, 1e-8
scale_i).  The start and each trial step are one call, and an accepted
step's stencil is the next Jacobian.  r and J are made contiguous (J
C-ordered) before any product, so no bit depends on the stack's layout.

Levenberg damping with Marquardt scaling: the normal equations are
solved as (J^T J + lam * diag(J^T J)) step = -J^T r, with lam starting
at _DAMPING; lam is multiplied by 10 whenever a step increases the
residual or gives a non-finite one (and the step is rejected) and by
0.1 whenever it decreases (step accepted).  Iteration stops when the
relative change of the squared residual drops below _REL_TOL or the
step norm below _STEP_TOL; running out of iterations (_MAX_ITER), or
60 rejected steps in a row, raises FitFailure carrying the last iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitFailure

__all__ = ["GaussNewtonResult", "gauss_newton"]

_DAMPING = 1e-3  # initial Levenberg damping
_REL_TOL = 1e-10  # relative cost change that ends the iteration
_STEP_TOL = 1e-12  # step norm that ends the iteration
_MAX_ITER = 200  # iterations before FitFailure


@dataclass
class GaussNewtonResult:
    params: np.ndarray
    residual: np.ndarray
    jacobian: np.ndarray
    cost: float
    n_iter: int
    converged: bool


def _evaluate(residual_fn, p, scale):
    """Residual and central-difference Jacobian at p from one call on its stencil."""
    h = np.maximum(1e-6 * np.abs(p), 1e-8 * scale)
    shifts = np.diag(h)
    r = residual_fn(np.concatenate([p[None], p + shifts, p - shifts]))
    jac = (r[1 : p.size + 1] - r[p.size + 1 :]) / (2.0 * h[:, None])
    return np.ascontiguousarray(r[0]), np.ascontiguousarray(jac.T)


def gauss_newton(residual_fn, p0) -> GaussNewtonResult:
    """Minimize ||residual_fn(p[None])[0]||^2 from p0 in at most _MAX_ITER = 200 iterations."""
    p = np.asarray(p0, dtype=float).copy()
    scale = np.maximum(np.abs(p), 1.0)
    r, J = _evaluate(residual_fn, p, scale)
    cost = float(r @ r)
    lam = _DAMPING
    for it in range(1, _MAX_ITER + 1):
        A = J.T @ J
        g = J.T @ r
        D = np.diag(np.maximum(np.diag(A), 1e-14))
        for _ in range(60):
            try:
                step = np.linalg.solve(A + lam * D, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            r_new, J_new = _evaluate(residual_fn, p + step, scale)
            cost_new = float(r_new @ r_new)
            if np.isfinite(cost_new) and (cost_new <= cost or lam > 1e14):
                break
            lam *= 10.0
        else:
            last = GaussNewtonResult(p, r, J, cost, it, False)
            raise FitFailure(
                f"no acceptable step at iteration {it} (cost {cost:.3e})", result=last
            )
        rel_drop = abs(cost - cost_new) / max(cost, 1e-300)
        p, r, J, cost = p + step, r_new, J_new, cost_new
        lam = max(lam * 0.1, 1e-14)
        if rel_drop < _REL_TOL or float(np.linalg.norm(step)) < _STEP_TOL:
            return GaussNewtonResult(p, r, J, cost, it, True)
    last = GaussNewtonResult(p, r, J, cost, _MAX_ITER, False)
    raise FitFailure(
        f"no convergence after {_MAX_ITER} iterations (cost {cost:.3e})", result=last
    )
