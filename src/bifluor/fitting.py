"""Damped Gauss-Newton least squares.

Small hand-rolled optimizer used by the spectrum fits.  The residual is
evaluated on a stack of parameter vectors: ``residual_fn(P)`` takes an
(m, k) array, one parameter vector per row, and returns the (m, n)
residuals, one row per member.  A trial step is a stack of one; each
Jacobian is one call on the (2k, k) stack of central-difference points
p +- h_i e_i with h_i = max(1e-6 |p_i|, 1e-8 scale_i), so a model that
evaluates its stack at once pays its fixed cost once per Jacobian.

Levenberg damping with Marquardt scaling: the normal equations are
solved as (J^T J + lam * diag(J^T J)) step = -J^T r, the damping is
multiplied by 10 whenever a step increases the residual or gives a
non-finite one (and the step is rejected) and by 0.1 whenever it
decreases (step accepted).  Iteration stops when the relative change
of the squared residual drops below ``rel_tol`` or the step norm below
``step_tol``; running out of iterations, or 60 rejected steps in a
row, raises FitFailure carrying the last iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitFailure

__all__ = ["GaussNewtonResult", "gauss_newton"]


@dataclass
class GaussNewtonResult:
    params: np.ndarray
    residual: np.ndarray
    jacobian: np.ndarray
    cost: float
    n_iter: int
    converged: bool


def _jacobian(residual_fn, p, scale):
    h = np.maximum(1e-6 * np.abs(p), 1e-8 * scale)
    shifts = np.diag(h)
    r = residual_fn(np.concatenate([p + shifts, p - shifts]))
    return ((r[: p.size] - r[p.size :]) / (2.0 * h[:, None])).T


def gauss_newton(
    residual_fn,
    p0,
    max_iter: int = 200,
    damping: float = 1e-3,
    rel_tol: float = 1e-10,
    step_tol: float = 1e-12,
) -> GaussNewtonResult:
    """Minimize ||residual_fn(p[None])[0]||^2 starting from p0."""
    p = np.asarray(p0, dtype=float).copy()
    scale = np.maximum(np.abs(p), 1.0)
    r = residual_fn(p[None])[0]
    cost = float(r @ r)
    lam = damping
    J = _jacobian(residual_fn, p, scale)
    for it in range(1, max_iter + 1):
        A = J.T @ J
        g = J.T @ r
        D = np.diag(np.maximum(np.diag(A), 1e-14))
        accepted = False
        for _ in range(60):
            try:
                step = np.linalg.solve(A + lam * D, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            r_new = residual_fn((p + step)[None])[0]
            cost_new = float(r_new @ r_new)
            if np.isfinite(cost_new) and (cost_new <= cost or lam > 1e14):
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            last = GaussNewtonResult(p, r, J, cost, it, False)
            raise FitFailure(
                f"no acceptable step at iteration {it} (cost {cost:.3e})", result=last
            )
        p = p + step
        rel_drop = abs(cost - cost_new) / max(cost, 1e-300)
        cost = cost_new
        r = r_new
        lam = max(lam * 0.1, 1e-14)
        J = _jacobian(residual_fn, p, scale)
        if rel_drop < rel_tol or float(np.linalg.norm(step)) < step_tol:
            return GaussNewtonResult(p, r, J, cost, it, True)
    last = GaussNewtonResult(p, r, J, cost, max_iter, False)
    raise FitFailure(
        f"no convergence after {max_iter} iterations (cost {cost:.3e})", result=last
    )
