"""Damped Gauss-Newton on stacked residuals."""

import numpy as np
import pytest

from bifluor import fitting
from bifluor.errors import FitFailure
from bifluor.fitting import gauss_newton


def linear_problem():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((30, 3))
    b = rng.standard_normal(30)
    return a, b, lambda P: P @ a.T - b


def test_linear_least_squares_reaches_the_normal_equation_solution():
    a, b, residual = linear_problem()
    result = gauss_newton(residual, np.zeros(3))
    exact = np.linalg.solve(a.T @ a, a.T @ b)
    assert result.converged
    assert np.allclose(result.params, exact, rtol=1e-6, atol=1e-9)
    assert np.allclose(result.jacobian, a, rtol=1e-6)
    assert result.cost == pytest.approx(float(np.sum((a @ exact - b) ** 2)), rel=1e-10)


def test_one_stacked_residual_call_per_jacobian():
    _, _, residual = linear_problem()
    shapes = []

    def spy(P):
        shapes.append(P.shape)
        return residual(P)

    result = gauss_newton(spy, np.zeros(3))
    # one Jacobian at the start and one after every accepted step; the
    # other calls are single trial points (the start is one of them)
    assert shapes.count((6, 3)) == result.n_iter + 1
    assert shapes.count((1, 3)) + shapes.count((6, 3)) == len(shapes)
    assert shapes.count((1, 3)) >= result.n_iter + 1


def rosenbrock(P):
    x, y = P[:, 0:1], P[:, 1:2]
    return np.hstack([1.0 - x, 10.0 * (y - x * x)])


def test_running_out_of_iterations_carries_the_last_iterate(monkeypatch):
    monkeypatch.setattr(fitting, "_MAX_ITER", 2)
    with pytest.raises(FitFailure, match="after 2 iterations") as info:
        gauss_newton(rosenbrock, np.array([-1.2, 1.0]))
    last = info.value.result
    assert last.n_iter == 2 and not last.converged
    assert np.all(np.isfinite(last.params))
    assert np.array_equal(last.residual, rosenbrock(last.params[None])[0])
    assert last.cost == pytest.approx(float(last.residual @ last.residual), rel=1e-15)


def test_non_finite_trial_steps_are_rejected(monkeypatch):
    # finite at the start and on every Jacobian stack, NaN at every later trial
    # point: no step is ever accepted, so the fit gives up in its first iteration
    calls = []

    def residual(P):
        r = rosenbrock(P)
        if P.shape[0] == 1 and calls:
            r = np.full_like(r, np.nan)
        calls.append(P.shape)
        return r

    start = np.array([-1.2, 1.0])
    monkeypatch.setattr(fitting, "_MAX_ITER", 50)
    with pytest.raises(FitFailure, match="iteration 1") as info:
        gauss_newton(residual, start)
    last = info.value.result
    assert last.n_iter == 1 and not last.converged
    assert np.array_equal(last.params, start)
    assert np.isfinite(last.cost)
