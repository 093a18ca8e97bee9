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
    # the start and every trial point are one call each: the point in row 0,
    # then its central-difference stencil, which is the next Jacobian when
    # the step is accepted
    _, _, residual = linear_problem()
    stacks = []

    def spy(P):
        stacks.append(P.copy())
        return residual(P)

    result = gauss_newton(spy, np.zeros(3))
    assert all(P.shape == (7, 3) for P in stacks)
    assert np.array_equal(stacks[0][0], np.zeros(3))
    assert np.array_equal(stacks[-1][0], result.params)
    for P in stacks:
        assert np.allclose(P[1:4] + P[4:], 2.0 * P[0], rtol=0.0, atol=1e-12)
        assert np.all(np.diag(P[1:4] - P[0]) > 0.0)
    # the linear problem accepts every trial, so one call per iteration
    assert len(stacks) == 1 + result.n_iter


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
    # finite everywhere at the start, NaN in row 0 (the trial point) of every
    # later call: no step is ever accepted, so the fit gives up in its first
    # iteration
    calls = []

    def residual(P):
        assert P.shape == (5, 2)
        r = rosenbrock(P)
        if calls:
            r[0] = np.nan
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
    assert len(calls) == 1 + 60  # the start, then 60 rejected trials


def layouts(residual_fn, order):
    """residual_fn with its stack copied into C or Fortran order, values unchanged."""
    return lambda P: np.asarray(residual_fn(P), order=order)


@pytest.mark.parametrize(
    "problem, start",
    [(linear_problem()[2], np.zeros(3)), (rosenbrock, np.array([-1.2, 1.0]))],
    ids=["linear", "rosenbrock"],
)
def test_result_bits_do_not_depend_on_the_stack_layout(problem, start):
    # BLAS rounds J^T J and r.r differently for C- and F-ordered or strided
    # operands; gauss_newton makes both contiguous first
    c = gauss_newton(layouts(problem, "C"), start)
    f = gauss_newton(layouts(problem, "F"), start)
    assert np.array_equal(c.params, f.params)
    assert np.array_equal(c.jacobian, f.jacobian)
    assert np.array_equal(c.residual, f.residual)
    assert c.cost == f.cost and c.n_iter == f.n_iter
