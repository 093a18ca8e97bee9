"""Monochromatic Bloch dynamics, Mollow spectra, and the triplet fit."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from oracles import brute_mollow_spectrum, window_weight
from bifluor.bloch import (
    _drift_stack,
    _mean_spectrum,
    _resolvent,
    build_bloch,
    fit_mollow,
    mollow_shape,
    mollow_spectrum,
    steady_state,
)
from bifluor.emitter import TWO_PI, DriveField, EmitterParams
from bifluor.errors import CoverageError, ValidationError


def saturation_population(emitter, rabi):
    om = TWO_PI * rabi
    s = 4.0 * om * om * emitter.t1_ns * emitter.t2_ns
    return 0.5 * s / (1.0 + s)


def test_steady_state_resonant_closed_form(emitter):
    for rabi in (0.2, 1.0, 2.9):
        system = build_bloch(emitter, DriveField(detuning=0.0, rabi=rabi))
        u, v, w = steady_state(system)
        assert u == pytest.approx(0.0, abs=1e-14)
        assert 0.5 * (1.0 + w) == pytest.approx(
            saturation_population(emitter, rabi), rel=1e-12
        )


def test_steady_state_detuned_closed_form(emitter):
    om = TWO_PI * 2.0
    d1 = TWO_PI * 1.5
    system = build_bloch(emitter, DriveField(detuning=1.5, rabi=2.0))
    u, v, w = steady_state(system)
    t1, t2 = emitter.t1_ns, emitter.t2_ns
    denom = 1.0 + (d1 * t2) ** 2 + 4.0 * om * om * t1 * t2
    assert w == pytest.approx(-(1.0 + (d1 * t2) ** 2) / denom, rel=1e-12)


def test_spectrum_normalization_sum_rule(emitter):
    drive = DriveField(detuning=0.0, rabi=2.9)
    grid = np.linspace(-40.0, 40.0, 4001)
    spec = mollow_spectrum(emitter, drive, grid)
    total = simpson(spec.intensity, x=grid) + spec.elastic_weight
    system = build_bloch(emitter, drive)
    rho_ee = 0.5 * (1.0 + steady_state(system)[2])
    assert total == pytest.approx(rho_ee, rel=5e-3)


def test_elastic_weight_is_squared_coherence(emitter):
    drive = DriveField(detuning=0.0, rabi=1.2)
    system = build_bloch(emitter, drive)
    u, v, _ = steady_state(system)
    spec = mollow_spectrum(emitter, drive, np.linspace(-10, 10, 501))
    assert spec.elastic_weight == pytest.approx((u * u + v * v) / 4.0, rel=1e-12)
    assert spec.elastic_lines == ((0.0, spec.elastic_weight),)


def test_sidebands_at_twice_the_half_rabi(emitter):
    grid = np.round(np.arange(-450, 451) * 0.02, 2)
    spec = mollow_spectrum(emitter, DriveField(detuning=0.0, rabi=2.9), grid)
    upper = grid > 1.0
    lower = grid < -1.0
    pk_hi = grid[upper][np.argmax(spec.intensity[upper])]
    pk_lo = grid[lower][np.argmax(spec.intensity[lower])]
    assert pk_hi == pytest.approx(5.8, abs=0.1)
    assert -pk_lo == pytest.approx(5.8, abs=0.1)


def test_central_to_sideband_area_ratio_radiative_limit():
    # with no pure dephasing the central peak carries twice the area of
    # each sideband in the strong-driving limit
    em = EmitterParams(t1=390.0, t2=780.0)
    grid = np.round(np.arange(-900, 901) * 0.01, 2)
    spec = mollow_spectrum(em, DriveField(detuning=0.0, rabi=2.9), grid)
    central = simpson(spec.intensity[np.abs(grid) <= 2.9], x=grid[np.abs(grid) <= 2.9])
    side = simpson(spec.intensity[grid > 2.9], x=grid[grid > 2.9])
    assert central / side == pytest.approx(2.0, abs=0.15)


def test_spectrum_matches_time_propagation_oracle(emitter):
    grid = np.linspace(-9.0, 9.0, 361)
    spec = mollow_spectrum(emitter, DriveField(detuning=0.0, rabi=2.9), grid)
    _, ref = brute_mollow_spectrum(390.0, 424.0, 2.9, 0.0, grid)
    rel = np.linalg.norm(spec.intensity - ref) / np.linalg.norm(ref)
    assert rel < 1e-8


def test_central_window_weight_pinned(emitter, fine_grid):
    # frozen from the time-propagation oracle (tau_max and step converged)
    spec = mollow_spectrum(emitter, DriveField(detuning=0.0, rabi=2.9), fine_grid)
    win = np.abs(fine_grid) <= 0.5 + 1e-12
    weight = window_weight(fine_grid[win], spec.intensity[win])
    assert weight == pytest.approx(0.148753930605, rel=1e-6)


def test_grid_must_cover_the_triplet(emitter):
    with pytest.raises(CoverageError):
        mollow_spectrum(emitter, DriveField(detuning=0.0, rabi=2.9), np.linspace(-3, 3, 61))


def test_mollow_shape_matches_spectrum_on_shared_grid(emitter):
    drive = DriveField(detuning=0.7, rabi=2.0)
    grid = np.linspace(-8, 9, 341)
    spec = mollow_spectrum(emitter, drive, grid)
    shape = mollow_shape(emitter, drive, grid)
    assert np.allclose(spec.intensity, shape, rtol=1e-12, atol=0.0)


def test_fit_recovers_parameters_from_noisy_data(emitter):
    grid = np.linspace(-9.0, 9.0, 901)
    spec = mollow_spectrum(emitter, DriveField(detuning=0.0, rabi=2.9), grid)
    rng = np.random.default_rng(0)
    noisy = spec.intensity + 0.01 * spec.intensity.max() * rng.standard_normal(grid.size)
    fit = fit_mollow(grid, noisy, guess=(2.5, 380.0, float(noisy.max()), 0.0), t1_ps=390.0)
    assert fit.converged
    assert fit.rabi2 == pytest.approx(5.8, abs=0.02)
    assert fit.t2_ps == pytest.approx(424.0, rel=0.02)
    assert fit.std_errors.shape == (4,)


def test_fit_on_a_lower_clamp_is_not_converged():
    # from this guess the search collapses onto the clamps half Rabi 0 and
    # t2 1e-3 ps, where the model no longer depends on either parameter
    em = EmitterParams(t1=390.0, t2=424.0)
    freq = np.linspace(-14.0, 14.0, 701)
    data = 3.0 * mollow_shape(em, DriveField(detuning=-1.0, rabi=1.0), freq) + 0.1
    guess = (1.3, 500.0, float(data.max()), 0.0)
    fit = fit_mollow(freq, data, guess=guess, t1_ps=390.0, detuning=-1.0)
    assert fit.omega == 0.0 and fit.t2_ps == 1e-3
    assert fit.converged is False


def test_radiatively_limited_fit_is_converged():
    # t2 = 2 t1 sits on the upper clamp, which is physics, not a failure
    em = EmitterParams(t1=390.0, t2=780.0)
    freq = np.linspace(-14.0, 14.0, 701)
    data = 2.0 * mollow_shape(em, DriveField(detuning=0.0, rabi=2.9), freq)
    fit = fit_mollow(freq, data, guess=(2.5, 700.0, float(data.max()), 0.0), t1_ps=390.0)
    assert fit.converged is True
    assert fit.rabi2 == pytest.approx(5.8, rel=1e-6)
    assert fit.t2_ps == pytest.approx(780.0, rel=1e-6)


def test_fit_validates_input_shapes():
    with pytest.raises(ValidationError):
        fit_mollow(np.arange(8.0), np.arange(8.0), guess=(1, 400, 1, 0), t1_ps=390.0)
    with pytest.raises(ValidationError):
        fit_mollow(np.arange(20.0), np.arange(19.0), guess=(1, 400, 1, 0), t1_ps=390.0)


def test_fit_rejects_non_finite_samples():
    freq = np.linspace(-9.0, 9.0, 40)
    data = np.ones(40)
    data[[7, 12]] = np.nan
    with pytest.raises(ValidationError, match="sample 7 "):
        fit_mollow(freq, data, guess=(1, 400, 1, 0), t1_ps=390.0)
    freq[3] = np.inf
    with pytest.raises(ValidationError, match="sample 3 "):
        fit_mollow(freq, data, guess=(1, 400, 1, 0), t1_ps=390.0)
    with pytest.raises(ValidationError, match="guess must be finite"):
        fit_mollow(np.arange(20.0), np.ones(20), guess=(np.nan, 400, 1, 0), t1_ps=390.0)


class _Captured(Exception):
    pass


def fit_residual(freq, data, t1_ps, detuning):
    """The stacked residual that fit_mollow hands to gauss_newton."""
    seen = []

    def capture(residual_fn, p0, **kwargs):
        seen.append(residual_fn)
        raise _Captured

    with mock.patch("bifluor.bloch.gauss_newton", capture), pytest.raises(_Captured):
        fit_mollow(freq, data, guess=(1.0, 1.0, 1.0, 0.0), t1_ps=t1_ps, detuning=detuning)
    return seen[0]


@settings(max_examples=50, deadline=None)
@given(
    st.floats(200.0, 1000.0),  # T1, ps
    st.floats(-3.0, 3.0),  # detuning, GHz
    st.lists(
        st.tuples(
            st.floats(-1.0, 5.0),  # half Rabi, GHz (clamped at 0)
            st.floats(0.0, 1.3),  # T2 / (2 T1) (clamped into [1e-3 ps, 2 T1])
            st.floats(0.5, 2.0),  # amplitude
            st.floats(-0.1, 0.1),  # offset
        ),
        min_size=1,
        max_size=8,
    ),
)
@example(390.0, 0.0, [(0.0, 1.0, 1.0, 0.0), (2.9, 424.0 / 780.0, 1.0, 0.0)])
def test_stacked_fit_residual_matches_per_member_shapes(t1, detuning, members):
    grid = np.linspace(detuning - 15.0, detuning + 15.0, 241)
    data = 0.01 * np.cos(grid)
    residual = fit_residual(grid, data, t1, detuning)
    P = np.array([(rabi, ratio * 2.0 * t1, amp, off) for rabi, ratio, amp, off in members])
    got = residual(P)
    assert got.shape == (len(members), grid.size)
    rabis = np.maximum(P[:, 0], 0.0)
    t2s = np.clip(P[:, 1], 1e-3, 2.0 * t1)
    drift, _ = _drift_stack(t1 / 1000.0, t2s / 1000.0, detuning, rabis)
    for i, (rabi, t2, (amp, off)) in enumerate(zip(rabis, t2s, P[:, 2:])):
        em, drive = EmitterParams(t1=t1, t2=t2), DriveField(detuning=detuning, rabi=rabi)
        assert np.array_equal(drift[i], build_bloch(em, drive).drift)
        shape = amp * mollow_shape(em, drive, grid)
        assert np.max(np.abs(got[i] - (shape + off - data))) <= 1e-12 * np.max(np.abs(shape))


def direct_spectrum(emitter, drive, grid):
    """2 Re c.(i nu - A)^-1 y0 by one linear solve per grid frequency."""
    system = build_bloch(emitter, drive)
    u, v, w = steady_state(system)
    rho_ee, sig = 0.5 * (1.0 + w), 0.5 * (u + 1j * v)
    y0 = np.array([rho_ee, 1j * rho_ee, -sig]) - np.array([u, v, w]) * sig
    nu = TWO_PI * (grid - drive.detuning)
    y = np.linalg.solve(1j * nu[:, None, None] * np.eye(3) - system.drift, y0)
    return np.real(y[:, 0] - 1j * y[:, 1])


stack_draws = (
    st.floats(200.0, 1000.0),  # T1, ps
    st.floats(0.3, 1.0),  # T2 / (2 T1)
    st.floats(-3.0, 3.0),  # detuning, GHz
    st.lists(st.floats(0.05, 5.0), min_size=1, max_size=6),  # half Rabis, GHz
)


@settings(max_examples=50, deadline=None)
@given(*stack_draws)
def test_resolvent_leading_coefficient_sums_to_the_excited_population(
    t1, t2_ratio, detuning, rabis
):
    # lim z R(z) = C(0) - |<sigma->|^2: the z^2 numerator coefficient plus
    # the elastic weight is rho_ee for every member of the stack, and the
    # cubic is Hurwitz-stable, so the incoherent correlation decays
    em = EmitterParams(t1=t1, t2=t2_ratio * 2.0 * t1)
    (c2, c1, c0), num, elastic = _resolvent(em.t1_ns, em.t2_ns, detuning, rabis)
    assert num.shape == (3, len(rabis))
    assert np.all(c2 > 0.0) and np.all(c0 > 0.0) and np.all(c2 * c1 > c0)
    for i, rabi in enumerate(rabis):
        system = build_bloch(em, DriveField(detuning=detuning, rabi=rabi))
        u, v, w = steady_state(system)
        rho_ee = 0.5 * (1.0 + w)
        total = num[0, i] + elastic[i]
        assert total.real == pytest.approx(rho_ee, rel=1e-10)
        assert abs(total.imag) <= 1e-10 * rho_ee
        assert elastic[i] == pytest.approx((u * u + v * v) / 4.0, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(*stack_draws)
# exceptional point of the resonant drift matrix, half Rabi |1/T2 - 1/T1| / (8 pi)
# for T1 = 390 ps, T2 = 424 ps: the eigenvector basis is defective there
@example(390.0, 424.0 / 780.0, 0.0, [0.008181041462754626])
def test_spectrum_matches_direct_solves(t1, t2_ratio, detuning, rabis):
    em = EmitterParams(t1=t1, t2=t2_ratio * 2.0 * t1)
    span = 2.0 * max(rabis) + 5.0 / (TWO_PI * em.t2_ns)
    grid = detuning + np.linspace(-1.5 * span, 1.5 * span, 301)
    direct = [direct_spectrum(em, DriveField(detuning, rabi), grid) for rabi in rabis]
    for rabi, ref in zip(rabis, direct):
        spec = mollow_spectrum(em, DriveField(detuning=detuning, rabi=rabi), grid)
        assert np.max(np.abs(spec.intensity - ref)) <= 1e-12 * np.max(ref)
    mean = np.mean(direct, axis=0)
    stack = _mean_spectrum(em, detuning, rabis, grid)
    assert np.max(np.abs(stack.intensity - mean)) <= 1e-12 * np.max(mean)
