"""Monochromatic Bloch dynamics, Mollow spectra, and the triplet fit."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from oracles import brute_mollow_spectrum, window_weight
from bifluor.bloch import (
    Spectrum,
    _drift_stack,
    _mean_spectrum,
    _resolvent,
    fit_mollow,
    mollow_shape,
    mollow_spectrum,
    steady_state,
)
from bifluor.emitter import TWO_PI, DriveField, EmitterParams
from bifluor.errors import CoverageError, SingularSystemError, ValidationError
from bifluor.fitting import GaussNewtonResult


def saturation_population(emitter, rabi):
    om = TWO_PI * rabi
    s = 4.0 * om * om * emitter.t1_ns * emitter.t2_ns
    return 0.5 * s / (1.0 + s)


def test_steady_state_resonant_closed_form(emitter):
    for rabi in (0.2, 1.0, 2.9):
        u, v, w = steady_state(emitter, DriveField(detuning=0.0, rabi=rabi))
        assert u == pytest.approx(0.0, abs=1e-14)
        assert 0.5 * (1.0 + w) == pytest.approx(
            saturation_population(emitter, rabi), rel=1e-12
        )


def test_steady_state_detuned_closed_form(emitter):
    om = TWO_PI * 2.0
    d1 = TWO_PI * 1.5
    u, v, w = steady_state(emitter, DriveField(detuning=1.5, rabi=2.0))
    t1, t2 = emitter.t1_ns, emitter.t2_ns
    denom = 1.0 + (d1 * t2) ** 2 + 4.0 * om * om * t1 * t2
    assert w == pytest.approx(-(1.0 + (d1 * t2) ** 2) / denom, rel=1e-12)


def test_spectrum_normalization_sum_rule(emitter):
    drive = DriveField(detuning=0.0, rabi=2.9)
    grid = np.linspace(-40.0, 40.0, 4001)
    spec = mollow_spectrum(emitter, drive, grid)
    total = simpson(spec.intensity, x=grid) + spec.elastic_weight
    rho_ee = 0.5 * (1.0 + steady_state(emitter, drive)[2])
    assert total == pytest.approx(rho_ee, rel=5e-3)


def test_elastic_weight_is_squared_coherence(emitter):
    drive = DriveField(detuning=0.0, rabi=1.2)
    u, v, _ = steady_state(emitter, drive)
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


def test_grid_must_cover_the_detuned_sidebands(emitter):
    # sidebands at 10 +- hypot(5.8, 10) = -1.56 and 21.56 GHz: the 2 Omega
    # rule would accept [2.3, 17.7], where the spectrum captures 0.064 of
    # the excited population 0.118
    drive = DriveField(detuning=10.0, rabi=2.9)
    with pytest.raises(CoverageError):
        mollow_spectrum(emitter, drive, np.linspace(2.3, 17.7, 155))
    mollow_spectrum(emitter, drive, np.linspace(-3.5, 23.5, 271))


def test_a_drift_without_drive_or_decay_is_singular():
    # T1 / T2 = 1e15 and no drive: the drift is diagonal with condition 1e15
    grid = np.linspace(-1000.0, 1000.0, 201)
    emitter = EmitterParams(t1=1e15, t2=1.0)
    with pytest.raises(SingularSystemError, match="numerically singular"):
        mollow_spectrum(emitter, DriveField(detuning=0.0, rabi=0.0), grid)


@pytest.mark.parametrize(
    ("freq", "intensity", "message"),
    [
        (np.zeros((2, 2)), np.zeros((2, 2)), "1d grid"),
        (np.array([0.0, 1.0]), np.ones(3), "same shape"),
        (np.array([0.0, 0.0, 1.0]), np.ones(3), "strictly increasing"),
        (np.array([0.0, 1.0, 2.0]), np.array([1.0, -1e-6, 0.5]), "numerical floor"),
    ],
)
def test_spectrum_rejects_invalid_samples(freq, intensity, message):
    with pytest.raises(ValidationError, match=message):
        Spectrum(freq, intensity, 0.0)


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
    fit = fit_mollow(grid, noisy, guess=(2.5, 380.0), t1_ps=390.0)
    assert fit.converged
    assert fit.rabi2 == pytest.approx(5.8, abs=0.02)
    assert fit.t2_ps == pytest.approx(424.0, rel=0.02)
    assert fit.std_errors.shape == (4,)


def test_fit_from_a_distant_guess_finds_the_true_parameters():
    # with the amplitude and offset started at their least-squares values
    # the search no longer collapses onto the lower clamps from here
    em = EmitterParams(t1=390.0, t2=424.0)
    freq = np.linspace(-14.0, 14.0, 701)
    data = 3.0 * mollow_shape(em, DriveField(detuning=-1.0, rabi=1.0), freq) + 0.1
    fit = fit_mollow(freq, data, guess=(1.3, 500.0), t1_ps=390.0, detuning=-1.0)
    assert fit.converged is True
    assert fit.omega == pytest.approx(1.0, rel=1e-6)
    assert fit.t2_ps == pytest.approx(424.0, rel=1e-6)
    assert (fit.amplitude, fit.offset) == pytest.approx((3.0, 0.1), rel=1e-6)


def ending_at(omega, t2_ps):
    """A gauss_newton stand-in that converges at (omega, t2_ps) and the start's linear part."""

    def search(residual_fn, p0):
        p = np.array([omega, t2_ps, *p0[2:]])
        r = residual_fn(p[None])[0]
        return GaussNewtonResult(p, r, np.eye(r.size, p.size), float(r @ r), 1, True)

    return search


def test_fit_on_a_lower_clamp_is_not_converged():
    # a lower clamp loses its parameter: half Rabi 0 has no triplet, t2
    # 1e-3 ps no coherence; t2 = 2 t1 is the radiative limit
    em = EmitterParams(t1=390.0, t2=424.0)
    freq = np.linspace(-14.0, 14.0, 701)
    data = 3.0 * mollow_shape(em, DriveField(detuning=-1.0, rabi=1.0), freq) + 0.1
    ends = [(0.0, 424.0), (-0.5, 424.0), (1.0, 1e-3), (1.0, -5.0), (1.0, 780.0), (1.0, 900.0)]
    for (omega, t2_ps), converged in zip(ends, [False] * 4 + [True] * 2):
        with mock.patch("bifluor.bloch.gauss_newton", ending_at(omega, t2_ps)):
            fit = fit_mollow(freq, data, guess=(1.3, 500.0), t1_ps=390.0, detuning=-1.0)
        assert fit.omega == max(omega, 0.0)
        assert fit.t2_ps == min(max(t2_ps, 1e-3), 780.0)
        assert fit.converged is converged


def test_radiatively_limited_fit_is_converged():
    # t2 = 2 t1 sits on the upper clamp, which is physics, not a failure
    em = EmitterParams(t1=390.0, t2=780.0)
    freq = np.linspace(-14.0, 14.0, 701)
    data = 2.0 * mollow_shape(em, DriveField(detuning=0.0, rabi=2.9), freq)
    fit = fit_mollow(freq, data, guess=(2.5, 700.0), t1_ps=390.0)
    assert fit.converged is True
    assert fit.rabi2 == pytest.approx(5.8, rel=1e-6)
    assert fit.t2_ps == pytest.approx(780.0, rel=1e-6)


def test_fit_validates_input_shapes():
    with pytest.raises(ValidationError):
        fit_mollow(np.arange(8.0), np.arange(8.0), guess=(1, 400), t1_ps=390.0)
    with pytest.raises(ValidationError):
        fit_mollow(np.arange(20.0), np.arange(19.0), guess=(1, 400), t1_ps=390.0)


def test_fit_rejects_non_finite_samples():
    freq = np.linspace(-9.0, 9.0, 40)
    data = np.ones(40)
    data[[7, 12]] = np.nan
    with pytest.raises(ValidationError, match="sample 7 "):
        fit_mollow(freq, data, guess=(1, 400), t1_ps=390.0)
    freq[3] = np.inf
    with pytest.raises(ValidationError, match="sample 3 "):
        fit_mollow(freq, data, guess=(1, 400), t1_ps=390.0)
    with pytest.raises(ValidationError, match="guess must be finite"):
        fit_mollow(np.arange(20.0), np.ones(20), guess=(np.nan, 400), t1_ps=390.0)


@pytest.mark.parametrize("guess", [(1.0, 400.0, 1.0, 0.0), (1.0,), (0.0, 400.0), (-1.0, 400.0)])
def test_fit_guess_is_a_half_rabi_above_zero_and_a_t2(guess):
    # a half Rabi of 0 or less has no incoherent spectrum to scale
    with pytest.raises(ValidationError, match="guess must be finite"):
        fit_mollow(np.linspace(-9.0, 9.0, 40), np.ones(40), guess=guess, t1_ps=390.0)


class _Captured(Exception):
    pass


def search_call(freq, data, t1_ps, detuning, guess=(1.0, 1.0)):
    """The stacked residual and the start that fit_mollow hands to gauss_newton."""
    seen = []

    def capture(residual_fn, p0, **kwargs):
        seen.append((residual_fn, p0))
        raise _Captured

    with mock.patch("bifluor.bloch.gauss_newton", capture), pytest.raises(_Captured):
        fit_mollow(freq, data, guess=guess, t1_ps=t1_ps, detuning=detuning)
    return seen[0]


@pytest.mark.parametrize("guess", [(1.3, 500.0), (0.6, 300.0), (2.5, 1e-4)])
def test_fit_starts_amplitude_and_offset_at_least_squares(guess):
    em = EmitterParams(t1=390.0, t2=424.0)
    freq = np.linspace(-14.0, 14.0, 701)
    noise = 0.01 * np.random.default_rng(3).standard_normal(freq.size)
    data = 3.0 * mollow_shape(em, DriveField(detuning=-1.0, rabi=1.0), freq) + 0.1 + noise
    _, p0 = search_call(freq, data, 390.0, -1.0, guess)
    at_guess = EmitterParams(t1=390.0, t2=max(guess[1], 1e-3))  # t2 is clamped at 1e-3 ps
    shape = mollow_shape(at_guess, DriveField(detuning=-1.0, rabi=guess[0]), freq)
    basis = np.stack([shape, np.ones_like(shape)], axis=1)
    amplitude, offset = np.linalg.lstsq(basis, data, rcond=None)[0]
    assert np.array_equal(p0[:2], guess)
    assert p0[2] == pytest.approx(amplitude, rel=1e-9)
    assert p0[3] == pytest.approx(offset, abs=1e-9 * abs(amplitude) * shape.max())


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
    residual, _ = search_call(grid, data, t1, detuning)
    P = np.array([(rabi, ratio * 2.0 * t1, amp, off) for rabi, ratio, amp, off in members])
    got = residual(P)
    assert got.shape == (len(members), grid.size)
    rabis = np.maximum(P[:, 0], 0.0)
    t2s = np.clip(P[:, 1], 1e-3, 2.0 * t1)
    drift, _ = _drift_stack(t1 / 1000.0, t2s / 1000.0, detuning, rabis)
    for i, (rabi, t2, (amp, off)) in enumerate(zip(rabis, t2s, P[:, 2:])):
        em, drive = EmitterParams(t1=t1, t2=t2), DriveField(detuning=detuning, rabi=rabi)
        assert np.array_equal(drift[i], _drift_stack(em.t1_ns, em.t2_ns, detuning, rabi)[0][0])
        shape = amp * mollow_shape(em, drive, grid)
        assert np.max(np.abs(got[i] - (shape + off - data))) <= 1e-12 * np.max(np.abs(shape))


def direct_spectrum(emitter, drive, grid):
    """2 Re c.(i nu - A)^-1 y0 by one linear solve per grid frequency."""
    u, v, w = steady_state(emitter, drive)
    drift = _drift_stack(emitter.t1_ns, emitter.t2_ns, drive.detuning, drive.rabi)[0][0]
    rho_ee, sig = 0.5 * (1.0 + w), 0.5 * (u + 1j * v)
    y0 = np.array([rho_ee, 1j * rho_ee, -sig]) - np.array([u, v, w]) * sig
    nu = TWO_PI * (grid - drive.detuning)
    y = np.linalg.solve(1j * nu[:, None, None] * np.eye(3) - drift, y0)
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
        u, v, w = steady_state(em, DriveField(detuning=detuning, rabi=rabi))
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
    span = np.hypot(2.0 * max(rabis), detuning) + 5.0 / (TWO_PI * em.t2_ns)
    grid = detuning + np.linspace(-1.5 * span, 1.5 * span, 301)
    direct = [direct_spectrum(em, DriveField(detuning, rabi), grid) for rabi in rabis]
    for rabi, ref in zip(rabis, direct):
        spec = mollow_spectrum(em, DriveField(detuning=detuning, rabi=rabi), grid)
        assert np.max(np.abs(spec.intensity - ref)) <= 1e-12 * np.max(ref)
    mean = np.mean(direct, axis=0)
    stack = _mean_spectrum(em, detuning, rabis, grid)
    assert np.max(np.abs(stack.intensity - mean)) <= 1e-12 * np.max(mean)
