"""Monochromatic Bloch dynamics, Mollow spectra, and the triplet fit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from oracles import brute_mollow_spectrum, window_weight
from bifluor.bloch import (
    _poles,
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


def test_fit_validates_input_shapes():
    with pytest.raises(ValidationError):
        fit_mollow(np.arange(8.0), np.arange(8.0), guess=(1, 400, 1, 0), t1_ps=390.0)
    with pytest.raises(ValidationError):
        fit_mollow(np.arange(20.0), np.arange(19.0), guess=(1, 400, 1, 0), t1_ps=390.0)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(200.0, 1000.0),  # T1, ps
    st.floats(0.3, 1.0),  # T2 / (2 T1)
    st.floats(-3.0, 3.0),  # detuning, GHz
    st.lists(st.floats(0.05, 5.0), min_size=1, max_size=6),  # half Rabis, GHz
)
def test_pole_amplitudes_sum_to_the_excited_population(t1, t2_ratio, detuning, rabis):
    # C(0) = <sigma+ sigma-> = rho_ee: the incoherent amplitudes plus the
    # elastic weight must add up to it for every member of the stack
    em = EmitterParams(t1=t1, t2=t2_ratio * 2.0 * t1)
    lams, amps, elastic = _poles(em.t1_ns, em.t2_ns, detuning, rabis)
    assert lams.shape == amps.shape == (len(rabis), 3)
    assert np.all(lams.real < 0.0)
    for i, rabi in enumerate(rabis):
        system = build_bloch(em, DriveField(detuning=detuning, rabi=rabi))
        u, v, w = steady_state(system)
        rho_ee = 0.5 * (1.0 + w)
        total = amps[i].sum() + elastic[i]
        assert total.real == pytest.approx(rho_ee, rel=1e-10)
        assert abs(total.imag) <= 1e-10 * rho_ee
        assert elastic[i] == pytest.approx((u * u + v * v) / 4.0, rel=1e-12)
