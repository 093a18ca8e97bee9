"""Detuning maps, subharmonic scans, degenerate driving, etalon filter."""

import warnings

import numpy as np
import pytest

from bifluor import scans
from bifluor.bloch import mollow_spectrum
from bifluor.dressed import _quartet
from bifluor.emitter import DriveField, EmitterParams
from bifluor.errors import CoverageError, ValidationError
from bifluor.floquet import (
    build_periodic_liouvillian,
    emission_spectrum,
    periodic_steady_state,
)
from bifluor.scans import (
    CentralCurve,
    EtalonFilter,
    central_intensity_curve,
    degenerate_spectrum,
    detuning_map,
    fit_delta1,
    plateau_edges,
    subharmonic_axis,
    subharmonic_scan,
)


class TestEtalon:
    def test_unit_transmission_on_peak(self):
        et = EtalonFilter(center_ghz=0.0, fsr_ghz=9.18, fwhm_ghz=0.14)
        assert et.transmission(0.0) == 1.0
        assert et.finesse == pytest.approx(9.18 / 0.14, rel=1e-12)

    def test_periodic_in_the_free_spectral_range(self):
        et = EtalonFilter(center_ghz=0.3, fsr_ghz=9.18, fwhm_ghz=0.14)
        f = np.linspace(-4.0, 4.0, 41)
        assert np.abs(et.transmission(f) - et.transmission(f + 9.18)).max() < 1e-12

    def test_minimum_between_peaks(self):
        et = EtalonFilter(center_ghz=0.0, fsr_ghz=9.18, fwhm_ghz=0.14)
        assert et.transmission(9.18 / 2.0) == pytest.approx(5.735368e-4, rel=1e-5)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            EtalonFilter(center_ghz=0.0, fsr_ghz=1.0, fwhm_ghz=1.5)
        with pytest.raises(ValidationError):
            EtalonFilter(center_ghz=0.0, fsr_ghz=np.inf, fwhm_ghz=0.1)


class TestDetuningMap:
    def test_rows_without_weak_field_are_identical(self, emitter, strong):
        grid = np.round(np.arange(-90, 91) * 0.1, 1)
        result = detuning_map(emitter, strong, 0.0, np.array([-1.0, 0.0, 1.0]), grid)
        assert result.failures == ()
        assert np.array_equal(result.intensity[0], result.intensity[1])
        assert np.array_equal(result.intensity[0], result.intensity[2])

    def test_failed_rows_are_reported_not_raised(self, emitter, strong):
        grid = np.linspace(-2.0, 2.0, 41)
        result = detuning_map(emitter, strong, 0.87, np.array([-0.5, 0.5]), grid)
        assert len(result.failures) == 2
        assert all("CoverageError" in msg for _d2, msg in result.failures)
        assert np.isnan(result.intensity).all()

    def test_programming_errors_are_raised_not_reported(self, emitter, strong, monkeypatch):
        def broken(*_args, **_kwargs):
            raise TypeError("broken engine")

        monkeypatch.setattr(scans, "emission_spectrum", broken)
        with pytest.raises(TypeError, match="broken engine"):
            detuning_map(emitter, strong, 0.87, np.array([0.0]), np.linspace(-9, 9, 37), workers=1)

    def test_argument_validation(self, emitter, strong):
        grid = np.linspace(-10, 10, 11)
        with pytest.raises(ValidationError):
            detuning_map(emitter, strong, 0.87, np.zeros((2, 2)), grid)
        with pytest.raises(ValidationError):
            detuning_map(emitter, strong, 0.87, np.array([0.0]), grid, workers=0)

    def test_central_intensity_dips_on_dressed_resonance(self, emitter, strong):
        grid = np.arange(-40, 41) * 0.25
        axis = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        result = detuning_map(emitter, strong, 0.87, axis, grid)
        assert result.failures == ()
        curve = central_intensity_curve(result)
        assert int(np.argmin(curve.intensity)) == 2
        assert curve.intensity.min() > 0.0

    def test_recovers_the_strong_laser_detuning(self, emitter):
        # a detuned strong laser drags the anti-crossing minimum away
        # from Delta2 = 0; the curve fit predicts the dragged position
        strong_field = DriveField(detuning=-0.977, rabi=2.9)
        grid = np.arange(-56, 52) * 0.25 - 0.977
        axis = np.linspace(-4.0, 4.0, 17)
        result = detuning_map(emitter, strong_field, 0.87, axis, grid)
        assert result.failures == ()
        curve = central_intensity_curve(result, center=-0.977)
        fit = fit_delta1(curve, 2.9, 0.87)
        assert fit.converged
        predicted = fit.delta1 + 5.8 - np.hypot(5.8, fit.delta1)
        column = int(np.argmin(np.abs(grid - (-0.977))))
        measured = axis[int(np.argmin(result.intensity[:, column]))]
        assert abs(measured - predicted) <= 0.5 + 1e-12


class TestCentralCurveFit:
    def test_model_round_trip_with_noise(self):
        d2 = np.linspace(-4.0, 4.0, 33)
        theta, _g_eff, _d_pair, _lam, phi = _quartet(2.9, -0.977, 0.87, d2 - 5.8 + 0.977)
        model = (np.sin(theta) * np.cos(theta) * np.cos(2.0 * phi)) ** 2
        rng = np.random.default_rng(11)
        noisy = 3.0 * model * (1.0 + 0.02 * rng.standard_normal(d2.size))
        curve = CentralCurve(delta2=d2, intensity=noisy, center_ghz=-0.977)
        fit = fit_delta1(curve, 2.9, 0.87)
        assert fit.converged
        assert fit.delta1 == pytest.approx(-0.977, abs=0.05)

    def test_flat_curve_from_absent_weak_field_is_constant(self, emitter, strong):
        grid = np.round(np.arange(-90, 91) * 0.1, 1)
        result = detuning_map(emitter, strong, 0.0, np.linspace(-1, 1, 5), grid)
        curve = central_intensity_curve(result)
        spread = curve.intensity.max() - curve.intensity.min()
        assert spread <= 1e-6 * curve.intensity.max()

    def test_curve_window_validation(self, emitter, strong):
        # a 0.6 GHz grid puts one point inside the +-0.5 GHz window
        grid = np.round(np.arange(-15, 16) * 0.6, 1)
        result = detuning_map(emitter, strong, 0.0, np.array([0.0]), grid)
        with pytest.raises(CoverageError):
            central_intensity_curve(result)

    def test_fit_needs_finite_points(self):
        curve = CentralCurve(
            delta2=np.linspace(-1, 1, 9),
            intensity=np.full(9, np.nan),
            center_ghz=0.0,
        )
        with pytest.raises(ValidationError):
            fit_delta1(curve, 2.9, 0.87)


class TestSubharmonics:
    def test_axis_covers_requested_orders(self):
        axis = subharmonic_axis(2.9, points_per_order=16)
        assert axis.size == 80
        assert np.all(np.diff(axis) > 0)
        assert np.all(axis < 0)
        for n in (1, 2, 3, 4, 5):
            assert np.any(np.abs(-axis - 2.0 * 2.9 / n) < 0.2)
        with pytest.raises(ValidationError):
            subharmonic_axis(-1.0)

    def test_no_weak_field_means_no_dips(self, emitter, strong):
        axis = subharmonic_axis(2.9, orders=(1,), points_per_order=5)
        etalon = EtalonFilter(center_ghz=0.0, fsr_ghz=9.18, fwhm_ghz=0.14)
        scan = subharmonic_scan(
            emitter, strong, axis, etalon, alpha_squared=0.0, orders=(1,)
        )
        assert scan.dips == ()
        assert np.isfinite(scan.intensity).all()

    def test_axis_must_reach_each_order(self, emitter, strong):
        axis = subharmonic_axis(2.9, orders=(1,), points_per_order=5)
        etalon = EtalonFilter(center_ghz=0.0, fsr_ghz=9.18, fwhm_ghz=0.14)
        with pytest.raises(CoverageError):
            subharmonic_scan(
                emitter, strong, axis, etalon, alpha_squared=0.0, orders=(1, 2)
            )

    def test_scan_validation(self, emitter, strong):
        etalon = EtalonFilter(center_ghz=0.0, fsr_ghz=9.18, fwhm_ghz=0.14)
        with pytest.raises(ValidationError):
            subharmonic_scan(emitter, strong, np.array([-5.8, -5.9]), etalon)
        with pytest.raises(ValidationError):
            subharmonic_scan(
                emitter, strong, -np.linspace(5.5, 6.1, 7), etalon, orders=(0,)
            )
        axis = subharmonic_axis(2.9, orders=(1,), points_per_order=5)
        for workers in (0, -3):
            with pytest.raises(ValidationError, match="workers must be at least 1"):
                subharmonic_scan(emitter, strong, axis, etalon, orders=(1,), workers=workers)

    def test_dip_bottoms_rise_with_order(self, subharmonic_reference):
        # higher orders suppress the centre line less and less
        scan, _elapsed = subharmonic_reference
        bottoms = []
        for n in scan.orders:
            base = 2.0 * 2.9 / n
            gap = base - 2.0 * 2.9 / (n + 1)
            mask = (-scan.delta3 >= base - 0.5 * gap) & (-scan.delta3 <= base + 0.7 * gap)
            bottoms.append(scan.intensity[mask].min())
        assert np.all(np.diff(bottoms) > 0)


class TestDegenerate:
    def test_no_second_field_reduces_to_mollow(self, emitter, strong, fine_grid):
        spec = degenerate_spectrum(emitter, strong, 0.0, fine_grid)
        ref = mollow_spectrum(emitter, strong, fine_grid)
        assert np.allclose(spec.intensity, ref.intensity, rtol=1e-12, atol=0.0)
        assert spec.elastic_weight == pytest.approx(ref.elastic_weight, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.2, 0.36])
    def test_phase_average_matches_a_per_phase_loop(self, emitter, alpha):
        n_phases = scans._N_PHASES
        strong_field = DriveField(detuning=0.4, rabi=2.9)
        grid = np.round(np.arange(-1300, 1301) * 0.01, 2)
        spec = degenerate_spectrum(emitter, strong_field, alpha, grid)
        total, elastic = np.zeros(grid.size), 0.0
        for k in range(n_phases):
            phi = 2.0 * np.pi * k / n_phases
            rabi = 2.9 * np.sqrt(1.0 + alpha + 2.0 * np.sqrt(alpha) * np.cos(phi))
            one = mollow_spectrum(emitter, DriveField(detuning=0.4, rabi=rabi), grid)
            total += one.intensity
            elastic += one.elastic_weight
        assert np.allclose(spec.intensity, total / n_phases, rtol=1e-12, atol=0.0)
        assert spec.elastic_weight == pytest.approx(elastic / n_phases, rel=1e-12)
        assert spec.elastic_lines == ((0.4, spec.elastic_weight),)

    def test_equal_powers_average_with_a_vanishing_member(self, emitter, strong):
        # at alpha = 1 the phase pi cancels the drive: that member's
        # spectrum is rounding noise around zero, so the loop adds zero
        n_phases = scans._N_PHASES
        grid = np.linspace(-15.0, 15.0, 601)
        spec = degenerate_spectrum(emitter, strong, 1.0, grid)
        total, elastic = np.zeros(grid.size), 0.0
        for k in range(n_phases):
            if 2 * k == n_phases:
                continue
            rabi = 2.9 * np.sqrt(2.0 + 2.0 * np.cos(2.0 * np.pi * k / n_phases))
            one = mollow_spectrum(emitter, DriveField(detuning=0.0, rabi=rabi), grid)
            total += one.intensity
            elastic += one.elastic_weight
        assert np.allclose(spec.intensity, total / n_phases, rtol=1e-12, atol=0.0)
        assert spec.elastic_weight == pytest.approx(elastic / n_phases, rel=1e-12)

    def test_phase_average_grid_must_cover_the_largest_splitting(self, emitter, strong):
        alpha = 0.36
        phases = 2.0 * np.pi * np.arange(256) / 256
        rabis = 2.9 * np.sqrt(1.0 + alpha + 2.0 * np.sqrt(alpha) * np.cos(phases))
        pad = 5.0 / (2.0 * np.pi * emitter.t2_ns)
        half = 2.0 * rabis.mean() + pad + 0.1
        assert half < 2.0 * rabis.max() + pad
        grid = np.linspace(-half, half, 801)
        mollow_spectrum(emitter, DriveField(detuning=0.0, rabi=rabis.mean()), grid)
        with pytest.raises(CoverageError):
            degenerate_spectrum(emitter, strong, alpha, grid)

    def test_central_line_survives_degenerate_driving(self, emitter, strong):
        grid = np.round(np.arange(-1300, 1301) * 0.01, 2)
        spec = degenerate_spectrum(emitter, strong, 0.36, grid)
        assert abs(grid[int(np.argmax(spec.intensity))]) < 0.05

    def test_both_methods_see_the_same_plateau(self, emitter, strong):
        grid = np.round(np.arange(-1300, 1301) * 0.01, 2)
        avg = degenerate_spectrum(emitter, strong, 0.36, grid, method="phase_average")
        swp = degenerate_spectrum(emitter, strong, 0.36, grid, method="small_delta")
        edges_avg = plateau_edges(grid, avg.intensity, 2.9, 0.36)
        edges_swp = plateau_edges(grid, swp.intensity, 2.9, 0.36)
        for a, b in zip(edges_avg, edges_swp):
            assert abs(a - b) <= 0.05 * abs(b)
        win = np.abs(grid) <= 0.5
        w_avg = np.trapezoid(avg.intensity[win], grid[win])
        w_swp = np.trapezoid(swp.intensity[win], grid[win])
        assert abs(w_avg - w_swp) <= 0.10 * w_swp

    def test_method_and_parameter_validation(self, emitter, strong, fine_grid):
        with pytest.raises(ValidationError):
            degenerate_spectrum(emitter, strong, -0.1, fine_grid)
        with pytest.raises(ValidationError):
            degenerate_spectrum(emitter, strong, 0.2, fine_grid, method="exact")

    def test_plateau_edges_validation(self):
        freq = np.linspace(0.0, 12.0, 601)
        with pytest.raises(ValidationError):
            plateau_edges(freq, np.ones_like(freq), 2.9, 0.0)
        with pytest.raises(CoverageError):
            plateau_edges(np.array([0.0, 6.0, 12.0]), np.ones(3), 2.9, 0.36)


def test_reference_points_run_without_warnings(emitter, strong, drive, fine_grid):
    """The reference spectrum, the order-5 scan rows and the tiny-beat
    degenerate spectrum converge without any warning."""
    etalon = EtalonFilter(center_ghz=0.0, fsr_ghz=9.18, fwhm_ghz=0.14)
    order5 = subharmonic_axis(2.9, orders=(5,), points_per_order=6)
    wide = np.round(np.arange(-1200, 1201) * 0.01, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pl = build_periodic_liouvillian(emitter, drive)
        emission_spectrum(pl, periodic_steady_state(pl), fine_grid)
        # a failed row would come back as NaN rather than raise
        scan = subharmonic_scan(emitter, strong, order5, etalon, orders=(5,))
        assert np.isfinite(scan.intensity).all()
        degenerate_spectrum(emitter, strong, 0.36, wide, method="small_delta")
