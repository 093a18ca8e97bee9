"""Detuning maps, subharmonic scans, degenerate driving, etalon filter."""

import ast
import concurrent.futures
import inspect
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import airy_transmission
from bifluor import floquet, scans
from bifluor.bloch import mollow_spectrum
from bifluor.dressed import _quartet
from bifluor.emitter import BichromaticDrive, DriveField, EmitterParams
from bifluor.errors import (
    CoverageError,
    SingularSystemError,
    TruncationError,
    TruncationWarning,
    ValidationError,
)
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
        assert airy_transmission(et, 0.0) == 1.0
        assert et.finesse == pytest.approx(9.18 / 0.14, rel=1e-12)

    def test_periodic_in_the_free_spectral_range(self):
        et = EtalonFilter(center_ghz=0.3, fsr_ghz=9.18, fwhm_ghz=0.14)
        f = np.linspace(-4.0, 4.0, 41)
        assert np.abs(airy_transmission(et, f) - airy_transmission(et, f + 9.18)).max() < 1e-12

    def test_minimum_between_peaks(self):
        et = EtalonFilter(center_ghz=0.0, fsr_ghz=9.18, fwhm_ghz=0.14)
        assert airy_transmission(et, 9.18 / 2.0) == pytest.approx(5.735368e-4, rel=1e-5)

    @pytest.mark.parametrize("fwhm", [0.14, 1.0, 4.0])
    def test_airy_function_is_a_sum_of_lorentzians(self, fwhm):
        et = EtalonFilter(center_ghz=0.3, fsr_ghz=9.18, fwhm_ghz=fwhm)
        weight, gamma = scans._airy_lorentzians(et)
        f = np.linspace(-15.0, 15.0, 61)
        orders = 20000
        peaks = 0.3 + 9.18 * np.arange(-orders, orders + 1)
        lorentz = gamma / np.pi / ((f[:, None] - peaks) ** 2 + gamma**2)
        # the orders left out add at most weight gamma / pi * 2 / ((orders - 2) fsr)^2 each
        left_out = weight * gamma / np.pi * 2.0 / ((orders - 2) * 9.18 ** 2)
        error = np.abs(weight * lorentz.sum(axis=1) - airy_transmission(et, f)).max()
        assert error <= 1e-10 + left_out

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            EtalonFilter(center_ghz=0.0, fsr_ghz=1.0, fwhm_ghz=1.5)
        with pytest.raises(ValidationError):
            EtalonFilter(center_ghz=0.0, fsr_ghz=np.inf, fwhm_ghz=0.1)


MAP_AXIS = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
MAP_GRID = np.arange(-40, 41) * 0.25


class TestDetuningMap:
    def test_rows_without_weak_field_are_identical(self, emitter, strong):
        grid = np.round(np.arange(-90, 91) * 0.1, 1)
        result = detuning_map(emitter, strong, 0.0, np.array([-1.0, 0.0, 1.0]), grid)
        assert result.failures == ()
        assert np.array_equal(result.intensity[0], result.intensity[1])
        assert np.array_equal(result.intensity[0], result.intensity[2])
        assert list(result.cutoffs) == [0, 0, 0]

    def test_rows_equal_emission_spectrum_row_by_row(self, emitter, strong, monkeypatch):
        # rows prepared together give each row's own spectrum and cutoff, bit for bit
        result = detuning_map(emitter, strong, 0.87, MAP_AXIS, MAP_GRID)
        assert result.failures == ()
        calls = []
        solve = floquet._sambe_resolvent

        def spy(pl, seed, nu, cutoff, delta=None, harmonics=False):
            calls.append((nu.size, cutoff))
            return solve(pl, seed, nu, cutoff, delta, harmonics)

        monkeypatch.setattr(floquet, "_sambe_resolvent", spy)
        rows = zip(MAP_AXIS, result.intensity, result.elastic_weight, result.cutoffs)
        for d2, row, ew, cutoff in rows:
            weak = DriveField(detuning=d2 - 2.0 * strong.rabi, rabi=0.87)
            pl = build_periodic_liouvillian(emitter, BichromaticDrive(strong=strong, weak=weak))
            calls.clear()
            spec = emission_spectrum(pl, periodic_steady_state(pl), MAP_GRID)
            assert np.array_equal(row, spec.intensity) and ew == spec.elastic_weight
            assert cutoff == [k for size, k in calls if size == MAP_GRID.size][-1]
        assert np.all(result.cutoffs > 0)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", ["zero_beat", "singular_steady_state", "singular_resolvent"])
    def test_a_failed_row_fails_alone(self, emitter, strong, monkeypatch, case, workers):
        base = detuning_map(emitter, strong, 0.87, MAP_AXIS, MAP_GRID)
        axis = MAP_AXIS.copy()
        if case == "zero_beat":  # Delta2 = 2 Omega + Delta1 puts the weak field on the strong one
            axis[2] = 2.0 * strong.rabi + strong.detuning
            error = "DegenerateDriveError"
        elif case == "singular_resolvent":  # the subsample sweep of one row's beat is singular
            bad_beat = 2.0 * np.pi * (axis[2] - 2.0 * strong.rabi - strong.detuning)
            batched = floquet._batched_resolvent

            def singular_on_one_beat(rows, idx, nu, cutoff):
                if nu.size <= floquet.SUBSAMPLE and any(rows[i][0].delta == bad_beat for i in idx):
                    raise SingularSystemError("resolvent solve hit a singular block")
                return batched(rows, idx, nu, cutoff)

            monkeypatch.setattr(floquet, "_batched_resolvent", singular_on_one_beat)
            error = "SingularSystemError: resolvent"
        else:
            bad_beat = 2.0 * np.pi * (axis[2] - 2.0 * strong.rabi - strong.detuning)
            solve = floquet._solve_balance

            def singular_on_one_beat(pl, cutoff, delta=None):
                if np.any(np.asarray(delta) == bad_beat):
                    raise SingularSystemError("resolvent solve hit a singular block")
                return solve(pl, cutoff, delta)

            monkeypatch.setattr(floquet, "_solve_balance", singular_on_one_beat)
            error = "SingularSystemError: harmonic balance"
        result = detuning_map(emitter, strong, 0.87, axis, MAP_GRID, workers=workers)
        assert [d2 for d2, _msg in result.failures] == [axis[2]]
        assert error in result.failures[0][1]
        assert np.isnan(result.intensity[2]).all() and np.isnan(result.elastic_weight[2])
        assert result.cutoffs[2] == 0
        keep = np.arange(axis.size) != 2
        assert np.array_equal(result.intensity[keep], base.intensity[keep])
        assert np.array_equal(result.elastic_weight[keep], base.elastic_weight[keep])
        assert np.array_equal(result.cutoffs[keep], base.cutoffs[keep])

    def test_workers_are_checked_before_any_row_is_built(self, emitter, strong, monkeypatch):
        def no_rows(*_args, **_kwargs):
            raise AssertionError("a row was built")

        monkeypatch.setattr(scans, "build_periodic_liouvillian", no_rows)
        with pytest.raises(ValidationError, match="workers must be at least 1"):
            detuning_map(emitter, strong, 0.87, MAP_AXIS, MAP_GRID, workers=0)

    def test_the_pool_never_outnumbers_the_rows(self, emitter, strong, monkeypatch):
        # a process pool forks all its workers at the first task, so it gets
        # one per row at most, and a single row runs without one
        pools = []

        class RecordingPool:  # maps in this process and starts none
            def __init__(self, max_workers=None):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *_exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        two = detuning_map(emitter, strong, 0.87, MAP_AXIS[:2], MAP_GRID, workers=10_000)
        assert pools == [2] and two.failures == ()
        one = detuning_map(emitter, strong, 0.87, MAP_AXIS[:1], MAP_GRID, workers=10_000)
        assert pools == [2] and one.failures == ()
        assert np.array_equal(one.intensity[0], two.intensity[0])

    def test_failed_rows_are_reported_not_raised(self, emitter, strong):
        grid = np.linspace(-2.0, 2.0, 41)
        result = detuning_map(emitter, strong, 0.87, np.array([-0.5, 0.5]), grid)
        assert len(result.failures) == 2
        assert all("CoverageError" in msg for _d2, msg in result.failures)
        assert np.isnan(result.intensity).all()

    def test_programming_errors_are_raised_not_reported(self, emitter, strong, monkeypatch):
        def broken(*_args, **_kwargs):
            raise TypeError("broken engine")

        monkeypatch.setattr(floquet, "_full_grid_spectrum", broken)
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

    def test_fit_refuses_a_curve_without_weak_field(self, emitter, strong):
        # the flat curve does not depend on Delta1, so no fit may claim one
        grid = np.round(np.arange(-90, 91) * 0.1, 1)
        result = detuning_map(emitter, strong, 0.0, np.linspace(-1, 1, 5), grid)
        with pytest.raises(ValidationError, match="needs a weak field"):
            fit_delta1(central_intensity_curve(result), 2.9, 0.0)

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

    def test_axis_is_refused_before_any_row_is_solved(self, emitter, strong, monkeypatch):
        def no_rows(*_args):
            raise AssertionError("a row was built before the axis was checked")

        monkeypatch.setattr(scans, "build_periodic_liouvillian", no_rows)
        axis = subharmonic_axis(2.9, orders=(1,), points_per_order=5)
        etalon = EtalonFilter(center_ghz=0.0, fsr_ghz=9.18, fwhm_ghz=0.14)
        with pytest.raises(CoverageError):
            subharmonic_scan(emitter, strong, axis, etalon, orders=(1, 2))

    def test_scan_validation(self, emitter, strong):
        etalon = EtalonFilter(center_ghz=0.0, fsr_ghz=9.18, fwhm_ghz=0.14)
        with pytest.raises(ValidationError):
            subharmonic_scan(emitter, strong, np.array([-5.8, -5.9]), etalon)
        with pytest.raises(ValidationError):
            subharmonic_scan(
                emitter, strong, -np.linspace(5.5, 6.1, 7), etalon, orders=(0,)
            )

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

    def test_rows_record_cutoff_and_tail(self, subharmonic_reference):
        scan, _elapsed = subharmonic_reference
        assert scan.failures == ()
        assert set(scan.cutoffs) <= {16, 32}
        assert np.all((scan.tail_fraction > 0.0) & (scan.tail_fraction < 0.01))


ETALON = EtalonFilter(center_ghz=0.0, fsr_ghz=9.18, fwhm_ghz=0.14)
REF_EMITTER = EmitterParams(t1=390.0, t2=424.0)
REF_STRONG = DriveField(detuning=0.0, rabi=2.9)


def one_row(d3, g, etalon):
    """Filtered intensity of one row, with its cutoff, tail and failures."""
    return scans._filtered_rows(REF_EMITTER, REF_STRONG, g, np.array([d3]), etalon)


def trapezoid_row(d3, g, etalon, half, step=0.02):
    """Trapezoid of spectrum times Airy function over +-half GHz."""
    grid = np.linspace(-half, half, int(round(2.0 * half / step)) + 1)
    drive = BichromaticDrive(strong=REF_STRONG, weak=DriveField(detuning=d3, rabi=g))
    pl = build_periodic_liouvillian(REF_EMITTER, drive)
    spec = emission_spectrum(pl, periodic_steady_state(pl), grid)
    return np.trapezoid(spec.intensity * airy_transmission(etalon, grid), grid)


class TestEtalonOrderSum:
    @settings(max_examples=8, deadline=None)
    @given(
        st.floats(-6.5, -1.0),  # Delta3
        st.floats(0.1, 1.0),  # weak half Rabi G
        st.floats(-4.0, 4.0),  # etalon centre
        st.floats(0.14, 1.0),  # etalon fwhm
    )
    def test_order_sum_equals_a_wide_trapezoid(self, d3, g, center, fwhm):
        # a trapezoid over +-W misses a tail that falls as 1/W, so
        # |I(W) - I(W/2)| is its own error, and I(W) lies that far below
        etalon = EtalonFilter(center_ghz=center, fsr_ghz=9.18, fwhm_ghz=fwhm)
        exact = one_row(d3, g, etalon)[0][0]
        wide, half = trapezoid_row(d3, g, etalon, 100.0), trapezoid_row(d3, g, etalon, 50.0)
        own_error = abs(wide - half)
        assert wide < exact <= wide + 1.25 * own_error
        assert abs(exact - (2.0 * wide - half)) <= 0.2 * own_error

    @pytest.mark.parametrize("d3", [-1.25, -2.1, -5.9])
    def test_doubling_the_orders_changes_a_row_below_1e6(self, monkeypatch, d3):
        base = one_row(d3, 0.87, ETALON)[0][0]
        monkeypatch.setattr(scans, "ETALON_ORDERS", 2 * scans.ETALON_ORDERS)
        doubled = one_row(d3, 0.87, ETALON)[0][0]
        assert abs(doubled - base) < 1e-6 * base

    def test_batched_rows_equal_per_row_solves(self, emitter, strong):
        axis = subharmonic_axis(2.9, orders=(5,), points_per_order=6, alpha_squared=0.33)
        g = 0.5 * np.sqrt(0.33) * 2.9
        rows = {}
        for i, d3 in enumerate(axis):
            drive = BichromaticDrive(strong=strong, weak=DriveField(detuning=d3, rabi=g))
            pl = build_periodic_liouvillian(emitter, drive)
            rows[i] = pl, periodic_steady_state(pl)
        nu = 2.0 * np.pi * (9.18 * np.arange(-3, 4) - 0.02j)
        for i, (x0, edge) in floquet._batched_resolvent(rows, list(rows), nu, 16):
            pl, state = rows[i]
            one = floquet._sambe_resolvent(pl, floquet._incoherent_seed(state, 16), nu, 16)
            scale = np.abs(one[0]).max()
            assert np.abs(x0 - one[0]).max() <= 1e-12 * scale
            assert np.abs(edge - one[1]).max() <= 1e-12 * scale
        scan = subharmonic_scan(emitter, strong, axis, ETALON, alpha_squared=0.33, orders=(5,))
        single = [one_row(d3, g, ETALON) for d3 in axis]
        assert np.abs(scan.intensity / [row[0][0] for row in single] - 1.0).max() <= 1e-12
        assert list(scan.cutoffs) == [row[1][0] for row in single]

    def test_a_singular_row_fails_alone(self, emitter, strong, monkeypatch):
        axis = subharmonic_axis(2.9, orders=(5,), points_per_order=6)
        base = subharmonic_scan(emitter, strong, axis, ETALON, orders=(5,))
        bad_beat = 2.0 * np.pi * axis[2]
        solve = floquet._sambe_resolvent

        def singular_on_one_beat(pl, seed, nu, cutoff, delta=None, harmonics=False):
            # the spectrum resolvent only: with harmonics the sweep is the steady state
            if not harmonics and np.any(np.asarray(delta) == bad_beat):
                raise SingularSystemError("resolvent solve hit a singular block")
            return solve(pl, seed, nu, cutoff, delta, harmonics)

        monkeypatch.setattr(floquet, "_sambe_resolvent", singular_on_one_beat)
        scan = subharmonic_scan(emitter, strong, axis, ETALON, orders=(5,))
        assert [d3 for d3, _msg in scan.failures] == [axis[2]]
        assert "SingularSystemError: resolvent" in scan.failures[0][1]
        assert np.isnan(scan.intensity[2]) and scan.cutoffs[2] == 0
        keep = np.arange(axis.size) != 2
        assert np.array_equal(scan.intensity[keep], base.intensity[keep])

    @pytest.mark.parametrize("singular_from", [8, 16])
    def test_a_singular_steady_state_fails_its_row_alone(
        self, emitter, strong, monkeypatch, singular_from
    ):
        # the rows' steady states converge at cutoffs 16 and 32, so every row
        # is pending at 16; a singular batch is solved again row by row at the
        # rung where it failed, so the rungs are solved in increasing order
        axis = subharmonic_axis(2.9, orders=(5,), points_per_order=6)
        base = subharmonic_scan(emitter, strong, axis, ETALON, orders=(5,))
        bad_beat = 2.0 * np.pi * axis[2]
        solve = floquet._solve_balance
        rungs = []

        def singular_on_one_beat(pl, cutoff, delta=None):
            rungs.append(cutoff)
            if cutoff >= singular_from and np.any(np.asarray(delta) == bad_beat):
                raise SingularSystemError("resolvent solve hit a singular block")
            return solve(pl, cutoff, delta)

        monkeypatch.setattr(floquet, "_solve_balance", singular_on_one_beat)
        scan = subharmonic_scan(emitter, strong, axis, ETALON, orders=(5,))
        assert [d3 for d3, _msg in scan.failures] == [axis[2]]
        assert "SingularSystemError: harmonic balance" in scan.failures[0][1]
        keep = np.arange(axis.size) != 2
        assert np.array_equal(scan.intensity[keep], base.intensity[keep])
        assert np.array_equal(scan.cutoffs[keep], base.cutoffs[keep])
        assert singular_from in rungs and rungs == sorted(rungs)

    def test_a_failed_row_records_cutoff_zero(self, emitter, strong):
        # Delta3 = Delta1 has no beat: that row fails, the others do not
        axis = np.array([-6.1, -6.0, -5.9, -5.8, -5.7, 0.0])
        scan = subharmonic_scan(emitter, strong, axis, ETALON, orders=(1,))
        assert [d3 for d3, _msg in scan.failures] == [0.0]
        assert "DegenerateDriveError" in scan.failures[0][1]
        assert scan.cutoffs[-1] == 0 and np.all(scan.cutoffs[:-1] > 0)
        assert np.isnan(scan.tail_fraction[-1]) and np.isfinite(scan.tail_fraction[:-1]).all()

    @pytest.mark.parametrize("alpha_squared", [0.30, 0.35])
    def test_order5_dip_inside_the_benchmark_gate(self, emitter, strong, alpha_squared):
        # the high_order workload draws alpha_squared from [0.30, 0.35] and
        # accepts an order-5 dip displaced by 0 to 0.35 GHz
        axis = subharmonic_axis(2.9, orders=(5,), points_per_order=6, alpha_squared=alpha_squared)
        scan = subharmonic_scan(
            emitter, strong, axis, ETALON, alpha_squared=alpha_squared, orders=(5,)
        )
        (dip,) = scan.dips
        assert 0.0 < dip.dip_position_ghz - 5.8 / 5.0 < 0.35


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


def test_the_cutoff_policy_lives_in_floquet():
    # scans hand their rows to floquet's one ladder loop; they name none of its parts,
    # nor the subsample whose size picks the ladder's step
    tree = ast.parse(inspect.getsource(scans))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    policy = {
        "_start_cutoff",
        "_edge_residual",
        "_truncation",
        "_sambe_resolvent",
        "EDGE_TOL",
        "CUTOFF_CEILING",
        "SUBSAMPLE",
        "_subsample",
        "_next_cutoff",
    }
    assert names.isdisjoint(policy)


def test_floquet_has_one_block_elimination():
    # the steady state is the Sambe sweep at nu = 0, so no dense solve is left
    tree = ast.parse(inspect.getsource(floquet))
    calls = [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert not [call for call in calls if "linalg.solve" in call]


def test_floquet_has_one_ladder():
    # the steady state, the subsample and the full-grid gate climb one loop,
    # and only that loop's function compares a residual with EDGE_TOL
    tree = ast.parse(inspect.getsource(floquet))
    assert sum(isinstance(node, ast.While) for node in ast.walk(tree)) == 1
    gates = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Compare)
        and any(isinstance(n, ast.Name) and n.id == "EDGE_TOL" for n in ast.walk(node))
    }
    assert len(gates) == 1


def _named(tree) -> set:
    """Every name a module's source uses, imports, reads as an attribute or defines."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_truncations_are_settled_in_one_place():
    # rows hand their truncations back as data: one floquet function turns
    # them into errors or warnings, and only the command line records warnings
    package = Path(inspect.getfile(floquet)).parent
    trees = {path.name: ast.parse(path.read_text()) for path in package.glob("*.py")}
    assert {name for name, tree in trees.items() if "catch_warnings" in _named(tree)} == {"cli.py"}
    functions = [f for f in ast.walk(trees["floquet.py"]) if isinstance(f, ast.FunctionDef)]
    assert len([f for f in functions if "TruncationWarning" in _named(f)]) == 1
    assert _named(trees["scans.py"]).isdisjoint({"TruncationWarning", "_full_grid_spectrum", "_row_task"})


def test_strict_is_a_warnings_filter_not_a_parameter():
    # --strict is the filter that makes TruncationWarning an error: no function
    # takes a flag for it, and only the command line sets such a filter
    package = Path(inspect.getfile(floquet)).parent
    trees = {path.name: ast.parse(path.read_text()) for path in package.glob("*.py")}
    strict = [
        f"{name}:{func.name}"
        for name, tree in trees.items()
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        and any(arg.arg == "strict" for arg in ast.walk(func.args) if isinstance(arg, ast.arg))
    ]
    assert strict == []
    setters = {
        name
        for name, tree in trees.items()
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and ast.unparse(call.func).split(".")[-1] in {"simplefilter", "filterwarnings"}
        and "TruncationWarning" in _named(call)
    }
    assert setters == {"cli.py"}


def test_an_error_filter_fails_each_truncated_row(emitter, strong, monkeypatch):
    # every row below needs a harmonic cutoff above 4; a library caller gets
    # --strict by making TruncationWarning an error, and the filter changes
    # nothing where no truncation is left
    order5 = subharmonic_axis(2.9, orders=(5,), points_per_order=6)

    def run(strict):
        with warnings.catch_warnings():
            if strict:
                warnings.simplefilter("error", TruncationWarning)
            return (
                detuning_map(emitter, strong, 0.87, MAP_AXIS, MAP_GRID),
                subharmonic_scan(emitter, strong, order5, ETALON, orders=(5,)),
            )

    for plain, strict in zip(run(False), run(True)):
        assert plain.failures == strict.failures == ()
        assert np.array_equal(plain.intensity, strict.intensity)
        assert np.array_equal(plain.cutoffs, strict.cutoffs)
    monkeypatch.setattr(floquet, "CUTOFF_CEILING", 4)
    weak = DriveField(detuning=MAP_AXIS[0] - 2.0 * strong.rabi, rabi=0.87)
    pl = build_periodic_liouvillian(emitter, BichromaticDrive(strong=strong, weak=weak))
    with pytest.raises(TruncationError) as info, warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        emission_spectrum(pl, periodic_steady_state(pl), MAP_GRID)
    assert info.value.residual > floquet.EDGE_TOL
    for result, axis in zip(run(True), (MAP_AXIS, order5)):
        assert [d for d, _msg in result.failures] == axis.tolist()
        assert all(msg.startswith("TruncationError: ") for _d, msg in result.failures)
        assert np.isnan(result.intensity).all() and not result.cutoffs.any()


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
