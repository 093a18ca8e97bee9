"""Dressed-state line positions, interference amplitude, and populations."""

import numpy as np
import pytest

from bifluor.dressed import (
    _quartet,
    central_line_amplitude,
    doubly_dressed_lines,
    dressed_populations,
    subharmonic_shift,
)
from bifluor.emitter import BichromaticDrive, DriveField, EmitterParams
from bifluor.errors import DegenerateDriveError, NumericsWarning, ValidationError

# steady-state sublevel populations for the reference bichromatic drive,
# frozen from the one-beat time-propagation oracle
ORACLE_POPULATIONS = (0.6232820676530268, 0.37671793234697315)


# the singly dressed doublet is the strong-field part of dressed._quartet:
# mixing angle theta, upper state (sin theta, cos theta) in the (g, e)
# basis, and pair detuning s + delta with splitting s = hypot(2 Omega, Delta1)


def test_singly_dressed_resonant():
    theta, _g_eff, d_pair, _lam, _phi = _quartet(2.9, 0.0, 0.87, -5.8)
    assert theta == pytest.approx(np.pi / 4.0, rel=1e-15)
    assert d_pair == pytest.approx(0.0, abs=1e-15)  # s = 5.8 GHz


def test_singly_dressed_far_detuned_limits():
    red = _quartet(0.5, -80.0, 0.0, 0.0)[0]
    assert red < 0.01
    assert abs(np.cos(red)) > 0.999  # upper state is almost bare e
    blue = _quartet(0.5, 80.0, 0.0, 0.0)[0]
    assert blue > np.pi / 2.0 - 0.01
    assert abs(np.sin(blue)) > 0.999  # upper state is almost bare g


def test_nine_line_centers_on_dressed_resonance(drive):
    lines = doubly_dressed_lines(drive)
    lam = 0.6 * 2.9  # 2 G
    expected = {
        1: 0.0,
        2: 5.8,
        3: -5.8,
        4: -lam,
        5: lam,
        6: 5.8 - lam,
        7: 5.8 + lam,
        8: -5.8 - lam,
        9: -5.8 + lam,
    }
    for label, center in expected.items():
        assert lines.line(label).center_ghz == pytest.approx(center, abs=1e-9)
    assert lines.daughter_separation() == pytest.approx(2.0 * lam, abs=1e-12)
    assert lines.lambda_ghz == pytest.approx(lam, abs=1e-12)
    assert lines.secular


def test_line_weights_are_normalized_and_central_suppressed(drive):
    lines = doubly_dressed_lines(drive)
    weights = np.array([rec.weight for rec in lines.lines])
    assert weights.max() == pytest.approx(1.0, rel=1e-12)
    assert (weights >= 0.0).all()
    assert lines.line(1).weight < 1e-12
    assert sum(lines.populations) == pytest.approx(1.0, rel=1e-12)


def test_detuned_drive_keeps_line_pattern_consistent():
    drive = BichromaticDrive(
        strong=DriveField(detuning=0.7, rabi=2.9),
        weak=DriveField(detuning=0.7 - 5.8, rabi=0.87),
    )
    lines = doubly_dressed_lines(drive)
    # the replica lines track the lasers rigidly
    assert lines.line(1).center_ghz == pytest.approx(0.7, abs=1e-12)
    assert lines.line(2).center_ghz == pytest.approx(0.7 + 5.8, abs=1e-12)
    assert lines.line(3).center_ghz == pytest.approx(0.7 - 5.8, abs=1e-12)
    # every quartet pair is split by the same gap, centred on a replica
    lam = lines.lambda_ghz
    for lo, hi, mid in ((4, 5, 1), (6, 7, 2), (8, 9, 3)):
        assert lines.line(hi).center_ghz - lines.line(lo).center_ghz == (
            pytest.approx(2.0 * lam, abs=1e-12)
        )
        assert 0.5 * (lines.line(hi).center_ghz + lines.line(lo).center_ghz) == (
            pytest.approx(lines.line(mid).center_ghz, abs=1e-12)
        )


def test_strong_weak_field_flags_nonsecular(emitter, strong):
    drive = BichromaticDrive(strong=strong, weak=DriveField(detuning=-5.8, rabi=1.6))
    with pytest.warns(NumericsWarning):
        lines = doubly_dressed_lines(drive)
    assert not lines.secular


def test_central_amplitude_vanishes_on_resonance():
    for g in (0.1, 0.87, 1.45):
        assert abs(central_line_amplitude(2.9, g, 0.0)) == 0.0


def test_central_amplitude_limits_and_sign():
    assert float(central_line_amplitude(2.9, 0.0, 1.0)) == 0.5
    assert float(central_line_amplitude(2.9, 0.0, -1.0)) == -0.5
    amp = central_line_amplitude(2.9, 0.87, 0.4)
    assert type(amp) is float and 0.0 < amp < 0.5
    assert float(central_line_amplitude(2.9, 0.87, 400.0)) == pytest.approx(0.5, abs=1e-5)
    assert float(central_line_amplitude(2.9, 0.87, -0.4)) == -float(amp)


def test_central_amplitude_validation():
    with pytest.raises(ValidationError):
        central_line_amplitude(np.nan, 0.5, 0.0)
    with pytest.raises(ValidationError):
        central_line_amplitude(2.9, -0.1, 0.0)
    with pytest.warns(NumericsWarning):
        central_line_amplitude(2.9, 2.0, 0.3)


def test_populations_match_time_propagation_oracle(emitter, drive):
    p_plus, p_minus = dressed_populations(emitter, drive)
    assert p_plus == pytest.approx(ORACLE_POPULATIONS[0], abs=1e-6)
    assert p_minus == pytest.approx(ORACLE_POPULATIONS[1], abs=1e-6)
    assert p_plus + p_minus == pytest.approx(1.0, rel=1e-12)


def test_populations_without_weak_field_are_even(emitter, strong):
    drive = BichromaticDrive(strong=strong, weak=DriveField(detuning=-5.8, rabi=0.0))
    p_plus, p_minus = dressed_populations(emitter, drive)
    assert p_plus == pytest.approx(0.5, abs=1e-12)
    assert p_minus == pytest.approx(0.5, abs=1e-12)


def test_populations_without_any_drive_sit_in_the_ground_state(emitter):
    drive = BichromaticDrive(
        strong=DriveField(detuning=0.0, rabi=0.0),
        weak=DriveField(detuning=-5.8, rabi=0.0),
    )
    assert dressed_populations(emitter, drive) == (0.0, 1.0)


def test_populations_reject_equal_detunings(emitter, strong):
    drive = BichromaticDrive(strong=strong, weak=DriveField(detuning=0.0, rabi=0.87))
    with pytest.raises(DegenerateDriveError):
        dressed_populations(emitter, drive)


def test_subharmonic_shift_reference_values():
    # alpha^2 = 0.359, Omega = 2.9: the first three orders truncate to
    # 0.13, 0.34, 0.19 at two decimals
    exact = [0.13014, 0.34703, 0.19521]
    for n, ref in zip((1, 2, 3), exact):
        shift = subharmonic_shift(n, 2.9)
        assert shift == pytest.approx(ref, abs=5e-6)
    floored = [np.floor(subharmonic_shift(n, 2.9) * 100) / 100 for n in (1, 2, 3)]
    assert floored == [0.13, 0.34, 0.19]


def test_subharmonic_shift_validation():
    with pytest.raises(ValidationError):
        subharmonic_shift(0, 2.9)
    with pytest.raises(ValidationError):
        subharmonic_shift(1.5, 2.9)
    with pytest.raises(ValidationError):
        subharmonic_shift(True, 2.9)
    with pytest.raises(ValidationError):
        subharmonic_shift(2, -1.0)
    with pytest.raises(ValidationError):
        subharmonic_shift(2, 2.9, alpha_squared=np.nan)
