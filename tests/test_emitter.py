"""Unit conventions, rate derivation, and parameter validation."""

import math

import pytest

from bifluor.emitter import (
    BichromaticDrive,
    DriveField,
    EmitterParams,
    derive_rates,
)
from bifluor.errors import UnphysicalDephasingError, ValidationError


def test_rates_from_reference_lifetimes():
    gamma_sp, gamma_pd = derive_rates(390.0, 424.0)
    assert gamma_sp == pytest.approx(1000.0 / 390.0, rel=1e-15)
    assert gamma_pd == pytest.approx(1000.0 / 424.0 - 500.0 / 390.0, rel=1e-15)
    assert gamma_sp == pytest.approx(2.5641, abs=5e-5)
    assert gamma_pd == pytest.approx(1.0764, abs=5e-5)


def test_radiative_limit_has_zero_dephasing():
    gamma_sp, gamma_pd = derive_rates(400.0, 800.0)
    assert gamma_sp == 2.5
    assert gamma_pd == pytest.approx(0.0, abs=1e-15)


def test_coherence_beyond_radiative_limit_rejected():
    with pytest.raises(UnphysicalDephasingError):
        derive_rates(390.0, 781.0)


@pytest.mark.parametrize("t1,t2", [(0.0, 424.0), (390.0, 0.0), (-1.0, 424.0)])
def test_nonpositive_lifetimes_rejected(t1, t2):
    with pytest.raises(ValidationError):
        derive_rates(t1, t2)


def test_emitter_params_expose_rates():
    em = EmitterParams(t1=390.0, t2=424.0)
    assert em.gamma_sp == pytest.approx(1000.0 / 390.0)
    assert em.gamma_pd == pytest.approx(1000.0 / 424.0 - 500.0 / 390.0)
    assert em.t1_ns == pytest.approx(0.390)
    assert em.t2_ns == pytest.approx(0.424)
    with pytest.raises(UnphysicalDephasingError):
        EmitterParams(t1=390.0, t2=800.0)


def test_drive_field_validation():
    with pytest.raises(ValidationError):
        DriveField(detuning=math.nan, rabi=1.0)
    with pytest.raises(ValidationError):
        DriveField(detuning=0.0, rabi=-0.1)
    with pytest.raises(ValidationError):
        DriveField(detuning=0.0, rabi=math.inf)


def test_bichromatic_derived_detunings():
    drive = BichromaticDrive(
        strong=DriveField(detuning=0.5, rabi=2.9),
        weak=DriveField(detuning=-5.3, rabi=0.87),
    )
    assert drive.delta == pytest.approx(-5.8)
    assert drive.delta2 == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        BichromaticDrive(
            strong=DriveField(detuning=0.0, rabi=2.9),
            weak=DriveField(detuning=-5.8, rabi=0.87),
            relative_phase=math.inf,
        )
