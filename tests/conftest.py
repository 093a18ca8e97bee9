"""Shared fixtures: the reference emitter and drives used throughout.

The reference parameter set (T1 = 390 ps, T2 = 424 ps, full Rabi
splitting 5.8 GHz, weak splitting 0.6 of the strong one) exercises the
deep strong-driving regime where every feature of interest shows up.
"""

import time

import numpy as np
import pytest

from bifluor import floquet
from bifluor.emitter import BichromaticDrive, DriveField, EmitterParams
from bifluor.scans import EtalonFilter, subharmonic_axis, subharmonic_scan

REF_T1_PS = 390.0
REF_T2_PS = 424.0
REF_RABI = 2.9  # half splitting Omega; sidebands at +-5.8 GHz
REF_G = 0.3 * REF_RABI  # half splitting G of the weak field, 2G = 0.6 Omega


@pytest.fixture()
def emitter():
    return EmitterParams(t1=REF_T1_PS, t2=REF_T2_PS)


@pytest.fixture()
def strong():
    return DriveField(detuning=0.0, rabi=REF_RABI)


@pytest.fixture()
def drive(strong):
    # weak field on the lower dressed sideband: Delta2 = 0
    return BichromaticDrive(
        strong=strong, weak=DriveField(detuning=-2.0 * REF_RABI, rabi=REF_G)
    )


@pytest.fixture()
def pool_gate_open(monkeypatch):
    """Maps of any size run in a pool when they have workers and rows to share."""
    monkeypatch.setattr(floquet, "_POOL_MIN_WORK", 0)


@pytest.fixture(scope="session")
def subharmonic_reference():
    """Five-order subharmonic scan at the reference power ratio.

    Eighty spectra, so it is computed once and shared across the test
    run; the elapsed wall time is returned alongside the scan for the
    runtime check.
    """
    em = EmitterParams(t1=REF_T1_PS, t2=REF_T2_PS)
    strong_field = DriveField(detuning=0.0, rabi=REF_RABI)
    etalon = EtalonFilter(center_ghz=0.0, fsr_ghz=9.18, fwhm_ghz=0.14)
    axis = subharmonic_axis(REF_RABI, points_per_order=16)
    t0 = time.perf_counter()
    scan = subharmonic_scan(em, strong_field, axis, etalon)
    return scan, time.perf_counter() - t0


@pytest.fixture()
def fine_grid():
    return np.round(np.arange(-900, 901) * 0.01, 2)
