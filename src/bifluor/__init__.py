"""Resonance fluorescence of a driven two-level emitter.

Simulates and analyzes the emission of a two-level system (a quantum
dot exciton, say) under one strong and one weak laser: the Mollow
triplet, the doubly-dressed nine-line spectra with their interference
cancellation, the shifted subharmonic resonances, and the flat
sidebands of two equal-frequency drives.

Layers, roughly bottom to top:

* :mod:`bifluor.emitter`  parameter records and unit conventions
* :mod:`bifluor.bloch`    monochromatic Bloch equations and spectra
* :mod:`bifluor.floquet`  periodic Liouvillian engine (two drives)
* :mod:`bifluor.dressed`  closed-form dressed-state analysis
* :mod:`bifluor.scans`    maps, dip scans, degenerate-drive limits
* :mod:`bifluor.cli`      the ``bifluor`` command
"""

from .bloch import (
    BlochSystem,
    MollowFit,
    Spectrum,
    build_bloch,
    fit_mollow,
    mollow_shape,
    mollow_spectrum,
    steady_state,
)
from .dressed import (
    DoublyDressedLines,
    central_line_amplitude,
    doubly_dressed_lines,
    dressed_populations,
    subharmonic_shift,
)
from .emitter import (
    TWO_PI,
    BichromaticDrive,
    DriveField,
    EmitterParams,
    derive_rates,
)
from .errors import (
    BifluorError,
    ConfigError,
    CoverageError,
    DegenerateDriveError,
    FitFailure,
    NumericalError,
    NumericsWarning,
    SingularSystemError,
    TruncationError,
    TruncationWarning,
    UnphysicalDephasingError,
    ValidationError,
)
from .floquet import (
    PeriodicLiouvillian,
    PeriodicState,
    build_periodic_liouvillian,
    emission_spectrum,
    half_fourier,
    periodic_steady_state,
)
from .scans import (
    CentralCurve,
    EtalonFilter,
    ScanResult2D,
    SubharmonicScan,
    central_intensity_curve,
    degenerate_spectrum,
    detuning_map,
    fit_delta1,
    plateau_edges,
    subharmonic_axis,
    subharmonic_scan,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "TWO_PI",
    "derive_rates",
    "EmitterParams",
    "DriveField",
    "BichromaticDrive",
    "BlochSystem",
    "Spectrum",
    "build_bloch",
    "steady_state",
    "mollow_spectrum",
    "mollow_shape",
    "MollowFit",
    "fit_mollow",
    "PeriodicLiouvillian",
    "PeriodicState",
    "build_periodic_liouvillian",
    "periodic_steady_state",
    "emission_spectrum",
    "half_fourier",
    "DoublyDressedLines",
    "doubly_dressed_lines",
    "central_line_amplitude",
    "dressed_populations",
    "subharmonic_shift",
    "EtalonFilter",
    "ScanResult2D",
    "detuning_map",
    "CentralCurve",
    "central_intensity_curve",
    "fit_delta1",
    "SubharmonicScan",
    "subharmonic_axis",
    "subharmonic_scan",
    "degenerate_spectrum",
    "plateau_edges",
    "BifluorError",
    "ValidationError",
    "UnphysicalDephasingError",
    "DegenerateDriveError",
    "CoverageError",
    "ConfigError",
    "NumericalError",
    "SingularSystemError",
    "TruncationError",
    "FitFailure",
    "TruncationWarning",
    "NumericsWarning",
]
