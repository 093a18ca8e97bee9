"""Parameter records and unit conventions for a driven two-level emitter.

All public interfaces quote ordinary frequencies in gigahertz, measured
from the emitter's transition frequency, and times in picoseconds.
Internal dynamics (Bloch drift matrices, Liouvillians) run on the
angular scale, radians per nanosecond, where decay rates and Rabi
frequencies combine without stray 2*pi factors.  1 GHz of ordinary
frequency is 2*pi rad/ns.

Rabi convention: a drive record stores the half splitting.  A resonant
monochromatic drive with ``rabi = x`` GHz produces fluorescence
sidebands displaced by ``2*x`` GHz from the drive frequency, and a weak
field with ``rabi = g`` splits each line it dresses by ``2*g``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UnphysicalDephasingError, ValidationError

TWO_PI = 2.0 * math.pi

__all__ = [
    "TWO_PI",
    "derive_rates",
    "EmitterParams",
    "DriveField",
    "BichromaticDrive",
]


def derive_rates(t1: float, t2: float) -> tuple[float, float]:
    """Spontaneous-emission and pure-dephasing rates from lifetimes.

    ``t1`` (population lifetime) and ``t2`` (coherence time) are in ps.
    Returns ``(gamma_sp, gamma_pd)`` in 1/ns::

        gamma_sp = 1000 / t1
        gamma_pd = 1000 / t2 - 500 / t1

    Raises ValidationError for non-positive or non-finite times and
    UnphysicalDephasingError when t2 > 2*t1 (which would need a negative
    pure dephasing rate).
    """
    if not (0.0 < t1 < math.inf and 0.0 < t2 < math.inf):
        raise ValidationError(
            f"lifetimes must be positive and finite, got t1={t1!r} ps, t2={t2!r} ps"
        )
    if t2 > 2.0 * t1:
        raise UnphysicalDephasingError(
            f"t2 <= 2*t1 required for a non-negative dephasing rate, "
            f"got t1={t1!r} ps, t2={t2!r} ps"
        )
    return 1000.0 / t1, 1000.0 / t2 - 500.0 / t1


@dataclass(frozen=True)
class EmitterParams:
    """Two-level emitter described by lifetimes in picoseconds.

    Its transition frequency is the origin of every frequency axis.
    """

    t1: float
    t2: float

    def __post_init__(self):
        derive_rates(self.t1, self.t2)

    @property
    def gamma_sp(self) -> float:
        """Spontaneous emission rate, 1/ns."""
        return derive_rates(self.t1, self.t2)[0]

    @property
    def gamma_pd(self) -> float:
        """Pure dephasing rate, 1/ns."""
        return derive_rates(self.t1, self.t2)[1]

    @property
    def t1_ns(self) -> float:
        return self.t1 / 1000.0

    @property
    def t2_ns(self) -> float:
        return self.t2 / 1000.0


@dataclass(frozen=True)
class DriveField:
    """One monochromatic drive: detuning from the transition and half Rabi, GHz."""

    detuning: float
    rabi: float

    def __post_init__(self):
        if not math.isfinite(self.detuning):
            raise ValidationError(f"detuning must be finite, got {self.detuning!r}")
        if not (math.isfinite(self.rabi) and self.rabi >= 0.0):
            raise ValidationError(f"rabi must be finite and >= 0, got {self.rabi!r}")


@dataclass(frozen=True)
class BichromaticDrive:
    """Strong field (half Rabi Omega, detuning Delta1) plus a weak one.

    The weak field has half Rabi G and detuning Delta3, with
    ``relative_phase`` the optical phase of the weak field relative to
    the strong one at t = 0 (radians).  Two derived detunings are
    exposed read-only:

    * ``delta``: beat detuning Delta3 - Delta1 (GHz), the frequency
      every periodic quantity oscillates at;
    * ``delta2``: weak-field detuning from the lower Rabi sideband,
      Delta2 = Delta3 + 2*Omega, the natural axis for the doubly
      dressed spectra (stated for Delta1 = 0, where the sideband sits
      2*Omega below the transition).
    """

    strong: DriveField
    weak: DriveField
    relative_phase: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.relative_phase):
            raise ValidationError(
                f"relative_phase must be finite, got {self.relative_phase!r}"
            )

    @property
    def delta(self) -> float:
        return self.weak.detuning - self.strong.detuning

    @property
    def delta2(self) -> float:
        return self.weak.detuning + 2.0 * self.strong.rabi
