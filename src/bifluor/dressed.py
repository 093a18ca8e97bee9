"""Dressed-state analysis for one strong and one weak drive.

The strong field splits the bare transition into a dressed doublet
(splitting s = sqrt((2 Omega)^2 + Delta1^2)).  A weak second field
tuned near a dressed transition couples near-degenerate dressed pairs
into quartets; the secular treatment below yields closed forms for the
nine emission lines, their weights, and the interference that removes
the central line when the weak field sits exactly on the dressed
resonance (Delta2 = 0).

Conventions: DriveField.rabi is the half splitting for both fields, so
the weak bare coupling in the Hamiltonian is kappa_w = 2 G.  Projected
on the inner dressed dipole this gives the pair coupling
g = 2 G sin^2(theta) (equal to G on resonance) and the quartet gap
Lambda = sqrt(Delta_pair^2 + 4 g^2), which is 2 G at Delta2 = 0.

Line labels (centers relative to the strong laser; add Delta1 for
positions relative to the bare transition):

    1: 0            central line (cancels at Delta2 = 0)
    2: -delta       replica, weak-photon exchange one way
    3: +delta       replica, the other way
    4: -Lambda      lower interference daughter
    5: +Lambda      upper interference daughter
    6: -delta - Lambda \
    7: -delta + Lambda  outer quartet satellites
    8: +delta - Lambda /
    9: +delta + Lambda

Pairs (4,5), (6,7), (8,9) trace the hyperbolic anti-crossing as the
weak field scans through the dressed resonance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import bloch
from .emitter import TWO_PI, BichromaticDrive, DriveField, EmitterParams
from .errors import NumericsWarning, ValidationError
from .floquet import build_periodic_liouvillian, periodic_steady_state

__all__ = [
    "SinglyDressed",
    "singly_dressed",
    "LineRecord",
    "DoublyDressedLines",
    "doubly_dressed_lines",
    "CentralAmplitude",
    "central_line_amplitude",
    "dressed_populations",
    "subharmonic_shift",
]


@dataclass(frozen=True)
class SinglyDressed:
    """Dressed doublet of a single strong drive.

    ``upper`` and ``lower`` are state vectors in the (g, e) basis; the
    mixing angle theta is pi/4 on resonance and goes to 0 (pi/2) for
    far red (blue) laser detuning, where the upper state becomes the
    bare excited (ground) state.
    """

    theta: float
    splitting_ghz: float
    upper: np.ndarray
    lower: np.ndarray

    def __post_init__(self):
        self.upper.setflags(write=False)
        self.lower.setflags(write=False)

    @property
    def dipole_upper(self) -> float:
        """<u|sigma-|u>, sin(theta) cos(theta)."""
        return float(np.sin(self.theta) * np.cos(self.theta))

    @property
    def dipole_lower(self) -> float:
        return -self.dipole_upper

    @property
    def dipole_inner(self) -> float:
        """<u|sigma-|l>, -sin^2(theta); couples to the weak field."""
        return -float(np.sin(self.theta) ** 2)

    @property
    def dipole_outer(self) -> float:
        """<l|sigma-|u>, cos^2(theta)."""
        return float(np.cos(self.theta) ** 2)


def singly_dressed(strong: DriveField) -> SinglyDressed:
    """Diagonalize the strong-drive Hamiltonian in the rotating frame."""
    theta = 0.5 * np.arctan2(2.0 * strong.rabi, 0.0 - strong.detuning)
    s = float(np.hypot(2.0 * strong.rabi, strong.detuning))
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    upper = np.array([sin_t, cos_t])  # (g, e) components
    lower = np.array([cos_t, -sin_t])
    return SinglyDressed(theta=float(theta), splitting_ghz=s, upper=upper, lower=lower)


@dataclass(frozen=True)
class LineRecord:
    label: int
    center_ghz: float
    weight: float


@dataclass(frozen=True)
class DoublyDressedLines:
    """Secular nine-line decomposition for a bichromatic drive.

    Weights are radiative intensities, normalized so the strongest
    line is 1.  ``secular`` is False when the weak field is too strong
    (G > Omega / 2) for the pair-by-pair treatment to be trusted.
    """

    lines: tuple[LineRecord, ...]
    theta: float
    phi: float
    lambda_ghz: float
    g_eff_ghz: float
    delta_pair_ghz: float
    populations: tuple[float, float]
    secular: bool

    def line(self, label: int) -> LineRecord:
        for rec in self.lines:
            if rec.label == label:
                return rec
        raise ValidationError(f"no line labeled {label}")

    def daughter_separation(self) -> float:
        """Distance between the interference daughters (labels 4, 5)."""
        return self.line(5).center_ghz - self.line(4).center_ghz


def _quartet(rabi, delta1, g, delta):
    """Secular quartet geometry, vectorized over every argument.

    For a strong field (half Rabi ``rabi``, detuning ``delta1``) and a
    weak one (half Rabi ``g``, beat ``delta`` = Delta3 - Delta1), all in
    GHz, returns (theta, g_eff, delta_pair, Lambda, phi): the strong-field
    mixing angle, the pair coupling 2 G sin^2 theta, the pair detuning
    s + delta, the quartet gap sqrt(delta_pair^2 + 4 g_eff^2) and the
    quartet mixing angle, with tan 2 phi = 2 g_eff / delta_pair.
    """
    theta = 0.5 * np.arctan2(2.0 * rabi, 0.0 - delta1)
    g_eff = 2.0 * g * np.sin(theta) ** 2
    d_pair = np.hypot(2.0 * rabi, delta1) + delta
    lam = np.hypot(d_pair, 2.0 * g_eff)
    phi = 0.5 * np.arctan2(2.0 * g_eff, d_pair)
    return theta, g_eff, d_pair, lam, phi


def doubly_dressed_lines(drive: BichromaticDrive) -> DoublyDressedLines:
    """Nine line centers and weights from the secular quartet model.

    Centers are relative to the bare transition.  The quartet couples
    the dressed pair that becomes degenerate when the weak field hits
    the inner dressed transition; its gap Lambda never closes below
    2 G, producing the avoided crossing of the daughter lines.
    """
    delta = drive.delta
    d1 = drive.strong.detuning
    theta, g_eff, d_pair, lam, phi = _quartet(drive.strong.rabi, d1, drive.weak.rabi, delta)
    sin_t2, cos_t2 = np.sin(theta) ** 2, np.cos(theta) ** 2
    sin_p, cos_p = np.sin(phi), np.cos(phi)
    sin2p = np.sin(2.0 * phi)
    cos2p = np.cos(2.0 * phi)

    # radiative rates between the quartet eigenstates set the secular
    # populations: detailed balance of the summed |amplitude|^2
    rate_down = (
        sin_t2 * cos_t2 * sin2p**2
        + sin_t2**2 * sin_p**4
        + cos_t2**2 * cos_p**4
    )  # + -> -
    rate_up = (
        sin_t2 * cos_t2 * sin2p**2
        + sin_t2**2 * cos_p**4
        + cos_t2**2 * sin_p**4
    )  # - -> +
    p_plus = rate_up / (rate_up + rate_down)
    p_minus = 1.0 - p_plus

    cross = sin_t2 * cos_t2 * sin2p**2
    raw = {
        1: sin_t2 * cos_t2 * cos2p**2,
        4: p_minus * cross,
        5: p_plus * cross,
        2: cos_t2**2 * sin_p**2 * cos_p**2,
        6: p_minus * cos_t2**2 * sin_p**4,
        7: p_plus * cos_t2**2 * cos_p**4,
        3: sin_t2**2 * sin_p**2 * cos_p**2,
        8: p_minus * sin_t2**2 * cos_p**4,
        9: p_plus * sin_t2**2 * sin_p**4,
    }
    centers = {
        1: 0.0,
        2: -delta,
        3: +delta,
        4: -lam,
        5: +lam,
        6: -delta - lam,
        7: -delta + lam,
        8: +delta - lam,
        9: +delta + lam,
    }
    top = max(raw.values())
    scale = 1.0 / top if top > 0.0 else 1.0
    lines = tuple(
        LineRecord(label=k, center_ghz=float(d1 + centers[k]), weight=float(raw[k] * scale))
        for k in sorted(centers)
    )
    secular = drive.weak.rabi <= 0.5 * drive.strong.rabi
    if not secular:
        warnings.warn(
            "weak drive exceeds half the strong Rabi frequency; secular "
            "quartet weights are unreliable",
            NumericsWarning,
            stacklevel=2,
        )
    return DoublyDressedLines(
        lines=lines,
        theta=float(theta),
        phi=float(phi),
        lambda_ghz=float(lam),
        g_eff_ghz=float(g_eff),
        delta_pair_ghz=float(d_pair),
        populations=(float(p_plus), float(p_minus)),
        secular=secular,
    )


@dataclass(frozen=True)
class CentralAmplitude:
    """Signed central-line amplitude with an interference marker.

    ``interference`` is False when the weak field is absent, in which
    case there is nothing to cancel and the magnitude is the bare
    dressed dipole 1/2.
    """

    value: float
    interference: bool

    def __float__(self) -> float:
        return self.value

    def __abs__(self) -> float:
        return abs(self.value)


def central_line_amplitude(rabi: float, g: float, delta2: float) -> CentralAmplitude:
    """Central-line emission amplitude for a resonant strong drive.

    With the strong field on resonance (theta = pi/4) the two central
    transitions interfere; the net amplitude is
    delta2 / (2 sqrt(delta2^2 + 4 g^2)), which vanishes when the weak
    field sits exactly on the dressed resonance and recovers magnitude
    1/2 as the weak field is removed.
    """
    for name, val in (("rabi", rabi), ("g", g), ("delta2", delta2)):
        if not np.isfinite(val):
            raise ValidationError(f"{name} must be finite")
    if rabi < 0.0 or g < 0.0:
        raise ValidationError("rabi and g must be non-negative")
    if g > 0.5 * rabi and rabi > 0.0:
        warnings.warn(
            "weak drive exceeds half the strong Rabi frequency; secular "
            "amplitude is unreliable",
            NumericsWarning,
            stacklevel=2,
        )
    if g == 0.0:
        value = 0.5 if delta2 == 0.0 else float(0.5 * np.sign(delta2))
        return CentralAmplitude(value=value, interference=False)
    lam = float(np.hypot(delta2, 2.0 * g))
    return CentralAmplitude(value=float(0.5 * delta2 / lam), interference=True)


def dressed_populations(
    emitter: EmitterParams, drive: BichromaticDrive
) -> tuple[float, float]:
    """Steady-state populations of the doubly dressed sublevels (n+, n-).

    The periodic steady state of the master equation is transformed
    into the doubly dressed basis: the strong drive defines the
    dressed doublet, and the weak field splits each doublet state
    again with effective coupling g_eff and pair detuning s + delta.
    The quartet sublevels rotate with the beat, so the beat average of
    the projection keeps the static doublet populations plus the first
    beat harmonic of the doublet coherence.  With no weak field the
    doublet populations themselves are returned; with no drive at all
    the ground state carries everything.  The two values sum to one.
    """
    sd = singly_dressed(drive.strong)
    if drive.weak.rabi == 0.0:
        system = bloch.build_bloch(emitter, drive.strong)
        u, v, w = bloch.steady_state(system)
        rho = 0.5 * np.array(
            [[1.0 - w, u + 1j * v], [u - 1j * v, 1.0 + w]], dtype=complex
        )
        p_up = float(np.real(sd.upper.conj() @ rho @ sd.upper))
        return p_up, 1.0 - p_up

    pl = build_periodic_liouvillian(emitter, drive)
    state = periodic_steady_state(pl)
    basis = np.column_stack([sd.upper, sd.lower]).astype(complex)
    rho0 = basis.conj().T @ state.harmonic_matrix(0) @ basis
    rho1 = basis.conj().T @ state.harmonic_matrix(1) @ basis

    # Weak coupling seen by the inner doublet transition; its phase
    # fixes the orientation of the quartet superposition, and the
    # lower-state component of each sublevel rotates as e^{-i delta t}.
    kap = 2.0 * TWO_PI * drive.weak.rabi
    w_in = -kap * np.exp(1j * drive.relative_phase) * np.sin(sd.theta) ** 2
    phi = _quartet(drive.strong.rabi, drive.strong.detuning, drive.weak.rabi, drive.delta)[4]
    beta = float(np.angle(w_in))

    c, s = float(np.cos(phi)), float(np.sin(phi))
    pop_up = float(np.real(rho0[0, 0]))
    pop_lo = float(np.real(rho0[1, 1]))
    cross = 2.0 * c * s * float(np.real(np.exp(1j * beta) * rho1[0, 1]))
    p_plus = c * c * pop_up + s * s * pop_lo + cross
    p_minus = s * s * pop_up + c * c * pop_lo - cross
    total = p_plus + p_minus
    return float(p_plus / total), float(p_minus / total)


def subharmonic_shift(n: int, rabi: float, alpha_squared: float = 0.359) -> float:
    """Shift of the n-photon subharmonic resonance, GHz.

    The weak-field resonances near 2 Omega / n are displaced by the ac
    Stark effect of the off-resonant sibling field.  For a power ratio
    alpha_squared the displacement is alpha^2 Omega / 8 for n = 1 and
    n alpha^2 Omega / (2 (n^2 - 1)) for n >= 2, with Omega the half
    splitting of the strong field.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValidationError("subharmonic order must be an integer")
    if n < 1:
        raise ValidationError("subharmonic order must be at least 1")
    if not np.isfinite(rabi) or rabi < 0.0:
        raise ValidationError("rabi must be finite and non-negative")
    if not np.isfinite(alpha_squared) or alpha_squared < 0.0:
        raise ValidationError("alpha_squared must be finite and non-negative")
    if n == 1:
        return alpha_squared * rabi / 8.0
    return n * alpha_squared * rabi / (2.0 * (n * n - 1.0))
