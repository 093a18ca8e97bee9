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

Each closed-form rule is written once.  The quartet geometry (theta,
g, Delta_pair, Lambda, phi) lives in _quartet, and the line-1 weight in
_central_weight, which the Delta1 fit in scans shares.
doubly_dressed_lines lists the six coefficients of lines 4-9 once, as
the two branches that leave the lower and the upper quartet sublevel,
and takes the sublevel populations from their sums by detailed balance.
The secular limit G <= Omega / 2 and its warning live in _secular,
which central_line_amplitude shares.  dressed_populations builds the
dressed doublet from the same theta.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import bloch
from .emitter import TWO_PI, BichromaticDrive, EmitterParams
from .errors import NumericsWarning, ValidationError
from .floquet import build_periodic_liouvillian, periodic_steady_state

__all__ = [
    "LineRecord",
    "DoublyDressedLines",
    "doubly_dressed_lines",
    "central_line_amplitude",
    "dressed_populations",
    "subharmonic_shift",
]

ALPHA_SQUARED = 0.359  # the paper's weak-to-strong power ratio in the subharmonic scans


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
    lambda_ghz: float
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


def _central_weight(rabi, delta1, g, delta):
    """Unnormalized central-line (label 1) weight, vectorized like _quartet.

    sin^2 theta cos^2 theta cos^2 2 phi, with cos^2 2 phi taken as
    delta_pair^2 / Lambda^2 (1 where Lambda = 0), so it is exactly 0 on
    the dressed resonance.
    """
    theta, g_eff, d_pair, _lam, _phi = _quartet(rabi, delta1, g, delta)
    lam2 = np.asarray(d_pair * d_pair + 4.0 * g_eff * g_eff)
    cos2p_sq = np.divide(d_pair * d_pair, lam2, out=np.ones_like(lam2), where=lam2 > 0.0)
    return (np.sin(theta) * np.cos(theta)) ** 2 * cos2p_sq


def _secular(rabi, g) -> bool:
    """Whether G <= Omega / 2, where the pair-by-pair treatment holds; warns if not."""
    if g <= 0.5 * rabi:
        return True
    warnings.warn(
        "weak drive exceeds half the strong Rabi frequency; the secular "
        "quartet model is unreliable",
        NumericsWarning,
        stacklevel=3,
    )
    return False


def doubly_dressed_lines(drive: BichromaticDrive) -> DoublyDressedLines:
    """Nine line centers and weights from the secular quartet model.

    Centers are relative to the bare transition.  The quartet couples
    the dressed pair that becomes degenerate when the weak field hits
    the inner dressed transition; its gap Lambda never closes below
    2 G, producing the avoided crossing of the daughter lines.

    Lines 4, 6 and 8 leave the lower quartet sublevel and 5, 7 and 9
    the upper one, at -Lambda and +Lambda around lines 1, 2 and 3.  The
    sublevel populations follow from detailed balance: each branch's
    summed coefficients are its sublevel's decay rate, and
    p+ sum(upper) = p- sum(lower), so both sublevels emit equally and
    neither traps the population.
    """
    delta = drive.delta
    d1 = drive.strong.detuning
    theta, _g_eff, _d_pair, lam, phi = _quartet(drive.strong.rabi, d1, drive.weak.rabi, delta)
    sin_t2, cos_t2 = np.sin(theta) ** 2, np.cos(theta) ** 2
    sin_p, cos_p = np.sin(phi), np.cos(phi)
    cross = sin_t2 * cos_t2 * np.sin(2.0 * phi) ** 2
    # unweighted coefficients of lines 4, 6, 8 (lower) and 5, 7, 9 (upper)
    lower = (cross, cos_t2**2 * sin_p**4, sin_t2**2 * cos_p**4)
    upper = (cross, cos_t2**2 * cos_p**4, sin_t2**2 * sin_p**4)
    p_plus = sum(lower) / (sum(lower) + sum(upper))  # detailed balance
    p_minus = 1.0 - p_plus

    centers = (0.0, -delta, delta)
    parents = (
        _central_weight(drive.strong.rabi, d1, drive.weak.rabi, delta),
        cos_t2**2 * sin_p**2 * cos_p**2,
        sin_t2**2 * sin_p**2 * cos_p**2,
    )
    rows = list(zip(centers, parents))  # labels 1-3, then the pairs 4-9
    for center, down, up in zip(centers, lower, upper):
        rows += [(center - lam, p_minus * down), (center + lam, p_plus * up)]
    top = max(weight for _center, weight in rows)
    top = top if top > 0.0 else 1.0  # dividing leaves the strongest exactly 1
    lines = tuple(
        LineRecord(label=k, center_ghz=float(d1 + center), weight=float(weight / top))
        for k, (center, weight) in enumerate(rows, start=1)
    )
    return DoublyDressedLines(
        lines=lines,
        lambda_ghz=float(lam),
        populations=(float(p_plus), float(p_minus)),
        secular=_secular(drive.strong.rabi, drive.weak.rabi),
    )


def central_line_amplitude(rabi: float, g: float, delta2: float) -> float:
    """Signed central-line emission amplitude for a resonant strong drive.

    With the strong field on resonance (theta = pi/4) the two central
    transitions interfere; the net amplitude is
    delta2 / (2 sqrt(delta2^2 + 4 g^2)), which vanishes when the weak
    field sits exactly on the dressed resonance and recovers magnitude
    1/2 as the weak field is removed.  With no weak field (g = 0) there
    is nothing to interfere with: the amplitude is the bare dressed
    dipole 1/2, signed like delta2.
    """
    for name, val in (("rabi", rabi), ("g", g), ("delta2", delta2)):
        if not np.isfinite(val):
            raise ValidationError(f"{name} must be finite")
    if rabi < 0.0 or g < 0.0:
        raise ValidationError("rabi and g must be non-negative")
    if rabi > 0.0:
        _secular(rabi, g)
    if g == 0.0:
        return 0.5 if delta2 == 0.0 else float(0.5 * np.sign(delta2))
    return float(0.5 * delta2 / np.hypot(delta2, 2.0 * g))


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
    theta, _g_eff, _d_pair, _lam, phi = _quartet(
        drive.strong.rabi, drive.strong.detuning, drive.weak.rabi, drive.delta
    )
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    upper = np.array([sin_t, cos_t])  # dressed doublet in the (g, e) basis
    lower = np.array([cos_t, -sin_t])
    if drive.weak.rabi == 0.0:
        u, v, w = bloch.steady_state(emitter, drive.strong)
        rho = 0.5 * np.array(
            [[1.0 - w, u + 1j * v], [u - 1j * v, 1.0 + w]], dtype=complex
        )
        p_up = float(np.real(upper.conj() @ rho @ upper))
        return p_up, 1.0 - p_up

    pl = build_periodic_liouvillian(emitter, drive)
    state = periodic_steady_state(pl)
    basis = np.column_stack([upper, lower]).astype(complex)
    rho0 = basis.conj().T @ state.harmonic_matrix(0) @ basis
    rho1 = basis.conj().T @ state.harmonic_matrix(1) @ basis

    # Weak coupling seen by the inner doublet transition; its phase
    # fixes the orientation of the quartet superposition, and the
    # lower-state component of each sublevel rotates as e^{-i delta t}.
    kap = 2.0 * TWO_PI * drive.weak.rabi
    w_in = -kap * np.exp(1j * drive.relative_phase) * sin_t**2
    beta = float(np.angle(w_in))

    c, s = float(np.cos(phi)), float(np.sin(phi))
    pop_up = float(np.real(rho0[0, 0]))
    pop_lo = float(np.real(rho0[1, 1]))
    cross = 2.0 * c * s * float(np.real(np.exp(1j * beta) * rho1[0, 1]))
    p_plus = c * c * pop_up + s * s * pop_lo + cross
    p_minus = s * s * pop_up + c * c * pop_lo - cross
    total = p_plus + p_minus
    return float(p_plus / total), float(p_minus / total)


def subharmonic_shift(n: int, rabi: float, alpha_squared: float = ALPHA_SQUARED) -> float:
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
