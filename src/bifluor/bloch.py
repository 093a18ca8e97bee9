"""Optical Bloch equations and the monochromatic fluorescence spectrum.

The two-level emitter driven by one monochromatic field is described in
the frame rotating at the drive by the Bloch vector (u, v, w) with
u = rho_ge + rho_eg, v = i(rho_ge - rho_eg), w = rho_ee - rho_gg
(basis order g, e; sigma- = |g><e|).  The drift matrix and pump vector
are in angular units (rad/ns and 1/ns, see the emitter module).

The emission spectrum comes from the quantum regression theorem: the
two-time correlation C(tau) = <sigma+(t+tau) sigma-(t)> obeys the same
drift as the Bloch vector, so the incoherent spectrum is twice the
real part of its Laplace-domain resolvent, a quadratic over the cubic
characteristic polynomial of the drift (no eigenvectors, so it stays
exact where the drift matrix is defective).  Spectra are computed for
a stack of drive strengths (one drive is a stack of one, the
phase-averaged degenerate drive a weighted stack of distinct phases),
each member optionally with its own T2: one builder makes the drift
matrices, one helper the polynomial coefficients, and one sum weights
the spectra in real arithmetic over grid chunks of bounded memory.
The sum returns one weighted mean, or with a weight matrix one column
per member: the triplet fit evaluates every (half Rabi, T2) point of a
Gauss-Newton Jacobian as one stack with identity weights.  Frequencies
are quoted in GHz relative to the bare transition; the drive sits at
the detuning Delta1, the Mollow sidebands at Delta1 +- sqrt((2*Omega)^2
+ Delta1^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .emitter import TWO_PI, DriveField, EmitterParams
from .errors import CoverageError, SingularSystemError, ValidationError
from .fitting import gauss_newton

__all__ = [
    "BlochSystem",
    "Spectrum",
    "build_bloch",
    "steady_state",
    "mollow_spectrum",
    "mollow_shape",
    "MollowFit",
    "fit_mollow",
]


@dataclass(frozen=True)
class BlochSystem:
    """Drift matrix (3x3, angular units) and pump vector for (u, v, w)."""

    drift: np.ndarray
    pump: np.ndarray
    emitter: EmitterParams
    drive: DriveField

    def __post_init__(self):
        self.drift.setflags(write=False)
        self.pump.setflags(write=False)


@dataclass(frozen=True)
class Spectrum:
    """Sampled emission spectrum.

    ``freq`` is a strictly increasing grid in GHz relative to the bare
    transition frequency; ``intensity`` is the incoherent spectral
    density on that grid (1/GHz units, normalized so that the elastic
    weight plus the integral of the incoherent part equals the excited
    state population).  Elastic (delta-function) components are kept
    out of ``intensity`` and reported as ``elastic_lines``, a tuple of
    (frequency, weight) pairs; ``elastic_weight`` is their sum.
    ``resolvent_cutoff`` is the harmonic cutoff at which the Sambe
    resolvent was accepted, 0 for a spectrum solved without one.
    """

    freq: np.ndarray
    intensity: np.ndarray
    elastic_weight: float
    elastic_lines: tuple = ()
    resolvent_cutoff: int = 0

    def __post_init__(self):
        freq = np.asarray(self.freq, dtype=float)
        intensity = np.asarray(self.intensity, dtype=float)
        if freq.ndim != 1 or freq.size < 2:
            raise ValidationError("freq must be a 1d grid with at least 2 points")
        if intensity.shape != freq.shape:
            raise ValidationError("freq and intensity must have the same shape")
        if not np.all(np.diff(freq) > 0.0):
            raise ValidationError("freq must be strictly increasing")
        floor = -1e-9 * max(float(intensity.max(initial=0.0)), 1e-300)
        if float(intensity.min()) < floor:
            raise ValidationError(
                f"negative intensity below the numerical floor: "
                f"min {float(intensity.min()):.3e} < {floor:.3e}"
            )
        object.__setattr__(self, "freq", freq)
        object.__setattr__(self, "intensity", intensity)
        freq.setflags(write=False)
        intensity.setflags(write=False)


def _drift_stack(t1: float, t2, detuning: float, rabis):
    """(n, 3, 3) drift matrices, one per half Rabi (GHz), and the pump (t1, t2 in ns).

    ``t2`` is a scalar or one coherence time per member, broadcast
    against ``rabis``.
    """
    d1 = TWO_PI * detuning
    base = np.array([[0.0, -d1, 0.0], [d1, 0.0, 0.0], [0.0, 0.0, -1.0 / t1]])
    base = base - np.diag([1.0, 1.0, 0.0]) / np.asarray(t2, dtype=float).reshape(-1, 1, 1)
    coupling = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0], [0.0, -2.0, 0.0]])
    om = TWO_PI * np.asarray(rabis, dtype=float).reshape(-1, 1, 1)
    return base + om * coupling, np.array([0.0, 0.0, -1.0 / t1])


def build_bloch(emitter: EmitterParams, drive: DriveField) -> BlochSystem:
    """Bloch drift matrix and pump for a single monochromatic drive."""
    drift, pump = _drift_stack(emitter.t1_ns, emitter.t2_ns, drive.detuning, drive.rabi)
    return BlochSystem(drift[0], pump, emitter, drive)


def _steady(drift: np.ndarray, pump: np.ndarray) -> np.ndarray:
    """Steady Bloch vectors of one drift matrix or of a stack of them."""
    if np.any(np.linalg.cond(drift) > 1e12):
        raise SingularSystemError("Bloch drift matrix is numerically singular")
    return np.linalg.solve(drift, -pump[:, None])[..., 0]


def steady_state(system: BlochSystem) -> np.ndarray:
    """Steady Bloch vector (u, v, w); the excited population is (1+w)/2."""
    return _steady(system.drift, system.pump)


def _resolvent(t1: float, t2, detuning: float, rabis):
    """Regression resolvent as a quadratic over a cubic, one column per member.

    Members are the half Rabis, each with its own ``t2`` if an array is
    given (as in _drift_stack).

    R(z) = c.(z - A)^-1 y0, with c = (1, -i, 0)/2, is the Laplace
    transform of the incoherent C(tau); y0 = h0 - x_ss <sigma->_ss, where
    h0 = (rho_ee, i rho_ee, -<sigma->_ss) is the Bloch vector of sigma-
    rho_ss.  By Cayley-Hamilton adj(z - A) = z^2 + z (A + c2) + (A^2 +
    c2 A + c1), so R = (n2 z^2 + n1 z + n0) / (z^3 + c2 z^2 + c1 z + c0).
    Returns (den, num, elastic): den = (c2, c1, c0) real, num = (n2, n1,
    n0) complex and elastic = |<sigma->_ss|^2; n2 + elastic = C(0) is
    the excited population.
    """
    a, pump = _drift_stack(t1, t2, detuning, rabis)
    x_ss = _steady(a, pump)
    u, v, w = x_ss.T
    rho_ee = 0.5 * (1.0 + w)
    sig = 0.5 * (u + 1j * v)  # <sigma->_ss = rho_eg
    y0 = np.stack([rho_ee, 1j * rho_ee, -sig], axis=1) - x_ss * sig[:, None]
    c2 = -np.trace(a, axis1=1, axis2=2)
    minors = ((0, 1), (0, 2), (1, 2))
    c1 = sum(a[:, i, i] * a[:, j, j] - a[:, i, j] * a[:, j, i] for i, j in minors)
    c0 = -np.linalg.det(a)
    c = np.array([0.5, -0.5j, 0.0])
    p = c @ a + c2[:, None] * c  # c (A + c2); Horner: c (A^2 + c2 A + c1) = p A + c1 c
    q = (p[:, None, :] @ a)[:, 0] + c1[:, None] * c
    num = np.stack([y0 @ c, np.sum(p * y0, axis=1), np.sum(q * y0, axis=1)])
    return np.stack([c2, c1, c0]), num, np.abs(sig) ** 2


def _resolvent_sum(nu: np.ndarray, den: np.ndarray, num: np.ndarray, weights):
    """Weighted stack sums of 2 Re R(i nu) at angular frequencies nu.

    With z = i nu the cubic is (c0 - c2 nu^2) + i nu (c1 - nu^2) and the
    quadratic (n0 - n2 nu^2) + i n1 nu, so 2 Re N/D is evaluated in real
    arithmetic over chunks of the grid.  ``weights`` of shape (n,) give
    one (grid,) sum; an (n, m) matrix gives (grid, m) columns (the
    identity returns every member's spectrum).  Also returns each
    member's minimum and maximum over nu.
    """
    c2, c1, c0 = den
    n2, n1, n0 = 2.0 * num
    mean = np.empty(nu.shape + weights.shape[1:])
    lo, hi = np.full(c2.size, np.inf), np.full(c2.size, -np.inf)
    step = max(1, 8192 // c2.size)  # grid rows per chunk of 8192 terms
    for at in range(0, nu.size, step):
        x = nu[at : at + step, None]
        x2 = x * x
        dr, di = c0 - c2 * x2, x * (c1 - x2)
        nr = n0.real - n2.real * x2 - n1.imag * x
        ni = n0.imag - n2.imag * x2 + n1.real * x
        rows = (nr * dr + ni * di) / (dr * dr + di * di)
        mean[at : at + step] = rows @ weights
        lo, hi = np.minimum(lo, rows.min(axis=0)), np.maximum(hi, rows.max(axis=0))
    return mean, lo, hi


def _mean_spectrum(
    emitter: EmitterParams, detuning: float, rabis, grid, weights=None
) -> Spectrum:
    """Weighted mean of the Mollow spectra of a stack of half Rabis at one detuning.

    ``weights`` (default equal) are normalized here; intensity and
    elastic weight are averaged with them.  The grid must cover the
    sidebands of the largest half Rabi as in mollow_spectrum.  Each
    member's minimum must pass the floor of Spectrum against the largest
    member peak, not its own: at equal powers the phase pi is noise.
    """
    grid = np.asarray(grid, dtype=float)
    span = np.hypot(2.0 * np.max(rabis), detuning) + 5.0 / (TWO_PI * emitter.t2_ns)
    lo, hi = detuning - span, detuning + span
    tol = 1e-9 * max(1.0, abs(lo), abs(hi))
    if grid.min() > lo + tol or grid.max() < hi - tol:
        raise CoverageError(
            f"grid [{grid.min():g}, {grid.max():g}] GHz must cover "
            f"[{lo:g}, {hi:g}] GHz around the drive"
        )
    den, num, elastic = _resolvent(emitter.t1_ns, emitter.t2_ns, detuning, rabis)
    weights = np.ones(elastic.size) if weights is None else np.asarray(weights, float)
    weights = weights / weights.sum()
    intensity, low, high = _resolvent_sum(TWO_PI * (grid - detuning), den, num, weights)
    if np.any(low < -1e-9 * max(high.max(), 1e-300)):
        raise ValidationError("negative intensity below the numerical floor")
    weight = float(elastic @ weights)
    return Spectrum(grid, intensity, weight, ((detuning, weight),))


def mollow_spectrum(
    emitter: EmitterParams, drive: DriveField, grid: np.ndarray
) -> Spectrum:
    """Incoherent resonance-fluorescence spectrum on ``grid`` (GHz).

    The grid must cover the drive detuning +- (the sideband offset
    sqrt((2 Omega)^2 + Delta1^2) plus five transverse linewidths);
    otherwise a CoverageError is raised.
    The elastic (Rayleigh) line at the drive frequency is returned as a
    discrete weight, not folded into the sampled intensity.
    """
    return _mean_spectrum(emitter, drive.detuning, drive.rabi, grid)


def mollow_shape(emitter: EmitterParams, drive: DriveField, grid) -> np.ndarray:
    """Incoherent spectral shape on an arbitrary grid.

    Same resolvent as mollow_spectrum but without the coverage
    pre-check or elastic bookkeeping; meant for overlaying fitted
    models on measured grids.
    """
    den, num, _ = _resolvent(emitter.t1_ns, emitter.t2_ns, drive.detuning, drive.rabi)
    nu = TWO_PI * (np.asarray(grid, dtype=float) - drive.detuning)
    return _resolvent_sum(nu, den, num, np.ones(1))[0]


@dataclass(frozen=True)
class MollowFit:
    """Result of fit_mollow.

    Parameters are the fitted half Rabi (GHz), coherence time (ps),
    amplitude scale and constant offset; ``std_errors`` and
    ``covariance`` follow the same order.
    """

    omega: float
    t2_ps: float
    amplitude: float
    offset: float
    std_errors: np.ndarray
    covariance: np.ndarray
    residual_norm: float
    n_iter: int
    converged: bool

    @property
    def rabi2(self) -> float:
        return 2.0 * self.omega


def fit_mollow(
    freq,
    intensity,
    guess: tuple[float, float, float, float],
    t1_ps: float,
    detuning: float = 0.0,
) -> MollowFit:
    """Fit a Mollow-triplet model to sampled data.

    ``guess`` is (omega, t2_ps, amplitude, offset).  t1 and the drive
    detuning are held fixed; the model is amplitude * mollow_shape +
    offset with the half Rabi clamped at 0 and t2 into [1e-3, 2 t1] ps.
    The starting half Rabi should be within about 50% of the true
    value; outside that basin the damped Gauss-Newton search may settle
    elsewhere.  A fit ending on a lower clamp, where the model loses that
    parameter, reports ``converged=False`` (t2 = 2 t1 is the radiative
    limit and counts as converged).  Non-finite samples or guesses raise
    ValidationError (naming the first bad sample); FitFailure (with the
    last iterate) after 200 iterations or when no step is accepted.
    """
    freq = np.asarray(freq, dtype=float)
    data = np.asarray(intensity, dtype=float)
    if freq.shape != data.shape or freq.ndim != 1:
        raise ValidationError("freq and intensity must be matching 1d arrays")
    if freq.size < 16:
        raise ValidationError("need at least 16 samples (4 per parameter)")
    bad = np.flatnonzero(~(np.isfinite(freq) & np.isfinite(data)))
    if bad.size:
        i = int(bad[0])
        raise ValidationError(
            f"freq and intensity must be finite; sample {i} has "
            f"freq={freq[i]!r}, intensity={data[i]!r}"
        )
    guess = np.asarray(guess, dtype=float)
    if not np.all(np.isfinite(guess)):
        raise ValidationError(f"guess must be finite, got {tuple(guess)!r}")
    t2_min, t2_max = 1e-3, 2.0 * t1_ps
    # t1 and the detuning are fixed, so they are validated once here; the
    # residual clamps each member to rabi >= 0 and t2 in [1e-3, 2 t1] ps
    t1_ns = EmitterParams(t1=t1_ps, t2=t2_max).t1_ns
    DriveField(detuning=detuning, rabi=0.0)
    nu = TWO_PI * (freq - detuning)

    def residual(P):
        rabis = np.maximum(P[:, 0], 0.0)
        t2_ns = np.clip(P[:, 1], t2_min, t2_max) / 1000.0
        den, num, _ = _resolvent(t1_ns, t2_ns, detuning, rabis)
        shapes = _resolvent_sum(nu, den, num, np.eye(len(P)))[0]
        return P[:, 2:3] * shapes.T + P[:, 3:4] - data

    result = gauss_newton(residual, guess)
    p = result.params
    n, k = freq.size, p.size
    jtj = result.jacobian.T @ result.jacobian
    try:
        cov = np.linalg.inv(jtj) * result.cost / max(n - k, 1)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj) * result.cost / max(n - k, 1)
    std = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return MollowFit(
        omega=max(p[0], 0.0),
        t2_ps=min(max(p[1], t2_min), t2_max),
        amplitude=p[2],
        offset=p[3],
        std_errors=std,
        covariance=cov,
        residual_norm=float(np.sqrt(result.cost)),
        n_iter=result.n_iter,
        converged=bool(result.converged and p[0] > 0.0 and p[1] > t2_min),
    )
