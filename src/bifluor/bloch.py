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
a stack of drive strengths (one drive is a stack of one), each member
optionally with its own T2: one builder makes the drift matrices, one
helper the polynomial coefficients, and one sum evaluates the spectra
in real arithmetic over grid chunks of bounded memory, one column per
member: the triplet fit evaluates every (half Rabi, T2) point of a
Gauss-Newton Jacobian as one stack.  The phase-averaged
degenerate drive needs no stack of phases: the coefficients are
polynomials of low degree in the squared Rabi frequency, so four
members fix them, and the mean over the relative phase is taken in
closed form at each frequency (_phase_mean).  Frequencies are quoted
in GHz relative to the bare transition; the drive sits at the detuning
Delta1, the Mollow sidebands at Delta1 +- sqrt((2*Omega)^2 + Delta1^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .emitter import TWO_PI, DriveField, EmitterParams
from .errors import CoverageError, SingularSystemError, ValidationError
from .fitting import gauss_newton

__all__ = [
    "Spectrum",
    "steady_state",
    "mollow_spectrum",
    "mollow_shape",
    "MollowFit",
    "fit_mollow",
]


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


def _steady(drift: np.ndarray, pump: np.ndarray) -> np.ndarray:
    """Steady Bloch vectors of one drift matrix or of a stack of them."""
    if np.any(np.linalg.cond(drift) > 1e12):
        raise SingularSystemError("Bloch drift matrix is numerically singular")
    return np.linalg.solve(drift, -pump[:, None])[..., 0]


def steady_state(emitter: EmitterParams, drive: DriveField) -> np.ndarray:
    """Steady Bloch vector (u, v, w) under one drive; the excited population is (1+w)/2."""
    return _steady(*_drift_stack(emitter.t1_ns, emitter.t2_ns, drive.detuning, drive.rabi))[0]


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


def _resolvent_sum(nu: np.ndarray, den: np.ndarray, num: np.ndarray) -> np.ndarray:
    """2 Re R(i nu) of every member at angular frequencies nu, one column each.

    With z = i nu the cubic is (c0 - c2 nu^2) + i nu (c1 - nu^2) and the
    quadratic (n0 - n2 nu^2) + i n1 nu, so 2 Re N/D is evaluated in real
    arithmetic over chunks of the grid into a (grid, members) array.
    """
    c2, c1, c0 = den
    n2, n1, n0 = 2.0 * num
    spectra = np.empty(nu.shape + c2.shape)
    step = max(1, 8192 // c2.size)  # grid rows per chunk of 8192 terms
    for at in range(0, nu.size, step):
        x = nu[at : at + step, None]
        x2 = x * x
        dr, di = c0 - c2 * x2, x * (c1 - x2)
        nr = n0.real - n2.real * x2 - n1.imag * x
        ni = n0.imag - n2.imag * x2 + n1.real * x
        spectra[at : at + step] = (nr * dr + ni * di) / (dr * dr + di * di)
    return spectra


def _require_cover(grid, center, span, linewidths, emitter: EmitterParams) -> None:
    """Raise CoverageError unless ``grid`` covers the lines around ``center``.

    The lines reach ``span`` plus ``linewidths`` transverse linewidths to
    either side; each end of the grid may fall short by 1e-9 relative.
    Both engines, this one and floquet, check their grids here.
    """
    half = span + linewidths / (TWO_PI * emitter.t2_ns)
    lo, hi = center - half, center + half
    tol = 1e-9 * max(1.0, abs(lo), abs(hi))
    if grid.min() > lo + tol or grid.max() < hi - tol:
        raise CoverageError(
            f"grid [{grid.min():g}, {grid.max():g}] GHz must cover "
            f"[{lo:g}, {hi:g}] GHz around the drive"
        )


def _mean_spectrum(emitter: EmitterParams, detuning: float, rabis, grid) -> Spectrum:
    """Mean of the Mollow spectra of a stack of half Rabis at one detuning.

    Intensity and elastic weight are averaged with equal weights.  The
    grid must cover the sidebands of the largest half Rabi as in
    mollow_spectrum.
    """
    grid = np.asarray(grid, dtype=float)
    _require_cover(grid, detuning, np.hypot(2.0 * np.max(rabis), detuning), 5.0, emitter)
    den, num, elastic = _resolvent(emitter.t1_ns, emitter.t2_ns, detuning, rabis)
    intensity = _resolvent_sum(TWO_PI * (grid - detuning), den, num).mean(axis=1)
    weight = float(elastic.mean())
    return Spectrum(grid, intensity, weight, ((detuning, weight),))


# Chebyshev nodes on (0, 1), the fractions of the scale S at which
# _phase_mean samples the Bloch resolvent
_PHASE_NODES = 0.5 + 0.5 * np.cos(np.pi * np.arange(0.5, 4.0) / 4.0)


def _phase_mean(
    emitter: EmitterParams, detuning: float, rabi: float, alpha: float, grid
) -> Spectrum:
    """Mollow spectra averaged exactly over the relative phase of two drives.

    Fields of half Rabi Omega = ``rabi`` and sqrt(alpha) Omega at one
    frequency add to a half Rabi sqrt(s), s = Omega^2 (1 + alpha + 2
    sqrt(alpha) cos phi).  Work in sigma = s / S: c2 of _resolvent is
    constant, c1 = k0 + k1 sigma and c0 = h0 + h1 sigma, and each num_k
    c0^2 and elastic c0^2 is a cubic in sigma that vanishes at sigma = 0
    (no drive, no emission), so the members at the four _PHASE_NODES give
    them exactly.  The drift is singular at the double pole p = -h0 / h1 <
    0.  S, the top Omega^2 (1 + sqrt(alpha))^2 of the phase's range plus
    the distance -p S of the pole below 0, puts both p and the range [lo,
    hi] within one node span, so the cubics are never far extrapolated.  At
    angular frequency nu a member's spectrum is 2 Re P(sigma) / (h1^2
    (sigma - p)^2 D1 (sigma - q)), with the cubic D(i nu) = D1 (sigma - q).
    The phase mean of 1 / (sigma - t) is G(t) = -1 / W(t), W(t) = sqrt(t -
    hi) sqrt(t - lo) off [lo, hi], so the mean is (P_3 + P(p) G[p,p,q] +
    P'(p) G[p,q] + P[p,p,q] G(q)) / (h1^2 D1), in divided differences of G
    that do not cancel and stay finite at nu = 0, where q = p.  The
    elastic weight follows from elastic c0^2 the same way.  Without a
    second field, or without any, the spectrum is one Mollow spectrum.
    """
    grid = np.asarray(grid, dtype=float)
    if alpha == 0.0 or rabi == 0.0:
        return _mean_spectrum(emitter, detuning, rabi, grid)
    root = np.sqrt(alpha)
    top = rabi * (1.0 + root)
    _require_cover(grid, detuning, np.hypot(2.0 * top, detuning), 5.0, emitter)
    t1, t2 = emitter.t1_ns, emitter.t2_ns
    c0_at = -np.linalg.det(_drift_stack(t1, t2, detuning, [0.0, 1.0])[0])  # at s = 0, 1 GHz^2
    scale = top * top + c0_at[0] / (c0_at[1] - c0_at[0])
    lo, hi = (rabi - rabi * root) ** 2 / scale, top * top / scale
    mid, half = rabi * rabi * (1.0 + alpha) / scale, 2.0 * rabi * rabi * root / scale
    (c2, c1, c0), num, elastic = _resolvent(t1, t2, detuning, np.sqrt(scale * _PHASE_NODES))
    # columns c1, c0, then n2, n1, n0 (doubled) and elastic times c0^2 / sigma
    quadratics = np.vstack([2.0 * num, elastic]) * (c0 * c0 / _PHASE_NODES)
    samples = np.column_stack([c1, c0, quadratics.T])
    coef = np.linalg.solve(np.vander(_PHASE_NODES, 4, increasing=True), samples)
    (k0, h0), (k1, h1) = coef[:2, :2].real
    cubic = coef[:3, 2:]  # rows: sigma^1, sigma^2, sigma^3
    p = -h0 / h1
    at_p = ((cubic[2] * p + cubic[1]) * p + cubic[0]) * p
    slope_p = (3.0 * cubic[2] * p + 2.0 * cubic[1]) * p + cubic[0]
    w_p = -np.sqrt((hi - p) * (lo - p))
    nu = TWO_PI * (grid - detuning)
    nu2 = nu * nu

    def at_nu(row):  # (n0 - n2 nu^2) + i n1 nu from a row (n2, n1, n0, ...)
        return row[2] - row[0] * nu2 + 1j * nu * row[1]

    d1 = h1 + 1j * k1 * nu
    q = -((h0 - c2[0] * nu2) + 1j * nu * (k0 - nu2)) / d1
    w_q = np.sqrt(q - hi) * np.sqrt(q - lo)
    both, pq = w_p + w_q, p + q - 2.0 * mid
    g_pq = pq / (w_p * w_q * both)
    g_ppq = -((p - mid) * (q - mid) + half * half + (p - mid) * w_p * pq / both) / (
        w_p**3 * w_q * both
    )
    p3 = at_nu(cubic[2])
    mean = p3 + at_nu(at_p) * g_ppq + at_nu(slope_p) * g_pq
    mean -= (at_nu(cubic[1]) + p3 * (2.0 * p + q)) / w_q  # P[p,p,q] G(q)
    intensity = (mean / (h1 * h1 * d1)).real
    e2, e3 = cubic[1:, 3].real
    weight = e2 + e3 * (2.0 * p + mid) + at_p[3].real * (p - mid) / w_p**3 - slope_p[3].real / w_p
    weight = float(weight / (h1 * h1))
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
    return _resolvent_sum(nu, den, num)[:, 0]


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
    guess: tuple[float, float],
    t1_ps: float,
    detuning: float = 0.0,
) -> MollowFit:
    """Fit a Mollow-triplet model to sampled data.

    The model is amplitude * mollow_shape + offset at fixed t1 and drive
    detuning, with the half Rabi clamped at 0 and t2 into [1e-3, 2 t1]
    ps.  ``guess`` is (omega, t2_ps), omega > 0; amplitude and offset
    start at their least-squares values for the shape there.  Within
    about 50% of the true half Rabi the damped Gauss-Newton search
    converges; outside that basin it may settle elsewhere.  A fit ending
    on a lower clamp, where the model loses that parameter, reports
    ``converged=False`` (t2 = 2 t1 is the radiative limit and counts as
    converged).  Non-finite samples or guesses, and omega <= 0, raise
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
            f"freq={float(freq[i])}, intensity={float(data[i])}"
        )
    guess = np.asarray(guess, dtype=float).ravel()
    if guess.size != 2 or not (np.all(np.isfinite(guess)) and guess[0] > 0.0):
        raise ValidationError(f"guess must be finite (omega, t2_ps), omega > 0: {tuple(guess)!r}")
    t2_min, t2_max = 1e-3, 2.0 * t1_ps
    # t1 and the detuning are fixed, so they are validated once here
    t1_ns = EmitterParams(t1=t1_ps, t2=t2_max).t1_ns
    DriveField(detuning=detuning, rabi=0.0)
    nu = TWO_PI * (freq - detuning)

    def shapes(P):
        rabis = np.maximum(P[:, 0], 0.0)
        t2_ns = np.clip(P[:, 1], t2_min, t2_max) / 1000.0
        den, num, _ = _resolvent(t1_ns, t2_ns, detuning, rabis)
        return _resolvent_sum(nu, den, num).T

    def residual(P):
        return P[:, 2:3] * shapes(P) + P[:, 3:4] - data

    basis = np.stack([shapes(guess[None])[0], np.ones_like(data)], axis=1)
    linear = np.linalg.lstsq(basis, data, rcond=None)[0]
    result = gauss_newton(residual, np.concatenate([guess, linear]))
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
