"""Parameter scans built on the spectrum engines.

Covers the weak-field detuning map (spectra stacked over Delta2), the
central-line intensity curve and its laser-detuning fit, the
subharmonic dip scan behind an etalon, and the equal-frequency
(degenerate) drive limit where the beat note disappears and only the
relative phase survives.

Floquet builds, solves and settles the rows of both scans
(floquet._scan_rows, then floquet._spectra for a map and
floquet._order_sums behind the etalon); this module keeps the axes, the
etalon optics, the dip finder and the result records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bloch, floquet
from .dressed import ALPHA_SQUARED, _central_weight, subharmonic_shift
from .emitter import TWO_PI, BichromaticDrive, DriveField, EmitterParams
from .errors import BifluorError, CoverageError, ValidationError
from .fitting import gauss_newton
from .floquet import build_periodic_liouvillian, emission_spectrum, periodic_steady_state

__all__ = [
    "EtalonFilter",
    "ScanResult2D",
    "detuning_map",
    "CentralCurve",
    "central_intensity_curve",
    "Delta1Fit",
    "fit_delta1",
    "DipRecord",
    "SubharmonicScan",
    "subharmonic_axis",
    "subharmonic_scan",
    "degenerate_spectrum",
    "plateau_edges",
]

_WINDOW_GHZ = 0.5  # half width of the central-line window of central_intensity_curve
ETALON_ORDERS = 20  # etalon orders solved on each side of the centre one
SUBHARMONIC_ORDERS = (1, 2, 3, 4, 5)  # the orders of the paper's subharmonic scan


@dataclass(frozen=True)
class EtalonFilter:
    """Airy transmission of a planar etalon, all quantities in GHz.

    The transmission, 1 at its peaks, is exactly a sum of Lorentzians,
    T(f) = tanh(beta) FSR sum_p L_p(f) with sinh(beta) = pi / (2 finesse):
    each L_p is normalized, centred on center + p FSR, and has the half
    width gamma = beta FSR / pi (Ismail et al., Opt. Express 24, 16366
    (2016)).
    """

    center_ghz: float
    fsr_ghz: float
    fwhm_ghz: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.center_ghz, self.fsr_ghz, self.fwhm_ghz])):
            raise ValidationError("etalon parameters must be finite")
        if not 0.0 < self.fwhm_ghz < self.fsr_ghz:
            raise ValidationError("need 0 < fwhm < free spectral range")

    @property
    def finesse(self) -> float:
        return self.fsr_ghz / self.fwhm_ghz


def _airy_lorentzians(etalon: EtalonFilter) -> tuple[float, float]:
    """Weight tanh(beta) FSR and half width gamma of the etalon's Lorentzians."""
    beta = np.arcsinh(np.pi / (2.0 * etalon.finesse))
    return float(np.tanh(beta) * etalon.fsr_ghz), float(beta * etalon.fsr_ghz / np.pi)


def _failures(axis, errors) -> tuple[tuple[float, str], ...]:
    """(axis value, "Type: message") of each row's error in ``errors``, in row order."""
    return tuple(
        (float(axis[i]), f"{type(exc).__name__}: {exc}") for i, exc in sorted(errors.items())
    )


@dataclass(frozen=True)
class ScanResult2D:
    """Stack of incoherent spectra over the weak-field axis.

    ``intensity[i]`` is the spectrum at ``delta2[i]``; rows that failed
    hold NaN and are listed in ``failures`` as (delta2, message).
    """

    delta2: np.ndarray
    freq: np.ndarray
    intensity: np.ndarray
    elastic_weight: np.ndarray
    failures: tuple[tuple[float, str], ...]
    # accepted resolvent cutoff of each row, 0 for a failed row
    cutoffs: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    processes: int = 1  # processes that ran the full-grid passes, 1 for the main one

    def __post_init__(self):
        for arr in (self.delta2, self.freq, self.intensity, self.elastic_weight, self.cutoffs):
            arr.setflags(write=False)


def detuning_map(
    emitter: EmitterParams,
    strong: DriveField,
    weak_rabi: float,
    delta2_values,
    grid,
    relative_phase: float = 0.0,
    workers: int = 1,
) -> ScanResult2D:
    """Emission spectra versus the dressed detuning Delta2.

    Delta2 = Delta3 + 2 Omega locates the weak field relative to the
    inner dressed transition; each axis point gets a weak field at the
    corresponding bare detuning.  Each row is its emission_spectrum
    (floquet._spectra).  ``workers`` bounds the processes of the rows'
    full-grid passes, ``processes`` of the result says how many ran, and
    nothing else depends on it.  A truncation warns, or fails its row
    where the warnings filter raises it.
    """
    delta2_values = np.asarray(delta2_values, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if delta2_values.ndim != 1 or delta2_values.size == 0:
        raise ValidationError("delta2_values must be a non-empty 1d array")
    if workers < 1:
        raise ValidationError("workers must be at least 1")
    detunings = delta2_values - 2.0 * strong.rabi
    rows, errors = floquet._scan_rows(emitter, strong, weak_rabi, detunings, relative_phase, grid)
    spectra, processes = floquet._spectra(list(rows.values()), grid, strong.detuning, workers)
    intensity = np.full((delta2_values.size, grid.size), np.nan)
    elastic = np.full(delta2_values.size, np.nan)
    cutoffs = np.zeros(delta2_values.size, dtype=int)
    for i, spec in zip(rows, spectra):
        if isinstance(spec, BifluorError):
            errors[i] = spec
            continue
        intensity[i], elastic[i] = spec.intensity, spec.elastic_weight
        cutoffs[i] = spec.resolvent_cutoff
    return ScanResult2D(
        delta2=delta2_values,
        freq=grid,
        intensity=intensity,
        elastic_weight=elastic,
        failures=_failures(delta2_values, errors),
        cutoffs=cutoffs,
        processes=processes,
    )


@dataclass(frozen=True)
class CentralCurve:
    """Integrated incoherent intensity near the central line vs Delta2."""

    delta2: np.ndarray
    intensity: np.ndarray
    center_ghz: float

    def __post_init__(self):
        self.delta2.setflags(write=False)
        self.intensity.setflags(write=False)


def central_intensity_curve(result: ScanResult2D, center: float = 0.0) -> CentralCurve:
    """Integrate each map row over |f - center| <= _WINDOW_GHZ = 0.5 GHz."""
    mask = np.abs(result.freq - center) <= _WINDOW_GHZ
    if mask.sum() < 3:
        raise CoverageError("map grid has too few points inside the window")
    vals = np.trapezoid(result.intensity[:, mask], result.freq[mask], axis=1)
    return CentralCurve(delta2=result.delta2.copy(), intensity=vals, center_ghz=float(center))


def _vertex(x, y, i):
    """Vertex of the parabola through points i - 1..i + 1 if it opens upward.

    It is x[i] + (d1 h2^2 - d3 h1^2) / (2 (d1 h2 + d3 h1)) in the gaps h1,
    h2 and the rises d1, d3 of the outer points over the middle one.  At
    an argmin (d1 > 0 <= d3) it lies within half a gap of x[i], also
    when the rises are subnormal, since d1 h2 h2 is rounded from the
    rounded d1 h2 of the denominator (and d3 h1 h1 from d3 h1).
    """
    if not 0 < i < len(x) - 1:
        return None
    h1, h2 = x[i] - x[i - 1], x[i + 1] - x[i]
    d1, d3 = y[i - 1] - y[i], y[i + 1] - y[i]
    denom = 2.0 * (d1 * h2 + d3 * h1)
    return x[i] + (d1 * h2 * h2 - d3 * h1 * h1) / denom if denom > 0.0 else None


@dataclass(frozen=True)
class Delta1Fit:
    delta1: float
    scale: float
    residual_norm: float
    n_iter: int
    converged: bool


def fit_delta1(curve: CentralCurve, strong_rabi: float, weak_rabi: float) -> Delta1Fit:
    """Recover the strong-laser detuning from a central-intensity curve.

    The curve minimum sits where the weak field crosses the dressed
    resonance, which tracks Delta1; a two-parameter (detuning, scale)
    fit of the secular central weight against the measured curve pins
    it down from a parabola's vertex at the curve minimum, the scale from
    exact least squares there.  The curve does not depend on Delta1
    without a weak field, nor the model on anything without a strong
    one: either Rabi frequency at 0 or less raises ValidationError.
    """
    if not (weak_rabi > 0.0 and strong_rabi > 0.0):
        raise ValidationError("fitting Delta1 needs a weak field and a strong one")
    good = np.isfinite(curve.intensity)
    d2 = curve.delta2[good]
    y = curve.intensity[good]
    if d2.size < 5:
        raise ValidationError("need at least five finite curve points")
    i0 = int(np.argmin(y))
    vertex = _vertex(d2, y, i0)
    d1_init = d2[i0] if vertex is None else vertex

    def weights(d1):
        delta = d2 - 2.0 * strong_rabi - d1  # beat Delta3 - Delta1 at each point
        return _central_weight(strong_rabi, d1, weak_rabi, delta)

    def residual(P):
        return P[:, 1:2] * weights(P[:, 0:1]) - y

    w0 = weights(d1_init)
    result = gauss_newton(residual, np.array([d1_init, (w0 @ y) / (w0 @ w0)]))
    return Delta1Fit(
        delta1=float(result.params[0]),
        scale=float(result.params[1]),
        residual_norm=float(np.sqrt(result.cost)),
        n_iter=result.n_iter,
        converged=result.converged,
    )


@dataclass(frozen=True)
class DipRecord:
    order: int
    dip_position_ghz: float  # measured -Delta3 of the dip
    unshifted_ghz: float  # 2 Omega / n
    formula_shift_ghz: float


@dataclass(frozen=True)
class SubharmonicScan:
    delta3: np.ndarray
    intensity: np.ndarray
    dips: tuple[DipRecord, ...]
    alpha_squared: float
    orders: tuple[int, ...]
    failures: tuple[tuple[float, str], ...]  # (delta3, message) of the NaN rows
    cutoffs: np.ndarray  # accepted resolvent cutoff of each row, 0 for a failed row
    tail_fraction: np.ndarray  # closed-form tail over the row's value, NaN for a failed row

    def __post_init__(self):
        for arr in (self.delta3, self.intensity, self.cutoffs, self.tail_fraction):
            arr.setflags(write=False)


def _orders(orders) -> tuple[int, ...]:
    """Distinct subharmonic orders in ascending order; each must be at least 1."""
    orders = tuple(sorted(set(int(n) for n in orders)))
    if any(n < 1 for n in orders):
        raise ValidationError("subharmonic orders must be positive")
    return orders


def _subharmonic(rabi: float, n: int) -> tuple[float, float]:
    """The bare order-n subharmonic 2 Omega / n and its gap to 2 Omega / (n + 1)."""
    base = 2.0 * rabi / n
    return base, base - 2.0 * rabi / (n + 1)


def subharmonic_axis(
    rabi: float,
    orders=SUBHARMONIC_ORDERS,
    points_per_order: int = 16,
    alpha_squared: float = ALPHA_SQUARED,
) -> np.ndarray:
    """Weak-detuning axis clustered around the expected dips.

    Each order gets a window reaching from slightly below the bare
    subharmonic 2 Omega / n to beyond the shifted resonance; windows
    shrink for high orders so neighbours never overlap.
    """
    if rabi <= 0.0:
        raise ValidationError("rabi must be positive")
    if points_per_order < 1:
        raise ValidationError("points_per_order must be at least 1")
    points = []
    for n in _orders(orders):
        base, gap_next = _subharmonic(rabi, n)
        shift = subharmonic_shift(n, rabi, alpha_squared)
        lo_pad = min(0.12 * rabi / 2.9 + 0.02, 0.35 * gap_next)
        hi_pad = min(shift + 0.15 * rabi / 2.9, 0.55 * gap_next)
        window = np.linspace(base - lo_pad, base + hi_pad, points_per_order)
        points.extend(-window)
    return np.array(sorted(points))


def _filtered_rows(emitter, strong, weak_rabi, delta3_values, etalon):
    """Etalon-filtered incoherent intensity at each weak detuning.

    With z = i nu the spectrum is S(f) = 2 Re x_0[ge](z) at
    nu = 2 pi (f - Delta1), and x_0 is analytic for Re z > 0, so by the
    Poisson integral each Lorentzian of the etalon picks out one complex
    frequency: int S L_p df = 2 Re x_0[ge] at nu_p = 2 pi (f_p - Delta1)
    - i 2 pi gamma.  The orders |p| <= ETALON_ORDERS are solved.  With
    z_p = i 2 pi FSR (p + w), the first four terms of x_0[ge]'s expansion
    in 1/z are summed over the other orders in closed form: over every
    order, (p + w)^-n sums to pi cot(pi w) for n = 1 and to its
    derivatives for n = 2 .. 4.  What is left falls as ETALON_ORDERS^-5.

    Returns the intensity, the accepted cutoffs, the tail fractions and
    the failures as (delta3, message).
    """
    n_rows = delta3_values.size
    weight, gamma = _airy_lorentzians(etalon)
    w = (etalon.center_ghz - strong.detuning - 1j * gamma) / etalon.fsr_ghz
    scale = 1j * TWO_PI * etalon.fsr_ghz
    z = scale * (np.arange(-ETALON_ORDERS, ETALON_ORDERS + 1) + w)
    nu = -1j * z
    # (p + w)^-n summed over every order, over pi^n, for n = 1 .. 4
    cot = 1.0 / np.tan(np.pi * w)
    csc2 = 1.0 + cot * cot
    every = np.array([cot, csc2, cot * csc2, csc2 * (1.0 + 3.0 * cot * cot) / 3.0])
    n = np.arange(1, every.size + 1)
    # z_p^-n summed over the orders that are not solved
    rest = every * (np.pi / scale) ** n - np.sum(z ** -n[:, None], axis=1)

    rows, errors = floquet._scan_rows(emitter, strong, weak_rabi, delta3_values)
    intensity = np.full(n_rows, np.nan)
    tail_fraction = np.full(n_rows, np.nan)
    cutoffs = np.zeros(n_rows, dtype=int)
    for i, sums in zip(rows, floquet._order_sums(list(rows.values()), nu, rest)):
        if isinstance(sums, BifluorError):
            errors[i] = sums
            continue
        cutoffs[i], solved, tail = sums
        intensity[i] = weight * (solved + tail)
        tail_fraction[i] = abs(tail / (solved + tail))
    return intensity, cutoffs, tail_fraction, _failures(delta3_values, errors)


def subharmonic_scan(
    emitter: EmitterParams,
    strong: DriveField,
    delta3_values,
    etalon: EtalonFilter,
    alpha_squared: float = ALPHA_SQUARED,
    orders=SUBHARMONIC_ORDERS,
) -> SubharmonicScan:
    """Etalon-filtered intensity versus weak-field detuning.

    The weak field (amplitude ratio alpha relative to the strong one, so
    G = alpha Omega / 2) is stepped to each Delta3; the incoherent
    spectrum is transmitted through the etalon and integrated exactly,
    with no frequency grid (_filtered_rows).  Dips appear where
    2 Omega / n photon processes go resonant, displaced from the bare
    subharmonics by the ac Stark shift.  Each requested order's dip is
    the lowest finite point of its window, from half a gap below
    2 Omega / n to 0.7 of a gap above, refined by the parabola through it
    and its neighbours; an order whose lowest point is the first or last
    of its window has no dip.  A window without an axis point raises
    CoverageError before any row is solved.  A row that fails, or whose
    cutoff reaches CUTOFF_CEILING unconverged where the warnings filter
    raises its TruncationWarning, is NaN and listed in ``failures``.
    """
    delta3_values = np.asarray(delta3_values, dtype=float)
    if delta3_values.ndim != 1 or delta3_values.size < 5:
        raise ValidationError("delta3_values must hold at least five points")
    orders = _orders(orders)
    windows = {}  # each order's 2 Omega / n and the axis points in its dip window
    for n in orders:
        base, gap_next = _subharmonic(strong.rabi, n)
        lo, hi = base - 0.5 * gap_next, base + 0.7 * gap_next
        mask = (-delta3_values >= lo) & (-delta3_values <= hi)
        if not mask.any():
            raise CoverageError(f"no axis point in the order-{n} dip window [{lo:g}, {hi:g}] GHz")
        windows[n] = base, mask
    g = 0.5 * float(np.sqrt(alpha_squared)) * strong.rabi
    intensity, cutoffs, tail_fraction, failures = _filtered_rows(
        emitter, strong, g, delta3_values, etalon
    )

    dips = []
    for n, (base, mask) in windows.items():
        x = -delta3_values[mask]
        y = intensity[mask]
        srt = np.argsort(x)
        x, y = x[srt], y[srt]
        good = np.isfinite(y)
        x, y = x[good], y[good]
        best = int(np.argmin(y)) if y.size else 0
        if not 0 < best < y.size - 1:  # lowest at a window edge: no dip
            continue
        vertex = _vertex(x, y, best)  # at an argmin, inside [x[best - 1], x[best + 1]]
        pos = x[best] if vertex is None else vertex
        dips.append(
            DipRecord(
                order=n,
                dip_position_ghz=float(pos),
                unshifted_ghz=float(base),
                formula_shift_ghz=float(subharmonic_shift(n, strong.rabi, alpha_squared)),
            )
        )
    return SubharmonicScan(
        delta3=delta3_values,
        intensity=intensity,
        dips=tuple(dips),
        alpha_squared=float(alpha_squared),
        orders=orders,
        failures=failures,
        cutoffs=cutoffs,
        tail_fraction=tail_fraction,
    )


def degenerate_spectrum(
    emitter: EmitterParams,
    strong: DriveField,
    alpha: float,
    grid,
    method: str = "phase_average",
) -> bloch.Spectrum:
    """Spectrum for two drives at the same frequency (power ratio alpha).

    With no beat note the fields add coherently; an unresolved relative
    phase leaves an effective Rabi frequency distributed over
    Omega sqrt(1 + alpha + 2 sqrt(alpha) cos phi), which flattens the
    sidebands into plateaus spanning 2 Omega (1 +- sqrt(alpha)).

    ``phase_average`` averages the monochromatic spectra over the phase
    exactly, in closed form (bloch._phase_mean), on a grid covering the
    largest effective splitting.  Against a mean over 4096 phases it
    agrees within 3e-14 of the peak for alpha <= 0.4, and against 16384
    phases within 2e-12 for alpha up to 1, where the singular drift
    nears the branch point of the phase integral (Delta1 of 0 and 0.4
    GHz, T2 from 424 to 780 ps); the elastic weight agrees within 2e-13
    relative.  Drives far weaker than the linewidth lose up to 6e-12 of
    the peak.  ``small_delta`` instead runs the bichromatic engine at a
    beat detuning of one twentieth of the radiative linewidth,
    gamma_sp / (2 pi) / 20, so the phase is swept physically.  Both see
    the same distribution.  A truncation of the ``small_delta`` spectrum
    is settled as in emission_spectrum.
    """
    grid = np.asarray(grid, dtype=float)
    if not np.isfinite(alpha) or alpha < 0.0:
        raise ValidationError("alpha (power ratio) must be non-negative")
    if method == "phase_average":
        return bloch._phase_mean(emitter, strong.detuning, strong.rabi, alpha, grid)
    if method == "small_delta":
        epsilon = emitter.gamma_sp / TWO_PI / 20.0
        weak = DriveField(
            detuning=strong.detuning + epsilon, rabi=0.5 * np.sqrt(alpha) * strong.rabi
        )
        drive = BichromaticDrive(strong=strong, weak=weak)
        pl = build_periodic_liouvillian(emitter, drive)
        return emission_spectrum(pl, periodic_steady_state(pl), grid)
    raise ValidationError(f"unknown method {method!r}")


def plateau_edges(freq, intensity, rabi: float, alpha: float, detuning: float = 0.0):
    """Measured edges of the upper sideband plateau, GHz.

    The threshold is half the median intensity over the central 60% of
    the predicted plateau 2 Omega (1 +- sqrt(alpha)); the outermost
    threshold crossings inside a padded search window are returned as
    (low, high).

    The low edge is a crossing only if the spectrum drops below the
    threshold between the central line and the plateau.  For
    alpha >= 0.2 it does not, and the low edge is the window's first
    sample: at alpha = 0.36, -1.15 GHz, where 2 Omega (1 - sqrt(alpha))
    is 2.32 GHz.  Spectra of two methods then agree on that edge because
    they share the window, not because they share the plateau.
    Non-finite intensity raises ValidationError, naming the first such
    sample.
    """
    freq = np.asarray(freq, dtype=float)
    intensity = np.asarray(intensity, dtype=float)
    bad = np.flatnonzero(~np.isfinite(intensity))
    if bad.size:
        i = int(bad[0])
        raise ValidationError(f"intensity sample {i} at {freq[i]:g} GHz is {intensity[i]}")
    amp = np.sqrt(alpha)
    lo = detuning + 2.0 * rabi * (1.0 - amp)
    hi = detuning + 2.0 * rabi * (1.0 + amp)
    span = hi - lo
    if span <= 0.0:
        raise ValidationError("alpha too small for a resolvable plateau")
    core = (freq >= lo + 0.2 * span) & (freq <= hi - 0.2 * span)
    if core.sum() < 3:
        raise CoverageError("grid too coarse across the predicted plateau")
    threshold = 0.5 * float(np.median(intensity[core]))
    pad = max(0.5, 0.5 * span)
    window = (freq >= lo - pad) & (freq <= hi + pad)
    f_w = freq[window]
    i_w = intensity[window]
    above = i_w >= threshold
    if not np.any(above):
        raise CoverageError("no samples above the plateau threshold")
    first = int(np.argmax(above))
    last = int(len(above) - 1 - np.argmax(above[::-1]))

    def refine(j_out, j_in):
        x0, x1 = f_w[j_out], f_w[j_in]
        y0, y1 = i_w[j_out], i_w[j_in]
        if y1 == y0:
            return x1
        t = (threshold - y0) / (y1 - y0)
        return x0 + t * (x1 - x0)

    lo_edge = refine(first - 1, first) if first > 0 else f_w[first]
    hi_edge = refine(last + 1, last) if last < len(f_w) - 1 else f_w[last]
    return float(lo_edge), float(hi_edge)
