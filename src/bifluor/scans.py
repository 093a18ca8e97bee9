"""Parameter scans built on the spectrum engines.

Covers the weak-field detuning map (spectra stacked over Delta2), the
central-line intensity curve and its laser-detuning fit, the
subharmonic dip scan behind an etalon, and the equal-frequency
(degenerate) drive limit where the beat note disappears and only the
relative phase survives.

Scans parallelize over axis points with processes; rows are assembled,
and their warnings issued, by index, so results are identical for any
worker count.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import bloch
from .dressed import _central_weight, subharmonic_shift
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
_N_PHASES = 256  # relative phases in the phase-averaged degenerate spectrum


@dataclass(frozen=True)
class EtalonFilter:
    """Airy transmission of a planar etalon, all quantities in GHz."""

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

    def transmission(self, freq):
        """Airy function, 1 at the transmission peaks."""
        freq = np.asarray(freq, dtype=float)
        coef = (2.0 * self.finesse / np.pi) ** 2
        s = np.sin(np.pi * (freq - self.center_ghz) / self.fsr_ghz)
        return 1.0 / (1.0 + coef * s * s)


def _row_task(args):
    """Worker for scan rows.

    Returns (index, intensity, elastic, error, warnings), the warnings as
    (category, message) pairs, so that rows run in a pool lose none.
    """
    idx, emitter, drive, grid, strict = args
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            pl = build_periodic_liouvillian(emitter, drive)
            state = periodic_steady_state(pl)
            spec = emission_spectrum(pl, state, grid, strict=strict)
            row = idx, spec.intensity, float(spec.elastic_weight), None
        except BifluorError as exc:  # a numerical or input failure of this row only
            row = idx, None, float("nan"), f"{type(exc).__name__}: {exc}"
    return *row, [(w.category, str(w.message)) for w in caught]


def _run_rows(tasks, workers: int, axis):
    """Good rows as (index, intensity, elastic), failures as (axis value, error).

    The rows' warnings are issued again here, in row order.
    """
    if workers < 1:
        raise ValidationError("workers must be at least 1")
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_row_task, tasks))
    else:
        rows = [_row_task(t) for t in tasks]
    for row in rows:
        for category, message in row[4]:
            warnings.warn(message, category, stacklevel=3)
    failures = tuple((float(axis[r[0]]), r[3]) for r in rows if r[3] is not None)
    return [r[:3] for r in rows if r[3] is None], failures


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

    def __post_init__(self):
        for arr in (self.delta2, self.freq, self.intensity, self.elastic_weight):
            arr.setflags(write=False)


def detuning_map(
    emitter: EmitterParams,
    strong: DriveField,
    weak_rabi: float,
    delta2_values,
    grid,
    relative_phase: float = 0.0,
    workers: int = 1,
    strict: bool = False,
) -> ScanResult2D:
    """Emission spectra versus the dressed detuning Delta2.

    Delta2 = Delta3 + 2 Omega locates the weak field relative to the
    inner dressed transition; each axis point gets a weak field at the
    corresponding bare detuning.  Workers > 1 distributes rows over
    processes; the result does not depend on the worker count.
    """
    delta2_values = np.asarray(delta2_values, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if delta2_values.ndim != 1 or delta2_values.size == 0:
        raise ValidationError("delta2_values must be a non-empty 1d array")
    tasks = []
    for i, d2 in enumerate(delta2_values):
        weak = DriveField(detuning=d2 - 2.0 * strong.rabi, rabi=weak_rabi)
        drive = BichromaticDrive(strong=strong, weak=weak, relative_phase=relative_phase)
        tasks.append((i, emitter, drive, grid, strict))
    rows, failures = _run_rows(tasks, workers, delta2_values)
    intensity = np.full((delta2_values.size, grid.size), np.nan)
    elastic = np.full(delta2_values.size, np.nan)
    for idx, row, ew in rows:
        intensity[idx] = row
        elastic[idx] = ew
    return ScanResult2D(
        delta2=delta2_values,
        freq=grid,
        intensity=intensity,
        elastic_weight=elastic,
        failures=failures,
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
    """Vertex of the parabola through points i - 1..i + 1 if it opens upward."""
    if not 0 < i < len(x) - 1:
        return None
    (x1, x2, x3), (y1, y2, y3) = x[i - 1 : i + 2], y[i - 1 : i + 2]
    denom = (x1 - x2) * (x1 - x3) * (x2 - x3)
    a = (x3 * (y2 - y1) + x2 * (y1 - y3) + x1 * (y3 - y2)) / denom
    b = (x3**2 * (y1 - y2) + x2**2 * (y3 - y1) + x1**2 * (y2 - y3)) / denom
    return -b / (2.0 * a) if a > 0.0 else None


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
    it down.  Initialized from a parabola through the curve minimum.
    Without a weak field the curve does not depend on Delta1, so a
    ``weak_rabi`` of zero or less raises ValidationError.
    """
    if not weak_rabi > 0.0:
        raise ValidationError("fitting Delta1 needs a weak field: the curve is flat without one")
    good = np.isfinite(curve.intensity)
    d2 = curve.delta2[good]
    y = curve.intensity[good]
    if d2.size < 5:
        raise ValidationError("need at least five finite curve points")
    i0 = int(np.argmin(y))
    vertex = _vertex(d2, y, i0)
    d1_init = d2[i0] if vertex is None else vertex

    def model(p):
        d1, scale = p
        delta = d2 - 2.0 * strong_rabi - d1  # beat Delta3 - Delta1 at each point
        return scale * _central_weight(strong_rabi, d1, weak_rabi, delta)

    w0 = model((d1_init, 1.0))
    top = float(np.max(w0))
    scale_init = float(np.max(y) / top) if top > 0.0 else 1.0

    def residual(P):
        return np.array([model(p) for p in P]) - y

    result = gauss_newton(residual, np.array([d1_init, scale_init]))
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

    def __post_init__(self):
        self.delta3.setflags(write=False)
        self.intensity.setflags(write=False)


def _orders(orders) -> tuple[int, ...]:
    """Distinct subharmonic orders in ascending order; each must be at least 1."""
    orders = tuple(sorted(set(int(n) for n in orders)))
    if any(n < 1 for n in orders):
        raise ValidationError("subharmonic orders must be positive")
    return orders


def subharmonic_axis(
    rabi: float,
    orders=(1, 2, 3, 4, 5),
    points_per_order: int = 16,
    alpha_squared: float = 0.359,
) -> np.ndarray:
    """Weak-detuning axis clustered around the expected dips.

    Each order gets a window reaching from slightly below the bare
    subharmonic 2 Omega / n to beyond the shifted resonance; windows
    shrink for high orders so neighbours never overlap.
    """
    if rabi <= 0.0:
        raise ValidationError("rabi must be positive")
    points = []
    for n in _orders(orders):
        base = 2.0 * rabi / n
        shift = subharmonic_shift(n, rabi, alpha_squared)
        gap_next = base - 2.0 * rabi / (n + 1)
        lo_pad = min(0.12 * rabi / 2.9 + 0.02, 0.35 * gap_next)
        hi_pad = min(shift + 0.15 * rabi / 2.9, 0.55 * gap_next)
        window = np.linspace(base - lo_pad, base + hi_pad, points_per_order)
        points.extend(-window)
    return np.array(sorted(points))


def subharmonic_scan(
    emitter: EmitterParams,
    strong: DriveField,
    delta3_values,
    etalon: EtalonFilter,
    alpha_squared: float = 0.359,
    orders=(1, 2, 3, 4, 5),
    workers: int = 1,
    strict: bool = False,
) -> SubharmonicScan:
    """Etalon-filtered intensity versus weak-field detuning.

    The weak field (amplitude ratio alpha relative to the strong one,
    so G = alpha Omega / 2) is stepped to each Delta3; the incoherent
    spectrum is transmitted through the etalon and integrated.  Dips
    appear where 2 Omega / n photon processes go resonant, displaced
    from the bare subharmonics by the ac Stark shift.  Each requested
    order's dip is the lowest finite point of its window (half a gap
    below 2 Omega / n to 0.7 of a gap above), refined by the parabola
    through it and its neighbours; an order whose lowest point is the
    first or last of its window has no dip.  The frequency grid spans
    the generalized splitting sqrt((2 Omega)^2 + Delta1^2) plus the
    largest |Delta3|, so every row passes emission_spectrum's coverage
    check.  ``strict`` is passed on to emission_spectrum.
    """
    delta3_values = np.asarray(delta3_values, dtype=float)
    if delta3_values.ndim != 1 or delta3_values.size < 5:
        raise ValidationError("delta3_values must hold at least five points")
    orders = _orders(orders)
    alpha = float(np.sqrt(alpha_squared))
    g = 0.5 * alpha * strong.rabi
    lw = 1.0 / (TWO_PI * emitter.t2_ns)
    splitting = np.hypot(2.0 * strong.rabi, strong.detuning)
    span = splitting + float(np.max(np.abs(delta3_values))) + 2.0 * g + 3.0 * lw
    step = max(etalon.fwhm_ghz / 4.0, 1e-3)
    grid = np.arange(-span - 2.0 * step, span + 2.0 * step + step / 2, step)
    grid = grid + strong.detuning

    tasks = []
    for i, d3 in enumerate(delta3_values):
        weak = DriveField(detuning=d3, rabi=g)
        drive = BichromaticDrive(strong=strong, weak=weak)
        tasks.append((i, emitter, drive, grid, strict))
    rows, failures = _run_rows(tasks, workers, delta3_values)
    trans = etalon.transmission(grid)
    intensity = np.full(delta3_values.size, np.nan)
    for idx, row, _ew in rows:
        intensity[idx] = np.trapezoid(row * trans, grid)

    dips = []
    for n in orders:
        base = 2.0 * strong.rabi / n
        gap_next = base - 2.0 * strong.rabi / (n + 1)
        lo, hi = base - 0.5 * gap_next, base + 0.7 * gap_next
        mask = (-delta3_values >= lo) & (-delta3_values <= hi)
        if not np.any((-delta3_values >= base - 1e-9) & (-delta3_values <= base + gap_next)):
            raise CoverageError(
                f"axis does not reach the order-{n} subharmonic at {base:g} GHz"
            )
        x = -delta3_values[mask]
        y = intensity[mask]
        srt = np.argsort(x)
        x, y = x[srt], y[srt]
        good = np.isfinite(y)
        x, y = x[good], y[good]
        best = int(np.argmin(y)) if y.size else 0
        if not 0 < best < y.size - 1:  # lowest at a window edge: no dip
            continue
        vertex = _vertex(x, y, best)
        inside = vertex is not None and x[best - 1] <= vertex <= x[best + 1]
        pos = vertex if inside else x[best]
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
    )


def degenerate_spectrum(
    emitter: EmitterParams,
    strong: DriveField,
    alpha: float,
    grid,
    method: str = "phase_average",
    strict: bool = False,
) -> bloch.Spectrum:
    """Spectrum for two drives at the same frequency (power ratio alpha).

    With no beat note the fields add coherently; an unresolved relative
    phase leaves an effective Rabi frequency distributed over
    Omega sqrt(1 + alpha + 2 sqrt(alpha) cos phi), which flattens the
    sidebands into plateaus spanning 2 Omega (1 +- sqrt(alpha)).

    ``phase_average`` averages monochromatic spectra over _N_PHASES =
    256 evenly spaced phases in one stacked resolvent sum (phases phi
    and 2 pi - phi share one member of weight 2), on a grid covering the
    largest effective splitting.  Against 4096 phases the average is off
    by at most 1.4e-13 of the peak for alpha <= 0.4, 2.9e-10 at
    alpha = 0.8 and 1.2e-7 at alpha = 1.  ``small_delta`` instead runs
    the bichromatic engine at a beat detuning of one twentieth of the
    radiative linewidth, gamma_sp / (2 pi) / 20, so the phase is swept
    physically.  Both see the same distribution.  ``strict`` is passed
    on to emission_spectrum.
    """
    grid = np.asarray(grid, dtype=float)
    if not np.isfinite(alpha) or alpha < 0.0:
        raise ValidationError("alpha (power ratio) must be non-negative")
    if method == "phase_average":
        # phases phi and 2 pi - phi give the same Rabi frequency, so only
        # k = 0 .. n/2 are solved, the paired ones with weight 2
        k = np.arange(_N_PHASES // 2 + 1)
        phases = TWO_PI * k / _N_PHASES
        rabis = strong.rabi * np.abs(1.0 + np.sqrt(alpha) * np.exp(1j * phases))
        weights = np.where((k == 0) | (2 * k == _N_PHASES), 1.0, 2.0)
        return bloch._mean_spectrum(emitter, strong.detuning, rabis, grid, weights)
    if method == "small_delta":
        epsilon = emitter.gamma_sp / TWO_PI / 20.0
        weak = DriveField(
            detuning=strong.detuning + epsilon, rabi=0.5 * np.sqrt(alpha) * strong.rabi
        )
        drive = BichromaticDrive(strong=strong, weak=weak)
        pl = build_periodic_liouvillian(emitter, drive)
        return emission_spectrum(pl, periodic_steady_state(pl), grid, strict=strict)
    raise ValidationError(f"unknown method {method!r}")


def plateau_edges(freq, intensity, rabi: float, alpha: float, detuning: float = 0.0):
    """Measured edges of the upper sideband plateau, GHz.

    The threshold is half the median intensity over the central 60% of
    the predicted plateau 2 Omega (1 +- sqrt(alpha)); the outermost
    threshold crossings inside a padded search window are returned as
    (low, high).
    """
    freq = np.asarray(freq, dtype=float)
    intensity = np.asarray(intensity, dtype=float)
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
