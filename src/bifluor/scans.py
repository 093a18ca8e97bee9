"""Parameter scans built on the spectrum engines.

Covers the weak-field detuning map (spectra stacked over Delta2), the
central-line intensity curve and its laser-detuning fit, the
subharmonic dip scan behind an etalon, and the equal-frequency
(degenerate) drive limit where the beat note disappears and only the
relative phase survives.

The rows of both scans share a Liouvillian, so their steady states and
resolvent cutoffs are solved together in batched sweeps.  A map row is
emission_spectrum's one-row case (floquet._spectra); only its full-grid
pass may run in a process pool, and it returns its truncation as data,
settled in row order, so results and warnings do not depend on workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bloch, floquet
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
ETALON_ORDERS = 20  # etalon orders solved on each side of the centre one


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


def _weak_rows(emitter, strong, weak_rabi, detunings, relative_phase=0.0, grid=None):
    """Scan rows: a weak field at each detuning, with its periodic steady state.

    The steady states are solved in one batched call; with a ``grid``, a
    row whose lines it does not cover fails first.  Returns {row:
    (PeriodicLiouvillian, PeriodicState)} and {row: error}.
    """
    pls, errors = {}, {}
    for i, detuning in enumerate(detunings):
        weak = DriveField(detuning=detuning, rabi=weak_rabi)
        drive = BichromaticDrive(strong=strong, weak=weak, relative_phase=relative_phase)
        try:
            pl = build_periodic_liouvillian(emitter, drive)
            if grid is not None:
                floquet._check_coverage(pl, grid)
        except BifluorError as exc:  # a numerical or input failure of this row only
            errors[i] = exc
        else:
            pls[i] = pl
    states = dict(zip(pls, floquet._steady_states(list(pls.values()))))
    errors.update((i, st) for i, st in states.items() if isinstance(st, BifluorError))
    return {i: (pls[i], st) for i, st in states.items() if i not in errors}, errors


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
    corresponding bare detuning.  Each row is its emission_spectrum,
    prepared with the others (floquet._spectra); workers > 1 runs their
    full-grid passes in a pool of min(workers, rows) processes, since a
    pool starts all of them at once.  Nothing depends on the worker count.
    A truncation warns, or fails its row where the warnings filter raises it.
    """
    delta2_values = np.asarray(delta2_values, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if delta2_values.ndim != 1 or delta2_values.size == 0:
        raise ValidationError("delta2_values must be a non-empty 1d array")
    if workers < 1:
        raise ValidationError("workers must be at least 1")
    detunings = delta2_values - 2.0 * strong.rabi
    rows, errors = _weak_rows(emitter, strong, weak_rabi, detunings, relative_phase, grid)
    processes = min(workers, len(rows))  # a pool starts all its workers at once
    args = list(rows.values()), grid, strong.detuning
    if processes > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=processes) as pool:
            spectra = floquet._spectra(*args, pool.map)
    else:
        spectra = floquet._spectra(*args)
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
    if points_per_order < 1:
        raise ValidationError("points_per_order must be at least 1")
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


def _laurent_coefficients(rows, good, terms: int) -> np.ndarray:
    """c_j, j < terms, of x_0[ge] = sum_j c_j / z^(j+1) for large z; shape (rows, terms).

    x = (seed + A x) / z with A x_k = (l0 - i k delta) x_k + lp x_{k-1}
    + lm x_{k+1}, so c_j = (A^j seed)_0[ge], which needs the seed
    harmonics |k| < terms only.
    """
    l0, lp, lm = floquet._traceless(rows[good[0]][0])
    y = np.stack([floquet._incoherent_seed(rows[i][1], terms - 1) for i in good])
    beat = np.array([rows[i][0].delta for i in good])[:, None, None]
    k = np.arange(1 - terms, terms)[:, None]
    coef = []
    for _ in range(terms):
        coef.append(y[:, terms - 1, 1])
        ay = y @ l0.T - 1j * k * beat * y
        ay[:, 1:] += y[:, :-1] @ lp.T  # x_{k-1} into row k
        ay[:, :-1] += y[:, 1:] @ lm.T  # x_{k+1} into row k
        y = ay
    return np.stack(coef, axis=1)


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

    The rows' periodic steady states are solved together, and so are
    their resolvents (floquet._resolvent_cutoffs): each row's cutoff
    starts at its steady-state cutoff, and rows pending at one cutoff
    share one batched sweep.  A row that reaches the ceiling unconverged
    is settled in row order by floquet._accepted, as a spectrum is.

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

    rows, errors = _weak_rows(emitter, strong, weak_rabi, delta3_values)
    x0_ge = np.zeros((n_rows, nu.size), dtype=complex)
    cutoffs = np.zeros(n_rows, dtype=int)
    for i, choice in zip(rows, floquet._resolvent_cutoffs(list(rows.values()), nu)):
        choice = floquet._accepted(*choice)
        if isinstance(choice, BifluorError):
            errors[i] = choice
        else:
            cutoffs[i], x0 = choice
            x0_ge[i] = x0[1]

    good = [i for i in rows if i not in errors]
    intensity = np.full(n_rows, np.nan)
    tail_fraction = np.full(n_rows, np.nan)
    if good:
        tail = 2.0 * (_laurent_coefficients(rows, good, rest.size) @ rest).real
        total = 2.0 * x0_ge[good].real.sum(axis=1) + tail
        intensity[good] = weight * total
        tail_fraction[good] = np.abs(tail / total)
    return intensity, cutoffs, tail_fraction, _failures(delta3_values, errors)


def subharmonic_scan(
    emitter: EmitterParams,
    strong: DriveField,
    delta3_values,
    etalon: EtalonFilter,
    alpha_squared: float = 0.359,
    orders=(1, 2, 3, 4, 5),
) -> SubharmonicScan:
    """Etalon-filtered intensity versus weak-field detuning.

    The weak field (amplitude ratio alpha relative to the strong one,
    so G = alpha Omega / 2) is stepped to each Delta3; the incoherent
    spectrum is transmitted through the etalon and integrated, exactly
    over every etalon order and with no frequency grid: the Airy
    function is a sum of Lorentzians, and each picks the Sambe resolvent
    at one complex frequency (see _filtered_rows).  Dips appear where
    2 Omega / n photon processes go resonant, displaced from the bare
    subharmonics by the ac Stark shift.  Each requested order's dip is
    the lowest finite point of its window (half a gap below 2 Omega / n
    to 0.7 of a gap above), refined by the parabola through it and its
    neighbours; an order whose lowest point is the first or last of its
    window has no dip.  A row that fails is NaN and listed in
    ``failures``, as is one whose cutoff reaches CUTOFF_CEILING
    unconverged where the warnings filter raises its TruncationWarning.
    """
    delta3_values = np.asarray(delta3_values, dtype=float)
    if delta3_values.ndim != 1 or delta3_values.size < 5:
        raise ValidationError("delta3_values must hold at least five points")
    orders = _orders(orders)
    bases = {n: 2.0 * strong.rabi / n for n in orders}
    gaps = {n: bases[n] - 2.0 * strong.rabi / (n + 1) for n in orders}
    for n, base in bases.items():
        if not np.any((-delta3_values >= base - 1e-9) & (-delta3_values <= base + gaps[n])):
            raise CoverageError(f"axis does not reach the order-{n} subharmonic at {base:g} GHz")
    g = 0.5 * float(np.sqrt(alpha_squared)) * strong.rabi
    intensity, cutoffs, tail_fraction, failures = _filtered_rows(
        emitter, strong, g, delta3_values, etalon
    )

    dips = []
    for n in orders:
        base, gap_next = bases[n], gaps[n]
        lo, hi = base - 0.5 * gap_next, base + 0.7 * gap_next
        mask = (-delta3_values >= lo) & (-delta3_values <= hi)
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

    ``phase_average`` averages monochromatic spectra over _N_PHASES =
    256 evenly spaced phases in one stacked resolvent sum (phases phi
    and 2 pi - phi share one member of weight 2), on a grid covering the
    largest effective splitting.  Against 4096 phases the average is off
    by at most 1.4e-13 of the peak for alpha <= 0.4, 2.9e-10 at
    alpha = 0.8 and 1.2e-7 at alpha = 1.  ``small_delta`` instead runs
    the bichromatic engine at a beat detuning of one twentieth of the
    radiative linewidth, gamma_sp / (2 pi) / 20, so the phase is swept
    physically.  Both see the same distribution.  A truncation of the
    ``small_delta`` spectrum is settled as in emission_spectrum.
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
