"""The four benchmark workloads: their products and the gate each product passes.

A product is one ``bifluor`` subcommand invocation.  Every input is drawn
from the workload seed, so one seed always yields the same configs and
data.  A gate reads the files the product wrote and returns ``None`` when
the physics checks out, otherwise the reason it failed.  Gate tolerances
are the ones the acceptance tests use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REF_T1_PS = 390.0
REF_T2_PS = 424.0
REF_RABI2 = 5.8  # full Mollow splitting 2 Omega, GHz
REF_RABI2_WEAK = 1.74  # full weak splitting 2 G = 0.6 Omega, GHz
ORACLE_WINDOW_ON = 0.015898008435  # incoherent weight in +-0.5 GHz (criterion 04)
ETALON = "[etalon]\nfsr_ghz = 9.18\nfwhm_ghz = 0.14\n"
CLOSED_FORM_ROUNDS = 20


@dataclass
class Product:
    """One CLI invocation; ``prepare`` writes untimed inputs before each run."""

    sub: str
    config: str
    gate: Callable[[Path], str | None]
    prepare: Callable[[Path], None] | None = None
    args: tuple[str, ...] = ()  # further CLI arguments
    data: str | None = None  # file name of the --data input, inside the product dir


@dataclass
class Workload:
    products: list[Product]
    # index of the product whose in-process emission_spectrum is measured
    # with tracemalloc in a traced run; None when the workload has none
    mem_probe: int | None = None
    trace_note: str | None = None  # printed by a traced run


def _emitter(t2_ps: float = REF_T2_PS) -> str:
    return f"[emitter]\nt1_ps = {REF_T1_PS:g}\nt2_ps = {t2_ps!r}\n"


def _grid(lo: float, hi: float, step: float) -> str:
    return (
        f"[numerics]\ngrid_min_ghz = {lo!r}\ngrid_max_ghz = {hi!r}\n"
        f"grid_step_ghz = {step!r}\n"
    )


def product_dir(work: Path, index: int, sub: str) -> Path:
    return work / f"p{index:02d}-{sub}"


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_keyvalue(path: Path) -> dict:
    """key=value lines of a metadata or result file, up to its config echo."""
    out = {}
    for line in path.read_text().splitlines():
        if line == "---config---":
            break
        key, _, val = line.partition("=")
        out[key] = val
    return out


def _window_weight(freq, intensity, half=0.5) -> float:
    from scipy.integrate import simpson

    mask = np.abs(freq) <= half + 1e-12
    return float(simpson(intensity[mask], x=freq[mask]))


def _plateau_spread(freq, intensity, rabi2: float, alpha: float) -> float:
    """Relative spread over the central 60% of the predicted upper plateau."""
    amp = np.sqrt(alpha)
    lo, hi = rabi2 * (1.0 - amp), rabi2 * (1.0 + amp)
    span = hi - lo
    core = (freq >= lo + 0.2 * span) & (freq <= hi - 0.2 * span)
    plateau = intensity[core]
    return float(plateau.std() / plateau.mean())


# --- spectrum -------------------------------------------------------------


def _weak_detuning(delta2: float) -> float:
    return round(delta2 - REF_RABI2, 6)


def _spectrum_config(delta2: float) -> str:
    return (
        _emitter()
        + f"\n[drive]\nrabi2_strong_ghz = {REF_RABI2!r}\n"
        + f"rabi2_weak_ghz = {REF_RABI2_WEAK!r}\n"
        + f"detuning_weak_ghz = {_weak_detuning(delta2)!r}\n\n"
        + _grid(-9.0, 9.0, 0.01)
    )


def _spectrum_common(out: Path) -> tuple[np.ndarray | None, str | None]:
    spec = _read_csv(out / "spectrum.csv")
    if spec.shape != (1801, 2) or not np.all(np.isfinite(spec)):
        return None, f"spectrum.csv holds {spec.shape} values or non-finite ones"
    lines = _read_csv(out / "lines.csv")
    if lines.shape[0] != 9:
        return None, f"lines.csv lists {lines.shape[0]} lines, not 9"
    return spec, None


def _gate_reference_spectrum(out: Path) -> str | None:
    spec, err = _spectrum_common(out)
    if err:
        return err
    weight = _window_weight(spec[:, 0], spec[:, 1])
    if abs(weight / ORACLE_WINDOW_ON - 1.0) > 1e-4:
        return f"central window weight {weight!r} is off the oracle {ORACLE_WINDOW_ON}"
    return None


def _gate_seeded_spectrum(delta2: float):
    def gate(out: Path) -> str | None:
        from scipy.integrate import simpson

        from bifluor.emitter import BichromaticDrive, DriveField, EmitterParams
        from bifluor.floquet import build_periodic_liouvillian, periodic_steady_state

        spec, err = _spectrum_common(out)
        if err:
            return err
        # sum rule: emitted power equals the beat-averaged excited population.
        # The +-9 GHz grid cuts the Lorentzian tails, which costs 7-8%.
        elastic = float(read_keyvalue(out / "spectrum.csv.meta.txt")["elastic_weight"])
        total = float(simpson(spec[:, 1], x=spec[:, 0])) + elastic
        drive = BichromaticDrive(
            strong=DriveField(detuning=0.0, rabi=0.5 * REF_RABI2),
            weak=DriveField(detuning=_weak_detuning(delta2), rabi=0.5 * REF_RABI2_WEAK),
        )
        pl = build_periodic_liouvillian(EmitterParams(t1=REF_T1_PS, t2=REF_T2_PS), drive)
        rho_ee = float(periodic_steady_state(pl).harmonic(0)[3].real)
        if abs(total / rho_ee - 1.0) > 0.15:
            return f"sum rule: emitted {total!r} against population {rho_ee!r}"
        return None

    return gate


def spectrum(seed: int, _work: Path) -> Workload:
    rng = random.Random(seed)
    # Delta2 below -0.33 GHz moves a line past the +-9 GHz grid, which the
    # engine rejects with a coverage error, so the seeded range stops there.
    d2 = round(rng.uniform(-0.3, 1.0), 3)
    return Workload(
        [
            Product("spectrum", _spectrum_config(0.0), _gate_reference_spectrum),
            Product("spectrum", _spectrum_config(d2), _gate_seeded_spectrum(d2)),
        ],
        mem_probe=0,
    )


# --- map_pool -------------------------------------------------------------

MAP_ROWS = 6  # three rounds of the two workers
MAP_GRID = 481


def _gate_map(out: Path) -> str | None:
    meta = read_keyvalue(out / "metadata.txt")
    if meta.get("n_failures") != "0":
        return f"{meta.get('n_failures')} failed rows"
    if meta.get("fit_delta1_converged") != "True":
        return "Delta1 fit did not converge"
    n_lines = len((out / "map.csv").read_text().splitlines())
    if n_lines != 1 + MAP_ROWS * MAP_GRID:
        return f"map.csv holds {n_lines} lines"
    curve = _read_csv(out / "central_curve.csv")
    measured = float(curve[np.argmin(curve[:, 1]), 0])
    # the secular central weight vanishes where the weak field meets the
    # dressed resonance: Delta2 = 2 Omega + Delta1 - sqrt(4 Omega^2 + Delta1^2)
    d1 = float(meta["fit_delta1_ghz"])
    predicted = REF_RABI2 + d1 - float(np.hypot(REF_RABI2, d1))
    if abs(measured - predicted) > 0.5:
        return f"central minimum at {measured} GHz, fit predicts {predicted:.4f} GHz"
    return None


def map_pool(seed: int, _work: Path) -> Workload:
    rng = random.Random(seed)
    phase = round(rng.uniform(0.0, 2.0 * np.pi), 4)
    config = (
        _emitter()
        + f"\n[drive]\nrabi2_strong_ghz = {REF_RABI2!r}\n"
        + f"rabi2_weak_ghz = {REF_RABI2_WEAK!r}\nrelative_phase_rad = {phase!r}\n\n"
        + _grid(-12.0, 12.0, 0.05)
        + "\n[scan]\ndelta2_min_ghz = -1.25\ndelta2_max_ghz = 1.25\n"
        + "delta2_step_ghz = 0.5\nfit_delta1 = true\n"
    )
    return Workload(
        [Product("map", config, _gate_map, args=("--workers", "2"))],
        trace_note="map rows run in pool children, which are not traced; the per-row "
        "floquet metrics come from the spectrum and high_order workloads",
    )


# --- high_order -----------------------------------------------------------


def _gate_subharmonics(out: Path) -> str | None:
    curve = _read_csv(out / "subharmonics.csv")
    if curve.shape[0] != 6 or not np.all(np.isfinite(curve)):
        return "subharmonics.csv lacks six finite rows"
    dips = _read_csv(out / "dip_report.csv")
    base = REF_RABI2 / 5.0
    for row in dips:
        if int(row[0]) == 5:
            shift = row[1] - base
            if 0.0 < shift < 0.35:
                return None
            return f"order-5 dip displaced by {shift:+.4f} GHz from 2 Omega / 5"
    return "no order-5 dip found"


def _gate_plateau(rabi2: float, alpha: float):
    def gate(out: Path) -> str | None:
        spec = _read_csv(out / "degenerate.csv")
        spread = _plateau_spread(spec[:, 0], spec[:, 1], rabi2, alpha)
        if not spread < 0.15:
            return f"plateau spread {spread:.4f} is not below 0.15"
        return None

    return gate


def high_order(seed: int, _work: Path) -> Workload:
    rng = random.Random(seed)
    # subharmonic_axis caps the order-5 window at 2 Omega / 5 + 0.106 GHz;
    # from alpha_squared = 0.36 on, the dip lies past that end and no
    # order-5 dip is reported, so the seeded range stops at 0.35.
    alpha_sq = round(rng.uniform(0.3, 0.35), 4)
    drive = f"\n[drive]\nrabi2_strong_ghz = {REF_RABI2!r}\n"
    subharmonics = (
        _emitter()
        + drive
        + f"\n[scan]\nalpha_squared = {alpha_sq!r}\norders = 5\npoints_per_order = 6\n\n"
        + ETALON
    )
    degenerate = (
        _emitter()
        + drive
        + f"alpha = {alpha_sq!r}\n\n"
        + _grid(-12.0, 12.0, 0.01)
        + "\n[scan]\nmethod = small_delta\n"
    )
    return Workload(
        [
            Product("subharmonics", subharmonics, _gate_subharmonics),
            Product("degenerate", degenerate, _gate_plateau(REF_RABI2, alpha_sq)),
        ],
        mem_probe=1,
    )


# --- closed_form ----------------------------------------------------------


def _gate_mollow(rabi2: float):
    def gate(out: Path) -> str | None:
        spec = _read_csv(out / "mollow.csv")
        freq, intensity = spec[:, 0], spec[:, 1]
        upper, lower = freq > 1.0, freq < -1.0
        f_up = freq[upper][np.argmax(intensity[upper])]
        f_lo = freq[lower][np.argmax(intensity[lower])]
        if abs(f_up - rabi2) > 0.1 or abs(f_lo + rabi2) > 0.1:
            return f"sidebands at {f_lo}, {f_up} GHz, expected +-{rabi2}"
        return None

    return gate


def _noisy_copy(source: Path, seed: int):
    """Write the Mollow product plus 1% seeded Gaussian noise as fit input."""

    def prepare(product_dir: Path) -> None:
        spec = _read_csv(source / "mollow.csv")
        rng = np.random.default_rng(seed)
        noisy = spec[:, 1] + 0.01 * spec[:, 1].max() * rng.standard_normal(spec.shape[0])
        rows = ["freq_ghz,intensity"]
        rows += [f"{f!r},{y!r}" for f, y in zip(spec[:, 0].tolist(), noisy.tolist())]
        (product_dir / "synthetic.csv").write_text("\n".join(rows) + "\n")

    return prepare


def _gate_fit(rabi2: float, t2_ps: float):
    def gate(out: Path) -> str | None:
        res = read_keyvalue(out / "fit_result.txt")
        if res.get("converged") != "True":
            return "Mollow fit did not converge"
        got_rabi2, got_t2 = float(res["rabi2_ghz"]), float(res["t2_ps"])
        if abs(got_rabi2 - rabi2) > 0.1 or abs(got_t2 / t2_ps - 1.0) > 0.05:
            return f"fit gave 2 Omega {got_rabi2:.4f}, T2 {got_t2:.2f}; true {rabi2}, {t2_ps}"
        return None

    return gate


def closed_form(seed: int, work: Path) -> Workload:
    """The fit of each round reads the Mollow product's output under ``work``."""
    rng = random.Random(seed)
    products = []
    for _ in range(CLOSED_FORM_ROUNDS):
        rabi2 = round(rng.uniform(5.0, 6.5), 3)
        t2 = round(rng.uniform(380.0, 460.0), 1)
        alpha = round(rng.uniform(0.2, 0.4), 3)
        mollow = _emitter(t2) + f"\n[drive]\nrabi2_strong_ghz = {rabi2!r}\n\n" + _grid(
            -9.0, 9.0, 0.02
        )
        fit = (
            f"[emitter]\nt1_ps = {REF_T1_PS:g}\n\n[fit]\n"
            f"rabi2_guess_ghz = {round(0.9 * rabi2, 3)!r}\n"
            f"t2_guess_ps = {round(0.9 * t2, 1)!r}\n"
        )
        degenerate = (
            _emitter(t2)
            + f"\n[drive]\nrabi2_strong_ghz = {rabi2!r}\nalpha = {alpha!r}\n\n"
            + _grid(-14.0, 14.0, 0.02)  # covers 2 Omega (1 + sqrt(alpha)) at the top of the range
            + "\n[scan]\nmethod = phase_average\n"
        )
        mollow_out = product_dir(work, len(products), "mollow") / "out"
        products += [
            Product("mollow", mollow, _gate_mollow(rabi2)),
            Product(
                "fit",
                fit,
                _gate_fit(rabi2, t2),
                prepare=_noisy_copy(mollow_out, rng.getrandbits(32)),
                data="synthetic.csv",
            ),
            Product("degenerate", degenerate, _gate_plateau(rabi2, alpha)),
        ]
    return Workload(products)


BUILDERS = {
    "spectrum": spectrum,
    "map_pool": map_pool,
    "high_order": high_order,
    "closed_form": closed_form,
}
