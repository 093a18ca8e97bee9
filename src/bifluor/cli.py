"""Command line front end.

Six subcommands map onto the library layers:

* ``mollow``        monochromatic spectrum from the Bloch equations
* ``spectrum``      bichromatic spectrum plus the secular line list
* ``map``           spectra stacked over the dressed detuning Delta2
* ``subharmonics``  etalon-filtered dip scan over the weak detuning; the
  filtered intensity is exact over all etalon orders, with no grid
* ``degenerate``    equal-frequency drives (phase average / tiny beat)
* ``fit``           Mollow fit (Rabi splitting, T2) of a measured CSV

Every run reads one key=value config (--config), writes CSV products
into --out, and records a metadata.txt with the package version,
timestamps, effective settings (including defaults), any warnings, and
a verbatim echo of the config.  --strict exists only on the subcommands
with a harmonic cutoff (spectrum, map, subharmonics, degenerate) and
--workers only on map, whose rows run their full-grid passes in a
process pool; metadata.txt records the flags its subcommand has.  Exit
codes: 0 success, 1 validation or configuration problem, 2 numerical
failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from datetime import datetime, timezone

import numpy as np

from . import __version__, bloch, csvio
from .config import (
    ConfigFile,
    build_axis,
    build_bichromatic_drive,
    build_emitter,
    build_grid,
    build_strong_drive,
    load_config,
)
from .dressed import doubly_dressed_lines
from .emitter import EmitterParams, DriveField
from .errors import BifluorError, ConfigError, TruncationWarning
from .floquet import build_periodic_liouvillian, emission_spectrum, periodic_steady_state
from .scans import (
    ETALON_ORDERS,
    EtalonFilter,
    central_intensity_curve,
    degenerate_spectrum,
    detuning_map,
    fit_delta1,
    plateau_edges,
    subharmonic_axis,
    subharmonic_scan,
)

__all__ = ["main"]


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _prepare_out(out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    if not os.access(out_dir, os.W_OK):
        raise OSError(f"output directory {out_dir!r} is not writable")
    return out_dir


def _write_metadata(args, cfg: ConfigFile, started: str, notes, extra: dict):
    entries = {
        "command": args.command,
        "version": __version__,
        "started_utc": started,
        "finished_utc": _utcnow(),
        "config_path": cfg.path,
        "out": args.out,
        **{flag: getattr(args, flag) for flag in ("strict", "workers") if hasattr(args, flag)},
        **extra,
        **{f"config.{key}": val for key, val in cfg.effective().items()},
        **_numbered("warning", notes),
    }
    text = csvio._keyvalue_text(entries) + "---config---\n" + cfg.text
    csvio.atomic_write_text(os.path.join(args.out, "metadata.txt"), text)


def _numbered(name: str, items) -> dict:
    """n_<name>s, then one <name>_<i> entry per item."""
    return {f"n_{name}s": len(items), **{f"{name}_{i}": item for i, item in enumerate(items)}}


def _cmd_mollow(args, cfg: ConfigFile):
    emitter = build_emitter(cfg)
    strong = build_strong_drive(cfg)
    grid = build_grid(cfg)
    cfg.raise_on_unused()
    spec = bloch.mollow_spectrum(emitter, strong, grid)
    csvio.write_spectrum(os.path.join(args.out, "mollow.csv"), spec)
    print(
        f"wrote mollow.csv ({grid.size} points, "
        f"elastic weight {spec.elastic_weight:.6g})"
    )
    return {}


def _cmd_spectrum(args, cfg: ConfigFile):
    emitter = build_emitter(cfg)
    drive = build_bichromatic_drive(cfg)
    grid = build_grid(cfg)
    cfg.raise_on_unused()
    pl = build_periodic_liouvillian(emitter, drive)
    state = periodic_steady_state(pl)
    spec = emission_spectrum(pl, state, grid)
    csvio.write_spectrum(os.path.join(args.out, "spectrum.csv"), spec)
    lines = doubly_dressed_lines(drive)
    csvio.write_lines(os.path.join(args.out, "lines.csv"), lines)
    print(
        f"wrote spectrum.csv ({grid.size} points) and lines.csv "
        f"(9 lines, daughter separation {lines.daughter_separation():.4g} GHz)"
    )
    return {
        "steady_state_cutoff": state.cutoff,
        "diag.max_resolvent_cutoff": spec.resolvent_cutoff,
    }


def _cmd_map(args, cfg: ConfigFile):
    emitter = build_emitter(cfg)
    strong = build_strong_drive(cfg)
    weak_rabi = 0.5 * cfg.get_float("drive.rabi2_weak_ghz")
    phase = cfg.get_float("drive.relative_phase_rad", 0.0)
    grid = build_grid(cfg)
    axis = build_axis(cfg, "scan.delta2")
    want_fit = cfg.get_bool("scan.fit_delta1", False)
    cfg.raise_on_unused()
    if want_fit and not weak_rabi > 0.0:
        raise ConfigError(f"{cfg.path}: scan.fit_delta1 needs drive.rabi2_weak_ghz > 0")
    result = detuning_map(
        emitter,
        strong,
        weak_rabi,
        axis,
        grid,
        relative_phase=phase,
        workers=args.workers,
    )
    csvio.write_map(os.path.join(args.out, "map.csv"), result)
    curve = central_intensity_curve(result, center=strong.detuning)
    csvio.write_curve(
        os.path.join(args.out, "central_curve.csv"),
        curve.delta2,
        curve.intensity,
        x_name="delta2_ghz",
    )
    extra = _numbered("failure", [f"delta2={d2}: {msg}" for d2, msg in result.failures])
    extra["diag.max_resolvent_cutoff"] = int(result.cutoffs.max())
    if want_fit:
        fit = fit_delta1(curve, strong.rabi, weak_rabi)
        extra["fit_delta1_ghz"] = fit.delta1
        extra["fit_delta1_converged"] = fit.converged
        print(f"fitted strong detuning: {fit.delta1:.4g} GHz")
    print(
        f"wrote map.csv ({axis.size} x {grid.size}) and central_curve.csv; "
        f"{len(result.failures)} failed rows"
    )
    return extra


def _cmd_subharmonics(args, cfg: ConfigFile):
    emitter = build_emitter(cfg)
    strong = build_strong_drive(cfg)
    alpha_sq = cfg.get_float("scan.alpha_squared", 0.359)
    orders = cfg.get_int_list("scan.orders", (1, 2, 3, 4, 5))
    etalon = EtalonFilter(
        center_ghz=cfg.get_float("etalon.center_ghz", 0.0),
        fsr_ghz=cfg.get_float("etalon.fsr_ghz"),
        fwhm_ghz=cfg.get_float("etalon.fwhm_ghz"),
    )
    if cfg.has("scan.delta3_min_ghz"):
        axis = build_axis(cfg, "scan.delta3")
    else:
        points = cfg.get_int("scan.points_per_order", 16)
        axis = subharmonic_axis(strong.rabi, orders, points, alpha_sq)
    cfg.raise_on_unused()
    scan = subharmonic_scan(
        emitter,
        strong,
        axis,
        etalon,
        alpha_squared=alpha_sq,
        orders=orders,
    )
    csvio.write_curve(
        os.path.join(args.out, "subharmonics.csv"),
        scan.delta3,
        scan.intensity,
        x_name="delta3_ghz",
    )
    csvio.write_dip_report(os.path.join(args.out, "dip_report.csv"), scan.dips)
    for dip in scan.dips:
        print(
            f"n={dip.order}: dip at {dip.dip_position_ghz:.4f} GHz "
            f"(bare {dip.unshifted_ghz:.4f}, formula shift "
            f"{dip.formula_shift_ghz:+.4f})"
        )
    print(
        f"wrote subharmonics.csv ({axis.size} points) and dip_report.csv; "
        f"{len(scan.failures)} failed rows"
    )
    failures = [f"delta3={d3}: {msg}" for d3, msg in scan.failures]
    tails = scan.tail_fraction[np.isfinite(scan.tail_fraction)]
    return {
        "n_dips": len(scan.dips),
        **_numbered("failure", failures),
        "diag.max_resolvent_cutoff": int(scan.cutoffs.max()),
        "diag.etalon_orders_per_row": 2 * ETALON_ORDERS + 1,
        "diag.max_tail_fraction": float(tails.max()) if tails.size else float("nan"),
    }


def _cmd_degenerate(args, cfg: ConfigFile):
    emitter = build_emitter(cfg)
    strong = build_strong_drive(cfg)
    alpha = cfg.get_float("drive.alpha")  # power ratio of the two fields
    grid = build_grid(cfg)
    method = cfg.get_str("scan.method", "phase_average")
    cfg.raise_on_unused()
    spec = degenerate_spectrum(emitter, strong, alpha, grid, method=method)
    csvio.write_spectrum(os.path.join(args.out, "degenerate.csv"), spec)
    extra = {"method": method, "diag.max_resolvent_cutoff": spec.resolvent_cutoff}
    try:
        lo, hi = plateau_edges(spec.freq, spec.intensity, strong.rabi, alpha, strong.detuning)
        extra.update(plateau_low_ghz=lo, plateau_high_ghz=hi)
        print(f"wrote degenerate.csv; upper plateau [{lo:.4g}, {hi:.4g}] GHz")
    except BifluorError:
        print("wrote degenerate.csv; plateau edges not resolvable")
    return extra


def _cmd_fit(args, cfg: ConfigFile):
    freq, intensity = csvio.read_spectrum(args.data)
    t1 = cfg.get_float("emitter.t1_ps")
    detuning = cfg.get_float("fit.detuning_ghz", 0.0)
    rabi2_guess = cfg.get_float("fit.rabi2_guess_ghz")
    t2_guess = cfg.get_float("fit.t2_guess_ps")
    amp_default = float(np.max(intensity) - np.min(intensity))
    amp_guess = cfg.get_float("fit.amplitude_guess", amp_default)
    offset_guess = cfg.get_float("fit.offset_guess", float(np.min(intensity)))
    cfg.raise_on_unused()
    fit = bloch.fit_mollow(
        freq,
        intensity,
        guess=(0.5 * rabi2_guess, t2_guess, amp_guess, offset_guess),
        t1_ps=t1,
        detuning=detuning,
    )
    emitter = EmitterParams(t1=t1, t2=fit.t2_ps)
    drive = DriveField(detuning=detuning, rabi=fit.omega)
    model = fit.amplitude * bloch.mollow_shape(emitter, drive, freq) + fit.offset
    csvio.write_curve(os.path.join(args.out, "fit_model.csv"), freq, model, "freq_ghz")
    result = {
        "rabi2_ghz": fit.rabi2,
        "t2_ps": fit.t2_ps,
        "amplitude": fit.amplitude,
        "offset": fit.offset,
        "rabi2_std_ghz": 2.0 * fit.std_errors[0],
        "t2_std_ps": fit.std_errors[1],
        "residual_norm": fit.residual_norm,
        "n_iter": fit.n_iter,
        "converged": fit.converged,
    }
    csvio.write_keyvalue(os.path.join(args.out, "fit_result.txt"), result)
    print(
        f"fit: Rabi splitting {fit.rabi2:.4f} GHz, T2 {fit.t2_ps:.2f} ps "
        f"({fit.n_iter} iterations, converged={fit.converged})"
    )
    return result


_COMMANDS = {
    "mollow": _cmd_mollow,
    "spectrum": _cmd_spectrum,
    "map": _cmd_map,
    "subharmonics": _cmd_subharmonics,
    "degenerate": _cmd_degenerate,
    "fit": _cmd_fit,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bifluor",
        description="Resonance fluorescence of a driven two-level emitter",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # (name, help, has a harmonic cutoff, runs rows in a process pool)
    for name, help_text, cutoff, pool in (
        ("mollow", "monochromatic emission spectrum", False, False),
        ("spectrum", "bichromatic emission spectrum and line list", True, False),
        ("map", "spectra versus the dressed detuning Delta2", True, True),
        ("subharmonics", "etalon-filtered subharmonic dip scan", True, False),
        ("degenerate", "equal-frequency two-field spectrum", True, False),
        ("fit", "fit Rabi splitting and T2 to a measured spectrum", False, False),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="key=value run configuration")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        if cutoff:
            p.add_argument(
                "--strict",
                action="store_true",
                help="treat a harmonic cutoff that reaches its ceiling without "
                "converging as an error, not a warning",
            )
        if pool:
            p.add_argument(
                "--workers",
                type=int,
                default=1,
                help="process count for scan rows (default: 1)",
            )
        if name == "fit":
            p.add_argument("--data", required=True, help="measured spectrum CSV")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        _prepare_out(args.out)
        started = _utcnow()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if getattr(args, "strict", False):  # a truncation fails instead of warning
                warnings.simplefilter("error", TruncationWarning)
            extra = _COMMANDS[args.command](args, cfg)
        notes = [f"{w.category.__name__}: {w.message}" for w in caught]
        for note in notes:
            print(f"warning: {note}", file=sys.stderr)
        _write_metadata(args, cfg, started, notes, extra)
        return 0
    except BifluorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
