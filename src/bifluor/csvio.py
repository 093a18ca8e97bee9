"""CSV and key-value writers for scan products.

All writers are atomic (temp file in the target directory, then
os.replace) and format floats with repr, so identical results produce
byte-identical files regardless of how they were computed.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .errors import ValidationError

__all__ = [
    "atomic_write_text",
    "write_keyvalue",
    "write_spectrum",
    "read_spectrum",
    "write_map",
    "write_curve",
    "write_dip_report",
    "write_lines",
]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temp file and an atomic rename."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".partial-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_keyvalue(path, entries: dict) -> None:
    """key=value lines, one per entry, insertion order preserved."""
    lines = [f"{key}={_fmt(val)}" for key, val in entries.items()]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_spectrum(path, spectrum) -> None:
    """Spectrum CSV (freq_ghz,intensity) plus a .meta.txt sidecar.

    The sidecar records the elastic weight and the discrete elastic
    lines, which cannot live on the frequency grid.
    """
    rows = ["freq_ghz,intensity"]
    for f, s in zip(spectrum.freq, spectrum.intensity):
        rows.append(f"{_fmt(f)},{_fmt(s)}")
    atomic_write_text(path, "\n".join(rows) + "\n")
    sidecar = {
        "elastic_weight": spectrum.elastic_weight,
        "n_elastic_lines": len(spectrum.elastic_lines),
    }
    for i, (freq, weight) in enumerate(spectrum.elastic_lines):
        sidecar[f"elastic_line_{i}_freq_ghz"] = freq
        sidecar[f"elastic_line_{i}_weight"] = weight
    write_keyvalue(os.fspath(path) + ".meta.txt", sidecar)


def read_spectrum(path):
    """Read a freq_ghz,intensity CSV; returns (freq, intensity)."""
    with open(path) as handle:
        lines = [ln.strip() for ln in handle]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0].split(",")[:2] != ["freq_ghz", "intensity"]:
        raise ValidationError(f"{path}: expected a freq_ghz,intensity header")
    freq, intensity = [], []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != 2:
            raise ValidationError(f"{path}:{lineno}: expected two columns")
        try:
            freq.append(float(parts[0]))
            intensity.append(float(parts[1]))
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    if len(freq) < 2:
        raise ValidationError(f"{path}: need at least two samples")
    return np.array(freq), np.array(intensity)


def write_map(path, result) -> None:
    """Long-format map CSV: delta2_ghz,freq_ghz,intensity."""
    rows = ["delta2_ghz,freq_ghz,intensity"]
    for i, d2 in enumerate(result.delta2):
        d2_s = _fmt(d2)
        for f, s in zip(result.freq, result.intensity[i]):
            rows.append(f"{d2_s},{_fmt(f)},{_fmt(s)}")
    atomic_write_text(path, "\n".join(rows) + "\n")


def write_curve(path, x, intensity, x_name: str = "x_ghz") -> None:
    rows = [f"{x_name},intensity"]
    for xv, yv in zip(x, intensity):
        rows.append(f"{_fmt(xv)},{_fmt(yv)}")
    atomic_write_text(path, "\n".join(rows) + "\n")


def write_dip_report(path, dips) -> None:
    rows = ["n,dip_position_ghz,unshifted_2omega_over_n_ghz,formula_shift_ghz"]
    for dip in dips:
        rows.append(
            f"{dip.order},{_fmt(dip.dip_position_ghz)},"
            f"{_fmt(dip.unshifted_ghz)},{_fmt(dip.formula_shift_ghz)}"
        )
    atomic_write_text(path, "\n".join(rows) + "\n")


def write_lines(path, record) -> None:
    """Line list CSV: label,center_ghz,weight."""
    rows = ["label,center_ghz,weight"]
    for line in record.lines:
        rows.append(f"{line.label},{_fmt(line.center_ghz)},{_fmt(line.weight)}")
    atomic_write_text(path, "\n".join(rows) + "\n")
