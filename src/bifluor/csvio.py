"""CSV and key-value writers for scan products.

All writers are atomic (temp file in the target directory, then
os.replace) and write every value as ``str`` of its Python scalar
(``_fmt``, or ``tolist()`` for a whole array), so identical results
produce byte-identical files regardless of how they were computed.
``cli`` writes run metadata with ``_keyvalue_text``.
"""

from __future__ import annotations

import os

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

_SPECTRUM_HEADER = "freq_ghz,intensity"


def _fmt(value) -> str:
    """A numpy scalar as its Python scalar, so a float is its shortest round-trip repr."""
    return str(value.item() if isinstance(value, np.generic) else value)


def _keyvalue_text(entries: dict) -> str:
    return "".join(f"{key}={_fmt(val)}\n" for key, val in entries.items())


def _write_table(path, header: str, *columns) -> None:
    """The header line, then row i of the columns; an array's tolist() is already Python scalars."""
    cells = [map(str, c.tolist()) if isinstance(c, np.ndarray) else map(_fmt, c) for c in columns]
    atomic_write_text(path, header + "\n" + "".join(",".join(row) + "\n" for row in zip(*cells)))


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temp file and an atomic rename.

    The temp file is created with mode 0o666 under the process umask,
    so the product gets the mode that ``open(path, "w")`` gives it.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".partial-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
    atomic_write_text(path, _keyvalue_text(entries))


def write_spectrum(path, spectrum) -> None:
    """Spectrum CSV (freq_ghz,intensity) plus a .meta.txt sidecar.

    The sidecar records the elastic weight and the discrete elastic
    lines, which cannot live on the frequency grid.
    """
    _write_table(path, _SPECTRUM_HEADER, spectrum.freq, spectrum.intensity)
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
    with open(path) as handle:  # (line number in the file, text) of each non-blank line
        lines = [(n, text) for n, ln in enumerate(handle, start=1) if (text := ln.strip())]
    if not lines or lines[0][1].split(",")[:2] != _SPECTRUM_HEADER.split(","):
        raise ValidationError(f"{path}: expected a {_SPECTRUM_HEADER} header")
    freq, intensity = [], []
    for lineno, ln in lines[1:]:
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
    freq, intensity = np.array(freq), np.array(intensity)
    bad = np.flatnonzero(~(np.isfinite(freq) & np.isfinite(intensity)))
    if bad.size:
        lineno, text = lines[1 + bad[0]]
        raise ValidationError(f"{path}:{lineno}: values must be finite, got {text!r}")
    return freq, intensity


def write_map(path, result) -> None:
    """Long-format map CSV: delta2_ghz,freq_ghz,intensity.

    Each frequency and each Delta2 goes through _fmt once; an intensity,
    a float from tolist(), through repr, which is what _fmt gives it.
    """
    freq = [f"{_fmt(f)}," for f in result.freq.tolist()]
    lines = ["delta2_ghz,freq_ghz,intensity\n"]
    for delta2, row in zip(result.delta2.tolist(), result.intensity.tolist()):
        head = f"{_fmt(delta2)},"
        lines += [f"{head}{f}{v!r}\n" for f, v in zip(freq, row)]
    atomic_write_text(path, "".join(lines))


def write_curve(path, x, intensity, x_name: str = "x_ghz") -> None:
    _write_table(path, f"{x_name},intensity", x, intensity)


def write_dip_report(path, dips) -> None:
    header = "n,dip_position_ghz,unshifted_2omega_over_n_ghz,formula_shift_ghz"
    rows = [(d.order, d.dip_position_ghz, d.unshifted_ghz, d.formula_shift_ghz) for d in dips]
    _write_table(path, header, *zip(*rows))


def write_lines(path, record) -> None:
    """Line list CSV: label,center_ghz,weight."""
    rows = [(line.label, line.center_ghz, line.weight) for line in record.lines]
    _write_table(path, "label,center_ghz,weight", *zip(*rows))
