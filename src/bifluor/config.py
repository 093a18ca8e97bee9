"""Flat key=value run configuration.

Files hold [section] headers and key=value lines; blank lines and
lines starting with # are skipped.  Values keep their literal text
until a typed getter parses them, the original file text is preserved
for bit-exact echoing into run metadata, and every diagnostic carries
the file name and line number.

Defaulted values are recorded so a run can report exactly what it
used; keys that are never consumed are reported as errors, which
catches misspelled options before a long computation starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .emitter import BichromaticDrive, DriveField, EmitterParams
from .errors import ConfigError

__all__ = [
    "ConfigFile",
    "load_config",
    "parse_config_text",
    "build_emitter",
    "build_strong_drive",
    "build_bichromatic_drive",
    "build_axis",
    "build_grid",
]

_MISSING = object()


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(raw)


def _parse_int_list(raw: str) -> tuple:
    return tuple(int(part.strip()) for part in raw.split(",") if part.strip())


@dataclass
class ConfigFile:
    path: str
    text: str
    entries: dict  # key -> (raw value, line number)
    accessed: set = field(default_factory=set)
    materialized: dict = field(default_factory=dict)

    def has(self, key: str) -> bool:
        return key in self.entries

    def line(self, key: str) -> int:
        return self.entries[key][1]

    def _typed(self, key: str, default, kind: str, parse):
        """parse() of the value of key, or default, recorded, when the key is absent."""
        if key not in self.entries:
            if default is _MISSING:
                raise ConfigError(f"{self.path}: missing required key {key}")
            self.materialized[key] = default
            return default
        self.accessed.add(key)
        raw, lineno = self.entries[key]
        try:
            return parse(raw)
        except ValueError as exc:
            raise ConfigError(
                f"{self.path}:{lineno}: key {key}: could not parse {raw!r} as {kind}"
            ) from exc

    def get_str(self, key: str, default=_MISSING) -> str:
        return self._typed(key, default, "text", str)

    def get_float(self, key: str, default=_MISSING) -> float:
        return self._typed(key, default, "a number", float)

    def get_int(self, key: str, default=_MISSING) -> int:
        return self._typed(key, default, "an integer", int)

    def get_bool(self, key: str, default=_MISSING) -> bool:
        return self._typed(key, default, "a boolean", _parse_bool)

    def get_int_list(self, key: str, default=_MISSING) -> tuple:
        return self._typed(key, default, "a comma-separated integer list", _parse_int_list)

    def raise_on_unused(self) -> None:
        for key, (_val, lineno) in self.entries.items():
            if key in self.accessed:
                continue
            raise ConfigError(f"{self.path}:{lineno}: unknown key {key} for this command")

    def effective(self) -> dict:
        """Consumed values plus materialized defaults, for run metadata."""
        out = {}
        for key in sorted(self.accessed):
            out[key] = self.entries[key][0]
        for key in sorted(self.materialized):
            out[f"{key} (default)"] = self.materialized[key]
        return out


def parse_config_text(text: str, path: str = "<config>") -> ConfigFile:
    entries = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section:
                raise ConfigError(f"{path}:{lineno}: empty section name")
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value or [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        full = f"{section}.{key}" if section else key
        if full in entries:
            raise ConfigError(
                f"{path}:{lineno}: duplicate key {full} "
                f"(first defined at line {entries[full][1]})"
            )
        entries[full] = (value, lineno)
    return ConfigFile(path=path, text=text, entries=entries)


def load_config(path) -> ConfigFile:
    with open(path) as handle:
        text = handle.read()
    return parse_config_text(text, path=str(path))


def build_emitter(cfg: ConfigFile) -> EmitterParams:
    t1 = cfg.get_float("emitter.t1_ps")
    t2 = cfg.get_float("emitter.t2_ps")
    return EmitterParams(t1=t1, t2=t2)


def build_strong_drive(cfg: ConfigFile) -> DriveField:
    rabi2 = cfg.get_float("drive.rabi2_strong_ghz")
    detuning = cfg.get_float("drive.detuning_strong_ghz", 0.0)
    return DriveField(detuning=detuning, rabi=0.5 * rabi2)


def build_bichromatic_drive(cfg: ConfigFile) -> BichromaticDrive:
    """Strong and weak field; drive.rabi2_weak_ghz is the full weak splitting 2 G."""
    strong = build_strong_drive(cfg)
    weak_rabi = 0.5 * cfg.get_float("drive.rabi2_weak_ghz")
    weak_det = cfg.get_float("drive.detuning_weak_ghz")
    phase = cfg.get_float("drive.relative_phase_rad", 0.0)
    weak = DriveField(detuning=weak_det, rabi=weak_rabi)
    return BichromaticDrive(strong=strong, weak=weak, relative_phase=phase)


def build_axis(cfg: ConfigFile, prefix: str) -> np.ndarray:
    """Uniform axis, both ends included, from <prefix>_min_ghz, _max_ghz, _step_ghz.

    The step must divide max - min into a whole number of steps (to 1e-9
    relative), so the axis has exactly the step the config states.
    """
    name = prefix.rpartition(".")[2]
    lo = cfg.get_float(f"{prefix}_min_ghz")
    hi = cfg.get_float(f"{prefix}_max_ghz")
    step = cfg.get_float(f"{prefix}_step_ghz")
    if not np.all(np.isfinite([lo, hi, step])):
        raise ConfigError(f"{cfg.path}: {prefix} axis needs finite min, max and step")
    if step <= 0.0:
        raise ConfigError(
            f"{cfg.path}:{cfg.line(f'{prefix}_step_ghz')}: {name}_step_ghz must be positive"
        )
    if hi <= lo:
        raise ConfigError(f"{cfg.path}: {name}_max_ghz must exceed {name}_min_ghz")
    steps = (hi - lo) / step
    count = int(round(steps)) + 1
    if count > 2_000_000:  # refused before it is allocated
        raise ConfigError(f"{cfg.path}: {name} would hold {count} points")
    if abs(steps - (count - 1)) > 1e-9 * steps:
        raise ConfigError(
            f"{cfg.path}:{cfg.line(f'{prefix}_step_ghz')}: {name}_step_ghz = {step!r} "
            f"does not divide {name}_max_ghz - {name}_min_ghz = {hi - lo!r} into whole steps"
        )
    return np.linspace(lo, hi, count)


def build_grid(cfg: ConfigFile) -> np.ndarray:
    return build_axis(cfg, "numerics.grid")
