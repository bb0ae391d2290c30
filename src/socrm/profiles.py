"""Hardware calibration profiles for the timing and power models.

A profile is a JSON document so alternative hardware can be swapped in
without code changes; the embedded defaults reproduce the reference
device's calibration.  Layout:

    {
      "timing_us": {"APU": {"8": 0.28, ...}, "PL": {...}},
      "power_mw":  {"APU": {"8": [425, 2064, 1187], ...}, "PL": {...}}
    }

Every key and value is checked: FFT sizes are powers of two >= 2, times are
numbers in (0, MAX_FIELD] and power rows are three numbers in [0, MAX_FIELD],
the bound of every event integer, so row totals, jittered times and energy
sums stay finite, and no FFT size may be given twice (as "8" and "08").
Anything else is a ConfigError, including any other top-level key: a rail's
static power is the non-hosting rail of the power rows, so it has no
section.
"""

from __future__ import annotations

import json

from .event_bus import MAX_FIELD
from .fft_engines import APU, PL
from .power_model import PowerModel
from .timing_model import TimingModel


class ConfigError(ValueError):
    """A run's configuration (scenario, profile, trace or flag) is unusable."""


def _unique_keys(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} appears twice in one object")
        obj[key] = value
    return obj


def read_json_object(path, what: str) -> dict:
    """The JSON object in file `path`; anything else, or an object at any depth
    that names one key twice, is a ConfigError naming `what`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
    # ValueError covers bad JSON, bad UTF-8 and integers over the digit limit
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} {path} must be a JSON object")
    return obj


def _number(value, where: str, positive: bool = False) -> float:
    """A JSON number (not a bool) in [0, MAX_FIELD] or, if `positive`, in (0, MAX_FIELD]."""
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or not 0 <= value <= MAX_FIELD or (positive and value == 0)):
        raise ValueError(f"{where} must be a number in {'(' if positive else '['}0,"
                         f" {MAX_FIELD}], got {value!r}")
    return float(value)


def _power_row(value, where: str) -> tuple[float, float, float]:
    if not isinstance(value, list) or len(value) != 3:
        raise ValueError(f"{where} must be a [ddr_mw, apu_mw, pl_mw] row, got {value!r}")
    return tuple(_number(v, where) for v in value)


def _flatten(section, name: str, convert) -> dict:
    if not isinstance(section, dict) or not set(section) <= {APU, PL}:
        raise ValueError(f"{name} must be an object keyed by {APU!r}/{PL!r}")
    flat = {}
    for domain, by_points in section.items():
        if not isinstance(by_points, dict):
            raise ValueError(f"{name}.{domain} must be an object keyed by FFT size")
        for key, value in by_points.items():
            points = int(key) if key.isascii() and key.isdigit() else 0
            if points < 2 or points & (points - 1):
                raise ValueError(f"{name}.{domain}: FFT size must be a power of two"
                                 f" >= 2, got {key!r}")
            if (domain, points) in flat:
                raise ValueError(f"{name}.{domain}: FFT size {points} is given twice,"
                                 f" again as {key!r}")
            flat[(domain, points)] = convert(value, f"{name}.{domain}.{key}")
    return flat


def load_profile(path) -> dict:
    obj = read_json_object(path, "profile")
    if not set(obj) <= {"timing_us", "power_mw"}:
        raise ConfigError(f"profile {path} must be an object with only the keys"
                          " timing_us and power_mw")
    out = {}
    try:
        if "timing_us" in obj:
            out["timing"] = _flatten(obj["timing_us"], "timing_us",
                                     lambda v, where: _number(v, where, positive=True))
        if "power_mw" in obj:
            out["power"] = _flatten(obj["power_mw"], "power_mw", _power_row)
    except ValueError as exc:
        raise ConfigError(f"malformed profile {path}: {exc}") from exc
    return out


def models_from_profile(path=None, **timing_kwargs) -> tuple[TimingModel, PowerModel]:
    """Build model instances from a profile file, or the embedded defaults."""
    if path is None:
        return TimingModel(**timing_kwargs), PowerModel()
    loaded = load_profile(path)
    timing = TimingModel(profile=loaded.get("timing"), **timing_kwargs)
    return timing, PowerModel(profile=loaded.get("power"))
