"""Flat key=value config files with fail-fast unknown-key validation."""

from __future__ import annotations

import math
import re
from pathlib import Path


class ConfigError(Exception):
    pass


def parse_kv(text: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key = value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {line_no}: empty key")
        if key in out:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def load_kv(path: Path | str) -> dict[str, str]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_kv(path.read_text())


def check_keys(kv: dict[str, str], allowed: set[str], patterns: list[str] = ()) -> None:
    """Reject keys outside the allowed set (or the regex patterns)."""
    compiled = [re.compile(p) for p in patterns]
    for key in kv:
        if key in allowed:
            continue
        if any(p.fullmatch(key) for p in compiled):
            continue
        raise ConfigError(f"unknown config key {key!r}")


# closed ranges for the `bounds` of get_int and get_float
ANY = (-math.inf, math.inf)
POSITIVE = (1, math.inf)
NON_NEGATIVE = (0, math.inf)
ABOVE_ZERO = (math.ulp(0.0), math.inf)  # > 0, for a float


def _bound(b: float) -> str:
    """An integral bound in full, any other bound exactly (its shortest round-trip form)."""
    return str(int(b)) if isinstance(b, int) or b.is_integer() else repr(b)


def _within(key: str, value, bounds: tuple[float, float]):
    lo, hi = bounds
    if not lo <= value <= hi:
        wanted = f">= {_bound(lo)}" if hi == math.inf else f"in [{_bound(lo)}, {_bound(hi)}]"
        raise ConfigError(f"key {key!r}: expected a value {wanted}, got {value!r}")
    return value


def get_int(kv: dict[str, str], key: str, default: int | None = None,
            bounds: tuple[float, float] = ANY) -> int | None:
    """An integral value in the closed range `bounds`, also when spelled as a
    float (`2.0`, `1e9`)."""
    if key not in kv:
        return default
    try:
        return _within(key, int(kv[key]), bounds)
    except ValueError:
        pass
    value = get_float(kv, key)
    if not value.is_integer():
        raise ConfigError(f"key {key!r}: expected integer, got {kv[key]!r}")
    return _within(key, int(value), bounds)


def get_float(kv: dict[str, str], key: str, default: float | None = None,
              bounds: tuple[float, float] = ANY) -> float | None:
    """A finite number in the closed range `bounds`: nan and infinities are
    rejected."""
    if key not in kv:
        return default
    try:
        value = float(kv[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected number, got {kv[key]!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: expected a finite number, got {kv[key]!r}")
    return _within(key, value, bounds)


def get_str(kv: dict[str, str], key: str, default: str | None = None,
            choices: set[str] | None = None) -> str | None:
    value = kv.get(key, default)
    if value is not None and choices is not None and value not in choices:
        raise ConfigError(f"key {key!r}: expected one of {sorted(choices)}, got {value!r}")
    return value


def get_curve(kv: dict[str, str], key: str) -> list[float]:
    """Comma-separated floats. An empty value is a curve of no points, which
    the curve's own check rejects; an empty item, trailing comma included,
    is an error here."""
    value = kv[key].strip()
    if not value:
        return []
    items = [v.strip() for v in value.split(",")]
    if "" in items:
        raise ConfigError(f"key {key!r}: empty item in comma-separated floats {value!r}")
    try:
        return [float(v) for v in items]
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected comma-separated floats") from exc
