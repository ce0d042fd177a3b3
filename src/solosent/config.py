"""Flat key-value configuration files.

One ``key = value`` pair per line, ``#`` comments, blank lines ignored.
Detector keys: ``profile``, ``lexicons``, ``enable.<Theme>`` (true/false)
and ``weight.<Theme>`` (a positive rational like 1, 0.5 or 1/2, with no
``_`` between digits).  The ``fetch.*`` keys are read by the concordance
client.  Unknown keys outside those namespaces are rejected so typos
never pass silently.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Mapping, Union

from ._text import read_lines
from .detectors import IMPLEMENTED_THEMES, ConfigError, DetectorConfig, Theme

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}
_PLAIN_KEYS = {"profile", "lexicons"}
_NAMESPACES = ("enable.", "weight.", "fetch.")


def read_config_file(path: Union[str, Path]) -> dict[str, str]:
    """Read a flat config file into an ordered key-value mapping."""
    mapping: dict[str, str] = {}
    for line_number, raw_line in enumerate(read_lines(path, ConfigError), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}: line {line_number}: expected key = value, got {raw_line!r}"
            )
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"{path}: line {line_number}: empty key or value")
        if key in mapping:
            raise ConfigError(f"{path}: line {line_number}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def _theme_by_name(name: str, key: str) -> Theme:
    for theme in Theme:
        if theme.value == name:
            return theme
    raise ConfigError(
        f"config key {key!r} names no known theme "
        f"(known: {', '.join(t.value for t in Theme)})"
    )


def detector_config_from_mapping(mapping: Mapping[str, str]) -> DetectorConfig:
    """Build a DetectorConfig from flat config keys.

    Themes are enabled by default; ``enable.X = false`` switches one off
    and ``enable.CDPC = true`` is rejected by DetectorConfig itself.
    """
    enabled = set(IMPLEMENTED_THEMES)
    weights: dict[Theme, Fraction] = {}
    for key, value in mapping.items():
        if key in _PLAIN_KEYS or key.startswith("fetch."):
            continue
        if key.startswith("enable."):
            theme = _theme_by_name(key[len("enable.") :], key)
            lowered = value.lower()
            if lowered in _TRUE:
                enabled.add(theme)
            elif lowered in _FALSE:
                enabled.discard(theme)
            else:
                raise ConfigError(f"config key {key!r}: expected true/false, got {value!r}")
        elif key.startswith("weight."):
            theme = _theme_by_name(key[len("weight.") :], key)
            try:
                # Fraction reads "1_0" as 10 from Python 3.11 on
                if "_" in value:
                    raise ValueError(value)
                weights[theme] = Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise ConfigError(
                    f"config key {key!r}: expected a rational number, got {value!r}"
                ) from None
        else:
            raise ConfigError(
                f"unknown config key {key!r} (expected {', '.join(sorted(_PLAIN_KEYS))} "
                f"or one of the namespaces {', '.join(_NAMESPACES)})"
            )
    return DetectorConfig(
        enabled=frozenset(enabled),
        weights=weights,
        profile_name=mapping.get("profile", "suc-mamba"),
        lexicon_dir=mapping.get("lexicons"),
    )


__all__ = ["detector_config_from_mapping", "read_config_file"]
