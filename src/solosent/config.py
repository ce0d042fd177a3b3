"""Flat key-value configuration files.

One ``key = value`` pair per line, ``#`` comments, blank lines ignored.
Detector keys: ``enable.<Theme>`` (true/false) and ``weight.<Theme>`` (a
positive rational like 1, 0.5 or 1/2, with no ``_`` between digits).  The
``profile`` and ``lexicons`` keys are read by the CLI, and the ``fetch.*``
keys by the concordance client.  Unknown keys outside those namespaces are rejected so typos
never pass silently.

A value read from a file that is refused names the file and its line,
``<path>: line N: <message>``, as a malformed line does.
"""

from __future__ import annotations

import contextlib
import os
import re
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Union

from ._text import read_lines
from .detectors import (
    IMPLEMENTED_THEMES,
    ConfigError,
    DetectorConfig,
    Theme,
    _check_enabled,
    _check_weight,
)

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}
_PLAIN_KEYS = {"profile", "lexicons"}
_NAMESPACES = ("enable.", "weight.", "fetch.")
# the exponent of a weight such as 1.5e-3
_EXPONENT = re.compile(r"e([-+]?\d+)$", re.IGNORECASE)
# Fraction builds 10**exponent, which for 1e999999999999 never ends.  A
# weight written in n characters has fewer than n significand digits, so
# if it is not 0 and its exponent passes n + _FLOAT_REACH, it is outside
# a float's range, from 1e-324 to 1.8e308.
_FLOAT_REACH = 330


class ConfigFile(dict):
    """The key-value pairs of one config file, in file order, with the
    file's path and the line each key was read from."""

    def __init__(self, path: Union[str, os.PathLike[str]]) -> None:
        super().__init__()
        self.path = path
        self.lines: dict[str, int] = {}


def where(mapping: Mapping[str, str], key: Optional[str] = None) -> str:
    """The start of an error about ``key``'s value, or about the file when
    no key is given: ``"<path>: line N: "`` or ``"<path>: "``.  Empty for a
    mapping that was not read from a file, and for a key it did not read."""
    if not isinstance(mapping, ConfigFile):
        return ""
    if key is None:
        return f"{mapping.path}: "
    line = mapping.lines.get(key)
    return f"{mapping.path}: line {line}: " if line else ""


@contextlib.contextmanager
def errors_at(
    mapping: Mapping[str, str], key: str, errors: tuple[type[Exception], ...] = (ConfigError,)
) -> Iterator[None]:
    """Put where(mapping, key) in front of the message of any of
    ``errors`` raised inside."""
    try:
        yield
    except errors as exc:
        start = where(mapping, key)
        if not start:
            raise
        raise type(exc)(f"{start}{exc}") from None


def read_config_file(path: Union[str, os.PathLike[str]]) -> ConfigFile:
    """Read a flat config file into an ordered key-value mapping."""
    mapping = ConfigFile(path)
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
        mapping.lines[key] = line_number
    return mapping


def _theme_by_name(name: str, key: str) -> Theme:
    for theme in Theme:
        if theme.value == name:
            return theme
    raise ConfigError(
        f"config key {key!r} names no known theme "
        f"(known: {', '.join(t.value for t in Theme)})"
    )


def _weight(theme: Theme, key: str, value: str) -> Fraction:
    """The rational number ``value`` names, read in time linear in its text.

    An exponent past a float's reach is refused from the text, in the
    words DetectorConfig has for a weight out of range, before Fraction
    builds its power of ten.
    """
    try:
        # Fraction reads "1_0" as 10 from Python 3.11 on
        if "_" in value:
            raise ValueError(value)
        match = _EXPONENT.search(value)
        exponent = int(match[1]) if match else 0
        if abs(exponent) <= len(value) + _FLOAT_REACH:
            return Fraction(value)
        # value's grammar, with the exponent 0
        significand = Fraction(value[: match.start(1)] + "0")
    except (ValueError, ZeroDivisionError):
        raise ConfigError(
            f"config key {key!r}: expected a rational number, got {value!r}"
        ) from None
    if significand <= 0:
        raise ConfigError(f"weight for {theme.value} must be positive, got {value}")
    size = "large" if exponent > 0 else "small"
    raise ConfigError(f"weight for {theme.value} is too {size} for a float")


def detector_config_from_mapping(mapping: Mapping[str, str]) -> DetectorConfig:
    """Build a DetectorConfig from flat config keys.

    Themes are enabled by default; ``enable.X = false`` switches one off
    and ``enable.CDPC = true`` is rejected.  The ``profile``, ``lexicons``
    and ``fetch.*`` keys are accepted and left to their readers.  A refused
    value read from a file names the file and the key's line.
    """
    enabled = set(IMPLEMENTED_THEMES)
    weights: dict[Theme, Fraction] = {}
    for key, value in mapping.items():
        if key in _PLAIN_KEYS or key.startswith("fetch."):
            continue
        # each value is checked here as DetectorConfig checks it, at its line
        with errors_at(mapping, key):
            if key.startswith("enable."):
                theme = _theme_by_name(key[len("enable.") :], key)
                lowered = value.lower()
                if lowered in _TRUE:
                    _check_enabled({theme})
                    enabled.add(theme)
                elif lowered in _FALSE:
                    enabled.discard(theme)
                else:
                    raise ConfigError(f"config key {key!r}: expected true/false, got {value!r}")
            elif key.startswith("weight."):
                theme = _theme_by_name(key[len("weight.") :], key)
                weight = _weight(theme, key, value)
                _check_weight(theme, weight)
                weights[theme] = weight
            else:
                raise ConfigError(
                    f"unknown config key {key!r} (expected {', '.join(sorted(_PLAIN_KEYS))} "
                    f"or one of the namespaces {', '.join(_NAMESPACES)})"
                )
    return DetectorConfig(enabled=frozenset(enabled), weights=weights)


__all__ = [
    "ConfigFile",
    "detector_config_from_mapping",
    "errors_at",
    "read_config_file",
    "where",
]
