"""The `key = value` text format of run configs, geometry files and policy
snapshots: one entry per line, split at the first `=` and stripped; `#`
starts a comment; blank lines are skipped; a `[name]` line opens a section
holding the entries below it. read_entries keeps a repeated key, and every
reader refuses one but a geometry's wall (a config's dotted key and its
[section] form are one key). A single float, and the few floats of a
geometry's rectangles, are written with `repr`, which reads back to the same
float. A long float vector (a snapshot's learned parameters and Adam
moments) is written as one base64 string of its little-endian float64 bytes,
which reads back to the same bits, -0.0 and NaN payloads included, and
writes and reads many times faster than `repr` text.
"""

import base64
import os

import numpy as np

from .errors import ConfigError


def read_entries(text) -> list:
    """(section, key, value) for each entry of text, a string or its lines,
    in order; section is "" before the first header."""
    section, entries = "", []
    for raw in text.splitlines() if isinstance(text, str) else text:
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line[0] == "[" and line[-1] == "]":
            section = line[1:-1].strip()
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"expected 'key = value', got {raw!r}")
        entries.append((section, key.strip(), value.strip()))
    return entries


def read_file(path: str, what: str) -> str:
    """The text of the UTF-8 file at path. A path that is not a file, or a
    file that is not UTF-8 text, raises ConfigError naming what it is."""
    if not os.path.isfile(path):
        raise ConfigError(f"{what} not found or not a file: {path}")
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise ConfigError(f"{what} {path} is not UTF-8 text: {e}") from e


def parse_value(key: str, parser, value: str):
    """parser(value); a value it rejects raises ConfigError naming key."""
    try:
        return parser(value)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad value for {key}: {value!r} ({e})")


def fmt_float(x) -> str:
    return repr(float(x))


def fmt_floats(v) -> str:
    """The floats of an array of any shape, flattened, space-separated."""
    return " ".join(map(repr, np.asarray(v, dtype=float).ravel().tolist()))


def fmt_vector(v) -> str:
    """The floats of an array of any shape, flattened, as base64 of their
    little-endian float64 bytes."""
    return base64.b64encode(np.asarray(v, dtype="<f8").tobytes()).decode("ascii")


def read_vector(value: str, n: int) -> np.ndarray:
    """The n floats fmt_vector wrote as value, as a new writable float64
    vector. Raises ValueError unless value is strict base64 (no character
    outside the alphabet, whitespace included, and the right padding) of
    exactly 8 * n bytes."""
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as e:     # binascii.Error, or a character outside ASCII
        raise ValueError(f"is not base64 float64 data ({e})") from e
    if len(raw) % 8:
        raise ValueError(f"holds {len(raw)} bytes, not whole float64 values; needs {n}")
    if len(raw) != 8 * n:
        raise ValueError(f"holds {len(raw) // 8} values, needs {n}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)
