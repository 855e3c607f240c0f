"""The `key = value` text format of run configs, geometry files and policy
snapshots: one entry per line, split at the first `=` and stripped; `#`
starts a comment; blank lines are skipped; a `[name]` line opens a section
holding the entries below it. Keys may repeat, and each reader decides what
that means. Floats are written with `repr`, which reads back to the same float.
"""

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
