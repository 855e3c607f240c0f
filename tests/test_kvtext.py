import numpy as np
import pytest

from hacx import kvtext
from hacx.errors import ConfigError


def test_read_entries_order_repeats_and_sections():
    text = """
    top = 1          # a header-less line before the first section
    [ first ]
    wall = 0 0 1 1
    wall = 2 2 3 3   # a key may repeat; both are kept, in order
    expr = a = b     # only the first `=` splits
    [second]

    top = 2
    """
    assert kvtext.read_entries(text) == [
        ("", "top", "1"),
        ("first", "wall", "0 0 1 1"),
        ("first", "wall", "2 2 3 3"),
        ("first", "expr", "a = b"),
        ("second", "top", "2"),
    ]
    # a list of lines reads the same as the text they came from
    assert kvtext.read_entries(text.splitlines()) == kvtext.read_entries(text)


def test_read_entries_rejects_a_line_without_equals():
    with pytest.raises(ConfigError, match="just some words"):
        kvtext.read_entries("a = 1\njust some words\n")


def test_parse_value_names_the_key():
    assert kvtext.parse_value("n", int, "3") == 3
    with pytest.raises(ConfigError, match="bad value for n"):
        kvtext.parse_value("n", int, "3.5")


def test_float_writers_match_repr():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(3, 4)) * 10.0 ** rng.integers(-300, 300, (3, 4))
    assert kvtext.fmt_floats(v) == " ".join(repr(float(x)) for x in v.ravel())
    assert kvtext.fmt_floats(np.float32([0.1, 2])) == "0.10000000149011612 2.0"
    assert kvtext.fmt_floats((0, 1.5)) == "0.0 1.5"
    assert kvtext.fmt_floats([]) == ""
    assert kvtext.fmt_float(np.float64(1 / 3)) == repr(1 / 3)
    assert kvtext.fmt_float(2) == "2.0"
