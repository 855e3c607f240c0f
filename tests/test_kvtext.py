import base64

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hacx import agent, envsim, harness, kvtext
from hacx.errors import CheckpointError, ConfigError

from helpers import edit_line


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


# base64 float64 vectors ------------------------------------------------------------

# bit patterns a decimal round trip could lose or that sit at the edges of
# float64: -0.0, the smallest subnormals, the smallest normal, +-max, the
# infinities and NaNs with other payloads and signs
EDGE_BITS = [0x8000000000000000, 0x0000000000000001, 0x8000000000000001,
             0x0010000000000000, 0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,
             0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
             0x7FF0000000000001, 0xFFF8DEADBEEF0001, 0x7FFFFFFFFFFFFFFF]


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.one_of(st.sampled_from(EDGE_BITS), st.integers(0, 2**64 - 1)),
                     max_size=40))
def test_vector_round_trip_keeps_every_bit(bits):
    v = np.array(bits, dtype=np.uint64).view(np.float64)
    text = kvtext.fmt_vector(v)
    assert base64.b64decode(text) == v.astype("<f8").tobytes()
    back = kvtext.read_vector(text, v.size)
    # compared as bits, since NaN != NaN
    assert back.view(np.uint64).tolist() == bits
    assert back.dtype == np.float64 and back.flags.writeable


def test_vector_writer_flattens_and_widens():
    m = np.arange(6.0).reshape(2, 3)
    assert kvtext.fmt_vector(m) == kvtext.fmt_vector(m.ravel())
    assert kvtext.read_vector(kvtext.fmt_vector(np.float32([0.1, 2])), 2).tolist() == [
        0.10000000149011612, 2.0]
    assert kvtext.fmt_vector([]) == "" and kvtext.read_vector("", 0).size == 0


ONE = kvtext.fmt_vector([1.5])     # 12 characters, the last one padding


@pytest.mark.parametrize("text,why", [
    (ONE[:4] + "!" + ONE[5:], "not base64"),        # a character outside the alphabet
    (ONE[:-1], "not base64"),                       # padding cut off
    (ONE + "AAAA", "not base64"),                   # data after the padding
    (ONE[:4] + " " + ONE[4:], "not base64"),        # embedded whitespace
    (ONE[:4] + "\t" + ONE[4:], "not base64"),
    (ONE[:4] + "é" + ONE[5:], "not base64"),        # a character outside ASCII
    (base64.b64encode(b"\0" * 9).decode(), "holds 9 bytes, not whole float64"),
    (kvtext.fmt_vector([1.5, 2.5]), "holds 2 values, needs 1"),
    ("", "holds 0 values, needs 1"),
])
def test_vector_reader_refuses_what_the_writer_never_writes(text, why):
    with pytest.raises(ValueError, match=why):
        kvtext.read_vector(text, 1)


def test_restore_refuses_a_nan_in_a_right_length_vector():
    ag = harness.build_agent(harness.RunConfig(levels=1, hidden=(4,), rnd_code_dim=2),
                             envsim.builtin_spec("open_field_near"), np.random.default_rng(0))
    snap = agent.policy_snapshot(ag)
    params = ag.levels[0].actor.params.copy()
    params[3] = np.nan
    bad = edit_line(snap, "params", kvtext.fmt_vector(params), section="network level0.actor")
    with pytest.raises(CheckpointError, match=r"\[network level0.actor\].*finite"):
        agent.restore(bad)
