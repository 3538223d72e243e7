"""Config parsing: one `key = value` per line; integers must be integral,
numbers finite and in range."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kmerfab.config import (ABOVE_ZERO, NON_NEGATIVE, POSITIVE, ConfigError,
                            get_float, get_int, load_kv, parse_kv)


def test_parse_kv_skips_comments_and_blank_lines():
    assert parse_kv("# a comment\n\n a = 1 # trailing\nb=2=3\n") == {"a": "1", "b": "2=3"}


@pytest.mark.parametrize("text, message", [
    ("a = 1\nk 3", "line 2: expected key = value, got 'k 3'"),
    (" = 3", "line 1: empty key"),
    ("k = 1\n# c\nk = 2", "line 3: duplicate key 'k'"),
])
def test_parse_kv_rejects_a_malformed_line(text, message):
    with pytest.raises(ConfigError) as exc:
        parse_kv(text)
    assert str(exc.value) == message


def test_load_kv_names_a_missing_file(tmp_path):
    with pytest.raises(ConfigError) as exc:
        load_kv(tmp_path / "nope.conf")
    assert str(exc.value) == f"config file not found: {tmp_path / 'nope.conf'}"


@pytest.mark.parametrize("text, value", [("2", 2), ("2.0", 2), ("1e9", 10**9), ("-3", -3),
                                         (str(10**30), 10**30)])
def test_get_int_accepts_integral_spellings(text, value):
    assert get_int({"n": text}, "n") == value


@pytest.mark.parametrize("text", ["2.9", "0.5", "1e-3", "nan", "inf", "-inf", "1e999", "x", ""])
def test_get_int_rejects_non_integral_values(text):
    with pytest.raises(ConfigError, match="'n'"):
        get_int({"n": text}, "n")


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999", "x", ""])
def test_get_float_rejects_non_finite_values(text):
    with pytest.raises(ConfigError, match="'x'"):
        get_float({"x": text}, "x")


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_float_spellings_parse_iff_finite(x):
    kv = {"x": repr(x)}
    if math.isfinite(x):
        assert get_float(kv, "x") == x
        if x.is_integer():
            assert get_int(kv, "x") == int(x)
        else:
            with pytest.raises(ConfigError):
                get_int(kv, "x")
    else:
        with pytest.raises(ConfigError):
            get_float(kv, "x")
        with pytest.raises(ConfigError):
            get_int(kv, "x")


@pytest.mark.parametrize("get, bounds, text, ok", [
    (get_int, POSITIVE, "1", True),
    (get_int, POSITIVE, "1e0", True),
    (get_int, POSITIVE, "0", False),
    (get_int, POSITIVE, "-0.0", False),
    (get_float, (0.0, 1.0), "0", True),
    (get_float, (0.0, 1.0), "1.0", True),
    (get_float, (0.0, 1.0), "1.0001", False),
    (get_float, NON_NEGATIVE, "-1e-9", False),
])
def test_bounds_are_closed_ranges(get, bounds, text, ok):
    if ok:
        assert get({"x": text}, "x", None, bounds) == float(text)
    else:
        with pytest.raises(ConfigError, match="'x'"):
            get({"x": text}, "x", None, bounds)


@pytest.mark.parametrize("get, bounds, text, message", [
    (get_int, (1, 123456789), "0", "expected a value in [1, 123456789], got 0"),
    (get_int, POSITIVE, "0", "expected a value >= 1, got 0"),
    (get_float, (math.ulp(0.0), math.nextafter(1.0, 0.0)), "1",
     "expected a value in [5e-324, 0.9999999999999999], got 1.0"),
    (get_float, ABOVE_ZERO, "-1", "expected a value >= 5e-324, got -1.0"),
    (get_float, (0.0, 0.5), "0.75", "expected a value in [0, 0.5], got 0.75"),
])
def test_range_error_states_the_bounds_exactly(get, bounds, text, message):
    with pytest.raises(ConfigError) as exc:
        get({"x": text}, "x", None, bounds)
    assert str(exc.value) == f"key 'x': {message}"
