from fractions import Fraction as F

import pytest

from cardcsp.errors import InputError
from cardcsp.exact import (QE, RATIONAL_DIGITS, fraction_str, make_qe, number_str,
                           parse_rational, sqrt_scalar, sqrt_upper)

from conftest import as_fraction, nearest_multiple, nullspace_reference


def test_rational_radicand_collapses():
    assert sqrt_scalar(F(1, 4)) == F(1, 2)
    assert sqrt_scalar(F(9, 16)) == F(3, 4)
    assert make_qe(F(1, 3), 2, F(1, 4)) == F(1, 3) + 1


def test_irrational_stays_extended():
    s = sqrt_scalar(F(2, 9))
    assert isinstance(s, QE)
    assert s * s == F(2, 9)
    assert float(s) == pytest.approx((2 / 9) ** 0.5)


def test_field_operations():
    r = F(2, 9)
    x = make_qe(F(1, 2), F(3), r)
    y = make_qe(F(-1), F(1, 3), r)
    assert (x + y) - y == x
    assert (x * y) / y == x
    assert x * x.inverse() == 1
    assert x ** 3 == x * x * x
    assert x ** 0 == 1
    assert -(-x) == x
    assert 2 * x == x + x
    assert 1 / sqrt_scalar(F(2)) == sqrt_scalar(F(2)) / 2


def test_mixed_radicands_rejected():
    with pytest.raises(ValueError):
        sqrt_scalar(F(2)) + sqrt_scalar(F(3))


def test_sign_and_ordering():
    s2 = sqrt_scalar(F(2))
    assert (s2 - 1).sign() == 1          # sqrt2 > 1
    assert (s2 - 2).sign() == -1         # sqrt2 < 2
    assert make_qe(3, -2, F(2)) > 0          # 3 > 2 sqrt 2
    assert make_qe(-3, 2, F(2)) < 0
    assert make_qe(-1, 1, F(2)) > 0          # sqrt2 > 1
    assert s2 > F(7, 5) and s2 < F(3, 2)
    assert abs(make_qe(0, -1, F(2))) == s2


def test_qe_is_a_frozen_ordered_value():
    x = make_qe(F(1, 2), F(3), F(2, 9))
    assert isinstance(x, QE) and bool(x) is True
    with pytest.raises(AttributeError):
        x.a = F(0)
    assert {x: 1}[make_qe(F(1, 2), 3, F(2, 9))] == 1
    assert hash(x) == hash((x.a, x.b, x.r))
    for rational in (0, 1, F(1, 2), F(-3, 7)):
        assert x != rational and rational != x
        assert not x == rational and not rational == x
    with pytest.raises(ValueError, match="mixed radicands"):
        sqrt_scalar(F(2)) < sqrt_scalar(F(3))
    values = (F(-2), F(-1, 2), F(0), F(1, 3), F(3))
    coeffs = (F(-3, 2), F(-1), F(1, 2), F(2))
    for r in (F(2), F(3), F(2, 9)):
        qes = [make_qe(a, b, r) for a in values for b in coeffs]
        for x in qes:
            for y in qes + list(values) + [1, -2]:
                fx, fy = float(x), float(y)
                assert (x < y, x <= y, x > y, x >= y) == (fx < fy, fx <= fy, fx > fy, fx >= fy)
                assert (y < x, y <= x, y > x, y >= x) == (fy < fx, fy <= fx, fy > fx, fy >= fx)


def test_as_fraction_guards():
    assert as_fraction(F(3, 7)) == F(3, 7)
    with pytest.raises(ValueError):
        as_fraction(sqrt_scalar(F(2)))


def test_fraction_str():
    assert fraction_str(F(-3, 7)) == "-3/7"
    assert fraction_str(sqrt_scalar(F(2, 9))) == "0 + 1*sqrt(2/9)"


def test_sqrt_upper_bounds():
    for x in (F(2), F(3), F(27), F(5, 7)):
        up = sqrt_upper(x)
        assert up * up >= x
        assert float(up) == pytest.approx(float(x) ** 0.5, rel=1e-12)
    assert sqrt_upper(F(0)) == 0
    assert sqrt_upper(F(4)) == 2


def test_nearest_multiple_ties_away_from_zero():
    g = F(1, 4)
    assert nearest_multiple(F(3, 10), g) == F(1, 4)
    assert nearest_multiple(F(1, 8), g) == F(1, 4)       # tie rounds up
    assert nearest_multiple(F(-1, 8), g) == F(-1, 4)     # tie rounds down
    assert nearest_multiple(F(0), g) == 0
    assert nearest_multiple(F(7, 8), g) == F(1)


def test_nullspace_exact():
    # x + y + z = 0 over 3 unknowns: two free directions, exact kernel
    basis = nullspace_reference([[F(1), F(1), F(1)]], 3)
    assert len(basis) == 2
    for vec in basis:
        assert sum(vec) == 0


@pytest.mark.parametrize("text, value", [
    ("1/3", F(1, 3)), ("-2/6", F(-1, 3)), ("+7", F(7)), (" 1/2 ", F(1, 2)),
    ("0.25", F(1, 4)), ("-.5", F(-1, 2)), ("5.", F(5)), ("12e-1", F(6, 5)),
    ("1E3", F(1000)), ("0.5e0", F(1, 2)), ("1" * RATIONAL_DIGITS, F(int("1" * RATIONAL_DIGITS))),
    (f"1e-{RATIONAL_DIGITS}", F(1, 10 ** RATIONAL_DIGITS)),
])
def test_parse_rational_reads_fractions_and_decimals(text, value):
    assert parse_rational(text) == value == F(text)


@pytest.mark.parametrize("text, message", [
    ("abc", "is not a/b or a decimal"), ("", "is not a/b or a decimal"),
    (".", "is not a/b or a decimal"), ("1/-2", "is not a/b or a decimal"),
    ("1_000", "is not a/b or a decimal"), ("1 / 2", "is not a/b or a decimal"),
    ("\u0661/2", "is not a/b or a decimal"), ("1/0", "zero denominator"),
    ("1" * (RATIONAL_DIGITS + 1), "more than 1000 digits"),
    ("1/" + "3" * RATIONAL_DIGITS, "more than 1000 digits"),
    (f"1e{RATIONAL_DIGITS + 1}", "exponent outside"), ("5e-1000000", "exponent outside"),
])
def test_parse_rational_rejects_other_text(text, message):
    with pytest.raises(InputError, match=message) as err:
        parse_rational(text)
    assert len(str(err.value)) < 100


def test_number_str_bounds_what_a_message_prints():
    assert number_str(F(-3, 4)) == "-3/4" and number_str(12) == "12"
    assert number_str(2.5) == "2.5" and number_str("6") == "'6'" and number_str(True) == "True"
    assert number_str(10 ** 5000) == "<a number of about 5000 digits>"
    assert number_str(F(1, 3 ** 200)) == "<a number of about 95 digits>"
