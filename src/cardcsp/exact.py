"""Exact scalar arithmetic: rationals and the quadratic extension Q[sqrt(r)].

Coefficients and moments in this package live in Q[sqrt(r)] with r = p(1-p)
for the bias parameter p of the cardinality constraint.  A value is either a
plain ``Fraction`` or a ``QE`` (a + b*sqrt(r) with a, b rational, b != 0).
Arithmetic on QE returns a plain Fraction whenever the irrational part
cancels, so p = 1/2 (where sqrt(1/4) = 1/2 is rational) degrades to ordinary
rational arithmetic throughout.

Zero tolerance everywhere: equality of these scalars is exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import isqrt, lcm
from typing import Iterable, Optional, Union

from .errors import InputError

Scalar = Union[int, Fraction, "QE"]


def _rational_sqrt(x: Fraction) -> Fraction | None:
    """Return sqrt(x) if it is rational, else None.  Requires x >= 0."""
    num, den = x.numerator, x.denominator
    sn, sd = isqrt(num), isqrt(den)
    if sn * sn == num and sd * sd == den:
        return Fraction(sn, sd)
    return None


def make_qe(a, b, r) -> Scalar:
    """Build a + b*sqrt(r), collapsing to a Fraction when possible."""
    a, b, r = Fraction(a), Fraction(b), Fraction(r)
    if r < 0:
        raise ValueError("negative radicand")
    if b == 0 or r == 0:
        return a
    s = _rational_sqrt(r)
    if s is not None:
        return a + b * s
    return QE(a, b, r)


def sqrt_scalar(x) -> Scalar:
    """Exact sqrt of a nonnegative rational, as a Fraction or QE."""
    return make_qe(0, 1, x)


@total_ordering
@dataclass(frozen=True, slots=True, repr=False)
class QE:
    """a + b*sqrt(r) with a, b rational and sqrt(r) irrational (b != 0).

    Built by make_qe, which normalizes, so a QE is never zero (always true)
    and never equals an int or Fraction.  Mixed arithmetic and ordering with
    int/Fraction are supported; mixing two QE radicands raises.
    """

    a: Fraction
    b: Fraction
    r: Fraction

    def _parts_of(self, other):
        if isinstance(other, QE):
            if other.r != self.r:
                raise ValueError(f"mixed radicands {self.r} and {other.r}")
            return other.a, other.b
        if isinstance(other, (int, Fraction)):
            return Fraction(other), Fraction(0)
        return None

    def __add__(self, other):
        p = self._parts_of(other)
        if p is None:
            return NotImplemented
        return make_qe(self.a + p[0], self.b + p[1], self.r)

    __radd__ = __add__

    def __neg__(self):
        return QE(-self.a, -self.b, self.r)

    def __sub__(self, other):
        p = self._parts_of(other)
        if p is None:
            return NotImplemented
        return make_qe(self.a - p[0], self.b - p[1], self.r)

    def __rsub__(self, other):
        p = self._parts_of(other)
        if p is None:
            return NotImplemented
        return make_qe(p[0] - self.a, p[1] - self.b, self.r)

    def __mul__(self, other):
        p = self._parts_of(other)
        if p is None:
            return NotImplemented
        oa, ob = p
        return make_qe(self.a * oa + self.b * ob * self.r,
                       self.a * ob + self.b * oa, self.r)

    __rmul__ = __mul__

    def inverse(self) -> Scalar:
        # (a + b sqrt r)^-1 = (a - b sqrt r) / (a^2 - b^2 r); the norm is
        # nonzero because sqrt(r) is irrational and b != 0.
        norm = self.a * self.a - self.b * self.b * self.r
        return make_qe(self.a / norm, -self.b / norm, self.r)

    def __truediv__(self, other):
        p = self._parts_of(other)
        if p is None:
            return NotImplemented
        return self * scalar_inverse(make_qe(p[0], p[1], self.r))

    def __rtruediv__(self, other):
        p = self._parts_of(other)
        if p is None:
            return NotImplemented
        return make_qe(p[0], p[1], self.r) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out: Scalar = Fraction(1)
        base: Scalar = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def sign(self) -> int:
        a, b = self.a, self.b
        if a == 0:
            return 1 if b > 0 else -1
        if b == 0:  # unreachable for normalized QE; kept for safety
            return 1 if a > 0 else (-1 if a < 0 else 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # signs differ: compare a^2 against b^2 r
        lhs, rhs = a * a, b * b * self.r
        if a > 0:  # b < 0
            return 1 if lhs > rhs else -1  # lhs == rhs impossible (irrational)
        return -1 if lhs > rhs else 1

    def _cmp(self, other):
        """The sign of self - other, or None if other is not a scalar."""
        p = self._parts_of(other)
        if p is None:
            return None
        diff = make_qe(self.a - p[0], self.b - p[1], self.r)
        return diff.sign() if isinstance(diff, QE) else (diff > 0) - (diff < 0)

    def __lt__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s < 0

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    def __float__(self):
        return float(self.a) + float(self.b) * float(self.r) ** 0.5

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.r}))"


def scalar_inverse(x: Scalar) -> Scalar:
    if isinstance(x, QE):
        return x.inverse()
    return Fraction(1) / Fraction(x)


def scalar_quotient(num: Scalar, den: Scalar) -> Scalar:
    """num / den; two ints make one Fraction, with no inverse formed."""
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return num * scalar_inverse(den)


def fraction_str(x: Scalar) -> str:
    """Render exactly: 'a/b' for rationals, 'a/b + c/d*sqrt(r)' otherwise."""
    if isinstance(x, QE):
        return f"{x.a} + {x.b}*sqrt({x.r})"
    return str(Fraction(x))


def scalar_json(x: Scalar) -> dict:
    """The JSON rendering of a number: its exact string and a float."""
    return {"exact": fraction_str(x), "approx": float(x)}


def sqrt_upper(x: Fraction) -> Fraction:
    """A rational upper bound on sqrt(x), tight to relative error ~2^-64."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return Fraction(0)
    scale = 1 << 64
    # ceil(sqrt(num * scale^2 / den)) / scale >= sqrt(x)
    num = x.numerator * scale * scale
    den = x.denominator
    root = isqrt(num // den)
    while root * root * den < num:
        root += 1
    return Fraction(root, scale)


def check_exact(name: str, value) -> Union[int, Fraction]:
    """value itself; InputError, naming it, unless it is an int or Fraction
    (a bool, a float or a string is not an exact number)."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise InputError(f"{name} = {value!r} is not an int or Fraction")
    return value


def check_positive_int(name: str, value) -> int:
    """value itself; InputError, naming it, unless it is an int >= 1 (a
    bool is not: a count is never True)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InputError(f"{name} = {number_str(value)} is not a positive integer")
    return value


# The grammar of an exact rational written as text: a/b, or a decimal with
# an optional exponent; ASCII digits, an optional sign, no underscores.
_RATIONAL = re.compile(r"\s*[-+]?(?:(?P<num>\d+)/(?P<den>\d+)"
                       r"|(?=\.?\d)(?P<int>\d*)(?:\.(?P<frac>\d*))?"
                       r"(?:[eE](?P<exp>[-+]?\d+))?)\s*", re.ASCII)
# The most digits parse_rational reads in one number, exponent included;
# a decimal's exponent must also lie in [-RATIONAL_DIGITS, RATIONAL_DIGITS].
RATIONAL_DIGITS = 1000
# A message prints a number only while its numerator and denominator fit
# in this many bits each (about 60 digits).
MESSAGE_BITS = 200


def number_str(value) -> str:
    """str(value) for an int or Fraction of at most MESSAGE_BITS bits over
    at most MESSAGE_BITS bits, its size in digits for a longer one (str of
    an int past 4,300 digits raises), and repr(value) for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        return repr(value)
    bits = max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    if bits > MESSAGE_BITS:
        return f"<a number of about {bits * 30103 // 100000} digits>"
    return str(value)


def count_above(terms: Iterable[int], cap: int) -> Optional[str]:
    """None when the sum of the nonnegative int terms is at most cap, else
    that sum as a message shows it (number_str).  The sum stops at the
    first partial sum above both cap and 2^MESSAGE_BITS; one more term is
    read only to tell whether any was left, and then the text starts
    "at least "."""
    terms = iter(terms)
    total = 0
    for term in terms:
        total += term
        if total > cap and total.bit_length() > MESSAGE_BITS:
            break
    if total <= cap:
        return None
    return "at least " * (next(terms, None) is not None) + number_str(total)


def _shown(text: str) -> str:
    """text for a message: its repr, or its start and length past 40
    characters."""
    return repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"


def parse_rational(text: str) -> Fraction:
    """The exact rational that text spells: [sign] digits/digits, or a
    decimal [sign] digits[.digits][e[sign]digits] (".5" too), with
    surrounding whitespace ignored.  InputError, with a bounded message,
    for any other text, a zero denominator, more than RATIONAL_DIGITS
    digits, or an exponent outside [-RATIONAL_DIGITS, RATIONAL_DIGITS]:
    no work grows past those bounds."""
    shown = _shown(text)
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise InputError(f"{shown} is not a/b or a decimal")
    parts = match.group("num", "den", "int", "frac", "exp")
    if sum(len(part) for part in parts if part) > RATIONAL_DIGITS:
        raise InputError(f"{shown} has more than {RATIONAL_DIGITS} digits")
    if match["den"] is not None and not int(match["den"]):
        raise InputError(f"{shown} has a zero denominator")
    if abs(int(match["exp"] or 0)) > RATIONAL_DIGITS:
        raise InputError(f"{shown} has an exponent outside "
                         f"[-{RATIONAL_DIGITS}, {RATIONAL_DIGITS}]")
    return Fraction(text)   # a subset of Fraction's grammar, now of bounded size


def parse_count(name: str, text: str, most: Optional[int] = None) -> int:
    """The count that text spells: ASCII digits only, with no sign, no
    underscore and no whitespace.  InputError, naming `name`, with a
    bounded message, for more than RATIONAL_DIGITS characters (checked
    before int()), any other text, or a value above `most` when given."""
    if len(text) > RATIONAL_DIGITS:
        raise InputError(f"{name} has more than {RATIONAL_DIGITS} digits")
    if not (text.isascii() and text.isdigit()):
        raise InputError(f"{name} = {_shown(text)} is not a count in ASCII digits")
    value = int(text)
    if most is not None and value > most:
        raise InputError(f"{name} = {number_str(value)} is above {most}")
    return value


def round_half_away(num: int, den: int) -> int:
    """The int closest to num / den (den > 0); halves round away from zero."""
    k = (2 * abs(num) + den) // (2 * den)
    return k if num >= 0 else -k


def _over_common_denominator(values):
    """(den, nums) with values[i] == nums[i] / den, den the lcm of the
    denominators.  Raises ValueError if a value has an irrational part."""
    values = list(values)
    for v in values:
        if isinstance(v, QE):
            raise ValueError(f"value {v!r} is not rational")
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]
