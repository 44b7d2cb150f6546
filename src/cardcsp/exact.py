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

from fractions import Fraction
from math import isqrt, lcm
from typing import Union

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


class QE:
    """a + b*sqrt(r) with a, b rational and sqrt(r) irrational (b != 0).

    Instances are immutable.  Mixed arithmetic with int/Fraction is
    supported; mixing two QE values with different radicands raises.
    """

    __slots__ = ("a", "b", "r")

    def __init__(self, a: Fraction, b: Fraction, r: Fraction):
        # Assumes the caller (make_qe) already normalized; do not call directly.
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "r", r)

    def __setattr__(self, *args):
        raise AttributeError("QE is immutable")

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
        p = self._parts_of(other)
        if p is None:
            return None
        return scalar_sign(make_qe(self.a - p[0], self.b - p[1], self.r))

    def __lt__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s < 0

    def __le__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s <= 0

    def __gt__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s > 0

    def __ge__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s >= 0

    def __eq__(self, other):
        if isinstance(other, QE):
            return self.r == other.r and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return False  # normalized QE always has an irrational part
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.r))

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    def __float__(self):
        return float(self.a) + float(self.b) * float(self.r) ** 0.5

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.r}))"


def scalar_sign(x: Scalar) -> int:
    if isinstance(x, QE):
        return x.sign()
    return 1 if x > 0 else (-1 if x < 0 else 0)


def scalar_inverse(x: Scalar) -> Scalar:
    if isinstance(x, QE):
        return x.inverse()
    return Fraction(1) / Fraction(x)


def as_fraction(x: Scalar) -> Fraction:
    """Coerce to Fraction; raises if x has an irrational part."""
    if isinstance(x, QE):
        raise ValueError(f"value {x!r} is not rational")
    return Fraction(x)


def to_float(x) -> float:
    return float(x)


def fraction_str(x: Scalar) -> str:
    """Render exactly: 'a/b' for rationals, 'a/b + c/d*sqrt(r)' otherwise."""
    if isinstance(x, QE):
        return f"{x.a} + {x.b}*sqrt({x.r})"
    return str(Fraction(x))


def sqrt_upper(x: Fraction, bits: int = 64) -> Fraction:
    """A rational upper bound on sqrt(x), tight to relative error ~2^-bits."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return Fraction(0)
    scale = 1 << bits
    # ceil(sqrt(num * scale^2 / den)) / scale >= sqrt(x)
    num = x.numerator * scale * scale
    den = x.denominator
    root = isqrt(num // den)
    while root * root * den < num:
        root += 1
    return Fraction(root, scale)


def nearest_multiple(x: Fraction, step: Fraction) -> Fraction:
    """Closest multiple of step to x; halves round away from zero."""
    if step <= 0:
        raise ValueError("step must be positive")
    q = Fraction(x) / step
    if q >= 0:
        k = (2 * q.numerator + q.denominator) // (2 * q.denominator)
    else:
        k = -((-2 * q.numerator + q.denominator) // (2 * q.denominator))
    return k * step


def _over_common_denominator(values):
    """(den, nums) with values[i] == nums[i] / den, den the lcm of the
    denominators.  Raises ValueError if a value has an irrational part."""
    values = list(values)
    for v in values:
        if isinstance(v, QE):
            raise ValueError(f"value {v!r} is not rational")
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def _bareiss_div(num, den):
    """num / den, known to be exact: int division checked for a zero
    remainder, field division once a QE or Fraction has entered."""
    if type(num) is int and type(den) is int:
        quo, rem = divmod(num, den)
        if rem:
            raise AssertionError(f"Bareiss division {num} / {den} is not exact")
        return quo
    return num / den


def solve_linear_exact(matrix, rhs):
    """Solve M x = b exactly by fraction-free (Bareiss) elimination.

    Each all-rational row and its rhs entry are scaled by the lcm of their
    denominators, so at p = 1/2 the elimination runs on Python ints: every
    entry it forms is a minor of the scaled system, and each division by the
    previous pivot is exact (checked).  Rows with QE entries stay in
    Q[sqrt(r)] and divide in the field.  Bareiss rows are nonzero multiples
    of Gauss rows, so the pivot columns and the solution are those of
    Gaussian elimination with the first nonzero pivot at or below the
    current row.  ``matrix`` is a list of row lists; it is not mutated.  A
    singular but consistent system (such as the normal equations of
    dependent least-squares generators) is solved with the unknown of every
    column without a pivot set to 0.  Raises ValueError if the system is
    inconsistent.
    """
    size = len(matrix)
    m, b = [], []
    for row, rhs_i in zip(matrix, rhs):
        values = list(row) + [rhs_i]
        try:
            _, values = _over_common_denominator(values)
        except ValueError:
            pass    # a row with QE entries stays in Q[sqrt(r)]
        m.append(values[:size])
        b.append(values[size])
    pivots = []  # pivots[r] is the column of row r's pivot
    prev = 1     # the previous pivot: every update divides by it exactly
    for col in range(size):
        top = len(pivots)
        piv = next((i for i in range(top, size) if scalar_sign(m[i][col]) != 0), None)
        if piv is None:
            continue
        if piv != top:
            m[top], m[piv] = m[piv], m[top]
            b[top], b[piv] = b[piv], b[top]
        row_c = m[top]
        pivot = row_c[col]
        tail = row_c[col + 1:]
        for i in range(top + 1, size):
            row_i = m[i]
            factor = row_i[col]
            row_i[col + 1:] = [_bareiss_div(pivot * a - factor * c, prev)
                               for a, c in zip(row_i[col + 1:], tail)]
            row_i[col] = 0
            b[i] = _bareiss_div(pivot * b[i] - factor * b[top], prev)
        pivots.append(col)
        prev = pivot
    # rows below the last pivot are zero; consistency needs their b zero too
    if any(scalar_sign(b[i]) != 0 for i in range(len(pivots), size)):
        raise ValueError("inconsistent linear system")
    x = [Fraction(0)] * size
    for r in range(len(pivots) - 1, -1, -1):
        col = pivots[r]
        acc = b[r]
        row = m[r]
        for j in range(col + 1, size):
            acc = acc - row[j] * x[j]
        x[col] = acc * scalar_inverse(row[col])
    return x


def nullspace_exact(matrix, ncols: int):
    """Basis of the right null space of a rational matrix (list of rows).

    Returns a list of coordinate vectors (lists of Fractions), one per free
    column after row reduction, in increasing free-column order.
    """
    m = [[Fraction(v) for v in row] for row in matrix]
    nrows = len(m)
    pivots = []  # (row, col)
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = Fraction(1) / m[row][col]
        m[row] = [v * inv for v in m[row]]
        for i in range(nrows):
            if i != row and m[i][col] != 0:
                f = m[i][col]
                m[i] = [vi - f * vr for vi, vr in zip(m[i], m[row])]
        pivots.append((row, col))
        row += 1
        if row == nrows:
            break
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, c in pivots:
            vec[c] = -m[r][free]
        basis.append(vec)
    return basis
