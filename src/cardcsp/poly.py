"""Sparse multilinear polynomials over {-1,+1}^n in the chi or phi basis.

A polynomial is a map from variable subsets (sorted tuples of 1-based
indices, |S| <= degree_bound) to exact coefficients in Q[sqrt(p(1-p))].
Zero coefficients are never stored and degree_bound is recomputed after
every operation, so equal polynomials have equal representations.

chi_S(x) = prod_{i in S} x_i.  phi_i takes the value sqrt(p/(1-p)) at
x_i = +1 and -sqrt((1-p)/p) at x_i = -1; phi_S is the product.  The two
bases coincide at p = 1/2.  Conversion uses x_i = 2*sqrt(p(1-p))*phi_i
+ (1-2p); products of phi's reduce by phi_i^2 = q*phi_i + 1 with
q = (2p-1)/sqrt(p(1-p)).  chi_i^2 = 1 is the same rule with q = 0, so the
product, evaluation and conversion read each basis through one
(value at +1, value at -1, q) triple, basis_constants.

The exact hot loops key subsets by bitmask (bit i-1 is variable i); on it,
the adjoint pair up/down gives (sum_i b_i - shift) * h as times_constraint.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import chain, combinations
from typing import Dict, Iterable, Mapping, Tuple

from .errors import InputError
from .exact import QE, Scalar, _over_common_denominator, make_qe, scalar_sign

Subset = Tuple[int, ...]
Assignment = Tuple[int, ...]  # entries in {-1, +1}, position i holds x_{i+1}


class Basis(Enum):
    CHI = "chi"
    PHI = "phi"


def check_assignment(a: Assignment, n: int) -> None:
    if len(a) != n:
        raise InputError(f"assignment length {len(a)} != n = {n}")
    if any(v not in (-1, 1) for v in a):
        raise InputError("assignment entries must be +1 or -1")


class MultilinearPoly:
    """Immutable-by-convention sparse multilinear polynomial."""

    __slots__ = ("n", "basis", "p", "coeffs", "degree_bound")

    def __init__(self, n: int, coeffs: Mapping[Subset, Scalar],
                 basis: Basis = Basis.CHI, p: Fraction | None = None):
        if n < 0:
            raise InputError("n must be nonnegative")
        if basis is Basis.PHI:
            if p is None:
                raise InputError("phi basis requires the bias parameter p")
            p = Fraction(p)
            if not 0 < p < 1:
                raise InputError("p must lie in (0,1)")
        else:
            p = None
        clean: Dict[Subset, Scalar] = {}
        for subset, value in coeffs.items():
            s = tuple(subset)
            if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
                raise InputError(f"subset {s} is not strictly increasing")
            if s and (s[0] < 1 or s[-1] > n):
                raise InputError(f"subset {s} out of range [1..{n}]")
            if scalar_sign(value) != 0:
                clean[s] = Fraction(value) if isinstance(value, int) else value
        self.n = n
        self.basis = basis
        self.p = p
        self.coeffs = clean
        self.degree_bound = max((len(s) for s in clean), default=0)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(n: int, basis: Basis = Basis.CHI, p=None) -> "MultilinearPoly":
        return MultilinearPoly(n, {}, basis, p)

    @staticmethod
    def constant(n: int, c, basis: Basis = Basis.CHI, p=None) -> "MultilinearPoly":
        return MultilinearPoly(n, {(): c}, basis, p)

    # -- helpers ---------------------------------------------------------

    def _same_space(self, other: "MultilinearPoly") -> None:
        if self.n != other.n:
            raise InputError("variable counts differ")
        if self.basis is not other.basis:
            raise InputError("basis mismatch")
        if self.basis is Basis.PHI and self.p != other.p:
            raise InputError("phi bias parameters differ")

    def coefficient(self, subset: Iterable[int]) -> Scalar:
        return self.coeffs.get(tuple(subset), Fraction(0))

    def items_sorted(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0])

    def variables_used(self) -> set:
        out: set = set()
        for s in self.coeffs:
            out.update(s)
        return out

    def without_constant(self) -> "MultilinearPoly":
        part = {s: c for s, c in self.coeffs.items() if s}
        return MultilinearPoly(self.n, part, self.basis, self.p)

    def __eq__(self, other):
        if not isinstance(other, MultilinearPoly):
            return NotImplemented
        return (self.n, self.basis, self.p) == (other.n, other.basis, other.p) \
            and self.coeffs == other.coeffs

    def __repr__(self):
        terms = ", ".join(f"{s}: {c}" for s, c in self.items_sorted()[:6])
        more = "..." if len(self.coeffs) > 6 else ""
        return f"MultilinearPoly(n={self.n}, {self.basis.value}, {{{terms}{more}}})"

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, QE)):
            other = MultilinearPoly.constant(self.n, other, self.basis, self.p)
        self._same_space(other)
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = out.get(s, Fraction(0)) + c
        return MultilinearPoly(self.n, out, self.basis, self.p)

    def __sub__(self, other):
        return self + (other * Fraction(-1) if isinstance(other, MultilinearPoly) else -other)

    def scale(self, factor) -> "MultilinearPoly":
        return MultilinearPoly(self.n, {s: c * factor for s, c in self.coeffs.items()},
                               self.basis, self.p)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QE)):
            return self.scale(other)
        self._same_space(other)
        q = basis_constants(self.basis, self.p)[2]
        expand = scalar_sign(q) != 0
        out: Dict[Subset, Scalar] = {}
        for s, cs in self.coeffs.items():
            set_s = set(s)
            for t, ct in other.coeffs.items():
                base = tuple(sorted(set_s.symmetric_difference(t)))
                prod = cs * ct
                out[base] = out.get(base, Fraction(0)) + prod
                if not expand:
                    continue
                # b_S b_T = b_{S^T} * prod_{i in common} (q b_i + 1)
                common = sorted(set_s.intersection(t))
                for k in range(1, len(common) + 1):
                    weight = prod * q ** k
                    for extra in combinations(common, k):
                        key = tuple(sorted(base + extra))
                        out[key] = out.get(key, Fraction(0)) + weight
        return MultilinearPoly(self.n, out, self.basis, self.p)

    __rmul__ = __mul__

    # -- analytic operations ----------------------------------------------

    def evaluate(self, a: Assignment) -> Scalar:
        check_assignment(a, self.n)
        pos, neg, _ = basis_constants(self.basis, self.p)
        total: Scalar = Fraction(0)
        for s, c in self.coeffs.items():
            term = c
            for i in s:
                term = term * (pos if a[i - 1] > 0 else neg)
            total = total + term
        return total

    def l2_norm_sq(self) -> Scalar:
        """Sum of squared coefficients = second moment of f under the
        product measure orthonormalizing the basis (U for chi, U_p for phi)."""
        total: Scalar = Fraction(0)
        for c in self.coeffs.values():
            total = total + c * c
        return total

    def restrict(self, fixed: Mapping[int, int]) -> "MultilinearPoly":
        """Substitute x_i = fixed[i] (+-1) and return the polynomial on the rest.

        Chi basis only; variable numbering is unchanged (the fixed variables
        simply no longer occur).
        """
        if self.basis is not Basis.CHI:
            raise InputError("restrict is defined on the chi basis")
        for i, v in fixed.items():
            if not 1 <= i <= self.n:
                raise InputError(f"fixed variable {i} out of range")
            if v not in (-1, 1):
                raise InputError("fixed values must be +1 or -1")
        out: Dict[Subset, Scalar] = {}
        for s, c in self.coeffs.items():
            sign = 1
            rest = []
            for i in s:
                if i in fixed:
                    sign *= fixed[i]
                else:
                    rest.append(i)
            key = tuple(rest)
            out[key] = out.get(key, Fraction(0)) + (c if sign > 0 else -c)
        return MultilinearPoly(self.n, out, Basis.CHI)


def phi_values(p: Fraction) -> tuple:
    """(phi_i at x_i=+1, phi_i at x_i=-1) as exact scalars."""
    r = p * (1 - p)
    # sqrt(p/(1-p)) = (p/r)*sqrt(r); sqrt((1-p)/p) = ((1-p)/r)*sqrt(r)
    return make_qe(0, p / r, r), make_qe(0, -(1 - p) / r, r)


def phi_square_q(p: Fraction) -> Scalar:
    """q = (2p-1)/sqrt(p(1-p)), the linear term in phi_i^2 = q*phi_i + 1."""
    r = p * (1 - p)
    return make_qe(0, (2 * p - 1) / r, r)


def basis_constants(basis: Basis, p=None) -> tuple:
    """(b_i at x_i=+1, b_i at x_i=-1, q) for one basis function b_i, which
    obeys b_i^2 = q*b_i + 1: chi is the case q = 0 with values +-1.

    All three are exact scalars (never ints: -1/1 must stay a Fraction)."""
    if basis is Basis.CHI:
        return Fraction(1), Fraction(-1), Fraction(0)
    return (*phi_values(p), phi_square_q(p))


def convert_basis(f: MultilinearPoly, target: Basis, p=None) -> MultilinearPoly:
    """Rewrite f in the other basis without changing its values anywhere.

    chi -> phi needs the bias p of the target basis; phi -> chi reads it
    off f.  Degree is preserved (the substitution is affine per variable).
    """
    if target is f.basis:
        raise InputError("target basis equals the current basis")
    if target is Basis.CHI:
        p = f.p
    elif p is None or not 0 < Fraction(p) < 1:
        raise InputError("chi -> phi conversion requires p in (0,1)")
    p = Fraction(p)
    src_pos, src_neg, _ = basis_constants(f.basis, p)
    dst_pos, dst_neg, _ = basis_constants(target, p)
    # b_i = lin*b'_i + shift, solved from both bases' values at x_i = +-1;
    # with L = 2 sqrt(p(1-p)), x_i = L phi_i + (1-2p), phi_i = x_i/L - (1-2p)/L
    lin = (src_pos - src_neg) / (dst_pos - dst_neg)
    shift = src_pos - lin * dst_pos
    out: Dict[Subset, Scalar] = {}
    for s, c in f.coeffs.items():
        k = len(s)
        for j in range(k + 1):
            weight = c * lin ** j * shift ** (k - j)
            if scalar_sign(weight) == 0:
                continue
            for sub in combinations(s, j):
                out[sub] = out.get(sub, Fraction(0)) + weight
    g = MultilinearPoly(f.n, out, target, p)
    if g.degree_bound != f.degree_bound:
        raise AssertionError("basis conversion changed the degree")
    return g


# -- the bitmask encoding and the constraint product -----------------------

def mask_of(subset: Iterable[int]) -> int:
    """Bitmask of a subset: bit i-1 stands for variable i."""
    return sum(1 << (i - 1) for i in subset)


def subset_of(mask: int) -> Subset:
    """The sorted subset whose bitmask is mask."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def int_numerators(items, what: str) -> Tuple[int, Dict[int, int]]:
    """(den, {mask_of(S): numerator}) for (S, c) items, c == numerator / den;
    InputError, naming `what`, if some c is irrational."""
    items = list(items)
    try:
        den, nums = _over_common_denominator(c for _, c in items)
    except ValueError as exc:
        raise InputError(f"{what} needs rational coefficients: {exc}") from exc
    return den, {mask_of(s): a for (s, _), a in zip(items, nums)}


def _flip_each(table: Mapping[int, Scalar], toggle: int) -> Dict[int, Scalar]:
    """{S: a} -> sum over the bits b of S ^ toggle of a [S ^ b].  It only
    adds values, so ints, Fractions and QEs share it."""
    out: Dict[int, Scalar] = {}
    for mask, a in table.items():
        rest = mask ^ toggle
        while rest:
            low = rest & -rest
            rest ^= low
            t = mask ^ low
            out[t] = out[t] + a if t in out else a
    return out


def up(table: Mapping[int, Scalar], n: int) -> Dict[int, Scalar]:
    """{S: a} -> sum_{j not in S} a [S u j] over j in [1..n], on bitmask
    keys; the adjoint of down."""
    return _flip_each(table, (1 << n) - 1)


def down(table: Mapping[int, Scalar]) -> Dict[int, Scalar]:
    """{S: a} -> sum_{i in S} a [S minus i] on bitmask keys; the adjoint of up."""
    return _flip_each(table, 0)


def times_constraint_table(table: Mapping[int, Scalar], n: int, q: Scalar,
                           shift=0) -> Dict[int, Scalar]:
    """(sum_i b_i - shift) * h on h's bitmask table: b_i b_S is b_{S u i}
    for i not in S and q b_S + b_{S minus i} for i in S, so the product is
    up(h) + down(h) + (|S| q - shift) h."""
    out = up(table, n)
    diagonal = {t: (t.bit_count() * q - shift) * a for t, a in table.items()}
    for t, a in chain(down(table).items(), diagonal.items()):
        out[t] = out[t] + a if t in out else a
    return out


def times_constraint(h: MultilinearPoly, shift=0) -> MultilinearPoly:
    """(sum_i b_i - shift) * h in h's basis, q from basis_constants (0 for chi)."""
    out = times_constraint_table({mask_of(s): c for s, c in h.coeffs.items()}, h.n,
                                 basis_constants(h.basis, h.p)[2], shift)
    return MultilinearPoly(h.n, {subset_of(t): c for t, c in out.items()},
                           h.basis, h.p)
