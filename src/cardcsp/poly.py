"""Sparse multilinear polynomials over {-1,+1}^n in the chi or phi basis.

A polynomial maps variable subsets, keyed by int bitmask (bit i-1 stands
for variable i), to exact coefficients in Q[sqrt(p(1-p))].  Sorted tuples
of 1-based indices enter only through from_subsets and coefficient and
leave only through items_sorted.  Zero coefficients are never stored and
degree_bound (the largest popcount) is recomputed after every operation,
so equal polynomials have equal representations.

chi_S(x) = prod_{i in S} x_i.  phi_i takes the value sqrt(p/(1-p)) at
x_i = +1 and -sqrt((1-p)/p) at x_i = -1; phi_S is the product.  The two
bases coincide at p = 1/2.  Conversion uses x_i = 2*sqrt(p(1-p))*phi_i
+ (1-2p); products of phi's reduce by phi_i^2 = q*phi_i + 1 with
q = (2p-1)/sqrt(p(1-p)).  chi_i^2 = 1 is the same rule with q = 0, so the
product, evaluation and conversion read each basis through one
(value at +1, value at -1, q) triple, basis_constants.

On the bitmask keys, the adjoint pair up/down gives the constraint product
(sum_i b_i - shift) * h as times_constraint, on tables as
times_constraint_table, and g minus that product as reduce_by_constraint.
It is the one implementation of the product: the projection's residual,
the bisection rounding and the reconstruction call these two, and no
other module reads up, down or _flip_each.

superset_sums is the one builder of a table's superset sums, which the
slice moments, the projection and its residual's norm read.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Tuple

from .errors import InputError
from .exact import QE, Scalar, _over_common_denominator, check_exact, make_qe

Subset = Tuple[int, ...]
Assignment = Tuple[int, ...]  # entries in {-1, +1}, position i holds x_{i+1}


class Basis(Enum):
    CHI = "chi"
    PHI = "phi"


def exact_bias(p) -> Fraction:
    """The bias p as a Fraction in (0, 1); InputError, naming p, for a
    float, bool or any other value that is not an int or Fraction."""
    if not 0 < check_exact("p", p) < 1:
        raise InputError("p must lie in (0,1)")
    return Fraction(p)


def check_assignment(a: Assignment, n: int) -> None:
    if len(a) != n:
        raise InputError(f"assignment length {len(a)} != n = {n}")
    if any(v not in (-1, 1) for v in a):
        raise InputError("assignment entries must be +1 or -1")


class MultilinearPoly:
    """Immutable-by-convention sparse multilinear polynomial."""

    __slots__ = ("n", "basis", "p", "coeffs", "degree_bound")

    def __init__(self, n: int, coeffs: Mapping[int, Scalar],
                 basis: Basis = Basis.CHI, p: Fraction | None = None):
        if n < 0:
            raise InputError("n must be nonnegative")
        if basis is Basis.PHI:
            if p is None:
                raise InputError("phi basis requires the bias parameter p")
            p = exact_bias(p)
        else:
            p = None
        top = 1 << n
        clean: Dict[int, Scalar] = {}
        for mask, value in coeffs.items():
            if not isinstance(mask, int) or not 0 <= mask < top:
                raise InputError(f"key {mask!r} is not a bitmask over {n} variables")
            if not isinstance(value, (int, Fraction, QE)):
                raise InputError(f"coefficient {value!r} is not an int, Fraction or QE")
            if value:
                clean[mask] = Fraction(value) if isinstance(value, int) else value
        self.n = n
        self.basis = basis
        self.p = p
        self.coeffs = clean
        self.degree_bound = max((s.bit_count() for s in clean), default=0)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_subsets(n: int, coeffs: Mapping[Subset, Scalar],
                     basis: Basis = Basis.CHI, p=None) -> "MultilinearPoly":
        """The polynomial with coefficient coeffs[S] on each sorted tuple S."""
        return MultilinearPoly(n, {mask_of(s, n): c for s, c in coeffs.items()}, basis, p)

    @staticmethod
    def from_numerators(n: int, den: int, table: Mapping[int, int]) -> "MultilinearPoly":
        """The chi polynomial table / den from int numerators keyed by
        bitmask, one Fraction per distinct numerator, shared by its terms."""
        value = {a: Fraction(a, den) for a in set(table.values())}
        return MultilinearPoly(n, {s: value[a] for s, a in table.items()}, Basis.CHI)

    @staticmethod
    def zero(n: int, basis: Basis = Basis.CHI, p=None) -> "MultilinearPoly":
        return MultilinearPoly(n, {}, basis, p)

    @staticmethod
    def constant(n: int, c, basis: Basis = Basis.CHI, p=None) -> "MultilinearPoly":
        return MultilinearPoly(n, {0: c}, basis, p)

    # -- helpers ---------------------------------------------------------

    def _same_space(self, other: "MultilinearPoly") -> None:
        if self.n != other.n:
            raise InputError("variable counts differ")
        if self.basis is not other.basis:
            raise InputError("basis mismatch")
        if self.basis is Basis.PHI and self.p != other.p:
            raise InputError("phi bias parameters differ")

    def coefficient(self, subset: Iterable[int]) -> Scalar:
        """The coefficient of the sorted subset (InputError if it is not one)."""
        return self.coeffs.get(mask_of(subset, self.n), Fraction(0))

    def items_sorted(self):
        """[(sorted tuple S, coefficient)] in tuple order."""
        return sorted((subset_of(s), c) for s, c in self.coeffs.items())

    def variables_used(self) -> set:
        union = 0
        for s in self.coeffs:
            union |= s
        return {i + 1 for i in range(union.bit_length()) if union >> i & 1}

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

    def __add__(self, other, sign: int = 1):
        """self + sign * other for a polynomial or scalar other."""
        if isinstance(other, (int, Fraction, QE)):
            other = MultilinearPoly.constant(self.n, other, self.basis, self.p)
        self._same_space(other)
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            c = c if sign > 0 else -c
            out[s] = out[s] + c if s in out else c
        return MultilinearPoly(self.n, out, self.basis, self.p)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def scale(self, factor) -> "MultilinearPoly":
        return MultilinearPoly(self.n, {s: c * factor for s, c in self.coeffs.items()},
                               self.basis, self.p)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QE)):
            return self.scale(other)
        self._same_space(other)
        q = basis_constants(self.basis, self.p)[2]
        expand = bool(q)
        out: Dict[int, Scalar] = {}
        for s, cs in self.coeffs.items():
            for t, ct in other.coeffs.items():
                prod = cs * ct
                # b_S b_T = b_{S^T} * prod_{i in S&T} (q b_i + 1): each
                # submask E of S&T adds q^|E| prod at (S^T) | E
                for extra in submasks(s & t) if expand else (0,):
                    key = (s ^ t) | extra
                    weight = prod * q ** extra.bit_count() if extra else prod
                    out[key] = out[key] + weight if key in out else weight
        return MultilinearPoly(self.n, out, self.basis, self.p)

    __rmul__ = __mul__

    # -- analytic operations ----------------------------------------------

    def evaluate(self, a: Assignment) -> Scalar:
        check_assignment(a, self.n)
        pos, neg, _ = basis_constants(self.basis, self.p)
        negs = mask_of([i for i, v in enumerate(a, 1) if v < 0], self.n)
        total: Scalar = Fraction(0)
        for s, c in self.coeffs.items():
            j = (s & negs).bit_count()
            total = total + c * pos ** (s.bit_count() - j) * neg ** j
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
        if any(v not in (-1, 1) for v in fixed.values()):
            raise InputError("fixed values must be +1 or -1")
        keep = ~mask_of_set(fixed, self.n)
        negs = mask_of_set((i for i, v in fixed.items() if v < 0), self.n)
        out: Dict[int, Scalar] = {}
        for s, c in self.coeffs.items():
            key = s & keep
            c = -c if (s & negs).bit_count() & 1 else c
            out[key] = out[key] + c if key in out else c
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
    elif p is None:
        raise InputError("chi -> phi conversion requires p in (0,1)")
    p = exact_bias(p)
    src_pos, src_neg, _ = basis_constants(f.basis, p)
    dst_pos, dst_neg, _ = basis_constants(target, p)
    # b_i = lin*b'_i + shift, solved from both bases' values at x_i = +-1;
    # with L = 2 sqrt(p(1-p)), x_i = L phi_i + (1-2p), phi_i = x_i/L - (1-2p)/L
    lin = (src_pos - src_neg) / (dst_pos - dst_neg)
    shift = src_pos - lin * dst_pos
    out: Dict[int, Scalar] = {}
    for s, c in f.coeffs.items():
        k = s.bit_count()
        weights = [c * lin ** j * shift ** (k - j) for j in range(k + 1)]
        for sub in submasks(s):
            weight = weights[sub.bit_count()]
            if weight:
                out[sub] = out[sub] + weight if sub in out else weight
    g = MultilinearPoly(f.n, out, target, p)
    if g.degree_bound != f.degree_bound:
        raise AssertionError("basis conversion changed the degree")
    return g


# -- the bitmask encoding and the constraint product -----------------------

def mask_of(subset: Iterable[int], n: int) -> int:
    """Bitmask of a strictly increasing subset of [1..n] (bit i-1 stands for
    variable i); InputError for any other sequence, naming first an entry
    that is not an int (a bool is one: True is variable 1)."""
    s = tuple(subset)
    for v in s:
        if not isinstance(v, int):
            raise InputError(f"subset entry {v!r} is not an int")
    if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
        raise InputError(f"subset {s} is not strictly increasing")
    if s and (s[0] < 1 or s[-1] > n):
        raise InputError(f"subset {s} is not a set of variables in [1..{n}]")
    return sum(1 << (i - 1) for i in s)


def mask_of_set(variables: Iterable[int], n: int) -> int:
    """Bitmask of variables of [1..n] given in any order, repeats allowed:
    each is read through mask_of before anything compares it."""
    mask = 0
    for v in variables:
        mask |= mask_of((v,), n)
    return mask


def subset_of(mask: int) -> Subset:
    """The sorted subset whose bitmask is mask."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def submasks(mask: int):
    """Every submask of mask, from mask itself down to 0."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def superset_sums(table: Mapping[int, Scalar]) -> List[Dict[int, Scalar]]:
    """[F_0, .., F_d], d the table's largest popcount (0 when it is empty):
    F_k[U] = sum of table[S] over the k-sets S >= U, for every U inside
    some k-set of the table (an entry that cancels stays, at 0).  One pass
    over the submasks of each term, O(terms 2^d); it only adds values, so
    ints, Fractions and QEs share it."""
    sums: List[Dict[int, Scalar]] = [
        {} for _ in range(max(map(int.bit_count, table), default=0) + 1)]
    for mask, c in table.items():
        row = sums[mask.bit_count()]
        get = row.get
        sub = mask
        while sub:
            row[sub] = get(sub, 0) + c
            sub = (sub - 1) & mask
        row[0] = get(0, 0) + c
    return sums


def int_numerators(table: Mapping[int, Scalar], what: str) -> Tuple[int, Dict[int, int]]:
    """(den, {S: numerator}) for a bitmask table {S: c}, c == numerator / den;
    InputError, naming `what`, if some c is irrational."""
    try:
        den, nums = _over_common_denominator(table.values())
    except ValueError as exc:
        raise InputError(f"{what} needs rational coefficients: {exc}") from exc
    return den, dict(zip(table, nums))


def chi_numerators(f: MultilinearPoly, n: int, what: str) -> Tuple[int, Dict[int, int]]:
    """int_numerators of f, a chi polynomial on n variables; InputError,
    naming `what`, for another basis or variable count."""
    if f.basis is not Basis.CHI or f.n != n:
        fault = "variable counts differ" if f.n != n else "not the chi basis"
        raise InputError(f"{what}'s variable count or basis differs: {fault} "
                         f"({f.basis.value} on {f.n} variables, chi on {n} expected)")
    return int_numerators(f.coeffs, what)


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
    up(h) + down(h) + (|S| q - shift) h; the diagonal is skipped when q and
    shift are both 0."""
    out = up(table, n)
    for t, a in down(table).items():
        out[t] = out[t] + a if t in out else a
    if q or shift:
        for t, a in table.items():
            a = (t.bit_count() * q - shift) * a
            out[t] = out[t] + a if t in out else a
    return out


def reduce_by_constraint(g: Mapping[int, Scalar], h: Mapping[int, Scalar], n: int,
                         q: Scalar = 0, shift=0) -> Dict[int, Scalar]:
    """g - times_constraint_table(h, n, q, shift) on bitmask tables, zero
    entries dropped, g's keys first in g's order.  On int numerators of g
    and h over one denominator, the result's numerators are over that
    denominator too."""
    product = times_constraint_table(h, n, q, shift)
    out: Dict[int, Scalar] = {}
    for t, a in g.items():
        a -= product.pop(t, 0)
        if a:
            out[t] = a
    for t, a in product.items():
        if a:
            out[t] = -a
    return out


def times_constraint(h: MultilinearPoly, shift=0) -> MultilinearPoly:
    """(sum_i b_i - shift) * h in h's basis, q from basis_constants (0 for chi)."""
    q = basis_constants(h.basis, h.p)[2]
    return MultilinearPoly(h.n, times_constraint_table(h.coeffs, h.n, q, shift), h.basis, h.p)
