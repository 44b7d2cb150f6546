"""Discretization of the null-space projection and kernel extraction.

Bisection path (p = 1/2): snap the projection h_f to controlled
denominators, one weight level at a time from d-1 down to 0.  Weight w is
snapped to the nearest multiple of gamma / (d! (d-1)! ... (w+1)!), halves
away from zero, so the final h has all coefficients in (gamma/Gamma_d) * Z
with Gamma_d = d!(d-1)!...2!.  The reduced polynomial f - (sum x_i) h
agrees with f on every assignment with sum x_i = 0, and its squared
coefficient norm (constant left out) is at most 7^d times the projection
residual's when the residual is at most sqrt(n).

Each path is an int core on f's numerators over one denominator, and both
return the kernel step's one result, an IntOutcome, whose reduced table is
f - (sum x_i - shift) h whole: _round_bisection takes h_f as (y, D),
spectra._project's output, and _round_global starts from f's table.
round_bisection and round_global are their wrappers: they check f and h_f
and convert them to numerators (poly.chi_numerators), and
IntOutcome.outcome builds the Fraction RoundingOutcome
(MultilinearPoly.from_numerators).  Only round_bisection's public contract
leaves fhat(0) out of the reduction and refuses a residual above sqrt(n).

_round_bisection forms no residual: it takes the projection residual's
constant-free squared norm from its caller (spectra._residual_norm, read
off the normal equations, in the kernel step; round_bisection, which
accepts any h_f, forms the residual g - (sum x_i) h_f and squares it).

Every reduction here is g minus the constraint product (sum x_i - shift) h
on bitmask tables of int numerators over one denominator, formed in poly:
_round_bisection forms g - (sum x_i) h (reduce_by_constraint), and the scan
and _reconstruct take each solved weight's whole product off a table split
by level (_subtract_product).  The scan's survivor count reads the
product's up half on the top-weight sets one support set can reach.

General path: a variable is inactive in g when no nonzero coefficient of g
contains it.  If some h of degree <= d-1 makes every variable of a d-set S
inactive in f - (sum x_i - shift) h, then h is determined by S and f alone:
the weight-(w+1) equations "coefficient of T vanishes" for T inside S1 u P
(P a pivot set built from S) can be combined with integer weights

    beta_{D-1,1} = (D-2)!,   beta_{D-i-1,i+1} = -i/(D-i-1) * beta_{D-i,i},
    in closed form beta_{D-i,i} = (-1)^(i+1) (i-1)! (D-1-i)!,

so that all mixed coefficients cancel, leaving a relation between h(S1) and
h(S2) for S2 inside P; the vanishing coefficient of P itself then closes the
system.  _reconstruct, behind reconstruct_h (Fractions in and out),
evaluates exactly that, weight d-1 down to weight 0, on int numerators
over den Gamma_D, one _LevelSolve per weight: the sum over S2 collapses
into one weighted sum over the weight-(w+1) subsets of S1 u P.  Every
weight is solved as the scan solves a candidate (_LevelSolve.solve): a
pool larger than the weight is relabelled to the lowest bits, where its
pivots are a candidate's.

round_global runs the deterministic scan: for degree level d down to 1,
one _LevelSolve on the level's part of the table tries every candidate
subset and keeps the one whose reconstruction makes the most variables
inactive in the current top-degree part (lexicographically first
maximizer; scan stops early once a candidate meets the theoretical
active-set bound, C' Var / gamma^2, C' cached per (p, d)).  f goes over
one denominator once, one dict per level, which the level's scan reads.

The count is taken on the level's support (_LevelSolve): the level's most
common value is peeled off, which changes no count, and a symmetric part
of f is constant at each weight, so what remains is often a few sets.  A
level of at most 64 candidates counts them all in one pass: each count is
linear in the peeled table, so one int per row carries every candidate's
N' in its own field (Knuth, TAOCP 4A 7.1.3), summed from one cached column
per support set, and every field of every top-weight coefficient is tested
for nonzero at once (_LevelSolve.packed_counts).  On a larger level a
candidate that meets no support set costs nothing; otherwise only the rows
its support sets reach (_response) and the sets that hold them are read,
and a candidate is dropped as soon as it cannot beat the best so far.
Both routes choose the same candidate.  Level 1 needs no solve: candidate
{a} leaves inactive exactly the variables whose weight-1 coefficient
equals a's, read off the table.  Only the winner's top weight, read off
the level's own solve, is subtracted: the next level's solve recovers each
lower weight exactly.  The union of the surviving variables is the kernel.

What depends only on the size is built once in lru_caches shared by every
instance and never changed: the weights W per level (_span_weights), the
rows per (n, level >= 2) (_shape), each (n, candidate, set) response, and
on the small levels the packed layout (_packing) and each (n, level,
width, set) column (_column).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, factorial, lcm
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from .cardinal_dist import GlobalCardinality, _chi_mean_variance
from .errors import InputError, PreconditionError
from .exact import Scalar, check_exact, check_int, number_str, round_half_away
from .poly import (MultilinearPoly, chi_numerators, mask_of_set, reduce_by_constraint,
                   superset_sums, times_constraint_table)


def check_gamma(gamma) -> Fraction:
    """gamma as a Fraction; InputError unless it is a positive int or
    Fraction (a float's binary value is not the granularity meant)."""
    if check_exact("gamma", gamma) <= 0:
        raise InputError("gamma must be positive")
    return Fraction(gamma)


def _check_degree(d) -> int:
    """d itself; InputError unless it is an int >= 0 (a bool is not)."""
    if check_int("d", d) < 0:
        raise InputError("d must be nonnegative")
    return d


def gamma_denominator(d: int) -> int:
    """Gamma_d = d! (d-1)! ... 2!."""
    out = 1
    for j in range(2, d + 1):
        out *= factorial(j)
    return out


def gamma_ladder(d: int, gamma: Fraction) -> List[Fraction]:
    """Granularity per weight: entry w is gamma / (d! (d-1)! ... (w+1)!),
    that is gamma Gamma_w / Gamma_d."""
    top = gamma_denominator(d)
    return [Fraction(gamma) * gamma_denominator(w) / top for w in range(d + 1)]


@lru_cache(maxsize=16)
def _ladder_steps(d: int, gamma: Fraction) -> Tuple[int, Tuple[int, ...]]:
    """(den, steps): gamma_ladder(d, gamma) as int steps over den, the lcm
    of its denominators.  Cached: decide asks for gamma = 2^-d at a few d;
    an entry holds d + 1 ints about the size of d! (d-1)! ... 2!."""
    ladder = gamma_ladder(d, gamma)
    den = lcm(*(step.denominator for step in ladder))
    return den, tuple(step.numerator * (den // step.denominator) for step in ladder)


@dataclass
class RoundingOutcome:
    h: MultilinearPoly
    reduced: MultilinearPoly
    active_set: FrozenSet[int]
    norm_blowup: Optional[Fraction]          # bisection path only
    residual_norm_sq: Optional[Scalar] = None


class IntOutcome(NamedTuple):
    """The kernel step at every p, on int numerators over den keyed by
    bitmask: h and the reduced table f - (sum x_i - shift) h, f's constant
    included, so that reduced / den equals f on the slice.  On the
    bisection path also the constant-free squared norm of the projection
    residual over den^2."""

    den: int
    h: Dict[int, int]
    reduced: Dict[int, int]
    residual_sum: Optional[int] = None

    @property
    def kernel(self) -> Tuple[int, ...]:
        """The variables of the reduced table, in increasing order."""
        used = 0
        for mask in self.reduced:
            used |= mask
        return tuple(v for v in range(1, used.bit_length() + 1) if used >> (v - 1) & 1)

    def residual_above_sqrt_n(self, n: int) -> bool:
        """Whether the projection residual's squared norm exceeds sqrt(n),
        the hypothesis of the 7^d blow-up bound; never on the scan path."""
        # residual_sum / den^2 > sqrt(n)  <=>  residual_sum^2 > n den^4
        return self.residual_sum is not None and self.residual_sum ** 2 > n * self.den ** 4

    def outcome(self, n: int) -> RoundingOutcome:
        """The Fraction-valued RoundingOutcome."""
        den = self.den
        blowup = residual_sq = None
        if self.residual_sum is not None:
            reduced_sum = sum(a * a for mask, a in self.reduced.items() if mask)
            blowup = (Fraction(reduced_sum, self.residual_sum) if self.residual_sum
                      else Fraction(1))
            residual_sq = Fraction(self.residual_sum, den * den)
        return RoundingOutcome(h=MultilinearPoly.from_numerators(n, den, self.h),
                               reduced=MultilinearPoly.from_numerators(n, den, self.reduced),
                               active_set=frozenset(self.kernel),
                               norm_blowup=blowup, residual_norm_sq=residual_sq)


def round_bisection(f: MultilinearPoly, h_f: MultilinearPoly, gamma,
                    d: Optional[int] = None,
                    allow_large_residual: bool = False) -> RoundingOutcome:
    """Snap h_f level by level to h and return f - fhat(0) - (sum x_i) h.

    Requires f and h_f in the chi basis on the same variables (bisection
    constraint), f's coefficients multiples of gamma (the reduced
    polynomial's integrality claim rests on this), and projection residual
    norm^2 at most sqrt(n) (the blow-up guarantee's hypothesis) unless
    allow_large_residual is set.  The work is the int core _round_bisection
    on f's and h_f's numerators.
    """
    den_f, f_nums = chi_numerators(f, f.n, "round_bisection's f")
    den_h, h_nums = chi_numerators(h_f, f.n, "round_bisection's h_f")
    d = f.degree_bound if d is None else _check_degree(d)
    # h_f may be any polynomial, so the residual is formed, over the lcm of
    # the two denominators.  Its norm is taken constant-free: the constant
    # component of g - (sum x) h is the remaining null direction of the
    # variance form and carries no kernel variables.
    den = lcm(den_f, den_h)
    residual = reduce_by_constraint({mask: a * (den // den_f) for mask, a in f_nums.items()},
                                    {mask: a * (den // den_h) for mask, a in h_nums.items()}, f.n)
    residual.pop(0, None)
    step = _round_bisection(f.n, den_f, f_nums, den_h, h_nums, check_gamma(gamma), d,
                            Fraction(sum(a * a for a in residual.values()), den * den))
    if step.residual_above_sqrt_n(f.n) and not allow_large_residual:
        raise PreconditionError(
            f"projection residual {Fraction(step.residual_sum, step.den ** 2)} exceeds "
            "sqrt(n); the caller should not have taken the small-variance branch at this size")
    reduced = {mask: a for mask, a in step.reduced.items() if mask}
    constant = step.reduced.get(0, 0) - f_nums.get(0, 0) * (step.den // den_f)
    if constant:
        reduced[0] = constant
    return step._replace(reduced=reduced).outcome(f.n)


def _round_bisection(n: int, den_f: int, f_nums: Dict[int, int], den_h: int,
                     h_nums: Dict[int, int], gamma: Fraction, d: int,
                     residual: Fraction) -> IntOutcome:
    """round_bisection on int numerators: f = f_nums / den_f and
    h_f = h_nums / den_h (den_h of either sign), with `residual` the
    constant-free squared norm of f - (sum x_i) h_f, which the caller
    has (spectra._residual_norm for an exact projection, the formed
    residual for any other h_f).  f, h_f and every granularity of
    gamma_ladder go over one denominator den, so the snap and the
    reduction run on ints, and the norm is residual_sum / den^2."""
    for a in f_nums.values():
        if a * gamma.denominator % (den_f * gamma.numerator):
            raise InputError(f"coefficient {number_str(Fraction(a, den_f))} is not a "
                             "multiple of gamma")
    den_steps, ladder = _ladder_steps(d, gamma)
    den = lcm(den_f, den_h, den_steps)
    g = {mask: a * (den // den_f) for mask, a in f_nums.items()}
    h_nums = {mask: a * (den // den_h) for mask, a in h_nums.items()}
    # the residual's entries are numerators over den, so its norm's
    # denominator divides den^2
    scale, rem = divmod(den * den, residual.denominator)
    if rem:
        raise AssertionError(f"residual norm {residual} is not over den^2 = {den * den}")
    residual_sum = residual.numerator * scale
    steps = [step * (den // den_steps) for step in ladder]  # over den
    rounded: Dict[int, int] = {}
    for s, a in h_nums.items():
        w = s.bit_count()
        if w >= d:
            raise InputError("h_f must have degree at most d-1")
        snapped = round_half_away(a, steps[w]) * steps[w]
        if snapped:
            rounded[s] = snapped
    reduced = reduce_by_constraint(g, rounded, n)
    if not residual_sum and any(reduced.keys() - {0}):
        raise AssertionError("exact projection must round to itself")
    return IntOutcome(den, rounded, reduced, residual_sum)


# ---------------------------------------------------------------------------
# reconstruction from a hypothesized inactive set
# ---------------------------------------------------------------------------

def _beta_weights(big_d: int) -> List[int]:
    """[beta_{D-1,1}, ..., beta_{1,D-1}], the closed form of the recurrence
    in the module docstring."""
    return [(-1) ** (i + 1) * factorial(i - 1) * factorial(big_d - 1 - i)
            for i in range(1, big_d)]


def _bits(mask: int) -> List[int]:
    """The single-bit masks of `mask`, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def _lowest(mask: int, k: int) -> int:
    """The lowest k bits of mask (all of them when it has fewer)."""
    out = 0
    for _ in range(k):
        low = mask & -mask
        out |= low
        mask ^= low
    return out


def _relabel(mask: int, image: Dict[int, int]) -> int:
    """The mask whose bits are image[b] for the single-bit masks b of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= image[low]
        mask ^= low
    return out


@lru_cache(maxsize=16)
def _span_weights(big_d: int) -> Tuple[int, ...]:
    """W[i], i = 1..D: the weight of E(U) in N(s1, P) for a weight-D set U
    inside s1 u P with |U n P| = i (beta_i (D-i) below D, the closing
    constant -(-1)^D (D-1)! at i = D, where U is P); W[0] is unused."""
    return (0, *(beta * (big_d - i) for i, beta in enumerate(_beta_weights(big_d), 1)),
            -factorial(big_d - 1) * (-1) ** big_d)


@lru_cache(maxsize=8)
def _shape(n: int, big_d: int) -> List[int]:
    """The rows of a weight-big_d solve on n variables, big_d >= 2: the
    (big_d - 1)-sets in lex order.  Shared by every solve of that size, so
    never changed; at big_d = 3 an entry holds 4,950 ints at n = 100."""
    return [sum(c) for c in combinations([1 << j for j in range(n)], big_d - 1)]


@lru_cache(maxsize=2048)
def _response(n: int, cand: int, u: int) -> Tuple[int, ...]:
    """The rows s1 whose pivot span s1 u P holds the weight-D set u, for
    the candidate bitmask `cand` (D = |cand|) and a set u meeting it, each
    followed by the weight W[|u n P|] of E(u) in N(s1, P): a flat tuple
    row, weight, row, weight, ...  Two kinds, enumerated directly:

    - rows disjoint from cand, whose pivot is cand: u - cand plus any
      |u n cand| - 1 other bits outside cand;
    - rows C u Y (C a k-subset of cand, 1 <= k < D; Y outside cand), whose
      pivot is (cand - C) u L(Y), L(Y) the lowest k bits outside cand u Y.
      The span holds u when Y u L(Y) holds u - cand; L(Y) lies within the
      lowest D-1 bits outside cand, so Y holds the part of u - cand above
      them.

    A set that misses cand lies in no span, so it has no rows.

    Cached: the scans of one size meet the same (candidate, set) pairs
    table after table.  At n <= 9 an entry is a few rows, about 0.2 KB;
    at n = 48 most are too, but the set equal to its candidate has
    C(n-D, D-1) disjoint rows."""
    big_d = cand.bit_count()
    weights = _span_weights(big_d)
    inside = u & cand
    rest = u ^ inside
    outside = ((1 << n) - 1) ^ cand
    out: List[int] = []
    weight = weights[inside.bit_count()]
    # bit lists are built only where a combination of one or more reads them
    spare = _bits(outside ^ rest) if inside & (inside - 1) else ()
    for extra in combinations(spare, inside.bit_count() - 1):
        out += (rest | sum(extra), weight)
    high = rest & ~_lowest(outside, big_d - 1)
    room = big_d - 1 - high.bit_count()     # k plus the bits Y adds to high
    free = _bits(outside ^ high) if room > 1 else ()
    cand_bits = _bits(cand)
    for k in range(1, room + 1):
        for extra in combinations(free, room - k):
            y = high | sum(extra)
            fill = _lowest(outside & ~y, k)
            if rest & ~(y | fill):
                continue
            filled = (rest & fill).bit_count()
            for c in combinations(cand_bits, k):
                part = sum(c)
                out += (part | y, weights[(inside & ~part).bit_count() + filled])
    return tuple(out)


# A level of at most this many candidates counts them all in one pass
# (_LevelSolve.packed_counts), one field of an int per candidate.
_PACKED_CANDIDATES = 64


class _Packing(NamedTuple):
    """The layout of a packed count on n variables at weight D."""

    sets: Tuple[int, ...]                   # the weight-D sets in lex order; field k is sets[k]
    rows: Dict[int, int]                    # each row's index in _shape(n, D)
    below: Tuple[Tuple[int, ...], ...]      # per set T, the indices of the rows T - j
    members: Tuple[Tuple[int, ...], ...]    # per set, its variables, counted from 0


@lru_cache(maxsize=16)
def _packing(n: int, big_d: int) -> _Packing:
    """The _Packing of (n, big_d), big_d >= 2: a few hundred small ints."""
    rows = {s1: i for i, s1 in enumerate(_shape(n, big_d))}
    sets = tuple(sum(c) for c in combinations([1 << j for j in range(n)], big_d))
    return _Packing(sets, rows,
                    tuple(tuple(rows[t ^ low] for low in _bits(t)) for t in sets),
                    tuple(tuple(low.bit_length() - 1 for low in _bits(t)) for t in sets))


@lru_cache(maxsize=128)
def _column(n: int, big_d: int, width: int, u: int) -> Tuple[int, ...]:
    """The weight-D set u's part of N for every candidate at once: entry i,
    for row i of _shape(n, big_d), holds in its field k (width bits, two's
    complement across fields) u's weight in that row's N for the candidate
    _packing(n, big_d).sets[k], read from _response; 0 where u lies in no
    span.  A candidate's pivot per row is one set, so a field holds one
    W value at most.

    Cached: the tables of one size share their support sets.  Per (n,
    big_d, width) at most C(n, big_d) columns exist.  The three shapes of
    the benchmark's p = 1/3 corpus, (6, 2), (6, 3) and (9, 2), have 71 of
    them, 0.15 MB of tuples and ints at width 64; all columns of the
    largest shapes that qualify take 0.69 MB at (8, 3) and 0.40 MB at
    (7, 4), and a column grows with its width (1.3 MB for (8, 3) at 128).
    The 128 entries hold at most about 1.6 MB at width 64."""
    packing = _packing(n, big_d)
    column = [0] * len(packing.rows)
    for k, cand in enumerate(packing.sets):
        if u & cand:
            entries = iter(_response(n, cand, u))
            for row, weight in zip(entries, entries):
                column[packing.rows[row]] += weight << (width * k)
    return tuple(column)


def _coefficient(t: int, acc: int, nums: Dict[int, int]) -> int:
    """acc plus the sum of N(t minus j) over j in t, rows absent from nums
    counting 0."""
    rest = t
    while rest:
        low = rest & -rest
        rest ^= low
        acc += nums.get(t ^ low, 0)
    return acc


class _Peel(NamedTuple):
    """A weight-D table minus its most common value."""

    value: int                  # a, the most common value, absent sets counting 0
    support: Dict[int, int]     # E(T) - a on the sets T where it is nonzero
    used: int                   # the union of those sets


class _LevelSolve:
    """One weight-D level on an int table: the weight-(D-1) solve of the
    reconstruction, and the scan's survivor count and choice of candidate.

    table[T] / den is the equation constant E(T) of a weight-D set T (zero
    when absent).  For a (D-1)-set s1 and a pivot P disjoint from it, the
    beta-weighted sum over s2 inside P collapses, because each t2 inside P
    with |t2| = i lies in D - i of the (D-1)-subsets of P:

        R(s1) = sum_i beta_i (D-i) sum_{t1 < s1, |t1| = D-i} sum_{t2 < P, |t2| = i} E(t1 u t2)
        N(s1) = R(s1) - (-1)^D (D-1)! E(P)

    on numerators, and h(s1) = N(s1) / (D! den): each weight-D set U inside
    s1 u P enters N(s1) once, with weight W[|U n P|] (_span_weights).  A
    scan candidate's top-weight h is that N on the table's weight-D part
    alone, its pivot for row s1 the candidate itself unless the two meet.

    N is linear in the table, and on the all-ones table N(s1) = (D-1)! for
    every row and pivot, so N = N' + a (D-1)! with N' the N of the peeled
    table E - a (_Peel): N' is summed from the responses of the support
    sets the candidate meets (_response), and is 0 on every row none of
    them reaches.  The coefficient of T in the table minus (sum x_i) h is
    sum_{j in T} N(T - j) - D! E(T), and a adds D (D-1)! - D! = 0 to it:
    the peel changes no count.  A candidate that meets no support set
    leaves every support set active and nothing else; otherwise T can be
    active only if it is a support set or holds a row with N' != 0.

    best counts a level of at most _PACKED_CANDIDATES candidates in one
    pass (packed_counts): N' of every candidate at once, one field per
    candidate, and the sum over j of every weight-D set T on all fields;
    a larger level counts each candidate on its own (survivors), which
    stops as soon as the candidate cannot beat the best so far.
    """

    def __init__(self, n: int, big_d: int, table: Dict[int, int]):
        self.n = n
        self.big_d = big_d
        self.table = table

    @cached_property
    def peel(self) -> _Peel:
        """The level's _Peel.  a is 0 on a tie; otherwise a is more common
        than the absent sets, which then enter the support at -a and are
        fewer than the table's sets."""
        n, big_d, table = self.n, self.big_d, self.table
        counts = Counter(table.values())
        counts[0] += comb(n, big_d) - len(table)
        value = max(counts, key=lambda a: (counts[a], not a))
        support = {t: e - value for t, e in table.items() if e != value}
        if value:
            for c in combinations(_bits((1 << n) - 1), big_d):
                t = sum(c)
                if t not in table:
                    support[t] = -value
        used = 0
        for t in support:
            used |= t
        return _Peel(value, support, used)

    def peeled_numerators(self, cand: int) -> Dict[int, int]:
        """N' per row for the candidate bitmask's pivots, on the rows the
        support sets it meets reach (zeros possible)."""
        n = self.n
        nums: Dict[int, int] = {}
        for u, e in self.peel.support.items():
            if u & cand:
                entries = iter(_response(n, cand, u))
                for row, weight in zip(entries, entries):
                    nums[row] = nums.get(row, 0) + weight * e
        return nums

    def solve(self, pool: int) -> Dict[int, int]:
        """N(s1) per (D-1)-set s1, zeros dropped, with the pivots built from
        the pool bitmask: P is the lowest D bits outside s1, counted in the
        order that lists the pool's bits first.  A pool of D bits is a
        candidate, and N = N' + a (D-1)!.  A larger pool is relabelled, its
        bits first and each part in increasing order: the pool is then the
        lowest bits, so every P is the lowest D bits outside s1, as for the
        candidate (1 << D) - 1, which solves the relabelled table; its rows
        are mapped back.  D = 1 has one row, the empty set, and
        N = E(P) with P the pool's lowest bit: no rows are listed."""
        n, big_d = self.n, self.big_d
        if big_d == 1:
            num = self.table.get(pool & -pool, 0)
            return {0: num} if num else {}
        if n < 2 * big_d - 1:
            raise InputError("not enough variables to build a pivot set")
        if pool.bit_count() > big_d:
            order = _bits(pool) + _bits(((1 << n) - 1) ^ pool)
            image = {bit: 1 << i for i, bit in enumerate(order)}
            table = {_relabel(t, image): e for t, e in self.table.items()}
            level = _LevelSolve(n, big_d, table).solve((1 << big_d) - 1)
            back = {new: bit for bit, new in image.items()}
            return {_relabel(s1, back): num for s1, num in level.items()}
        nums = self.peeled_numerators(pool)
        base = self.peel.value * factorial(big_d - 1)
        level: Dict[int, int] = {}
        for s1 in _shape(n, big_d):
            num = nums.get(s1, 0) + base
            if num:
                level[s1] = num
        return level

    def survivors(self, cand: int, floor: int) -> Optional[int]:
        """Variables left inactive at weight D by the candidate bitmask: n
        minus the union of the weight-D sets T with
        sum_{j in T} N(T minus j) - D! E(T) != 0, the coefficient of T in
        the table minus (sum x_i) h on numerators (the down and shift terms
        of the constraint product stay below weight D).  None as soon as
        that count is at most floor.

        Counted on the peeled table: the support sets are read first (each
        is active unless its rows cancel it), then the sets that hold a row
        with N' != 0."""
        n = self.n
        if floor >= n:
            return None
        _, support, used = self.peel
        if not cand & used:
            count = n - used.bit_count()
            return count if count > floor else None
        need = n - floor                # active variables that drop the candidate
        nums = self.peeled_numerators(cand)
        scale = -factorial(self.big_d)
        union = 0
        for t, e in support.items():
            if t & ~union and _coefficient(t, scale * e, nums):
                union |= t
                if union.bit_count() >= need:
                    return None
        full = (1 << n) - 1
        for row, num in nums.items():
            if not num:
                continue
            free = full & ~row
            if not row & ~union:
                free &= ~union      # only the added bit can be new
            for low in _bits(free):
                t = row | low
                if t & ~union and _coefficient(t, scale * support.get(t, 0), nums):
                    union |= t
                    if union.bit_count() >= need:
                        return None
        return n - union.bit_count()

    def packed_counts(self) -> List[int]:
        """survivors(cand, -1) for every candidate, in lex order, in one
        pass over ints with one width-bit field per candidate.

        N'(s1) = sum_u e_u column_u(s1) over the support (_column); for
        every weight-D set T, sum_{j in T} N'(T - j) - D! e_T in all fields
        at once.  A field holds at most D sum_u |e_u| max|W| + D! max|e_u|
        in absolute value, and width is the least multiple of 64 that keeps
        this below 2^(width-1): adding 2^(width-1) to every field then
        leaves each one apart, in [1, 2^width), and equal to 2^(width-1)
        exactly when its coefficient is 0, so flipping that bit and
        ((x & low) + low | x) & high flag the nonzero fields.  The flags
        are ORed per variable of T, and their sum over the variables holds
        each candidate's count of active variables."""
        n, big_d = self.n, self.big_d
        support = self.peel.support
        packing = _packing(n, big_d)
        fact = factorial(big_d)
        reach = (big_d * max(map(abs, _span_weights(big_d))) * sum(map(abs, support.values()))
                 + fact * max(map(abs, support.values()), default=0))
        width = 64 * (reach.bit_length() // 64 + 1)
        fields = len(packing.sets)
        ones = ((1 << width * fields) - 1) // ((1 << width) - 1)
        high = ones << (width - 1)
        low = high - ones
        nums = [0] * len(packing.rows)
        for u, e in support.items():
            for i, entry in enumerate(_column(n, big_d, width, u)):
                if entry:
                    nums[i] += e * entry
        active = [0] * n
        for t, below, members in zip(packing.sets, packing.below, packing.members):
            x = -fact * support.get(t, 0) * ones
            for i in below:
                x += nums[i]
            if x:
                x = (x + high) ^ high
                flags = ((x & low) + low | x) & high
                for j in members:
                    active[j] |= flags
        total = sum(a >> (width - 1) for a in active)
        field = (1 << width) - 1
        return [n - (total >> width * k & field) for k in range(fields)]

    def best(self, exit_threshold: int) -> int:
        """Bitmask of the D-set whose top-weight reconstruction leaves the
        most variables inactive at weight D (lexicographically first
        maximizer, or the first to reach exit_threshold).  A level of at
        most _PACKED_CANDIDATES candidates takes every count at once
        (packed_counts); on a larger one, a candidate is dropped as soon as
        it cannot beat the best so far.

        D = 1 is closed form: the coefficient of {j} after candidate {a} is
        E(a) - E(j), so {a} leaves inactive exactly the variables whose
        weight-1 value (0 when absent) equals its own; each value's first
        variable is the lowest bit among its sets, and 0's, when some
        variable is absent, the lowest absent one."""
        n = self.n
        if self.big_d == 1:
            table = self.table
            counts = Counter(table.values())
            counts[0] += n - len(table)
            first: Dict[int, int] = {}      # each value's first variable
            for t, a in table.items():
                first[a] = min(first.get(a, n), t.bit_length() - 1)
            if len(table) < n:
                absent = 0
                while 1 << absent in table:
                    absent += 1
                first[0] = min(first.get(0, n), absent)
            # the first variable with the largest count, counts capped at exit_threshold
            value = max(first, key=lambda a: (min(counts[a], exit_threshold), -first[a]))
            return 1 << first[value]
        if comb(n, self.big_d) <= _PACKED_CANDIDATES:
            counts = self.packed_counts()
            # the first to reach exit_threshold beats every count before it
            goal = min(exit_threshold, max(counts))
            return _packing(n, self.big_d).sets[next(
                k for k, count in enumerate(counts) if count >= goal)]
        best_count, best = -1, 0
        for bits in combinations(_bits((1 << n) - 1), self.big_d):
            cand = sum(bits)
            count = self.survivors(cand, best_count)
            if count is not None and count > best_count:
                best_count, best = count, cand
                if count >= exit_threshold:
                    break
        return best


def _by_level(table: Dict[int, int], top: int) -> List[Dict[int, int]]:
    """table split by popcount into one dict per level 0 .. max(top, deg)."""
    levels: List[Dict[int, int]] = [{} for _ in range(max(top, 0, *map(int.bit_count, table)) + 1)]
    for t, a in table.items():
        levels[t.bit_count()][t] = a
    return levels


def _subtract_product(levels: List[Dict[int, int]], h_w: Dict[int, int], n: int,
                      shift: int) -> None:
    """Subtract (sum_i x_i - shift) h_w from a table split by level, in place."""
    for t, a in times_constraint_table(h_w, n, 0, shift).items():
        level = levels[t.bit_count()]
        a = level.pop(t, 0) - a
        if a:
            level[t] = a


def _reconstruct(levels: List[Dict[int, int]], n: int, pool: int, shift: int
                 ) -> Tuple[int, Dict[int, int], List[Dict[int, int]]]:
    """(scale, h, reduced) over scale * den, scale = gamma_denominator(D),
    D = |pool|: the h that would make every variable of the pool bitmask
    inactive in f - (sum_i x_i - shift) h, and that reduction by levels,
    for f's int numerators over den split by level (_by_level, up to at
    least D): reconstruct_h's core.

    Every level goes over scale * den once.  Each weight w is one
    _LevelSolve on the equation constants E(T), |T| = w+1, the level-(w+1)
    part of f minus the products of the weights above w (_subtract_product),
    and h(s1) = N(s1) / (w+1)!, exact: from constants over den D! ... (w+2)!
    the solve gives h over den D! ... (w+1)!, and scale * den is that
    times w! ... 2!.  The levels left are f's reduction by h.
    """
    big = pool.bit_count()
    scale = gamma_denominator(big)
    levels = [{t: scale * a for t, a in level.items()} for level in levels]
    h: Dict[int, int] = {}
    for big_d in range(big, 0, -1):
        fact = factorial(big_d)
        nums = _LevelSolve(n, big_d, levels[big_d]).solve(pool)
        if any(num % fact for num in nums.values()):
            raise AssertionError(f"an N at weight {big_d - 1} is not a multiple of {big_d}!")
        h_w = {s: num // fact for s, num in nums.items()}
        _subtract_product(levels, h_w, n, shift)
        h.update(h_w)
    return scale, h, levels


def reconstruct_h(f: MultilinearPoly, pivot_pool, shift: int = 0) -> MultilinearPoly:
    """The unique candidate h that would make every variable of pivot_pool
    inactive in f - (sum_i x_i - shift) h.

    pivot_pool must have exactly deg(f) variables (more precisely: its size
    sets the top weight; levels proceed from weight |pool|-1 down to 0).
    A candidate always exists; whether it actually achieves inactivity is
    for the caller to check on the reduced polynomial.  The map f -> h is
    linear, and h's coefficients are multiples of gamma/d! at the top weight
    when f's are multiples of gamma (denominators grow by one factorial per
    weight below that).  The solve runs on f's int numerators over one
    denominator.
    """
    check_int("shift", shift)
    den, table = chi_numerators(f, f.n, "reconstruct_h's f")
    pool = mask_of_set(pivot_pool, f.n)
    if not pool:
        raise InputError("pivot pool must be nonempty")
    scale, h, _ = _reconstruct(_by_level(table, pool.bit_count()), f.n, pool, shift)
    return MultilinearPoly.from_numerators(f.n, den * scale, h)


# ---------------------------------------------------------------------------
# deterministic kernel extraction under a general cardinality constraint
# ---------------------------------------------------------------------------

def active_bound_constant(p: Fraction, d: int) -> Fraction:
    """C'_{p,d} = 20 d^2 7^d (d!)^{2 d^2} / (2 min(p,1-p))^{4d}: the loose
    guarantee on the number of active variables, per unit Var/gamma^2."""
    p = min(Fraction(p), 1 - Fraction(p))
    return Fraction(20 * d * d * 7 ** d * factorial(d) ** (2 * d * d)) \
        / (2 * p) ** (4 * d)


# _round_global's bound, computed once per (p, d): its callers have checked both
_cached_bound_constant = lru_cache(maxsize=64)(active_bound_constant)


def round_global(f: MultilinearPoly, dist: GlobalCardinality, gamma,
                 d: Optional[int] = None, variance: Optional[Fraction] = None,
                 allow_large_variance: bool = False) -> RoundingOutcome:
    """Kernel extraction for sum x_i = (1-2p)n via the level-by-level scan.

    Precondition (hypothesis of the active-set guarantee): Var_{D_p}(f) below
    sqrt(n); allow_large_variance skips the check (the caller should then
    surface a warning).  variance, when given, must be an int or Fraction.
    The reduction is value-preserving on the support regardless of which
    candidates win, so correctness of downstream enumeration never depends
    on the scan's choices; only the kernel-size bound does.
    """
    den, table = chi_numerators(f, dist.n, "round_global's f")
    gamma = check_gamma(gamma)
    d = f.degree_bound if d is None else _check_degree(d)
    if variance is None:
        var = _chi_mean_variance(den, superset_sums(table), dist)[1]
    else:
        var = Fraction(check_exact("variance", variance))
    if var < 0:
        raise InputError("variance must be nonnegative")
    if var * var > f.n and not allow_large_variance:
        raise PreconditionError(
            f"variance {number_str(var)} exceeds sqrt(n); the large-variance branch applies")
    return _round_global(den, table, f.n, dist, gamma, d, var).outcome(f.n)


def _round_global(den: int, table: Dict[int, int], n: int, card: GlobalCardinality,
                  gamma: Fraction, d: int, var: Fraction) -> IntOutcome:
    """round_global's scan on f's int numerators table / den, level d down
    to 1, on that table split by level (_by_level): each level's scan reads
    its own dict and subtracts only its winner's top weight, read off the
    scan's solve (the next level's solve recovers each lower weight
    exactly).  h and the reduced table come back over den times D! per
    scanned level D."""
    shift = card.target_sum
    cprime = _cached_bound_constant(card.p, d) if d else Fraction(0)
    bound = cprime * var / (gamma * gamma)
    # Early-exit bar: once a candidate leaves at most `bound` variables
    # active, the guarantee is met; a vacuous bound disables the shortcut
    # (then only a perfect candidate stops the scan early).
    bar = n - int(bound) if bound < n else 0
    exit_threshold = bar if bar >= 1 else n
    split = levels = _by_level(table, d)
    h_total: Dict[int, int] = {}
    for level in range(d, 0, -1):
        # the solve pairs each weight-(level-1) set with a disjoint
        # level-set pivot; with fewer than 2*level - 1 variables none exists,
        # so the level is left as it is (its variables stay in the kernel)
        if n < 2 * level - 1 or not levels[level]:
            continue
        solve = _LevelSolve(n, level, levels[level])
        h_top = solve.solve(solve.best(exit_threshold))
        # h_top / (level! den), a weight no earlier level solved: every level
        # goes over level! den, a new list even at level 1, and loses its product
        fact = factorial(level)
        den *= fact
        levels = [{t: fact * a for t, a in part.items()} for part in levels]
        _subtract_product(levels, h_top, n, shift)
        h_total = {**{t: fact * a for t, a in h_total.items()}, **h_top}
    # a scan that reconstructs nothing returns f's own table
    return IntOutcome(den, h_total, table if levels is split
                      else {t: a for level in levels for t, a in level.items()})
