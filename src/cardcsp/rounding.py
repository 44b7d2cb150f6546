"""Discretization of the null-space projection and kernel extraction.

Bisection path (p = 1/2): snap the projection h_f to controlled
denominators, one weight level at a time from d-1 down to 0.  Weight w is
snapped to the nearest multiple of gamma / (d! (d-1)! ... (w+1)!), halves
away from zero, so the final h has all coefficients in (gamma/Gamma_d) * Z
with Gamma_d = d!(d-1)!...2!.  The reduced polynomial f - fhat(0) - (sum x_i) h
agrees with f - fhat(0) on every assignment with sum x_i = 0, and its squared
coefficient norm is at most 7^d times the projection residual's when the
residual is at most sqrt(n).

General path: a variable is inactive in g when no nonzero coefficient of g
contains it.  If some h of degree <= d-1 makes every variable of a d-set S
inactive in f - (sum x_i - shift) h, then h is determined by S and f alone:
the weight-(w+1) equations "coefficient of T vanishes" for T inside S1 u P
(P a pivot set built from S) can be combined with integer weights

    beta_{D-1,1} = (D-2)!,   beta_{D-i-1,i+1} = -i/(D-i-1) * beta_{D-i,i},
    in closed form beta_{D-i,i} = (-1)^(i+1) (i-1)! (D-1-i)!,

so that all mixed coefficients cancel, leaving a relation between h(S1) and
h(S2) for S2 inside P; the vanishing coefficient of P itself then closes the
system.  reconstruct_h evaluates exactly that, weight d-1 down to weight 0,
on int numerators: each weight's equation constants go over one common
denominator, the sum over S2 collapses into one weighted sum over the
subsets of P, and each h entry becomes one Fraction.

round_global runs the deterministic scan: for degree level d down to 1 it
tries every candidate subset and keeps the one whose reconstruction makes
the most variables inactive in the current top-degree part
(lexicographically first maximizer; scan stops early once a candidate meets
the theoretical active-set bound).  A candidate's top-weight h depends only
on the weight-level coefficients, so those go over one denominator once per
level, and each candidate's surviving variables are counted on the int
numerators, with no Fraction or polynomial per candidate.  The winner is
reconstructed in full and subtracted.  The union of the surviving variables
is the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial, lcm
from typing import Dict, FrozenSet, List, Optional, Tuple

from .cardinal_dist import CardinalDist, chi_variance
from .errors import InputError, PreconditionError
from .exact import (QE, Scalar, _over_common_denominator, as_fraction,
                    nearest_multiple, scalar_sign)
from .poly import Basis, MultilinearPoly, Subset
from .spectra import constraint_poly


def active_variables(f: MultilinearPoly) -> FrozenSet[int]:
    """Variables occurring in some nonzero coefficient of f."""
    return frozenset(f.variables_used())


def gamma_ladder(d: int, gamma: Fraction) -> List[Fraction]:
    """Granularity per weight: entry w is gamma / (d! (d-1)! ... (w+1)!)."""
    gamma = Fraction(gamma)
    out = [gamma] * (d + 1)
    acc = Fraction(1)
    for w in range(d - 1, -1, -1):
        acc *= factorial(w + 1)
        out[w] = gamma / acc
    return out


def gamma_denominator(d: int) -> int:
    """Gamma_d = d! (d-1)! ... 2!."""
    out = 1
    for j in range(2, d + 1):
        out *= factorial(j)
    return out


@dataclass
class RoundingOutcome:
    h: MultilinearPoly
    reduced: MultilinearPoly
    active_set: FrozenSet[int]
    norm_blowup: Optional[Fraction]          # bisection path only
    residual_norm_sq: Optional[Scalar] = None


def round_bisection(f: MultilinearPoly, h_f: MultilinearPoly, gamma,
                    d: Optional[int] = None,
                    allow_large_residual: bool = False,
                    require_multiples: bool = True) -> RoundingOutcome:
    """Snap h_f level by level and return the rounded reduction of f.

    Requires the chi basis (bisection constraint), f's coefficients multiples
    of gamma (the reduced polynomial's integrality claim rests on this;
    require_multiples=False skips the check for robustness experiments with
    sub-granularity noise), and projection residual norm^2 at most sqrt(n)
    (the blow-up guarantee's hypothesis) unless allow_large_residual is set.
    """
    if f.basis is not Basis.CHI:
        raise InputError("round_bisection works on the chi basis")
    gamma = Fraction(gamma)
    if gamma <= 0:
        raise InputError("gamma must be positive")
    if require_multiples:
        for s, c in f.coeffs.items():
            if (as_fraction(c) / gamma).denominator != 1:
                raise InputError(f"coefficient of {s} is not a multiple of gamma")
    if d is None:
        d = f.degree_bound
    if d < 0:
        raise InputError("d must be nonnegative")
    g0 = f.without_constant()
    constraint = constraint_poly(f.n, Basis.CHI)
    # Norms are taken constant-free: the constant component of g0 - (sum x) h
    # is the remaining null direction of the variance form and carries no
    # kernel variables.
    residual = (g0 - constraint * h_f).without_constant()
    residual_sq = residual.l2_norm_sq()
    # residual_sq <= sqrt(n)  <=>  residual_sq^2 <= n (exact comparison)
    if as_fraction(residual_sq) ** 2 > f.n and not allow_large_residual:
        raise PreconditionError(
            f"projection residual {residual_sq} exceeds sqrt(n); the caller "
            "should not have taken the small-variance branch at this size")
    ladder = gamma_ladder(d, gamma)
    rounded: Dict[Subset, Fraction] = {}
    for s, c in h_f.coeffs.items():
        w = len(s)
        if w >= d:
            raise InputError("h_f must have degree at most d-1")
        snapped = nearest_multiple(as_fraction(c), ladder[w])
        if snapped != 0:
            rounded[s] = snapped
    h = MultilinearPoly(f.n, rounded, Basis.CHI)
    reduced = g0 - constraint * h
    reduced_sq = reduced.without_constant().l2_norm_sq()
    if scalar_sign(residual_sq) == 0:
        if scalar_sign(reduced_sq) != 0:
            raise AssertionError("exact projection must round to itself")
        blowup = Fraction(1)
    else:
        blowup = as_fraction(reduced_sq) / as_fraction(residual_sq)
    return RoundingOutcome(h=h, reduced=reduced,
                           active_set=active_variables(reduced),
                           norm_blowup=blowup, residual_norm_sq=residual_sq)


# ---------------------------------------------------------------------------
# reconstruction from a hypothesized inactive set
# ---------------------------------------------------------------------------

def _beta_weights(big_d: int) -> List[int]:
    """[beta_{D-1,1}, ..., beta_{1,D-1}], the closed form of the recurrence
    in the module docstring."""
    return [(-1) ** (i + 1) * factorial(i - 1) * factorial(big_d - 1 - i)
            for i in range(1, big_d)]


def _int_table(items) -> Tuple[int, Dict[int, int]]:
    """(den, {bitmask of S: numerator}) for (S, c) items over one common
    denominator, so that c == numerator / den."""
    items = list(items)
    try:
        den, nums = _over_common_denominator(c for _, c in items)
    except ValueError as exc:
        raise InputError(f"the reconstruction needs rational coefficients: {exc}") from exc
    return den, {sum(1 << (i - 1) for i in s): a for (s, _), a in zip(items, nums)}


def _submasks(bits: List[int], sizes) -> List[List[int]]:
    """Masks of the k-subsets of `bits`, one list per k in sizes."""
    return [[sum(c) for c in combinations(bits, k)] for k in sizes]


def _pivot(s1_mask: int, pool: Subset, size: int, n: int) -> int:
    """Bitmask of a size-`size` pivot disjoint from s1: elements of the pool
    first, then the smallest outside indices.  All size-`size` subsets of
    s1 u pivot then contain a pool element, as the hypothesis requires."""
    pivot = taken = 0
    for v in pool:
        bit = 1 << (v - 1)
        if not bit & s1_mask:
            pivot |= bit
            taken += 1
            if taken == size:
                return pivot
    free = ((1 << n) - 1) & ~s1_mask & ~sum(1 << (v - 1) for v in pool)
    for _ in range(size - taken):
        if not free:
            raise InputError("not enough variables to build a pivot set")
        low = free & -free
        pivot |= low
        free ^= low
    return pivot


class _WeightSolve:
    """The weight-(D-1) solve on one weight-D table of int numerators.

    table[T] / den is the equation constant E(T) of a weight-D set T (zero
    when absent).  For each (D-1)-set s1 with pivot P, the beta-weighted sum
    over s2 inside P collapses, because each t2 inside P with |t2| = i lies
    in D - i of the (D-1)-subsets of P:

        R(s1) = sum_i beta_i (D-i) sum_{t1 < s1, |t1| = D-i} sum_{t2 < P, |t2| = i} E(t1 u t2)
        N(s1) = -(-1)^D ((D-1)! E(P) - (-1)^D R(s1))

    on numerators, and h(s1) = N(s1) / (D! den).
    """

    def __init__(self, n: int, big_d: int, table: Dict[int, int]):
        self.n = n
        self.big_d = big_d
        self.table = table
        self.weights = [beta * (big_d - i)
                        for i, beta in enumerate(_beta_weights(big_d), 1)]
        # rows: (s1, mask of s1, [masks of the (D-i)-subsets of s1 for i = 1..D-1])
        self.rows = []
        for s1 in combinations(range(1, n + 1), big_d - 1):
            bits = [1 << (v - 1) for v in s1]
            self.rows.append((s1, sum(bits), _submasks(bits, range(big_d - 1, 0, -1))))
        # the weight-D supersets of each row's s1
        self._ups = [[mask | 1 << j for j in range(n) if not mask >> j & 1]
                     for _, mask, _ in self.rows]
        self._pivot_subs: Dict[int, List[List[int]]] = {}

    def _subsets_of_pivot(self, pivot: int) -> List[List[int]]:
        """Masks of the i-subsets of the pivot for i = 1..D-1."""
        subs = self._pivot_subs.get(pivot)
        if subs is None:
            bits = [1 << v for v in range(self.n) if pivot >> v & 1]
            subs = self._pivot_subs[pivot] = _submasks(bits, range(1, self.big_d))
        return subs

    def numerators(self, pool: Subset) -> List[int]:
        """N(s1) for every row, with pivots built from `pool`."""
        get = self.table.get
        fact = factorial(self.big_d - 1)
        sign = -1 if self.big_d % 2 else 1          # (-1)^D
        out = []
        for _, mask, s1_subs in self.rows:
            pivot = _pivot(mask, pool, self.big_d, self.n)
            r_total = 0
            for weight, t1s, t2s in zip(self.weights, s1_subs,
                                        self._subsets_of_pivot(pivot)):
                acc = 0
                for t1 in t1s:
                    for t2 in t2s:
                        acc += get(t1 | t2, 0)
                r_total += weight * acc
            out.append(-sign * (fact * get(pivot, 0) - sign * r_total))
        return out

    def active_mask(self, nums: List[int]) -> int:
        """Union of the weight-D sets T left nonzero in the table minus
        (sum x_i) h: D! E(T) - sum_{s < T, |s| = D-1} N(s) != 0 on numerators.
        The shift term of the constraint product stays below weight D."""
        scale = factorial(self.big_d)
        acc = {t: scale * a for t, a in self.table.items()}
        for ups, num in zip(self._ups, nums):
            if num:
                for t in ups:
                    acc[t] = acc.get(t, 0) - num
        union = 0
        for t, a in acc.items():
            if a:
                union |= t
        return union


def reconstruct_h(f: MultilinearPoly, pivot_pool, shift: int = 0) -> MultilinearPoly:
    """The unique candidate h that would make every variable of pivot_pool
    inactive in f - (sum_i x_i - shift) h.

    pivot_pool must have exactly deg(f) variables (more precisely: its size
    sets the top weight; levels proceed from weight |pool|-1 down to 0).
    A candidate always exists; whether it actually achieves inactivity is
    for the caller to check on the reduced polynomial.  The map f -> h is
    linear, and h's coefficients are multiples of gamma/d! at the top weight
    when f's are multiples of gamma (denominators grow by one factorial per
    weight below that).

    Each weight w is one _WeightSolve on the equation constants
    E(T) = fhat(T) + shift*h(T) - sum_{j not in T} h(T u j), |T| = w+1,
    put over one denominator as int numerators from the numerators of f and
    of the two weights of h above; each h entry is one Fraction.
    """
    if f.basis is not Basis.CHI:
        raise InputError("reconstruct_h works on the chi basis")
    pool = tuple(sorted(set(pivot_pool)))
    if not pool:
        raise InputError("pivot pool must be nonempty")
    if any(not 1 <= v <= f.n for v in pool):
        raise InputError("pivot pool variable out of range")
    den_f, f_table = _int_table(f.coeffs.items())
    h: Dict[Subset, Fraction] = {}
    # h's numerators at weights D and D+1 for the constants of weight D
    same: Tuple[int, Dict[int, int]] = (1, {})
    up: Tuple[int, Dict[int, int]] = (1, {})
    for w in range(len(pool) - 1, -1, -1):
        big_d = w + 1
        den = lcm(den_f, same[0], up[0])
        table = {mask: a * (den // den_f) for mask, a in f_table.items()
                 if mask.bit_count() == big_d}
        if shift:
            scale = shift * (den // same[0])
            for mask, a in same[1].items():
                table[mask] = table.get(mask, 0) + scale * a
        scale = den // up[0]
        for mask, a in up[1].items():
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                table[mask ^ low] = table.get(mask ^ low, 0) - scale * a
        solve = _WeightSolve(f.n, big_d, table)
        h_den = factorial(big_d) * den
        level: Dict[int, int] = {}
        for (s1, mask, _), num in zip(solve.rows, solve.numerators(pool)):
            if num:
                h[s1] = Fraction(num, h_den)
                level[mask] = num
        up, same = same, (h_den, level)
    return MultilinearPoly(f.n, h, Basis.CHI)


# ---------------------------------------------------------------------------
# deterministic kernel extraction under a general cardinality constraint
# ---------------------------------------------------------------------------

def active_bound_constant(p: Fraction, d: int) -> Fraction:
    """C'_{p,d} = 20 d^2 7^d (d!)^{2 d^2} / (2 min(p,1-p))^{4d}: the loose
    guarantee on the number of active variables, per unit Var/gamma^2."""
    p = min(Fraction(p), 1 - Fraction(p))
    return Fraction(20 * d * d * 7 ** d * factorial(d) ** (2 * d * d)) \
        / (2 * p) ** (4 * d)


def round_global(f: MultilinearPoly, dist: CardinalDist, gamma,
                 d: Optional[int] = None, variance: Optional[Fraction] = None,
                 allow_large_variance: bool = False) -> RoundingOutcome:
    """Kernel extraction for sum x_i = (1-2p)n via the level-by-level scan.

    Precondition (hypothesis of the active-set guarantee): Var_{D_p}(f) below
    sqrt(n); allow_large_variance skips the check (the caller should then
    surface a warning).  The reduction is value-preserving on the support
    regardless of which candidates win, so correctness of downstream
    enumeration never depends on the scan's choices; only the kernel-size
    bound does.
    """
    if f.basis is not Basis.CHI:
        raise InputError("round_global works on the chi basis")
    if any(isinstance(c, QE) for c in f.coeffs.values()):
        raise InputError("round_global needs rational coefficients")
    gamma = Fraction(gamma)
    if gamma <= 0:
        raise InputError("gamma must be positive")
    if d is None:
        d = f.degree_bound
    if d < 0:
        raise InputError("d must be nonnegative")
    var = chi_variance(f, dist) if variance is None else Fraction(variance)
    if var < 0:
        raise InputError("variance must be nonnegative")
    if var * var > f.n and not allow_large_variance:
        raise PreconditionError(
            f"variance {var} exceeds sqrt(n); the large-variance branch applies")
    shift = dist.card.target_sum
    n = f.n
    cprime = active_bound_constant(dist.p, d) if d else Fraction(0)
    bound = cprime * var / (gamma * gamma)
    # Early-exit bar: once a candidate leaves at most `bound` variables
    # active, the guarantee is met; a vacuous bound disables the shortcut
    # (then only a perfect candidate stops the scan early).
    bar = n - int(bound) if bound < n else 0
    exit_threshold = bar if bar >= 1 else n
    constraint = constraint_poly(n, Basis.CHI)
    f_cur = f
    h_total = MultilinearPoly.zero(n, Basis.CHI)
    for level in range(d, 0, -1):
        # reconstruct_h pairs each weight-(level-1) set with a disjoint
        # level-set pivot; with fewer than 2*level - 1 variables none exists,
        # so the level is left as it is (its variables stay in the kernel)
        if n < 2 * level - 1:
            continue
        best_subset = _best_candidate(f_cur, level, exit_threshold)
        if best_subset is None:
            continue
        h_level = reconstruct_h(f_cur, best_subset, shift)
        shifted = constraint - MultilinearPoly.constant(n, shift, Basis.CHI)
        f_cur = f_cur - shifted * h_level
        h_total = h_total + h_level
    return RoundingOutcome(h=h_total, reduced=f_cur,
                           active_set=active_variables(f_cur),
                           norm_blowup=None)


def _best_candidate(f_cur: MultilinearPoly, level: int,
                    exit_threshold: int) -> Optional[Subset]:
    """The level-set whose top-weight reconstruction leaves the most
    variables inactive at weight `level` (lexicographically first maximizer,
    or the first to reach exit_threshold); None when f_cur has no
    weight-`level` coefficient.  A candidate's top-weight h depends on
    f_cur's weight-`level` coefficients alone, so one int table serves the
    whole scan."""
    _, table = _int_table((s, c) for s, c in f_cur.coeffs.items() if len(s) == level)
    if not table:
        return None
    n = f_cur.n
    solve = _WeightSolve(n, level, table)
    best_count, best_subset = -1, None
    for cand in combinations(range(1, n + 1), level):
        count = n - solve.active_mask(solve.numerators(cand)).bit_count()
        if count > best_count:
            best_count, best_subset = count, cand
            if count >= exit_threshold:
                break
    return best_subset
