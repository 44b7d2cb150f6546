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

    beta_{D-1,1} = (D-2)!,   beta_{D-i-1,i+1} = -i/(D-i-1) * beta_{D-i,i}

so that all mixed coefficients cancel, leaving a relation between h(S1) and
h(S2) for S2 inside P; the vanishing coefficient of P itself then closes the
system.  reconstruct_h evaluates exactly that, weight d-1 down to weight 0.

round_global runs the deterministic scan: for degree level d down to 1 it
tries every candidate subset, keeps the reconstruction that makes the most
variables inactive in the current top-degree part (lexicographically first
maximizer; scan stops early once a candidate meets the theoretical active-set
bound), and subtracts.  The union of the surviving variables is the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Dict, FrozenSet, List, Optional

from .cardinal_dist import CardinalDist, chi_variance
from .errors import InputError, PreconditionError
from .exact import Scalar, as_fraction, nearest_multiple, scalar_sign
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

def _beta_weights(big_d: int) -> List[Fraction]:
    """beta_{D-i,i} for i = 1..D-1 (integers; index 0 unused)."""
    betas = [Fraction(0)] * big_d
    betas[1] = Fraction(factorial(big_d - 2))
    for i in range(1, big_d - 1):
        betas[i + 1] = betas[i] * Fraction(-i, big_d - i - 1)
    return betas


class _Reconstructor:
    """Shared state for one reconstruct_h run (memoized equation constants)."""

    def __init__(self, f: MultilinearPoly, pivot_pool: Subset, shift: int):
        self.f = f
        self.n = f.n
        self.pool = tuple(sorted(pivot_pool))
        self.shift = shift
        self.h: Dict[Subset, Fraction] = {}
        self._f_cache: Dict[Subset, Fraction] = {}

    def equation_constant(self, t: Subset) -> Fraction:
        """F(T) = fhat(T) + shift*h(T) - sum_{j not in T} h(T u j), with h
        entries taken from the already-reconstructed higher weights."""
        val = self._f_cache.get(t)
        if val is not None:
            return val
        val = as_fraction(self.f.coefficient(t))
        if self.shift:
            val += self.shift * self.h.get(t, Fraction(0))
        t_set = set(t)
        for j in range(1, self.n + 1):
            if j not in t_set:
                up = self.h.get(tuple(sorted(t + (j,))))
                if up is not None:
                    val -= up
        self._f_cache[t] = val
        return val

    def pivot_for(self, s1: Subset, size: int) -> Subset:
        """A size-`size` pivot disjoint from s1: elements of the pool first,
        then the smallest outside indices.  All size-`size` subsets of
        s1 u pivot then contain a pool element, as the hypothesis requires."""
        s1_set = set(s1)
        chosen = [v for v in self.pool if v not in s1_set][:size]
        j = 1
        while len(chosen) < size:
            if j not in s1_set and j not in self.pool:
                chosen.append(j)
            j += 1
            if j > self.n and len(chosen) < size:
                raise InputError("not enough variables to build a pivot set")
        return tuple(sorted(chosen))

    def solve_weight(self, w: int) -> None:
        """Fill h at weight w from the weight-(w+1) vanishing equations."""
        big_d = w + 1
        if big_d == 1:
            self.h[()] = self.equation_constant((self.pool[0],))
            return
        betas = _beta_weights(big_d)
        fact = factorial(big_d - 1)
        sign_d = -1 if big_d % 2 else 1          # (-1)^D
        new_coeffs: Dict[Subset, Fraction] = {}
        for s1 in combinations(range(1, self.n + 1), w):
            pivot = self.pivot_for(s1, big_d)
            r_total = Fraction(0)
            for s2 in combinations(pivot, w):
                for i in range(1, big_d):
                    beta = betas[i]
                    for t1 in combinations(s1, big_d - i):
                        for t2 in combinations(s2, i):
                            r_total += beta * self.equation_constant(
                                tuple(sorted(t1 + t2)))
            closing = self.equation_constant(pivot)
            value = -sign_d * (closing - sign_d * r_total / fact) / big_d
            if value != 0:
                new_coeffs[s1] = value
        self.h.update(new_coeffs)
        self._f_cache.clear()   # constants below this weight see the new h


def reconstruct_h(f: MultilinearPoly, pivot_pool, shift: int = 0,
                  top_weight_only: bool = False) -> MultilinearPoly:
    """The unique candidate h that would make every variable of pivot_pool
    inactive in f - (sum_i x_i - shift) h.

    pivot_pool must have exactly deg(f) variables (more precisely: its size
    sets the top weight; levels proceed from weight |pool|-1 down to 0).
    A candidate always exists; whether it actually achieves inactivity is
    for the caller to check on the reduced polynomial.  The map f -> h is
    linear, and h's coefficients are multiples of gamma/d! at the top weight
    when f's are multiples of gamma (denominators grow by one factorial per
    weight below that).
    """
    if f.basis is not Basis.CHI:
        raise InputError("reconstruct_h works on the chi basis")
    pool = tuple(sorted(set(pivot_pool)))
    if not pool:
        raise InputError("pivot pool must be nonempty")
    if any(not 1 <= v <= f.n for v in pool):
        raise InputError("pivot pool variable out of range")
    rec = _Reconstructor(f, pool, shift)
    bottom = len(pool) - 1 if top_weight_only else 0
    for w in range(len(pool) - 1, bottom - 1, -1):
        rec.solve_weight(w)
    return MultilinearPoly(f.n, rec.h, Basis.CHI)


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
    gamma = Fraction(gamma)
    if gamma <= 0:
        raise InputError("gamma must be positive")
    var = chi_variance(f, dist) if variance is None else Fraction(variance)
    if var * var > f.n and not allow_large_variance:
        raise PreconditionError(
            f"variance {var} exceeds sqrt(n); the large-variance branch applies")
    if d is None:
        d = f.degree_bound
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
        top = {s: c for s, c in f_cur.coeffs.items() if len(s) == level}
        # reconstruct_h pairs each weight-(level-1) set with a disjoint
        # level-set pivot; with fewer than 2*level - 1 variables none exists,
        # so the level is left as it is (its variables stay in the kernel)
        if not top or n < 2 * level - 1:
            continue
        best_count = -1
        best_subset = None
        for cand in combinations(range(1, n + 1), level):
            h_top = reconstruct_h(f_cur, cand, shift, top_weight_only=True)
            count = n - len(_top_active(f_cur, h_top, level, n))
            if count > best_count:
                best_count, best_subset = count, cand
                if count >= exit_threshold:
                    break
        h_level = reconstruct_h(f_cur, best_subset, shift)
        shifted = constraint - MultilinearPoly.constant(n, shift, Basis.CHI)
        f_cur = f_cur - shifted * h_level
        h_total = h_total + h_level
    return RoundingOutcome(h=h_total, reduced=f_cur,
                           active_set=active_variables(f_cur),
                           norm_blowup=None)


def _top_active(f_cur: MultilinearPoly, h_top: MultilinearPoly, level: int,
                n: int) -> set:
    """Active variables of the weight-`level` part of f_cur - (sum x_i) h_top.

    Only h's weight-(level-1) part can touch weight `level`, via the up-terms
    of the constraint product; the shift term stays at lower weights.
    """
    coeffs: Dict[Subset, Fraction] = {
        s: as_fraction(c) for s, c in f_cur.coeffs.items() if len(s) == level}
    for s, c in h_top.coeffs.items():
        if len(s) != level - 1:
            continue
        s_set = set(s)
        for j in range(1, n + 1):
            if j not in s_set:
                key = tuple(sorted(s + (j,)))
                coeffs[key] = coeffs.get(key, Fraction(0)) - c
    out: set = set()
    for s, c in coeffs.items():
        if c != 0:
            out.update(s)
    return out
