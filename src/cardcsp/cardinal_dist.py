"""The slice of assignments with exactly p*n entries -1, and the uniform
distribution D_p on it: one class, GlobalCardinality (alias CardinalDist).

Moments of basis monomials under D_p are captured by two scalar sequences:

  delta_k = E[phi_S] for |S|=k, from  k*delta_{k-1} + k*q*delta_k + (n-k)*delta_{k+1} = 0
            with delta_0 = 1 and q = (2p-1)/sqrt(p(1-p));
  eps_k   = E[chi_S] for |S|=k, from  k*eps_{k-1} - (1-2p)n*eps_k + (n-k)*eps_{k+1} = 0
            with eps_0 = 1.

Both recurrences follow from E[(sum_i phi_i) * phi_S] = 0 (resp. the chi
analogue with the shifted constraint), since the constraint polynomial
vanishes identically on the support; extend_slice_sequence runs both.

E[phi_S phi_T] is NOT delta_{|S delta T|} when S and T overlap at p != 1/2:
each shared index expands by phi_i^2 = q*phi_i + 1, giving

  E[phi_S phi_T] = sum_{j=0}^{c} C(c,j) q^j delta_{u+j},   c=|S^T|, u=|S delta T|.

The moments of an instance are taken in the chi basis, where eps_k is
rational for every p; the pairwise phi moments feed the set-symmetric forms
in spectra.  eps has one source, _chi_moment_table (eps_0 .. eps_top as int
numerators over one denominator, no level above top built), read by
chi_moment and by _chi_mean_variance, which asks for deg f levels for the
mean and min(2 deg f, n) for the variance, and reads f's int numerators
through their superset sums (poly.superset_sums, the table the projection
reads too) with no pair of terms; chi_expectation and chi_variance are its
wrappers for a MultilinearPoly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, sqrt
from typing import Dict, List, Optional, Tuple

from .errors import InputError
from .exact import Scalar, _over_common_denominator, check_positive_int, number_str
from .poly import (Assignment, Basis, MultilinearPoly, chi_numerators, exact_bias,
                   phi_square_q, superset_sums)


@dataclass(frozen=True)
class GlobalCardinality:
    """Sum x_i = (1-2p)n, and D_p on it; equal when (n, p) are.  num_negative
    is derived once, q and the moment sequences on first use."""

    n: int
    p: Fraction

    def __post_init__(self):
        check_positive_int("n", self.n)
        p = exact_bias(self.p)
        negatives = p * self.n
        if negatives.denominator != 1:
            raise InputError(f"p*n = {number_str(negatives)} is not an integer")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "num_negative", negatives.numerator)
        object.__setattr__(self, "_delta", [Fraction(1)])
        object.__setattr__(self, "_pair", {})

    @property
    def num_positive(self) -> int:
        return self.n - self.num_negative

    @property
    def target_sum(self) -> int:
        return self.n - 2 * self.num_negative

    @cached_property
    def q(self) -> Scalar:
        return phi_square_q(self.p)

    @staticmethod
    def from_card(card: "GlobalCardinality") -> "GlobalCardinality":
        return card     # the slice is its own distribution

    def delta(self, k: int) -> Scalar:
        return extend_slice_sequence(self._delta, k, self.n, q=self.q)[k]

    def chi_moment(self, k: int) -> Fraction:
        """E[chi_S] for |S| = k (rational for every p), from _chi_moment_table."""
        den, nums = _chi_moment_table(self.n, self.num_negative, k)
        return Fraction(nums[k], den)

    def phi_pair_moment(self, common: int, sym_diff: int) -> Scalar:
        """E[phi_S phi_T] as a function of c = |S^T| and u = |S delta T|."""
        key = (common, sym_diff)
        val = self._pair.get(key)
        if val is None:
            val = Fraction(0)
            for j in range(common + 1):
                val = val + comb(common, j) * self.q ** j * self.delta(sym_diff + j)
            self._pair[key] = val
        return val


CardinalDist = GlobalCardinality


def extend_slice_sequence(xs: List[Scalar], k: int, n: int, q: Scalar = 0,
                          shift: Scalar = 0, offset: int = 0) -> List[Scalar]:
    """Extend xs = [x_0 = 1, ...] in place through x_k, 0 <= k <= n, by
    j x_{j-1} + ((offset+j) q - shift) x_j + (n-2 offset-j) x_{j+1} = 0:
    delta is offset = shift = 0, eps is q = offset = 0 with shift = (1-2p)n,
    and spectra's alpha_{k,k+i} is shift = 0 with offset = k."""
    if not 0 <= k <= n:
        raise InputError(f"index {number_str(k)} outside [0..n] with n = {n}")
    while len(xs) <= k:
        j = len(xs) - 1
        prev = xs[j - 1] if j else 0
        xs.append(-(j * prev + ((offset + j) * q - shift) * xs[j]) / (n - 2 * offset - j))
    return xs


def delta_sequence(n: int, p, kmax: int) -> List[Scalar]:
    """delta_0 .. delta_kmax for D_p; requires 0 <= kmax <= n and p*n integral."""
    if not 0 <= kmax <= n:
        raise InputError(f"kmax = {number_str(kmax)} outside [0..n] with n = {number_str(n)}")
    card = GlobalCardinality(n, p)
    return [card.delta(k) for k in range(kmax + 1)]


@lru_cache(maxsize=256)
def _chi_moment_table(n: int, num_negative: int, top: int) -> Tuple[int, Tuple[int, ...]]:
    """(den, nums): E[chi_S] = nums[k] / den for |S| = k = 0 .. top on the
    slice of n variables with num_negative entries -1, the eps recurrence
    put over one denominator; no level above top is built.  Cached per
    (n, pn, top)."""
    eps = extend_slice_sequence([Fraction(1)], top, n, shift=n - 2 * num_negative)
    den, nums = _over_common_denominator(eps)
    return den, tuple(nums)


@lru_cache(maxsize=256)
def _pair_weights(eps: Tuple[int, ...], degree: int) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """w[k][l - k][j] for 0 <= k <= l <= degree and j <= k: the weight of
    F_k(U) F_l(U), |U| = j, in the second moment of a degree-`degree` f,
    over the moment table's denominator, eps = _chi_moment_table's
    numerators at top = min(2 degree, n).

    E[chi_S chi_T] = eps_{k+l-2i} for |S| = k, |T| = l, |S n T| = i, so its
    binomial transform in i,
      w[k][l][j] = (2 if k != l else 1) sum_{i<=j} (-1)^(j-i) C(j, i) eps_{k+l-2i},
    gives E[chi_S chi_T] = sum_{U <= S n T} w[k][l][|U|] (halved off the
    diagonal, which pairs (S, T) with (T, S)).  eps_m is 0 past the table:
    such an m exceeds n, so no pair of sets has it, and the transform
    returns the values of the pairs that exist whatever it is given there.
    Cached per (moment table, degree), that is per (n, pn, deg f), up to
    256 entries of O(degree^3) ints."""
    def eps_at(m):
        return eps[m] if m < len(eps) else 0

    return tuple(
        tuple(tuple((2 if l > k else 1) * sum((-1) ** (j - i) * comb(j, i) * eps_at(k + l - 2 * i)
                                              for i in range(j + 1))
                    for j in range(k + 1))
              for l in range(k, degree + 1))
        for k in range(degree + 1))


def _chi_mean_variance(den: int, sums: List[Dict[int, int]], card: GlobalCardinality,
                       variance: bool = True) -> Tuple[Fraction, Optional[Fraction]]:
    """(E[f], Var(f)) on the slice for the chi polynomial f = table / den
    (int numerators keyed by bitmask), read from its superset sums
    sums = poly.superset_sums(table), or (E[f], None) without variance.

    E[chi_S] depends on |S| alone, so E[f] = sum_k F_k(empty) eps_k, and
    E[f^2] = sum_{S,T} a_S a_T E[chi_S chi_T]
           = sum_U sum_{k<=l} w[k][l][|U|] F_k(U) F_l(U)
    (_pair_weights), with no f*f formed and no pair of terms visited:
    O(|sums| deg f) lookups.  It reads _chi_moment_table once, up to deg f
    for the mean and up to min(2 deg f, n) for the variance; the mean and
    the variance are one Fraction each.
    """
    degree = len(sums) - 1
    top = min(2 * degree, card.n) if variance else degree
    eps_den, eps = _chi_moment_table(card.n, card.num_negative, top)
    mean_num = sum(row.get(0, 0) * eps[k] for k, row in enumerate(sums))
    scale = den * eps_den
    if not variance:
        return Fraction(mean_num, scale), None
    weights = _pair_weights(eps, degree)
    square_num = 0
    for k, row in enumerate(sums):
        diagonal, *off = weights[k]
        square_num += sum(diagonal[sub.bit_count()] * a * a for sub, a in row.items())
        for w, other in zip(off, sums[k + 1:]):
            # the sets U of both levels, found from the smaller one
            small, large = (row, other) if len(row) <= len(other) else (other, row)
            for sub, a in small.items():
                b = large.get(sub)
                if b:
                    square_num += w[sub.bit_count()] * a * b
    return (Fraction(mean_num, scale),
            Fraction(square_num * eps_den - mean_num * mean_num, scale * scale))


def chi_expectation(f: MultilinearPoly, dist: GlobalCardinality) -> Fraction:
    """E_{D_p}[f] for a chi-basis f with rational coefficients."""
    den, table = chi_numerators(f, dist.n, "the chi-basis moment")
    return _chi_mean_variance(den, superset_sums(table), dist, variance=False)[0]


def chi_variance(f: MultilinearPoly, dist: GlobalCardinality) -> Fraction:
    """Var_{D_p}(f) for chi-basis f with rational coefficients, read from
    f's superset sums (_chi_mean_variance).  Agrees exactly with the
    variance form of spectra.quadratic_form_value on the phi-converted
    polynomial."""
    den, table = chi_numerators(f, dist.n, "the chi-basis moment")
    return _chi_mean_variance(den, superset_sums(table), dist)[1]


def sample(dist: GlobalCardinality, seed) -> Assignment:
    """One uniform draw from supp(D_p): a seeded shuffle of the +-1 multiset."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    values = [1] * dist.num_positive + [-1] * dist.num_negative
    rng.shuffle(values)
    return tuple(values)


def mc_moment(f: MultilinearPoly, dist: GlobalCardinality, k: int, n_samples: int,
              seed) -> Tuple[float, float]:
    """Monte Carlo estimate of E_{D_p}[f^k] with its standard error.

    Float-valued by design: this is the validation tool for parameter sizes
    beyond exhaustive enumeration, not part of any exact code path.  It
    keeps no sample: the mean and the sum of squared deviations are two
    passes over the same draw, replayed from one generator state.
    """
    if k not in (1, 2, 4):
        raise InputError("k must be 1, 2, or 4")
    if n_samples <= 0:
        raise InputError("need at least one sample")
    state = random.Random(seed).getstate()
    coeffs = [(s, float(c)) for s, c in f.items_sorted()]
    if f.basis is Basis.PHI:
        pos = sqrt(f.p / (1 - f.p))
        neg = -sqrt((1 - f.p) / f.p)
    else:
        pos, neg = 1.0, -1.0

    def values():
        rng = random.Random()
        rng.setstate(state)
        for _ in range(n_samples):
            a = sample(dist, rng)
            point = [pos if v > 0 else neg for v in a]
            total = 0.0
            for s, c in coeffs:
                term = c
                for i in s:
                    term *= point[i - 1]
                total += term
            yield total ** k

    mean = sum(values()) / n_samples
    if n_samples == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values()) / (n_samples - 1)
    return mean, sqrt(var / n_samples)
