"""The uniform distribution D_p on assignments with exactly p*n entries equal to -1.

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
in spectra.  Their core, _chi_mean_variance, reads f as int numerators over
one denominator and eps_0 .. eps_n as int numerators over another
(_chi_moment_table, cached per (n, pn) on first use), so the mean and the
variance are one Fraction each; chi_expectation and chi_variance are its
wrappers for a MultilinearPoly and a CardinalDist.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import comb, sqrt
from typing import Dict, List, Optional, Tuple

from .csp_model import GlobalCardinality
from .errors import InputError
from .exact import Scalar, _over_common_denominator
from .poly import Assignment, Basis, MultilinearPoly, chi_numerators, exact_bias, phi_square_q


class CardinalDist:
    """D_p with cached moment sequences; immutable after construction."""

    def __init__(self, n: int, p):
        p = exact_bias(p)
        self.card = GlobalCardinality(n=n, p=p)
        self.n = n
        self.p = p
        self.q: Scalar = phi_square_q(p)
        self._delta: List[Scalar] = [Fraction(1)]
        self._eps: List[Fraction] = [Fraction(1)]
        self._pair: dict = {}

    @staticmethod
    def from_card(card: GlobalCardinality) -> "CardinalDist":
        return CardinalDist(card.n, card.p)

    def delta(self, k: int) -> Scalar:
        return extend_slice_sequence(self._delta, k, self.n, q=self.q)[k]

    def chi_moment(self, k: int) -> Fraction:
        """E[chi_S] for |S| = k (rational for every p)."""
        return extend_slice_sequence(self._eps, k, self.n,
                                     shift=(1 - 2 * self.p) * self.n)[k]

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


def extend_slice_sequence(xs: List[Scalar], k: int, n: int, q: Scalar = 0,
                          shift: Scalar = 0, offset: int = 0) -> List[Scalar]:
    """Extend xs = [x_0 = 1, ...] in place through x_k, 0 <= k <= n, by
    j x_{j-1} + ((offset+j) q - shift) x_j + (n-2 offset-j) x_{j+1} = 0:
    delta is offset = shift = 0, eps is q = offset = 0 with shift = (1-2p)n,
    and spectra's alpha_{k,k+i} is shift = 0 with offset = k."""
    if not 0 <= k <= n:
        raise InputError(f"index {k} outside [0..n] with n = {n}")
    while len(xs) <= k:
        j = len(xs) - 1
        prev = xs[j - 1] if j else 0
        xs.append(-(j * prev + ((offset + j) * q - shift) * xs[j]) / (n - 2 * offset - j))
    return xs


def delta_sequence(n: int, p, kmax: int) -> List[Scalar]:
    """delta_0 .. delta_kmax for D_p; requires 0 <= kmax <= n and p*n integral."""
    if not 0 <= kmax <= n:
        raise InputError(f"kmax = {kmax} outside [0..n] with n = {n}")
    return extend_slice_sequence([Fraction(1)], kmax, n, q=CardinalDist(n, p).q)


@lru_cache(maxsize=256)
def _chi_moment_table(n: int, num_negative: int) -> Tuple[int, Tuple[int, ...]]:
    """(den, nums): E[chi_S] = nums[k] / den for |S| = k = 0 .. n on the
    slice of n variables with num_negative entries -1, the eps recurrence
    put over one denominator.  Cached per (n, pn), filled on first use."""
    eps = extend_slice_sequence([Fraction(1)], n, n, shift=n - 2 * num_negative)
    den, nums = _over_common_denominator(eps)
    return den, tuple(nums)


def _chi_mean_variance(den: int, table: Dict[int, int], n: int, num_negative: int,
                       variance: bool = True) -> Tuple[Fraction, Optional[Fraction]]:
    """(E[f], Var(f)) on the slice for the chi polynomial f = table / den
    (int numerators keyed by bitmask), or (E[f], None) without variance.

    E[chi_S] depends on |S| alone, so each a_S goes to the bin popcount(S)
    for the mean; E[f^2] = sum_{S,T} a_S a_T E[chi_{S delta T}], so a_S^2
    goes to bin 0 and 2 a_S a_T to bin popcount(S xor T), with no f*f
    formed.  The bins are weighted by _chi_moment_table's numerators, and
    the mean and the variance are one Fraction each.
    """
    eps_den, eps = _chi_moment_table(n, num_negative)
    first = [0] * (n + 1)
    for mask, a in table.items():
        first[mask.bit_count()] += a
    mean_num = sum(h * eps[j] for j, h in enumerate(first) if h)
    if not variance:
        return Fraction(mean_num, den * eps_den), None
    terms = list(table.items())
    second = [0] * (n + 1)
    for k, (mask, a) in enumerate(terms):
        second[0] += a * a
        twice = 2 * a
        for other, b in terms[k + 1:]:
            second[(mask ^ other).bit_count()] += twice * b
    square_num = sum(h * eps[j] for j, h in enumerate(second) if h)
    scale = den * eps_den
    return (Fraction(mean_num, scale),
            Fraction(square_num * eps_den - mean_num * mean_num, scale * scale))


def chi_expectation(f: MultilinearPoly, dist: CardinalDist) -> Fraction:
    """E_{D_p}[f] for a chi-basis f with rational coefficients."""
    return _chi_mean_variance(*chi_numerators(f, dist.n, "the chi-basis moment"), dist.n,
                              dist.card.num_negative, variance=False)[0]


def chi_variance(f: MultilinearPoly, dist: CardinalDist) -> Fraction:
    """Var_{D_p}(f) for chi-basis f with rational coefficients, binned by
    |S delta T| (_chi_mean_variance).  Agrees exactly with the variance
    form of spectra.quadratic_form_value on the phi-converted polynomial."""
    return _chi_mean_variance(*chi_numerators(f, dist.n, "the chi-basis moment"), dist.n,
                              dist.card.num_negative)[1]


def sample(dist: CardinalDist, seed) -> Assignment:
    """One uniform draw from supp(D_p): a seeded shuffle of the +-1 multiset."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    values = [1] * dist.card.num_positive + [-1] * dist.card.num_negative
    rng.shuffle(values)
    return tuple(values)


def mc_moment(f: MultilinearPoly, dist: CardinalDist, k: int, n_samples: int,
              seed) -> Tuple[float, float]:
    """Monte Carlo estimate of E_{D_p}[f^k] with its standard error.

    Float-valued by design: this is the validation tool for parameter sizes
    beyond exhaustive enumeration, not part of any exact code path.
    """
    if k not in (1, 2, 4):
        raise InputError("k must be 1, 2, or 4")
    if n_samples <= 0:
        raise InputError("need at least one sample")
    rng = random.Random(seed)
    coeffs = [(s, float(c)) for s, c in f.items_sorted()]
    if f.basis is Basis.PHI:
        pos = sqrt(f.p / (1 - f.p))
        neg = -sqrt((1 - f.p) / f.p)
    else:
        pos, neg = 1.0, -1.0
    values = []
    for _ in range(n_samples):
        a = sample(dist, rng)
        point = [pos if v > 0 else neg for v in a]
        total = 0.0
        for s, c in coeffs:
            term = c
            for i in s:
                term *= point[i - 1]
            total += term
        values.append(total ** k)
    mean = sum(values) / n_samples
    if n_samples == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n_samples - 1)
    return mean, sqrt(var / n_samples)
