"""The uniform distribution D_p on assignments with exactly p*n entries equal to -1.

Moments of basis monomials under D_p are captured by two scalar sequences:

  delta_k = E[phi_S] for |S|=k, from  k*delta_{k-1} + k*q*delta_k + (n-k)*delta_{k+1} = 0
            with delta_0 = 1, delta_1 = 0 and q = (2p-1)/sqrt(p(1-p));
  eps_k   = E[chi_S] for |S|=k, from  k*eps_{k-1} - (1-2p)n*eps_k + (n-k)*eps_{k+1} = 0
            with eps_0 = 1, eps_1 = 1-2p.

Both recurrences follow from E[(sum_i phi_i) * phi_S] = 0 (resp. the chi
analogue with the shifted constraint), since the constraint polynomial
vanishes identically on the support.

E[phi_S phi_T] is NOT delta_{|S delta T|} when S and T overlap at p != 1/2:
each shared index expands by phi_i^2 = q*phi_i + 1, giving

  E[phi_S phi_T] = sum_{j=0}^{c} C(c,j) q^j delta_{u+j},   c=|S^T|, u=|S delta T|.

The moments of an instance are taken in the chi basis, where eps_k is
rational for every p; the pairwise phi moments feed the set-symmetric forms
in spectra.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, sqrt
from typing import List, Tuple

from .csp_model import GlobalCardinality
from .errors import InputError
from .exact import Scalar, _over_common_denominator, make_qe, to_float
from .poly import Assignment, Basis, MultilinearPoly


class CardinalDist:
    """D_p with cached moment sequences; immutable after construction."""

    def __init__(self, n: int, p):
        p = Fraction(p)
        self.card = GlobalCardinality(n=n, p=p)
        self.n = n
        self.p = p
        self.r = p * (1 - p)
        self.q: Scalar = make_qe(0, (2 * p - 1) / self.r, self.r)
        self._delta: List[Scalar] = [Fraction(1), Fraction(0)]
        self._eps: List[Fraction] = [Fraction(1), 1 - 2 * p]
        self._pair: dict = {}

    @staticmethod
    def from_card(card: GlobalCardinality) -> "CardinalDist":
        return CardinalDist(card.n, card.p)

    def delta(self, k: int) -> Scalar:
        if k > self.n:
            raise InputError(f"delta_{k} undefined beyond k = n = {self.n}")
        d = self._delta
        while len(d) <= k:
            j = len(d) - 1  # recurrence at index j yields delta_{j+1}
            d.append(-(j * d[j - 1] + j * self.q * d[j]) / (self.n - j))
        return d[k]

    def chi_moment(self, k: int) -> Fraction:
        """E[chi_S] for |S| = k (rational for every p)."""
        if k > self.n:
            raise InputError(f"chi moment undefined beyond k = n = {self.n}")
        e = self._eps
        shift = (1 - 2 * self.p) * self.n
        while len(e) <= k:
            j = len(e) - 1
            e.append((shift * e[j] - j * e[j - 1]) / (self.n - j))
        return e[k]

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


def delta_sequence(n: int, p, kmax: int) -> List[Scalar]:
    """delta_0 .. delta_kmax for D_p; requires kmax <= n and p*n integral."""
    if kmax > n:
        raise InputError(f"kmax = {kmax} exceeds n = {n}")
    dist = CardinalDist(n, p)
    return [dist.delta(k) for k in range(kmax + 1)]


def _require_chi(f: MultilinearPoly, dist: CardinalDist) -> None:
    if f.basis is not Basis.CHI:
        raise InputError("chi-basis moments expect the chi basis")
    if f.n != dist.n:
        raise InputError("variable counts differ")


def chi_expectation(f: MultilinearPoly, dist: CardinalDist) -> Fraction:
    """E_{D_p}[f] for a chi-basis f, via the rational chi moment sequence."""
    _require_chi(f, dist)
    total = Fraction(0)
    for s, c in f.coeffs.items():
        total += c * dist.chi_moment(len(s))
    return total


def chi_variance(f: MultilinearPoly, dist: CardinalDist) -> Fraction:
    """Var_{D_p}(f) for chi-basis f with rational coefficients.

    E[f^2] = sum_{S,T} a_S a_T eps_{|S delta T|}, so the products are binned
    by |S delta T| instead of forming f*f: with f over one common
    denominator as int numerators keyed by int bitmasks, a_S^2 goes to bin 0
    and 2 a_S a_T to bin popcount(mask_S ^ mask_T); the mean bins a_S by
    |S|.  Agrees exactly with the variance form of
    spectra.quadratic_form_value on the phi-converted polynomial.
    """
    _require_chi(f, dist)
    try:
        den, nums = _over_common_denominator(f.coeffs.values())
    except ValueError as exc:
        raise InputError(f"chi_variance needs rational coefficients: {exc}") from exc
    terms = list(zip((sum(1 << (i - 1) for i in s) for s in f.coeffs), nums))
    first = [0] * (f.degree_bound + 1)
    second = [0] * (min(2 * f.degree_bound, f.n) + 1)
    for k, (mask, a) in enumerate(terms):
        first[mask.bit_count()] += a
        second[0] += a * a
        for other, b in terms[k + 1:]:
            second[(mask ^ other).bit_count()] += 2 * a * b
    mean = Fraction(sum(h * dist.chi_moment(j) for j, h in enumerate(first) if h), den)
    square = sum(h * dist.chi_moment(j) for j, h in enumerate(second) if h)
    return Fraction(square, den * den) - mean * mean


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
    coeffs = [(s, to_float(c)) for s, c in f.items_sorted()]
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
