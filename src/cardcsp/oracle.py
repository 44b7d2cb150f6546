"""Ground truth by exhaustive enumeration over supp(D_p).

Everything here is deliberately independent of the closed-form machinery in
cardinal_dist/spectra/solver/rounding, none of which it imports: values come
from walking every assignment with exactly p*n entries equal to -1 and
evaluating directly.
The points come in the order of a revolving-door Gray code over the
positions of the -1s (consecutive assignments differ by one +1/-1 swap).
brute_opt and brute_average count each point's satisfied constraints; the
moments read f's value at each point off per-term tables, since a term's
value depends only on how many of its variables are -1: each term keeps
its |S| + 1 values as int numerators over one denominator, and a point
adds one entry per term.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import Dict, Iterator, Optional, Tuple

from .config import DEFAULT_CONFIG
from .csp_model import CspInstance, GlobalCardinality, _check_scopes, _satisfied
from .errors import DegenerateInput, InputError, ResourceError
from .exact import QE, Scalar, make_qe, number_str
from .poly import Assignment, Basis, MultilinearPoly, basis_constants

DEFAULT_ENUM_CAP = DEFAULT_CONFIG.enum_cap


def _revolving_door(n: int, k: int, reverse: bool = False) -> Iterator[Tuple[int, ...]]:
    """All k-subsets of [1..n]; consecutive subsets differ by one swap.
    G(n,k) = G(n-1,k), then reversed(G(n-1,k-1)) each extended by n."""
    if k == 0 or k == n:
        yield tuple(range(1, k + 1))
    elif not reverse:
        yield from _revolving_door(n - 1, k)
        for s in _revolving_door(n - 1, k - 1, True):
            yield s + (n,)
    else:
        for s in _revolving_door(n - 1, k - 1):
            yield s + (n,)
        yield from _revolving_door(n - 1, k, True)


def slice_count(card: GlobalCardinality) -> int:
    return comb(card.n, card.num_negative)


def _check_cap(card: GlobalCardinality, cap: int) -> None:
    total = slice_count(card)
    if total > cap:
        raise ResourceError(f"slice has {number_str(total)} assignments, above cap {cap}")


def _check_walk(inst: CspInstance, card: GlobalCardinality, cap: int) -> None:
    """What brute_opt and brute_average check before they walk the slice."""
    if inst.n != card.n:
        raise InputError("instance and cardinality sizes differ")
    _check_cap(card, cap)
    _check_scopes(inst)


def slice_assignments(card: GlobalCardinality) -> Iterator[Assignment]:
    """Every assignment in supp(D_p), one +-1 swap between neighbors."""
    n = card.n
    values = [1] * n
    current: set = set()
    for subset in _revolving_door(n, card.num_negative):
        new = set(subset)
        for i in current - new:
            values[i - 1] = 1
        for i in new - current:
            values[i - 1] = -1
        current = new
        yield tuple(values)


def _slice_values(f: MultilinearPoly, card: GlobalCardinality
                  ) -> Tuple[int, Fraction, Iterator[Tuple[int, int]]]:
    """(den, r, points): f = (a + b*sqrt(r))/den at each slice point, as
    int pairs (a, b) in slice_assignments' order.  r is the radicand of
    f's irrational values (p(1-p) from the phi point values or from QE
    coefficients), 0 if every value is rational.

    A term c_S is c_S*pos^(|S|-j)*neg^j at a point with j of S's variables
    at -1, so each term keeps its |S| + 1 values over one denominator, and
    a point whose -1 set is N adds, per term, the entry at j = |S & N|."""
    pos, neg, _ = basis_constants(f.basis, f.p)
    values = [(mask, [c * pos ** (mask.bit_count() - j) * neg ** j
                      for j in range(mask.bit_count() + 1)])
              for mask, c in f.coeffs.items()]
    radicands = {x.r for _, row in values for x in row if isinstance(x, QE)}
    if len(radicands) > 1:
        raise InputError("coefficients with more than one radicand")
    r = radicands.pop() if radicands else Fraction(0)
    pairs = [(mask, [(x.a, x.b) if isinstance(x, QE) else (Fraction(x), Fraction(0))
                     for x in row]) for mask, row in values]
    den = lcm(*(x.denominator for _, row in pairs for pair in row for x in pair))
    tables = [(mask, [((a * den).numerator, (b * den).numerator) for a, b in row])
              for mask, row in pairs]

    def points():
        for subset in _revolving_door(card.n, card.num_negative):
            negs = sum(1 << (i - 1) for i in subset)
            a = b = 0
            for mask, table in tables:
                ea, eb = table[(mask & negs).bit_count()]
                a += ea
                b += eb
            yield a, b
    return den, r, points()


def brute_opt(inst: CspInstance, card: GlobalCardinality,
              cap: int = DEFAULT_ENUM_CAP) -> Tuple[int, Assignment]:
    """Exact OPT and the lexicographically smallest argmax."""
    _check_walk(inst, card, cap)
    best: Optional[int] = None
    best_a: Optional[Assignment] = None
    for a in slice_assignments(card):
        v = _satisfied(inst, a)
        if best is None or v > best or (v == best and a < best_a):
            best, best_a = v, a
    return best, best_a


def brute_average(inst: CspInstance, card: GlobalCardinality,
                  cap: int = DEFAULT_ENUM_CAP) -> Fraction:
    """Mean satisfied-constraint count over the slice, exactly."""
    _check_walk(inst, card, cap)
    total = 0
    for a in slice_assignments(card):
        total += _satisfied(inst, a)
    return Fraction(total, slice_count(card))


def brute_force_decision(inst: CspInstance, card: GlobalCardinality, t,
                         cap: int = DEFAULT_ENUM_CAP) -> bool:
    """Whether OPT >= AVG + t, both sides by enumeration."""
    opt, _ = brute_opt(inst, card, cap)
    return opt >= brute_average(inst, card, cap) + t


def brute_moments(f: MultilinearPoly, card: GlobalCardinality, powers,
                  cap: int = DEFAULT_ENUM_CAP) -> Dict[int, Scalar]:
    """Exact E_{D_p}[f^k] for each k in powers (subset of {1,2,4}), one walk."""
    powers = sorted(set(powers))
    if any(k not in (1, 2, 4) for k in powers) or not powers:
        raise InputError("powers must be a nonempty subset of {1, 2, 4}")
    if f.n != card.n:
        raise InputError("dimension mismatch")
    _check_cap(card, cap)
    den, r, points = _slice_values(f, card)
    rn, rd = r.numerator, r.denominator
    s1a = s1b = s2a = s2b = s4a = s4b = 0
    for a, b in points:
        # f^2 = (sq_a + sq_b sqrt r) / (den^2 rd), f^4 over den^4 rd^3
        sq_a = a * a * rd + b * b * rn
        sq_b = 2 * a * b * rd
        s1a += a
        s1b += b
        s2a += sq_a
        s2b += sq_b
        s4a += sq_a * sq_a * rd + sq_b * sq_b * rn
        s4b += 2 * sq_a * sq_b * rd
    count = slice_count(card)
    sums = {1: (s1a, s1b, den), 2: (s2a, s2b, den ** 2 * rd), 4: (s4a, s4b, den ** 4 * rd ** 3)}
    out: Dict[int, Scalar] = {}
    for k in powers:
        sa, sb, scale = sums[k]
        out[k] = make_qe(Fraction(sa, count * scale), Fraction(sb, count * scale), r)
    return out


def brute_moment(f: MultilinearPoly, card: GlobalCardinality, k: int,
                 cap: int = DEFAULT_ENUM_CAP) -> Scalar:
    """Exact E_{D_p}[f^k] for k in {1,2,4}."""
    return brute_moments(f, card, (k,), cap)[k]


def brute_variance(f: MultilinearPoly, card: GlobalCardinality,
                   cap: int = DEFAULT_ENUM_CAP) -> Scalar:
    moments = brute_moments(f, card, (1, 2), cap)
    return moments[2] - moments[1] * moments[1]


def hyper_ratio(f: MultilinearPoly, card: GlobalCardinality,
                cap: int = DEFAULT_ENUM_CAP) -> Tuple[Scalar, Scalar]:
    """(E[f^4]/E[f^2]^2, E[f^4]/||f||_2^4), both exact.

    The first is the fourth-moment ratio the certification rule bounds; the
    second compares against the coefficient norm.  E[f^2] = 0 raises.
    """
    moments = brute_moments(f, card, (2, 4), cap)
    m2 = moments[2]
    if not m2:
        raise DegenerateInput("f vanishes on the slice")
    m4 = moments[4]
    norm4 = f.l2_norm_sq() ** 2
    if not norm4:
        raise DegenerateInput("f is the zero polynomial")
    return m4 / (m2 * m2), m4 / norm4


def restriction_gap(g: MultilinearPoly, card: GlobalCardinality, i: int,
                    cap: int = DEFAULT_ENUM_CAP) -> Scalar:
    """E[g^2 | x_i=+1] - E[g^2 | x_i=-1] over the slice, exactly.

    g must not depend on variable i (it is the spectator coordinate)."""
    if not 1 <= i <= card.n:
        raise InputError("variable index out of range")
    if i in g.variables_used():
        raise InputError(f"g must be independent of variable {i}")
    # reindex: variable j>i of g becomes j-1 on the shrunken slice
    re_coeffs = {tuple(v - 1 if v > i else v for v in s): c
                 for s, c in g.items_sorted()}
    g_sub = MultilinearPoly.from_subsets(card.n - 1, re_coeffs, g.basis, g.p)
    out = []
    for negs in (card.num_negative, card.num_negative - 1):
        if negs < 0 or negs > card.n - 1:
            raise InputError("conditional slice is empty")
        if negs in (0, card.n - 1):
            point = tuple(-1 if negs else 1 for _ in range(card.n - 1))
            v = g_sub.evaluate(point)
            out.append(v * v)
        else:
            sub_card = GlobalCardinality(n=card.n - 1, p=Fraction(negs, card.n - 1))
            out.append(brute_moment(g_sub, sub_card, 2, cap))
    return out[0] - out[1]


def mean_restricted_variance(f: MultilinearPoly, card: GlobalCardinality,
                             cap: int = DEFAULT_ENUM_CAP) -> Fraction:
    """E_Q[Var_D(f_Q)] where Q ranges over all (1-2p)n-subsets pinned to +1
    and D is the bisection slice on the rest.  Chi basis, p <= 1/2."""
    if f.basis is not Basis.CHI:
        raise InputError("chi basis expected")
    q_size = card.target_sum
    if q_size < 0:
        raise InputError("requires p <= 1/2")
    rest = card.n - q_size
    total = Fraction(0)
    count = 0
    for q in combinations(range(1, card.n + 1), q_size):
        f_q = f.restrict({i: 1 for i in q})
        # bisection over the complement; spectator (pinned) coordinates of
        # the slice walk are forced +1 via a shrunken instance
        others = [i for i in range(1, card.n + 1) if i not in q]
        remap = {v: j + 1 for j, v in enumerate(others)}
        re_coeffs = {tuple(sorted(remap[v] for v in s)): c
                     for s, c in f_q.items_sorted()}
        g = MultilinearPoly.from_subsets(rest, re_coeffs, Basis.CHI)
        sub_card = GlobalCardinality(n=rest, p=Fraction(1, 2))
        total += brute_variance(g, sub_card, cap)
        count += 1
    return total / count
