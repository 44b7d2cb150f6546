"""Ground truth by exhaustive enumeration over supp(D_p).

Everything here is deliberately independent of the closed-form machinery in
cardinal_dist/spectra/solver: values come from walking every assignment with
exactly p*n entries equal to -1 and evaluating directly.  The walk uses a
revolving-door Gray code over the positions of the -1s, so consecutive
assignments differ by one +1/-1 swap and polynomial values update
incrementally (two coordinate flips per step).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Dict, Iterator, List, Optional, Tuple

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


class _IncrementalEval:
    """Tracks f's value along single-coordinate flips.

    Values live in Q[sqrt(r)] and are carried as (a, b) Fraction pairs with
    a fixed radicand (inline pair arithmetic is several times faster than
    generic scalar objects in this hot loop).  Flipping a member variable
    scales a term by the rational ratio of the basis function's two point
    values (-1 for chi).  Exact throughout.
    """

    def __init__(self, f: MultilinearPoly, start: Assignment):
        pos, neg, _ = basis_constants(f.basis, f.p)
        self.flip_to_neg = neg / pos
        self.flip_to_pos = pos / neg
        self.by_var: Dict[int, List[int]] = {}
        zero = Fraction(0)
        self.terms: List[list] = []
        val_a, val_b = zero, zero
        for idx, (s, c) in enumerate(f.items_sorted()):
            restricted = MultilinearPoly.from_subsets(f.n, {s: c}, f.basis, f.p)
            term = restricted.evaluate(start)
            if isinstance(term, QE):
                pair = [term.a, term.b]
            else:
                pair = [Fraction(term), zero]
            self.terms.append(pair)
            for i in s:
                self.by_var.setdefault(i, []).append(idx)
            val_a += pair[0]
            val_b += pair[1]
        self.value_pair = [val_a, val_b]

    def flip(self, var: int, now_positive: bool) -> None:
        idxs = self.by_var.get(var)
        if not idxs:
            return
        value = self.value_pair
        ratio = self.flip_to_pos if now_positive else self.flip_to_neg
        delta = ratio - 1
        for idx in idxs:
            pair = self.terms[idx]
            a, b = pair
            value[0] += delta * a
            value[1] += delta * b
            pair[0], pair[1] = ratio * a, ratio * b


def _slice_pairs(f: MultilinearPoly, card: GlobalCardinality):
    """(a, b) value pairs of f at every slice point (incremental updates)."""
    n = card.n
    first = True
    current: set = set()
    evaluator = None
    for subset in _revolving_door(n, card.num_negative):
        new = set(subset)
        if first:
            start = tuple(-1 if i + 1 in new else 1 for i in range(n))
            evaluator = _IncrementalEval(f, start)
            first = False
        else:
            for i in current - new:
                evaluator.flip(i, True)
            for i in new - current:
                evaluator.flip(i, False)
        current = new
        yield evaluator.value_pair


def brute_opt(inst: CspInstance, card: GlobalCardinality,
              cap: int = DEFAULT_ENUM_CAP) -> Tuple[int, Assignment]:
    """Exact OPT and the lexicographically smallest argmax."""
    if inst.n != card.n:
        raise InputError("instance and cardinality sizes differ")
    _check_cap(card, cap)
    _check_scopes(inst)
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
    _check_cap(card, cap)
    _check_scopes(inst)
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
    zero = Fraction(0)
    r = Fraction(0) if f.basis is Basis.CHI else f.p * (1 - f.p)
    sums = {k: [zero, zero] for k in powers}
    want1, want2, want4 = (1 in powers), (2 in powers), (4 in powers)
    for a, b in _slice_pairs(f, card):
        if want1:
            acc = sums[1]
            acc[0] += a
            acc[1] += b
        if want2 or want4:
            # (a + b sqrt r)^2 = (a^2 + b^2 r) + (2ab) sqrt r
            sq_a = a * a + b * b * r
            sq_b = 2 * a * b
            if want2:
                acc = sums[2]
                acc[0] += sq_a
                acc[1] += sq_b
            if want4:
                acc = sums[4]
                acc[0] += sq_a * sq_a + sq_b * sq_b * r
                acc[1] += 2 * sq_a * sq_b
    count = slice_count(card)
    out: Dict[int, Scalar] = {}
    for k, (sa, sb) in sums.items():
        out[k] = make_qe(sa / count, sb / count, r) if sb else sa / count
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
