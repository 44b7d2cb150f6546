"""The end-to-end decision procedure: variance dichotomy, certification,
kernelization, and exact kernel enumeration.

Given an instance, its cardinality constraint and a target t, compare
Var_{D_p}(f) against 4*b*t^2 where b is the fourth-moment constant
(12*d*9^{2d} under the bisection constraint; 12*d^{3/2}*(256*(((1-p)/p)^2
+ (p/(1-p))^2)^2)^d in general):

  - at or above the threshold, the fourth-moment rule already certifies that
    some valid assignment beats the average by the full standard-deviation
    margin: E[X]=0, E[X^2]=s^2, E[X^4] <= b*s^4 imply X >= s/(2*sqrt(b)) with
    positive probability, and s >= 2*sqrt(b)*t makes that margin at least t;
  - below it, kernelize (projection + rounding at p = 1/2, the reconstruction
    scan otherwise) and take the exact maximum over feasible assignments to
    the kernel, a bit-sliced walk that adds each term to every point of a
    cube of up to 2^16 points at once, on Python-int bit planes.

The factor 4 in the threshold (rather than b*t^2 alone) is what makes the
fourth-moment arithmetic close at exactly t; the fourth-moment constants are
loose, so small instances essentially always take the kernel branch, which
is exact regardless.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations
from math import comb
from operator import and_, or_
from typing import Dict, List, Optional, Tuple

from .cardinal_dist import CardinalDist, chi_expectation, chi_variance
from .config import DEFAULT_CONFIG, SolverConfig
from .csp_model import (CspInstance, GlobalCardinality, constraint_count,
                        to_polynomial, validate_instance)
from .errors import InputError, ResourceError
from .exact import scalar_json, sqrt_upper
from .poly import Assignment, MultilinearPoly, int_numerators
from .rounding import RoundingOutcome, check_gamma, round_bisection, round_global
from .spectra import project_null


def bisection_fourth_moment_bound(d: int) -> Fraction:
    """b with E_D[g^4] <= b * E_D[g^2]^2 for degree-<=d g at p = 1/2."""
    return Fraction(12 * d * 9 ** (2 * d))


def general_fourth_moment_bound(d: int, p) -> Fraction:
    """The all-p fourth-moment constant; d^{3/2} is replaced by a rational
    upper bound so the threshold stays exactly comparable (a larger b only
    widens the small-variance branch, which is exact)."""
    p = Fraction(p)
    ratio = ((1 - p) / p) ** 2 + (p / (1 - p)) ** 2
    d_three_halves = d * sqrt_upper(Fraction(d))
    return 12 * d_three_halves * (256 * ratio ** 2) ** d


def fourth_moment_bound(d: int, p) -> Fraction:
    p = Fraction(p)
    if p == Fraction(1, 2):
        return bisection_fourth_moment_bound(d)
    return general_fourth_moment_bound(d, p)


def certification_threshold(d: int, p, t, mode: str = "paper_safe") -> Fraction:
    """Variance level above which the fourth-moment rule certifies
    OPT >= AVG + t: 4 * b * t^2."""
    if mode != "paper_safe":
        raise InputError(f"unknown threshold mode {mode!r}")
    return 4 * fourth_moment_bound(d, p) * Fraction(t) ** 2


@dataclass
class Verdict:
    answer: str                       # "CertifiedAbove" | "SolvedExactly"
    branch: str                       # "LargeVariance" | "SmallVariance"
    avg: Fraction
    variance: Fraction
    threshold_used: Fraction
    t: int
    opt: Optional[Fraction] = None
    witness: Optional[Assignment] = None
    kernel: Optional[Tuple[int, ...]] = None
    warnings: List[str] = field(default_factory=list)

    @property
    def answer_bool(self) -> bool:
        if self.answer == "CertifiedAbove":
            return True
        return self.opt >= self.avg + self.t

    def as_dict(self) -> dict:
        out = {
            "schema": 1,
            "answer": self.answer,
            "answer_bool": self.answer_bool,
            "branch": self.branch,
            "t": self.t,
            "avg": scalar_json(self.avg),
            "variance": scalar_json(self.variance),
            "threshold": scalar_json(self.threshold_used),
            "warnings": list(self.warnings),
        }
        if self.opt is not None:
            out["opt"] = scalar_json(self.opt)
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.kernel is not None:
            out["kernel"] = list(self.kernel)
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def average(inst: CspInstance, card: GlobalCardinality) -> Fraction:
    """AVG: the mean satisfied-constraint count under D_p."""
    dist = CardinalDist.from_card(card)
    return chi_expectation(to_polynomial(inst), dist)


def instance_variance(inst: CspInstance, card: GlobalCardinality) -> Fraction:
    dist = CardinalDist.from_card(card)
    return chi_variance(to_polynomial(inst), dist)


def _feasible_layers(size: int, card: GlobalCardinality) -> range:
    """The -1 counts a kernel of `size` variables can take and still extend
    to the slice: at most p*n entries -1 and at most (1-p)n entries +1."""
    return range(max(0, size - card.num_positive), min(size, card.num_negative) + 1)


# The kernel walk holds one Python int per low kernel variable, one bit per
# point of the 2^KERNEL_BLOCK cube; a wider kernel is walked one fixed set of
# top variables at a time, so no int grows past 2^16 bits.
KERNEL_BLOCK = 16


@cache
def _cube(b: int) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
    """(full, planes, layers) for the 2^b cube: bit x of full is set for
    every x, bit x of planes[i] is bit i of x, and layers[r] holds the x
    with r bits set, read off a bit-sliced popcount counter of the planes.
    Cached: the ints depend on b alone."""
    full = (1 << (1 << b)) - 1
    planes = tuple(full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
                   for i in range(b))
    counter = [0] * b.bit_length()
    for plane in planes:
        _add_plane(counter, plane, 0)
    return full, planes, tuple(
        reduce(and_, (digit if r >> k & 1 else full ^ digit
                      for k, digit in enumerate(counter)), full)
        for r in range(b + 1))


def _add_plane(counter: List[int], plane: int, level: int) -> None:
    """Add 2^level at every point of plane to a bit-sliced counter (bit x of
    counter[k] is bit k of point x's count), rippling the carry upward; the
    counter is long enough that the carry never leaves it."""
    while plane:
        counter[level], plane = counter[level] ^ plane, counter[level] & plane
        level += 1


def _first_minimum(acc: List[int], points: int, planes: Tuple[int, ...]) -> int:
    """The point of the nonempty set `points` with the least count on the
    bit-sliced counter acc, ties broken toward bit i set for the lowest i."""
    for digit in reversed(acc):
        if points & ~digit:
            points &= ~digit
    for plane in planes:
        if points & plane:
            points &= plane
    return points.bit_length() - 1


def enumerate_kernel(reduced: MultilinearPoly, kernel, card: GlobalCardinality,
                     base_correction, cap: int = DEFAULT_CONFIG.kernel_cap
                     ) -> Tuple[Fraction, Tuple[int, ...]]:
    """Exact max of reduced + base_correction over feasible kernel assignments.

    reduced's coefficients are put over one common denominator as int
    numerators c_S on their bitmask keys, so the value at a point with -1
    set N is total - 2 sum {c_S : |S n N| odd}; the walk finds the N with
    the least odd sum on a bit-sliced cube (Biham 1997).  The
    b = min(|K|, KERNEL_BLOCK) lowest kernel variables get one int plane
    each, bit x set where the variable is -1 at point x of the 2^b cube;
    a bit-sliced popcount counter of those planes gives each -1 layer.  The
    top |K| - b variables are fixed one -1 set at a time (a chunk), with
    only the -1 counts that leave a feasible layer of the cube; fixing them
    folds each c_S into the coefficient of S's low part, negated where
    |S n chunk| is odd.  A term's parity plane is the XOR of its low
    variables' planes, complemented where its coefficient is negative, and
    |c| times it is added to a bit-sliced ripple-carry counter, so every
    point's count is its odd sum up to a constant of the chunk.  The
    least count over the chunk's feasible points is read from the top
    counter plane down.  Returns (opt, values over sorted(kernel)), ties
    resolved toward the lexicographically smallest assignment (-1 before
    +1): the -1 mask that holds the lowest differing bit.  Within a chunk
    that is a greedy pass over the planes, across chunks a comparison of
    each chunk's winner, whose value is recomputed from the int table.
    """
    kernel = tuple(sorted(kernel))
    size = len(kernel)
    if len(set(kernel)) < size or any(not 1 <= v <= reduced.n for v in kernel):
        raise InputError(f"kernel {kernel} is not a set of variables in [1..{reduced.n}]")
    if size > cap:
        raise ResourceError(f"kernel size {size} exceeds cap {cap}",
                            payload=kernel)
    extra = set(reduced.variables_used()) - set(kernel)
    if extra:
        raise InputError(f"reduced polynomial depends on non-kernel variables {sorted(extra)}")
    base_correction = Fraction(base_correction)
    layers = _feasible_layers(size, card)
    if not layers:
        raise InputError("no feasible kernel assignment (inconsistent budgets)")
    den, table = int_numerators(reduced.coeffs, "the reduced polynomial")
    terms = list(table.items())
    total = sum(table.values())
    b = min(size, KERNEL_BLOCK)
    low = [1 << (v - 1) for v in kernel[:b]]
    top = [1 << (v - 1) for v in kernel[b:]]
    full, planes, layer = _cube(b)
    plane_of = dict(zip(low, planes))
    low_mask = sum(low)
    parts: Dict[int, List[Tuple[int, int]]] = {}    # low part -> [(top part, c)]
    for mask, c in terms:
        if mask & low_mask:
            parts.setdefault(mask & low_mask, []).append((mask & ~low_mask, c))
    parity = []
    for part, rest in parts.items():
        plane = 0
        while part:
            plane ^= plane_of[part & -part]
            part &= part - 1
        parity.append((plane, rest))
    best = best_mask = None
    for count in range(max(0, layers.start - b), min(size - b, layers.stop - 1) + 1):
        points = reduce(or_, layer[max(0, layers.start - count):layers.stop - count], 0)
        for chunk in combinations(top, count):
            chunk = sum(chunk)
            weighted = []
            for plane, rest in parity:
                w = sum(-c if (m & chunk).bit_count() & 1 else c for m, c in rest)
                if w:
                    weighted.append((plane if w > 0 else full ^ plane, abs(w)))
            acc = [0] * sum(w for _, w in weighted).bit_length()
            for plane, w in weighted:
                for level in range(w.bit_length()):
                    if w >> level & 1:
                        _add_plane(acc, plane, level)
            x = _first_minimum(acc, points, planes)
            neg_mask = chunk + sum(bit for i, bit in enumerate(low) if x >> i & 1)
            val = total - 2 * sum(c for m, c in terms if (m & neg_mask).bit_count() & 1)
            if best is None or val > best or (
                    val == best and neg_mask & (diff := neg_mask ^ best_mask) & -diff):
                best, best_mask = val, neg_mask
    arg = tuple(-1 if best_mask >> (v - 1) & 1 else 1 for v in kernel)
    return Fraction(best, den) + base_correction, arg


def kernelize(f: MultilinearPoly, dist: CardinalDist, gamma, d: int,
              dense_cap: int, variance: Optional[Fraction] = None
              ) -> Tuple[RoundingOutcome, Fraction]:
    """The kernel step of decide and `cardcsp kernel`: at p = 1/2, check
    project_null's unknowns sum_{k < deg f} C(n, k), the size of its tables
    on levels < deg f, against dense_cap (ResourceError, payload f, before
    any work), project and round_bisection; otherwise round_global.
    Returns the outcome and the base correction that the reduced
    polynomial drops: fhat(0) at p = 1/2, else 0."""
    gamma = check_gamma(gamma)
    if dist.p == Fraction(1, 2):
        unknowns = sum(comb(f.n, k) for k in range(f.degree_bound))
        if unknowns > dense_cap:
            raise ResourceError(
                f"projection with {unknowns} unknowns exceeds dense cap "
                f"{dense_cap}", payload=f)
        proj = project_null(f, dist, mode="exact")
        return (round_bisection(f, proj.h, gamma, d=d, allow_large_residual=True),
                f.coefficient(()))
    return (round_global(f, dist, gamma, d=d, variance=variance,
                         allow_large_variance=True), Fraction(0))


def _complete_witness(kernel: Tuple[int, ...], values: Tuple[int, ...],
                      card: GlobalCardinality) -> Assignment:
    """Extend the kernel assignment with +1s first (smallest free indices)."""
    fixed = dict(zip(kernel, values))
    pos_left = card.num_positive - sum(1 for v in values if v > 0)
    out = []
    for i in range(1, card.n + 1):
        if i in fixed:
            out.append(fixed[i])
        elif pos_left > 0:
            out.append(1)
            pos_left -= 1
        else:
            out.append(-1)
    return tuple(out)


def decide(inst: CspInstance, card: GlobalCardinality, t: int,
           config: SolverConfig = DEFAULT_CONFIG) -> Verdict:
    """Decide whether some valid assignment satisfies >= AVG + t constraints."""
    if not isinstance(t, int) or isinstance(t, bool):
        raise InputError(f"t must be an int, got {t!r}")
    if inst.n != card.n:
        raise InputError("instance and cardinality constraint sizes differ")
    validate_instance(inst)
    if not config.p0 <= card.p <= 1 - config.p0:
        raise InputError(f"p = {card.p} outside [{config.p0}, {1 - config.p0}]")
    f = to_polynomial(inst)
    dist = CardinalDist.from_card(card)
    avg = chi_expectation(f, dist)
    var = chi_variance(f, dist)
    d = max(inst.d, 1)
    if t <= 0:
        return Verdict(answer="CertifiedAbove", branch="LargeVariance",
                       avg=avg, variance=var, threshold_used=Fraction(0), t=t,
                       warnings=["t <= 0: OPT >= AVG holds for every instance"])
    threshold = certification_threshold(d, card.p, t)
    if var >= threshold:
        return Verdict(answer="CertifiedAbove", branch="LargeVariance",
                       avg=avg, variance=var, threshold_used=threshold, t=t)

    warnings: List[str] = []
    if 4 * t ** 4 > card.n:  # t^2 > sqrt(n)/2
        warnings.append(
            f"t^2 = {t * t} exceeds sqrt(n)/2: the rounding norm hypothesis "
            "is not established at this size; results remain exact")
    if card.p != Fraction(1, 2) and var * var > card.n:
        warnings.append(
            "variance exceeds sqrt(n); the kernel-size bound is heuristic here")
    outcome, base_correction = kernelize(f, dist, Fraction(1, 2 ** d), d,
                                         config.dense_cap, variance=var)
    if card.p == Fraction(1, 2) and Fraction(outcome.residual_norm_sq) ** 2 > card.n:
        warnings.append(
            "projection residual exceeds sqrt(n); the 7^d blow-up bound "
            "is heuristic here")
    kernel = tuple(sorted(outcome.active_set))
    points = sum(comb(len(kernel), j) for j in _feasible_layers(len(kernel), card))
    if points > config.enum_cap:
        raise ResourceError(
            f"kernel walk of {points} feasible points exceeds enumeration cap "
            f"{config.enum_cap}", payload=kernel)
    opt, arg = enumerate_kernel(outcome.reduced, kernel, card, base_correction,
                                cap=config.kernel_cap)
    witness = _complete_witness(kernel, arg, card)
    achieved = constraint_count(inst, witness)
    if achieved != opt:
        raise AssertionError(
            f"witness value {achieved} != kernel optimum {opt}; "
            "slice-equivalence of the reduction is broken")
    return Verdict(answer="SolvedExactly", branch="SmallVariance",
                   avg=avg, variance=var, threshold_used=threshold, t=t,
                   opt=opt, witness=witness, kernel=kernel, warnings=warnings)
