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
    the kernel.

The factor 4 in the threshold (rather than b*t^2 alone) is what makes the
fourth-moment arithmetic close at exactly t; the fourth-moment constants are
loose, so small instances essentially always take the kernel branch, which
is exact regardless.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import List, Optional, Tuple

from .cardinal_dist import CardinalDist, chi_expectation, chi_variance
from .config import DEFAULT_CONFIG, SolverConfig
from .csp_model import (CspInstance, GlobalCardinality, constraint_count,
                        to_polynomial, validate_instance)
from .errors import InputError, ResourceError
from .exact import _over_common_denominator, fraction_str, sqrt_upper
from .poly import Assignment, MultilinearPoly
from .rounding import (active_bound_constant, gamma_denominator,
                       round_bisection, round_global)
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


def kernel_bound_constant(d: int, p) -> Fraction:
    """C with |kernel| <= C * t^2 on the small-variance branch (loose).

    Bisection: at most d * 7^d * ||residual||^2-blowup * (Gamma_d/gamma)^2
    nonzero coefficients, residual^2 <= 2 Var < 8 b t^2.  General p: the
    active-set guarantee C'_{p,d} * Var / gamma^2 with Var < 4 b t^2."""
    p = Fraction(p)
    gamma = Fraction(1, 2 ** d)
    b = fourth_moment_bound(d, p)
    if p == Fraction(1, 2):
        return d * 7 ** d * 8 * b / gamma ** 2 * gamma_denominator(d) ** 2
    return active_bound_constant(p, d) * 4 * b / gamma ** 2


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
        def num(x):
            return {"exact": fraction_str(x), "approx": float(x)}
        out = {
            "schema": 1,
            "answer": self.answer,
            "answer_bool": self.answer_bool,
            "branch": self.branch,
            "t": self.t,
            "avg": num(self.avg),
            "variance": num(self.variance),
            "threshold": num(self.threshold_used),
            "warnings": list(self.warnings),
        }
        if self.opt is not None:
            out["opt"] = num(self.opt)
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


def enumerate_kernel(reduced: MultilinearPoly, kernel, card: GlobalCardinality,
                     base_correction, cap: int = DEFAULT_CONFIG.kernel_cap
                     ) -> Tuple[Fraction, Tuple[int, ...]]:
    """Exact max of reduced + base_correction over feasible kernel assignments.

    Only feasible points are visited: for each -1 count j in _feasible_layers,
    every j-subset of the kernel takes the value -1.  reduced's coefficients
    are put over one common denominator as int numerators keyed by an int
    bitmask over the kernel, so a term's sign at a point is the parity of
    its mask's overlap with the point's -1 mask.  Returns (opt, values over
    sorted(kernel)), ties resolved toward the lexicographically smallest
    assignment (-1 before +1).
    """
    kernel = tuple(sorted(kernel))
    size = len(kernel)
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
    try:
        den, nums = _over_common_denominator(reduced.coeffs.values())
    except ValueError as exc:
        raise InputError(f"reduced polynomial is not rational: {exc}") from exc
    # Kernel position i is bit size-1-i: between two -1 masks, the larger is
    # the lexicographically smaller assignment.
    bit = {v: 1 << (size - 1 - i) for i, v in enumerate(kernel)}
    terms = [(sum(bit[v] for v in s), c) for s, c in zip(reduced.coeffs, nums)]
    total = sum(c for _, c in terms)
    best = best_mask = None
    for j in layers:
        for negs in combinations(range(size), j):
            neg_mask = sum(1 << b for b in negs)
            val = total - 2 * sum(c for m, c in terms if (m & neg_mask).bit_count() & 1)
            if best is None or val > best or (val == best and neg_mask > best_mask):
                best, best_mask = val, neg_mask
    arg = tuple(-1 if best_mask & bit[v] else 1 for v in kernel)
    return Fraction(best, den) + base_correction, arg


def _check_projection_cap(f: MultilinearPoly, dense_cap: int) -> None:
    """Raise ResourceError (payload: f) if project_null's Gram system, of
    dimension sum_{k < deg f} C(n, k), exceeds dense_cap; call it before
    the projection."""
    gram_dim = sum(comb(f.n, k) for k in range(f.degree_bound))
    if gram_dim > dense_cap:
        raise ResourceError(
            f"projection Gram dimension {gram_dim} exceeds dense cap "
            f"{dense_cap}", payload=f)


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
    gamma = Fraction(1, 2 ** d)
    if card.p == Fraction(1, 2):
        _check_projection_cap(f, config.dense_cap)
        proj = project_null(f, dist, mode="exact")
        if Fraction(proj.residual_norm_sq) ** 2 > card.n:
            warnings.append(
                "projection residual exceeds sqrt(n); the 7^d blow-up bound "
                "is heuristic here")
        outcome = round_bisection(f, proj.h, gamma, d=d, allow_large_residual=True)
        base_correction = f.coefficient(())
    else:
        if var * var > card.n:
            warnings.append(
                "variance exceeds sqrt(n); the kernel-size bound is heuristic here")
        outcome = round_global(f, dist, gamma, d=d, variance=var,
                               allow_large_variance=True)
        base_correction = Fraction(0)
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
