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
  - below it, take the kernel step (projection + rounding at p = 1/2, the
    reconstruction scan otherwise) and the exact maximum over feasible
    assignments to the kernel, a bit-sliced walk that adds each term to
    every feasible point at once, on Python-int bit planes with one bit per
    feasible point.

decide runs every layer on one int table, f's numerators over one
denominator keyed by bitmask, from the compile (csp_model._compile) through
the moments (cardinal_dist._chi_mean_variance), the kernel step
(_kernel_step: spectra._project, spectra._residual_norm and
rounding._round_bisection, or rounding._round_global) to the capped walk
(_capped_walk: the enum_cap and kernel_cap checks, then _walk); only the
verdict's scalars are Fractions.  It builds the table's superset sums
(poly.superset_sums) once and hands them to the moments and to the
projection and its residual's norm; the verdict keeps none of them.
Both routes return one rounding.IntOutcome, whose reduced table equals f
on the slice, so the walk's maximum over its kernel is opt itself.
`cardcsp kernel` runs the same _kernel_step on the same compiled table.
The public layer functions (enumerate_kernel here, and to_polynomial,
chi_expectation, chi_variance, project_null, round_bisection and
round_global) are wrappers of the same cores that convert Fractions in and
out.

The factor 4 in the threshold (rather than b*t^2 alone) is what makes the
fourth-moment arithmetic close at exactly t; the fourth-moment constants are
loose, so small instances essentially always take the kernel branch, which
is exact regardless.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from typing import Dict, List, Optional, Tuple

from .cardinal_dist import _chi_mean_variance
from .config import DEFAULT_CONFIG, SolverConfig
from .csp_model import CspInstance, GlobalCardinality, _compile, constraint_count
from .errors import InputError, ResourceError
from .exact import (check_exact, check_positive_int, count_above, number_str, scalar_json,
                    sqrt_upper)
from .poly import (Assignment, MultilinearPoly, chi_numerators, exact_bias, mask_of_set,
                   subset_of, superset_sums)
from .rounding import IntOutcome, _round_bisection, _round_global, check_gamma
from .spectra import _project, _residual_norm


def bisection_fourth_moment_bound(d: int) -> Fraction:
    """b with E_D[g^4] <= b * E_D[g^2]^2 for degree-<=d g at p = 1/2;
    InputError unless d is an int >= 1."""
    d = check_positive_int("d", d)
    return Fraction(12 * d * 9 ** (2 * d))


def general_fourth_moment_bound(d: int, p) -> Fraction:
    """The all-p fourth-moment constant; d^{3/2} is replaced by a rational
    upper bound so the threshold stays exactly comparable (a larger b only
    widens the small-variance branch, which is exact); InputError unless d
    is an int >= 1."""
    d = check_positive_int("d", d)
    p = exact_bias(p)
    ratio = ((1 - p) / p) ** 2 + (p / (1 - p)) ** 2
    d_three_halves = d * sqrt_upper(Fraction(d))
    return 12 * d_three_halves * (256 * ratio ** 2) ** d


def fourth_moment_bound(d: int, p) -> Fraction:
    """b for degree d at bias p, computed once per (d, p): d (an int >= 1)
    and p are checked on every call, the bound only on a cache miss."""
    return _fourth_moment_bound(check_positive_int("d", d), exact_bias(p))


@lru_cache(maxsize=64)
def _fourth_moment_bound(d: int, p: Fraction) -> Fraction:
    if p == Fraction(1, 2):
        return bisection_fourth_moment_bound(d)
    return general_fourth_moment_bound(d, p)


def _check_target(t) -> int:
    """t itself; InputError for anything but an int (a bool included)."""
    if not isinstance(t, int) or isinstance(t, bool):
        raise InputError(f"t must be an int, got {t!r}")
    return t


def certification_threshold(d: int, p, t, mode: str = "paper_safe") -> Fraction:
    """Variance level above which the fourth-moment rule certifies
    OPT >= AVG + t: 4 * b * t^2."""
    if mode != "paper_safe":
        raise InputError(f"unknown threshold mode {mode!r}")
    return 4 * fourth_moment_bound(d, p) * _check_target(t) ** 2


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


def _check_instance(inst: CspInstance, card: GlobalCardinality) -> None:
    """The size match decide and average check before compiling (the
    compile checks the instance itself)."""
    if inst.n != card.n:
        raise InputError("instance and cardinality constraint sizes differ")


def average(inst: CspInstance, card: GlobalCardinality) -> Fraction:
    """AVG: the mean satisfied-constraint count under D_p."""
    _check_instance(inst, card)
    den, table = _compile(inst)
    return _chi_mean_variance(den, superset_sums(table), card, variance=False)[0]


def _feasible_layers(size: int, card: GlobalCardinality) -> range:
    """The -1 counts a kernel of `size` <= n variables can take and still
    extend to the slice: at most p*n entries -1 and at most (1-p)n entries
    +1.  Never empty: size <= n = p*n + (1-p)n."""
    return range(max(0, size - card.num_positive), min(size, card.num_negative) + 1)


# _feasible_planes keeps an entry only up to this many points, 8 KB per
# plane: the corpora's slices have at most 924 points
CACHED_POINTS = 1 << 16


def _build_planes(size: int, layers: range) -> Tuple[int, Tuple[int, ...]]:
    """(points, planes) over the -1 sets of `size` variables whose size lies
    in `layers`, one bit per set: bit x of planes[i] is set where variable
    i is -1 at point x.  Built by Pascal's rule (Knuth, TAOCP 4A 7.2.1.3):
    such sets of m + 1 variables are those of the first m, then those of
    the first m with one member fewer and variable m + 1 added."""
    # rows[k]: (count, planes) of the sets of the first m variables with
    # layers.start - k .. layers.stop - 1 - k members, from the empty set at
    # m = 0.  Only k <= size - m can still reach row 0, and a row past the
    # top layer would need fewer than 0 members: it stays the empty pad.
    rows = [(int(k in layers), ()) for k in range(layers[-1] + 1)]
    for m in range(size):
        rows = [(count + other,
                 tuple(a | b << count for a, b in zip(old, new))
                 + (((1 << other) - 1) << count,))
                for (count, old), (other, new)
                in zip(rows[:size - m], rows[1:] + [(0, (0,) * m)])]
    return rows[0]


_cached_planes = lru_cache(maxsize=64)(_build_planes)


def _feasible_planes(size: int, layers: range) -> Tuple[int, Tuple[int, ...]]:
    """_build_planes(size, layers), cached (the ints depend on size and
    layers alone) when it has at most CACHED_POINTS points, so the cache
    holds at most 64 entries of at most size planes of 8 KB."""
    if sum(comb(size, j) for j in layers) > CACHED_POINTS:
        return _build_planes(size, layers)
    return _cached_planes(size, layers)


def _add_plane(counter: List[int], plane: int, level: int) -> None:
    """Add 2^level at every point of plane to a bit-sliced counter (bit x of
    counter[k] is bit k of point x's count), rippling the carry upward; the
    counter is long enough that the carry never leaves it."""
    while plane:
        counter[level], plane = counter[level] ^ plane, counter[level] & plane
        level += 1


def enumerate_kernel(reduced: MultilinearPoly, kernel, card: GlobalCardinality,
                     base_correction, cap: int = DEFAULT_CONFIG.kernel_cap
                     ) -> Tuple[Fraction, Tuple[int, ...]]:
    """Exact max of reduced + base_correction over feasible kernel
    assignments: (opt, values over sorted(kernel)), ties resolved toward
    the lexicographically smallest assignment (-1 before +1).  Checks
    reduced (a chi polynomial on the slice's n variables that depends only
    on the kernel's), the kernel (a set of the slice's variables) and
    base_correction (an int or Fraction), then walks reduced's int
    numerators with _capped_walk under DEFAULT_CONFIG.enum_cap and the
    kernel cap `cap`.
    """
    den, table = chi_numerators(reduced, card.n, "the reduced polynomial")
    given = tuple(kernel)
    kernel = subset_of(mask_of_set(given, card.n))
    if len(kernel) < len(given):
        raise InputError(f"kernel {given} is not a set of variables in [1..{card.n}]")
    extra = set(reduced.variables_used()) - set(kernel)
    if extra:
        raise InputError(f"reduced polynomial depends on non-kernel variables {sorted(extra)}")
    check_exact("base_correction", base_correction)
    best, arg = _capped_walk(table, kernel, card, DEFAULT_CONFIG.enum_cap, cap)
    return Fraction(best, den) + base_correction, arg


def _capped_walk(table: Dict[int, int], kernel: Tuple[int, ...], card: GlobalCardinality,
                 enum_cap: int, kernel_cap: int) -> Tuple[int, Tuple[int, ...]]:
    """The walk of decide and enumerate_kernel: the kernel's feasible
    layers, then its feasible-point count against enum_cap (count_above,
    which stops summing past the cap) and its size against kernel_cap
    (ResourceError, payload the kernel, before any plane is built), then
    _walk."""
    layers = _feasible_layers(len(kernel), card)
    points = count_above((comb(len(kernel), j) for j in layers), enum_cap)
    if points:
        raise ResourceError(
            f"kernel walk of {points} feasible points exceeds enumeration cap "
            f"{enum_cap}", payload=kernel)
    if len(kernel) > kernel_cap:
        raise ResourceError(f"kernel size {len(kernel)} exceeds cap {kernel_cap}",
                            payload=kernel)
    return _walk(table, kernel, layers)


def _walk(table: Dict[int, int], kernel: Tuple[int, ...],
          layers: range) -> Tuple[int, Tuple[int, ...]]:
    """(best, values over the sorted kernel): the max over the feasible
    points of the int table {mask: c_S} on the kernel's variables, and its
    argument.

    The value at a point with -1 set N is total - 2 sum {c_S : |S n N|
    odd}; the walk finds the N with the least odd sum, bit-sliced (Biham
    1997) over exactly the feasible points: each kernel variable gets one
    int plane with one bit per -1 set of a feasible layer
    (`_feasible_planes`).  A term's parity plane is the XOR of its
    variables' planes, complemented where its coefficient is negative, and
    |c| / g times it, g the terms' gcd, is added to a bit-sliced
    ripple-carry counter, so every point's count is its odd sum over g up
    to a constant.  The least count is
    read from the top counter plane down; a tie goes to the
    lexicographically smallest assignment by a greedy pass over the
    planes, and the winner's value is recomputed from the table.
    """
    total = sum(table.values())
    points, planes = _feasible_planes(len(kernel), layers)
    bits = [1 << (v - 1) for v in kernel]
    plane_of = dict(zip(bits, planes))
    full = (1 << points) - 1
    # the counter only ranks the points: the terms' gcd divides out
    common = gcd(*(c for mask, c in table.items() if mask))
    terms = [(mask, c // common) for mask, c in table.items() if mask]
    counter = [0] * sum(abs(c) for _, c in terms).bit_length()
    for mask, c in terms:
        plane = 0
        while mask:
            plane ^= plane_of[mask & -mask]
            mask &= mask - 1
        if c < 0:
            plane, c = full ^ plane, -c
        for level in range(c.bit_length()):
            if c >> level & 1:
                _add_plane(counter, plane, level)
    least = full
    for digit in reversed(counter):
        if least & ~digit:
            least &= ~digit
    for plane in planes:
        if least & plane:
            least &= plane
    neg_mask = sum(bit for bit, plane in zip(bits, planes) if least & plane)
    best = total - 2 * sum(c for m, c in table.items() if (m & neg_mask).bit_count() & 1)
    return best, tuple(-1 if neg_mask & bit else 1 for bit in bits)


def _kernel_step(den: int, table: Dict[int, int], card: GlobalCardinality,
                 gamma: Fraction, d: int, dense_cap: int,
                 variance: Optional[Fraction] = None,
                 sums: Optional[List[Dict[int, int]]] = None) -> IntOutcome:
    """The one kernel step of decide and `cardcsp kernel`, on f's int
    numerators table / den, as one IntOutcome at every p; sums, when the
    caller has it, is poly.superset_sums(table).  Check gamma
    (check_gamma); at p = 1/2, check project's unknowns
    sum_{k < deg f} C(n, k), the size of its tables on levels < deg f,
    against dense_cap (count_above, which stops summing past the cap;
    ResourceError, payload f, before any work), then project, take the
    residual's norm from the same sums (spectra._residual_norm) and
    _round_bisection; otherwise _round_global, with f's variance unless
    the caller has it."""
    gamma, n = check_gamma(gamma), card.n
    if card.p != Fraction(1, 2):
        if variance is None:
            variance = _chi_mean_variance(den, superset_sums(table) if sums is None else sums,
                                          card)[1]
        return _round_global(den, table, n, card, gamma, d, variance)
    degree = max((mask.bit_count() for mask in table), default=0)
    unknowns = count_above((comb(n, k) for k in range(degree)), dense_cap)
    if unknowns:
        raise ResourceError(
            f"projection with {unknowns} unknowns exceeds dense cap "
            f"{dense_cap}",
            payload=MultilinearPoly.from_numerators(n, den, table))
    if sums is None:
        sums = superset_sums(table)
    y, den_h = _project(sums, den, n, 0)
    return _round_bisection(n, den, table, den_h, y, gamma, d,
                            _residual_norm(table, sums, den, y, den_h))


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
    """Decide whether some valid assignment satisfies >= AVG + t constraints.

    Every layer from the compile to the kernel walk reads one int table,
    f's numerators over one denominator keyed by bitmask: no polynomial
    and no per-coefficient Fraction is built on the way."""
    _check_target(t)
    _check_instance(inst, card)
    if not config.p0 <= card.p <= 1 - config.p0:
        raise InputError(f"p = {number_str(card.p)} outside "
                         f"[{number_str(config.p0)}, {number_str(1 - config.p0)}]")
    den, table = _compile(inst)
    sums = superset_sums(table)
    avg, var = _chi_mean_variance(den, sums, card)
    if t <= 0:
        return Verdict(answer="CertifiedAbove", branch="LargeVariance",
                       avg=avg, variance=var, threshold_used=Fraction(0), t=t,
                       warnings=["t <= 0: OPT >= AVG holds for every instance"])
    threshold = certification_threshold(inst.d, card.p, t)
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
    step = _kernel_step(den, table, card, Fraction(1, 2 ** inst.d), inst.d, config.dense_cap,
                        var, sums)
    if step.residual_above_sqrt_n(card.n):
        warnings.append(
            "projection residual exceeds sqrt(n); the 7^d blow-up bound "
            "is heuristic here")
    kernel = step.kernel
    best, arg = _capped_walk(step.reduced, kernel, card, config.enum_cap, config.kernel_cap)
    opt = Fraction(best, step.den)
    witness = _complete_witness(kernel, arg, card)
    achieved = constraint_count(inst, witness)
    if achieved != opt:
        raise AssertionError(
            f"witness value {achieved} != kernel optimum {opt}; "
            "slice-equivalence of the reduction is broken")
    return Verdict(answer="SolvedExactly", branch="SmallVariance",
                   avg=avg, variance=var, threshold_used=threshold, t=t,
                   opt=opt, witness=witness, kernel=kernel, warnings=warnings)
