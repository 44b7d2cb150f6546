import random
from dataclasses import fields
from fractions import Fraction as F
from itertools import combinations
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cardcsp.poly as poly
import cardcsp.rounding as rounding
from cardcsp.cardinal_dist import CardinalDist, chi_variance
from cardcsp.csp_model import GlobalCardinality, _compile, to_polynomial
from cardcsp.errors import InputError, PreconditionError
from cardcsp.exact import make_qe
from cardcsp.oracle import slice_assignments
from cardcsp.poly import Basis, MultilinearPoly, int_numerators, mask_of, subset_of
from cardcsp.rounding import (RoundingOutcome, _column, _LevelSolve, _beta_weights, _response,
                              _span_weights, active_bound_constant, gamma_denominator,
                              gamma_ladder, reconstruct_h, round_bisection, round_global)
from cardcsp.solver import _kernel_step
from cardcsp.spectra import project_null

from conftest import (beta_weights_reference, constraint_poly, csp_instances, path_graph,
                      pivot_reference, random_instance, random_poly, reconstruct_h_reference,
                      round_bisection_reference, round_global_scan_reference,
                      survivors_reference, top_active_reference)


def mono(n, subset, c=F(1)):
    return MultilinearPoly.from_subsets(n, {tuple(subset): c})


def test_gamma_ladder_values():
    # d=3, gamma=1/8: weights 2,1,0 -> gamma/3!, gamma/(3!2!), gamma/(3!2!1!)
    ladder = gamma_ladder(3, F(1, 8))
    assert ladder[2] == F(1, 8 * 6)
    assert ladder[1] == F(1, 8 * 12)
    assert ladder[0] == F(1, 8 * 12)
    assert gamma_denominator(3) == 12
    assert gamma_denominator(2) == 2


def test_round_bisection_fixed_point():
    n, d, gamma = 12, 2, F(1, 4)
    dist = CardinalDist(n, F(1, 2))
    constraint = constraint_poly(n, Basis.CHI)
    f = constraint * mono(n, (1,), gamma)
    pr = project_null(f, dist)
    out = round_bisection(f, pr.h, gamma, d=d)
    assert out.h == pr.h
    assert out.norm_blowup == 1
    assert out.active_set == frozenset()
    assert out.reduced.without_constant().coeffs == {}


def test_round_bisection_peels_small_noise():
    # f = (sum x) x1 * gamma + eps * x2x3 with eps below half the granularity:
    # h recovers gamma*x1 and the reduction is exactly the noise term.
    n, d, gamma = 12, 2, F(1, 4)
    dist = CardinalDist(n, F(1, 2))
    constraint = constraint_poly(n, Basis.CHI)
    eps = gamma  # f coefficients must stay multiples of gamma; noise = one extra term
    f = constraint * mono(n, (1,), gamma) + mono(n, (2, 3), eps)
    pr = project_null(f, dist)
    out = round_bisection(f, pr.h, gamma, d=d)
    assert out.h.coefficient((1,)) == gamma
    assert out.reduced.coefficient((2, 3)) == eps
    assert out.active_set == {2, 3}


def test_round_bisection_integrality(rng):
    n, d, gamma = 10, 2, F(1, 4)
    dist = CardinalDist(n, F(1, 2))
    scale = gamma_denominator(d)
    for _ in range(20):
        coeffs = {}
        for _ in range(8):
            s = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, d))))
            coeffs[s] = gamma * rng.randint(-6, 6)
        f = MultilinearPoly.from_subsets(n, coeffs)
        pr = project_null(f, dist)
        out = round_bisection(f, pr.h, gamma, d=d, allow_large_residual=True)
        for c in out.h.coeffs.values():
            assert (c * scale / gamma).denominator == 1
        for s, c in out.reduced.items_sorted():
            if s:
                assert (c * scale / gamma).denominator == 1


def test_round_bisection_blowup_bound(rng):
    # perturbed reducible instances satisfying the residual hypothesis
    n, d, gamma = 12, 2, F(1, 4)
    dist = CardinalDist(n, F(1, 2))
    constraint = constraint_poly(n, Basis.CHI)
    blowups = []
    for _ in range(50):
        h_star = MultilinearPoly.from_subsets(
            n, {(i,): gamma * rng.randint(-2, 2) for i in rng.sample(range(1, n + 1), 3)})
        noise = MultilinearPoly.from_subsets(
            n, {tuple(sorted(rng.sample(range(1, n + 1), 2))): gamma * rng.randint(-1, 1)
                for _ in range(2)})
        f = constraint * h_star + noise
        pr = project_null(f, dist)
        assert F(pr.residual_norm_sq) ** 2 <= n  # hypothesis holds by construction
        out = round_bisection(f, pr.h, gamma, d=d)
        blowups.append(out.norm_blowup)
        assert out.norm_blowup <= 7 ** d
    blowups.sort()
    median = blowups[len(blowups) // 2]
    assert median <= 7 ** d
    print(f"\nround_bisection blow-up: median {float(median):.3f}, "
          f"max {float(max(blowups)):.3f} (bound {7 ** d})")


def test_round_bisection_precondition():
    n, d, gamma = 4, 2, F(1, 4)
    dist = CardinalDist(n, F(1, 2))
    f = mono(n, (1, 2), F(5))   # single heavy pair: residual norm^2 > sqrt(4)
    pr = project_null(f, dist)
    assert F(pr.residual_norm_sq) ** 2 > n
    with pytest.raises(PreconditionError):
        round_bisection(f, pr.h, gamma, d=d)
    out = round_bisection(f, pr.h, gamma, d=d, allow_large_residual=True)
    assert out.reduced is not None


def test_round_bisection_snap_ignores_subgranularity_noise():
    # f = (sum x) x1 + gamma x2 x3 and h_f = x1 plus noise below half of
    # each weight's granularity: the snap recovers h = x1 and the reduction
    # is exactly f's term off the constraint
    n, d, gamma = 12, 2, F(1, 4)
    constraint = constraint_poly(n, Basis.CHI)
    f = constraint * mono(n, (1,)) + mono(n, (2, 3), gamma)
    ladder = gamma_ladder(d, gamma)
    noise = mono(n, (), ladder[0] / 3) + mono(n, (4,), -ladder[1] / 3)
    out = round_bisection(f, mono(n, (1,)) + noise, gamma, d=d, allow_large_residual=True)
    assert dict(out.h.items_sorted()) == {(1,): F(1)}
    assert dict(out.reduced.without_constant().items_sorted()) == {(2, 3): gamma}


def test_round_bisection_slice_equivalence(rng):
    # evaluate(reduced, a) + fhat(0) == evaluate(f, a) on the whole slice
    n, d, gamma = 8, 2, F(1, 4)
    dist = CardinalDist(n, F(1, 2))
    card = GlobalCardinality(n, F(1, 2))
    for _ in range(5):
        coeffs = {tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, d)))):
                  gamma * rng.randint(-6, 6) for _ in range(8)}
        f = MultilinearPoly.from_subsets(n, coeffs)
        pr = project_null(f, dist)
        out = round_bisection(f, pr.h, gamma, d=d, allow_large_residual=True)
        base = f.coefficient(())
        for a in slice_assignments(card):
            assert out.reduced.evaluate(a) + base == f.evaluate(a)


@st.composite
def reductions(draw):
    """decide's kernelization on a random instance at p = 1/2 (n even) or
    p = 1/3 (n a multiple of 3), with decide's gamma, twice: the public
    round_bisection or round_global with the constant a caller adds back to
    its reduced polynomial, and the int kernel step _kernel_step."""
    p = draw(st.sampled_from((F(1, 2), F(1, 3))))
    n = draw(st.sampled_from((2, 4, 6, 8) if p == F(1, 2) else (3, 6)))
    d = draw(st.integers(1, 3))
    inst = draw(csp_instances(n, d))
    f = to_polynomial(inst)
    dist = CardinalDist(n, p)
    gamma = F(1, 2 ** d)
    step = _kernel_step(*_compile(inst), dist, gamma, d, 2000)
    if p == F(1, 2):
        pr = project_null(f, dist)
        out = round_bisection(f, pr.h, gamma, d=d, allow_large_residual=True)
        return f, dist, out.reduced, f.coefficient(()), step
    out = round_global(f, dist, gamma, d=d, allow_large_variance=True)
    return f, dist, out.reduced, F(0), step


@settings(max_examples=150, deadline=None, database=None)
@given(reductions())
def test_reduced_plus_base_correction_equals_f_on_the_slice(drawn):
    # enumerate_kernel maximizes reduced + base_correction over the kernel
    # alone; that is f's maximum over the slice only if the two agree there.
    # The kernel step's reduced table is f on the slice with no correction,
    # and its kernel is the variables that table uses.
    f, card, reduced, base_correction, step = drawn
    step_reduced = MultilinearPoly.from_numerators(f.n, step.den, step.reduced)
    for a in slice_assignments(card):
        assert reduced.evaluate(a) + base_correction == f.evaluate(a)
        assert step_reduced.evaluate(a) == f.evaluate(a)
    assert step.kernel == tuple(sorted(step_reduced.variables_used()))


def test_round_bisection_rejects_non_multiples():
    n = 6
    dist = CardinalDist(n, F(1, 2))
    f = MultilinearPoly.from_subsets(n, {(1, 2): F(1, 3)})
    pr = project_null(f, dist)
    with pytest.raises(InputError):
        round_bisection(f, pr.h, F(1, 4), d=2)


def test_reconstruct_recovers_planted_h():
    n = 10
    constraint = constraint_poly(n, Basis.CHI)
    f = constraint * mono(n, (1,))
    for pool in ((1, 2), (3, 4), (5, 10)):
        assert dict(reconstruct_h(f, pool).items_sorted()) == {(1,): F(1)}
    assert (f - constraint * reconstruct_h(f, (3, 4))).coeffs == {}


def test_reconstruct_poor_candidate_is_outscored():
    # f = x1 x2 alone: cleaning {1,2} is possible but only by activating every
    # other variable, so the scan rejects that candidate.  A pool away from
    # {1,2} reconstructs h = 0 and leaves the two-variable kernel.
    n = 10
    f = mono(n, (1, 2))
    h_bad = reconstruct_h(f, (1, 2))
    reduced_bad = f - constraint_poly(n, Basis.CHI) * h_bad
    assert len(reduced_bad.variables_used()) == n - 2
    assert reconstruct_h(f, (3, 4)).coeffs == {}
    dist = CardinalDist(n, F(1, 2))
    out = round_global(f, dist, F(1, 4), allow_large_variance=True)
    assert out.active_set == {1, 2}
    assert 1 in out.reduced.variables_used()


def test_reconstruct_linearity(rng):
    n = 10
    for _ in range(10):
        f1 = random_poly(rng, n, 2, 5)
        f2 = random_poly(rng, n, 2, 5)
        pool = tuple(sorted(rng.sample(range(1, n + 1), 2)))
        lhs = reconstruct_h(f1 + f2, pool)
        rhs = reconstruct_h(f1, pool) + reconstruct_h(f2, pool)
        assert lhs == rhs


def test_reconstruct_uniqueness_across_pools(rng):
    # any two pools made inactive by one h* reconstruct the same h
    n = 12
    shift = 2
    base = constraint_poly(n, Basis.CHI) - MultilinearPoly.constant(n, shift)
    for _ in range(10):
        h_star = MultilinearPoly.from_subsets(
            n, {(): F(rng.randint(-3, 3)),
                (rng.randint(1, 4),): F(rng.randint(-3, 3), 2),
                (5,): F(rng.randint(-3, 3), 4)})
        g = mono(n, (1, 2), F(1, 2))            # kernel part on {1,2}
        f = g + base * h_star
        h_a = reconstruct_h(f, (6, 7), shift)
        h_b = reconstruct_h(f, (9, 10), shift)
        assert h_a == h_b
        assert h_a == h_star


def test_reconstruct_degree3_planted(rng):
    n, shift = 9, 3
    base = constraint_poly(n, Basis.CHI) - MultilinearPoly.constant(n, shift)
    for _ in range(5):
        coeffs = {}
        for _ in range(4):
            s = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, 2))))
            coeffs[s] = F(rng.randint(-4, 4), rng.randint(1, 2))
        h_star = MultilinearPoly.from_subsets(n, coeffs)
        f = base * h_star
        pool = tuple(sorted(rng.sample(range(1, n + 1), 3)))
        assert reconstruct_h(f, pool, shift) == h_star


def test_round_global_constant_on_support():
    # f = (sum x - shift) x1 + 7 is constant on the slice: empty kernel
    n, p = 9, F(1, 3)
    dist = CardinalDist(n, p)
    shift = dist.target_sum
    base = constraint_poly(n, Basis.CHI) - MultilinearPoly.constant(n, shift)
    f = base * mono(n, (1,)) + MultilinearPoly.constant(n, F(7))
    out = round_global(f, dist, F(1, 4), allow_large_variance=True)
    assert out.active_set == frozenset()
    assert dict(out.reduced.items_sorted()) == {(): F(7)}


def test_round_global_agrees_with_bisection_path(rng):
    n, d, gamma = 10, 2, F(1, 4)
    dist = CardinalDist(n, F(1, 2))
    constraint = constraint_poly(n, Basis.CHI)
    for _ in range(20):
        h_star = MultilinearPoly.from_subsets(
            n, {(i,): gamma * rng.randint(-2, 2) for i in rng.sample(range(1, n + 1), 2)})
        kernel_part = mono(n, (1, 2), gamma * rng.randint(-2, 2))
        f = constraint * h_star + kernel_part
        pr = project_null(f, dist)
        bis = round_bisection(f, pr.h, gamma, d=d, allow_large_residual=True)
        glob = round_global(f, dist, gamma, d=d, allow_large_variance=True)
        assert glob.active_set == bis.active_set


def test_round_global_planted_kernel(rng):
    n, p = 12, F(1, 3)
    dist = CardinalDist(n, p)
    card = GlobalCardinality(n, p)
    shift = dist.target_sum
    base = constraint_poly(n, Basis.CHI) - MultilinearPoly.constant(n, shift)
    gamma = F(1, 4)
    for trial in range(10):
        g = MultilinearPoly.from_subsets(
            n, {tuple(sorted(rng.sample(range(1, 5), rng.randint(1, 2)))):
                gamma * rng.randint(-3, 3) for _ in range(4)})
        h_star = MultilinearPoly.from_subsets(
            n, {tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, 1)))):
                gamma * rng.randint(-2, 2) for _ in range(3)})
        f = g + base * h_star
        out = round_global(f, dist, gamma, d=2, allow_large_variance=True)
        assert out.active_set <= {1, 2, 3, 4}, (trial, sorted(out.active_set))
        for a in slice_assignments(card):
            assert out.reduced.evaluate(a) == f.evaluate(a)


def test_round_global_kernel_bound(rng):
    n, p, d, gamma = 12, F(1, 4), 2, F(1, 4)
    dist = CardinalDist(n, p)
    for _ in range(5):
        coeffs = {tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, d)))):
                  gamma * rng.randint(-2, 2) for _ in range(5)}
        f = MultilinearPoly.from_subsets(n, coeffs)
        var = chi_variance(f, dist)
        out = round_global(f, dist, gamma, d=d, allow_large_variance=True)
        bound = active_bound_constant(p, d) * var / gamma ** 2
        assert len(out.active_set) <= bound


def test_round_global_precondition():
    n, p = 8, F(1, 4)
    dist = CardinalDist(n, p)
    f = MultilinearPoly.from_subsets(n, {(i, j): F(7) for i in range(1, 5) for j in range(5, 9)})
    with pytest.raises(PreconditionError):
        round_global(f, dist, F(1, 4))


def test_round_global_rejects_nonpositive_gamma():
    f = mono(9, (1, 2))
    dist = CardinalDist(9, F(1, 3))
    for gamma in (F(0), F(-1, 4)):
        with pytest.raises(InputError, match="gamma must be positive"):
            round_global(f, dist, gamma, allow_large_variance=True)


def _fail(*args, **kwargs):
    raise AssertionError("reached past the gamma check")


@pytest.mark.parametrize("gamma", [0.25, 0.1, True])
@pytest.mark.parametrize("step", ["round_bisection", "round_global", "kernel_step"])
def test_gamma_must_be_exact(monkeypatch, step, gamma):
    # round_global(..., 0.1) ran with gamma = 3602879701896397/36028797018963968;
    # the kernel step of decide and `cardcsp kernel` checks gamma before its
    # projection starts
    monkeypatch.setattr("cardcsp.solver._project", _fail)
    f = mono(8, (1, 2), F(1, 4))
    calls = {
        "round_bisection": lambda: round_bisection(f, MultilinearPoly.zero(8), gamma,
                                                   allow_large_residual=True),
        "round_global": lambda: round_global(f, CardinalDist(8, F(1, 4)), gamma,
                                             allow_large_variance=True),
        "kernel_step": lambda: _kernel_step(4, {0b11: 1}, GlobalCardinality(8, F(1, 2)),
                                            gamma, 2, 2000),
    }
    with pytest.raises(InputError, match="is not an int or Fraction"):
        calls[step]()


def test_round_global_rejects_negative_variance_and_degree():
    f = mono(9, (1, 2))
    dist = CardinalDist(9, F(1, 3))
    with pytest.raises(InputError, match="variance must be nonnegative"):
        round_global(f, dist, F(1, 4), variance=F(-1))
    with pytest.raises(InputError, match="d must be nonnegative"):
        round_global(f, dist, F(1, 4), d=-1, allow_large_variance=True)


@pytest.mark.parametrize("variance", [0.01, True, "1/2"])
def test_round_global_variance_must_be_exact(variance):
    # each of these used to become a Fraction (0.01's binary value among them)
    f = mono(9, (1, 2))
    with pytest.raises(InputError, match="is not an int or Fraction"):
        round_global(f, CardinalDist(9, F(1, 3)), F(1, 4), variance=variance,
                     allow_large_variance=True)


@pytest.mark.parametrize("value", [1.5, 2.0, F(2), "2", True])
@pytest.mark.parametrize("step, name", [("round_global", "d"), ("round_bisection", "d"),
                                        ("reconstruct_h", "shift")])
def test_kernel_step_wrappers_reject_a_degree_or_shift_that_is_not_an_int(step, name, value):
    # d = 1.5 used to raise a bare TypeError, d = "2" one from a compare,
    # d = True to run as d = 1, and shift = 1.5 a TypeError from the
    # Fraction arithmetic
    f = mono(8, (1, 2), F(1, 4))
    calls = {
        "round_global": lambda: round_global(f, CardinalDist(8, F(1, 4)), F(1, 4), d=value,
                                             allow_large_variance=True),
        "round_bisection": lambda: round_bisection(f, MultilinearPoly.zero(8), F(1, 4),
                                                   d=value, allow_large_residual=True),
        "reconstruct_h": lambda: reconstruct_h(f, (1, 2), shift=value),
    }
    with pytest.raises(InputError, match=f"{name} = .* is not an int"):
        calls[step]()


def test_round_global_rejects_mismatched_sizes():
    # an n = 6 f on the n = 8 slice: with variance given, nothing else would
    # notice, and the scan would run on the other slice's shift
    f = mono(6, (1, 2), F(1, 4))
    for variance in (F(0), None):
        with pytest.raises(InputError, match="variable counts differ"):
            round_global(f, CardinalDist(8, F(1, 4)), F(1, 4), variance=variance)


def test_round_bisection_rejects_negative_degree():
    f = mono(6, (1, 2), F(1, 4))
    h_f = MultilinearPoly.zero(6)
    with pytest.raises(InputError, match="d must be nonnegative"):
        round_bisection(f, h_f, F(1, 4), d=-1, allow_large_residual=True)


def test_round_bisection_rejects_mismatched_sizes():
    # h_f on another space used to be caught only inside the polynomial
    # subtraction that formed the residual
    f = mono(6, (1, 2), F(1, 4))
    for h_f in (MultilinearPoly.zero(8), mono(8, (1,)),
                MultilinearPoly.zero(6, Basis.PHI, F(1, 3))):
        with pytest.raises(InputError, match="h_f's variable count or basis differs"):
            round_bisection(f, h_f, F(1, 4), allow_large_residual=True)


def test_round_bisection_rejects_irrational_f():
    # a QE coefficient used to raise a bare ValueError from exact.as_fraction
    f = MultilinearPoly(6, {0b11: make_qe(0, 1, 2)})
    with pytest.raises(InputError, match=r"f needs rational coefficients.*sqrt\(2\)"):
        round_bisection(f, MultilinearPoly.zero(6), F(1, 4), allow_large_residual=True)


def test_round_bisection_rejects_irrational_h_f():
    # at the parent: "value (17/2 + -1*sqrt(2)) is not rational", a ValueError
    f = mono(6, (1, 2), F(1, 4))
    h_f = MultilinearPoly(6, {1: make_qe(0, 1, 2)})
    with pytest.raises(InputError, match=r"h_f needs rational coefficients.*sqrt\(2\)"):
        round_bisection(f, h_f, F(1, 4), allow_large_residual=True)


@st.composite
def bisection_cases(draw):
    """(f, h_f, d) at p = 1/2, n <= 10, d <= 3, f's coefficients multiples
    of gamma = 1/2^d: h_f is the projection of a counting polynomial, or
    random sub-granular noise on the granularity ladder (exact halves
    included) beside a random f."""
    n = 2 * draw(st.integers(1, 5))
    d = draw(st.integers(1, min(3, n)))
    if draw(st.booleans()):
        f = to_polynomial(draw(csp_instances(n, d)))
        return f, project_null(f, CardinalDist(n, F(1, 2))).h, d
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    # random_poly's denominators divide 12
    f = random_poly(rng, n, d, draw(st.integers(0, 8))).scale(12 * F(1, 2 ** d))
    ladder = gamma_ladder(d, F(1, 2 ** d))
    noise = {}
    for _ in range(draw(st.integers(0, 8))):
        mask = sum(1 << v for v in rng.sample(range(n), rng.randint(0, min(d - 1, n))))
        noise[mask] = ladder[mask.bit_count()] * (rng.randint(-3, 3) + F(rng.randint(-4, 4), 8))
    return f, MultilinearPoly(n, noise), d


@settings(max_examples=150, deadline=None, database=None)
@given(bisection_cases())
def test_round_bisection_matches_fraction_reference(case):
    f, h_f, d = case
    gamma = F(1, 2 ** d)
    out = round_bisection(f, h_f, gamma, d=d, allow_large_residual=True)
    ref = round_bisection_reference(f, h_f, gamma, d)
    for field in fields(RoundingOutcome):
        assert getattr(out, field.name) == getattr(ref, field.name), field.name
    for got, want in ((out.h, ref.h), (out.reduced, ref.reduced)):
        assert [type(c) for c in got.coeffs.values()] == [F] * len(want.coeffs)
    assert type(out.norm_blowup) is F and type(out.residual_norm_sq) is F
    if ref.residual_norm_sq ** 2 > f.n:
        with pytest.raises(PreconditionError):
            round_bisection(f, h_f, gamma, d=d)


def test_kernel_step_adds_no_polynomial_and_forms_no_level_above_deg_f(monkeypatch):
    # project_null and round_bisection reduce on int tables: no polynomial
    # sum (the Fraction route made three), and no up/down entry above deg f
    # (b and every Gram application used to form levels deg f and deg f + 1)
    adds, tops = [], []
    add, flip = MultilinearPoly.__add__, poly._flip_each

    def counting_add(self, other, sign=1):
        adds.append((self, other))
        return add(self, other, sign)

    def recording_flip(table, toggle):
        out = flip(table, toggle)
        tops.append(max((mask.bit_count() for mask in out), default=0))
        return out

    polys = [to_polynomial(random_instance(random.Random(n), n, d, 2 * n))
             for n, d in ((10, 2), (12, 3))]
    monkeypatch.setattr(MultilinearPoly, "__add__", counting_add)
    monkeypatch.setattr(poly, "_flip_each", recording_flip)
    for f, d in zip(polys, (2, 3)):
        assert f.degree_bound == d
        tops.clear()
        proj = project_null(f, CardinalDist(f.n, F(1, 2)))
        out = round_bisection(f, proj.h, F(1, 2 ** d), d=d, allow_large_residual=True)
        assert out.active_set and tops and max(tops) <= d
    assert adds == []


def test_reconstruction_rejects_irrational_coefficients():
    # a QE coefficient (sqrt(2/9) is irrational) has no int numerator
    f = MultilinearPoly.from_subsets(9, {(1, 2): make_qe(0, 1, F(2, 9)), (3,): F(1)})
    dist = CardinalDist(9, F(1, 3))
    with pytest.raises(InputError, match="rational"):
        round_global(f, dist, F(1, 4), variance=F(0))
    with pytest.raises(InputError, match="rational"):
        reconstruct_h(f, (4, 5))


def test_beta_closed_form_matches_recurrence():
    # beta_{D-1,1} = (D-2)!, beta_{D-i-1,i+1} = -i/(D-i-1) beta_{D-i,i}, run
    # on ints with every division checked exact
    assert _beta_weights(1) == []
    for big_d in range(2, 11):
        betas = [factorial(big_d - 2)]
        for i in range(1, big_d - 1):
            quo, rem = divmod(-i * betas[-1], big_d - i - 1)
            assert rem == 0, (big_d, i)
            betas.append(quo)
        closed = _beta_weights(big_d)
        assert all(type(b) is int for b in closed)
        assert closed == betas == beta_weights_reference(big_d)[1:]


@st.composite
def biased_polys(draw):
    """(f, dist, d) at p in {1/3, 1/4}, n <= 9 with pn integral, d <= 3: a
    counting polynomial or small random rational coefficients.  The slice's
    shift (1-2p)n is never 0 here."""
    p = draw(st.sampled_from((F(1, 3), F(1, 4))))
    n = draw(st.sampled_from((3, 6, 9) if p == F(1, 3) else (4, 8)))
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        f = to_polynomial(draw(csp_instances(n, d)))
    else:
        subsets = draw(st.lists(st.frozensets(st.integers(1, n), max_size=d),
                                max_size=8))
        f = MultilinearPoly.from_subsets(n, {tuple(sorted(s)): F(draw(st.integers(-6, 6)),
                                                                 draw(st.integers(1, 4)))
                                             for s in subsets})
    return f, CardinalDist(n, p), d


def _level_scan(f_cur, level):
    _, table = int_numerators({s: c for s, c in f_cur.coeffs.items()
                               if s.bit_count() == level}, "the scan")
    return _LevelSolve(f_cur.n, level, table)


def _int_survivors(f_cur, level):
    # floor -1 never stops a candidate: every count is exact
    scan = _level_scan(f_cur, level)
    return [scan.survivors(mask_of(cand, f_cur.n), -1)
            for cand in combinations(range(1, f_cur.n + 1), level)]


@settings(max_examples=80, deadline=None, database=None)
@given(biased_polys())
def test_int_scan_matches_fraction_scan(drawn):
    f, dist, d = drawn
    gamma = F(1, 2 ** d)
    var = chi_variance(f, dist)
    h_ref, reduced_ref, levels = round_global_scan_reference(f, dist, gamma, d, var)
    shift = dist.target_sum
    for level, f_cur, exit_threshold, winner in levels:
        assert _int_survivors(f_cur, level) == [
            survivors_reference(f_cur, cand, level, shift)
            for cand in combinations(range(1, f.n + 1), level)]
        assert subset_of(_level_scan(f_cur, level).best(exit_threshold)) == winner
    out = round_global(f, dist, gamma, d=d, variance=var, allow_large_variance=True)
    assert out.h == h_ref
    assert out.reduced == reduced_ref
    assert out.active_set == reduced_ref.variables_used()


@settings(max_examples=120, deadline=None, database=None)
@given(biased_polys(), st.data())
def test_int_reconstruct_h_matches_fraction_reconstruction(drawn, data):
    f, dist, d = drawn
    pool = data.draw(st.frozensets(st.integers(1, f.n), min_size=1, max_size=d))
    shift = data.draw(st.sampled_from((0, dist.target_sum, -2, 5)))
    try:
        expected = reconstruct_h_reference(f, pool, shift)
    except InputError:
        with pytest.raises(InputError, match="pivot"):
            reconstruct_h(f, pool, shift)
        return
    assert reconstruct_h(f, pool, shift) == expected


def _weight_one(n, values):
    """(f, slice, d = 1) with weight-1 coefficients values[j] on variable
    j + 1 (None: absent), at p = 1/3."""
    return (MultilinearPoly.from_subsets(n, {(j,): F(v) for j, v in enumerate(values, 1)
                                             if v is not None}), CardinalDist(n, F(1, 3)), 1)


@settings(max_examples=120, deadline=None, database=None)
@given(biased_polys(), st.integers(0, 2), st.integers(1, 9))
# level 1 ties: 1 and 2 are each on three variables, and x1 comes first
@example(_weight_one(9, [1, 2, 1, 2, 3, 3, 1, 2, None]), 0, 9)
# level 1: the four absent variables count as 0, the most common value
@example(_weight_one(9, [1, 1, 2, 2, 1, None, None, None, None]), 0, 9)
# level 1: x2 reaches exit_threshold 3 before the more common 2 is met
@example(_weight_one(9, [5, 1, 1, 1, 2, 2, 2, 2, None]), 0, 3)
def test_best_candidate_matches_reference_loop_at_any_exit_threshold(drawn, pick,
                                                                     exit_threshold):
    # dropping a candidate once it cannot beat the best, the sets that
    # stopped earlier candidates going first, and level 1 in closed form
    # leave the winner as the reference loop's: the first strict maximizer,
    # or the first candidate to reach exit_threshold
    f, dist, d = drawn
    n = f.n
    levels = [w for w in range(1, d + 1) if n >= 2 * w - 1
              and any(s.bit_count() == w for s in f.coeffs)]
    if not levels:
        return
    level = levels[pick % len(levels)]
    exit_threshold = min(exit_threshold, n)
    shift = dist.target_sum
    best_count, winner = -1, None
    for cand in combinations(range(1, n + 1), level):
        count = survivors_reference(f, cand, level, shift)
        if count > best_count:
            best_count, winner = count, cand
            if count >= exit_threshold:
                break
    assert subset_of(_level_scan(f, level).best(exit_threshold)) == winner


def test_scans_of_one_size_share_only_the_unchanging_shape():
    # the second table on the same (n, level) reads responses the first
    # scan cached, which depend on the candidate and the set alone, and
    # still counts and chooses as the reference does
    n, level = 9, 3
    shift = CardinalDist(n, F(1, 3)).target_sum
    rng = random.Random(5)
    f1, f2 = (to_polynomial(random_instance(rng, n, level, 12)) for _ in range(2))
    assert {s for s in f1.coeffs if s.bit_count() == level} - set(f2.coeffs)
    _response.cache_clear()
    _level_scan(f1, level).best(n + 1)
    cached = _response.cache_info()
    assert cached.currsize > 0
    second = _level_scan(f2, level)
    cands = list(combinations(range(1, n + 1), level))
    counts = [survivors_reference(f2, cand, level, shift) for cand in cands]
    assert [second.survivors(mask_of(cand, n), -1) for cand in cands] == counts
    assert subset_of(second.best(n + 1)) == cands[counts.index(max(counts))]
    assert _response.cache_info().hits > cached.hits
    support = second.peel.support
    for cand in cands:
        cand = mask_of(cand, n)
        for u in support:
            if u & cand:
                assert _response(n, cand, u) == _response.__wrapped__(n, cand, u)


# every (n, D >= 2) whose level has at most 64 candidates and a pivot set
PACKED_SHAPES = [(n, big_d) for big_d in (2, 3, 4) for n in range(2 * big_d - 1, 12)
                 if comb(n, big_d) <= 64]


def _level_tables(n, big_d, rng):
    """Weight-D tables of every kind the packed count must read: small
    random entries, sparse and dense; none at all; one value on every set
    (an empty support); one value on every set but one (a peel value that
    is not 0); and entries near 2^70, which need fields wider than 64 bits."""
    sets = [sum(c) for c in combinations([1 << j for j in range(n)], big_d)]
    common = rng.choice((-3, -1, 2, 5))
    odd = rng.choice(sets)
    tables = [{t: rng.randint(-4, 4) for t in rng.sample(sets, min(len(sets), 4))},
              {t: common if rng.random() < 0.7 else rng.randint(-5, 5) for t in sets},
              {},
              {t: common for t in sets},
              {t: common if t != odd else common + rng.choice((-2, 1)) for t in sets},
              {t: rng.choice((-1, 1)) * (2 ** 70 + rng.randint(-9, 9))
               for t in rng.sample(sets, min(len(sets), 5))},
              {t: 2 ** 70 if rng.random() < 0.8 else -(2 ** 70) + rng.randint(-3, 3)
               for t in sets}]
    return [{t: e for t, e in table.items() if e} for table in tables]


@pytest.mark.parametrize("n, big_d", PACKED_SHAPES)
def test_packed_counts_match_the_count_per_candidate(monkeypatch, n, big_d):
    # the packed pass against survivors(c, -1) and the Fraction reference on
    # every candidate, and best on both routes at every exit threshold; the
    # large entries fail a width fixed at 64 bits, and the mixed signs fail
    # a pass without the 2^(width-1) offset
    rng = random.Random(1000 * n + big_d)
    cands = list(combinations(range(1, n + 1), big_d))
    for table in _level_tables(n, big_d, rng):
        scan = _LevelSolve(n, big_d, table)
        f = MultilinearPoly.from_numerators(n, 1, table)
        counts = [scan.survivors(mask_of(cand, n), -1) for cand in cands]
        assert scan.packed_counts() == counts
        assert counts == [survivors_reference(f, cand, big_d, 0) for cand in cands]
        packed = [_LevelSolve(n, big_d, table).best(t) for t in range(1, n + 2)]
        with monkeypatch.context() as m:
            m.setattr(rounding, "_PACKED_CANDIDATES", 0)
            assert [_LevelSolve(n, big_d, table).best(t) for t in range(1, n + 2)] == packed


def test_packed_columns_are_shared_by_the_tables_of_one_size():
    # a second table of one size reads the first table's columns, the cache
    # holds one column per support set and width at most, and a level of
    # more than 64 candidates reads none
    n, big_d = 8, 3
    rng = random.Random(8)
    sets = [sum(c) for c in combinations([1 << j for j in range(n)], big_d)]
    tables = [{t: rng.randint(1, 3) for t in rng.sample(sets, 6)} for _ in range(30)]
    _column.cache_clear()
    _LevelSolve(n, big_d, tables[0]).best(n + 1)
    first = _column.cache_info()
    assert first.misses == first.currsize == 6
    _LevelSolve(n, big_d, {t: e + 1 for t, e in tables[0].items()}).best(n + 1)
    assert _column.cache_info().hits == first.hits + 6
    for table in tables:
        _LevelSolve(n, big_d, table).best(n + 1)
        assert _column.cache_info().currsize <= comb(n, big_d)
    assert _column.cache_info().currsize > 6
    _column.cache_clear()
    big = {t: rng.randint(1, 3) for t in rng.sample(
        [sum(c) for c in combinations([1 << j for j in range(9)], 3)], 12)}
    _LevelSolve(9, 3, big).best(10)
    info = _column.cache_info()
    assert info.hits == info.misses == 0


@pytest.mark.parametrize("n, big_d", [(4, 1), (5, 2), (7, 2), (5, 3), (8, 3), (7, 4), (9, 4)])
def test_responses_list_every_row_whose_span_holds_the_set(n, big_d):
    # the direct enumeration against a loop over all C(n, D-1) rows: a row
    # holds u when u lies inside s1 u P, its weight W[|u n P|]
    bits = [1 << j for j in range(n)]
    rows = [sum(c) for c in combinations(bits, big_d - 1)]
    sets = [sum(c) for c in combinations(bits, big_d)]
    weights = _span_weights(big_d)
    for cand in sets[::3]:
        for u in sets:
            expected = set()
            for s1 in rows:
                pivot = pivot_reference(s1, cand, big_d, n)
                if not u & ~(s1 | pivot):
                    expected.add((s1, weights[(u & pivot).bit_count()]))
            if not u & cand:
                assert not expected
                continue
            entries = _response.__wrapped__(n, cand, u)
            listed = list(zip(entries[::2], entries[1::2]))
            assert len(listed) == len(set(listed)) and set(listed) == expected


@pytest.mark.parametrize("big_d", [2, 3, 4])
def test_a_pool_larger_than_the_weight_solves_as_the_span_sum(big_d):
    # the lower weights of a reconstruction: every row's N(s1) against the
    # sum over the weight-D sets U inside s1 u P, P the row's pivot built
    # from the pool and U weighted W[|U n P|], over all C(n, D-1) rows
    rng = random.Random(big_d)
    weights = _span_weights(big_d)
    for n in range(2 * big_d - 1, 2 * big_d + 2):
        bits = [1 << j for j in range(n)]
        rows = [sum(c) for c in combinations(bits, big_d - 1)]
        sets = [sum(c) for c in combinations(bits, big_d)]
        for size in range(big_d + 1, n + 1):
            for density in (0.3, 0.9):
                pool = sum(rng.sample(bits, size))
                common = rng.randint(-3, 3)
                table = {t: common if rng.random() < 0.7 else rng.randint(-5, 5)
                         for t in sets if rng.random() < density}
                table = {t: e for t, e in table.items() if e}
                expected = {}
                for s1 in rows:
                    pivot = pivot_reference(s1, pool, big_d, n)
                    num = sum(weights[(u & pivot).bit_count()] * e
                              for u, e in table.items() if not u & ~(s1 | pivot))
                    if num:
                        expected[s1] = num
                assert _LevelSolve(n, big_d, table).solve(pool) == expected


def test_best_keeps_the_first_candidate_past_an_unreachable_threshold():
    # on a constant table every candidate leaves all 7 variables inactive;
    # a threshold above n is never reached, and the first candidate, not
    # the last, is the maximizer
    n, level = 7, 3
    table = {sum(c): 5 for c in combinations([1 << j for j in range(n)], level)}
    for exit_threshold in (n, n + 1, n + 5):
        assert _LevelSolve(n, level, table).best(exit_threshold) == 0b111
    scan = _LevelSolve(n, level, table)
    assert scan.survivors(0b111, -1) == n
    assert scan.survivors(0b111, n) is None


@pytest.mark.parametrize("n, level", [(3, 2), (6, 2), (5, 3), (8, 3)])
@pytest.mark.parametrize("value", [1, -4])
def test_a_constant_table_leaves_every_variable_inactive(n, level, value):
    # the peel takes a constant table to an empty support: every candidate
    # keeps all n variables, as the reference counts on the table itself
    table = {sum(c): value for c in combinations([1 << j for j in range(n)], level)}
    scan = _LevelSolve(n, level, table)
    assert scan.peel == (value, {}, 0)
    f = MultilinearPoly.from_numerators(n, 1, table)
    for cand in combinations(range(1, n + 1), level):
        assert scan.survivors(mask_of(cand, n), -1) == n
    assert survivors_reference(f, (1, 2, 3)[:level], level, 0) == n


@st.composite
def peeled_tables(draw):
    """(n, D, table, a): a weight-D int table on n <= 11 variables, mostly
    one repeated value where it is dense, and an int shift a."""
    big_d = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(2 * big_d - 1, 11))
    sets = [sum(c) for c in combinations([1 << j for j in range(n)], big_d)]
    common = draw(st.integers(-3, 3))
    density = draw(st.sampled_from((0.0, 0.5, 0.9, 1.0)))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    table = {t: common for t in sets if rng.random() < density}
    for t in rng.sample(sets, min(len(sets), draw(st.integers(0, 4)))):
        table[t] = draw(st.integers(-4, 4))
    return n, big_d, {t: e for t, e in table.items() if e}, draw(st.integers(-6, 6))


@settings(max_examples=30, deadline=None, database=None)
@given(peeled_tables())
def test_adding_a_constant_to_every_set_changes_no_count(drawn):
    # N is linear in the table and sum_{j in T} N(T - j) = D! on the
    # all-ones table, so E + a (absent sets included) counts as E does,
    # and the top-weight h read off the peel, N' + a (D-1)!, is the
    # reference's on E and moves by a / D on E + a
    n, big_d, table, a = drawn
    shifted = {t: table.get(t, 0) + a
               for t in (sum(c) for c in combinations([1 << j for j in range(n)], big_d))}
    shifted = {t: e for t, e in shifted.items() if e}
    f = MultilinearPoly.from_numerators(n, 1, table)
    scan, scan_shifted = _LevelSolve(n, big_d, table), _LevelSolve(n, big_d, shifted)
    for cand in combinations(range(1, n + 1), big_d):
        h_top = reconstruct_h_reference(f, cand, 0, top_weight_only=True)
        expected = n - len(top_active_reference(f, h_top, big_d, n))
        mask = mask_of(cand, n)
        assert scan.survivors(mask, -1) == scan_shifted.survivors(mask, -1) == expected
        assert MultilinearPoly.from_numerators(n, factorial(big_d), scan.solve(mask)) == h_top
        h_shifted = MultilinearPoly.from_numerators(n, factorial(big_d), scan_shifted.solve(mask))
        assert h_shifted == h_top + MultilinearPoly.from_subsets(
            n, {s: F(a, big_d) for s in combinations(range(1, n + 1), big_d - 1)})


@pytest.mark.parametrize("p", [F(1, 3), F(1, 4)])
def test_round_global_matches_scan_reference_at_n12_d3(p):
    # a kernel part on variables 1..5 (weight-3 terms included) plus
    # (sum x_i - shift) h*: the level-3 scan runs through all 220
    # candidates, and its winner is not the first
    n, d = 12, 3
    rng = random.Random(0)
    dist = CardinalDist(n, p)
    base = constraint_poly(n, Basis.CHI) - MultilinearPoly.constant(n, dist.target_sum)
    g = MultilinearPoly.from_subsets(
        n, {tuple(sorted(rng.sample(range(1, 6), rng.randint(1, 3)))): F(rng.randint(1, 4), 8)
            for _ in range(8)})
    h_star = MultilinearPoly.from_subsets(
        n, {tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, 2)))): F(rng.randint(-3, 3), 4)
            for _ in range(8)})
    f = g + base * h_star
    gamma = F(1, 2 ** d)
    var = chi_variance(f, dist)
    h_ref, reduced_ref, levels = round_global_scan_reference(f, dist, gamma, d, var)
    assert [(level, winner) for level, _, _, winner in levels] == [(3, (6, 7, 8)), (2, (6, 7))]
    out = round_global(f, dist, gamma, d=d, variance=var, allow_large_variance=True)
    assert out.h == h_ref
    assert out.reduced == reduced_ref
    assert out.active_set == reduced_ref.variables_used() == {1, 2, 3, 4, 5}


@st.composite
def bisection_instances(draw):
    """A counting polynomial's instance at p = 1/2: n even, up to 10, d <= 3."""
    n = draw(st.sampled_from((2, 4, 6, 8, 10)))
    return draw(csp_instances(n, draw(st.integers(1, 3))))


@settings(max_examples=100, deadline=None, database=None)
@given(bisection_instances())
def test_projection_and_rounding_report_one_residual(inst):
    # project_null forms the residual only in its wrapper, round_bisection
    # on its own ints: both are f - fhat(0) - (sum x_i) h_f without constant
    f = to_polynomial(inst)
    proj = project_null(f, CardinalDist(inst.n, F(1, 2)))
    out = round_bisection(f, proj.h, F(1, 2 ** inst.d), d=inst.d, allow_large_residual=True)
    assert out.residual_norm_sq == proj.residual_norm_sq == proj.residual.l2_norm_sq()


def test_path_reduces_to_a_constant_term():
    # round_bisection leaves fhat(0) out of a reduction that has a constant of its own
    f = to_polynomial(path_graph(6))
    proj = project_null(f, CardinalDist(6, F(1, 2)))
    out = round_bisection(f, proj.h, F(1, 4), d=2, allow_large_residual=True)
    assert out.reduced.coefficient(()) == F(1, 2) and f.coefficient(()) == F(5, 2)
