from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardcsp.cardinal_dist import CardinalDist, chi_variance
from cardcsp.csp_model import Constraint, CspInstance, GlobalCardinality
from cardcsp.errors import DegenerateInput, InputError, ResourceError
from cardcsp.exact import QE, make_qe
from cardcsp.oracle import (_slice_values, brute_average, brute_force_decision,
                            brute_moment, brute_moments, brute_opt, hyper_ratio,
                            mean_restricted_variance, restriction_gap,
                            slice_assignments, slice_count)
from cardcsp.poly import Basis, MultilinearPoly, convert_basis
from cardcsp.spectra import project_null
from cardcsp.solver import bisection_fourth_moment_bound

from conftest import (basis_polys, complete_graph, constraint_poly, evaluate_reference,
                      graph_instance, path_graph, random_poly, slice_pairs_reference,
                      valid_biases)


def test_slice_enumeration_is_gray_coded():
    card = GlobalCardinality(6, F(1, 3))
    seen = list(slice_assignments(card))
    assert len(seen) == len(set(seen)) == slice_count(card) == comb(6, 2)
    for a, b in zip(seen, seen[1:]):
        assert sum(1 for x, y in zip(a, b) if x != y) == 2
    for a in seen:
        assert a.count(-1) == 2


def test_brute_opt_examples():
    card = GlobalCardinality(4, F(1, 2))
    assert brute_opt(complete_graph(4), card)[0] == 4
    opt, arg = brute_opt(path_graph(4), card)
    assert opt == 3
    assert arg.count(-1) == 2
    assert brute_opt(graph_instance(4, []), card)[0] == 0


def test_brute_opt_lex_smallest_argmax():
    # complete graph: every bisection is optimal; (-1,-1,1,1) is lex-least
    card = GlobalCardinality(4, F(1, 2))
    _, arg = brute_opt(complete_graph(4), card)
    assert arg == (-1, -1, 1, 1)


def test_brute_opt_and_brute_average_refuse_a_size_mismatch():
    inst = CspInstance(3, 2, (Constraint((1, 2), frozenset({(1, -1)})),))
    card = GlobalCardinality(4, F(1, 2))
    for brute in (brute_opt, brute_average):
        with pytest.raises(InputError, match="instance and cardinality sizes differ"):
            brute(inst, card)


def test_brute_opt_cap():
    card = GlobalCardinality(20, F(1, 2))
    with pytest.raises(ResourceError):
        brute_opt(complete_graph(20), card, cap=100)


def test_brute_moment_constraint_function_vanishes():
    n, p = 8, F(1, 4)
    card = GlobalCardinality(n, p)
    f = constraint_poly(n, Basis.PHI, p)
    for k in (1, 2, 4):
        assert brute_moment(f, card, k) == 0


def test_brute_moment_pair_is_delta2():
    card = GlobalCardinality(4, F(1, 2))
    f = MultilinearPoly.from_subsets(4, {(1, 2): F(1)}, Basis.PHI, F(1, 2))
    assert brute_moment(f, card, 1) == F(-1, 3)


def test_brute_moment_matches_closed_form(rng):
    from cardcsp.spectra import SetSymmetricForm, quadratic_form_value
    n, p = 9, F(1, 3)
    card = GlobalCardinality(n, p)
    form_a = SetSymmetricForm(n=n, d=2, p=p, kind="A")
    for _ in range(10):
        f = random_poly(rng, n, 2, 6, Basis.PHI, p)
        assert brute_moment(f, card, 2) == quadratic_form_value(form_a, f)


def test_brute_force_decision_examples():
    card = GlobalCardinality(4, F(1, 2))
    assert brute_force_decision(path_graph(4), card, 1) is True
    assert brute_force_decision(complete_graph(4), card, 1) is False
    assert brute_force_decision(complete_graph(4), card, 0) is True


def test_hyper_ratio_constant():
    card = GlobalCardinality(6, F(1, 2))
    f = MultilinearPoly.constant(6, F(2), Basis.PHI, F(1, 2))
    ratio_m2, ratio_norm = hyper_ratio(f, card)
    assert ratio_m2 == 1 and ratio_norm == 1


def test_hyper_ratio_degenerate():
    n, p = 6, F(1, 2)
    card = GlobalCardinality(n, p)
    f = constraint_poly(n, Basis.PHI, p)
    with pytest.raises(DegenerateInput):
        hyper_ratio(f, card)


def test_hyper_ratio_bounded(rng):
    n, d = 10, 2
    bound_half = bisection_fourth_moment_bound(d)
    card = GlobalCardinality(n, F(1, 2))
    dist = CardinalDist(n, F(1, 2))
    worst = F(0)
    for _ in range(15):
        f = random_poly(rng, n, d, 6, Basis.PHI, F(1, 2), include_constant=False)
        g = project_null(f, dist, mode="exact").residual
        if not g.coeffs:
            continue
        ratio_m2, ratio_norm = hyper_ratio(g, card)
        worst = max(worst, ratio_m2)
        assert ratio_m2 <= bound_half
        assert ratio_norm <= F(3, 12) * bound_half  # norm form: 3d 9^{2d} ||g||^4
    assert worst > 0


def test_restriction_gap_examples():
    n, p = 8, F(1, 2)
    card = GlobalCardinality(n, p)
    const = MultilinearPoly.constant(n, F(3), Basis.PHI, p)
    assert restriction_gap(const, card, 1) == 0
    g = MultilinearPoly.from_subsets(n, {(2,): F(1)}, Basis.PHI, p)
    gap = restriction_gap(g, card, 1)
    bound = 3 * 1 / (float(p) * (1 - float(p))) / n ** 0.5
    assert abs(float(gap)) <= bound


def test_restriction_gap_requires_independence():
    n, p = 6, F(1, 2)
    card = GlobalCardinality(n, p)
    g = MultilinearPoly.from_subsets(n, {(1,): F(1)}, Basis.PHI, p)
    with pytest.raises(InputError):
        restriction_gap(g, card, 1)


def test_restriction_gap_scaling(rng):
    # |gap| * sqrt(n) / ||g||^2 stays below the stated constant
    d = 2
    for n, p in ((8, F(1, 2)), (10, F(1, 2)), (12, F(1, 2))):
        card = GlobalCardinality(n, p)
        for _ in range(5):
            f = random_poly(rng, n, d, 5, Basis.PHI, p)
            coeffs = {s: c for s, c in f.items_sorted() if 1 not in s}
            g = MultilinearPoly.from_subsets(n, coeffs, Basis.PHI, p)
            if not g.coeffs:
                continue
            gap = abs(float(restriction_gap(g, card, 1)))
            bound = 3 * d ** 1.5 / (float(p) * (1 - float(p)))
            assert gap * n ** 0.5 <= bound * float(g.l2_norm_sq()) + 1e-12


def test_mean_restricted_variance_inequality(rng):
    # E_Q[Var_D(f_Q)] <= Var_{D_p}(f), exactly, enumerating every Q
    for n, p in ((8, F(1, 4)), (9, F(1, 3))):
        dist = CardinalDist(n, p)
        card = GlobalCardinality(n, p)
        for _ in range(5):
            f = random_poly(rng, n, 2, 6)
            lhs = mean_restricted_variance(f, card)
            rhs = chi_variance(f, dist)
            assert lhs <= rhs


def test_mean_restricted_variance_degenerates_at_half(rng):
    # only Q = {} exists at p = 1/2, so the mean restricted variance IS the
    # slice variance
    n, p = 8, F(1, 2)
    dist = CardinalDist(n, p)
    card = GlobalCardinality(n, p)
    f = random_poly(rng, n, 2, 6)
    assert mean_restricted_variance(f, card) == chi_variance(f, dist)


def test_brute_average_matches_closed_form():
    for n in (4, 6):
        card = GlobalCardinality(n, F(1, 2))
        inst = complete_graph(n)
        expected = (F(1, 2) + F(1, 2 * (n - 1))) * inst.m
        assert brute_average(inst, card) == expected


@st.composite
def slice_walks(draw):
    """A chi or phi polynomial (QE coefficients included) and a slice it
    can be walked on: n in {2, 3, 4, 6, 8}, p from {1/2, 1/3, 1/4}."""
    n = draw(st.sampled_from((2, 3, 4, 6, 8)))
    p = draw(st.sampled_from(valid_biases(n)))
    f = draw(basis_polys(n, draw(st.sampled_from(Basis)), p))
    return f, GlobalCardinality(n, p)


@settings(max_examples=150, deadline=None, database=None)
@given(slice_walks())
def test_slice_walk_matches_two_branch_flip(drawn):
    f, card = drawn
    den, r, points = _slice_values(f, card)
    points = list(points)
    assert type(den) is int and den > 0
    assert all(type(v) is int for pair in points for v in pair)
    assert r in (0, card.p * (1 - card.p))
    walk = [(F(a, den), F(b, den)) for a, b in points]
    assert walk == list(slice_pairs_reference(f, card))


@settings(max_examples=150, deadline=None, database=None)
@given(slice_walks())
def test_brute_moments_are_the_mean_of_pointwise_powers(drawn):
    f, card = drawn
    points = list(slice_assignments(card))
    moments = brute_moments(f, card, (1, 2, 4))
    for k in (1, 2, 4):
        expected = sum((evaluate_reference(f, a) ** k for a in points), F(0)) / len(points)
        assert moments[k] == expected
        assert type(moments[k]) is (QE if isinstance(expected, QE) else F)


def test_brute_moments_keep_the_sqrt_part_of_chi_coefficients():
    # the chi form of a phi polynomial at p = 1/3 has QE coefficients, and its
    # moments keep the sqrt(p(1-p)) part that the phi form's moments have
    n, p = 6, F(1, 3)
    card = GlobalCardinality(n, p)
    f = MultilinearPoly.from_subsets(n, {(1,): F(1), (2, 3): F(2)}, Basis.PHI, p)
    g = convert_basis(f, Basis.CHI)
    assert any(isinstance(c, QE) for _, c in g.items_sorted())
    moments = brute_moments(g, card, (1, 2, 4))
    assert moments == brute_moments(f, card, (1, 2, 4))
    assert isinstance(moments[2], QE) and isinstance(moments[4], QE)
    # sqrt(2) x_1 + sqrt(3) x_2 has no value of the form a + b sqrt(r)
    mixed = MultilinearPoly.from_subsets(4, {(1,): make_qe(0, 1, 2), (2,): make_qe(0, 1, 3)},
                                         Basis.CHI)
    with pytest.raises(InputError, match="more than one radicand"):
        brute_moments(mixed, GlobalCardinality(4, F(1, 2)), (2,))


def test_brute_moments_of_chi_polynomial_are_fractions(rng):
    for n, p in ((8, F(1, 2)), (9, F(1, 3)), (8, F(1, 4))):
        f = random_poly(rng, n, 3, 8)
        moments = brute_moments(f, GlobalCardinality(n, p), (1, 2, 4))
        assert all(type(v) is F for v in moments.values())


def test_slice_cap_message_stays_bounded():
    # C(16000, 8000) has over 4,300 digits: formatting it in the cap message
    # used to raise a bare ValueError instead of the ResourceError
    card = GlobalCardinality(16000, F(1, 2))
    with pytest.raises(ResourceError, match=r"slice has <a number of about \d+ digits>"):
        brute_opt(CspInstance(16000, 1, ()), card)
