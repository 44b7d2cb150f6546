from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardcsp.cardinal_dist import (CardinalDist, chi_expectation, chi_variance,
                                   delta_sequence, mc_moment, sample)
from cardcsp.csp_model import GlobalCardinality, to_polynomial
from cardcsp.errors import InputError
from cardcsp.exact import scalar_sign, sqrt_scalar, to_float
from cardcsp.oracle import brute_moment, brute_variance, slice_assignments
from cardcsp.poly import Basis, MultilinearPoly, convert_basis
from cardcsp.spectra import SetSymmetricForm, constraint_poly, quadratic_form_value
from cardcsp.solver import bisection_fourth_moment_bound

from conftest import csp_instances, random_poly, star_graph


def phi_monomial(n, subset, p):
    return MultilinearPoly(n, {tuple(subset): F(1)}, Basis.PHI, p)


def test_delta_base_values():
    for n, p in ((10, F(1, 2)), (9, F(1, 3)), (8, F(1, 4))):
        seq = delta_sequence(n, p, 3)
        assert seq[0] == 1 and seq[1] == 0
        assert seq[2] == F(-1, n - 1)


def test_delta_recurrence_exact():
    for n, p in ((12, F(1, 2)), (12, F(1, 3)), (10, F(3, 10))):
        dist = CardinalDist(n, p)
        for k in range(1, 7):
            lhs = k * dist.delta(k - 1) + k * dist.q * dist.delta(k) \
                + (n - k) * dist.delta(k + 1)
            assert scalar_sign(lhs) == 0


def test_delta_even_closed_form_at_half():
    # (-1)^i (2i-1)!! / ((n-1)(n-3)...(n-2i+1)) for k = 2i, odd k vanish
    for n in (6, 10, 14):
        dist = CardinalDist(n, F(1, 2))
        for i, dfact in ((1, 1), (2, 3), (3, 15)):
            denom = 1
            for j in range(1, 2 * i, 2):
                denom *= n - j
            assert dist.delta(2 * i) == F((-1) ** i * dfact, denom)
            assert dist.delta(2 * i - 1) == 0


def test_delta_bisection_of_four():
    # E[x1 x2 x3 x4] over the 6 bisections of 4 variables is 1
    assert delta_sequence(4, F(1, 2), 4)[4] == 1


def test_delta_third_value_general_p():
    n, p = 9, F(1, 3)
    dist = CardinalDist(n, p)
    assert dist.delta(3) == 2 * dist.q / ((n - 1) * (n - 2))


def test_delta_kmax_bounds():
    with pytest.raises(InputError):
        delta_sequence(4, F(1, 2), 5)


def test_delta_matches_brute_monomial_mean():
    for n, p in ((8, F(1, 2)), (9, F(1, 3)), (8, F(1, 4))):
        card = GlobalCardinality(n, p)
        dist = CardinalDist(n, p)
        for k in range(0, 6):
            f = phi_monomial(n, range(1, k + 1), p)
            assert dist.delta(k) == brute_moment(f, card, 1)


def test_expectation_maxbisection_avg():
    # AVG = (1/2 + 1/(2(n-1))) m for any graph under the bisection constraint
    for n in (4, 6, 8):
        inst = star_graph(n)
        m = inst.m
        dist = CardinalDist(n, F(1, 2))
        from cardcsp.csp_model import to_polynomial
        f = to_polynomial(inst)
        assert chi_expectation(f, dist) == (F(1, 2) + F(1, 2 * (n - 1))) * m


def test_expectation_constant():
    dist = CardinalDist(6, F(1, 3))
    f = MultilinearPoly.constant(6, F(7, 3))
    assert chi_expectation(f, dist) == F(7, 3)


def test_expectation_matches_brute(rng):
    n, p = 10, F(3, 10)
    dist = CardinalDist(n, p)
    card = GlobalCardinality(n, p)
    f = random_poly(rng, n, 3, 8)
    assert chi_expectation(f, dist) == brute_moment(f, card, 1)


def test_expectation_bias_mismatch():
    # the rational moment route takes chi input of the distribution's size only
    dist = CardinalDist(6, F(1, 3))
    with pytest.raises(InputError):
        chi_expectation(phi_monomial(6, (1,), F(1, 3)), dist)
    with pytest.raises(InputError):
        chi_expectation(MultilinearPoly(5, {(1,): F(1)}), dist)


def test_variance_zero_for_complete_and_star():
    from cardcsp.csp_model import to_polynomial
    from conftest import complete_graph
    for n in (4, 6, 8):
        for inst in (complete_graph(n), star_graph(n)):
            dist = CardinalDist(n, F(1, 2))
            f = to_polynomial(inst)
            assert chi_variance(f, dist) == 0


def test_second_moment_and_variance_match_brute(rng):
    n, p = 8, F(1, 4)
    dist = CardinalDist(n, p)
    card = GlobalCardinality(n, p)
    for _ in range(10):
        f = random_poly(rng, n, 2, 6)
        assert chi_expectation(f * f, dist) == brute_moment(f, card, 2)
        assert chi_variance(f, dist) == brute_variance(f, card)


def test_simplified_second_moment_differs_only_off_half(rng):
    def second_moment(f, p, exact):
        form = SetSymmetricForm(n=n, d=2, p=p, kind="A", exact=exact)
        return quadratic_form_value(form, f)

    n = 8
    f_half = random_poly(rng, n, 2, 6, Basis.PHI, F(1, 2))
    assert second_moment(f_half, F(1, 2), False) == second_moment(f_half, F(1, 2), True)
    p = F(1, 4)
    f = MultilinearPoly(n, {(1,): F(1), (1, 2): F(1)}, Basis.PHI, p)
    assert second_moment(f, p, False) != second_moment(f, p, True)


def test_null_space_identities(rng):
    # E[(sum x_i - (1-2p)n) g] = 0 and Var(c + (sum x_i - (1-2p)n) h) = 0,
    # exactly; in the phi basis the variance form vanishes on c + (sum phi_i) h
    for n, p in ((8, F(1, 4)), (9, F(1, 3)), (10, F(1, 2))):
        dist = CardinalDist(n, p)
        constraint = constraint_poly(n, Basis.CHI) - dist.card.target_sum
        phi_constraint = constraint_poly(n, Basis.PHI, p)
        form_b = SetSymmetricForm(n=n, d=3, p=p, kind="B", dist=dist)
        for _ in range(10):
            g = random_poly(rng, n, 2, 5)
            assert chi_expectation(constraint * g, dist) == 0
            assert chi_variance(constraint * g + F(3, 7), dist) == 0
            h = random_poly(rng, n, 2, 5, Basis.PHI, p)
            assert scalar_sign(quadratic_form_value(form_b, phi_constraint * h + F(3, 7))) == 0


def test_chi_route_agrees_with_phi_route(rng):
    for n, p in ((8, F(1, 4)), (9, F(1, 3))):
        dist = CardinalDist(n, p)
        f = random_poly(rng, n, 3, 8)
        g = convert_basis(f, Basis.PHI, p)
        form_a = SetSymmetricForm(n=n, d=3, p=p, kind="A", dist=dist)
        form_b = SetSymmetricForm(n=n, d=3, p=p, kind="B", dist=dist)
        assert chi_expectation(f * f, dist) == quadratic_form_value(form_a, g)
        assert chi_variance(f, dist) == quadratic_form_value(form_b, g)


def test_sample_counts_and_determinism():
    dist = CardinalDist(6, F(1, 3))
    a = sample(dist, 42)
    assert a.count(-1) == 2 and a.count(1) == 4
    assert sample(dist, 42) == a
    assert sample(dist, 43) != a or True  # different seed may coincide; no assert on inequality
    dist4 = CardinalDist(4, F(1, 2))
    options = set(slice_assignments(dist4.card))
    assert sample(dist4, 0) in options and len(options) == 6


def test_sample_uniformity():
    import random as _random
    dist = CardinalDist(6, F(1, 2))
    trials = 100_000
    counts = {}
    rng = _random.Random(7)
    for _ in range(trials):
        a = sample(dist, rng)
        counts[a] = counts.get(a, 0) + 1
    assert len(counts) == comb(6, 3) == 20
    for a, c in counts.items():
        assert abs(c / trials - 0.05) < 0.005, (a, c)


def test_mc_moment_constant_exact():
    dist = CardinalDist(6, F(1, 2))
    f = MultilinearPoly.constant(6, F(3, 2))
    for k in (1, 2, 4):
        est, err = mc_moment(f, dist, k, 100, 0)
        assert est == float(F(3, 2) ** k)
        assert err == 0.0


def test_mc_moment_consistency(rng):
    n, p = 30, F(1, 2)
    dist = CardinalDist(n, p)
    f = random_poly(rng, n, 2, 10, include_constant=False)
    exact = to_float(chi_expectation(f * f, dist))
    est, err = mc_moment(f, dist, 2, 4000, 11)
    assert abs(est - exact) <= 4 * max(err, 1e-12)


def test_mc_moment_fourth_power_bound(rng):
    n, p, d = 30, F(1, 2), 2
    dist = CardinalDist(n, p)
    bound = float(bisection_fourth_moment_bound(d))
    f = random_poly(rng, n, d, 10, include_constant=False)
    m2 = to_float(chi_expectation(f * f, dist))
    est, _ = mc_moment(f, dist, 4, 3000, 13)
    assert est <= bound * m2 * m2


def test_mc_moment_input_errors():
    dist = CardinalDist(6, F(1, 2))
    f = MultilinearPoly.constant(6, F(1))
    with pytest.raises(InputError):
        mc_moment(f, dist, 3, 10, 0)
    with pytest.raises(InputError):
        mc_moment(f, dist, 2, 0, 0)


def _chi_variance_reference(f, dist):
    """The route chi_variance replaced: square f as a polynomial."""
    mean = chi_expectation(f, dist)
    return chi_expectation(f * f, dist) - mean * mean


@st.composite
def counting_polys(draw):
    """The counting polynomial of a random CSP at p in {1/2, 1/3}, n <= 9."""
    p = draw(st.sampled_from((F(1, 2), F(1, 3))))
    n = p.denominator * draw(st.integers(1, 4 if p == F(1, 2) else 3))
    inst = draw(csp_instances(n, draw(st.integers(1, 3))))
    return to_polynomial(inst), CardinalDist(n, p)


@settings(max_examples=200, deadline=None, database=None)
@given(counting_polys())
def test_chi_variance_matches_squaring_reference(case):
    f, dist = case
    assert chi_variance(f, dist) == _chi_variance_reference(f, dist)


def test_chi_variance_mixed_denominators_match_reference(rng):
    for p in (F(1, 2), F(1, 3)):
        dist = CardinalDist(6, p)
        for _ in range(10):
            f = random_poly(rng, 6, 3, 8)   # denominators 1..4
            assert chi_variance(f, dist) == _chi_variance_reference(f, dist)


def test_chi_variance_rejects_irrational_coefficient():
    f = MultilinearPoly(4, {(1,): sqrt_scalar(F(2)), (2, 3): F(1)})
    with pytest.raises(InputError, match="rational"):
        chi_variance(f, CardinalDist(4, F(1, 2)))
