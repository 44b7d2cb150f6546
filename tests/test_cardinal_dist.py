import dataclasses
from fractions import Fraction as F
from math import comb
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cardcsp
from cardcsp import cardinal_dist
from cardcsp.cardinal_dist import (CardinalDist, _chi_mean_variance, _chi_moment_table,
                                   chi_expectation, chi_variance, delta_sequence, mc_moment,
                                   sample)
from cardcsp.csp_model import GlobalCardinality, to_polynomial
from cardcsp.errors import InputError
from cardcsp.exact import sqrt_scalar
from cardcsp.oracle import brute_moment, brute_variance, slice_assignments
from cardcsp.poly import Basis, MultilinearPoly, convert_basis, superset_sums
from cardcsp.spectra import SetSymmetricForm, alpha_table, quadratic_form_value
from cardcsp.solver import bisection_fourth_moment_bound

from conftest import (chi_mean_variance_reference, constraint_poly, csp_instances,
                      random_instance, random_poly, seeded_int_table, star_graph)


def phi_monomial(n, subset, p):
    return MultilinearPoly.from_subsets(n, {tuple(subset): F(1)}, Basis.PHI, p)


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
            assert lhs == 0


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
        chi_expectation(MultilinearPoly.from_subsets(5, {(1,): F(1)}), dist)


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
    f = MultilinearPoly.from_subsets(n, {(1,): F(1), (1, 2): F(1)}, Basis.PHI, p)
    assert second_moment(f, p, False) != second_moment(f, p, True)


def test_null_space_identities(rng):
    # E[(sum x_i - (1-2p)n) g] = 0 and Var(c + (sum x_i - (1-2p)n) h) = 0,
    # exactly; in the phi basis the variance form vanishes on c + (sum phi_i) h
    for n, p in ((8, F(1, 4)), (9, F(1, 3)), (10, F(1, 2))):
        dist = CardinalDist(n, p)
        constraint = constraint_poly(n, Basis.CHI) - dist.target_sum
        phi_constraint = constraint_poly(n, Basis.PHI, p)
        form_b = SetSymmetricForm(n=n, d=3, p=p, kind="B")
        for _ in range(10):
            g = random_poly(rng, n, 2, 5)
            assert chi_expectation(constraint * g, dist) == 0
            assert chi_variance(constraint * g + F(3, 7), dist) == 0
            h = random_poly(rng, n, 2, 5, Basis.PHI, p)
            assert quadratic_form_value(form_b, phi_constraint * h + F(3, 7)) == 0


def test_chi_route_agrees_with_phi_route(rng):
    for n, p in ((8, F(1, 4)), (9, F(1, 3))):
        dist = CardinalDist(n, p)
        f = random_poly(rng, n, 3, 8)
        g = convert_basis(f, Basis.PHI, p)
        form_a = SetSymmetricForm(n=n, d=3, p=p, kind="A")
        form_b = SetSymmetricForm(n=n, d=3, p=p, kind="B")
        assert chi_expectation(f * f, dist) == quadratic_form_value(form_a, g)
        assert chi_variance(f, dist) == quadratic_form_value(form_b, g)


def test_sample_counts_and_determinism():
    dist = CardinalDist(6, F(1, 3))
    a = sample(dist, 42)
    assert a.count(-1) == 2 and a.count(1) == 4
    assert sample(dist, 42) == a
    assert sample(dist, 43) != a or True  # different seed may coincide; no assert on inequality
    dist4 = CardinalDist(4, F(1, 2))
    options = set(slice_assignments(dist4))
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
    exact = float(chi_expectation(f * f, dist))
    est, err = mc_moment(f, dist, 2, 4000, 11)
    assert abs(est - exact) <= 4 * max(err, 1e-12)


def test_mc_moment_fourth_power_bound(rng):
    n, p, d = 30, F(1, 2), 2
    dist = CardinalDist(n, p)
    bound = float(bisection_fourth_moment_bound(d))
    f = random_poly(rng, n, d, 10, include_constant=False)
    m2 = float(chi_expectation(f * f, dist))
    est, _ = mc_moment(f, dist, 4, 3000, 13)
    assert est <= bound * m2 * m2


def test_mc_moment_pinned_at_a_third():
    # mc_moment sums its float terms in items_sorted() order; these floats
    # pin that order, down to the last digit of the standard error
    f = to_polynomial(random_instance(random.Random(5), 9, 3, 12))
    dist = CardinalDist(9, F(1, 3))
    g = convert_basis(f, Basis.PHI, F(1, 3))
    assert mc_moment(f, dist, 4, 200, 31) == (2308.58, 216.74156812843705)
    assert mc_moment(g, dist, 4, 200, 31) == (2308.58, 216.74156812843702)
    assert mc_moment(g, dist, 2, 200, 31) == (38.6, 2.028218021246372)


def _slice_sequences_reference(n, p, d):
    """delta, eps and the alpha table as three hand-written recurrences."""
    q = CardinalDist(n, p).q
    delta, eps, shift = [F(1), F(0)], [F(1), 1 - 2 * p], (1 - 2 * p) * n
    for j in range(1, n):
        delta.append(-(j * delta[j - 1] + j * q * delta[j]) / (n - j))
        eps.append((shift * eps[j] - j * eps[j - 1]) / (n - j))
    alpha = {}
    for k in range(d + 1):
        alpha[(k, k)] = F(1)
        prev, cur = F(0), F(1)
        for i in range(d - k):
            nxt = -(i * prev + (k + i) * q * cur) / (n - 2 * k - i)
            alpha[(k, k + i + 1)] = nxt
            prev, cur = cur, nxt
    return delta[:n + 1], eps[:n + 1], alpha


@pytest.mark.parametrize("p", [F(1, 2), F(1, 3), F(1, 4), F(2, 5), F(3, 4), F(1, 6)])
def test_one_recurrence_gives_the_three_slice_sequences(p):
    for n in range(p.denominator, 25, p.denominator):
        dist = CardinalDist(n, p)
        delta, eps, alpha = _slice_sequences_reference(n, p, (n - 1) // 2)
        for got, want in ((dist.delta, delta), (dist.chi_moment, eps)):
            values = [got(k) for k in range(n + 1)]
            assert values == want
            assert [type(v) for v in values] == [type(v) for v in want]
        table = alpha_table(n, p, (n - 1) // 2).values
        assert table == alpha
        assert {k: type(v) for k, v in table.items()} == \
            {k: type(v) for k, v in alpha.items()}


def test_slice_sequences_reject_a_negative_index():
    dist = CardinalDist(6, F(1, 2))
    with pytest.raises(InputError):
        dist.delta(-1)
    with pytest.raises(InputError):
        dist.chi_moment(-2)
    with pytest.raises(InputError, match="kmax"):
        delta_sequence(6, F(1, 2), -1)


def test_mc_moment_keeps_no_sample():
    # the samples are drawn twice from one generator state, not stored: a
    # list of 20,000 floats alone would trace 160 kB
    f = MultilinearPoly.from_subsets(6, {(1,): F(1), (2, 3): F(-2)})
    tracemalloc.start()
    try:
        mc_moment(f, CardinalDist(6, F(1, 2)), 2, 20000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000


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


@pytest.mark.parametrize("p", [F(1, 2), F(1, 3), F(1, 4), F(2, 5)])
def test_moments_from_superset_sums_match_the_pair_binning(p):
    # every n <= 20 with p n integral and deg f <= 4, so n < 2 deg f too;
    # the weights read eps only up to min(2 deg f, n), 0 past it
    rng = random.Random(f"moments:{p}")
    for n in range(p.denominator, 21, p.denominator):
        card = CardinalDist(n, p)
        for degree in range(min(4, n) + 1):
            for _ in range(3):
                table, den = seeded_int_table(rng, n, degree), rng.randint(1, 12)
                want = chi_mean_variance_reference(den, table, card)
                sums = superset_sums(table)
                assert _chi_mean_variance(den, sums, card) == want, (n, degree, table)
                assert _chi_mean_variance(den, sums, card, variance=False) == (want[0], None)


def test_chi_variance_rejects_irrational_coefficient():
    f = MultilinearPoly.from_subsets(4, {(1,): sqrt_scalar(F(2)), (2, 3): F(1)})
    with pytest.raises(InputError, match="rational"):
        chi_variance(f, CardinalDist(4, F(1, 2)))


@pytest.mark.parametrize("n, p", [(8, 0.25), (10, 0.1)])
def test_cardinal_dist_rejects_float_p(n, p):
    # (8, 0.25) used to build the slice at p = 1/4, and (10, 0.1) failed
    # with "p*n = 18014398509481985/18014398509481984 is not an integer"
    with pytest.raises(InputError, match=f"p = {p} is not an int or Fraction"):
        CardinalDist(n, p)


def _chi_moment_closed_form(n, negatives, k):
    """E[chi_S] for |S| = k: the -1 count of S is hypergeometric, so the
    mean is [z^k] (1+z)^(n-pn) (1-z)^pn / C(n, k)."""
    return F(sum((-1) ** j * comb(negatives, j) * comb(n - negatives, k - j)
                 for j in range(k + 1)), comb(n, k))


def test_chi_moment_table_matches_the_closed_form():
    for n in range(1, 31):
        for negatives in range(1, n):
            want = [_chi_moment_closed_form(n, negatives, k) for k in range(n + 1)]
            den, nums = _chi_moment_table(n, negatives, n)
            assert type(den) is int and all(type(num) is int for num in nums)
            assert [F(num, den) for num in nums] == want
            for top in range(n + 1):
                den, nums = _chi_moment_table(n, negatives, top)
                assert len(nums) == top + 1
                assert [F(num, den) for num in nums] == want[:top + 1]
            dist = CardinalDist(n, F(negatives, n))
            assert [dist.chi_moment(k) for k in range(n + 1)] == want


def test_moments_read_the_table_only_up_to_the_bins():
    # the mean's bins reach deg f, the variance's min(2 deg f, n)
    f = MultilinearPoly.from_subsets(12, {(): F(1), (1, 2): F(1, 2), (3,): F(2)})
    for n, want in ((12, [(12, 4, 2), (12, 4, 4)]), (3, [(3, 1, 2), (3, 1, 3)])):
        g = MultilinearPoly.from_subsets(n, {s: c for s, c in f.items_sorted()
                                             if all(v <= n for v in s)})
        dist = CardinalDist(n, F(1, 3))
        with mock.patch.object(cardinal_dist, "_chi_moment_table",
                               wraps=cardinal_dist._chi_moment_table) as table:
            chi_expectation(g, dist)
            chi_variance(g, dist)
        assert [c.args for c in table.call_args_list] == want


def test_one_slice_type():
    assert cardcsp.CardinalDist is cardcsp.GlobalCardinality
    card = GlobalCardinality(6, F(1, 3))
    # slices compare and hash by value; the -1 count is an int set once
    assert CardinalDist(6, F(1, 3)) == card and len({card, CardinalDist(6, F(1, 3))}) == 1
    assert CardinalDist(6, F(1, 2)) != card
    assert type(card.__dict__["num_negative"]) is int and card.num_negative == 2
    assert CardinalDist.from_card(card) is card
    with pytest.raises(dataclasses.FrozenInstanceError):
        card.p = F(1, 2)
