from fractions import Fraction as F
from itertools import product
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardcsp.csp_model import GlobalCardinality
from cardcsp.errors import InputError
from cardcsp.exact import QE, make_qe
from cardcsp.poly import (Basis, MultilinearPoly, convert_basis, down, phi_square_q,
                          reduce_by_constraint, superset_sums, times_constraint,
                          times_constraint_table, up)
from cardcsp.rounding import reconstruct_h
from cardcsp.solver import enumerate_kernel

from conftest import (basis_polys, constraint_poly, convert_basis_reference,
                      evaluate_reference, mul_reference, random_poly,
                      restrict_reference, seeded_int_table)

BIASES = (F(1, 2), F(1, 3), F(1, 4))


@pytest.mark.parametrize("value", [0.5, "1/2", None])
def test_coefficients_must_be_exact_scalars(value):
    # a float coefficient used to be stored and fail later in the moments
    with pytest.raises(InputError, match="is not an int, Fraction or QE"):
        MultilinearPoly(4, {1: value})


VARIABLE_ENTRY_POINTS = {
    "from_subsets": lambda f, v: MultilinearPoly.from_subsets(4, {(v, 2): F(1)}),
    "coefficient": lambda f, v: f.coefficient((v, 2)),
    "restrict": lambda f, v: f.restrict({2: 1, v: -1}),
    "reconstruct_h": lambda f, v: reconstruct_h(f, [2, v]),
    "enumerate_kernel": lambda f, v: enumerate_kernel(f, (2, 3, v),
                                                      GlobalCardinality(4, F(1, 2)), 0),
}


@pytest.mark.parametrize("entry", [1.0, "1", None, F(1)])
@pytest.mark.parametrize("entry_point", list(VARIABLE_ENTRY_POINTS))
def test_a_variable_that_is_not_an_int_is_named(entry_point, entry):
    # 1.0 used to raise a bare TypeError from the shift, "1" from the range
    # compare or the sort
    f = MultilinearPoly.from_subsets(4, {(1,): F(1), (2, 3): F(1, 2)})
    with pytest.raises(InputError, match=re.escape(f"subset entry {entry!r} is not an int")):
        VARIABLE_ENTRY_POINTS[entry_point](f, entry)


@pytest.mark.parametrize("entry_point", list(VARIABLE_ENTRY_POINTS))
def test_a_bool_variable_is_its_int_value_at_every_entry_point(entry_point):
    f = MultilinearPoly.from_subsets(4, {(1,): F(1), (1, 2): F(1, 2)})
    call = VARIABLE_ENTRY_POINTS[entry_point]
    assert call(f, True) == call(f, 1)


def cut_poly(n=2):
    """(1 - x1 x2)/2."""
    return MultilinearPoly.from_subsets(n, {(): F(1, 2), (1, 2): F(-1, 2)})


def star_poly(n):
    """n/2 - (sum_i x_i) x_1 / 2, expanded."""
    coeffs = {(): F(n - 1, 2)}
    for i in range(2, n + 1):
        coeffs[(1, i)] = F(-1, 2)
    return MultilinearPoly.from_subsets(n, coeffs)


def test_evaluate_cut_edge():
    f = cut_poly()
    assert f.evaluate((1, -1)) == 1
    assert f.evaluate((1, 1)) == 0


def test_evaluate_star_on_bisection():
    n = 4
    f = star_poly(n)
    assert f.evaluate((1, 1, -1, -1)) == F(n, 2)


def test_evaluate_length_mismatch():
    with pytest.raises(InputError):
        cut_poly().evaluate((1,))
    with pytest.raises(InputError):
        cut_poly().evaluate((1, 0))


def test_multiply_chi_symmetric_difference():
    f = MultilinearPoly.from_subsets(3, {(1, 2): F(1)})
    g = MultilinearPoly.from_subsets(3, {(2, 3): F(1)})
    assert dict((f * g).items_sorted()) == {(1, 3): F(1)}


def test_multiply_phi_half_reduces_to_one():
    f = MultilinearPoly.from_subsets(2, {(1,): F(1)}, Basis.PHI, F(1, 2))
    assert dict((f * f).items_sorted()) == {(): F(1)}


def test_multiply_phi_third_gives_q_term():
    p = F(1, 3)
    f = MultilinearPoly.from_subsets(2, {(1,): F(1)}, Basis.PHI, p)
    sq = f * f
    q = phi_square_q(p)
    assert sq.coefficient(()) == 1
    assert sq.coefficient((1,)) == q
    # q = (2p-1)/sqrt(p(1-p)) = -1/sqrt(2)
    assert q * q == F(1, 2) and float(q) < 0


def test_multiply_basis_mismatch():
    f = MultilinearPoly.from_subsets(2, {(1,): F(1)})
    g = MultilinearPoly.from_subsets(2, {(1,): F(1)}, Basis.PHI, F(1, 2))
    with pytest.raises(InputError):
        f * g


def test_convert_identity_at_half():
    f = MultilinearPoly.from_subsets(3, {(1, 2): F(1, 2), (3,): F(-1)})
    g = convert_basis(f, Basis.PHI, F(1, 2))
    assert g.coeffs == f.coeffs


def test_convert_linear_example():
    # x_1 at p=1/3 becomes 2*sqrt(2/9)*phi_1 + 1/3
    f = MultilinearPoly.from_subsets(1, {(1,): F(1)})
    g = convert_basis(f, Basis.PHI, F(1, 3))
    assert g.coefficient(()) == F(1, 3)
    assert g.coefficient((1,)) == make_qe(0, 2, F(2, 9))


def test_convert_round_trip(rng):
    for _ in range(50):
        f = random_poly(rng, 10, 3, 7)
        g = convert_basis(f, Basis.PHI, F(1, 3))
        assert convert_basis(g, Basis.CHI) == f


def test_evaluation_agreement_across_bases(rng):
    for p in (F(1, 2), F(1, 3), F(2, 5)):
        f = random_poly(rng, 6, 3, 8)
        g = convert_basis(f, Basis.PHI, p)
        for a in product((-1, 1), repeat=6):
            assert f.evaluate(a) == g.evaluate(a)


def _product_measure_second_moment(f, p):
    """Independent oracle: E over the product measure (each bit -1 w.p. p)."""
    total = F(0)
    for a in product((-1, 1), repeat=f.n):
        negs = sum(1 for v in a if v < 0)
        weight = p ** negs * (1 - p) ** (f.n - negs)
        v = f.evaluate(a)
        total = total + weight * v * v
    return total


def test_l2_norm_examples():
    assert cut_poly().l2_norm_sq() == F(1, 2)
    assert MultilinearPoly.zero(3).l2_norm_sq() == 0


def test_l2_norm_is_product_measure_second_moment(rng):
    f = random_poly(rng, 8, 2, 6)
    assert f.l2_norm_sq() == _product_measure_second_moment(f, F(1, 2))
    p = F(1, 4)
    g = convert_basis(f, Basis.PHI, p)
    assert g.l2_norm_sq() == _product_measure_second_moment(g, p)


def test_restrict_single_variable():
    f = MultilinearPoly.from_subsets(2, {(1, 2): F(1)})
    assert dict(f.restrict({1: 1}).items_sorted()) == {(2,): F(1)}
    assert dict(f.restrict({1: -1}).items_sorted()) == {(2,): F(-1)}


def test_restrict_star_matches_substitution():
    n = 6
    f = star_poly(n)
    g = f.restrict({1: 1})
    # n/2 - (1 + sum_{i>=2} x_i)/2
    assert g.coefficient(()) == F(n - 1, 2)
    for i in range(2, n + 1):
        assert g.coefficient((i,)) == F(-1, 2)
    for a in product((-1, 1), repeat=n):
        if a[0] == 1:
            assert g.evaluate(a) == f.evaluate(a)


@pytest.mark.parametrize("fixed", [{0: 1}, {4: -1}, {1: 1, 2: 0}, {2: 2}])
def test_restrict_rejects_a_bad_variable_or_value(fixed):
    with pytest.raises(InputError):
        star_poly(3).restrict(fixed)


def test_restrict_commutes_on_disjoint_sets(rng):
    f = random_poly(rng, 8, 3, 10)
    one = f.restrict({1: 1}).restrict({5: -1})
    other = f.restrict({5: -1}).restrict({1: 1})
    both = f.restrict({1: 1, 5: -1})
    assert one == other == both


def test_multiply_commutative_associative_pointwise(rng):
    n = 8
    for _ in range(5):
        f = random_poly(rng, n, 2, 4)
        g = random_poly(rng, n, 2, 4)
        h = random_poly(rng, n, 2, 4)
        assert f * g == g * f
        lhs = (f * g) * h
        rhs = f * (g * h)
        for a in product((-1, 1), repeat=n):
            assert lhs.evaluate(a) == rhs.evaluate(a)
        assert lhs == rhs


def test_variables_used_examples():
    assert MultilinearPoly.zero(5).variables_used() == set()
    f = MultilinearPoly.from_subsets(5, {(1, 2): F(1), (3,): F(1)})
    assert f.variables_used() == {1, 2, 3}
    assert MultilinearPoly.constant(5, F(2)).variables_used() == set()


def test_degree_bound_recomputed():
    f = MultilinearPoly.from_subsets(4, {(1, 2): F(1), (): F(1)})
    g = MultilinearPoly.from_subsets(4, {(1, 2): F(-1)})
    assert (f + g).degree_bound == 0
    h = MultilinearPoly.from_subsets(4, {(1, 2): F(1)})
    assert (h * h).degree_bound == 0  # chi squares to the constant 1


def test_canonical_zero_pruning():
    f = MultilinearPoly.from_subsets(3, {(1,): F(0), (2,): F(1)})
    assert (1,) not in dict(f.items_sorted())
    assert f.degree_bound == 1


def test_invalid_subsets_rejected():
    with pytest.raises(InputError):
        MultilinearPoly.from_subsets(3, {(2, 1): F(1)})
    with pytest.raises(InputError):
        MultilinearPoly.from_subsets(3, {(0,): F(1)})
    with pytest.raises(InputError):
        MultilinearPoly.from_subsets(3, {(4,): F(1)})


@pytest.mark.parametrize("key", [-1, 8, 2 ** 40, (1,), "1", 1.0, None])
def test_constructor_rejects_a_key_that_is_not_a_bitmask(key):
    with pytest.raises(InputError):
        MultilinearPoly(3, {key: F(1)})


@pytest.mark.parametrize("subset", [(2, 1), (1, 1), (0,), (4,), (1, 2, 3, 4)])
def test_coefficient_rejects_a_subset_that_is_not_sorted_in_range(subset):
    f = MultilinearPoly.from_subsets(3, {(1, 2): F(1)})
    with pytest.raises(InputError):
        f.coefficient(subset)


def test_coefficients_are_keyed_by_bitmask():
    f = MultilinearPoly.from_subsets(4, {(): F(1), (1, 3): F(2), (4,): F(-1)})
    assert f.coeffs == {0: F(1), 0b101: F(2), 0b1000: F(-1)}
    assert MultilinearPoly(4, {0b101: 2, 0: 1, 0b1000: -1}) == f
    assert f.degree_bound == 2


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.dictionaries(
    st.frozensets(st.integers(1, n), max_size=n).map(lambda s: tuple(sorted(s))),
    st.fractions(max_denominator=5), max_size=12))))
def test_from_subsets_round_trips_through_items_sorted(drawn):
    n, coeffs = drawn
    f = MultilinearPoly.from_subsets(n, coeffs)
    nonzero = sorted((s, c) for s, c in coeffs.items() if c != 0)
    assert f.items_sorted() == nonzero
    assert all(isinstance(c, F) for _, c in f.items_sorted())
    assert MultilinearPoly.from_subsets(n, dict(f.items_sorted())) == f
    for s, c in coeffs.items():
        assert f.coefficient(s) == c


def test_restrict_matches_the_tuple_loop(rng):
    for _ in range(60):
        n = rng.randint(1, 8)
        f = random_poly(rng, n, min(n, 3), rng.randint(0, 9))
        fixed = {i: rng.choice((-1, 1)) for i in rng.sample(range(1, n + 1), rng.randint(0, n))}
        assert f.restrict(fixed) == restrict_reference(f, fixed)


def _polys(count):
    """`count` polynomials over one (n, basis, p), n <= 6, p from BIASES, and p."""
    space = st.tuples(st.integers(1, 6), st.sampled_from(Basis), st.sampled_from(BIASES))
    return space.flatmap(lambda s: st.tuples(*[basis_polys(*s)] * count, st.just(s[2])))


def _exact(values):
    return all(isinstance(v, (F, QE)) for v in values)


@settings(max_examples=200, deadline=None, database=None)
@given(_polys(2))
def test_product_matches_two_branch_reference(drawn):
    f, g, _ = drawn
    prod = f * g
    assert prod == mul_reference(f, g)
    assert _exact(prod.coeffs.values())


@settings(max_examples=200, deadline=None, database=None)
@given(_polys(1))
def test_evaluate_matches_two_branch_reference(drawn):
    f, _ = drawn
    for a in product((-1, 1), repeat=f.n):
        value = f.evaluate(a)
        assert value == evaluate_reference(f, a)
        assert _exact([value])


@settings(max_examples=200, deadline=None, database=None)
@given(_polys(1))
def test_convert_basis_matches_two_loop_reference(drawn):
    f, p = drawn
    other = Basis.CHI if f.basis is Basis.PHI else Basis.PHI
    g = convert_basis(f, other, p)
    assert g == convert_basis_reference(f, other, p)
    assert _exact(g.coeffs.values())
    assert convert_basis(g, f.basis, p) == f


def test_convert_requires_p_in_range():
    f = MultilinearPoly.from_subsets(2, {(1,): F(1)})
    for p in (None, 0, 1, F(3, 2)):
        with pytest.raises(InputError):
            convert_basis(f, Basis.PHI, p)


@st.composite
def constraint_cases(draw):
    """(h, shift): h of degree <= 3 over n <= 9 variables in either basis at
    p in {1/2, 1/3, 2/5}, shift in {0, (1-2p)n, -3}."""
    n = draw(st.integers(1, 9))
    p = draw(st.sampled_from((F(1, 2), F(1, 3), F(2, 5))))
    h = draw(basis_polys(n, draw(st.sampled_from(Basis)), p))
    return h, draw(st.sampled_from((0, (1 - 2 * p) * n, -3)))


@settings(max_examples=300, deadline=None, database=None)
@given(constraint_cases())
def test_times_constraint_matches_polynomial_product(case):
    h, shift = case
    out = times_constraint(h, shift)
    assert out == (constraint_poly(h.n, h.basis, h.p) - shift) * h
    assert _exact(out.coeffs.values())


# (n, a, b): two int tables on bitmask keys over n <= 9 variables
TABLE_PAIRS = st.integers(0, 9).flatmap(lambda n: st.tuples(
    st.just(n), *[st.dictionaries(st.integers(0, 2 ** n - 1), st.integers(-9, 9),
                                  max_size=20)] * 2))


@settings(max_examples=200, deadline=None, database=None)
@given(TABLE_PAIRS)
def test_up_and_down_are_adjoint(drawn):
    n, a, b = drawn
    lhs = sum(v * b.get(t, 0) for t, v in up(a, n).items())
    rhs = sum(v * down(b).get(s, 0) for s, v in a.items())
    assert lhs == rhs


def _nonzero(table):
    return {t: a for t, a in table.items() if a}


@pytest.mark.parametrize("q", [0, phi_square_q(F(1, 3))])
@pytest.mark.parametrize("shift", [0, 3])
@settings(max_examples=100, deadline=None, database=None)
@given(TABLE_PAIRS)
def test_constraint_product_below_top_and_reduction(q, shift, drawn):
    # for h on levels <= top, the product is (constraint_poly - shift) * h,
    # so its levels < top (the cut a caller keeps itself) are the
    # reference's, and the reduction is g minus the product, zeros dropped
    n, g, table = drawn
    basis, p = (Basis.CHI, None) if q == 0 else (Basis.PHI, F(1, 3))
    for top in [None, *range(n + 2)]:
        h = {t: a for t, a in table.items() if top is None or t.bit_count() <= top}
        full = ((constraint_poly(n, basis, p) - shift) * MultilinearPoly(n, h, basis, p)).coeffs
        product = times_constraint_table(h, n, q, shift)
        assert _nonzero(product) == full
        if top is not None:
            cut = {t: a for t, a in product.items() if t.bit_count() < top}
            assert _nonzero(cut) == {t: a for t, a in full.items() if t.bit_count() < top}
        reduced = reduce_by_constraint(g, h, n, q, shift)
        assert reduced == _nonzero({t: g.get(t, 0) - full.get(t, 0) for t in {*g, *full}})
        kept = [t for t in g if t in reduced]
        assert list(reduced)[:len(kept)] == kept


def test_superset_sums_match_their_definition():
    # F_k[U] = sum of table[S] over |S| = k, S >= U, at every U inside a
    # k-set of the table; nothing else is stored
    rng = random.Random("superset")
    assert superset_sums({}) == [{}]
    for n in range(1, 9):
        for degree in range(n + 1):
            table = seeded_int_table(rng, n, degree)
            sums = superset_sums(table)
            assert len(sums) == degree + 1
            for k, row in enumerate(sums):
                want = {}
                for u in range(1 << n):
                    members = [a for s, a in table.items()
                               if s.bit_count() == k and s & u == u]
                    if members:
                        want[u] = sum(members)
                assert row == want


def test_qe_scalar_acts_as_a_scalar():
    p = F(1, 3)
    q = phi_square_q(p)
    assert isinstance(q, QE)
    f = MultilinearPoly.from_subsets(
        4, {(): F(1, 2), (1, 3): F(-2), (2,): make_qe(1, 3, p * (1 - p))}, Basis.PHI, p)
    assert f * q == q * f == f.scale(q)
    constant = MultilinearPoly.constant(4, q, Basis.PHI, p)
    assert f + q == f + constant
    assert f - q == f - constant


def test_phi_polynomial_rejects_float_p():
    # 0.25 used to build a phi polynomial at p = 1/4
    with pytest.raises(InputError, match="p = 0.25 is not an int or Fraction"):
        MultilinearPoly(3, {1: F(1)}, Basis.PHI, 0.25)
    with pytest.raises(InputError, match="p = 0.25 is not an int or Fraction"):
        convert_basis(MultilinearPoly(3, {1: F(1)}), Basis.PHI, 0.25)
