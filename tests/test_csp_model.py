from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardcsp.csp_model import (GlobalCardinality, constraint_count, format_instance,
                               parse_instance, to_polynomial)
from cardcsp.errors import InputError, ParseError
from cardcsp.poly import Basis, MultilinearPoly

from conftest import (complete_graph, csp_instances, graph_instance, random_instance,
                      star_graph)

CUT_EDGE_FILE = """\
# a single MaxCut edge under the bisection constraint
csp 2 1 2 1/2
c 2 1 2
s +1 -1
s -1 +1
"""

K4_FILE = """\
csp 4 6 2 1/2
""" + "".join(f"c 2 {i} {j}\ns +1 -1\ns -1 +1\n"
              for i in range(1, 5) for j in range(i + 1, 5) if i < j)


def test_parse_cut_edge():
    inst, card = parse_instance(CUT_EDGE_FILE)
    assert inst.n == 2 and inst.m == 1 and inst.d == 2
    assert card.p == F(1, 2) and card.target_sum == 0
    (c,) = inst.constraints
    assert c.variables == (1, 2)
    assert c.patterns == {(-1, 1), (1, -1)}


def test_parse_k4():
    inst, card = parse_instance(K4_FILE)
    assert inst.m == 6
    assert card.num_negative == 2


def test_parse_rejects_fractional_pn():
    with pytest.raises(ParseError) as err:
        parse_instance("csp 5 0 2 1/2\n")
    assert err.value.line == 1


def test_parse_rejects_duplicate_variable():
    text = "csp 3 1 2 1/3\nc 2 1 1\ns 1 1\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.line == 2


def test_parse_rejects_bad_pattern_arity():
    text = "csp 3 1 2 1/3\nc 2 1 2\ns 1 1 1\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.line == 3


def test_parse_rejects_wrong_count():
    text = "csp 3 2 2 1/3\nc 2 1 2\ns 1 1\n"
    with pytest.raises(ParseError):
        parse_instance(text)


def test_format_round_trip(rng):
    inst = random_instance(rng, 7, 3, 9)
    card = GlobalCardinality(7, F(3, 7))
    text = format_instance(inst, card)
    inst2, card2 = parse_instance(text)
    assert card2 == card
    assert inst2.n == inst.n and inst2.m == inst.m
    for a, b in zip(inst.constraints, inst2.constraints):
        assert a.variables == b.variables and a.patterns == b.patterns


@st.composite
def instances(draw):
    n = draw(st.integers(2, 10))
    d = draw(st.integers(1, 3))
    p = F(draw(st.integers(1, n - 1)), n)
    return draw(csp_instances(n, d)), GlobalCardinality(n, p)


@settings(max_examples=200, deadline=None, database=None)
@given(instances())
def test_format_parse_round_trip_property(drawn):
    inst, card = drawn
    assert parse_instance(format_instance(inst, card)) == (inst, card)


def test_cardinality_invariants():
    card = GlobalCardinality(6, F(1, 3))
    assert card.num_negative == 2
    assert card.num_positive == 4
    assert card.target_sum == 2
    with pytest.raises(InputError):
        GlobalCardinality(5, F(1, 2))
    with pytest.raises(InputError):
        GlobalCardinality(4, F(0))


@pytest.mark.parametrize("n", [-4, 0, 4.0, F(4)])
def test_cardinality_rejects_n_that_is_not_a_positive_int(n):
    # n = -4 used to build with num_negative == num_positive == -2
    with pytest.raises(InputError, match="positive integer"):
        GlobalCardinality(n, F(1, 2))


def test_to_polynomial_cut_constraint():
    inst = graph_instance(2, [(1, 2)])
    f = to_polynomial(inst)
    assert f.coeffs == {(): F(1, 2), (1, 2): F(-1, 2)}


def test_to_polynomial_star_closed_form():
    # K_{1,n-1}: f = (n-1)/2 - sum_{i>=2} x_1 x_i / 2, i.e. n/2 - (sum x_i) x_1/2
    n = 6
    f = to_polynomial(star_graph(n))
    assert f.coefficient(()) == F(n - 1, 2)
    for i in range(2, n + 1):
        assert f.coefficient((1, i)) == F(-1, 2)
    assert len(f.coeffs) == n


def test_to_polynomial_counts_everywhere(rng):
    inst = random_instance(rng, 8, 3, 10)
    f = to_polynomial(inst)
    for a in product((-1, 1), repeat=8):
        assert f.evaluate(a) == constraint_count(inst, a)


def test_to_polynomial_coefficients_multiples_of_2_pow_minus_d(rng):
    inst = random_instance(rng, 8, 3, 12)
    f = to_polynomial(inst)
    gamma = F(1, 2 ** inst.d)
    for c in f.coeffs.values():
        assert (c / gamma).denominator == 1
    assert f.degree_bound <= inst.d


def test_constraint_count_examples():
    edge = graph_instance(2, [(1, 2)])
    assert constraint_count(edge, (1, -1)) == 1
    assert constraint_count(edge, (1, 1)) == 0
    k4 = complete_graph(4)
    assert constraint_count(k4, (1, 1, -1, -1)) == 4
    empty = graph_instance(3, [])
    assert constraint_count(empty, (1, 1, -1)) == 0


def test_duplicate_constraints_allowed():
    inst = graph_instance(2, [(1, 2), (1, 2)])
    assert constraint_count(inst, (1, -1)) == 2
    assert to_polynomial(inst).coefficient(()) == 1


def _to_polynomial_reference(inst):
    """The compile to_polynomial replaced: Fraction terms, one per pattern
    and subset of positions."""
    coeffs = {}
    for c in inst.constraints:
        scale = F(1, 2 ** c.arity)
        for pat in c.patterns:
            for r in range(c.arity + 1):
                for positions in combinations(range(c.arity), r):
                    sign = 1
                    for j in positions:
                        sign *= pat[j]
                    key = tuple(sorted(c.variables[j] for j in positions))
                    coeffs[key] = coeffs.get(key, F(0)) + sign * scale
    return MultilinearPoly(inst.n, coeffs, Basis.CHI)


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.integers(1, 4).flatmap(lambda d: csp_instances(n, d))))
def test_to_polynomial_matches_fraction_reference(inst):
    # arities are drawn per constraint, so most instances mix them
    ref = _to_polynomial_reference(inst)
    # same coefficients, same term order
    assert list(to_polynomial(inst).coeffs.items()) == list(ref.coeffs.items())
