import random
import time
import tracemalloc
from fractions import Fraction as F
from itertools import product
from math import comb
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cardcsp.cardinal_dist as cardinal_dist
import cardcsp.poly as poly
import cardcsp.solver as solver
from cardcsp.cardinal_dist import CardinalDist, chi_expectation, chi_variance
from cardcsp.cli import main
from cardcsp.config import DEFAULT_CONFIG, SolverConfig, parse_config
from cardcsp.csp_model import (Constraint, CspInstance, GlobalCardinality, constraint_count,
                               to_polynomial)
from cardcsp.errors import InputError, ResourceError
from cardcsp.exact import make_qe, sqrt_scalar
from cardcsp.oracle import brute_force_decision, brute_opt, slice_assignments
from cardcsp.poly import Basis, MultilinearPoly
from cardcsp.rounding import active_bound_constant, gamma_denominator
from cardcsp.solver import (average, bisection_fourth_moment_bound, certification_threshold,
                            decide, enumerate_kernel, fourth_moment_bound,
                            general_fourth_moment_bound)

from conftest import (CUT, SPLITLINES_BREAKS, complete_graph, csp_instances,
                      enumerate_kernel_point_loop, graph_instance, instance_variance,
                      path_graph, random_instance, random_poly, reference_verdict, star_graph,
                      valid_biases)


def test_decide_k4_no():
    inst = complete_graph(4)
    card = GlobalCardinality(4, F(1, 2))
    v = decide(inst, card, 1)
    assert v.answer == "SolvedExactly" and v.branch == "SmallVariance"
    assert v.avg == 4 and v.opt == 4 and v.variance == 0
    assert v.answer_bool is False


def test_decide_star_no():
    inst = star_graph(6)
    card = GlobalCardinality(6, F(1, 2))
    v = decide(inst, card, 1)
    assert v.variance == 0
    assert v.opt == 3 and v.avg == 3
    assert v.answer_bool is False


def test_decide_p4_yes_with_witness():
    inst = path_graph(4)
    card = GlobalCardinality(4, F(1, 2))
    v = decide(inst, card, 1)
    assert v.opt == 3 and v.avg == 2
    assert v.answer_bool is True
    assert sum(v.witness) == card.target_sum
    assert constraint_count(inst, v.witness) == v.opt


def test_average_closed_form():
    for n in (4, 6, 8):
        inst = star_graph(n)
        card = GlobalCardinality(n, F(1, 2))
        assert average(inst, card) == (F(1, 2) + F(1, 2 * (n - 1))) * inst.m


@pytest.mark.parametrize("inst, message", [
    # x_1 twice: decide rejects it; the compiled table would read 1/4, the slice 0
    (CspInstance(n=4, d=2, constraints=(Constraint((1, 1), frozenset({(1, -1)})),)),
     "duplicate variable"),
    (CspInstance(n=6, d=1, constraints=(Constraint((1, 2), CUT),)), "arity 2 outside"),
    # these ended in a bare TypeError from the compile's fast path
    (CspInstance(n=2, d=2, constraints=(Constraint((1.0, 2), CUT),)), "1.0 .* is not an int"),
    (CspInstance(n=2, d=2, constraints=(Constraint(("1", 2), CUT),)), "'1' .* is not an int"),
])
def test_average_runs_decides_instance_checks(inst, message):
    card = GlobalCardinality(inst.n, F(1, 2))
    with pytest.raises(InputError, match=message) as from_average:
        average(inst, card)
    with pytest.raises(InputError) as from_decide:
        decide(inst, card, 1)
    assert str(from_average.value) == str(from_decide.value)
    with pytest.raises(InputError, match="sizes differ"):
        average(path_graph(4), GlobalCardinality(6, F(1, 2)))


def test_average_always_true_constraint():
    from cardcsp.csp_model import Constraint, CspInstance
    full = frozenset({(1,), (-1,)})
    inst = CspInstance(n=4, d=2, constraints=(Constraint((2,), full),))
    card = GlobalCardinality(4, F(1, 2))
    assert average(inst, card) == 1
    v = decide(inst, card, 1)
    assert v.opt == 1 and v.answer_bool is False


def test_threshold_values():
    assert certification_threshold(2, F(1, 2), 1) == 629856
    assert certification_threshold(2, F(1, 2), 2) == 4 * 629856
    assert certification_threshold(2, F(1, 3), 1) > certification_threshold(2, F(1, 2), 1)
    with pytest.raises(InputError):
        certification_threshold(2, F(1, 2), 1, mode="other")


@pytest.mark.parametrize("p", [0.3, 0.5, True, "1/2", 0, 1, F(3, 2)])
def test_threshold_rejects_a_bias_that_is_not_exact(p):
    # a float p used to give a threshold with a 265-digit denominator, and
    # p = 0 a bare ZeroDivisionError
    for bound in (certification_threshold, fourth_moment_bound,
                  general_fourth_moment_bound):
        args = (2, p, 1) if bound is certification_threshold else (2, p)
        with pytest.raises(InputError, match="p"):
            bound(*args)


@pytest.mark.parametrize("t", [1.5, 1.0, True, F(1), "1"])
def test_threshold_rejects_a_target_that_is_not_an_int(t):
    with pytest.raises(InputError, match="t must be an int"):
        certification_threshold(2, F(1, 2), t)


@pytest.mark.parametrize("d", [-1, 0, 1.5, 2.0, F(2), True, "2", None])
def test_threshold_rejects_a_degree_that_is_not_a_positive_int(d):
    # d = -1 used to give a negative threshold and d = 1.5 one through float
    # powers, both cached; the two constants, public too, returned a float
    # at d = 1.5, 0 at d = 0 and a bare ValueError at d = -1
    for bound in (lambda: certification_threshold(d, F(1, 2), 1),
                  lambda: fourth_moment_bound(d, F(1, 3)),
                  lambda: bisection_fourth_moment_bound(d),
                  lambda: general_fourth_moment_bound(d, F(1, 3))):
        with pytest.raises(InputError, match="d = .* is not a positive integer"):
            bound()


def test_decide_reads_the_slice_moments_once_for_both_moments():
    inst = complete_graph(6)
    card = GlobalCardinality(6, F(1, 3))
    with mock.patch.object(cardinal_dist, "_chi_moment_table",
                           wraps=cardinal_dist._chi_moment_table) as moments:
        v = decide(inst, card, 1)
    assert moments.call_count == 1
    f, dist = to_polynomial(inst), CardinalDist.from_card(card)
    assert (v.avg, v.variance) == (chi_expectation(f, dist), chi_variance(f, dist))


def test_fourth_moment_bound_is_computed_once_per_degree_and_bias(monkeypatch):
    # certification_threshold used to rerun sqrt_upper on every verdict
    general, calls = solver.general_fourth_moment_bound, []

    def counted(d, p):
        calls.append((d, p))
        return general(d, p)

    solver._fourth_moment_bound.cache_clear()
    monkeypatch.setattr(solver, "general_fourth_moment_bound", counted)
    for _ in range(3):
        assert certification_threshold(3, F(1, 3), 2) == 16 * general(3, F(1, 3))
    assert calls == [(3, F(1, 3))]
    for p in (1 / 3, F(0), True):   # p is checked on every call, cached or not
        with pytest.raises(InputError, match="p"):
            certification_threshold(3, p, 2)


def test_general_bound_reduces_monotonically_toward_half():
    b3 = general_fourth_moment_bound(2, F(1, 3))
    b25 = general_fourth_moment_bound(2, F(2, 5))
    assert b3 > b25 > 0


def test_enumerate_kernel_empty():
    card = GlobalCardinality(6, F(1, 2))
    reduced = MultilinearPoly.constant(6, F(5, 2))
    opt, arg = enumerate_kernel(reduced, (), card, F(1, 2))
    assert opt == 3 and arg == ()


def test_enumerate_kernel_pair():
    card = GlobalCardinality(6, F(1, 2))
    reduced = MultilinearPoly.from_subsets(6, {(1, 2): F(1)})
    opt, arg = enumerate_kernel(reduced, (1, 2), card, 0)
    assert opt == 1
    assert arg == (-1, -1)  # lexicographically smallest maximizer


def test_enumerate_kernel_respects_budgets():
    # p*n = 1: at most one -1 available, so (-1,-1) is infeasible
    card = GlobalCardinality(4, F(1, 4))
    reduced = MultilinearPoly.from_subsets(4, {(1, 2): F(1)})
    opt, arg = enumerate_kernel(reduced, (1, 2), card, 0)
    assert opt == 1 and arg == (1, 1)


def test_enumerate_kernel_rejects_stray_variables():
    card = GlobalCardinality(4, F(1, 2))
    reduced = MultilinearPoly.from_subsets(4, {(3,): F(1)})
    with pytest.raises(InputError):
        enumerate_kernel(reduced, (1,), card, 0)


def test_enumerate_kernel_names_a_walk_too_long_to_print():
    # C(15000, 7500) feasible points has 4,515 digits, past what str() of an
    # int writes; the message used to raise ValueError from its f-string
    n = 15000
    card = GlobalCardinality(n, F(1, 2))
    with pytest.raises(ResourceError, match="kernel walk of <a number of about 4513 digits> "
                                            "feasible points exceeds enumeration cap"):
        enumerate_kernel(MultilinearPoly.zero(n), range(1, n + 1), card, 0)


@pytest.mark.parametrize("refuse, message", [
    # 15,001 feasible layers of a 15,000-variable kernel on a 30,000-variable
    # slice: their sum, 2^15000, took minutes to reach enum_cap
    (lambda: solver._capped_walk({}, tuple(range(1, 15001)), GlobalCardinality(30000, F(1, 2)),
                                 DEFAULT_CONFIG.enum_cap, DEFAULT_CONFIG.kernel_cap),
     "kernel walk of at least <a number of about 62 digits> feasible points"),
    # C(15000, 0) + ... + C(15000, 7500), the unknowns of a degree-7501
    # table, took 19 s to reach dense_cap
    (lambda: solver._kernel_step(1, {(1 << 7501) - 1: 1}, GlobalCardinality(15000, F(1, 2)),
                                 F(1, 4), 2, DEFAULT_CONFIG.dense_cap),
     "projection with at least <a number of about 62 digits> unknowns"),
], ids=["walk", "projection"])
def test_caps_stop_summing_once_past(refuse, message):
    start = time.perf_counter()
    with pytest.raises(ResourceError, match=message):
        refuse()
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("kernel", [(0, 1), (1, 5), (1, 1, 2)])
def test_enumerate_kernel_rejects_a_kernel_that_is_not_a_set_of_variables(kernel):
    card = GlobalCardinality(4, F(1, 2))
    reduced = MultilinearPoly.from_subsets(4, {(1,): F(1)})
    with pytest.raises(InputError, match="not a set of variables"):
        enumerate_kernel(reduced, kernel, card, 0)


@pytest.mark.parametrize("base_correction", [0.1, True, "1/3", None])
def test_enumerate_kernel_rejects_a_base_correction_that_is_not_exact(base_correction):
    # 0.1 used to enter as 3602879701896397/36028797018963968 and "1/3" as 1/3
    card = GlobalCardinality(4, F(1, 2))
    reduced = MultilinearPoly.from_subsets(4, {(1,): F(1)})
    with pytest.raises(InputError, match="base_correction .* is not an int or Fraction"):
        enumerate_kernel(reduced, (1,), card, base_correction)


def test_enumerate_kernel_cap():
    card = GlobalCardinality(6, F(1, 2))
    reduced = MultilinearPoly.from_subsets(6, {(1, 2): F(1)})
    with pytest.raises(ResourceError):
        enumerate_kernel(reduced, (1, 2), card, 0, cap=1)


def test_enumerate_kernel_rejects_a_polynomial_off_the_chi_basis():
    # phi_1 at p = 1/3 used to be read as the chi polynomial x_1, opt 1; its
    # maximum on the slice is phi_1(+1) = sqrt(p/(1-p)) = (3/2) sqrt(2/9)
    card = GlobalCardinality(3, F(1, 3))
    reduced = MultilinearPoly.from_subsets(3, {(1,): 1}, Basis.PHI, F(1, 3))
    best = max(reduced.evaluate(a) for a in slice_assignments(card))
    assert best == make_qe(0, F(3, 2), F(2, 9)) != 1
    with pytest.raises(InputError, match="not the chi basis"):
        enumerate_kernel(reduced, (1,), card, 0)


def test_enumerate_kernel_checks_the_enumeration_cap_before_walking(monkeypatch):
    # 24 kernel variables on the n = 48 bisection slice: every -1 count
    # fits, so the walk would visit 2^24 points, over the default enum_cap;
    # a direct call used to be bounded by kernel_cap alone
    card = GlobalCardinality(48, F(1, 2))
    kernel = tuple(range(1, 25))
    reduced = MultilinearPoly.from_subsets(48, {kernel[i:i + 2]: F(1) for i in range(0, 24, 2)})
    assert len(kernel) <= DEFAULT_CONFIG.kernel_cap and 2 ** 24 > DEFAULT_CONFIG.enum_cap
    monkeypatch.setattr(solver, "_walk", _must_not_run)
    with pytest.raises(ResourceError, match=str(2 ** 24)) as err:
        enumerate_kernel(reduced, kernel, card, 0)
    assert err.value.payload == kernel


def test_enumerate_kernel_rejects_irrational_coefficients():
    card = GlobalCardinality(4, F(1, 2))
    reduced = MultilinearPoly.from_subsets(4, {(1,): sqrt_scalar(F(2))})
    with pytest.raises(InputError, match="not rational"):
        enumerate_kernel(reduced, (1,), card, 0)


def test_enumerate_kernel_rejects_a_polynomial_on_more_variables_than_the_slice():
    # this call used to return (2, (1, 1)): an assignment to variables 5
    # and 6 of a 4-variable slice
    card = GlobalCardinality(4, F(1, 2))
    reduced = MultilinearPoly.from_subsets(6, {(5,): 1, (6,): 1})
    with pytest.raises(InputError, match="variable counts differ"):
        enumerate_kernel(reduced, (5, 6), card, 0)


def _enumerate_kernel_reference(reduced, kernel, card, base_correction):
    """The walk enumerate_kernel replaced: all 2^|K| points in lexicographic
    order (-1 before +1), infeasible ones skipped, the generic evaluate at
    every feasible one, the first maximizer kept."""
    kernel = tuple(sorted(kernel))
    best = best_arg = None
    for values in product((-1, 1), repeat=len(kernel)):
        negs = values.count(-1)
        if negs > card.num_negative or len(values) - negs > card.num_positive:
            continue
        point = dict(zip(kernel, values))
        full = tuple(point.get(i, 1) for i in range(1, reduced.n + 1))
        val = F(reduced.evaluate(full)) + F(base_correction)
        if best is None or val > best:
            best, best_arg = val, values
    return best, best_arg


MIXED_DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 8, 12)


@st.composite
def kernel_problems(draw, max_size=8, max_multiple=4):
    """A chi polynomial on a kernel of at most max_size variables, a bias
    and a base correction.  n is a small multiple of p's denominator, so a
    kernel close to n leaves whole -1 layers infeasible at both ends;
    small-integer coefficients make ties common."""
    p = draw(st.sampled_from((F(1, 2), F(1, 3), F(1, 4), F(2, 3))))
    n = p.denominator * draw(st.integers(1, max_multiple))
    size = draw(st.integers(0, min(max_size, n)))
    kernel = tuple(sorted(draw(st.permutations(range(1, n + 1)))[:size]))
    if draw(st.booleans()):
        coefficient = st.integers(-1, 1).map(F)
    else:
        coefficient = st.builds(F, st.integers(-30, 30),
                                st.sampled_from(MIXED_DENOMINATORS))
    subsets = st.lists(st.sampled_from(kernel), unique=True, max_size=4) \
        if kernel else st.just([])
    coeffs = {tuple(sorted(s)): draw(coefficient)
              for s in draw(st.lists(subsets, max_size=12))}
    base_correction = draw(coefficient)
    return (MultilinearPoly.from_subsets(n, coeffs), kernel, GlobalCardinality(n, p),
            base_correction)


@settings(max_examples=300, deadline=None, database=None)
@given(kernel_problems())
@example((MultilinearPoly.from_subsets(4, {(1, 2): F(1), (3,): F(-1, 3)}), (1, 2, 3, 4),
          GlobalCardinality(4, F(1, 4)), F(1, 2)))   # only the 1-layer is feasible
@example((MultilinearPoly.from_subsets(3, {}), (), GlobalCardinality(3, F(2, 3)), F(0)))
def test_enumerate_kernel_matches_reference_walk(problem):
    reduced, kernel, card, base_correction = problem
    assert enumerate_kernel(reduced, kernel, card, base_correction) == \
        _enumerate_kernel_reference(reduced, kernel, card, base_correction)


@settings(max_examples=300, deadline=None, database=None)
@given(kernel_problems(max_size=16, max_multiple=8))
def test_enumerate_kernel_matches_point_loop(problem):
    assert enumerate_kernel(*problem) == enumerate_kernel_point_loop(*problem)


@pytest.mark.parametrize("size, n, p", [
    (0, 3, F(2, 3)), (1, 2, F(1, 2)), (5, 6, F(1, 3)), (10, 10, F(1, 2)),
    (12, 20, F(1, 4)), (18, 20, F(9, 10)), (40, 40, F(1, 20)),
])
def test_feasible_planes_hold_each_feasible_set_once(size, n, p):
    layers = solver._feasible_layers(size, GlobalCardinality(n, p))
    points, planes = solver._feasible_planes(size, layers)
    assert points == sum(comb(size, j) for j in layers)
    assert len(planes) == size
    assert all(plane >> points == 0 for plane in planes)
    assert [plane.bit_count() for plane in planes] == \
        [sum(comb(size - 1, j - 1) for j in layers if j)] * size
    sets = {frozenset(i for i, plane in enumerate(planes) if plane >> x & 1)
            for x in range(points)}
    assert len(sets) == points
    assert all(len(negs) in layers for negs in sets)


def test_feasible_planes_cache_keeps_small_entries_only():
    solver._cached_planes.cache_clear()
    size = 17      # one layer of C(17, 8) = 24,310 points, all 2^17 above the bound
    small, large = range(8, 9), range(0, size + 1)
    assert comb(size, 8) <= solver.CACHED_POINTS < 2 ** size
    assert solver._feasible_planes(size, small) is solver._feasible_planes(size, small)
    points, planes = solver._feasible_planes(size, large)
    assert points == 2 ** size and len(planes) == size
    assert solver._cached_planes.cache_info().currsize == 1
    # every seed-1 corpus slice (n <= 12) fits below the bound
    assert comb(12, 6) <= solver.CACHED_POINTS


@st.composite
def decide_problems(draw):
    """(instance, cardinality, t): p in {1/2, 1/3, 1/4}, d in {1, 2, 3},
    n <= 10 with pn integral, t in {1, 2}."""
    p = draw(st.sampled_from((F(1, 2), F(1, 3), F(1, 4))))
    n = draw(st.sampled_from([n for n in range(2, 11) if (p * n).denominator == 1]))
    inst = draw(csp_instances(n, draw(st.integers(1, 3))))
    return inst, GlobalCardinality(n, p), draw(st.integers(1, 2))


@settings(max_examples=150, deadline=None, database=None)
@given(decide_problems())
@example((path_graph(6), GlobalCardinality(6, F(1, 2)), 1))   # reduced constant 1/2
@example((complete_graph(6), GlobalCardinality(6, F(1, 3)), 1))
def test_decide_matches_the_public_layers(problem):
    inst, card, t = problem
    assert decide(inst, card, t).to_json() == reference_verdict(inst, card, t).to_json()


def test_decide_builds_no_polynomial(monkeypatch):
    # from the compile to the Verdict every layer reads one int table
    built = []
    init = MultilinearPoly.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MultilinearPoly, "__init__", counted)
    for p, n in ((F(1, 2), 8), (F(1, 3), 9)):
        v = decide(random_instance(random.Random(n), n, 2, 14), GlobalCardinality(n, p), 1)
        assert v.branch == "SmallVariance" and v.kernel
    assert built == []


@pytest.mark.parametrize("n, p, degree, terms", [
    (18, F(1, 2), 3, 30),
    (20, F(1, 4), 2, 40),
    (40, F(1, 20), 2, 60),
])
def test_enumerate_kernel_chunked_matches_point_loop(n, p, degree, terms):
    reduced = random_poly(random.Random(n), n, degree, terms)
    kernel = tuple(range(1, n + 1))
    card = GlobalCardinality(n, p)
    start = time.perf_counter()
    walked = enumerate_kernel(reduced, kernel, card, F(1, 3))
    elapsed = time.perf_counter() - start
    assert walked == enumerate_kernel_point_loop(reduced, kernel, card, F(1, 3))
    if n == 40:     # 821 feasible points, layers 0-2 of 40 variables
        assert elapsed < 1


@pytest.mark.parametrize("n, p, lowest", [
    (18, F(1, 2), (-1,) * 9 + (1,) * 9),   # only the layer of 9 -1s is feasible
    (20, F(9, 10), (-1,) * 18),            # layers 16-18: the last wins every tie
])
def test_enumerate_kernel_zero_polynomial_picks_lowest_assignment(n, p, lowest):
    kernel = tuple(range(1, 19))
    card = GlobalCardinality(n, p)
    reduced = MultilinearPoly.zero(n)
    walked = enumerate_kernel(reduced, kernel, card, 0)
    assert walked == (0, lowest) == enumerate_kernel_point_loop(reduced, kernel, card, 0)


def test_decide_enum_cap_counts_feasible_points_only():
    inst = path_graph(10)
    card = GlobalCardinality(10, F(1, 2))
    v = decide(inst, card, 1)
    assert v.kernel == tuple(range(1, 11))
    feasible = comb(10, 5)  # p = 1/2: the kernel takes exactly five -1 values
    assert 2 ** 10 > feasible
    assert decide(inst, card, 1, SolverConfig(enum_cap=feasible)).opt == v.opt
    with pytest.raises(ResourceError, match=str(feasible)):
        decide(inst, card, 1, SolverConfig(enum_cap=feasible - 1))


@pytest.mark.parametrize("n, p, d", [(2, F(1, 2), 2), (4, F(1, 2), 3),
                                     (3, F(1, 3), 3), (4, F(1, 4), 3)])
def test_decide_smallest_instances_match_oracle(n, p, d):
    # at p = 1/2, degree 2 at n = 2 and degree 3 at n = 4 used to raise
    # "singular system" in project_null; at p != 1/2, degree 3 at n < 5 used
    # to raise "not enough variables to build a pivot set" in round_global
    for patterns in ({(1,) * d}, {(1,) * (d - 1) + (-1,), (-1,) * d}):
        inst = CspInstance(n=n, d=d, constraints=(
            Constraint(tuple(range(1, d + 1)), frozenset(patterns)),))
        card = GlobalCardinality(n, p)
        v = decide(inst, card, 1)
        assert v.opt == brute_opt(inst, card)[0]
        assert v.answer_bool == brute_force_decision(inst, card, 1)


def test_decide_t_nonpositive():
    inst = complete_graph(4)
    card = GlobalCardinality(4, F(1, 2))
    v = decide(inst, card, 0)
    assert v.answer_bool is True and v.threshold_used == 0
    assert v.warnings


def test_decide_p_range_guard():
    inst = graph_instance(200, [(1, 2)])
    card = GlobalCardinality(200, F(1, 200))  # below the default p0 = 1/100
    with pytest.raises(InputError):
        decide(inst, card, 1)


def test_decide_rejects_t_that_is_not_an_int():
    inst = path_graph(4)
    card = GlobalCardinality(4, F(1, 2))
    for t in (F(3, 2), "2", None, 1.0):
        with pytest.raises(InputError, match="t must be an int"):
            decide(inst, card, t)


def test_decide_kernel_cap():
    inst = path_graph(10)
    card = GlobalCardinality(10, F(1, 2))
    with pytest.raises(ResourceError) as err:
        decide(inst, card, 1, SolverConfig(kernel_cap=2))
    assert err.value.payload  # the kernel is handed back


def _must_not_run(*args, **kwargs):
    raise AssertionError("ran past a cap that should have stopped it")


def test_decide_enum_cap_checked_before_enumeration(monkeypatch):
    inst = path_graph(10)
    card = GlobalCardinality(10, F(1, 2))
    monkeypatch.setattr(solver, "_walk", _must_not_run)
    with pytest.raises(ResourceError) as err:
        decide(inst, card, 1, SolverConfig(enum_cap=1))
    assert err.value.payload  # the kernel is handed back


def test_decide_dense_cap_checked_before_projection(monkeypatch):
    inst = path_graph(10)  # degree 2: projection unknowns C(10,0) + C(10,1) = 11
    card = GlobalCardinality(10, F(1, 2))
    monkeypatch.setattr(solver, "_project", _must_not_run)
    with pytest.raises(ResourceError) as err:
        decide(inst, card, 1, SolverConfig(dense_cap=10))
    assert "11" in str(err.value) and err.value.payload is not None


def test_decide_validates_api_instance():
    # arity 2 above the declared d = 1: rejected, not solved with the d = 1 constant
    inst = CspInstance(n=6, d=1, constraints=(Constraint((1, 2), CUT),))
    for p in (F(1, 3), F(1, 2)):
        with pytest.raises(InputError, match="arity 2 outside"):
            decide(inst, GlobalCardinality(6, p), 1)


def test_config_rejects_negative_caps():
    for key in ("enum_cap", "kernel_cap", "dense_cap"):
        with pytest.raises(InputError):
            SolverConfig(**{key: -1})
        with pytest.raises(InputError):
            parse_config(f"{key} = -1")


@pytest.mark.parametrize("field, value", [
    ("enum_cap", 1.5), ("kernel_cap", True), ("dense_cap", 2000.0), ("p0", 0.1)])
def test_config_rejects_inexact_values(field, value):
    with pytest.raises(InputError, match=f"{field} = .* is not a"):
        SolverConfig(**{field: value})


def test_config_rejects_p0_outside_open_half_interval():
    for p0 in (F(0), F(-1, 10), F(1, 2), F(3, 5)):
        with pytest.raises(InputError):
            SolverConfig(p0=p0)
    assert SolverConfig(p0=F(49, 100)).p0 == F(49, 100)


def test_config_rejects_unread_keys_and_bad_values():
    for line in ("threads = 2", "float_tol = 1e-9", "enum_cap = lots", "p0 = 1/0"):
        with pytest.raises(InputError):
            parse_config(line)


@pytest.mark.parametrize("char", SPLITLINES_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_config_ends_a_line_at_a_line_feed_only(char):
    # str.splitlines read this one line as two settings
    with pytest.raises(InputError, match="config line 1: bad value for enum_cap"):
        parse_config(f"enum_cap = 5{char}kernel_cap = 3\n")
    assert (parse_config(f"enum_cap = 5\r\n{char}kernel_cap = 3{char}\r\n")
            == SolverConfig(enum_cap=5, kernel_cap=3))


@pytest.mark.parametrize("line", [
    "enum_cap = 1_000", "dense_cap = \u0663\u0660", "kernel_cap = +12", "kernel_cap = 0x10",
    "enum_cap = " + "1" * 4000],
    ids=["underscore", "arabic-indic", "sign", "hex", "4000-digits"])
def test_config_reads_caps_in_ascii_digits_only(line, capsys, tmp_path):
    # int() read these as 1000, 30, 12 and a 4,000-digit cap
    key = line.split()[0]
    with pytest.raises(InputError, match=f"config line 1: bad value for {key}: {key} "):
        parse_config(line)
    config, instance = tmp_path / "bad.cfg", tmp_path / "k4.csp"
    config.write_text(line + "\n")
    instance.write_text("csp 4 1 2 1/2\nc 2 1 2\ns +1 -1\ns -1 +1\n")
    assert main(["solve", "--instance", str(instance), "--t", "1",
                 "--config", str(config)]) == 2
    assert f"bad value for {key}" in capsys.readouterr().err


def test_config_bounds_the_bias_floor():
    start = time.perf_counter()
    with pytest.raises(InputError, match="exponent outside"):
        parse_config("p0 = 5e-1000000")
    assert parse_config("p0 = 0.25").p0 == F(1, 4)
    with pytest.raises(InputError, match="p0 = <a number of about 5000 digits> outside"):
        SolverConfig(p0=F(-1, 10 ** 5000))
    assert time.perf_counter() - start < 1


def test_decide_scales_with_the_moments_it_reads():
    # one d = 1 constraint at n = 3 * 10^4: the slice's chi moments used to
    # be built for all n + 1 levels, 18 s and 118 MB; the bins read 2
    n = 30000
    inst = CspInstance(n=n, d=1, constraints=(Constraint((1,), frozenset({(1,)})),))
    start = time.perf_counter()
    v = decide(inst, GlobalCardinality(n, F(1, 2)), 1)
    assert time.perf_counter() - start < 5
    assert (v.avg, v.opt, v.kernel) == (F(1, 2), 1, (1,))


@pytest.mark.parametrize("n, p", [(10000, F(1, 2)), (9999, F(1, 3))])
def test_decide_one_constraint_at_ten_thousand_variables(n, p):
    # the first step of scaling in n: about 0.1 s each on a shared 2-core host
    inst = CspInstance(n=n, d=1, constraints=(Constraint((1,), frozenset({(1,)})),))
    start = time.perf_counter()
    v = decide(inst, GlobalCardinality(n, p), 1)
    assert time.perf_counter() - start < 2
    assert (v.avg, v.opt, v.kernel) == (1 - p, 1, (1,))


def test_decide_one_constraint_at_a_hundred_thousand_variables():
    # nothing at p = 1/2 is sized n^2: the projection residual's norm comes
    # from the normal equations, not from the product (sum x_i) h, whose
    # constant term became n keys of up to n bits (about 20 s and 700 MB
    # RSS), and _project lists no n single-bit ints; about 0.15 s and
    # 1.6 MB traced, most of it the witness, on a shared 2-core host
    n = 10 ** 5
    inst = CspInstance(n=n, d=1, constraints=(Constraint((1,), frozenset({(1,)})),))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        v = decide(inst, GlobalCardinality(n, F(1, 2)), 1)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 5 and peak < 16_000_000
    assert (v.avg, v.opt, v.kernel) == (F(1, 2), 1, (1,))


def test_decide_one_constraint_at_a_hundred_thousand_variables_off_bisection():
    # the p = 1/4 twin: the level-1 scan reads the weight-1 values off the
    # table (n - 1 absent variables at 0) and its reconstruction is
    # h(empty) = E(pivot), so no list of n single-bit masks is built (about
    # 21 s and 1.4 GB traced when there was); about 0.2 s and 1.6 MB traced
    # on a shared 2-core host
    n = 10 ** 5
    inst = CspInstance(n=n, d=1, constraints=(Constraint((1,), frozenset({(1,)})),))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        v = decide(inst, GlobalCardinality(n, F(1, 4)), 1)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 5 and peak < 16_000_000
    assert (v.avg, v.opt, v.kernel) == (F(3, 4), 1, (1,))


def test_decide_deterministic_json():
    inst = random_instance(__import__("random").Random(9), 9, 3, 12)
    card = GlobalCardinality(9, F(1, 3))
    a = decide(inst, card, 2).to_json()
    b = decide(inst, card, 2).to_json()
    assert a == b


def test_decide_warns_when_t_large_for_n():
    inst = path_graph(4)
    card = GlobalCardinality(4, F(1, 2))
    v = decide(inst, card, 2)
    assert any("sqrt(n)" in w for w in v.warnings)
    assert v.answer_bool is brute_force_decision(inst, card, 2)


def test_certified_branch_fires_on_scaled_instance():
    # many duplicate edges multiply f by M, variance by M^2
    base = [(1, 2), (2, 3), (3, 4)]
    m_copies = 2000
    inst = graph_instance(4, base * m_copies)
    card = GlobalCardinality(4, F(1, 2))
    var = instance_variance(inst, card)
    assert var >= certification_threshold(2, F(1, 2), 1)
    v = decide(inst, card, 1)
    assert v.answer == "CertifiedAbove" and v.branch == "LargeVariance"
    assert v.answer_bool is True
    # soundness against the oracle
    assert brute_force_decision(inst, card, 1) is True


def test_random_instances_match_oracle(rng):
    for _ in range(25):
        n = rng.choice([6, 8, 9, 10])
        d = rng.choice([2, 3])
        inst = random_instance(rng, n, d, rng.randint(1, 12))
        p = rng.choice(valid_biases(n))
        t = rng.choice([1, 2])
        card = GlobalCardinality(n, p)
        v = decide(inst, card, t)
        assert v.answer_bool == brute_force_decision(inst, card, t)
        if v.answer == "SolvedExactly":
            assert v.opt == brute_opt(inst, card)[0]
            assert constraint_count(inst, v.witness) == v.opt
            assert sum(v.witness) == card.target_sum


def kernel_bound_constant(d: int, p) -> F:
    """C with |kernel| <= C * t^2 on the small-variance branch (loose).

    Bisection: at most d * 7^d * ||residual||^2-blowup * (Gamma_d/gamma)^2
    nonzero coefficients, residual^2 <= 2 Var < 8 b t^2.  General p: the
    active-set guarantee C'_{p,d} * Var / gamma^2 with Var < 4 b t^2."""
    p = F(p)
    gamma = F(1, 2 ** d)
    b = fourth_moment_bound(d, p)
    if p == F(1, 2):
        return d * 7 ** d * 8 * b / gamma ** 2 * gamma_denominator(d) ** 2
    return active_bound_constant(p, d) * 4 * b / gamma ** 2


def test_kernel_size_within_loose_bound(rng):
    # |K| <= C * t^2 with the loose guarantee constant; report actual
    worst = 0
    for _ in range(10):
        n = rng.choice([8, 9, 10])
        d = 2
        inst = random_instance(rng, n, d, rng.randint(1, 10))
        p = rng.choice(valid_biases(n))
        card = GlobalCardinality(n, p)
        t = 1
        v = decide(inst, card, t)
        if v.kernel is None:
            continue
        bound = kernel_bound_constant(d, p) * t * t
        assert len(v.kernel) <= bound
        worst = max(worst, len(v.kernel))
    print(f"\nlargest kernel seen: {worst} variables")


def test_decide_empty_instance():
    inst = graph_instance(6, [])
    card = GlobalCardinality(6, F(1, 2))
    v = decide(inst, card, 1)
    assert v.opt == 0 and v.avg == 0 and v.variance == 0
    assert v.answer_bool is False
    assert sum(v.witness) == 0


def test_kernel_bound_constant_positive():
    assert kernel_bound_constant(2, F(1, 2)) > 0
    assert kernel_bound_constant(2, F(1, 3)) > kernel_bound_constant(2, F(1, 2))


def test_verdict_shapes():
    inst = path_graph(4)
    card = GlobalCardinality(4, F(1, 2))
    v = decide(inst, card, 1)
    doc = v.as_dict()
    assert doc["schema"] == 1
    assert set(doc) >= {"answer", "branch", "avg", "variance", "threshold",
                        "warnings", "opt", "witness", "kernel"}
    assert doc["avg"]["exact"] == "2"


def test_decide_makes_no_polynomial_product(monkeypatch):
    # every reduction goes through poly.times_constraint: kernelizing at
    # p = 1/2 (projection, rounding) and at p = 1/3 (the scan) forms no
    # polynomial-by-polynomial product
    products = []
    original = MultilinearPoly.__mul__

    def counting(self, other):
        if isinstance(other, MultilinearPoly):
            products.append((self, other))
        return original(self, other)

    monkeypatch.setattr(MultilinearPoly, "__mul__", counting)
    for p, n in ((F(1, 2), 8), (F(1, 3), 9)):
        inst = random_instance(random.Random(n), n, 2, 14)
        v = decide(inst, GlobalCardinality(n, p), 1)
        assert v.branch == "SmallVariance" and v.kernel
    assert products == []


def test_decide_converts_no_subset_between_tuple_and_bitmask(monkeypatch):
    # every layer of decide reads the bitmask keys of .coeffs: no tuple key
    # enters through from_subsets and none leaves through subset_of
    calls = []
    from_subsets, subset_of = MultilinearPoly.from_subsets, poly.subset_of

    def counted_from_subsets(*args, **kwargs):
        calls.append("from_subsets")
        return from_subsets(*args, **kwargs)

    def counted_subset_of(mask):
        calls.append("subset_of")
        return subset_of(mask)

    monkeypatch.setattr(MultilinearPoly, "from_subsets", staticmethod(counted_from_subsets))
    monkeypatch.setattr(poly, "subset_of", counted_subset_of)
    assert MultilinearPoly.from_subsets(2, {(1,): F(1)}).items_sorted() == [((1,), F(1))]
    assert calls == ["from_subsets", "subset_of"]
    calls.clear()
    for p, n in ((F(1, 2), 8), (F(1, 3), 9)):
        inst = random_instance(random.Random(n), n, 2, 14)
        v = decide(inst, GlobalCardinality(n, p), 1)
        assert v.branch == "SmallVariance" and v.kernel
    assert calls == []


def test_decide_rejects_a_bool_t():
    inst = path_graph(4)
    card = GlobalCardinality(4, F(1, 2))
    for t in (True, False):
        with pytest.raises(InputError, match="t must be an int"):
            decide(inst, card, t)
