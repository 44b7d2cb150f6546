from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cardcsp.exact import (QE, _bareiss_div, as_fraction, fraction_str, make_qe,
                           nearest_multiple, nullspace_exact, scalar_sign,
                           solve_linear_exact, sqrt_scalar, sqrt_upper)

from conftest import gauss_solve_reference


def test_rational_radicand_collapses():
    assert sqrt_scalar(F(1, 4)) == F(1, 2)
    assert sqrt_scalar(F(9, 16)) == F(3, 4)
    assert make_qe(F(1, 3), 2, F(1, 4)) == F(1, 3) + 1


def test_irrational_stays_extended():
    s = sqrt_scalar(F(2, 9))
    assert isinstance(s, QE)
    assert s * s == F(2, 9)
    assert float(s) == pytest.approx((2 / 9) ** 0.5)


def test_field_operations():
    r = F(2, 9)
    x = make_qe(F(1, 2), F(3), r)
    y = make_qe(F(-1), F(1, 3), r)
    assert (x + y) - y == x
    assert (x * y) / y == x
    assert x * x.inverse() == 1
    assert x ** 3 == x * x * x
    assert x ** 0 == 1
    assert -(-x) == x
    assert 2 * x == x + x
    assert 1 / sqrt_scalar(F(2)) == sqrt_scalar(F(2)) / 2


def test_mixed_radicands_rejected():
    with pytest.raises(ValueError):
        sqrt_scalar(F(2)) + sqrt_scalar(F(3))


def test_sign_and_ordering():
    s2 = sqrt_scalar(F(2))
    assert scalar_sign(s2 - 1) == 1          # sqrt2 > 1
    assert scalar_sign(s2 - 2) == -1         # sqrt2 < 2
    assert make_qe(3, -2, F(2)) > 0          # 3 > 2 sqrt 2
    assert make_qe(-3, 2, F(2)) < 0
    assert make_qe(-1, 1, F(2)) > 0          # sqrt2 > 1
    assert s2 > F(7, 5) and s2 < F(3, 2)
    assert abs(make_qe(0, -1, F(2))) == s2


def test_as_fraction_guards():
    assert as_fraction(F(3, 7)) == F(3, 7)
    with pytest.raises(ValueError):
        as_fraction(sqrt_scalar(F(2)))


def test_fraction_str():
    assert fraction_str(F(-3, 7)) == "-3/7"
    assert fraction_str(sqrt_scalar(F(2, 9))) == "0 + 1*sqrt(2/9)"


def test_sqrt_upper_bounds():
    for x in (F(2), F(3), F(27), F(5, 7)):
        up = sqrt_upper(x)
        assert up * up >= x
        assert float(up) == pytest.approx(float(x) ** 0.5, rel=1e-12)
    assert sqrt_upper(F(0)) == 0
    assert sqrt_upper(F(4)) == 2


def test_nearest_multiple_ties_away_from_zero():
    g = F(1, 4)
    assert nearest_multiple(F(3, 10), g) == F(1, 4)
    assert nearest_multiple(F(1, 8), g) == F(1, 4)       # tie rounds up
    assert nearest_multiple(F(-1, 8), g) == F(-1, 4)     # tie rounds down
    assert nearest_multiple(F(0), g) == 0
    assert nearest_multiple(F(7, 8), g) == F(1)


def test_solve_linear_exact():
    m = [[F(2), F(1)], [F(1), F(3)]]
    b = [F(5), F(10)]
    x = solve_linear_exact(m, b)
    assert [m[0][0] * x[0] + m[0][1] * x[1], m[1][0] * x[0] + m[1][1] * x[1]] == b
    with pytest.raises(ValueError):
        solve_linear_exact([[F(1), F(2)], [F(2), F(4)]], [F(1), F(1)])


def test_solve_linear_exact_singular_consistent():
    # dependent normal equations: the pivot-free column's unknown is 0
    m = [[F(1), F(2), F(0)], [F(2), F(4), F(0)], [F(0), F(0), F(3)]]
    assert solve_linear_exact(m, [F(1), F(2), F(6)]) == [F(1), F(0), F(2)]
    assert solve_linear_exact([[F(0)]], [F(0)]) == [F(0)]


def test_solve_linear_exact_quadratic_field():
    s = sqrt_scalar(F(2))
    m = [[1 + s, F(1)], [F(1), 2 - s]]
    b = [s, F(3)]
    x = solve_linear_exact(m, b)
    assert m[0][0] * x[0] + m[0][1] * x[1] == b[0]
    assert m[1][0] * x[0] + m[1][1] * x[1] == b[1]


ENTRIES = st.builds(F, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 6)))


@st.composite
def linear_systems(draw):
    """Square systems of size <= 6 with mixed denominators: generic, with
    dependent rows, or with a column that repeats an earlier one (singular,
    its pivot is skipped mid-elimination); consistent (b = M x0) or with a
    free rhs (then usually inconsistent).  Some rows may hold QE entries."""
    size = draw(st.integers(1, 6))
    m = [[draw(ENTRIES) for _ in range(size)] for _ in range(size)]
    kind = draw(st.sampled_from(("generic", "dependent-rows", "repeated-column")))
    if kind == "dependent-rows":
        rank = draw(st.integers(0, size - 1))
        for i in range(rank, size):
            weights = [draw(ENTRIES) for _ in range(rank)]
            m[i] = [sum((w * m[r][j] for r, w in enumerate(weights)), F(0))
                    for j in range(size)]
    elif kind == "repeated-column" and size > 1:
        src = draw(st.integers(0, size - 2))
        dst = draw(st.integers(src + 1, size - 1))
        scale = draw(ENTRIES)
        for row in m:
            row[dst] = scale * row[src]
    for i in draw(st.lists(st.integers(0, size - 1), unique=True, max_size=2)):
        m[i] = [make_qe(a, draw(ENTRIES), 2) for a in m[i]]
    if draw(st.booleans()):
        x0 = [draw(ENTRIES) for _ in range(size)]
        rhs = [sum((a * x for a, x in zip(row, x0)), F(0)) for row in m]
    else:
        rhs = [draw(ENTRIES) for _ in range(size)]
    return m, rhs


def _solve_outcome(solve, matrix, rhs):
    try:
        return solve(matrix, rhs)
    except ValueError:
        return "inconsistent"


@settings(max_examples=400, deadline=None, database=None)
@given(linear_systems())
@example(([[F(1), F(1), F(2)], [F(2), F(2), F(5)], [F(1), F(1), F(3)]],
          [F(1), F(3), F(2)]))    # column 1 repeats column 0: its pivot is skipped
@example(([[F(0), F(0)], [F(0), F(1, 2)]], [F(0), F(3)]))   # column 0 has no pivot
@example(([[F(1), F(2)], [F(2), F(4)]], [F(1), F(1)]))      # inconsistent
def test_solve_linear_exact_matches_gaussian_elimination(system):
    matrix, rhs = system
    before = [row[:] for row in matrix]
    assert _solve_outcome(solve_linear_exact, matrix, rhs) == \
        _solve_outcome(gauss_solve_reference, matrix, rhs)
    assert matrix == before


def test_bareiss_division_is_checked():
    assert _bareiss_div(-12, 4) == -3
    with pytest.raises(AssertionError, match="not exact"):
        _bareiss_div(7, 2)      # never a floored quotient
    assert _bareiss_div(F(7), 2) == F(7, 2)   # field division off the int path
    s = sqrt_scalar(F(2))
    assert _bareiss_div(2 * s, s) == 2


def test_nullspace_exact():
    # x + y + z = 0 over 3 unknowns: two free directions, exact kernel
    basis = nullspace_exact([[F(1), F(1), F(1)]], 3)
    assert len(basis) == 2
    for vec in basis:
        assert sum(vec) == 0
