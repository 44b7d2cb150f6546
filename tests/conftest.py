"""Shared generators: graphs as cut instances, random CSPs, random polynomials."""

from fractions import Fraction
import random

import pytest
from hypothesis import strategies as st

from cardcsp.csp_model import Constraint, CspInstance
from cardcsp.poly import Basis, MultilinearPoly

CUT = frozenset({(1, -1), (-1, 1)})


def graph_instance(n, edges):
    """MaxCut/MaxBisection instance: one cut constraint per edge."""
    return CspInstance(n=n, d=2,
                       constraints=tuple(Constraint((u, v), CUT) for u, v in edges))


def complete_graph(n):
    return graph_instance(n, [(i, j) for i in range(1, n + 1)
                              for j in range(i + 1, n + 1)])


def star_graph(n):
    return graph_instance(n, [(1, j) for j in range(2, n + 1)])


def path_graph(n):
    return graph_instance(n, [(i, i + 1) for i in range(1, n)])


def random_instance(rng: random.Random, n: int, d: int, m: int) -> CspInstance:
    cons = []
    for _ in range(m):
        k = rng.randint(1, d)
        variables = tuple(rng.sample(range(1, n + 1), k))
        patterns = set()
        while not patterns:
            patterns = {tuple(rng.choice((-1, 1)) for _ in range(k))
                        for _ in range(rng.randint(1, 2 ** k - 1))}
        cons.append(Constraint(variables, frozenset(patterns)))
    return CspInstance(n=n, d=d, constraints=tuple(cons))


@st.composite
def csp_instances(draw, n: int, d: int) -> CspInstance:
    """Up to six constraints of arity at most min(d, n) over n variables."""
    constraints = []
    for _ in range(draw(st.integers(0, 6))):
        arity = draw(st.integers(1, min(d, n)))
        variables = tuple(draw(st.permutations(range(1, n + 1)))[:arity])
        patterns = draw(st.frozensets(
            st.tuples(*[st.sampled_from((-1, 1))] * arity), min_size=1))
        constraints.append(Constraint(variables, patterns))
    return CspInstance(n=n, d=d, constraints=tuple(constraints))


def random_poly(rng: random.Random, n: int, degree: int, terms: int,
                basis: Basis = Basis.CHI, p=None,
                include_constant: bool = True) -> MultilinearPoly:
    coeffs = {}
    low = 0 if include_constant else 1
    for _ in range(terms):
        size = rng.randint(low, degree)
        s = tuple(sorted(rng.sample(range(1, n + 1), size)))
        coeffs[s] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return MultilinearPoly(n, coeffs, basis, p)


def valid_biases(n):
    """Bias values from {1/2, 1/3, 1/4} with p*n integral."""
    return [p for p in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
            if (p * n).denominator == 1]


@pytest.fixture
def rng():
    return random.Random(20240817)
