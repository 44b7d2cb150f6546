"""Shared generators: graphs as cut instances, random CSPs, random polynomials."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, gcd
import random
from typing import List, Tuple

import pytest
from hypothesis import strategies as st

import cardcsp.solver as solver
from cardcsp.cardinal_dist import CardinalDist, chi_expectation, chi_variance
from cardcsp.csp_model import (HEADER_COUNT_MAX, _SIGN_OF, Constraint, CspInstance,
                               GlobalCardinality, _at_line, _check_scope, to_polynomial)
from cardcsp.errors import InputError, ParseError
from cardcsp.exact import (QE, make_qe, parse_count, parse_rational, round_half_away,
                           scalar_inverse)
from cardcsp.oracle import _revolving_door
from cardcsp.poly import (Basis, MultilinearPoly, int_numerators, phi_square_q, phi_values,
                          times_constraint, up)
from cardcsp.rounding import (RoundingOutcome, active_bound_constant, gamma_ladder,
                              round_bisection, round_global)
from cardcsp.solver import (Verdict, _complete_witness, _feasible_layers,
                            certification_threshold, enumerate_kernel)
from cardcsp.spectra import _over_ints, alpha_table, project_null, subsets_upto

CUT = frozenset({(1, -1), (-1, 1)})

# the characters str.splitlines breaks a line at besides "\n" and "\r";
# the instance and config readers end a line at "\n" alone
SPLITLINES_BREAKS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def as_fraction(x) -> Fraction:
    """Coerce to Fraction; raises if x has an irrational part."""
    if isinstance(x, QE):
        raise ValueError(f"value {x!r} is not rational")
    return Fraction(x)


def nearest_multiple(x: Fraction, step: Fraction) -> Fraction:
    """Closest multiple of step to x; halves round away from zero."""
    if step <= 0:
        raise ValueError("step must be positive")
    q = Fraction(x) / step
    return round_half_away(q.numerator, q.denominator) * step


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


def parse_instance_reference(text: str):
    """The parser parse_instance replaced: a token list of every non-blank
    line first, then one walk over it that tokenizes, maps and checks each
    pattern line of every constraint."""
    tokens: List[Tuple[int, List[str]]] = []
    for idx, raw in enumerate(text.split("\n"), start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        fields = raw.split()
        if fields:
            tokens.append((idx, fields))
    if not tokens:
        raise ParseError("empty instance", 1)
    line_no, head = tokens[0]
    if head[0] != "csp" or len(head) != 5:
        raise ParseError("expected header 'csp <n> <m> <d> <p_num>/<p_den>'", line_no)
    try:
        n, m, d = (parse_count(name, text, HEADER_COUNT_MAX)
                   for name, text in zip("nmd", head[1:4]))
        p = parse_rational(head[4])
    except InputError as exc:
        raise ParseError(f"bad header field: {exc}", line_no) from exc
    if n < 1 or m < 0 or d < 1:
        raise ParseError("n and d must be positive, m nonnegative", line_no)
    card = _at_line(line_no, GlobalCardinality, n, p)

    constraints: List[Constraint] = []
    pos, end = 1, len(tokens)
    while pos < end:
        line_no, tok = tokens[pos]
        if tok[0] != "c":
            raise ParseError(f"expected constraint line 'c ...', got {tok[0]!r}", line_no)
        try:
            arity = parse_count("arity", tok[1])
            variables = tuple(parse_count("variable", text) for text in tok[2:])
        except (IndexError, InputError) as exc:
            raise ParseError(f"bad constraint line: {exc}", line_no) from exc
        if len(variables) != arity:
            raise ParseError(f"arity {arity} but {len(variables)} variables", line_no)
        _at_line(line_no, _check_scope, variables, n, d)
        pos += 1
        patterns = set()
        while pos < end:
            s_line, s_tok = tokens[pos]
            if s_tok[0] != "s":
                break
            try:
                pat = tuple(map(_SIGN_OF.__getitem__, s_tok[1:]))
            except KeyError as exc:
                raise ParseError(f"pattern entry {exc.args[0]!r} is not +-1",
                                 s_line) from None
            if len(pat) != arity:
                raise ParseError(f"pattern {pat} has arity {len(pat)}, not {arity}", s_line)
            patterns.add(pat)
            pos += 1
        if not patterns:
            if pos < end and tokens[pos][1][0] != "c":
                raise ParseError(f"expected pattern line 's ...', got {tokens[pos][1][0]!r}",
                                 tokens[pos][0])
            raise ParseError("constraint has no satisfying patterns", line_no)
        constraints.append(Constraint(variables, frozenset(patterns)))
    if len(constraints) != m:
        raise ParseError(f"header declares m={m} but found {len(constraints)} constraints",
                         tokens[0][0])
    return CspInstance(n=n, d=d, constraints=tuple(constraints)), card


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
    return MultilinearPoly.from_subsets(n, coeffs, basis, p)


def valid_biases(n):
    """Bias values from {1/2, 1/3, 1/4} with p*n integral."""
    return [p for p in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
            if (p * n).denominator == 1]


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def walked(monkeypatch):
    """The tables solver._walk is handed during the test, in call order."""
    tables = []
    walk = solver._walk

    def spy(table, kernel, layers):
        tables.append(table)
        return walk(table, kernel, layers)

    monkeypatch.setattr(solver, "_walk", spy)
    return tables


def dot(vec: dict, other: dict):
    """sum_S vec[S] * other[S] over the keys the two tables share."""
    return sum((c * other[s] for s, c in vec.items() if s in other), Fraction(0))


def gauss_solve_reference(matrix, rhs):
    """Gaussian elimination on a square system, the reference for the
    projection's normal equations: Fraction/QE arithmetic throughout, the
    first nonzero pivot at or below the current row, pivot-free unknowns
    set to 0, ValueError when inconsistent."""
    m = [row[:] for row in matrix]
    b = list(rhs)
    size = len(m)
    pivots = []
    for col in range(size):
        top = len(pivots)
        piv = next((i for i in range(top, size) if m[i][col]), None)
        if piv is None:
            continue
        m[top], m[piv] = m[piv], m[top]
        b[top], b[piv] = b[piv], b[top]
        inv = scalar_inverse(m[top][col])
        for i in range(top + 1, size):
            factor = m[i][col] * inv
            for j in range(col, size):
                m[i][j] = m[i][j] - factor * m[top][j]
            b[i] = b[i] - factor * b[top]
        pivots.append(col)
    if any(b[i] for i in range(len(pivots), size)):
        raise ValueError("inconsistent linear system")
    x = [Fraction(0)] * size
    for r in range(len(pivots) - 1, -1, -1):
        col = pivots[r]
        acc = b[r]
        for j in range(col + 1, size):
            acc = acc - m[r][j] * x[j]
        x[col] = acc * scalar_inverse(m[r][col])
    return x


def nullspace_reference(matrix, ncols: int):
    """Gauss-Jordan null space: a basis of the right null space of a matrix
    (list of rows) over Q or Q[sqrt(r)], one coordinate vector per free
    column after row reduction, in increasing free-column order."""
    m = [[v if isinstance(v, QE) else Fraction(v) for v in row] for row in matrix]
    nrows = len(m)
    pivots = []  # (row, col)
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = scalar_inverse(m[row][col])
        m[row] = [v * inv for v in m[row]]
        for i in range(nrows):
            if i != row and m[i][col] != 0:
                f = m[i][col]
                m[i] = [vi - f * vr for vi, vr in zip(m[i], m[row])]
        pivots.append((row, col))
        row += 1
        if row == nrows:
            break
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, c in pivots:
            vec[c] = -m[r][free]
        basis.append(vec)
    return basis


def rank_reference(rows) -> int:
    """Rank of an int matrix (list of rows) by fraction-free elimination:
    row_i <- pivot * row_i - factor * row_top, each row then divided by the
    gcd of its entries, so every entry stays a small int."""
    m = [list(row) for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        pivot = top[col]
        for i in range(rank + 1, len(m)):
            factor = m[i][col]
            if factor:
                row = [pivot * a - factor * b for a, b in zip(m[i], top)]
                g = gcd(*row)
                m[i] = [a // g for a in row] if g > 1 else row
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# The dense moment form and its float eigensolve: the reference for the
# exact per-weight blocks of spectra.eigen_summary.
# ---------------------------------------------------------------------------

DENSE_NULL_TOL = 1e-7   # float eigenvalues this close to 0 count as the null space


def build_dense(form):
    """(labels, matrix) with exact entries over the labels subsets_upto(n, d)
    (without the empty set for kind B); the (S, T) entry is
    form.entry(|S|, |T|, |S^T|), computed once per distinct triple."""
    labels = subsets_upto(form.n, form.d)
    if form.kind == "B":
        labels = labels[1:]     # the empty set, mask 0, comes first
    table = {}
    size = len(labels)
    matrix = [[None] * size for _ in range(size)]
    for i, si in enumerate(labels):
        for j in range(i, size):
            key = (si.bit_count(), labels[j].bit_count(), (si & labels[j]).bit_count())
            if key not in table:
                table[key] = form.entry(*key)
            matrix[i][j] = matrix[j][i] = table[key]
    return labels, matrix


def dense_spectrum_reference(form):
    """(null_dim, sorted nonzero eigenvalues) of the dense form from
    numpy.linalg.eigvalsh, counting |value| <= DENSE_NULL_TOL as zero."""
    import numpy as np
    _, matrix = build_dense(form)
    size = len(matrix)   # reshape keeps the 0 x 0 form (kind B, d = 0) two-dimensional
    values = np.linalg.eigvalsh(np.array([[float(v) for v in row] for row in matrix],
                                         dtype=float).reshape(size, size))
    nonzero = sorted(float(v) for v in values if abs(v) > DENSE_NULL_TOL)
    return len(values) - len(nonzero), nonzero


# ---------------------------------------------------------------------------
# References with chi and phi written out separately, for the code that
# reads each basis through poly.basis_constants.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def gram_annihilator_reference(n, d, q):
    """Coefficients s_0 .. s_D (low to high, s_0 != 0) of a polynomial with
    G s(G) = 0 for project_null's Gram operator G on levels < d: the ladder
    route, independent of spectra's orbit build and of its _charpoly.

    G commutes with S_n, so it keeps each ladder U^i v (i < d-j) of a
    harmonic v of weight j < d (down v = 0), and there A is tridiagonal:
    A U^i v = U^{i+1} v + i(n-2j-i+1) U^{i-1} v + q(j+i) U^i v, by the sl_2
    relation down U^i v = i(n-2j-i+1) U^{i-1} v (Proctor 1982).  Block K_j
    is A, then P_0 (level 0 is the i = 0 row of weight 0), then A, cut to
    i < d-j.  The product of det(x - K_j) annihilates G (a ladder that
    ends early, U^i v = 0, only adds roots).  Its x factors are stripped:
    G is symmetric, so G s(G) = 0 still holds."""
    m = [1]
    for j in range(d):
        size = d - j
        ladder = [[0] * (size + 1) for _ in range(size + 1)]
        for i in range(size + 1):
            ladder[i][i] = q * (j + i)
            if i < size:
                ladder[i + 1][i] = 1
            if i:
                ladder[i - 1][i] = i * (n - 2 * j - i + 1)
        kept = range(1 if j == 0 else 0, size + 1)
        block = [[sum(ladder[a][k] * ladder[k][c] for k in kept) for c in range(size)]
                 for a in range(size)]
        m = _poly_mul(m, faddeev_leverrier_reference(block))
    while not m[0]:
        m.pop(0)
    return tuple(_over_ints(m)[1])


def faddeev_leverrier_reference(m):
    """det(x I - m), coefficients low to high (Faddeev-LeVerrier):
    M_k = m M_{k-1} + c_{size-k+1} I and c_{size-k} = -tr(m M_k) / k.  On
    an int matrix every c is an int, so the division is exact there."""
    size = len(m)
    coeffs = [0] * size + [1]
    acc = [[0] * size for _ in range(size)]
    for k in range(1, size + 1):
        acc = [[sum(m[i][l] * acc[l][c] for l in range(size))
                + (coeffs[size - k + 1] if i == c else 0) for c in range(size)]
               for i in range(size)]
        trace = sum(m[i][l] * acc[l][i] for i in range(size) for l in range(size))
        coeffs[size - k] = -trace // k if isinstance(trace, int) else -trace * Fraction(1, k)
    return coeffs


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] = out[i + k] + x * y
    return out


def constraint_poly(n, basis, p=None):
    """sum_i phi_i (or sum_i x_i in the chi basis): (constraint_poly - shift) * h
    through MultilinearPoly.__mul__ is the reference for poly.times_constraint."""
    return MultilinearPoly.from_subsets(n, {(i,): Fraction(1) for i in range(1, n + 1)},
                                        basis, p)


def null_space_vector(dist, subset):
    """Coefficients of (sum_i phi_i) * phi_S, written out on tuple keys."""
    s = tuple(sorted(subset))
    out = {}
    for j in range(1, dist.n + 1):
        if j in s:
            key = tuple(x for x in s if x != j)
        else:
            key = tuple(sorted(s + (j,)))
        out[key] = out.get(key, Fraction(0)) + 1
    if s:
        out[s] = out.get(s, Fraction(0)) + len(s) * dist.q
        if out[s] == 0:
            del out[s]
    return out


def restrict_reference(f, fixed):
    """f.restrict(fixed) as a loop over sorted-tuple keys."""
    out = {}
    for s, c in f.items_sorted():
        sign = 1
        rest = []
        for i in s:
            if i in fixed:
                sign *= fixed[i]
            else:
                rest.append(i)
        key = tuple(rest)
        out[key] = out.get(key, Fraction(0)) + (c if sign > 0 else -c)
    return MultilinearPoly.from_subsets(f.n, out, Basis.CHI)


def mul_reference(f, g):
    """f * g: chi keys by the symmetric difference; phi also expands each
    shared index by phi_i^2 = q phi_i + 1."""
    out = {}
    if f.basis is Basis.CHI:
        for s, cs in f.items_sorted():
            for t, ct in g.items_sorted():
                key = tuple(sorted(set(s).symmetric_difference(t)))
                out[key] = out.get(key, Fraction(0)) + cs * ct
    else:
        q = phi_square_q(f.p)
        for s, cs in f.items_sorted():
            for t, ct in g.items_sorted():
                common = set(s).intersection(t)
                base = tuple(sorted(set(s).symmetric_difference(t)))
                for k in range(len(common) + 1):
                    weight = cs * ct * q ** k if k else cs * ct
                    for extra in combinations(sorted(common), k):
                        key = tuple(sorted(base + extra))
                        out[key] = out.get(key, Fraction(0)) + weight
    return MultilinearPoly.from_subsets(f.n, out, f.basis, f.p)


def evaluate_reference(f, a):
    """f(a): a chi term's sign is the parity of its -1 entries; a phi term
    multiplies the point values."""
    total = Fraction(0)
    if f.basis is Basis.CHI:
        for s, c in f.items_sorted():
            negs = sum(1 for i in s if a[i - 1] < 0)
            total = total + (c if negs % 2 == 0 else -c)
        return total
    pos, neg = phi_values(f.p)
    for s, c in f.items_sorted():
        term = c
        for i in s:
            term = term * (pos if a[i - 1] > 0 else neg)
        total = total + term
    return total


def convert_basis_reference(f, target, p=None):
    """One loop per direction: x_i = lin phi_i + shift into phi, and
    phi_i = x_i / lin - shift / lin back to chi."""
    p = Fraction(p) if target is Basis.PHI else f.p
    r = p * (1 - p)
    shift = 1 - 2 * p
    out = {}
    if target is Basis.PHI:
        lin = make_qe(0, 2, r)
        for s, c in f.items_sorted():
            for j in range(len(s) + 1):
                weight = c * lin ** j * shift ** (len(s) - j)
                for sub in combinations(s, j):
                    out[sub] = out.get(sub, Fraction(0)) + weight
    else:
        inv_lin = make_qe(0, Fraction(1, 2) / r, r)
        for s, c in f.items_sorted():
            scale = c * inv_lin ** len(s)
            for j in range(len(s) + 1):
                weight = scale * (-shift) ** (len(s) - j)
                for sub in combinations(s, j):
                    out[sub] = out.get(sub, Fraction(0)) + weight
    return MultilinearPoly.from_subsets(f.n, out, target, p)


def slice_pairs_reference(f, card):
    """f's (a, b) value pairs, f = a + b sqrt(p(1-p)), along the oracle's
    revolving-door walk: a chi flip negates each member term, a phi flip
    scales it by the ratio of the phi point values."""
    p = f.p
    terms, by_var = [], {}
    value = [Fraction(0), Fraction(0)]
    current = set()
    for step, subset in enumerate(_revolving_door(card.n, card.num_negative)):
        new = set(subset)
        if step == 0:
            start = tuple(-1 if i + 1 in new else 1 for i in range(card.n))
            for idx, (s, c) in enumerate(f.items_sorted()):
                term = evaluate_reference(
                    MultilinearPoly.from_subsets(f.n, {s: c}, f.basis, p), start)
                pair = [term.a, term.b] if isinstance(term, QE) else [Fraction(term), Fraction(0)]
                terms.append(pair)
                for i in s:
                    by_var.setdefault(i, []).append(idx)
                value[0] += pair[0]
                value[1] += pair[1]
            flips = []
        else:
            flips = [(i, True) for i in current - new] + [(i, False) for i in new - current]
        for var, now_positive in flips:
            for idx in by_var.get(var, ()):
                pair = terms[idx]
                a, b = pair
                if f.basis is Basis.CHI:
                    value[0] -= 2 * a
                    value[1] -= 2 * b
                    pair[0], pair[1] = -a, -b
                else:
                    ratio = -p / (1 - p) if now_positive else -(1 - p) / p
                    value[0] += (ratio - 1) * a
                    value[1] += (ratio - 1) * b
                    pair[0], pair[1] = ratio * a, ratio * b
        current = new
        yield tuple(value)


@st.composite
def basis_polys(draw, n: int, basis: Basis, p):
    """Up to six terms of degree <= 3 over n variables in `basis`, with
    small rational coefficients drawn in either basis; a draw in the other
    basis is rewritten by convert_basis_reference, which gives QE
    coefficients when p != 1/2."""
    source = draw(st.sampled_from(Basis))
    subsets = draw(st.lists(st.frozensets(st.integers(1, n), max_size=min(n, 3)),
                            max_size=6))
    coeffs = {tuple(sorted(s)): Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
              for s in subsets}
    f = MultilinearPoly.from_subsets(n, coeffs, source, p)
    return f if source is basis else convert_basis_reference(f, basis, p)


# ---------------------------------------------------------------------------
# The Fraction reconstruction scan that rounding's int numerators replaced:
# one MultilinearPoly h per candidate, the s2 loop written out, Fraction
# beta weights from their recurrence.
# ---------------------------------------------------------------------------

def beta_weights_reference(big_d):
    """beta_{D-i,i} for i = 1..D-1 from beta_{D-1,1} = (D-2)! and
    beta_{D-i-1,i+1} = -i/(D-i-1) beta_{D-i,i} (index 0 unused)."""
    betas = [Fraction(0)] * big_d
    betas[1] = Fraction(factorial(big_d - 2))
    for i in range(1, big_d - 1):
        betas[i + 1] = betas[i] * Fraction(-i, big_d - i - 1)
    return betas


class _ReconstructorReference:
    def __init__(self, f, pivot_pool, shift):
        self.f = f
        self.n = f.n
        self.pool = tuple(sorted(pivot_pool))
        self.shift = shift
        self.h = {}
        self._f_cache = {}

    def equation_constant(self, t):
        val = self._f_cache.get(t)
        if val is not None:
            return val
        val = as_fraction(self.f.coefficient(t))
        if self.shift:
            val += self.shift * self.h.get(t, Fraction(0))
        t_set = set(t)
        for j in range(1, self.n + 1):
            if j not in t_set:
                up = self.h.get(tuple(sorted(t + (j,))))
                if up is not None:
                    val -= up
        self._f_cache[t] = val
        return val

    def pivot_for(self, s1, size):
        s1_set = set(s1)
        chosen = [v for v in self.pool if v not in s1_set][:size]
        j = 1
        while len(chosen) < size:
            if j not in s1_set and j not in self.pool:
                chosen.append(j)
            j += 1
            if j > self.n and len(chosen) < size:
                raise InputError("not enough variables to build a pivot set")
        return tuple(sorted(chosen))

    def solve_weight(self, w):
        big_d = w + 1
        if big_d == 1:
            self.h[()] = self.equation_constant((self.pool[0],))
            return
        betas = beta_weights_reference(big_d)
        fact = factorial(big_d - 1)
        sign_d = -1 if big_d % 2 else 1
        new_coeffs = {}
        for s1 in combinations(range(1, self.n + 1), w):
            pivot = self.pivot_for(s1, big_d)
            r_total = Fraction(0)
            for s2 in combinations(pivot, w):
                for i in range(1, big_d):
                    for t1 in combinations(s1, big_d - i):
                        for t2 in combinations(s2, i):
                            r_total += betas[i] * self.equation_constant(
                                tuple(sorted(t1 + t2)))
            closing = self.equation_constant(pivot)
            value = -sign_d * (closing - sign_d * r_total / fact) / big_d
            if value != 0:
                new_coeffs[s1] = value
        self.h.update(new_coeffs)
        self._f_cache.clear()


def pivot_reference(s1, pool, size, n):
    """Bitmask of the size-`size` pivot paired with the row bitmask s1: the
    lowest `size` bits outside s1, counted in the order that lists the pool
    bitmask's bits first (each part in increasing order), so that every
    size-`size` subset of s1 u pivot contains a pool element."""
    order = ([j for j in range(n) if pool >> j & 1]
             + [j for j in range(n) if not pool >> j & 1])
    chosen = [j for j in order if not s1 >> j & 1][:size]
    if len(chosen) < size:
        raise InputError("not enough variables to build a pivot set")
    return sum(1 << j for j in chosen)


def reconstruct_h_reference(f, pivot_pool, shift=0, top_weight_only=False):
    pool = tuple(sorted(set(pivot_pool)))
    rec = _ReconstructorReference(f, pool, shift)
    bottom = len(pool) - 1 if top_weight_only else 0
    for w in range(len(pool) - 1, bottom - 1, -1):
        rec.solve_weight(w)
    return MultilinearPoly.from_subsets(f.n, rec.h, Basis.CHI)


def top_active_reference(f_cur, h_top, level, n):
    """Active variables of the weight-`level` part of f_cur - (sum x_i) h_top."""
    coeffs = {s: as_fraction(c) for s, c in f_cur.items_sorted() if len(s) == level}
    for s, c in h_top.items_sorted():
        if len(s) != level - 1:
            continue
        for j in range(1, n + 1):
            if j not in s:
                key = tuple(sorted(s + (j,)))
                coeffs[key] = coeffs.get(key, Fraction(0)) - c
    out = set()
    for s, c in coeffs.items():
        if c != 0:
            out.update(s)
    return out


def survivors_reference(f_cur, cand, level, shift):
    """Variables a candidate leaves inactive at weight `level`."""
    h_top = reconstruct_h_reference(f_cur, cand, shift, top_weight_only=True)
    return f_cur.n - len(top_active_reference(f_cur, h_top, level, f_cur.n))


def round_global_scan_reference(f, dist, gamma, d, variance):
    """round_global's scan: (h_total, reduced, [(level, f_cur,
    exit_threshold, winner)] for every scanned level)."""
    shift = dist.target_sum
    n = f.n
    cprime = active_bound_constant(dist.p, d) if d else Fraction(0)
    bound = cprime * Fraction(variance) / (Fraction(gamma) ** 2)
    bar = n - int(bound) if bound < n else 0
    exit_threshold = bar if bar >= 1 else n
    shifted = constraint_poly(n, Basis.CHI) - MultilinearPoly.constant(n, shift)
    f_cur = f
    h_total = MultilinearPoly.zero(n)
    levels = []
    for level in range(d, 0, -1):
        top = {s: c for s, c in f_cur.items_sorted() if len(s) == level}
        if not top or n < 2 * level - 1:
            continue
        best_count, best_subset = -1, None
        for cand in combinations(range(1, n + 1), level):
            count = survivors_reference(f_cur, cand, level, shift)
            if count > best_count:
                best_count, best_subset = count, cand
                if count >= exit_threshold:
                    break
        levels.append((level, f_cur, exit_threshold, best_subset))
        h_level = reconstruct_h_reference(f_cur, best_subset, shift)
        f_cur = f_cur - shifted * h_level
        h_total = h_total + h_level
    return h_total, f_cur, levels


def round_bisection_reference(f, h_f, gamma, d):
    """round_bisection's values on MultilinearPoly Fraction arithmetic: the
    residual g0 - (sum x_i) h_f, the nearest_multiple snap per weight,
    reduced = g0 - (sum x_i) h and the constant-free norms."""
    g0 = f.without_constant()
    residual_sq = (g0 - times_constraint(h_f)).without_constant().l2_norm_sq()
    ladder = gamma_ladder(d, gamma)
    h = MultilinearPoly(f.n, {s: nearest_multiple(as_fraction(c), ladder[s.bit_count()])
                              for s, c in h_f.coeffs.items()}, Basis.CHI)
    reduced = g0 - times_constraint(h)
    reduced_sq = reduced.without_constant().l2_norm_sq()
    blowup = reduced_sq / residual_sq if residual_sq else Fraction(1)
    return RoundingOutcome(h=h, reduced=reduced,
                           active_set=frozenset(reduced.variables_used()),
                           norm_blowup=blowup, residual_norm_sq=residual_sq)


def enumerate_kernel_point_loop(reduced, kernel, card, base_correction):
    """enumerate_kernel's value and witness one feasible point at a time:
    for each feasible -1 count j, every j-subset of the sorted kernel is -1
    in turn, its value summed over the int numerators of reduced, and the
    -1 mask that holds the lowest differing bit wins a tie."""
    kernel = tuple(sorted(kernel))
    den, table = int_numerators(reduced.coeffs, "the reduced polynomial")
    terms = list(table.items())
    total = sum(table.values())
    best = best_mask = None
    for j in _feasible_layers(len(kernel), card):
        for negs in combinations([1 << (v - 1) for v in kernel], j):
            neg_mask = sum(negs)
            val = total - 2 * sum(c for m, c in terms if (m & neg_mask).bit_count() & 1)
            if best is None or val > best or (
                    val == best and neg_mask & (diff := neg_mask ^ best_mask) & -diff):
                best, best_mask = val, neg_mask
    arg = tuple(-1 if best_mask >> (v - 1) & 1 else 1 for v in kernel)
    return Fraction(best, den) + Fraction(base_correction), arg


def instance_variance(inst, card):
    """Var over the slice of the instance's counting polynomial."""
    return chi_variance(to_polynomial(inst), CardinalDist.from_card(card))


def seeded_int_table(rng: random.Random, n: int, degree: int, terms: int = 12) -> dict:
    """Int numerators keyed by bitmask on levels 0..degree over n >= degree
    variables, one of them nonzero on level degree."""
    def mask(k):
        return sum(1 << i for i in rng.sample(range(n), k))

    table = {mask(rng.randint(0, degree)): rng.randint(-9, 9)
             for _ in range(rng.randint(0, terms))}
    table[mask(degree)] = rng.choice((-1, 1)) * rng.randint(1, 9)
    return table


def chi_mean_variance_reference(den, table, card):
    """(E[f], Var(f)) on the slice for f = table / den by the pair binning
    that the superset sums replaced: each a_S to the bin |S| for the mean,
    a_S^2 to bin 0 and 2 a_S a_T to bin |S xor T| for the second moment,
    each bin weighted by E[chi_S] at its level; O(terms^2)."""
    degree = max((mask.bit_count() for mask in table), default=0)
    eps = [card.chi_moment(k) for k in range(min(2 * degree, card.n) + 1)]
    terms = list(table.items())
    first = [0] * (degree + 1)
    second = [0] * len(eps)
    for k, (mask, a) in enumerate(terms):
        first[mask.bit_count()] += a
        second[0] += a * a
        for other, b in terms[k + 1:]:
            second[(mask ^ other).bit_count()] += 2 * a * b
    mean = sum(h * eps[j] for j, h in enumerate(first)) / den
    return mean, sum(h * eps[j] for j, h in enumerate(second)) / (den * den) - mean * mean


def harmonic_basis(n, k):
    """Specht basis of the weight-k harmonic vectors (down(v) = 0: every
    partial sum sum_{j not in T} v(T u j) over |T| = k-1 vanishes), keyed by
    bitmask; dimension C(n,k)-C(n,k-1) for k <= n/2, else 0.

    One vector per top set B = (b_1 < ... < b_k), in lex order: with
    a_1 < ... < a_k the first k variables outside B, B is kept when
    a_i < b_i for every i, and its vector is the table of
    prod_i (x_{a_i} - x_{b_i}), 2^k entries of +-1.  Each x_a - x_b has
    down = 0, so the product does.  The vector's largest mask is B itself,
    so the vectors are independent (Filmus 2016, the Specht-module basis).
    """
    if n < 0 or k < 0:
        raise InputError(f"harmonic basis needs n, k >= 0 (n={n}, k={k})")
    out = []
    for top in combinations(range(n), k):
        rest = [i for i in range(n) if i not in top][:k]
        if len(rest) < k or any(a > b for a, b in zip(rest, top)):
            continue
        vec = {0: Fraction(1)}
        for a, b in zip(rest, top):
            vec = ({m | 1 << a: c for m, c in vec.items()}
                   | {m | 1 << b: -c for m, c in vec.items()})
        out.append(vec)
    return out


def vk_basis(n, p, d, k):
    """Basis of the extended weight-k eigenspace inside {phi_S : |S| <= d}
    on bitmask keys: harmonic at weight k, alpha-extended above, zero below."""
    if not 0 <= k <= d:
        raise InputError("need 0 <= k <= d")
    alphas = alpha_table(n, p, d)
    out = []
    for vec in harmonic_basis(n, k):
        ext = dict(vec)
        # up^m / m! sums vec over the weight-k subsets of each weight-(k+m) set
        layer = vec
        for size in range(k + 1, d + 1):
            layer = {t: c / (size - k) for t, c in up(layer, n).items()}
            a = alphas.get(k, size)
            ext.update((t, a * c) for t, c in layer.items() if a * c)
        out.append(ext)
    return out


def reference_verdict(inst, card, t):
    """decide's Verdict assembled from the public Fraction-level layers, in
    the order perfbench's replay calls them: to_polynomial, chi_expectation
    and chi_variance, the threshold, project_null and round_bisection at
    p = 1/2 or round_global otherwise, enumerate_kernel, and the witness
    completion.  The warnings are decide's, tested on the same values."""
    f = to_polynomial(inst)
    dist = CardinalDist.from_card(card)
    avg, var = chi_expectation(f, dist), chi_variance(f, dist)
    d = max(inst.d, 1)
    threshold = certification_threshold(d, card.p, t)
    if var >= threshold:
        return Verdict(answer="CertifiedAbove", branch="LargeVariance",
                       avg=avg, variance=var, threshold_used=threshold, t=t)
    warnings = []
    if 4 * t ** 4 > card.n:
        warnings.append(
            f"t^2 = {t * t} exceeds sqrt(n)/2: the rounding norm hypothesis "
            "is not established at this size; results remain exact")
    gamma = Fraction(1, 2 ** d)
    if card.p == Fraction(1, 2):
        proj = project_null(f, dist)
        outcome = round_bisection(f, proj.h, gamma, d=d, allow_large_residual=True)
        base = f.coefficient(())
        if outcome.residual_norm_sq ** 2 > card.n:
            warnings.append("projection residual exceeds sqrt(n); the 7^d blow-up "
                            "bound is heuristic here")
    else:
        if var * var > card.n:
            warnings.append(
                "variance exceeds sqrt(n); the kernel-size bound is heuristic here")
        outcome = round_global(f, dist, gamma, d=d, variance=var, allow_large_variance=True)
        base = Fraction(0)
    kernel = tuple(sorted(outcome.active_set))
    opt, arg = enumerate_kernel(outcome.reduced, kernel, card, base)
    return Verdict(answer="SolvedExactly", branch="SmallVariance", avg=avg, variance=var,
                   threshold_used=threshold, t=t, opt=opt,
                   witness=_complete_witness(kernel, arg, card), kernel=kernel,
                   warnings=warnings)
