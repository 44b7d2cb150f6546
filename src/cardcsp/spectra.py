"""Set-symmetric forms for E_{D_p}[f^2] and Var_{D_p}(f), their spectra, and
the projection onto the constraint null space.

The quadratic form of the second moment, restricted to polynomials of degree
at most d, is a matrix over the basis {phi_S : |S| <= d} whose (S,T) entry
depends only on (|S|, |T|, |S^T|).  Two entry conventions are supported:

  exact      : entry = E[phi_S phi_T]  (pairwise moment with the q-expansion)
  simplified : entry = delta_{|S delta T|}

They coincide at p = 1/2.  The exact form is authoritative: its null space
is exactly span{(sum_i phi_i) phi_S : |S| <= d-1} because the constraint
polynomial vanishes on the support.  The variance form subtracts
delta_{|S|} * delta_{|T|} and drops the empty-set row/column.

Eigenvectors are built from harmonic weight-k coefficient vectors
(sum_{j not in T} fhat(T u j) = 0 for all |T| = k-1) extended upward by the
alpha table:  i*a_{k,k+i-1} + (k+i)*q*a_{k,k+i} + (n-2k-i)*a_{k,k+i+1} = 0.
At p = 1/2 the extended vectors are exact eigenvectors with eigenvalue

  tau'_0 = sum_{l=0}^{k} (-1)^l C(k,l) tau_{2l},
  tau_{2l} = sum_{i=0}^{d-k} a_{k,k+i} sum_t C(l,t) C(n-k-2l, i-t) delta_{2l+i-2t},

whose leading term is the closed form sum_{even i <= d-k} ((i-1)!!)^2 / i!.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from typing import Dict, List, Tuple

import numpy as np

from .cardinal_dist import CardinalDist
from .errors import InputError, ResourceError
from .exact import (Scalar, make_qe, nullspace_exact, scalar_sign,
                    solve_linear_exact, to_float)
from .poly import Basis, MultilinearPoly, Subset


def subsets_upto(n: int, d: int, include_empty: bool = True) -> List[Subset]:
    """All subsets of [1..n] of size <= d, ordered by (size, lex)."""
    out: List[Subset] = [()] if include_empty else []
    for k in range(1, d + 1):
        out.extend(combinations(range(1, n + 1), k))
    return out


# ---------------------------------------------------------------------------
# alpha table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlphaTable:
    """Extension coefficients alpha_{k,k+i} for 0 <= k <= d, 0 <= i <= d-k."""

    n: int
    p: Fraction
    d: int
    values: Dict[Tuple[int, int], Scalar]  # keyed by (k, k+i)

    def get(self, k: int, size: int) -> Scalar:
        if size < k:
            return Fraction(0)
        return self.values[(k, size)]


def alpha_table(n: int, p, d: int) -> AlphaTable:
    """Solve the alpha recurrence exactly; requires n > 2d (denominators)."""
    if n <= 2 * d:
        raise InputError(f"alpha table needs n > 2d (n={n}, d={d})")
    p = Fraction(p)
    q = make_qe(0, (2 * p - 1) / (p * (1 - p)), p * (1 - p))
    values: Dict[Tuple[int, int], Scalar] = {}
    for k in range(d + 1):
        values[(k, k)] = Fraction(1)
        prev: Scalar = Fraction(0)   # alpha_{k,k-1} plays no role at i = 0
        cur: Scalar = Fraction(1)
        for i in range(0, d - k):
            nxt = -(i * prev + (k + i) * q * cur) / (n - 2 * k - i)
            values[(k, k + i + 1)] = nxt
            prev, cur = cur, nxt
    return AlphaTable(n=n, p=p, d=d, values=values)


# ---------------------------------------------------------------------------
# set-symmetric forms
# ---------------------------------------------------------------------------

@dataclass
class SetSymmetricForm:
    """Quadratic form over {phi_S : |S| <= d}; kind 'A' (second moment) or
    'B' (variance, empty set omitted)."""

    n: int
    d: int
    p: Fraction
    kind: str                 # 'A' or 'B'
    exact: bool = True
    dist: CardinalDist = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("A", "B"):
            raise InputError("kind must be 'A' or 'B'")
        if self.dist is None:
            self.dist = CardinalDist(self.n, self.p)
        self.p = Fraction(self.p)

    def entry(self, s: int, t: int, c: int) -> Scalar:
        """Matrix entry for |S|=s, |T|=t, |S^T|=c."""
        u = s + t - 2 * c
        base = self.dist.phi_pair_moment(c, u) if self.exact else self.dist.delta(u)
        if self.kind == "A":
            return base
        return base - self.dist.delta(s) * self.dist.delta(t)

    def labels(self) -> List[Subset]:
        return subsets_upto(self.n, self.d, include_empty=(self.kind == "A"))


def _set_symmetric_matrix(labels: List[Subset], value) -> List[List[Scalar]]:
    """Symmetric matrix over labels whose (S, T) entry depends only on
    key = (|S|, |T|, |S^T|): value(key, i, j) runs once per key, at the
    first pair (i <= j) that has it."""
    table: Dict[Tuple[int, int, int], Scalar] = {}
    sets = [set(s) for s in labels]
    size = len(labels)
    matrix = [[None] * size for _ in range(size)]
    for i in range(size):
        si = sets[i]
        li = len(si)
        row = matrix[i]
        for j in range(i, size):
            key = (li, len(sets[j]), len(si & sets[j]))
            val = table.get(key)
            if val is None:
                val = table[key] = value(key, i, j)
            row[j] = val
            matrix[j][i] = val
    return matrix


def build_dense(form: SetSymmetricForm, dense_cap: int = 2000):
    """(labels, matrix) with exact entries; entries shared via the
    (|S|,|T|,|S^T|) table so the dense build is cheap."""
    labels = form.labels()
    size = len(labels)
    if size > dense_cap:
        raise ResourceError(f"dense form of dimension {size} exceeds cap {dense_cap}")
    return labels, _set_symmetric_matrix(labels, lambda key, i, j: form.entry(*key))


def quadratic_form_value(form: SetSymmetricForm, f: MultilinearPoly) -> Scalar:
    """f^T M f without materializing the dense matrix (sparse f)."""
    if f.basis is not Basis.PHI and form.p != Fraction(1, 2):
        raise InputError("convert f to the phi basis first")
    items = list(f.coeffs.items())
    total: Scalar = Fraction(0)
    for i, (s, cs) in enumerate(items):
        if form.kind == "B" and not s:
            continue
        set_s = set(s)
        for j in range(i, len(items)):
            t, ct = items[j]
            if form.kind == "B" and not t:
                continue
            val = form.entry(len(s), len(t), len(set_s.intersection(t)))
            term = cs * ct * val
            total = total + (term if i == j else 2 * term)
    return total


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def eigenvalue_closed_form(d: int, k: int) -> Fraction:
    """Leading-order eigenvalue of the k-th extended eigenspace:
    sum over even i <= d-k of ((i-1)!!)^2 / i!."""
    if not 0 <= k <= d:
        raise InputError("need 0 <= k <= d")
    total = Fraction(0)
    for i in range(0, d - k + 1, 2):
        total += Fraction(double_factorial(i - 1) ** 2, factorial(i))
    return total


def vk_eigenvalue_exact(n: int, p, d: int, k: int) -> Scalar:
    """Exact eigenvalue of the extended weight-k eigenspace in the simplified
    form (authoritative at p = 1/2 where simplified == exact)."""
    dist = CardinalDist(n, p)
    alphas = alpha_table(n, p, d)
    tau: Dict[int, Scalar] = {}
    for l in range(0, k + 1):
        acc: Scalar = Fraction(0)
        for i in range(0, d - k + 1):
            inner: Scalar = Fraction(0)
            for t in range(0, min(i, l) + 1):
                cnt = comb(l, t) * comb(n - k - 2 * l, i - t)
                if cnt:
                    inner = inner + cnt * dist.delta(2 * l + i - 2 * t)
            acc = acc + alphas.get(k, k + i) * inner
        tau[2 * l] = acc
    total: Scalar = Fraction(0)
    for l in range(0, k + 1):
        total = total + (-1) ** l * comb(k, l) * tau[2 * l]
    return total


def harmonic_basis(n: int, k: int) -> List[Dict[Subset, Fraction]]:
    """Exact basis of weight-k coefficient vectors with all partial sums
    sum_{j not in T} v(T u j) = 0 over |T| = k-1; dimension C(n,k)-C(n,k-1)."""
    cols = list(combinations(range(1, n + 1), k))
    if k == 0:
        return [{(): Fraction(1)}]
    col_index = {s: i for i, s in enumerate(cols)}
    rows = []
    for t in combinations(range(1, n + 1), k - 1):
        row = [Fraction(0)] * len(cols)
        t_set = set(t)
        for j in range(1, n + 1):
            if j not in t_set:
                row[col_index[tuple(sorted(t + (j,)))]] = Fraction(1)
        rows.append(row)
    basis = nullspace_exact(rows, len(cols))
    return [{cols[i]: v for i, v in enumerate(vec) if v != 0} for vec in basis]


def vk_basis(n: int, p, d: int, k: int) -> List[Dict[Subset, Scalar]]:
    """Basis of the extended weight-k eigenspace inside {phi_S : |S| <= d}:
    harmonic at weight k, alpha-extended to the higher weights, zero below."""
    alphas = alpha_table(n, p, d)
    out = []
    for vec in harmonic_basis(n, k):
        ext: Dict[Subset, Scalar] = dict(vec)
        for size in range(k + 1, d + 1):
            a = alphas.get(k, size)
            if scalar_sign(a) == 0:
                continue
            for t in combinations(range(1, n + 1), size):
                acc: Scalar = Fraction(0)
                for s in combinations(t, k):
                    c = vec.get(s)
                    if c is not None:
                        acc = acc + c
                if scalar_sign(acc) != 0:
                    ext[t] = a * acc
        out.append(ext)
    return out


def null_space_vector(dist: CardinalDist, subset: Subset) -> Dict[Subset, Scalar]:
    """Coefficients of (sum_i phi_i) * phi_S: the generic null direction."""
    s = tuple(sorted(subset))
    out: Dict[Subset, Scalar] = {}
    set_s = set(s)
    for j in range(1, dist.n + 1):
        if j in set_s:
            key = tuple(x for x in s if x != j)
        else:
            key = tuple(sorted(s + (j,)))
        out[key] = out.get(key, Fraction(0)) + 1
    if s:
        out[s] = out.get(s, Fraction(0)) + len(s) * dist.q
        if scalar_sign(out[s]) == 0:
            del out[s]
    return out


@dataclass
class EigenCluster:
    value: float
    multiplicity: int
    closed_form: float
    gap: float


@dataclass
class EigenSummary:
    n: int
    d: int
    p: Fraction
    kind: str
    exact_entries: bool
    null_dim: int
    nonzero_eigenvalues: List[float]
    clusters: List[EigenCluster]

    def eigenspace_dims(self) -> List[int]:
        return [c.multiplicity for c in self.clusters]


def eigen_summary(form: SetSymmetricForm, dense_cap: int = 2000,
                  null_tol: float = 1e-7) -> EigenSummary:
    """Dense symmetric eigensolve; clusters grouped within 10/n of each other
    and matched to the nearest closed-form value."""
    labels, matrix = build_dense(form, dense_cap)
    size = len(labels)
    m = np.empty((size, size))
    for i, row in enumerate(matrix):
        m[i] = [to_float(v) for v in row]
    eigenvalues = np.linalg.eigvalsh(m)
    null_dim = int(np.sum(np.abs(eigenvalues) <= null_tol))
    nonzero = sorted(float(v) for v in eigenvalues if abs(v) > null_tol)
    gap = 10.0 / form.n
    clusters: List[EigenCluster] = []
    candidates = [float(eigenvalue_closed_form(form.d, k))
                  for k in range(0 if form.kind == "A" else 1, form.d + 1)]
    start = 0
    for i in range(1, len(nonzero) + 1):
        if i == len(nonzero) or nonzero[i] - nonzero[i - 1] > gap:
            vals = nonzero[start:i]
            center = sum(vals) / len(vals)
            nearest = min(candidates, key=lambda c: abs(c - center)) if candidates else float("nan")
            clusters.append(EigenCluster(value=center, multiplicity=len(vals),
                                         closed_form=nearest,
                                         gap=abs(center - nearest)))
            start = i
    return EigenSummary(n=form.n, d=form.d, p=form.p, kind=form.kind,
                        exact_entries=form.exact, null_dim=null_dim,
                        nonzero_eigenvalues=nonzero, clusters=clusters)


# ---------------------------------------------------------------------------
# projection onto the constraint null space
# ---------------------------------------------------------------------------

@dataclass
class ProjectionResult:
    h: MultilinearPoly              # degree <= d-1
    residual: MultilinearPoly       # f - fhat(0) - (sum_i phi_i) h
    residual_norm_sq: Scalar


def constraint_poly(n: int, basis: Basis, p=None) -> MultilinearPoly:
    """sum_i phi_i (or sum_i x_i in the chi basis)."""
    return MultilinearPoly(n, {(i,): Fraction(1) for i in range(1, n + 1)}, basis, p)


def project_null(f: MultilinearPoly, dist: CardinalDist,
                 mode: str = "exact") -> ProjectionResult:
    """Least-squares projection of f - fhat(0) onto the null space of the
    variance form: span{1} + span{(sum_i phi_i) phi_S : |S| <= deg(f)-1}.

    Returns the generator coefficients h and the orthogonal residual
    f - fhat(0) - c* - (sum_i phi_i) h, where the constant c* absorbs the
    empty-set component (the residual has no constant term).  Equivalently:
    the generators are projected with their empty-set coordinate dropped.
    The residual is orthogonal to 1 and to every generator, exactly: the
    Gram system is solved in exact arithmetic (the only mode is "exact").
    Chi input is accepted at p = 1/2 where the bases coincide.
    """
    if mode != "exact":
        raise InputError("mode must be 'exact'")
    if f.basis is Basis.PHI:
        if f.p != dist.p:
            raise InputError("bias mismatch between f and dist")
    elif dist.p != Fraction(1, 2):
        raise InputError("projection needs the phi basis for p != 1/2")
    d = f.degree_bound
    g0 = f.without_constant()
    if d == 0:
        zero = MultilinearPoly.zero(f.n, f.basis, f.p)
        return ProjectionResult(h=zero, residual=zero, residual_norm_sq=Fraction(0))
    gen_sets = subsets_upto(f.n, d - 1)
    generators = []
    for s in gen_sets:
        vec = null_space_vector(dist, s)
        vec.pop((), None)   # the constant direction is spanned separately
        generators.append(vec)
    # The generators are permutation-equivariant, so the Gram matrix is
    # set-symmetric: one _dot per (|S|, |T|, |S^T|).
    gram = _set_symmetric_matrix(
        gen_sets, lambda key, i, j: _dot(generators[i], generators[j]))
    rhs = [_dot(gen, g0.coeffs) for gen in generators]
    coeffs = solve_linear_exact(gram, rhs)
    h = MultilinearPoly(f.n, {s: c for s, c in zip(gen_sets, coeffs)
                              if scalar_sign(c) != 0}, f.basis, f.p)
    residual = (g0 - constraint_poly(f.n, f.basis, f.p) * h).without_constant()
    return ProjectionResult(h=h, residual=residual,
                            residual_norm_sq=residual.l2_norm_sq())


def _dot(vec: Dict[Subset, Scalar], other: Dict[Subset, Scalar]) -> Scalar:
    if len(other) < len(vec):
        vec, other = other, vec
    total: Scalar = Fraction(0)
    for s, c in vec.items():
        oc = other.get(s)
        if oc is not None:
            total = total + c * oc
    return total

