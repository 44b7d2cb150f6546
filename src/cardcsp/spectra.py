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

The projection onto that null space builds no Gram matrix, and solves no
system per instance.  The map from f to h commutes with S_n, so the
coefficient of f_S in h_T depends on (|S|, |T|, |S n T|) alone (the Johnson
scheme).  _projection_weights reads those numbers once per (n, deg f, q) off
the normal equations for one unit table {S_k} per level k, written on the
orbits (|T|, |T n S_k|) of the stabiliser of S_k: at most d(d+1)/2 values,
solved by the characteristic polynomial of that small system (_charpoly:
Berkowitz's, with no division), so nothing in the build grows with n.  The
core _project evaluates that operator on the superset sums of f's numerators
(poly.superset_sums, the table the slice moments read too; decide builds it
once), with no constraint product: at p = 1/2 every value from f's
numerators to h = y / D is an int over one positive denominator (off p = 1/2
the same lines run on QE scalars), and it forms no residual; at deg f = 0 it
returns an empty y.  h solves the normal equations, so the residual's
constant-free squared norm is |P_0 f|^2 - <h, (sum_i x_i) P_0 f>, which
_residual_norm reads off the same sums and f's table in O(|y| deg f)
lookups; decide's kernel step takes it from there.  project_null is the
wrapper: it forms the residual (poly.reduce_by_constraint), because it
returns it, and turns each output coefficient into a Fraction once.

The spectra come from small blocks too: a form commutes with S_n, so
on the ladder U^i v / i! of a harmonic v of weight j it is one small matrix,
shared by the C(n,j) - C(n,j-1) such v and similar to a symmetric one (the
ladder vectors are orthogonal).

The eigenvectors are harmonic weight-k coefficient vectors
(sum_{j not in T} fhat(T u j) = 0 for all |T| = k-1) extended upward by the
alpha table:  i*a_{k,k+i-1} + (k+i)*q*a_{k,k+i} + (n-2k-i)*a_{k,k+i+1} = 0.
At p = 1/2 the extended vectors are exact eigenvectors with eigenvalue

  lambda_k = sum_{i=0}^{d-k} a_{k,k+i} C(n-2k, i) sum_{l=0}^{k} (-1)^l C(k,l) delta_{2l+i},

row 0 of the weight-k block weighted by the alpha table, whose leading term
is the closed form sum_{even i <= d-k} ((i-1)!!)^2 / i!.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial
from typing import Dict, List, Tuple

from .cardinal_dist import GlobalCardinality, extend_slice_sequence
from .errors import InputError, ResourceError
from .exact import Scalar, _over_common_denominator, check_int, count_above, scalar_quotient
from .poly import (Basis, MultilinearPoly, exact_bias, phi_square_q, reduce_by_constraint,
                   superset_sums)


def subsets_upto(n: int, d: int) -> List[int]:
    """Bitmasks of all subsets of [1..n] of size <= d, ordered by (size, lex)."""
    bits = [1 << i for i in range(n)]
    out: List[int] = [0]
    for k in range(1, d + 1):
        out.extend(sum(c) for c in combinations(bits, k))
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
    if d < 0:
        raise InputError(f"alpha table needs d >= 0 (d={d})")
    if n <= 2 * d:
        raise InputError(f"alpha table needs n > 2d (n={n}, d={d})")
    p = exact_bias(p)
    q = phi_square_q(p)
    values: Dict[Tuple[int, int], Scalar] = {}
    for k in range(d + 1):
        seq = extend_slice_sequence([Fraction(1)], d - k, n, q=q, offset=k)
        values.update(((k, k + i), a) for i, a in enumerate(seq))
    return AlphaTable(n=n, p=p, d=d, values=values)


# ---------------------------------------------------------------------------
# set-symmetric forms
# ---------------------------------------------------------------------------

@dataclass
class SetSymmetricForm:
    """Quadratic form over {phi_S : |S| <= d}; kind 'A' (second moment) or
    'B' (variance, empty set omitted).  Its entries are moments of the
    slice distribution GlobalCardinality(n, p), kept as `dist`."""

    n: int
    d: int
    p: Fraction
    kind: str                 # 'A' or 'B'
    exact: bool = True

    def __post_init__(self):
        if self.kind not in ("A", "B"):
            raise InputError("kind must be 'A' or 'B'")
        if check_int("d", self.d) < 0:
            raise InputError("d must be nonnegative")
        self.p = exact_bias(self.p)
        self.dist = GlobalCardinality(self.n, self.p)

    def entry(self, s: int, t: int, c: int) -> Scalar:
        """Matrix entry for |S|=s, |T|=t, |S^T|=c."""
        u = s + t - 2 * c
        base = self.dist.phi_pair_moment(c, u) if self.exact else self.dist.delta(u)
        if self.kind == "A":
            return base
        return base - self.dist.delta(s) * self.dist.delta(t)


def quadratic_form_value(form: SetSymmetricForm, f: MultilinearPoly) -> Scalar:
    """f^T M f without materializing the dense matrix (sparse f)."""
    if f.n != form.n or (f.basis is Basis.PHI and f.p != form.p):
        raise InputError("f's variable count or bias differs from the form's")
    if f.basis is not Basis.PHI and form.p != Fraction(1, 2):
        raise InputError("convert f to the phi basis first")
    items = list(f.coeffs.items())
    total: Scalar = Fraction(0)
    for i, (s, cs) in enumerate(items):
        if form.kind == "B" and not s:
            continue
        for j in range(i, len(items)):
            t, ct = items[j]
            if form.kind == "B" and not t:
                continue
            val = form.entry(s.bit_count(), t.bit_count(), (s & t).bit_count())
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
    form (authoritative at p = 1/2 where simplified == exact): row 0 of the
    weight-k block weighted by the alpha table, since the extended vector
    is sum_i alpha_{k,k+i} W_i v."""
    if not 0 <= k <= d:
        raise InputError("need 0 <= k <= d")
    alphas = alpha_table(n, p, d)
    row = _weight_block(SetSymmetricForm(n, d, p, "A", exact=False), k)[0]
    return sum((alphas.get(k, k + i) * c for i, c in enumerate(row)), Fraction(0))


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
    null_dim: int
    nonzero_eigenvalues: List[float]
    clusters: List[EigenCluster]


def _weight_block(form: SetSymmetricForm, j: int) -> List[List[Scalar]]:
    """The form on the ladder W_i v = U^i v / i! of a harmonic v of weight j:
    row k, column i holds the coefficient of W_k v in form(W_i v), for the
    levels i, k = 0 .. min(d-j, n-2j) (from 1 for kind B at j = 0).

    Read at v = prod_{r<=j} (x_{a_r} - x_{b_r}) and the set
    T_k = {b_r} u (k variables off the pairs), where (W_k v)(T_k) = (-1)^j:
    (W_i v)(T) is (-1)^b when T holds one of each pair, b of them b_r, and
    i variables off the pairs, f of those in T_k, and 0 otherwise."""
    n = form.n
    levels = range(1 if form.kind == "B" and j == 0 else 0, min(form.d - j, n - 2 * j) + 1)
    block = []
    for k in levels:
        row = []
        for i in levels:
            total: Scalar = 0
            for b in range(j + 1):
                for f in range(min(i, k) + 1):
                    count = comb(j, b) * comb(k, f) * comb(n - 2 * j - k, i - f)
                    if count:
                        total = total + (-1) ** b * count * form.entry(j + i, j + k, b + f)
            row.append((-1) ** j * total)
        block.append(row)
    return block


def _real_roots(coeffs: List[float]) -> List[float]:
    """The roots, ascending, of a real-rooted polynomial (coefficients low to
    high): it is monotone between consecutive roots of its derivative
    (Rolle), so each such bracket, and the two out to Cauchy's bound, holds
    one root, found by bisection."""
    if len(coeffs) < 3:
        return [-coeffs[0] / coeffs[1]] if len(coeffs) == 2 else []

    def value(x: float) -> float:
        out = 0.0
        for c in reversed(coeffs):
            out = out * x + c
        return out

    bound = 1 + max(abs(c / coeffs[-1]) for c in coeffs[:-1])
    edges = [-bound, *_real_roots([i * c for i, c in enumerate(coeffs)][1:]), bound]
    roots = []
    for lo, hi in zip(edges, edges[1:]):
        rising = value(hi) > value(lo)
        while lo < (mid := (lo + hi) / 2) < hi:
            if (value(mid) < 0) == rising:
                lo = mid
            else:
                hi = mid
        roots.append(lo)
    return roots


def eigen_summary(form: SetSymmetricForm, dense_cap: int = 2000) -> EigenSummary:
    """The spectrum from one block per harmonic weight j <= min(d, n/2), with
    multiplicity C(n,j) - C(n,j-1): null_dim counts the zero roots of the
    blocks' characteristic polynomials exactly, the other roots are floats.
    Clusters are grouped within 10/n of each other and matched to the
    nearest closed-form value.  dense_cap bounds the form's dimension."""
    n, d = form.n, form.d
    # C(n, 0) counts the empty set
    size = count_above((comb(n, k) for k in range(form.kind == "B", min(d, n) + 1)), dense_cap)
    if size:
        raise ResourceError(f"form of dimension {size} exceeds cap {dense_cap}")
    null_dim = 0
    nonzero: List[float] = []
    for j in range(min(d, n // 2) + 1):
        multiplicity = comb(n, j) - (comb(n, j - 1) if j else 0)
        coeffs = _charpoly(_weight_block(form, j))
        zeros = next(i for i, c in enumerate(coeffs) if c)
        null_dim += zeros * multiplicity
        nonzero.extend(root for root in _real_roots([float(c) for c in coeffs[zeros:]])
                       for _ in range(multiplicity))
    nonzero.sort()
    gap = 10.0 / form.n
    groups, start = [], 0
    for i in range(1, len(nonzero) + 1):
        if i == len(nonzero) or nonzero[i] - nonzero[i - 1] > gap:
            groups.append(nonzero[start:i])
            start = i
    centers = [sum(vals) / len(vals) for vals in groups]
    # The closed forms of k = d .. 0 (1 for kind B) rise with d - k, so none
    # past the first above every center can be nearest: d bounds no loop.
    candidates: List[float] = []
    top = max(centers, default=0.0)
    for k in range(d, -1 if form.kind == "A" else 0, -1):
        candidates.append(float(eigenvalue_closed_form(d, k)))
        if candidates[-1] > top:
            break
    clusters: List[EigenCluster] = []
    for vals, center in zip(groups, centers):
        # ties go to the larger closed form
        nearest = (min(candidates, key=lambda c: (abs(c - center), -c)) if candidates
                   else float("nan"))
        clusters.append(EigenCluster(value=center, multiplicity=len(vals),
                                     closed_form=nearest, gap=abs(center - nearest)))
    return EigenSummary(n=form.n, d=form.d, p=form.p, kind=form.kind,
                        null_dim=null_dim, nonzero_eigenvalues=nonzero,
                        clusters=clusters)


# ---------------------------------------------------------------------------
# projection onto the constraint null space
# ---------------------------------------------------------------------------

@dataclass
class ProjectionResult:
    h: MultilinearPoly              # degree <= d-1
    residual: MultilinearPoly       # f - fhat(0) - (sum_i phi_i) h
    residual_norm_sq: Scalar


def project_null(f: MultilinearPoly, dist: GlobalCardinality,
                 mode: str = "exact") -> ProjectionResult:
    """Least-squares projection of f - fhat(0) onto the null space of the
    variance form: span{1} + span{(sum_i phi_i) phi_S : |S| <= deg(f)-1}.

    Returns the generator coefficients h and the orthogonal residual
    f - fhat(0) - c* - (sum_i phi_i) h, where the constant c* absorbs the
    empty-set component (the residual has no constant term).  h solves the
    normal equations G h = b exactly (the only mode is "exact"): G is A,
    then drop the constant, then A cut to levels < deg f, with A the
    constraint product, and b is A g_0 cut the same way.  Where G is
    singular (only if n <= 2 deg f - 2) h is the minimum-norm solution; the
    residual is unique either way.  Chi input is accepted at p = 1/2 where
    the bases coincide.

    The solve is the core _project on g_0 = g / den with int numerators g
    (QEs off p = 1/2, den = 1): it returns y and D = D_0 den, so h = y / D,
    reading y off the operator that _projection_weights caches per
    (n, deg f, q) over its denominator D_0.  This wrapper forms the
    residual (D_0 g - A y) / D with poly.reduce_by_constraint, and divides
    each output coefficient by D once.
    """
    if mode != "exact":
        raise InputError("mode must be 'exact'")
    if f.n != dist.n or (f.basis is Basis.PHI and f.p != dist.p):
        raise InputError("f's variable count or bias differs from dist's")
    if f.basis is not Basis.PHI and dist.p != Fraction(1, 2):
        raise InputError("projection needs the phi basis for p != 1/2")
    n, d = f.n, f.degree_bound
    q = dist.q or 0     # an int 0 at p = 1/2 keeps int tables int
    g = {mask: c for mask, c in f.coeffs.items() if mask}
    den, nums = _over_ints(g.values())
    g = dict(zip(g, nums))
    y, out_den = _project(superset_sums(g), den, n, q)
    d0 = _projection_weights(n, d, q)[0]
    r = reduce_by_constraint({mask: d0 * c for mask, c in g.items()}, y, n, q)
    r.pop(0, None)
    return ProjectionResult(
        h=MultilinearPoly(n, {mask: scalar_quotient(c, out_den) for mask, c in y.items()},
                          f.basis, f.p),
        residual=MultilinearPoly(n, {mask: scalar_quotient(c, out_den)
                                     for mask, c in r.items()}, f.basis, f.p),
        residual_norm_sq=scalar_quotient(sum(c * c for c in r.values()), out_den * out_den))


def _project(sums: List[Dict[int, Scalar]], den: Scalar, n: int,
             q: Scalar) -> Tuple[Dict[int, Scalar], Scalar]:
    """(y, D) with h = y / D: project_null's solve for f = table / den on
    n variables, read from the superset sums of its numerators,
    sums = poly.superset_sums(table), d = len(sums) - 1 = deg f (y is
    empty at d = 0; level 0, f's constant, is never read), through the
    cached operator _projection_weights(n, d, q):

      y_T = sum_{U <= T} sum_{k>=1} w[k][|T|][|U|] F_k(U)

    for every T on the levels below d, zero entries dropped, and
    D = D_0 den, D_0 > 0.  Cost O(|sums| d + sum_{l<d} C(n, l) 2^l), and
    each level's sets are built from the level below, so nothing is sized
    by n at d = 1.  Ints at p = 1/2 (q = 0); the residual is formed only
    by callers that read it."""
    d = len(sums) - 1
    d0, weights = _projection_weights(n, d, q)
    levels = [defaultdict(int) for _ in range(d)]       # levels[l][U], l = |T|
    for k in range(1, d + 1):
        for sub, value in sums[k].items():
            j = sub.bit_count()
            for l in range(j, d):
                levels[l][sub] += weights[k][l][j] * value
    y: Dict[int, Scalar] = {}
    masks = [0]     # the l-sets in lex order, each extended by the bits above its top
    for l, table in enumerate(levels):
        if l:
            masks = [mask | 1 << i for mask in masks for i in range(mask.bit_length(), n)]
        empty = table.pop(0, 0)
        for mask in masks:
            total, sub = empty, mask
            while sub:
                if sub in table:
                    total += table[sub]
                sub = (sub - 1) & mask
            if total:
                y[mask] = total
    return y, d0 * den


def _residual_norm(table: Dict[int, int], sums: List[Dict[int, int]], den: int,
                   y: Dict[int, int], big_d: int) -> Fraction:
    """The constant-free squared norm of the projection residual
    r = f - (sum_i x_i) h at p = 1/2, for f = table / den with
    sums = poly.superset_sums(table) and (y, big_d) = _project(sums, ...),
    h = y / big_d, without forming r.

    h solves the normal equations, so P_0 r (P_0 drops the constant) is
    orthogonal to A h', A the product by sum_i x_i, for every h' on the
    levels below deg f, h itself included (also where the equations are
    singular), and

      |P_0 r|^2 = |P_0 f|^2 - <h, A P_0 f>,
      (A P_0 f)_T = F_{|T|+1}(T) + sum_{j in T} f_{T - j}  (the second sum only at |T| >= 2),

    O(terms + |y| deg f) lookups, with no walk over n bits."""
    inner = 0
    for mask, c in y.items():
        value = sums[mask.bit_count() + 1].get(mask, 0)
        if mask & (mask - 1):
            rest = mask
            while rest:
                low = rest & -rest
                value += table.get(mask ^ low, 0)
                rest ^= low
        inner += c * value
    norm = sum(a * a for mask, a in table.items() if mask)
    return Fraction(big_d * norm - den * inner, big_d * den * den)


@lru_cache(maxsize=256)
def _projection_weights(n: int, d: int,
                        q: Scalar) -> Tuple[Scalar, Tuple[Tuple[Tuple[Scalar, ...], ...], ...]]:
    """(D_0, w): _project's operator for (n, d, q), cached per (n, d, q),
    up to 256 entries, as tuples that no caller can change.

    The map g -> h commutes with S_n, so the coefficient of g_S in h_T is
    c[k][l][i], a function of k = |S|, l = |T| and i = |S n T| alone (the
    Johnson scheme).  Its binomial transform
    w[k][l][j] = sum_i (-1)^(j-i) C(j, i) c[k][l][i] gives
    c[k][l][i] = sum_{j<=i} C(i, j) w[k][l][j], one term per U <= S n T,
    which is _project's sum over U.  The w are put over the lcm D_0 of
    their denominators when all are rational, as at q = 0 (else D_0 = 1).

    c[k] is h for the unit table {S_k = {1..k}: 1}, which is invariant
    under the stabiliser of S_k, so h and every vector of its solve are
    functions of the orbit (l, i) = (|T|, |T n S_k|), l - i <= n - k, and
    the constraint product A acts on orbit values as
    (A v)(l, i) = i v(l-1, i-1) + (l-i) v(l-1, i) + (k-i) v(l+1, i+1)
                  + (n-k-l+i) v(l+1, i) + q l v(l, i).
    The normal equations G h = b, G = A P_0 A cut to levels < d (P_0 drops
    level 0) and b = A e_{S_k} cut the same way, are a system over at most
    d(d+1)/2 orbit values.  G is self-adjoint, so with s its characteristic
    polynomial stripped of its x factors, G s(G) = 0, and b lies in the
    range of G: h = -(1/s_0) sum_{j>=1} s_j G^(j-1) b by Horner.  Where G is
    singular (only if n <= 2d - 2) that is the minimum-norm solution.  No
    step grows with n."""
    weights: List[List[List[Scalar]]] = [[]]
    for k in range(1, d + 1):
        # orbits by level, so orbit 0 is level 0 and the first `size` lie below d;
        # a[r][m] is the coefficient of v(m) in (A v)(r)
        orbits = [(l, i) for l in range(d + 1) for i in range(max(0, l + k - n), min(k, l) + 1)]
        a = [[{(l - 1, i - 1): i, (l - 1, i): l - i, (l + 1, i + 1): k - i,
               (l + 1, i): n - k - l + i, (l, i): q * l}.get(m, 0) for m in orbits]
             for l, i in orbits]
        size = sum(1 for l, _ in orbits if l < d)
        gram = [[sum(a[r][m] * a[m][c] for m in range(1, len(orbits))) for c in range(size)]
                for r in range(size)]
        b = [a[r][orbits.index((k, k))] for r in range(size)]
        s = _charpoly(gram)
        while not s[0]:
            s.pop(0)
        y: List[Scalar] = [0] * size
        for coeff in reversed(s[1:]):
            y = [sum(x * v for x, v in zip(row, y)) + coeff * b[r]
                 for r, row in enumerate(gram)]
        value = dict(zip(orbits, (scalar_quotient(v, -s[0]) for v in y)))
        rows = []
        for l in range(d):
            c = [value.get((l, i), 0) for i in range(min(k, l) + 1)]
            rows.append([sum((-1) ** (j - i) * comb(j, i) * c[i] for i in range(j + 1))
                         for j in range(len(c))])
        weights.append(rows)
    den, nums = _over_ints(w for rows in weights for row in rows for w in row)
    flat = iter(nums)
    return den, tuple(tuple(tuple(next(flat) for _ in row) for row in rows)
                      for rows in weights)


def _over_ints(values) -> Tuple[int, List[Scalar]]:
    """(den, nums) with values == nums / den over ints when every value is
    rational, else (1, values)."""
    values = list(values)
    try:
        return _over_common_denominator(values)
    except ValueError:
        return 1, values


def _charpoly(m: List[List[Scalar]]) -> List[Scalar]:
    """det(x I - m), coefficients low to high, with no division (Berkowitz,
    IPL 18, 1984): bordering the leading k x k block B with its column col,
    row r and corner a multiplies the polynomial so far, high to low, by
    1, -a, -r col, -r B col, ..., -r B^(k-1) col, cut to k + 2 terms."""
    coeffs: List[Scalar] = [1]
    for k, row in enumerate(m):
        col = [m[i][k] for i in range(k)]
        factor = [1, -row[k]]
        for _ in range(k):
            factor.append(-sum(x * v for x, v in zip(row, col)))
            col = [sum(x * v for x, v in zip(m[i], col)) for i in range(k)]
        coeffs = [sum(factor[i - j] * coeffs[j] for j in range(min(i, k) + 1))
                  for i in range(k + 2)]
    return coeffs[::-1]
