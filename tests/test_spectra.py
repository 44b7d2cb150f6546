import os
import random
import re
import subprocess
import sys
import time
import types
from fractions import Fraction as F
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cardcsp
from cardcsp.cardinal_dist import CardinalDist
from cardcsp.csp_model import GlobalCardinality, to_polynomial
from cardcsp.errors import InputError, ResourceError
from cardcsp.oracle import brute_moment, brute_variance
from cardcsp.poly import (Basis, MultilinearPoly, convert_basis, down, phi_square_q,
                          reduce_by_constraint, subset_of, superset_sums,
                          times_constraint_table, up)
from cardcsp import poly, spectra
from cardcsp.solver import _kernel_step
from cardcsp.spectra import (SetSymmetricForm, alpha_table, eigen_summary,
                             eigenvalue_closed_form, project_null,
                             quadratic_form_value, subsets_upto, vk_eigenvalue_exact)

from conftest import (build_dense, constraint_poly, csp_instances,
                      dense_spectrum_reference, dot, faddeev_leverrier_reference,
                      gauss_solve_reference, gram_annihilator_reference, graph_instance,
                      harmonic_basis, null_space_vector, nullspace_reference,
                      random_instance, random_poly, rank_reference, seeded_int_table,
                      vk_basis)


def test_alpha_zero_at_half():
    table = alpha_table(20, F(1, 2), 3)
    for k in range(3):
        assert table.get(k, k + 1) == 0


def test_alpha_first_order():
    n, p = 20, F(1, 4)
    table = alpha_table(n, p, 3)
    dist = CardinalDist(n, p)
    for k in range(3):
        assert table.get(k, k + 1) == -k * dist.q / (n - 2 * k)


def test_alpha_recurrence_exact():
    n, p, d = 15, F(1, 3), 4
    table = alpha_table(n, p, d)
    dist = CardinalDist(n, p)
    for k in range(d + 1):
        for i in range(0, d - k):
            prev = table.get(k, k + i - 1) if i >= 1 else F(0)
            lhs = i * prev + (k + i) * dist.q * table.get(k, k + i) \
                + (n - 2 * k - i) * table.get(k, k + i + 1)
            assert lhs == 0


def test_alpha_second_order_approximation():
    for n in (50, 100, 200):
        table = alpha_table(n, F(1, 4), 4)
        for k in range(3):
            err = float(table.get(k, k + 2)) + 1.0 / (n - 2 * k - 1)
            assert abs(err) <= 10.0 / n ** 2


def test_alpha_asymptotics():
    # alpha_{k,k+2i} -> (-1)^i (2i-1)!!/n^i with O(n^{-i-1}) error
    dfact = {1: 1, 2: 3}
    for n in (50, 100, 200):
        table = alpha_table(n, F(1, 4), 5)
        for k in (0, 1):
            for i in (1, 2):
                approx = (-1) ** i * dfact[i] / n ** i
                err = abs(float(table.get(k, k + 2 * i)) - approx)
                assert err <= 60.0 / n ** (i + 1), (n, k, i, err)


def test_alpha_requires_large_n():
    with pytest.raises(InputError):
        alpha_table(6, F(1, 2), 3)


def test_alpha_table_rejects_float_p():
    # 0.25 used to build the table for p = 1/4
    with pytest.raises(InputError, match="p = 0.25 is not an int or Fraction"):
        alpha_table(10, 0.25, 2)


def test_vk_eigenvalue_rejects_float_p():
    with pytest.raises(InputError, match="p = 0.25 is not an int or Fraction"):
        vk_eigenvalue_exact(8, 0.25, 2, 1)


@pytest.mark.parametrize("build", [lambda: harmonic_basis(5, -1),
                                   lambda: harmonic_basis(-1, 0),
                                   lambda: alpha_table(10, F(1, 2), -1)],
                         ids=["harmonic-k", "harmonic-n", "alpha-d"])
def test_negative_sizes_are_input_errors(build):
    # harmonic_basis(5, -1) raised a bare ValueError from itertools and
    # alpha_table(10, 1/2, -1) returned an empty table
    with pytest.raises(InputError, match=">= 0"):
        build()


def test_build_dense_singleton_block():
    n = 6
    form = SetSymmetricForm(n=n, d=1, p=F(1, 2), kind="A")
    labels, m = build_dense(form)
    assert labels == subsets_upto(n, 1)
    idx = {subset_of(s): i for i, s in enumerate(labels)}
    for i in range(1, n + 1):
        assert m[idx[(i,)]][idx[(i,)]] == 1
        for j in range(i + 1, n + 1):
            assert m[idx[(i,)]][idx[(j,)]] == F(-1, n - 1)


def test_quadratic_form_on_constraint_function():
    n = 6
    form = SetSymmetricForm(n=n, d=1, p=F(1, 2), kind="A")
    f = constraint_poly(n, Basis.PHI, F(1, 2))
    assert quadratic_form_value(form, f) == 0


def test_quadratic_forms_match_brute(rng):
    n, d = 10, 2
    for p in (F(1, 2), F(3, 10)):
        card = GlobalCardinality(n, p)
        form_a = SetSymmetricForm(n=n, d=d, p=p, kind="A")
        form_b = SetSymmetricForm(n=n, d=d, p=p, kind="B")
        for _ in range(10):
            f = random_poly(rng, n, d, 6, Basis.PHI, p)
            assert quadratic_form_value(form_a, f) == brute_moment(f, card, 2)
            assert quadratic_form_value(form_b, f) == brute_variance(f, card)


def test_eigen_summary_checks_dense_cap_before_any_block(monkeypatch):
    def _no_block(*args):
        raise AssertionError("eigen_summary built a block past its cap")

    monkeypatch.setattr(spectra, "_weight_block", _no_block)
    form = SetSymmetricForm(n=30, d=3, p=F(1, 2), kind="A")
    with pytest.raises(ResourceError, match="dimension 4526 exceeds cap 100"):
        eigen_summary(form, dense_cap=100)


def test_closed_form_values():
    assert eigenvalue_closed_form(3, 3) == 1
    assert eigenvalue_closed_form(2, 0) == F(3, 2)
    assert eigenvalue_closed_form(4, 0) == F(15, 8)  # 1 + 1/2 + 9/24


def test_vk_basis_partial_sums_vanish():
    # sum over supersets at every smaller size, exactly
    n, d = 8, 3
    for k in (1, 2, 3):
        for vec in vk_basis(n, F(1, 2), d, k)[:4]:
            weight_k = {subset_of(s): c for s, c in vec.items() if s.bit_count() == k}
            from itertools import combinations
            for size in range(k):
                for small in combinations(range(1, n + 1), size):
                    total = sum((c for s, c in weight_k.items()
                                 if set(small) <= set(s)), F(0))
                    assert total == 0


def test_vk_dimension():
    n, d = 8, 2
    for k in (0, 1, 2):
        dim = comb(n, k) - (comb(n, k - 1) if k else 0)
        assert len(vk_basis(n, F(1, 2), d, k)) == dim


@pytest.mark.parametrize("k", [3, -1])
@pytest.mark.parametrize("vk", [vk_eigenvalue_exact, vk_basis])
def test_vk_functions_reject_k_outside_zero_to_d(vk, k):
    # k = 3 returned 0 (eigenvalue) or 75 weight-3 vectors outside
    # {phi_S : |S| <= 2}; vk_basis at k = -1 raised a bare ValueError
    with pytest.raises(InputError, match="need 0 <= k <= d"):
        vk(10, F(1, 2), 2, k)


def _up_rows(n, k):
    """(columns, rows): the weight-k masks in lex order, and for every
    |T| = k-1 the row of up of the unit vector at T over those columns."""
    from itertools import combinations
    bits = [1 << i for i in range(n)]
    cols = [sum(c) for c in combinations(bits, k)]
    index = {s: i for i, s in enumerate(cols)}
    rows = []
    for t in (combinations(bits, k - 1) if k else ()):
        row = [0] * len(cols)
        for mask, a in up({sum(t): 1}, n).items():
            row[index[mask]] = a
        rows.append(row)
    return cols, rows


def test_harmonic_basis_spans_the_up_row_null_space():
    for n in range(11):
        for k in range(n + 2):
            cols, rows = _up_rows(n, k)
            null_dim = len(cols) - rank_reference(rows)
            basis = harmonic_basis(n, k)
            supports = [[(i, a) for i, a in enumerate(row) if a] for row in rows]
            for vec in basis:
                dense = [vec.get(s, 0) for s in cols]
                for support in supports:
                    assert sum(a * dense[i] for i, a in support) == 0, (n, k)
            # inside the null space, independent (distinct largest masks),
            # and as many as the reference's dimension
            assert len({max(vec) for vec in basis}) == len(basis) == null_dim, (n, k)


@pytest.mark.parametrize("n", range(13))
def test_harmonic_basis_is_harmonic_with_distinct_top_sets(n):
    for k in range(n + 2):
        basis = harmonic_basis(n, k)
        tops = []
        for vec in basis:
            assert all(s.bit_count() == k for s in vec)
            assert all(c == 0 for c in down(vec).values())
            top = max(vec)
            assert vec[top] in (1, -1)
            tops.append(top)
        assert len(set(tops)) == len(tops)
        expected = comb(n, k) - (comb(n, k - 1) if k else 0) if 2 * k <= n else 0
        assert len(basis) == expected, (n, k)


def test_vk_basis_at_n12_k4_is_an_exact_eigenbasis():
    # every vector of the largest weight at d = 4, n = 12 is an eigenvector (k = d: no extension)
    n, d, k = 12, 4, 4
    basis = vk_basis(n, F(1, 2), d, k)
    assert len(basis) == 275
    form = SetSymmetricForm(n=n, d=d, p=F(1, 2), kind="A")
    ev = vk_eigenvalue_exact(n, F(1, 2), d, k)
    for vec in basis[::91]:
        for s in subsets_upto(n, d):
            image = sum((c * form.entry(s.bit_count(), t.bit_count(), (s & t).bit_count())
                         for t, c in vec.items()), F(0))
            assert image == ev * vec.get(s, 0)


def test_vk_vectors_are_exact_eigenvectors_at_half():
    n, d = 10, 2
    form = SetSymmetricForm(n=n, d=d, p=F(1, 2), kind="A")
    labels, m = build_dense(form)
    idx = {s: i for i, s in enumerate(labels)}
    for k in (0, 1, 2):
        ev = vk_eigenvalue_exact(n, F(1, 2), d, k)
        vec = vk_basis(n, F(1, 2), d, k)[0]
        dense = [F(0)] * len(labels)
        for s, c in vec.items():
            dense[idx[s]] = c
        for i in range(len(labels)):
            image = sum((m[i][j] * dense[j] for j in range(len(labels))), F(0))
            assert image == ev * dense[i]


@pytest.mark.parametrize("n, d, k", [(20, 3, 1), (10, 4, 2), (10, 4, 4)])
def test_vk_eigenvalue_matches_dense_form_past_first_order(n, d, k):
    # with k >= 1 and d - k >= 2 the tau_{2l} sums gave 518/323 for 520/323
    # at (20, 3, 1) and 67/35 for 128/63 at (10, 4, 2), and (10, 4, 4)
    # raised a bare ValueError from comb
    form = SetSymmetricForm(n=n, d=d, p=F(1, 2), kind="A")
    labels, m = build_dense(form)
    idx = {s: i for i, s in enumerate(labels)}
    ev = vk_eigenvalue_exact(n, F(1, 2), d, k)
    basis = vk_basis(n, F(1, 2), d, k)
    for vec in (basis[0], basis[-1]):
        support = [(idx[s], c) for s, c in vec.items()]
        for i, s in enumerate(labels):
            image = sum((m[i][j] * c for j, c in support), F(0))
            assert image == ev * vec.get(s, 0), (s, image)


def _spectrum_grid():
    """(n, p) for n = 2..10 and p in {1/2, 1/4, 1/3, 2/5} with pn an integer;
    with d = 0..4, kinds A and B and both entry conventions, 240 forms,
    n < 2d among them (ladders that end below level d)."""
    for n in range(2, 11):
        for p in (F(1, 2), F(1, 4), F(1, 3), F(2, 5)):
            if (p * n).denominator == 1:
                yield pytest.param(n, p, id=f"n{n}-p{p.numerator}_{p.denominator}")


@pytest.mark.parametrize("n, p", _spectrum_grid())
def test_eigen_summary_matches_dense_reference(n, p):
    for d in range(5):
        for kind in ("A", "B"):
            for exact in (True, False):
                form = SetSymmetricForm(n=n, d=d, p=p, kind=kind, exact=exact)
                summary = eigen_summary(form)
                null_dim, nonzero = dense_spectrum_reference(form)
                case = (n, str(p), d, kind, exact)
                assert summary.null_dim == null_dim, case
                assert len(summary.nonzero_eigenvalues) == len(nonzero), case
                for got, want in zip(summary.nonzero_eigenvalues, nonzero):
                    assert abs(got - want) <= 1e-9, case


def test_vk_spaces_mutually_orthogonal():
    n, d = 8, 2
    for p in (F(1, 2), F(1, 4)):
        spaces = {k: vk_basis(n, p, d, k) for k in range(d + 1)}
        for j in range(d + 1):
            for k in range(j + 1, d + 1):
                for u in spaces[j][:3]:
                    for v in spaces[k][:3]:
                        assert dot(u, v) == 0


def test_null_space_certification_exact():
    # exact-entry matrix applied to (sum phi_i) phi_S gives zero, all p
    for n, p, d in ((8, F(1, 2), 2), (8, F(1, 4), 2), (9, F(1, 3), 3)):
        form = SetSymmetricForm(n=n, d=d, p=p, kind="A")
        labels, m = build_dense(form)
        idx = {subset_of(s): i for i, s in enumerate(labels)}
        dist = CardinalDist(n, p)
        for s in subsets_upto(n, d - 1):
            vec = null_space_vector(dist, subset_of(s))
            dense = [F(0)] * len(labels)
            for t, c in vec.items():
                dense[idx[t]] = c
            for i in range(len(labels)):
                image = sum((m[i][j] * dense[j] for j in range(len(labels))), F(0))
                assert image == 0, (p, s, labels[i])


def test_eigen_summary_small_bisection():
    n, d = 24, 2
    t0 = time.monotonic()
    form_a = SetSymmetricForm(n=n, d=d, p=F(1, 2), kind="A")
    summary_a = eigen_summary(form_a)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    assert summary_a.null_dim == comb(n, 1) + comb(n, 0) == 25
    for value in summary_a.nonzero_eigenvalues:
        assert 0.45 <= value <= 2.1
    for cluster in summary_a.clusters:
        assert min(abs(cluster.value - 1.0), abs(cluster.value - 1.5)) <= 0.15

    form_b = SetSymmetricForm(n=n, d=d, p=F(1, 2), kind="B")
    summary_b = eigen_summary(form_b)
    # V'_0 moved to the null space; nonzero clusters all near 1
    assert summary_b.null_dim == 25
    for cluster in summary_b.clusters:
        assert abs(cluster.value - 1.0) <= 0.15
    assert len(summary_b.nonzero_eigenvalues) == len(summary_a.nonzero_eigenvalues) - 1


def test_spectrum_bounds_across_p():
    for n, d, p in ((20, 2, F(1, 2)), (20, 2, F(1, 4)), (21, 2, F(1, 3))):
        for kind in ("A", "B"):
            form = SetSymmetricForm(n=n, d=d, p=p, kind=kind)
            summary = eigen_summary(form)
            lo, hi = 0.5 - 20.0 / n, d + 20.0 / n
            for value in summary.nonzero_eigenvalues:
                assert lo <= value <= hi, (n, d, str(p), kind, value)


def test_eigenvalue_convergence_rate():
    # cluster distance to the closed form shrinks like c/n; report fitted c
    d, k = 2, 1
    cs = []
    for n in (20, 40, 80):
        exact = float(vk_eigenvalue_exact(n, F(1, 2), d, k))
        closed = float(eigenvalue_closed_form(d, k))
        cs.append(abs(exact - closed) * n)
    assert max(cs) <= 10.0, cs
    print(f"\neigenvalue gap * n across n=20,40,80: "
          + ", ".join(f"{c:.2f}" for c in cs))


def test_exact_vs_simplified_spectra_reported_off_half():
    # At p != 1/2 the two entry conventions genuinely differ; the exact one
    # is authoritative (its null space is certified), the simplified one is
    # reported for comparison rather than asserted against the closed forms.
    n, d, p = 20, 2, F(1, 4)
    exact = eigen_summary(SetSymmetricForm(n=n, d=d, p=p, kind="A", exact=True))
    simplified = eigen_summary(SetSymmetricForm(n=n, d=d, p=p, kind="A", exact=False))
    assert exact.null_dim == comb(n, 1) + 1
    lo_e, hi_e = exact.nonzero_eigenvalues[0], exact.nonzero_eigenvalues[-1]
    lo_s = simplified.nonzero_eigenvalues[0] if simplified.nonzero_eigenvalues else 0.0
    hi_s = simplified.nonzero_eigenvalues[-1] if simplified.nonzero_eigenvalues else 0.0
    print(f"\np={p}: exact spectrum [{lo_e:.3f}, {hi_e:.3f}] "
          f"(null dim {exact.null_dim}), simplified [{lo_s:.3f}, {hi_s:.3f}] "
          f"(null dim {simplified.null_dim})")


def test_projection_examples():
    n = 8
    dist = CardinalDist(n, F(1, 2))
    constraint = constraint_poly(n, Basis.CHI)
    f = constraint * MultilinearPoly.from_subsets(n, {(1,): F(1)})
    pr = project_null(f, dist)
    assert dict(pr.h.items_sorted()) == {(1,): F(1)}
    assert pr.residual_norm_sq == 0

    star = MultilinearPoly.from_subsets(n, {(): F(n, 2)}) \
        - constraint * MultilinearPoly.from_subsets(n, {(1,): F(1, 2)})
    pr = project_null(star, dist)
    assert pr.residual_norm_sq == 0
    assert pr.h.coefficient((1,)) == F(-1, 2)
    with pytest.raises(InputError):
        project_null(star, dist, mode="float")


def test_projection_sandwich(rng):
    n, d = 10, 2
    dist = CardinalDist(n, F(1, 2))
    card = GlobalCardinality(n, F(1, 2))
    for _ in range(20):
        f = random_poly(rng, n, d, 7)
        pr = project_null(f, dist)
        var = brute_variance(f, card)
        assert F(1, 2) * pr.residual_norm_sq <= var
        assert var <= d * f.without_constant().l2_norm_sq()


def test_projection_orthogonality_and_idempotence(rng):
    n = 8
    for p in (F(1, 2), F(1, 4)):
        dist = CardinalDist(n, p)
        basis = Basis.CHI if p == F(1, 2) else Basis.PHI
        f = random_poly(rng, n, 2, 6, basis, None if p == F(1, 2) else p)
        pr = project_null(f, dist)
        for s in subsets_upto(n, f.degree_bound - 1):
            gen = null_space_vector(dist, subset_of(s))
            gen.pop((), None)
            assert dot(gen, dict(pr.residual.items_sorted())) == 0
        again = project_null(pr.residual, dist)
        assert again.h.coeffs == {}
        assert again.residual == pr.residual



def _project_null_reference(f, dist):
    """(h, residual) from the dense normal equations: one dot per Gram
    entry, Gaussian elimination, and, where the Gram matrix is singular,
    the exact projection of that solution off its null space, so h is the
    minimum-norm solution."""
    g0 = f.without_constant()
    gen_sets = [subset_of(s) for s in subsets_upto(f.n, f.degree_bound - 1)]
    generators = []
    for s in gen_sets:
        vec = null_space_vector(dist, s)
        vec.pop((), None)
        generators.append(vec)
    gram = [[dot(a, b) for b in generators] for a in generators]
    rhs = [dot(a, dict(g0.items_sorted())) for a in generators]
    coeffs = gauss_solve_reference(gram, rhs)
    null = [dict(enumerate(vec)) for vec in nullspace_reference(gram, len(gram))]
    if null:
        weights = gauss_solve_reference([[dot(u, v) for v in null] for u in null],
                                        [dot(u, dict(enumerate(coeffs))) for u in null])
        for w, vec in zip(weights, null):
            coeffs = [c - w * vec[i] for i, c in enumerate(coeffs)]
    h = MultilinearPoly.from_subsets(f.n, {s: c for s, c in zip(gen_sets, coeffs)
                                           if c}, f.basis, f.p)
    residual = (g0 - constraint_poly(f.n, f.basis, f.p) * h).without_constant()
    return h, residual


@st.composite
def projection_cases(draw):
    """A CSP counting polynomial of degree 1..3: chi at p = 1/2 (n <= 8),
    phi-converted at p = 1/3 (n in {3, 6}, Gram entries in Q[sqrt(2/9)])."""
    p = draw(st.sampled_from((F(1, 2), F(1, 3))))
    n = p.denominator * draw(st.integers(1, 4 if p == F(1, 2) else 2))
    f = to_polynomial(draw(csp_instances(n, draw(st.integers(1, 3)))))
    assume(f.degree_bound >= 1)
    if p != F(1, 2):
        f = convert_basis(f, Basis.PHI, p)
    return f, CardinalDist(n, p)


@settings(max_examples=100, deadline=None, database=None)
@given(projection_cases())
def test_project_null_matches_per_entry_gram_reference(case):
    f, dist = case
    pr = project_null(f, dist)
    h, residual = _project_null_reference(f, dist)
    assert pr.h == h
    assert pr.residual == residual
    assert pr.residual_norm_sq == residual.l2_norm_sq()


def _horner_project(g, den, n, d, q):
    """(y, D) by the Horner solve of the normal equations on the numerators
    g over all n variables, y = sum_{k>=1} s_k G^(k-1) b and D = -s_0 den
    with s from the ladder reference, explicit zeros dropped: the
    per-instance route that _project's cached operator replaced."""
    def below_d(table):
        # the levels < d of the constraint product
        return {mask: c for mask, c in times_constraint_table(table, n, q).items()
                if mask.bit_count() < d}

    b = below_d(g)
    s = gram_annihilator_reference(n, d, q)
    y = {}
    for coeff in reversed(s[1:]):
        image = times_constraint_table(y, n, q)
        image.pop(0, None)
        y = below_d(image)
        for mask, c in b.items():
            y[mask] = y[mask] + coeff * c if mask in y else coeff * c
    return {mask: c for mask, c in y.items() if c}, -s[0] * den


def _random_int_table(rng, n, d):
    """Int numerators on levels 1..d, at least one on level d."""
    levels = [[sum(c) for c in combinations([1 << i for i in range(n)], k)]
              for k in range(d + 1)]
    table = {rng.choice(levels[d]): rng.choice((-1, 1)) * rng.randint(1, 9)} if d else {}
    pool = [mask for level in levels[1:] for mask in level]
    for mask in rng.sample(pool, min(len(pool), rng.randint(0, 12))):
        table[mask] = rng.randint(-9, 9)
    return table


@pytest.mark.parametrize("n", range(2, 13))
def test_project_operator_matches_the_horner_sum_on_int_tables(n):
    # d = 0 gives an empty y; G is singular where n <= 2d - 2 (n <= 6 here)
    for d in range(min(4, n) + 1):
        rng = random.Random(f"{n}:{d}")
        for _ in range(3):
            g, den = _random_int_table(rng, n, d), rng.randint(1, 9)
            y, big_d = spectra._project(superset_sums(g), den, n, 0)
            ref_y, ref_d = _horner_project(g, den, n, d, 0)
            assert {mask: F(c, big_d) for mask, c in y.items()} == {
                mask: F(c, ref_d) for mask, c in ref_y.items()}
            assert type(big_d) is int and big_d > 0
            assert all(type(c) is int and c for c in y.values())
            assert d or y == {}


@pytest.mark.parametrize("p", [F(1, 3), F(1, 4)])
def test_project_null_matches_the_horner_sum_on_qe_tables(p):
    q = phi_square_q(p)
    for n in range(p.denominator, 13, p.denominator):
        for d in range(1, min(3, n) + 1):
            rng = random.Random(f"{p}:{n}:{d}")
            f = convert_basis(to_polynomial(random_instance(rng, n, d, n)), Basis.PHI, p)
            g = {mask: c for mask, c in f.coeffs.items() if mask}
            y, big_d = _horner_project(g, 1, n, f.degree_bound, q)
            h = project_null(f, CardinalDist(n, p)).h
            assert h.coeffs == {mask: c / big_d for mask, c in y.items()}


@pytest.mark.parametrize("q", [0, phi_square_q(F(1, 3))])
def test_projection_weights_match_the_unit_table_horner_sum(q):
    # c[k][l][i], the coefficient of g_S in h_T at |S| = k, |T| = l,
    # |S n T| = i, read off the orbit-built weights and off the ladder
    # reference's Horner solve on the unit table {S_k: 1} over all n
    # variables; G is singular where n <= 2d - 2.  On QE scalars d = 4 runs
    # to n = 7 only: the grid then takes 4-6 s on a shared 2-core host, most
    # of it in the reference's Horner solve, against 33 s with d = 4 to n = 16
    for n in range(2, 17):
        for d in range(min(4 if q == 0 or n <= 7 else 3, n) + 1):
            d0, weights = spectra._projection_weights(n, d, q)
            assert type(d0) is int and d0 > 0
            for k in range(1, d + 1):
                y, big_d = _horner_project({(1 << k) - 1: 1}, 1, n, d, q)
                for l in range(d):
                    for i in range(min(k, l) + 1):
                        c = sum(comb(i, j) * weights[k][l][j] for j in range(i + 1))
                        mask = (1 << i) - 1 | ((1 << (l - i)) - 1) << k
                        want = y.get(mask, 0) if l - i <= n - k else 0
                        assert c * big_d == want * d0, (n, d, k, l, i)


def test_project_walks_no_constraint_product_per_instance(monkeypatch):
    # neither the build of the weights nor the evaluation walks an n-bit
    # table: the build works on orbit values, whose count is set by d alone
    # (the evaluation runs at d = 3, as at d = 4 it visits 1.3e6 sets)
    def must_not_run(*args):
        raise AssertionError("walked an n-variable table")

    monkeypatch.setattr(poly, "_flip_each", must_not_run)
    spectra._projection_weights.cache_clear()
    d0, weights = spectra._projection_weights(200, 4, 0)
    assert len(weights) == 5 and type(d0) is int and d0 > 0
    g = {0b111: 4, 0b110 << 150: -2, 1 << 199: 3}
    y, big_d = spectra._project(superset_sums(g), 8, 200, 0)
    assert big_d == 8 * spectra._projection_weights(200, 3, 0)[0]
    assert y and all(type(c) is int for c in y.values())


def test_residual_norm_identity_matches_the_formed_residual():
    # |P_0 r|^2 = |P_0 f|^2 - <h, A P_0 f> against r formed by the
    # constraint product, and the kernel step's residual_sum against it, on
    # seeded int tables at p = 1/2, singular normal equations (n <= 2d - 2)
    # included
    rng, singular = random.Random("residual"), 0
    for n in range(2, 21, 2):
        for degree in range(min(4, n) + 1):
            for _ in range(3):
                table, den = seeded_int_table(rng, n, degree), rng.randint(1, 12)
                sums = superset_sums(table)
                y, big_d = spectra._project(sums, den, n, 0)
                formed = reduce_by_constraint({mask: a * big_d for mask, a in table.items()},
                                              {mask: c * den for mask, c in y.items()}, n)
                formed.pop(0, None)
                want = F(sum(c * c for c in formed.values()), (den * big_d) ** 2)
                assert spectra._residual_norm(table, sums, den, y, big_d) == want
                step = _kernel_step(den, table, GlobalCardinality(n, F(1, 2)), F(1, den),
                                    degree, 2000)
                assert F(step.residual_sum, step.den ** 2) == want
                singular += n <= 2 * degree - 2
    assert singular == 3 * 4     # (n, d) = (2, 2), (4, 3), (4, 4), (6, 4)


def _seeded_matrix(rng, size, kind):
    """A size x size matrix of small ints, Fractions, or QEs a + b q with
    q = phi_square_q(p) for kind "qe 1/3" or "qe 1/4"."""
    def entry():
        if kind == "int":
            return rng.randint(-9, 9)
        value = F(rng.randint(-9, 9), rng.randint(1, 6))
        if kind == "fraction":
            return value
        return value + F(rng.randint(-4, 4), rng.randint(1, 3)) * phi_square_q(F(kind[3:]))
    return [[entry() for _ in range(size)] for _ in range(size)]


@pytest.mark.parametrize("kind", ["int", "fraction", "qe 1/3", "qe 1/4"])
def test_charpoly_matches_the_faddeev_leverrier_reference(kind):
    rng = random.Random(kind)
    for size in range(11):
        m = _seeded_matrix(rng, size, kind)
        assert spectra._charpoly(m) == faddeev_leverrier_reference(m), size
    assert spectra._charpoly([]) == [1]


def test_charpoly_stays_on_ints_for_int_matrices():
    rng = random.Random(7)
    for size in range(1, 11):
        m = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        coeffs = spectra._charpoly(m)
        assert all(type(c) is int for c in coeffs)
        assert coeffs == spectra._charpoly([[F(x) for x in row] for row in m])


@pytest.mark.parametrize("n, d", [(4, 1), (6, 2), (10, 2), (12, 3), (9, 4), (4, 3)])
@pytest.mark.parametrize("q", [0, phi_square_q(F(1, 3))])
def test_projection_weights_cache_matches_fresh_computation(n, d, q):
    cached = spectra._projection_weights(n, d, q)
    assert isinstance(cached, tuple)
    assert all(isinstance(rows, tuple) and all(isinstance(r, tuple) for r in rows)
               for rows in cached[1])
    assert cached == spectra._projection_weights.__wrapped__(n, d, q)
    assert spectra._projection_weights(n, d, q) is cached


@st.composite
def random_projection_cases(draw):
    """A polynomial with random rational coefficients, degree 1..3, n <= 10:
    chi at p = 1/2, phi at p = 1/3.  The Gram matrix is singular at
    n = 2, d = 2 and n = 4, d = 3 (p = 1/2) and at n = 3, d = 3 (p = 1/3)."""
    p = draw(st.sampled_from((F(1, 2), F(1, 3))))
    n = p.denominator * draw(st.integers(1, 10 // p.denominator))
    d = draw(st.integers(1, min(3, n)))
    basis, bias = (Basis.CHI, None) if p == F(1, 2) else (Basis.PHI, p)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    f = random_poly(rng, n, d, draw(st.integers(1, 8)), basis, bias)
    assume(f.degree_bound >= 1)
    return f, CardinalDist(n, p)


@settings(max_examples=100, deadline=None, database=None)
@given(random_projection_cases())
# a constant f projects to h = 0 with a zero residual in either basis
@example((MultilinearPoly.constant(6, F(5, 2)), CardinalDist(6, F(1, 2))))
@example((MultilinearPoly.constant(6, F(5, 2), Basis.PHI, F(1, 3)), CardinalDist(6, F(1, 3))))
def test_project_null_matches_reference_on_random_polynomials(case):
    f, dist = case
    pr = project_null(f, dist)
    h, residual = _project_null_reference(f, dist)
    assert pr.h == h
    assert pr.residual == residual
    assert pr.residual_norm_sq == residual.l2_norm_sq()
    # Fraction where the value is rational, QE where it is not, as the
    # reference's MultilinearPoly arithmetic gives
    for got, want in ((pr.h, h), (pr.residual, residual)):
        assert {s: type(c) for s, c in got.coeffs.items()} == \
            {s: type(c) for s, c in want.coeffs.items()}
    assert type(pr.residual_norm_sq) is type(residual.l2_norm_sq())


def test_projection_at_n24_d3_is_orthogonal_and_idempotent():
    # 301 unknowns: no other test projects at d = 3 above n = 12
    n = 24
    f = to_polynomial(random_instance(random.Random(1), n, 3, 40))
    assert f.degree_bound == 3
    dist = CardinalDist(n, F(1, 2))
    pr = project_null(f, dist)
    residual = dict(pr.residual.items_sorted())
    assert () not in residual       # orthogonal to 1
    for s in subsets_upto(n, 2):
        gen = null_space_vector(dist, subset_of(s))
        gen.pop((), None)
        assert dot(gen, residual) == 0, subset_of(s)
    again = project_null(pr.residual, dist)
    assert again.h.coeffs == {}
    assert again.residual == pr.residual


def test_import_cardcsp_leaves_numpy_unloaded():
    # numpy is a test dependency only: neither the import nor a spectrum
    # report may load it
    src = os.path.dirname(os.path.dirname(cardcsp.__file__))
    script = ("import contextlib, io, sys, cardcsp, cardcsp.cli\n"
              "loaded = 'numpy' in sys.modules\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = cardcsp.cli.main(['spectra', '--n', '24', '--d', '2', '--p', '1/2'])\n"
              "print(loaded, code, 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False 0 False"


def test_set_symmetric_form_rejects_negative_degree():
    with pytest.raises(InputError, match="d must be nonnegative"):
        SetSymmetricForm(n=6, d=-1, p=F(1, 2), kind="A")


@pytest.mark.parametrize("d", [1.5, "2", True])
def test_set_symmetric_form_reads_its_degree_as_an_int(d):
    # 1.5 used to be accepted and eigen_summary then ended in a bare
    # TypeError, "2" in one from the compare, and True ran as d = 1
    with pytest.raises(InputError, match=re.escape(f"d = {d!r} is not an int")):
        SetSymmetricForm(n=6, d=d, p=F(1, 3), kind="A")


def test_form_reads_its_own_slice():
    # a dist for another slice used to be accepted: 608/441 for this f at
    # n = 6, p = 1/2 with CardinalDist(8, 1/4), against 36/25 on its own slice
    f = MultilinearPoly.from_subsets(6, {(1, 2): F(1), (1, 3): F(1)})
    with pytest.raises(TypeError):
        SetSymmetricForm(6, 2, F(1, 2), "B", dist=CardinalDist(8, F(1, 4)))
    form = SetSymmetricForm(6, 2, F(1, 2), "B")
    assert (form.dist.n, form.dist.p) == (6, F(1, 2))
    assert quadratic_form_value(form, f) == F(36, 25)


def test_all_lists_no_module():
    assert cardcsp.__all__
    for name in cardcsp.__all__:
        assert not isinstance(getattr(cardcsp, name), types.ModuleType), name


def test_projection_and_form_reject_mismatched_sizes():
    f = to_polynomial(graph_instance(6, [(1, 2), (2, 3), (3, 4), (1, 5), (5, 6)]))
    with pytest.raises(InputError, match="variable count or bias"):
        project_null(f, CardinalDist(8, F(1, 2)))
    with pytest.raises(InputError, match="variable count or bias"):
        quadratic_form_value(SetSymmetricForm(10, 2, F(1, 2), "B"), f)
    phi = convert_basis(f, Basis.PHI, F(1, 3))
    with pytest.raises(InputError, match="variable count or bias"):
        quadratic_form_value(SetSymmetricForm(6, 2, F(1, 2), "B"), phi)
    form = SetSymmetricForm(6, 2, F(1, 2), "B")
    assert quadratic_form_value(form, f) == brute_variance(f, GlobalCardinality(6, F(1, 2)))
