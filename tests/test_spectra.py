import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cardcsp.cardinal_dist import CardinalDist
from cardcsp.csp_model import GlobalCardinality, to_polynomial
from cardcsp.errors import InputError, ResourceError
from cardcsp.exact import scalar_sign, to_float
from cardcsp.oracle import brute_moment, brute_variance
from cardcsp.poly import Basis, MultilinearPoly, convert_basis
from cardcsp.spectra import (SetSymmetricForm, _dot, alpha_table, build_dense,
                             constraint_poly, eigen_summary, eigenvalue_closed_form,
                             null_space_vector, project_null, quadratic_form_value,
                             subsets_upto, vk_basis, vk_eigenvalue_exact)

from conftest import csp_instances, gauss_solve_reference, random_poly


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
            assert scalar_sign(lhs) == 0


def test_alpha_second_order_approximation():
    for n in (50, 100, 200):
        table = alpha_table(n, F(1, 4), 4)
        for k in range(3):
            err = to_float(table.get(k, k + 2)) + 1.0 / (n - 2 * k - 1)
            assert abs(err) <= 10.0 / n ** 2


def test_alpha_asymptotics():
    # alpha_{k,k+2i} -> (-1)^i (2i-1)!!/n^i with O(n^{-i-1}) error
    dfact = {1: 1, 2: 3}
    for n in (50, 100, 200):
        table = alpha_table(n, F(1, 4), 5)
        for k in (0, 1):
            for i in (1, 2):
                approx = (-1) ** i * dfact[i] / n ** i
                err = abs(to_float(table.get(k, k + 2 * i)) - approx)
                assert err <= 60.0 / n ** (i + 1), (n, k, i, err)


def test_alpha_requires_large_n():
    with pytest.raises(InputError):
        alpha_table(6, F(1, 2), 3)


def test_build_dense_singleton_block():
    n = 6
    form = SetSymmetricForm(n=n, d=1, p=F(1, 2), kind="A")
    labels, m = build_dense(form)
    assert labels == subsets_upto(n, 1)
    idx = {s: i for i, s in enumerate(labels)}
    for i in range(1, n + 1):
        assert m[idx[(i,)]][idx[(i,)]] == 1
        for j in range(i + 1, n + 1):
            assert m[idx[(i,)]][idx[(j,)]] == F(-1, n - 1)


def test_quadratic_form_on_constraint_function():
    n = 6
    form = SetSymmetricForm(n=n, d=1, p=F(1, 2), kind="A")
    f = constraint_poly(n, Basis.PHI, F(1, 2))
    assert scalar_sign(quadratic_form_value(form, f)) == 0


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


def test_build_dense_cap():
    form = SetSymmetricForm(n=30, d=3, p=F(1, 2), kind="A")
    with pytest.raises(ResourceError):
        build_dense(form, dense_cap=100)


def test_closed_form_values():
    assert eigenvalue_closed_form(3, 3) == 1
    assert eigenvalue_closed_form(2, 0) == F(3, 2)
    assert eigenvalue_closed_form(4, 0) == F(15, 8)  # 1 + 1/2 + 9/24


def test_vk_basis_partial_sums_vanish():
    # sum over supersets at every smaller size, exactly
    n, d = 8, 3
    for k in (1, 2, 3):
        for vec in vk_basis(n, F(1, 2), d, k)[:4]:
            weight_k = {s: c for s, c in vec.items() if len(s) == k}
            from itertools import combinations
            for size in range(k):
                for small in combinations(range(1, n + 1), size):
                    total = sum((c for s, c in weight_k.items()
                                 if set(small) <= set(s)), F(0))
                    assert total == 0


def test_vk_dimension():
    from math import comb
    n, d = 8, 2
    for k in (0, 1, 2):
        dim = comb(n, k) - (comb(n, k - 1) if k else 0)
        assert len(vk_basis(n, F(1, 2), d, k)) == dim


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


def test_vk_spaces_mutually_orthogonal():
    n, d = 8, 2
    for p in (F(1, 2), F(1, 4)):
        spaces = {k: vk_basis(n, p, d, k) for k in range(d + 1)}
        for j in range(d + 1):
            for k in range(j + 1, d + 1):
                for u in spaces[j][:3]:
                    for v in spaces[k][:3]:
                        assert scalar_sign(_dot(u, v)) == 0


def test_null_space_certification_exact():
    # exact-entry matrix applied to (sum phi_i) phi_S gives zero, all p
    for n, p, d in ((8, F(1, 2), 2), (8, F(1, 4), 2), (9, F(1, 3), 3)):
        form = SetSymmetricForm(n=n, d=d, p=p, kind="A")
        labels, m = build_dense(form)
        idx = {s: i for i, s in enumerate(labels)}
        dist = CardinalDist(n, p)
        for s in subsets_upto(n, d - 1):
            vec = null_space_vector(dist, s)
            dense = [F(0)] * len(labels)
            for t, c in vec.items():
                dense[idx[t]] = c
            for i in range(len(labels)):
                image = sum((m[i][j] * dense[j] for j in range(len(labels))), F(0))
                assert scalar_sign(image) == 0, (p, s, labels[i])


def test_eigen_summary_small_bisection():
    from math import comb
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
        exact = to_float(vk_eigenvalue_exact(n, F(1, 2), d, k))
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
    from math import comb
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
    f = constraint * MultilinearPoly(n, {(1,): F(1)})
    pr = project_null(f, dist)
    assert pr.h.coeffs == {(1,): F(1)}
    assert pr.residual_norm_sq == 0

    star = MultilinearPoly(n, {(): F(n, 2)}) - constraint * MultilinearPoly(n, {(1,): F(1, 2)})
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
            gen = null_space_vector(dist, s)
            gen.pop((), None)
            assert scalar_sign(_dot(gen, pr.residual.coeffs)) == 0
        again = project_null(pr.residual, dist)
        assert again.h.coeffs == {}
        assert again.residual == pr.residual



def _project_null_reference(f, dist):
    """(h, residual) as project_null computed them before the set-symmetric
    table: one _dot per Gram entry and Gaussian elimination."""
    g0 = f.without_constant()
    gen_sets = subsets_upto(f.n, f.degree_bound - 1)
    generators = []
    for s in gen_sets:
        vec = null_space_vector(dist, s)
        vec.pop((), None)
        generators.append(vec)
    gram = [[_dot(a, b) for b in generators] for a in generators]
    rhs = [_dot(a, g0.coeffs) for a in generators]
    coeffs = gauss_solve_reference(gram, rhs)
    h = MultilinearPoly(f.n, {s: c for s, c in zip(gen_sets, coeffs)
                              if scalar_sign(c) != 0}, f.basis, f.p)
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
