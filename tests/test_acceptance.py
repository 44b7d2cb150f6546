"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import random
import time
from fractions import Fraction as F
from math import comb

import pytest

from cardcsp.cardinal_dist import CardinalDist, chi_variance
from cardcsp.csp_model import (Constraint, CspInstance, GlobalCardinality,
                               to_polynomial)
from cardcsp.oracle import (brute_force_decision, brute_moment, brute_variance,
                            hyper_ratio, mean_restricted_variance, restriction_gap)
from cardcsp.poly import Basis, MultilinearPoly
from cardcsp.rounding import (gamma_denominator, round_bisection, round_global)
from cardcsp.solver import (bisection_fourth_moment_bound, decide,
                            general_fourth_moment_bound)
from cardcsp.spectra import SetSymmetricForm, eigen_summary, project_null

from conftest import (complete_graph, constraint_poly, graph_instance, path_graph,
                      random_instance, random_poly, star_graph, valid_biases)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def structured_corpus():
    """(instance, card, t) triples: cliques, stars, paths, planted kernels."""
    cases = []
    for n in (4, 6, 8):
        for inst in (complete_graph(n), star_graph(n), path_graph(n)):
            cases.append((inst, GlobalCardinality(n, F(1, 2)), 1))
    # embedded (planted-kernel) instances: constraints confined to few
    # variables inside a larger slice, bisection and biased
    rng = random.Random(99)
    for n, p in ((10, F(1, 2)), (12, F(1, 3)), (8, F(1, 4))):
        for _ in range(4):
            kernel_vars = rng.sample(range(1, n + 1), 4)
            cons = []
            for _ in range(rng.randint(2, 6)):
                k = rng.randint(1, 2)
                vs = tuple(rng.sample(kernel_vars, k))
                pats = set()
                while not pats:
                    pats = {tuple(rng.choice((-1, 1)) for _ in range(k))
                            for _ in range(rng.randint(1, 2 ** k - 1))}
                cons.append(Constraint(vs, frozenset(pats)))
            inst = CspInstance(n=n, d=2, constraints=tuple(cons))
            cases.append((inst, GlobalCardinality(n, p), rng.choice([1, 2])))
    return cases


def test_criterion_1_oracle_equivalence_of_decisions():
    rng = random.Random(20250810)
    start = time.monotonic()
    mismatches = []
    total = 0
    for _ in range(200):
        n = rng.choice([6, 8, 9, 10, 12])  # n in [6,12] with some valid bias
        d = rng.choice([2, 3])
        m = rng.randint(1, 30)
        p = rng.choice(valid_biases(n))
        t = rng.choice([1, 2, 3])
        inst = random_instance(rng, n, d, m)
        card = GlobalCardinality(n, p)
        verdict = decide(inst, card, t)
        want = brute_force_decision(inst, card, t)
        total += 1
        if verdict.answer_bool != want:
            mismatches.append((n, d, m, str(p), t))
    for inst, card, t in structured_corpus():
        verdict = decide(inst, card, t)
        want = brute_force_decision(inst, card, t)
        total += 1
        if verdict.answer_bool != want:
            mismatches.append(("structured", inst.n, str(card.p), t))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 300.0
    report(1, ok, f"{total} instances, {len(mismatches)} mismatches, "
                  f"{elapsed:.1f}s (< 300s)")


def test_criterion_2_delta_exactness():
    violations = []
    checked = 0
    for n in range(2, 15):
        ps = [p for p in (F(1, 2), F(1, 3), F(1, 4), F(2, 5), F(2, 7))
              if (p * n).denominator == 1 and 0 < p < 1]
        for p in ps:
            dist = CardinalDist(n, p)
            card = GlobalCardinality(n, p)
            kmax = min(n, 6)
            for k in range(kmax + 1):
                phi_s = MultilinearPoly.from_subsets(n, {tuple(range(1, k + 1)): F(1)},
                                                     Basis.PHI, p)
                if dist.delta(k) != brute_moment(phi_s, card, 1):
                    violations.append((n, str(p), k))
                checked += 1
            if p == F(1, 2):
                for i in range(1, kmax // 2 + 1):
                    dfact = 1
                    for j in range(1, 2 * i, 2):
                        dfact *= j
                    denom = 1
                    for j in range(1, 2 * i, 2):
                        denom *= n - j
                    expected = F((-1) ** i * dfact, denom)
                    if dist.delta(2 * i) != expected:
                        violations.append((n, "closed-form", 2 * i))
                    if dist.delta(2 * i - 1) != 0:
                        violations.append((n, "odd-vanish", 2 * i - 1))
    report(2, not violations,
           f"{checked} delta values across n <= 14, zero tolerance; "
           f"{len(violations)} violations")


def test_criterion_3_quadratic_form_exactness():
    rng = random.Random(31)
    grid = [(8, F(1, 2)), (8, F(1, 4)), (9, F(1, 3)), (12, F(1, 2))]
    violations = 0
    checked = 0
    for n, p in grid:
        card = GlobalCardinality(n, p)
        d = 3
        form_a = SetSymmetricForm(n=n, d=d, p=p, kind="A")
        form_b = SetSymmetricForm(n=n, d=d, p=p, kind="B")
        from cardcsp.spectra import quadratic_form_value
        for _ in range(50):
            f = random_poly(rng, n, d, 8, Basis.PHI, p)
            if quadratic_form_value(form_a, f) != brute_moment(f, card, 2):
                violations += 1
            if quadratic_form_value(form_b, f) != brute_variance(f, card):
                violations += 1
            checked += 1
    report(3, violations == 0,
           f"A/B forms vs brute moments on {checked} random degree-<=3 "
           f"polynomials over {len(grid)} (n,p) points, exact; {violations} violations")


def test_criterion_4_spectrum_of_moment_forms():
    n, d = 24, 2
    start = time.monotonic()
    summary_a = eigen_summary(SetSymmetricForm(n=n, d=d, p=F(1, 2), kind="A"))
    summary_b = eigen_summary(SetSymmetricForm(n=n, d=d, p=F(1, 2), kind="B"))
    elapsed = time.monotonic() - start
    checks = {
        "null dim A = 25": summary_a.null_dim == comb(24, 1) + 1,
        "A eigenvalues in [0.45, 2.1]":
            all(0.45 <= v <= 2.1 for v in summary_a.nonzero_eigenvalues),
        "B eigenvalues in [0.45, 2.1]":
            all(0.45 <= v <= 2.1 for v in summary_b.nonzero_eigenvalues),
        "A clusters near {1, 3/2}":
            all(min(abs(c.value - 1.0), abs(c.value - 1.5)) <= 0.15
                for c in summary_a.clusters),
        "B clusters near {1}":
            all(abs(c.value - 1.0) <= 0.15 for c in summary_b.clusters),
        "runtime < 30s": elapsed < 30.0,
    }
    failed = [k for k, v in checks.items() if not v]
    report(4, not failed,
           f"spectra of two {comb(24, 2) + 25}-dim forms in {elapsed:.3f}s; "
           + (f"failed: {failed}" if failed else "all spectrum checks hold"))


def test_criterion_5_rounding_guarantees():
    # (a) ladder integrality + blow-up on every small-variance bisection
    #     instance from the criterion-1 style corpus
    rng = random.Random(555)
    violations = []
    worst_blowup = F(0)
    runs = 0
    for _ in range(110):
        n = rng.randint(6, 12)
        d = rng.choice([2, 3])
        if (F(1, 2) * n).denominator != 1:
            continue
        inst = random_instance(rng, n, d, rng.randint(1, 30))
        card = GlobalCardinality(n, F(1, 2))
        dist = CardinalDist(n, F(1, 2))
        f = to_polynomial(inst)
        gamma = F(1, 2 ** inst.d)
        proj = project_null(f, dist)
        out = round_bisection(f, proj.h, gamma, d=inst.d, allow_large_residual=True)
        scale = gamma_denominator(inst.d)
        for c in out.h.coeffs.values():
            if (c * scale / gamma).denominator != 1:
                violations.append(("integrality", n, d))
                break
        if out.norm_blowup > 7 ** inst.d:
            violations.append(("blowup", n, d, float(out.norm_blowup)))
        worst_blowup = max(worst_blowup, out.norm_blowup)
        runs += 1
    # (b) planted-kernel recovery, 50 trials
    recovered = 0
    trials = 50
    for _ in range(trials):
        n, p = 12, F(1, 3)
        dist = CardinalDist(n, p)
        shift = dist.target_sum
        base = constraint_poly(n, Basis.CHI) - MultilinearPoly.constant(n, shift)
        gamma = F(1, 4)
        g = MultilinearPoly.from_subsets(
            n, {tuple(sorted(rng.sample(range(1, 5), rng.randint(1, 2)))):
                gamma * rng.randint(-3, 3) for _ in range(4)})
        h_star = MultilinearPoly.from_subsets(
            n, {tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, 1)))):
                gamma * rng.randint(-2, 2) for _ in range(3)})
        out = round_global(g + base * h_star, dist, gamma, d=2,
                           allow_large_variance=True)
        if out.active_set <= {1, 2, 3, 4}:
            recovered += 1
    ok = not violations and recovered == trials
    report(5, ok,
           f"{runs} bisection roundings: ladder exact, max blow-up "
           f"{float(worst_blowup):.2f} (bound {7 ** 2}..{7 ** 3}); planted recovery "
           f"{recovered}/{trials}; violations: {violations}")


def test_criterion_6_hypercontractivity_bounds():
    rng = random.Random(66)
    n, d = 12, 2
    results = {}
    for p in (F(1, 2), F(1, 3)):
        bound = bisection_fourth_moment_bound(d) if p == F(1, 2) \
            else general_fourth_moment_bound(d, p)
        dist = CardinalDist(n, p)
        card = GlobalCardinality(n, p)
        basis = Basis.PHI
        worst = F(0)
        violations = 0
        produced = 0
        while produced < 100:
            f = random_poly(rng, n, d, 7, basis, p, include_constant=False)
            g = project_null(f, dist).residual
            if not g.coeffs:
                continue
            ratio, _ = hyper_ratio(g, card)
            produced += 1
            worst = max(worst, ratio)
            if ratio > bound:
                violations += 1
        results[p] = (violations, worst, bound)
    ok = all(v == 0 for v, _, _ in results.values())
    detail = "; ".join(
        f"p={p}: 100 ratios, max {float(w):.2f} vs bound {float(b):.3g}, {v} violations"
        for p, (v, w, b) in results.items())
    report(6, ok, detail)


def test_criterion_7_structured_zero_variance():
    bad = []
    for n in (4, 6, 8, 10):
        for name, inst in (("complete", complete_graph(n)), ("star", star_graph(n))):
            dist = CardinalDist(n, F(1, 2))
            f = to_polynomial(inst)
            var = chi_variance(f, dist)
            from cardcsp.cardinal_dist import chi_expectation
            avg = chi_expectation(f, dist)
            expected_avg = (F(1, 2) + F(1, 2 * (n - 1))) * inst.m
            if var != 0 or avg != expected_avg:
                bad.append((name, n, str(var), str(avg)))
    report(7, not bad, f"K_n and stars for n in 4..10: variance exactly 0 and "
                       f"AVG = (1/2 + 1/(2(n-1))) m; {len(bad)} failures")


def test_criterion_8_certification_soundness():
    # scaled instances force the large-variance branch; the oracle must agree
    cases = []
    for copies in (1800, 2500):
        cases.append((graph_instance(4, [(1, 2), (2, 3), (3, 4)] * copies),
                      GlobalCardinality(4, F(1, 2)), 1))
        cases.append((graph_instance(6, [(1, 2), (3, 4), (5, 6), (1, 4)] * copies),
                      GlobalCardinality(6, F(1, 2)), 2))
    # biased slice: heavy edge at p = 2/5 (bigger fourth-moment constant,
    # so the scale needed to fire the certification is larger)
    cases.append((graph_instance(5, [(1, 2)] * 60_000),
                  GlobalCardinality(5, F(2, 5)), 1))
    fired = 0
    unsound = []
    for inst, card, t in cases:
        verdict = decide(inst, card, t)
        if verdict.branch == "LargeVariance" and verdict.t > 0:
            fired += 1
            if not brute_force_decision(inst, card, t):
                unsound.append((inst.n, str(card.p), t))
    ok = fired > 0 and not unsound
    report(8, ok, f"{fired} large-variance certifications, {len(unsound)} unsound "
                  f"(oracle cross-checked)")


def test_criterion_9_restriction_statistics():
    rng = random.Random(9)
    d = 2
    # conditional second-moment gap on 150 enumerated cases
    gap_violations = 0
    checked = 0
    for n in (8, 10, 12):
        p = F(1, 2)
        card = GlobalCardinality(n, p)
        bound_const = 3 * d ** 1.5 / (float(p) * (1 - float(p)))
        produced = 0
        while produced < 50:
            f = random_poly(rng, n, d, 6, Basis.PHI, p)
            coeffs = {s: c for s, c in f.items_sorted() if 1 not in s}
            g = MultilinearPoly.from_subsets(n, coeffs, Basis.PHI, p)
            if not g.coeffs:
                continue
            produced += 1
            checked += 1
            gap = abs(float(restriction_gap(g, card, 1)))
            limit = bound_const * float(g.l2_norm_sq()) / n ** 0.5
            if gap > limit + 1e-12:
                gap_violations += 1
    # averaged restricted variance, exact, n <= 10
    avg_violations = 0
    for n, p in ((8, F(1, 4)), (9, F(1, 3)), (10, F(3, 10))):
        dist = CardinalDist(n, p)
        card = GlobalCardinality(n, p)
        for _ in range(4):
            f = random_poly(rng, n, 2, 6)
            if mean_restricted_variance(f, card) > chi_variance(f, dist):
                avg_violations += 1
    ok = gap_violations == 0 and avg_violations == 0
    report(9, ok, f"{checked} conditional-gap cases within the stated bound "
                  f"({gap_violations} violations); averaged restricted variance "
                  f"<= slice variance exactly ({avg_violations} violations)")
