"""Traced replay of the decision procedure, one public layer call at a time.

`replay` calls the layers in the order `cardcsp.solver.decide` does and
records a span and work counters around each call, from outside the
program.  The benchmark checks that it reproduces decide's branch, kernel,
optimum and witness exactly, so the per-layer numbers describe the same
computation the untraced timing measured.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb
from typing import Dict, List

import cardcsp.rounding as rounding
from cardcsp.cardinal_dist import CardinalDist, chi_expectation, chi_variance
from cardcsp.csp_model import constraint_count, parse_instance, to_polynomial
from cardcsp.errors import ResourceError
from cardcsp.solver import _complete_witness, certification_threshold, enumerate_kernel
from cardcsp.spectra import project_null, subsets_upto

# Layer spans, in decide's order; each is a child of one "verdict" span.
LAYERS = ("csp_model.parse", "csp_model.compile", "cardinal_dist.moments",
          "solver.certify", "spectra.project", "rounding.round", "solver.enum",
          "csp_model.witness")


class Tracer:
    """In-memory spans and counters; written out once the run ends."""

    def __init__(self):
        self.spans: List[dict] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, instance: str):
        index = len(self.spans)
        record = {"name": name, "instance": instance,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


@contextmanager
def counting_reconstruct(tracer: Tracer):
    """Count calls to rounding.reconstruct_h by wrapping the public function."""
    original = rounding.reconstruct_h

    def counted(*args, **kwargs):
        tracer.add("rounding.reconstruct_calls", 1)
        return original(*args, **kwargs)

    rounding.reconstruct_h = counted
    try:
        yield
    finally:
        rounding.reconstruct_h = original


def feasible_points(size: int, card) -> int:
    """Kernel points whose -1 and +1 counts both fit the slice's budgets."""
    low = max(0, size - card.num_positive)
    return sum(comb(size, j) for j in range(low, min(size, card.num_negative) + 1))


def replay(text: str, t: int, config, tracer: Tracer, ident: str) -> dict:
    """decide(parse_instance(text), t, config), one traced layer at a time."""
    with tracer.span("verdict", ident):
        with tracer.span("csp_model.parse", ident):
            inst, card = parse_instance(text)
        with tracer.span("csp_model.compile", ident):
            f = to_polynomial(inst)
        tracer.add("csp_model.terms", len(f.coeffs))
        dist = CardinalDist.from_card(card)
        with tracer.span("cardinal_dist.moments", ident):
            avg = chi_expectation(f, dist)
            var = chi_variance(f, dist)
        tracer.add("cardinal_dist.products", len(f.coeffs) ** 2)
        d = max(inst.d, 1)
        with tracer.span("solver.certify", ident):
            certified = t <= 0 or var >= certification_threshold(d, card.p, t)
        tracer.add("solver.certified", int(certified))
        if certified:
            return {"branch": "LargeVariance", "avg": avg, "kernel": None,
                    "opt": None, "witness": None}
        gamma = Fraction(1, 2 ** d)
        if card.p == Fraction(1, 2):
            with tracer.span("spectra.project", ident):
                proj = project_null(f, dist, mode="exact")
            if f.degree_bound:
                tracer.add("spectra.gram_dim", len(subsets_upto(f.n, f.degree_bound - 1)))
            with tracer.span("rounding.round", ident):
                outcome = rounding.round_bisection(f, proj.h, gamma, d=d,
                                                   allow_large_residual=True)
            base = f.coefficient(())
        else:
            with tracer.span("rounding.round", ident), counting_reconstruct(tracer):
                outcome = rounding.round_global(f, dist, gamma, d=d, variance=var,
                                                allow_large_variance=True)
            base = Fraction(0)
        kernel = tuple(sorted(outcome.active_set))
        tracer.add("rounding.kernel_vars", len(kernel))
        tracer.add("rounding.n_vars", card.n)
        if len(kernel) > config.kernel_cap:
            raise ResourceError(f"kernel of {len(kernel)} variables exceeds "
                                f"enumeration cap {config.kernel_cap}", payload=kernel)
        with tracer.span("solver.enum", ident):
            opt, arg = enumerate_kernel(outcome.reduced, kernel, card, base,
                                        cap=config.kernel_cap)
        tracer.add("solver.enum_points", 2 ** len(kernel))
        tracer.add("solver.enum_feasible", feasible_points(len(kernel), card))
        with tracer.span("csp_model.witness", ident):
            witness = _complete_witness(kernel, arg, card)
            achieved = constraint_count(inst, witness)
        if achieved != opt:
            raise AssertionError(f"{ident}: witness value {achieved} != optimum {opt}")
        return {"branch": "SmallVariance", "avg": avg, "kernel": kernel,
                "opt": opt, "witness": witness}
