"""Seeded instance corpora for the benchmark, and their independent references.

Every instance is generated from the workload seed alone and handed to the
solver as text in the repository's instance format.  Three shapes appear:

- random sparse CSPs (random arity up to d, random predicates), checked
  against the exhaustive oracle;
- a symmetric core plus noise: the complete-graph cut core K_n (d = 2) or
  the complete 3-uniform even-parity core (d = 3), both constant on the
  cardinality slice, plus a few random constraints confined to a small vertex
  set V.  Their reference is the planted structure: the core's constant value
  plus the noise enumerated over V alone, within the slice's budgets, with
  hypergeometric weights for AVG.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import List, Optional, Tuple

from cardcsp.csp_model import (Constraint, CspInstance, GlobalCardinality,
                               constraint_count, format_instance)
from cardcsp.oracle import brute_average, brute_opt

CUT = frozenset({(1, -1), (-1, 1)})
EVEN_PARITY = frozenset(pat for pat in product((-1, 1), repeat=3)
                        if pat.count(-1) % 2 == 0)


@dataclass(frozen=True)
class Case:
    """One corpus entry: the instance text plus what its reference needs."""

    ident: str
    kind: str
    text: str
    t: int
    core_size: Optional[int]            # leading core constraints; None: use the oracle
    noise_vertices: Tuple[int, ...]     # V, the noise's vertex set


@dataclass(frozen=True)
class Reference:
    avg: Fraction
    opt: int


def _random_constraint(rng: random.Random, pool, d: int) -> Constraint:
    k = rng.randint(1, min(d, len(pool)))
    variables = tuple(rng.sample(pool, k))
    patterns = set()
    while not patterns:
        patterns = {tuple(rng.choice((-1, 1)) for _ in range(k))
                    for _ in range(rng.randint(1, 2 ** k - 1))}
    return Constraint(variables, frozenset(patterns))


def random_csp(rng: random.Random, n: int, d: int, m: int) -> CspInstance:
    pool = list(range(1, n + 1))
    return CspInstance(n=n, d=d, constraints=tuple(
        _random_constraint(rng, pool, d) for _ in range(m)))


def cut_core(n: int) -> List[Constraint]:
    return [Constraint(e, CUT) for e in combinations(range(1, n + 1), 2)]


def parity_core(n: int) -> List[Constraint]:
    return [Constraint(e, EVEN_PARITY) for e in combinations(range(1, n + 1), 3)]


def planted(rng: random.Random, core: List[Constraint], n: int, d: int,
            v: int, m_noise: int):
    """core plus m_noise random constraints on a random v-vertex set V."""
    vertices = tuple(sorted(rng.sample(range(1, n + 1), v)))
    noise = [_random_constraint(rng, list(vertices), d) for _ in range(m_noise)]
    return CspInstance(n=n, d=d, constraints=tuple(core + noise)), len(core), vertices


def _sparse(rng, n):
    return random_csp(rng, n, 2, (17 * n) // 10), None, ()


def _cut(rng, n):
    return planted(rng, cut_core(n), n, 2, rng.randint(6, 8), rng.randint(4, 8))


def _parity(rng, n):
    core = parity_core(n)
    return CspInstance(n=n, d=3, constraints=tuple(core)), len(core), ()


def _parity_noise(rng, n):
    return planted(rng, parity_core(n), n, 3, rng.randint(5, 6), rng.randint(4, 6))


def _random3(rng, n):
    return random_csp(rng, n, 3, 2 * n), None, ()


HALF, THIRD = Fraction(1, 2), Fraction(1, 3)
T = 1   # every instance asks for AVG + 1

# name -> strata (kind, generator, p, sizes cycled through, instances per corpus).
# The seed draws only the random parts, so corpora of different seeds share
# their mix of shapes and sizes.  Sizes keep a corpus to 100-300 instances
# of 15-120 ms each, so a 20 s run holds at least one whole pass and at least
# ten instances above the 90th percentile; every n stays within the kernel
# cap, so a draw whose kernel keeps all n variables costs enumeration time
# instead of failing.
WORKLOADS = {
    "bisect-sparse": [
        ("sparse", _sparse, HALF, (10,), 300),
    ],
    "bisect-dense": [
        ("cut", _cut, HALF, (10, 10, 10, 10, 10, 12), 120),
        ("parity", _parity, HALF, (6, 8), 60),
    ],
    "biased-scan": [
        ("parity-noise", _parity_noise, THIRD, (6,), 50),
        ("cut-noise", _cut, THIRD, (9,), 50),
        ("random3", _random3, THIRD, (6,), 50),
    ],
}


def build_corpus(workload: str, seed: int, scale: float = 1.0) -> List[Case]:
    """The workload's corpus for this seed, strata interleaved.

    scale shrinks every stratum (for quick self-tests); 1.0 is the benchmark.
    """
    rng = random.Random(f"{workload}:{seed}")
    strata = []
    for kind, gen, p, sizes, count in WORKLOADS[workload]:
        cases = []
        for i in range(max(1, round(count * scale))):
            n = sizes[i % len(sizes)]
            inst, core, vertices = gen(rng, n)
            cases.append(Case(ident=f"{kind}-{i:03d}", kind=kind,
                              text=format_instance(inst, GlobalCardinality(n, p)),
                              t=T, core_size=core, noise_vertices=vertices))
        strata.append(cases)
    out: List[Case] = []
    for row in range(max(len(s) for s in strata)):
        out.extend(s[row] for s in strata if row < len(s))
    return out


def reference(case: Case, inst: CspInstance, card: GlobalCardinality) -> Reference:
    """AVG and OPT computed without the solver's machinery."""
    if case.core_size is None:
        return Reference(avg=brute_average(inst, card), opt=brute_opt(inst, card)[0])
    n, k = inst.n, card.num_negative
    core = CspInstance(n=n, d=inst.d, constraints=inst.constraints[:case.core_size])
    noise = inst.constraints[case.core_size:]
    # The core is symmetric, hence constant on the slice: read it at one point.
    core_value = constraint_count(core, (-1,) * k + (1,) * (n - k))
    vertices = case.noise_vertices
    outside = n - len(vertices)
    total, best = 0, None
    for values in product((-1, 1), repeat=len(vertices)):
        negs = values.count(-1)
        if negs > k or len(values) - negs > n - k:
            continue
        point = dict(zip(vertices, values))
        count = sum(1 for c in noise
                    if tuple(point[v] for v in c.variables) in c.patterns)
        total += count * comb(outside, k - negs)
        best = count if best is None else max(best, count)
    return Reference(avg=core_value + Fraction(total, comb(n, k)), opt=core_value + best)
