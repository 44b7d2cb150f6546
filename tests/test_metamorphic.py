"""Metamorphic relations of decide: checks that need no reference answer,
so they hold past the oracle's sizes.  On seeded random CSPs at
n = 14-30, d <= 3 and p in {1/2, 1/3, 1/4}:

  (a) relabelling the variables keeps opt and AVG;
  (b) negating every pattern entry and taking p -> 1 - p keeps opt and AVG,
      and the negated witness reaches opt on the original slice;
  (c) appending a constraint that every point satisfies adds 1 to opt and
      to AVG;
  (d) repeating every constraint doubles opt and AVG;
  (e) changing t keeps a SolvedExactly opt and its witness.

(a) moves the scan's lex-first candidate and the walk's tie-break, (b)
swaps the sides of p that the scan sees.  The draws are chosen so that the
walk reads f's own table on some and the kernel step's reduced table on
others.  A draw on which any of its six decides raises ResourceError (a
cap) is counted and reported, not dropped silently, and the test asserts a
minimum of answered draws: at p = 1/2, (d) alone raises on three draws
whose own kernel is 9-19 variables, since the doubled f's projection
rounds to a nonzero h, and (sum x_i - shift) h reads every variable.
The test asserts its own wall time is below BUDGET_S.
"""

import random
import time
from fractions import Fraction as F

from cardcsp.csp_model import (Constraint, CspInstance, GlobalCardinality, _compile,
                               constraint_count)
from cardcsp.errors import ResourceError
from cardcsp.solver import decide

from conftest import random_instance

BUDGET_S = 5.0
DRAWS = 48
MIN_ANSWERED = 43
TAUTOLOGY = frozenset({(1,), (-1,)})


def _relabelled(inst, rng):
    perm = list(range(1, inst.n + 1))
    rng.shuffle(perm)
    cons = tuple(Constraint(tuple(perm[v - 1] for v in c.variables), c.patterns)
                 for c in inst.constraints)
    return CspInstance(n=inst.n, d=inst.d, constraints=cons)


def _negated(inst):
    cons = tuple(Constraint(c.variables, frozenset(tuple(-x for x in pat) for pat in c.patterns))
                 for c in inst.constraints)
    return CspInstance(n=inst.n, d=inst.d, constraints=cons)


def _with_tautology(inst):
    return CspInstance(n=inst.n, d=inst.d,
                       constraints=inst.constraints + (Constraint((1,), TAUTOLOGY),))


def _doubled(inst):
    return CspInstance(n=inst.n, d=inst.d, constraints=inst.constraints * 2)


def _draw(i):
    """(instance, cardinality, t, rng) of draw i: n in 14..30 with pn
    integral, d in 1..3, m in [n/4, n]; rng goes on to draw the relabelling."""
    rng = random.Random(3700 + i)
    p = (F(1, 2), F(1, 3), F(1, 4))[i % 3]
    n = rng.choice([n for n in range(14, 31) if (p * n).denominator == 1])
    d = rng.randint(1, 3)
    inst = random_instance(rng, n, d, rng.randint(max(1, n // 4), n))
    return inst, GlobalCardinality(n, p), rng.randint(1, 2), rng


def test_metamorphic_relations_hold_past_the_oracle(walked):
    start = time.perf_counter()
    answered, raised, tables = 0, [], set()
    for i in range(DRAWS):
        inst, card, t, rng = _draw(i)
        try:
            base = decide(inst, card, t)
            assert base.answer == "SolvedExactly"
            tables.add("f" if walked[-1] is _compile(inst)[1] else "reduced")
            relabelled = decide(_relabelled(inst, rng), card, t)
            negated = decide(_negated(inst), GlobalCardinality(card.n, 1 - card.p), t)
            plus_one = decide(_with_tautology(inst), card, t)
            doubled = decide(_doubled(inst), card, t)
            other_t = decide(inst, card, t + 1)
        except ResourceError:
            raised.append(i)
            continue
        answered += 1
        assert (relabelled.opt, relabelled.avg) == (base.opt, base.avg), i
        assert (negated.opt, negated.avg) == (base.opt, base.avg), i
        mirrored = tuple(-x for x in negated.witness)
        assert sum(mirrored) == card.target_sum, i
        assert constraint_count(inst, mirrored) == base.opt, i
        assert (plus_one.opt, plus_one.avg) == (base.opt + 1, base.avg + 1), i
        assert (doubled.opt, doubled.avg) == (2 * base.opt, 2 * base.avg), i
        assert other_t.answer == "SolvedExactly", i
        assert (other_t.opt, other_t.witness) == (base.opt, base.witness), i
    elapsed = time.perf_counter() - start
    print(f"\nmetamorphic: {answered} of {DRAWS} draws answered, raised on {raised}, "
          f"walked {sorted(tables)}, {elapsed:.2f} s")
    assert answered >= MIN_ANSWERED, raised
    assert tables == {"f", "reduced"}
    assert elapsed < BUDGET_S
