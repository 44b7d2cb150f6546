"""CSP instances, the instance file format, and compilation to a counting polynomial.

Instance file format (UTF-8, line oriented, '#' starts a comment):

    csp <n> <m> <d> <p_num>/<p_den>
    c <arity> <v1> ... <vk>        # one block per constraint
    s <+-1> ... <+-1>              # one line per satisfying pattern

Variables are 1-indexed.  Constraints of arity below d are allowed as-is
(no dummy-variable padding); duplicate constraints are kept (the objective
counts satisfied constraints with multiplicity).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, FrozenSet, List, Tuple

from .errors import InputError, ParseError
from .poly import Assignment, Basis, MultilinearPoly, Subset, check_assignment

Pattern = Tuple[int, ...]


@dataclass(frozen=True)
class Constraint:
    variables: Tuple[int, ...]          # distinct, 1-based
    patterns: FrozenSet[Pattern]        # satisfying +-1 tuples, same arity

    @property
    def arity(self) -> int:
        return len(self.variables)


@dataclass(frozen=True)
class CspInstance:
    n: int
    d: int                              # max arity
    constraints: Tuple[Constraint, ...]

    @property
    def m(self) -> int:
        return len(self.constraints)


@dataclass(frozen=True)
class GlobalCardinality:
    """Sum x_i = (1-2p)n; exactly p*n variables take the value -1."""

    n: int
    p: Fraction

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise InputError(f"n = {self.n!r} is not a positive integer")
        if not 0 < self.p < 1:
            raise InputError("p must lie in (0,1)")
        if (self.p * self.n).denominator != 1:
            raise InputError(f"p*n = {self.p * self.n} is not an integer")

    @property
    def num_negative(self) -> int:
        return int(self.p * self.n)

    @property
    def num_positive(self) -> int:
        return self.n - self.num_negative

    @property
    def target_sum(self) -> int:
        return self.n - 2 * self.num_negative


def _check_scope(variables: Tuple[int, ...], n: int, d: int) -> None:
    if not 1 <= len(variables) <= d:
        raise InputError(f"constraint arity {len(variables)} outside [1..{d}]")
    if len(set(variables)) != len(variables):
        raise InputError(f"duplicate variable in constraint {variables}")
    if any(not 1 <= v <= n for v in variables):
        raise InputError(f"variable out of range in constraint {variables}")


def _check_pattern(pat: Pattern, arity: int) -> None:
    if len(pat) != arity:
        raise InputError(f"pattern {pat} has arity {len(pat)}, not {arity}")
    if any(v not in (-1, 1) for v in pat):
        raise InputError(f"pattern {pat} has entries outside +-1")


def validate_instance(inst: CspInstance) -> None:
    for c in inst.constraints:
        _check_scope(c.variables, inst.n, inst.d)
        if not c.patterns:
            raise InputError("empty predicate")
        for pat in c.patterns:
            _check_pattern(pat, c.arity)


def _at_line(line: int, check, *args):
    """check(*args), with an InputError re-raised as a ParseError at line."""
    try:
        return check(*args)
    except InputError as exc:
        raise ParseError(str(exc), line) from exc


def parse_instance(text: str) -> Tuple[CspInstance, GlobalCardinality]:
    """Parse the line-oriented instance format; errors carry line numbers."""
    lines = text.splitlines()
    tokens: List[Tuple[int, List[str]]] = []
    for idx, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            tokens.append((idx, body.split()))
    if not tokens:
        raise ParseError("empty instance", 1)
    line_no, head = tokens[0]
    if head[0] != "csp" or len(head) != 5:
        raise ParseError("expected header 'csp <n> <m> <d> <p_num>/<p_den>'", line_no)
    try:
        n, m, d = int(head[1]), int(head[2]), int(head[3])
        p = Fraction(head[4])
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad header field: {exc}", line_no) from exc
    if n < 1 or m < 0 or d < 1:
        raise ParseError("n and d must be positive, m nonnegative", line_no)
    card = _at_line(line_no, GlobalCardinality, n, p)

    constraints: List[Constraint] = []
    pos = 1
    while pos < len(tokens):
        line_no, tok = tokens[pos]
        if tok[0] != "c":
            raise ParseError(f"expected constraint line 'c ...', got {tok[0]!r}", line_no)
        try:
            arity = int(tok[1])
            variables = tuple(int(v) for v in tok[2:])
        except (IndexError, ValueError) as exc:
            raise ParseError(f"bad constraint line: {exc}", line_no) from exc
        if len(variables) != arity:
            raise ParseError(f"arity {arity} but {len(variables)} variables", line_no)
        _at_line(line_no, _check_scope, variables, n, d)
        pos += 1
        patterns = set()
        while pos < len(tokens) and tokens[pos][1][0] == "s":
            s_line, s_tok = tokens[pos]
            vals = []
            for field in s_tok[1:]:
                if field in ("1", "+1"):
                    vals.append(1)
                elif field == "-1":
                    vals.append(-1)
                else:
                    raise ParseError(f"pattern entry {field!r} is not +-1", s_line)
            _at_line(s_line, _check_pattern, tuple(vals), arity)
            patterns.add(tuple(vals))
            pos += 1
        if not patterns:
            raise ParseError("constraint has no satisfying patterns", line_no)
        constraints.append(Constraint(variables, frozenset(patterns)))
    if len(constraints) != m:
        raise ParseError(f"header declares m={m} but found {len(constraints)} constraints",
                         tokens[0][0])
    return CspInstance(n=n, d=d, constraints=tuple(constraints)), card


def format_instance(inst: CspInstance, card: GlobalCardinality) -> str:
    """Inverse of parse_instance (used by tests and generators)."""
    out = [f"csp {inst.n} {inst.m} {inst.d} {card.p.numerator}/{card.p.denominator}"]
    for c in inst.constraints:
        out.append("c " + " ".join(str(v) for v in (c.arity,) + c.variables))
        for pat in sorted(c.patterns):
            out.append("s " + " ".join(f"{v:+d}" for v in pat))
    return "\n".join(out) + "\n"


def to_polynomial(inst: CspInstance) -> MultilinearPoly:
    """Chi-basis polynomial whose value at any assignment is the number of
    satisfied constraints.  Every coefficient is a multiple of 2^-arity of
    the constraint contributing it, hence of 2^-d overall: the coefficients
    are summed as int numerators over 2^top, top the largest arity."""
    top = max((c.arity for c in inst.constraints), default=0)
    nums: Dict[Subset, int] = {}
    for c in inst.constraints:
        k = c.arity
        weight = 1 << (top - k)
        # bit j of a pattern's mask is set when its position j is -1
        neg_masks = [sum(1 << j for j, v in enumerate(pat) if v < 0)
                     for pat in c.patterns]
        # prod_j (1 + pat_j x_{v_j}) / 2^k expands over subsets of positions
        for r in range(k + 1):
            for positions in combinations(range(k), r):
                mask = sum(1 << j for j in positions)
                odd = sum((mask & neg).bit_count() & 1 for neg in neg_masks)
                key = tuple(sorted(c.variables[j] for j in positions))
                nums[key] = nums.get(key, 0) + (len(neg_masks) - 2 * odd) * weight
    den = 1 << top
    return MultilinearPoly(inst.n, {s: Fraction(v, den) for s, v in nums.items() if v},
                           Basis.CHI)


def constraint_count(inst: CspInstance, a: Assignment) -> int:
    """Number of satisfied constraints, by direct predicate lookup."""
    check_assignment(a, inst.n)
    count = 0
    for c in inst.constraints:
        if tuple(a[v - 1] for v in c.variables) in c.patterns:
            count += 1
    return count
