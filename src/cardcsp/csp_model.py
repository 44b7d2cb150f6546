"""CSP instances, the instance file format, and compilation to a counting polynomial.

Instance file format (UTF-8, line oriented, '#' starts a comment):

    csp <n> <m> <d> <p_num>/<p_den>
    c <arity> <v1> ... <vk>        # one block per constraint
    s <+-1> ... <+-1>              # one line per satisfying pattern

Every count (n, m, d, an arity, a variable) is read by exact.parse_count:
ASCII digits only, with no sign and no underscore, at most 1000 of them;
n, m and d are at most HEADER_COUNT_MAX (10^7).  p is read by
exact.parse_rational: p_num/p_den, or a decimal such as 0.25, of at most
1000 digits.  Variables are 1-indexed.  Constraints of arity
below d are allowed as-is (no dummy-variable padding); duplicate
constraints are kept (the objective counts satisfied constraints with
multiplicity).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Dict, FrozenSet, List, Tuple

from .cardinal_dist import GlobalCardinality
from .errors import InputError, ParseError
from .exact import parse_count, parse_rational
from .poly import Assignment, MultilinearPoly, check_assignment

Pattern = Tuple[int, ...]

# The largest n, m or d a header may declare: n = 10^6 reads, and a larger
# count is refused before any work sized by it starts.
HEADER_COUNT_MAX = 10 ** 7

# the +-1 entries of a pattern, and their spellings in the file format
_SIGNS = frozenset((-1, 1))
_SIGN_OF = {"1": 1, "+1": 1, "-1": -1}


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


def _check_scope(variables: Tuple[int, ...], n: int, d: int) -> None:
    if not 1 <= len(variables) <= d:
        raise InputError(f"constraint arity {len(variables)} outside [1..{d}]")
    if len(set(variables)) != len(variables):
        raise InputError(f"duplicate variable in constraint {variables}")
    if min(variables) < 1 or max(variables) > n:
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
        # one pass over all the patterns' lengths and entries; only a bad
        # predicate is walked pattern by pattern, to name the first culprit
        if (set(map(len, c.patterns)) != {c.arity}
                or not _SIGNS.issuperset(chain.from_iterable(c.patterns))):
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
    tokens: List[Tuple[int, List[str]]] = []
    for idx, raw in enumerate(text.splitlines(), start=1):
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


def format_instance(inst: CspInstance, card: GlobalCardinality) -> str:
    """Inverse of parse_instance (used by tests and generators)."""
    out = [f"csp {inst.n} {inst.m} {inst.d} {card.p.numerator}/{card.p.denominator}"]
    for c in inst.constraints:
        out.append("c " + " ".join(str(v) for v in (c.arity,) + c.variables))
        for pat in sorted(c.patterns):
            out.append("s " + " ".join(f"{v:+d}" for v in pat))
    return "\n".join(out) + "\n"


@lru_cache(maxsize=256)
def _chi_table(arity: int, patterns: FrozenSet[Pattern]) -> Tuple[Tuple[int, int], ...]:
    """One predicate's chi expansion (O'Donnell 2014, ch. 1): its indicator
    prod_j (1 + pat_j x_j) / 2^arity summed over patterns, as (local mask,
    numerator over 2^arity) per subset of positions in (size, lex) order,
    zeros kept.  Bit j of a local mask is position j.  Cached: the table
    depends on the predicate alone, and dense instances repeat a few."""
    # bit j of a pattern's mask is set when its position j is -1
    neg_masks = [sum(1 << j for j, v in enumerate(pat) if v < 0) for pat in patterns]
    table = []
    for r in range(arity + 1):
        for positions in combinations(range(arity), r):
            mask = sum(1 << j for j in positions)
            odd = sum((mask & neg).bit_count() & 1 for neg in neg_masks)
            table.append((mask, len(neg_masks) - 2 * odd))
    return tuple(table)


def _compile(inst: CspInstance) -> Tuple[int, Dict[int, int]]:
    """(den, {mask: numerator}) of the counting polynomial: its chi
    coefficients as int numerators over den = 2^top, top the largest
    arity, zeros dropped.  Every coefficient is a multiple of 2^-arity of
    the constraint contributing it, hence of 2^-top overall.  Each
    constraint adds its predicate's `_chi_table` with local masks mapped
    to its variables' bits.  This is the table every layer of decide
    reads, so the instance is checked here (validate_instance), once, on
    every route from an instance to a table."""
    validate_instance(inst)
    top = max((len(c.variables) for c in inst.constraints), default=0)
    nums: Dict[int, int] = {}
    for c in inst.constraints:
        # keys[local]: the global bitmask of the positions in local
        keys = [0]
        for v in c.variables:
            bit = 1 << (v - 1)
            keys += [key | bit for key in keys]
        weight = 1 << (top - len(c.variables))
        for local, num in _chi_table(len(c.variables), frozenset(c.patterns)):
            key = keys[local]
            nums[key] = nums.get(key, 0) + num * weight
    return 1 << top, {s: v for s, v in nums.items() if v}


def to_polynomial(inst: CspInstance) -> MultilinearPoly:
    """Chi-basis polynomial whose value at any assignment is the number of
    satisfied constraints: _compile's numerators as Fractions."""
    return MultilinearPoly.from_numerators(inst.n, *_compile(inst))


def constraint_count(inst: CspInstance, a: Assignment) -> int:
    """Number of satisfied constraints, by direct predicate lookup."""
    check_assignment(a, inst.n)
    count = 0
    for c in inst.constraints:
        if tuple(a[v - 1] for v in c.variables) in c.patterns:
            count += 1
    return count
