"""CSP instances, the instance file format, and compilation to a counting polynomial.

Instance file format (UTF-8, line oriented, '#' starts a comment; a line
ends at a line feed alone, so CR LF works, and CR, VT, FF, U+001C..U+001E,
U+0085, U+2028 and U+2029, where str.splitlines would also break, are
whitespace inside a line):

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

Where the checks run: parse_instance checks each line as it reads it and
names the line (ParseError); it reads each distinct pattern line once per
call and hands every constraint of one predicate the same frozenset.
_compile checks an instance on every route to a table, so an instance
built through the API is checked too: its n and d first, then each scope
while its bitmask keys are built (_scope_keys), and each distinct
(arity, patterns) once, in the cached _chi_table.  validate_instance runs
the same checks on its own.  Each check has one definition
(exact.check_positive_int, _check_scope, _check_predicate), which also
writes every message; a fast path calls it only to raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Dict, FrozenSet, List, Set, Tuple

from .cardinal_dist import GlobalCardinality
from .errors import InputError, ParseError
from .exact import RATIONAL_DIGITS, check_positive_int, parse_count, parse_rational
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
    """Raise InputError naming the first scope check that variables fail:
    arity in [1..d], every variable an int, no repeated variable, every
    variable in [1..n].  A bool is an int here: True is variable 1, and
    False is out of range.  The parser and the compile test the same
    conditions on their own fast path and call this only to raise."""
    if not 1 <= len(variables) <= d:
        raise InputError(f"constraint arity {len(variables)} outside [1..{d}]")
    for v in variables:
        if not isinstance(v, int):
            raise InputError(f"variable {v!r} in constraint {variables} is not an int")
    if len(set(variables)) != len(variables):
        raise InputError(f"duplicate variable in constraint {variables}")
    if min(variables) < 1 or max(variables) > n:
        raise InputError(f"variable out of range in constraint {variables}")


def _check_pattern(pat: Pattern, arity: int) -> None:
    if len(pat) != arity:
        raise InputError(f"pattern {pat} has arity {len(pat)}, not {arity}")
    if any(v not in (-1, 1) for v in pat):
        raise InputError(f"pattern {pat} has entries outside +-1")


def _check_predicate(patterns, arity: int) -> None:
    """Raise InputError unless patterns is a nonempty set of +-1 tuples of
    length arity: one pass over all their lengths and entries, and a walk
    pattern by pattern only on a bad predicate, to name the first culprit."""
    if not patterns:
        raise InputError("empty predicate")
    if (set(map(len, patterns)) != {arity}
            or not _SIGNS.issuperset(chain.from_iterable(patterns))):
        for pat in patterns:
            _check_pattern(pat, arity)


def validate_instance(inst: CspInstance) -> None:
    check_positive_int("n", inst.n)
    check_positive_int("d", inst.d)
    for c in inst.constraints:
        _check_scope(c.variables, inst.n, inst.d)
        _check_predicate(c.patterns, c.arity)


def _at_line(line: int, check, *args):
    """check(*args), with an InputError re-raised as a ParseError at line."""
    try:
        return check(*args)
    except InputError as exc:
        raise ParseError(str(exc), line) from exc


def _read_scope(fields: List[str], n: int, d: int, line: int) -> Tuple[int, ...]:
    """The variables of the constraint line `c <arity> <v1> ... <vk>`.  Its
    counts take one ASCII-digit check and int(); only a line that fails
    it, or holds more than RATIONAL_DIGITS digits in all, is read field by
    field by exact.parse_count, which names a bad field."""
    counts = fields[1:]
    digits = "".join(counts)
    if digits.isdigit() and digits.isascii() and len(digits) <= RATIONAL_DIGITS:
        arity, *variables = map(int, counts)
    else:
        try:
            arity = parse_count("arity", fields[1])
            variables = [parse_count("variable", text) for text in counts[1:]]
        except (IndexError, InputError) as exc:
            raise ParseError(f"bad constraint line: {exc}", line) from exc
    variables = tuple(variables)
    if len(variables) != arity:
        raise ParseError(f"arity {arity} but {len(variables)} variables", line)
    if not (0 < arity <= d and 0 not in variables and max(variables) <= n
            and len(set(variables)) == arity):
        _at_line(line, _check_scope, variables, n, d)
    return variables


def parse_instance(text: str) -> Tuple[CspInstance, GlobalCardinality]:
    """Parse the line-oriented instance format in one pass over its lines;
    errors carry line numbers.  A pattern line's text is read once per call
    (pattern_of), and each distinct predicate is one shared frozenset, so
    the constraints of a dense instance that repeat a predicate pay for it
    once."""
    # a line ends at "\n" alone; "\r" and the other breaks of str.splitlines
    # are whitespace inside a line, so a line number counts newlines
    lines = enumerate(text.split("\n"), start=1)
    for head_line, raw in lines:
        head = raw.split("#", 1)[0].split()
        if head:
            break
    else:
        raise ParseError("empty instance", 1)
    if head[0] != "csp" or len(head) != 5:
        raise ParseError("expected header 'csp <n> <m> <d> <p_num>/<p_den>'", head_line)
    try:
        n, m, d = (parse_count(name, text, HEADER_COUNT_MAX)
                   for name, text in zip("nmd", head[1:4]))
        p = parse_rational(head[4])
    except InputError as exc:
        raise ParseError(f"bad header field: {exc}", head_line) from exc
    if n < 1 or m < 0 or d < 1:
        raise ParseError("n and d must be positive, m nonnegative", head_line)
    card = _at_line(head_line, GlobalCardinality, n, p)

    pattern_of: Dict[str, Pattern] = {}     # a pattern line's text -> its +-1 tuple
    scopes: List[Tuple[Tuple[int, ...], Set[Pattern]]] = []
    c_line, arity, patterns = 0, 0, set()   # the open constraint (c_line 0: none yet)
    for line_no, raw in lines:
        pat = pattern_of.get(raw)
        if pat is None:
            fields = (raw.split("#", 1)[0] if "#" in raw else raw).split()
            if not fields:
                continue
            tag = fields[0]
            if tag == "s" and c_line:
                try:
                    pat = pattern_of[raw] = tuple(map(_SIGN_OF.__getitem__, fields[1:]))
                except KeyError as exc:
                    raise ParseError(f"pattern entry {exc.args[0]!r} is not +-1",
                                     line_no) from None
            else:
                if c_line and not patterns:
                    if tag != "c":
                        raise ParseError(f"expected pattern line 's ...', got {tag!r}",
                                         line_no)
                    raise ParseError("constraint has no satisfying patterns", c_line)
                if tag != "c":
                    raise ParseError(f"expected constraint line 'c ...', got {tag!r}",
                                     line_no)
                variables = _read_scope(fields, n, d, line_no)
                c_line, arity, patterns = line_no, len(variables), set()
                scopes.append((variables, patterns))
                continue
        if len(pat) != arity:
            raise ParseError(f"pattern {pat} has arity {len(pat)}, not {arity}", line_no)
        patterns.add(pat)
    if c_line and not patterns:
        raise ParseError("constraint has no satisfying patterns", c_line)
    if len(scopes) != m:
        raise ParseError(f"header declares m={m} but found {len(scopes)} constraints",
                         head_line)
    shared: Dict[FrozenSet[Pattern], FrozenSet[Pattern]] = {}
    constraints = []
    for variables, patterns in scopes:
        predicate = frozenset(patterns)
        constraints.append(Constraint(variables, shared.setdefault(predicate, predicate)))
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
    zeros kept.  Bit j of a local mask is position j.  The predicate is
    checked first (_check_predicate).  Cached: the table and the check
    depend on the predicate alone, and dense instances repeat a few."""
    _check_predicate(patterns, arity)
    # bit j of a pattern's mask is set when its position j is -1
    neg_masks = [sum(1 << j for j, v in enumerate(pat) if v < 0) for pat in patterns]
    table = []
    for r in range(arity + 1):
        for positions in combinations(range(arity), r):
            mask = sum(1 << j for j in positions)
            odd = sum((mask & neg).bit_count() & 1 for neg in neg_masks)
            table.append((mask, len(neg_masks) - 2 * odd))
    return tuple(table)


def _scope_keys(variables: Tuple[int, ...], n: int, d: int) -> List[int]:
    """keys[local]: the global bitmask of the positions in local, built
    while the scope is checked: the arity before any key, then each
    variable's range, and that its bit is not yet in the last key (the
    union so far), before it doubles the keys.  A variable that is not an
    int fails the range test or the shift with a TypeError.  _check_scope
    names every failure."""
    if 0 < len(variables) <= d:
        keys = [0]
        try:
            for v in variables:
                if not 0 < v <= n:
                    break
                bit = 1 << (v - 1)
                if keys[-1] & bit:
                    break
                keys += [key | bit for key in keys]
            else:
                return keys
        except TypeError:
            pass
    _check_scope(variables, n, d)
    raise AssertionError(f"_check_scope passed the scope {variables} that _scope_keys refused")


def _compile(inst: CspInstance) -> Tuple[int, Dict[int, int]]:
    """(den, {mask: numerator}) of the counting polynomial: its chi
    coefficients as int numerators over den = 2^top, top the largest
    arity, zeros dropped.  Every coefficient is a multiple of 2^-arity of
    the constraint contributing it, hence of 2^-top overall.  Each
    constraint adds its predicate's `_chi_table` with local masks mapped
    to its variables' bits.  This is the table every layer of decide
    reads, so the instance is checked here, on every route from an
    instance to a table, constraint by constraint as validate_instance
    does: each scope while its keys are built (_scope_keys), and each
    distinct predicate once, in _chi_table; n and d first."""
    check_positive_int("n", inst.n)
    check_positive_int("d", inst.d)
    # an arity above d fails its check below: it never sizes a weight
    top = max((len(c.variables) for c in inst.constraints if len(c.variables) <= inst.d),
              default=0)
    nums: Dict[int, int] = {}
    for c in inst.constraints:
        keys = _scope_keys(c.variables, inst.n, inst.d)
        try:
            table = _chi_table(len(c.variables), frozenset(c.patterns))
        except InputError:
            # name the culprit in the order of the instance's own set
            _check_predicate(c.patterns, len(c.variables))
            raise
        weight = 1 << (top - len(c.variables))
        for local, num in table:
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
