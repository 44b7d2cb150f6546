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
names the line (ParseError), and builds the counting table in the same
pass.  A regular piece (a constraint line and its pattern block, see
parse_instance) is read once per process: the cached _piece checks its
scope with the same _read_scope as the line reader and reads its block
through the cached _block, so every piece with one block shares one
frozenset.  Any other piece goes to the line reader (_Reader), which names
each error at its line.  The parsed instance keeps its table, so _compile
and constraint_count check nothing more for it.  An instance built through
the API is checked on its first _compile, which then keeps its table too:
its n and d first, then each scope (_check_scope) and each distinct
(arity, patterns) once, in the cached _expansion; constraint_count checks
the n, d and scopes of an instance that keeps no table on each call
(_check_scopes), and the oracle once per enumeration.
validate_instance runs the same checks on its own.  Each check has one
definition (exact.check_positive_int, _check_scope, _check_predicate),
which also writes every message; a fast path calls it only to raise.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, combinations
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .cardinal_dist import GlobalCardinality
from .errors import InputError, ParseError
from .exact import check_positive_int, parse_count, parse_rational
from .poly import Assignment, MultilinearPoly, check_assignment

Pattern = Tuple[int, ...]
Term = Tuple[Tuple[int, ...], int]     # (positions, numerator) of one chi term
Expansion = Tuple[int, Tuple[Term, ...]]  # a predicate's constant and its other terms
Bits = Tuple[int, ...]                  # a scope's variables as bits (_BIT)
Group = Tuple[Expansion, List[Bits], FrozenSet[Pattern]]

# The largest n, m or d a header may declare: n = 10^6 reads, and a larger
# count is refused before any work sized by it starts.
HEADER_COUNT_MAX = 10 ** 7

# the +-1 entries of a pattern, and their spellings in the file format
_SIGNS = frozenset((-1, 1))
_SIGN_OF = {"1": 1, "+1": 1, "-1": -1}
# bit v of an int, the mask of variable v shifted left once
_BIT = (1).__lshift__


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


# a count's value by its text, read by exact.parse_count: an instance names
# each variable many times, and instances share their variables' names
_count = lru_cache(maxsize=1024)(partial(parse_count, "count"))
# the header's p by its text, and the slice by (n, p): a corpus repeats a
# few of each.  GlobalCardinality is frozen and equal by (n, p), so every
# instance of a slice shares one, and with it the moment lists (_delta,
# _pair) that it grows on first use.
_bias = lru_cache(maxsize=64)(parse_rational)
_slice = lru_cache(maxsize=256)(GlobalCardinality)


def _read_scope(counts: List[str], n: int, d: int) -> Optional[Tuple[Tuple[int, ...], Bits]]:
    """The variables of a constraint line `c <arity> <v1> ... <vk>`, from
    its counts (the fields after `c`), and their bits (_BIT); None unless
    every count reads through the cached _count, there are arity variables
    and the scope passes its check under n and d: the arity, the largest
    variable (before any shift), then the sum of the bits: bit 0 clear (no
    variable 0) and one bit per variable (no variable twice).  _Reader.scope
    names a failure."""
    try:
        arity, *variables = map(_count, counts)
    except (InputError, ValueError):    # a bad count, or none
        return None
    if len(variables) == arity and 0 < arity <= d and max(variables) <= n:
        bits = tuple(map(_BIT, variables))
        scope = sum(bits)
        if not scope & 1 and scope.bit_count() == arity:
            return tuple(variables), bits
    return None


@lru_cache(maxsize=512)
def _block(block: str, arity: int) -> Optional[FrozenSet[Pattern]]:
    """The predicate of a regular pattern block: lines `s <+-1> ... <+-1>`
    of arity entries and no comment, which the line reader (_Reader.line)
    reads the same way; None for any other block (a blank or commented
    line, a bad entry or count of entries).  Cached, so every regular
    piece (_piece) with this block shares one frozenset (512 entries hold
    the 273 predicates of arity at most 3 as format_instance spells them)."""
    patterns = set()
    for line in block.split("\n"):
        fields = line.split()
        if "#" in line or len(fields) != arity + 1 or fields[0] != "s":
            return None
        try:
            patterns.add(tuple(map(_SIGN_OF.__getitem__, fields[1:])))
        except KeyError:
            return None
    return frozenset(patterns)


# the longest piece parse_instance looks up in _piece, so that the cache
# holds at most about 2 MB of piece text; a longer piece (a block of many
# pattern lines) is read by the line reader
_PIECE_CHARS = 1024


@lru_cache(maxsize=2048)
def _piece(piece: str, n: int, d: int) -> Optional[Tuple[Constraint, Bits, int]]:
    """A regular piece of an instance of n variables and arity at most d
    (parse_instance): a constraint line's text after `c`, whitespace first
    and no comment, whose scope passes _read_scope, then a regular pattern
    block (_block).  Its checked Constraint, its scope's bits and its count
    of line feeds; None for any other piece, which the line reader
    (_Reader) reads to name its error or to read what is irregular in it.
    Cached: the constraints of a corpus repeat (2,048 entries hold the
    distinct pieces of every benchmark corpus, whose largest has 1,039)."""
    rest, _, block = piece.partition("\n")
    if not rest[:1].isspace() or "#" in rest:
        return None
    scope = _read_scope(rest.split(), n, d)
    predicate = scope and _block(block, len(scope[0]))
    if predicate is None:
        return None
    return Constraint(scope[0], predicate), scope[1], piece.count("\n")


@lru_cache(maxsize=256)
def _expansion(arity: int, patterns: FrozenSet[Pattern]) -> Expansion:
    """One predicate's chi expansion (O'Donnell 2014, ch. 1): its indicator
    prod_j (1 + pat_j x_j) / 2^arity summed over patterns, as numerators
    over 2^arity: the constant (one per pattern), then (positions,
    numerator) for each nonempty subset of positions whose numerator is
    not 0, in (size, lex) order.  The predicate is checked first
    (_check_predicate).  Cached: the expansion and the check depend on the
    predicate alone, and dense instances repeat a few."""
    _check_predicate(patterns, arity)
    # bit j of a pattern's mask is set when its position j is -1
    neg_masks = [sum(1 << j for j, v in enumerate(pat) if v < 0) for pat in patterns]
    terms = []
    for r in range(1, arity + 1):
        for positions in combinations(range(arity), r):
            mask = sum(1 << j for j in positions)
            num = len(neg_masks) - 2 * sum((mask & neg).bit_count() & 1 for neg in neg_masks)
            if num:
                terms.append((positions, num))
    return len(neg_masks), tuple(terms)


def _counting_table(groups: Iterable[Group], top: int) -> Tuple[int, Dict[int, int]]:
    """(den, {mask: numerator}) of the constraints in groups, one group
    per predicate: its expansion, the bits (_BIT) of every scope it
    applies to, and the predicate.  Numerators are over den = 2^top, top
    the largest arity, zeros dropped.  A term's key, the sum of its
    positions' bits, is formed for a whole group at once; keys are twice
    the masks until the last step."""
    nums: Dict[int, int] = defaultdict(int)
    for (constant, terms), scopes, _ in groups:
        arity = len(scopes[0])
        shift = top - arity
        nums[0] += len(scopes) * constant << shift
        for positions, num in terms:
            if len(positions) == arity:
                keys = map(sum, scopes)
            elif len(positions) == 1:
                keys = map(itemgetter(positions[0]), scopes)
            else:
                keys = map(sum, map(itemgetter(*positions), scopes))
            num <<= shift
            for key in keys:
                nums[key] += num
    return 1 << top, {key >> 1: num for key, num in nums.items() if num}


class _Reader:
    """What parse_instance has read after its header, one line at a time:
    the constraints so far, grouped by predicate for the counting table,
    and the open constraint (c_line its line, 0 when none is open), which
    close() adds."""

    __slots__ = ("n", "d", "constraints", "groups", "top", "c_line", "variables", "bits",
                 "patterns")

    def __init__(self, n: int, d: int):
        self.n, self.d = n, d
        self.constraints: List[Constraint] = []
        # a predicate -> its group (_counting_table), whose frozenset every
        # constraint of the predicate shares; top: the largest arity
        self.groups: Dict[FrozenSet[Pattern], Group] = {}
        self.top = 0
        self.c_line, self.variables, self.bits, self.patterns = 0, (), (), set()

    def lines(self, lines: List[str], line_no: int) -> None:
        """Read lines, the first of them at line_no."""
        for line_no, raw in enumerate(lines, line_no):
            self.line(raw, line_no)

    def line(self, raw: str, line_no: int) -> None:
        """Read one line: a pattern line adds its +-1 tuple to the open
        constraint, and a constraint line closes the open constraint and
        opens its own; every error names the line."""
        fields = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not fields:
            return
        tag = fields[0]
        if tag == "s" and self.c_line:
            try:
                pat = tuple(map(_SIGN_OF.__getitem__, fields[1:]))
            except KeyError as exc:
                raise ParseError(f"pattern entry {exc.args[0]!r} is not +-1",
                                 line_no) from None
            if len(pat) != len(self.variables):
                raise ParseError(f"pattern {pat} has arity {len(pat)}, not "
                                 f"{len(self.variables)}", line_no)
            self.patterns.add(pat)
            return
        if self.c_line and not self.patterns and tag != "c":
            raise ParseError(f"expected pattern line 's ...', got {tag!r}", line_no)
        self.close()
        if tag != "c":
            raise ParseError(f"expected constraint line 'c ...', got {tag!r}", line_no)
        self.variables, self.bits = self.scope(fields[1:], line_no)
        self.c_line, self.patterns = line_no, set()

    def scope(self, counts: List[str], line_no: int) -> Tuple[Tuple[int, ...], Bits]:
        """The variables of the constraint line at line_no, from its counts
        (the fields after `c`), and their bits, by _read_scope; a line it
        refuses is read again field by field, to name the field, the count
        of variables or the scope check (_check_scope) that fails."""
        scope = _read_scope(counts, self.n, self.d)
        if scope is not None:
            return scope
        try:
            arity = parse_count("arity", counts[0])
            variables = tuple(parse_count("variable", text) for text in counts[1:])
        except (IndexError, InputError) as exc:
            raise ParseError(f"bad constraint line: {exc}", line_no) from exc
        if len(variables) != arity:
            raise ParseError(f"arity {arity} but {len(variables)} variables", line_no)
        _at_line(line_no, _check_scope, variables, self.n, self.d)
        raise AssertionError(f"_check_scope passed the scope {variables} that scope() refused")

    def close(self) -> None:
        """Add the open constraint, if one is; a constraint without
        patterns is an error."""
        if not self.c_line:
            return
        if not self.patterns:
            raise ParseError("constraint has no satisfying patterns", self.c_line)
        self.add(Constraint(self.variables, frozenset(self.patterns)), self.bits)
        self.c_line = 0

    def add(self, constraint: Constraint, bits: Bits) -> None:
        """Add a checked constraint, given its scope's bits, to its
        predicate's group; a constraint whose frozenset is not its group's
        is rebuilt with the group's, so that every constraint of a
        predicate shares one."""
        predicate = constraint.patterns
        group = self.groups.get(predicate)
        if group is None:
            arity = len(bits)
            group = self.groups[predicate] = (_expansion(arity, predicate), [], predicate)
            self.top = max(self.top, arity)
        elif group[2] is not predicate:
            constraint = Constraint(constraint.variables, group[2])
        self.constraints.append(constraint)
        group[1].append(bits)


def parse_instance(text: str) -> Tuple[CspInstance, GlobalCardinality]:
    """Parse the line-oriented instance format in one pass, building the
    counting table as it reads; errors carry line numbers.  After the
    header, the text splits at each line feed followed by "c": every piece
    but the first is the rest of a constraint line, then the pattern block
    up to the next such line.  A regular piece of at most _PIECE_CHARS
    characters maps through the cached _piece to its checked constraint,
    so the constraints that instances repeat are read once per process;
    any other piece, and every piece while a constraint is left open, is
    read line by line (_Reader).  The
    counting table is built from the groups once every line is read
    (_counting_table)."""
    # a line ends at "\n" alone; "\r" and the other breaks of str.splitlines
    # are whitespace inside a line, so a line number counts newlines
    head_line, start = 1, 0
    while True:
        end = text.find("\n", start)
        head = (text[start:end] if end >= 0 else text[start:]).split("#", 1)[0].split()
        if head:
            break
        if end < 0:
            raise ParseError("empty instance", 1)
        head_line, start = head_line + 1, end + 1
    if head[0] != "csp" or len(head) != 5:
        raise ParseError("expected header 'csp <n> <m> <d> <p_num>/<p_den>'", head_line)
    try:
        n, m, d = (parse_count(name, text, HEADER_COUNT_MAX)
                   for name, text in zip("nmd", head[1:4]))
        p = _bias(head[4])
    except InputError as exc:
        raise ParseError(f"bad header field: {exc}", head_line) from exc
    if n < 1 or m < 0 or d < 1:
        raise ParseError("n and d must be positive, m nonnegative", head_line)
    card = _at_line(head_line, _slice, n, p)

    reader = _Reader(n, d)
    add = reader.add
    # the first piece starts with the header line's own line feed
    # (without the text's last line feed, the last block reads as the others)
    first, *pieces = text[end:len(text) - text.endswith("\n")].split("\nc") if end >= 0 else ("",)
    reader.lines(first.split("\n")[1:], head_line + 1)
    line_no = head_line + first.count("\n")
    for piece in pieces:
        line_no += 1
        read = None if reader.c_line or len(piece) > _PIECE_CHARS else _piece(piece, n, d)
        if read is not None:
            constraint, bits, lines = read
            add(constraint, bits)
            line_no += lines
            continue
        reader.lines(("c" + piece).split("\n"), line_no)
        if reader.patterns:
            reader.close()
        line_no += piece.count("\n")
    reader.close()
    if len(reader.constraints) != m:
        raise ParseError(f"header declares m={m} but found {len(reader.constraints)} "
                         "constraints", head_line)
    inst = CspInstance(n=n, d=d, constraints=tuple(reader.constraints))
    object.__setattr__(inst, "_table", _counting_table(reader.groups.values(), reader.top))
    return inst, card


def format_instance(inst: CspInstance, card: GlobalCardinality) -> str:
    """Inverse of parse_instance (used by tests and generators)."""
    out = [f"csp {inst.n} {inst.m} {inst.d} {card.p.numerator}/{card.p.denominator}"]
    for c in inst.constraints:
        out.append("c " + " ".join(str(v) for v in (c.arity,) + c.variables))
        for pat in sorted(c.patterns):
            out.append("s " + " ".join(f"{v:+d}" for v in pat))
    return "\n".join(out) + "\n"


def _compile(inst: CspInstance) -> Tuple[int, Dict[int, int]]:
    """(den, {mask: numerator}) of the counting polynomial: its chi
    coefficients as int numerators over den = 2^top, top the largest
    arity, zeros dropped.  Every coefficient is a multiple of 2^-arity of
    the constraint contributing it, hence of 2^-top overall.  This is the
    table every layer of decide reads.  An instance keeps it (the
    attribute _table, not a dataclass field, so equality, hash and repr do
    not see it): parse_instance builds it while it reads, and an instance
    built through the API is checked and compiled on its first call, as
    validate_instance checks it: n and d first, then each scope
    (_check_scope) and each predicate, each distinct one once, in the
    cached _expansion.  No caller may change the table."""
    table = getattr(inst, "_table", None)
    if table is None:
        check_positive_int("n", inst.n)
        check_positive_int("d", inst.d)
        groups: Dict[FrozenSet[Pattern], Group] = {}
        top = 0
        for c in inst.constraints:
            _check_scope(c.variables, inst.n, inst.d)
            predicate = frozenset(c.patterns)
            try:
                expansion = _expansion(len(c.variables), predicate)
            except InputError:
                # name the culprit in the order of the instance's own set
                _check_predicate(c.patterns, len(c.variables))
                raise
            groups.setdefault(predicate, (expansion, [], predicate))[1].append(
                tuple(map(_BIT, c.variables)))
            top = max(top, len(c.variables))
        table = _counting_table(groups.values(), top)
        object.__setattr__(inst, "_table", table)
    return table


def to_polynomial(inst: CspInstance) -> MultilinearPoly:
    """Chi-basis polynomial whose value at any assignment is the number of
    satisfied constraints: _compile's numerators as Fractions, each term
    where a walk over every constraint's subsets of positions, in (size,
    lex) order, first meets it."""
    den, table = _compile(inst)
    order: Dict[int, None] = {}
    for c in inst.constraints:
        bits = [1 << (v - 1) for v in c.variables]
        order.update(dict.fromkeys(map(sum, chain.from_iterable(
            combinations(bits, r) for r in range(len(bits) + 1)))))
    return MultilinearPoly.from_numerators(inst.n, den, {s: table[s] for s in order if s in table})


def _check_scopes(inst: CspInstance) -> None:
    """Raise InputError naming the first of inst's n, d and scopes that
    fails its check (_check_scope), unless inst keeps its table (_compile),
    whose scopes were checked when it was built."""
    if getattr(inst, "_table", None) is None:
        check_positive_int("n", inst.n)
        check_positive_int("d", inst.d)
        for c in inst.constraints:
            _check_scope(c.variables, inst.n, inst.d)


def constraint_count(inst: CspInstance, a: Assignment) -> int:
    """Number of satisfied constraints, by direct predicate lookup, once
    inst's scopes are checked (_check_scopes); the instance is not
    compiled."""
    _check_scopes(inst)
    return _satisfied(inst, a)


def _satisfied(inst: CspInstance, a: Assignment) -> int:
    """constraint_count of an instance whose scopes are checked: each
    scope is read off one point indexed by variable (point[v] is a[v - 1])."""
    check_assignment(a, inst.n)
    entry = (None, *a).__getitem__
    count = 0
    for c in inst.constraints:
        if tuple(map(entry, c.variables)) in c.patterns:
            count += 1
    return count
