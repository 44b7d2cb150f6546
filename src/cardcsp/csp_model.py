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
names the line (ParseError).  One reader, _Reader, reads every constraint
and pattern line into a list of checked constraints with their scopes'
bits; it builds no table.  The piece cache (_piece) sits in front of it:
a piece of text the process has read before maps straight to its
reader's list, and any other piece is read by a fresh _Reader, or, on an
error, by parse_instance's own, which names the error at its line.  The
constraints of a predicate share one frozenset while _predicate holds it
(every predicate of arity at most 3 fits).  One function, _table, builds
every counting table: it groups the constraints by predicate and expands
each distinct one once (_expansion).  A parsed instance keeps its table,
so _compile and constraint_count check nothing more for it.  An instance
built through the API is checked by one walk over its n, d and scopes
(_scopes): validate_instance checks each predicate on that walk,
constraint_count runs it on each call for an instance that keeps no
table (_check_scopes), the oracle once per enumeration, and the first
_compile checks each predicate on it in the cached _expansion, then
builds the table with _table and keeps it.  Each check has one definition
(exact.check_positive_int, _check_scope, _check_predicate), which also
writes every message; a fast path calls it only to raise.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, combinations
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from .cardinal_dist import GlobalCardinality
from .errors import InputError, ParseError
from .exact import check_positive_int, parse_count, parse_rational
from .poly import Assignment, MultilinearPoly, check_assignment

Pattern = Tuple[int, ...]
Term = Tuple[Tuple[int, ...], int]     # (positions, numerator) of one chi term
Expansion = Tuple[int, Tuple[Term, ...]]  # a predicate's constant and its other terms
Bits = Tuple[int, ...]                  # a scope's variables as bits (_BIT)

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


def _scopes(inst: CspInstance) -> Iterator[Tuple[Constraint, Bits]]:
    """inst's constraints, each with its scope's bits (_BIT), as inst's n
    and d and then each scope in turn pass their checks: the one walk over
    an API instance's n, d and scopes."""
    check_positive_int("n", inst.n)
    check_positive_int("d", inst.d)
    for c in inst.constraints:
        _check_scope(c.variables, inst.n, inst.d)
        yield c, tuple(map(_BIT, c.variables))


def validate_instance(inst: CspInstance) -> None:
    for c, bits in _scopes(inst):
        _check_predicate(c.patterns, len(bits))


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
# a parsed predicate by its value, so that the constraints the reader
# closes with it, in any instance or cached piece, share one frozenset while
# it is held here (512 entries hold the 273 predicates of arity at most 3)
_predicate = lru_cache(maxsize=512)(frozenset)


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


class _Reader:
    """The constraints read so far, each checked and with its scope's bits
    (_BIT), in read, and the open constraint (c_line its line, 0 when none
    is open), which close() adds.  parse_instance and the piece cache
    (_piece) read every constraint and pattern line after the header
    through line()."""

    __slots__ = ("n", "d", "read", "c_line", "variables", "bits", "patterns")

    def __init__(self, n: int, d: int):
        self.n, self.d = n, d
        self.read: List[Tuple[Constraint, Bits]] = []
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
        self.c_line = line_no

    def scope(self, counts: List[str], line_no: int) -> Tuple[Tuple[int, ...], Bits]:
        """The variables of the constraint line at line_no, from its counts
        (the fields after `c`), and their bits (_BIT).  The fast path reads
        every count through the cached _count and checks the arity, the
        largest variable (before any shift), then the sum of the bits: bit
        0 clear (no variable 0) and one bit per variable (no variable
        twice).  A line it refuses is read again field by field, to name
        the field, the count of variables or the scope check
        (_check_scope) that fails."""
        try:
            arity, *variables = map(_count, counts)
        except (InputError, ValueError):    # a bad count, or none: refused below
            arity, variables = 0, ()
        if len(variables) == arity and 0 < arity <= self.d and max(variables) <= self.n:
            bits = tuple(map(_BIT, variables))
            scope = sum(bits)
            if not scope & 1 and scope.bit_count() == arity:
                return tuple(variables), bits
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
        """Add the open constraint, if one is, with its predicate's shared
        frozenset (_predicate); a constraint without patterns is an error."""
        if not self.c_line:
            return
        if not self.patterns:
            raise ParseError("constraint has no satisfying patterns", self.c_line)
        constraint = Constraint(self.variables, _predicate(frozenset(self.patterns)))
        self.read.append((constraint, self.bits))
        self.c_line, self.patterns = 0, set()


def _table(scoped: Iterable[Tuple[FrozenSet[Pattern], Bits]]) -> Tuple[int, Dict[int, int]]:
    """(den, {mask: numerator}) of the constraints given as (predicate,
    scope bits (_BIT)) pairs: the one builder of every counting table.  The
    scopes are grouped by predicate, in order of first appearance, and each
    distinct predicate is expanded once (_expansion).  Numerators are over
    den = 2^top, top the largest arity, zeros dropped.  A term's key, the
    sum of its positions' bits, is formed for a whole group at once; keys
    are twice the masks until the last step."""
    groups: Dict[FrozenSet[Pattern], List[Bits]] = defaultdict(list)
    for predicate, bits in scoped:
        groups[predicate].append(bits)
    top = max((len(scopes[0]) for scopes in groups.values()), default=0)
    nums: Dict[int, int] = defaultdict(int)
    for predicate, scopes in groups.items():
        arity = len(scopes[0])
        constant, terms = _expansion(arity, predicate)
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


# the longest piece parse_instance looks up in _piece, so that the cache
# holds at most about 2 MB of piece text; a longer piece (a block of many
# pattern lines) is read by the same function uncached
_PIECE_CHARS = 1024


@lru_cache(maxsize=2048)
def _piece(piece: str, n: int, d: int) -> Optional[Tuple[Tuple[Constraint, Bits], ...]]:
    """The constraints of a piece of an instance of n variables and arity
    at most d (parse_instance), as a fresh _Reader reads them: checked,
    each with its scope's bits (_BIT), kept as a tuple.  None when the
    reader raises or leaves a constraint without patterns, whose error the
    next line decides; parse_instance then reads the piece and the rest of
    its text with its own reader, to name the error at its line.  Cached:
    the constraints of a corpus repeat (2,048 entries hold the distinct
    pieces of every benchmark corpus, whose largest has 1,039)."""
    reader = _Reader(n, d)
    try:
        reader.lines(("c" + piece).split("\n"), 1)
    except ParseError:
        return None
    if not reader.patterns:
        return None
    reader.close()
    return tuple(reader.read)


def parse_instance(text: str) -> Tuple[CspInstance, GlobalCardinality]:
    """Parse the line-oriented instance format in one pass; errors carry
    line numbers.  After the header, the text splits at each line feed
    followed by "c": every piece but the first is the rest of a constraint
    line, then the lines up to the next such line.  Each piece maps
    through _piece (cached if it has at most _PIECE_CHARS characters) to
    its checked constraints, so the constraints that instances repeat are
    read once per process.  From a piece it refuses, or one after a
    constraint the first piece left open, the rest of the text is read
    line by line by the instance's own _Reader, which names the line of
    any error.  Once every line is read, _table builds the counting table,
    which the instance keeps."""
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
    # the first piece starts with the header line's own line feed
    # (without the text's last line feed, the last block reads as the others)
    stop = len(text) - text.endswith("\n")
    first, *pieces = text[end:stop].split("\nc") if end >= 0 else ("",)
    reader.lines(first.split("\n")[1:], head_line + 1)
    for k, piece in enumerate(pieces):
        read = None if reader.c_line else (
            _piece if len(piece) <= _PIECE_CHARS else _piece.__wrapped__)(piece, n, d)
        if read is None:
            # this piece and the rest, line by line, to name an error at its line
            rest = "c" + "\nc".join(pieces[k:])
            reader.lines(rest.split("\n"), text.count("\n", 0, stop - len(rest)) + 1)
            break
        reader.read.extend(read)
    reader.close()
    if len(reader.read) != m:
        raise ParseError(f"header declares m={m} but found {len(reader.read)} constraints",
                         head_line)
    inst = CspInstance(n=n, d=d, constraints=tuple(c for c, _ in reader.read))
    object.__setattr__(inst, "_table", _table((c.patterns, bits) for c, bits in reader.read))
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
    not see it): parse_instance builds it once it has read every line,
    and an instance built through the API is checked and compiled on its
    first call: one walk over n, d and its scopes (_scopes), each
    constraint's predicate checked in the cached _expansion, and the table
    built by _table, as parse_instance builds one.  No caller may change
    the table."""
    table = getattr(inst, "_table", None)
    if table is None:
        scoped = []
        for c, bits in _scopes(inst):
            predicate = frozenset(c.patterns)
            try:
                _expansion(len(bits), predicate)
            except InputError:
                # name the culprit in the order of the instance's own set
                _check_predicate(c.patterns, len(bits))
                raise
            scoped.append((predicate, bits))
        table = _table(scoped)
        object.__setattr__(inst, "_table", table)
    return table


def to_polynomial(inst: CspInstance) -> MultilinearPoly:
    """Chi-basis polynomial whose value at any assignment is the number of
    satisfied constraints: _compile's table, its numerators as
    Fractions."""
    return MultilinearPoly.from_numerators(inst.n, *_compile(inst))


def _check_scopes(inst: CspInstance) -> None:
    """Raise InputError naming the first of inst's n, d and scopes that
    fails its check (_scopes), unless inst keeps its table (_compile),
    whose scopes were checked when it was built."""
    if getattr(inst, "_table", None) is None:
        for _ in _scopes(inst):
            pass


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
