import re
import time
from fractions import Fraction as F
from itertools import combinations, product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cardcsp.cli as cli
import cardcsp.csp_model as csp_model
from cardcsp.csp_model import (Constraint, CspInstance, GlobalCardinality, _compile, _expansion,
                               constraint_count, format_instance, parse_instance,
                               to_polynomial, validate_instance)
from cardcsp.errors import InputError, ParseError
from cardcsp.oracle import brute_average, brute_opt
from cardcsp.solver import _kernel_step, average, decide
from cardcsp.poly import Basis, MultilinearPoly

from conftest import (CUT, SPLITLINES_BREAKS, complete_graph, csp_instances, graph_instance,
                      parse_instance_reference, random_instance, star_graph)

CUT_EDGE_FILE = """\
# a single MaxCut edge under the bisection constraint
csp 2 1 2 1/2
c 2 1 2
s +1 -1
s -1 +1
"""

K4_FILE = """\
csp 4 6 2 1/2
""" + "".join(f"c 2 {i} {j}\ns +1 -1\ns -1 +1\n"
              for i in range(1, 5) for j in range(i + 1, 5) if i < j)

EVEN_PARITY = frozenset(pat for pat in product((-1, 1), repeat=3) if pat.count(-1) % 2 == 0)


def test_parse_cut_edge():
    inst, card = parse_instance(CUT_EDGE_FILE)
    assert inst.n == 2 and inst.m == 1 and inst.d == 2
    assert card.p == F(1, 2) and card.target_sum == 0
    (c,) = inst.constraints
    assert c.variables == (1, 2)
    assert c.patterns == {(-1, 1), (1, -1)}


def test_parse_k4():
    inst, card = parse_instance(K4_FILE)
    assert inst.m == 6
    assert card.num_negative == 2


def test_parse_rejects_fractional_pn():
    with pytest.raises(ParseError) as err:
        parse_instance("csp 5 0 2 1/2\n")
    assert err.value.line == 1


def test_parse_rejects_duplicate_variable():
    text = "csp 3 1 2 1/3\nc 2 1 1\ns 1 1\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.line == 2


def test_parse_rejects_bad_pattern_arity():
    text = "csp 3 1 2 1/3\nc 2 1 2\ns 1 1 1\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.line == 3
    assert str(err.value) == "line 3: pattern (1, 1, 1) has arity 3, not 2"


@pytest.mark.parametrize("text, line, message", [
    ("csp 3 1 2 1/3\nc 2 1 2\ns +1 0\n", 3, "pattern entry '0' is not +-1"),
    ("csp 3 1 2 1/3\nc 2 1 2\ns 1 x 1\n", 3, "pattern entry 'x' is not +-1"),
    ("csp 3 1 2 1/3\nc 2 1 2\ns\n", 3, "pattern () has arity 0, not 2"),
    ("csp 3 1 2 1/3\nc 2 1 2\ns +1 -1\ns\n", 4, "pattern () has arity 0, not 2"),
    ("csp 3 1 2 1/3\nc 2 1 2 # edge\ns +1 -1 # one\ns -1 0 # two\n", 4,
     "pattern entry '0' is not +-1"),
    ("csp 3 1 2 1/3 # header\nc 2 1 2 # edge\ns 1 1 1 # three\n", 3,
     "pattern (1, 1, 1) has arity 3, not 2"),
    ("csp 3 1 2 1/3\ns +1 -1\nc 2 1 2\ns +1 -1\n", 2,
     "expected constraint line 'c ...', got 's'"),
    ("csp 3 1 2 1/3\nc 3 1 2\ns +1 -1\n", 2, "arity 3 but 2 variables"),
    ("csp 3 1 2 1/3\nc 1 1 2\ns +1\n", 2, "arity 1 but 2 variables"),
    ("csp 3 1 2 1/3\nc 2 1 2\ns 1\n", 3, "pattern (1,) has arity 1, not 2"),
    ("csp 3 1 2 1/3\nc 2 1 2\ns* 1 1\n", 3, "expected pattern line 's ...', got 's*'"),
    ("csp 3 1 2 1/3\nc 2 1 2\nS 1 1\n", 3, "expected pattern line 's ...', got 'S'"),
    ("csp 3 1 2 1/3\nc 2 1 2\n", 2, "constraint has no satisfying patterns"),
    ("csp 3 2 2 1/3\nc 2 1 2\nc 2 2 3\ns 1 1\n", 2, "constraint has no satisfying patterns"),
    # a constraint without patterns: the piece after it names the error
    ("csp 3 2 2 1/3\nc 2 1 2\ncx 1 2\ns +1 +1\n", 3, "expected pattern line 's ...', got 'cx'"),
    ("csp 3 2 2 1/3\nc 2 1 2\n# note\ncsp\n", 4, "expected pattern line 's ...', got 'csp'"),
], ids=["bad-entry", "bad-entry-first", "empty-s", "empty-s-after-good",
        "comment-bad-entry", "comment-bad-arity", "s-before-c", "c-arity-above",
        "c-arity-below", "pattern-arity-short", "mistyped-s-tag", "capital-s-tag",
        "no-patterns-at-end", "no-patterns-before-c", "no-patterns-before-cx",
        "no-patterns-before-csp"])
def test_parse_error_message_and_line(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


@pytest.mark.parametrize("char", SPLITLINES_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_parse_ends_a_line_at_a_line_feed_only(char):
    # str.splitlines also broke lines at these, so this text of two line
    # feeds was refused at line 3; inside a line they are whitespace
    text = f"csp 2 1 2 1/2\nc 2 1 2{char}s +1 0\n"
    for parse in (parse_instance, parse_instance_reference):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == 2
    crlf = f"csp 2 1 2 1/2\r\nc 2 1 2\r\ns +1{char}-1\r\n{char}s -1 +1\r\n"
    assert parse_instance(crlf) == parse_instance(CUT_EDGE_FILE) == parse_instance_reference(crlf)


def test_parse_ignores_trailing_comments():
    commented = ("csp 2 1 2 1/2 # header\n  # a comment line\n"
                 "c 2 1 2# edge\ns +1 -1 # one\ns\t-1\t+1#two\n")
    assert parse_instance(commented) == parse_instance(CUT_EDGE_FILE)


@pytest.mark.parametrize("constraint, message", [
    (Constraint((1, 2), frozenset()), "empty predicate"),
    (Constraint((1, 2), frozenset({(1, -1), (1,)})), "pattern (1,) has arity 1, not 2"),
    (Constraint((1, 2), frozenset({(1, -1), (1, 0)})),
     "pattern (1, 0) has entries outside +-1"),
    (Constraint((1, 2), {(-1, 1), ("1", -1)}),
     "pattern ('1', -1) has entries outside +-1"),
    (Constraint((1, 3), frozenset({(1, 1)})), "variable out of range in constraint (1, 3)"),
    (Constraint((2, 2), frozenset({(1, 1)})), "duplicate variable in constraint (2, 2)"),
    (Constraint((1.0, 2), CUT), "variable 1.0 in constraint (1.0, 2) is not an int"),
])
def test_validate_instance_names_the_bad_part(constraint, message):
    with pytest.raises(InputError) as err:
        validate_instance(CspInstance(n=2, d=2, constraints=(constraint,)))
    assert str(err.value) == message


def test_validate_instance_accepts_entries_equal_to_signs():
    # entries are compared by value, as `v in (-1, 1)` does
    validate_instance(CspInstance(n=2, d=2, constraints=(
        Constraint((1, 2), {(True, -1), (1.0, -1.0)}),)))


@pytest.mark.parametrize("constraint, message", [
    (Constraint((1, 1), frozenset({(1, -1)})), "duplicate variable in constraint (1, 1)"),
    (Constraint((1, 2), frozenset({(1,)})), "pattern (1,) has arity 1, not 2"),
    (Constraint((1, 2), frozenset({(1, 0)})), "pattern (1, 0) has entries outside +-1"),
    # a valid constraint with the same predicate first: its table is cached
    # by then, and the bad one is still named
    ((Constraint((1, 2), CUT), Constraint((2, 2), CUT)),
     "duplicate variable in constraint (2, 2)"),
    ((Constraint((1, 2), CUT), Constraint((2, 3), CUT)),
     "variable out of range in constraint (2, 3)"),
    ((Constraint((2, 1), frozenset({(1, -1)})), Constraint((2,), frozenset({(1, -1)}))),
     "pattern (1, -1) has arity 2, not 1"),
    ((Constraint((1, 2), CUT), Constraint((1, 2, 2), CUT)),
     "constraint arity 3 outside [1..2]"),
    # the fast path's range test or shift raised a bare TypeError on these
    (Constraint((1.0, 2), CUT), "variable 1.0 in constraint (1.0, 2) is not an int"),
    (Constraint((1, "2"), CUT), "variable '2' in constraint (1, '2') is not an int"),
    (Constraint((F(1), 2), CUT), "variable Fraction(1, 1) in constraint (Fraction(1, 1), 2) "
                                 "is not an int"),
])
def test_to_polynomial_checks_an_api_instance(constraint, message):
    # the compile used to take these as they came: the duplicate scope gave
    # a polynomial worth 1/2 at (-1, +1), where constraint_count is 0
    constraints = constraint if isinstance(constraint, tuple) else (constraint,)
    with pytest.raises(InputError) as err:
        to_polynomial(CspInstance(2, 2, constraints))
    assert str(err.value) == message


def test_a_bool_variable_is_its_int_value():
    # bool is an int: True is variable 1 on every route, and False is out of range
    as_bool = CspInstance(2, 2, (Constraint((True, 2), CUT),))
    validate_instance(as_bool)
    assert to_polynomial(as_bool) == to_polynomial(CspInstance(2, 2, (Constraint((1, 2), CUT),)))
    assert constraint_count(as_bool, (-1, 1)) == 1
    with pytest.raises(InputError, match="variable out of range in constraint"):
        to_polynomial(CspInstance(2, 2, (Constraint((False, 2), CUT),)))


INSTANCE_ROUTES = {
    "to_polynomial": to_polynomial,
    "validate_instance": validate_instance,
    "average": lambda inst: average(inst, GlobalCardinality(4, F(1, 2))),
    "decide": lambda inst: decide(inst, GlobalCardinality(4, F(1, 2)), 1),
}


@pytest.mark.parametrize("route, name, value", [
    *((route, "d", d) for route in INSTANCE_ROUTES for d in (2.0, 2.5, "2", None, 0, True)),
    *((route, "n", 4.0) for route in INSTANCE_ROUTES),
    # decide and average compare any other n with the slice's first
    *((route, "n", n) for route in ("to_polynomial", "validate_instance") for n in (-1, False)),
])
def test_an_api_instance_needs_an_int_n_and_d_of_at_least_one(route, name, value):
    # d = 2.0 used to end decide in a bare TypeError from Fraction(1, 2 ** d),
    # d = "2" in one inside _scope_keys, and d = 2.5 compiled without complaint
    inst = CspInstance(**{"n": 4, "d": 2, name: value}, constraints=(Constraint((1, 2), CUT),))
    with pytest.raises(InputError, match=re.escape(f"{name} = {value!r} is not a positive integer")):
        INSTANCE_ROUTES[route](inst)


@pytest.mark.parametrize("p", ["5e-1000000", "5e-10000000", "1e3999999999999",
                               "1/" + "7" * 1001, "1" * 1001 + "/3", "0x1/2", "1/2/3"])
def test_parse_bounds_the_header_bias(p):
    # 5e-1000000 used to end in a bare ValueError after 0.2 s, and the
    # exponent 3999999999999 did not finish
    start = time.perf_counter()
    with pytest.raises(ParseError, match="bad header field") as err:
        parse_instance(f"csp 2 0 1 {p}\n")
    assert err.value.line == 1 and len(str(err.value)) < 200
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("p", ["1/2", "2/4", "0.5", "0.5e0", ".5", "5e-1", "+1/2", "5.0E-1"])
def test_parse_reads_the_header_bias_as_a_fraction_or_a_decimal(p):
    assert parse_instance(f"csp 2 0 1 {p}\n")[1].p == F(1, 2)


@pytest.mark.parametrize("header, message", [
    ("csp 1" + "0" * 3000 + " 1 1 1/2", "n has more than 1000 digits"),
    ("csp 1" + "0" * 900 + " 1 1 1/2", r"n = <a number of about 900 digits> is above"),
    ("csp 4 1" + "0" * 20 + " 1 1/2", "m = 1" + "0" * 20 + " is above 10000000"),
    ("csp 4 1 " + "9" * 5000 + " 1/2", "d has more than 1000 digits"),
], ids=["n-3001-digits", "n-901-digits", "m-21-digits", "d-5000-digits"])
def test_parse_bounds_the_header_counts(header, message):
    # a 3,001-digit n used to parse, and decide then ended in a bare
    # OverflowError from 1 << n
    start = time.perf_counter()
    with pytest.raises(ParseError, match="bad header field: " + message) as err:
        parse_instance(header + "\nc 1 1\ns +1\n")
    assert err.value.line == 1 and len(str(err.value)) < 200
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("text, line, message", [
    ("csp 1_0 0 1 1/2\n", 1, "bad header field: n = '1_0' is not a count"),
    ("csp \u0664 1 1 1/2\nc 1 1\ns +1\n", 1, "bad header field: n = '\u0664' is not a count"),
    ("csp 4 +1 1 1/2\nc 1 1\ns +1\n", 1, "bad header field: m = '\\+1' is not a count"),
    ("csp 4 1 1 1/2\nc 1 +0_1\ns +1\n", 2, "bad constraint line: variable = '\\+0_1' is not"),
    ("csp 4 1 1 1/2\nc 0_1 1\ns +1\n", 2, "bad constraint line: arity = '0_1' is not"),
    ("csp 4 1 1 1/2\nc 1 \u0661\ns +1\n", 2, "bad constraint line: variable = '\u0661' is not"),
    ("csp 4 1 1 1/2\nc 1 " + "0" * 1000 + "1\ns +1\n", 2,
     "bad constraint line: variable has more than 1000 digits"),
], ids=["n-underscore", "n-arabic-indic", "m-sign", "variable-sign-underscore",
        "arity-underscore", "variable-arabic-indic", "variable-1001-digits"])
def test_parse_reads_counts_in_ascii_digits_only(text, line, message):
    # int() read each of these: n = 10, n = 4, m = 1, variable 1, arity 1,
    # variable 1, and a 1,001-character variable
    with pytest.raises(ParseError, match=message) as err:
        parse_instance(text)
    assert err.value.line == line


def test_parse_reads_a_header_n_of_a_million():
    inst, card = parse_instance("csp 1000000 1 1 1/2\nc 1 1\ns +1\n")
    assert inst.n == card.n == 10 ** 6 and card.num_negative == 5 * 10 ** 5


def test_slice_messages_stay_bounded():
    # a p*n of over 4,300 digits used to raise a bare ValueError
    for n, p, message in ((6, F(1, 10 ** 5000), r"p\*n = <a number of about \d+ digits>"),
                          (-10 ** 5000, F(1, 2), r"n = <a number of about \d+ digits>")):
        with pytest.raises(InputError, match=message):
            GlobalCardinality(n, p)


def test_parse_rejects_wrong_count():
    text = "csp 3 2 2 1/3\nc 2 1 2\ns 1 1\n"
    with pytest.raises(ParseError):
        parse_instance(text)


def test_format_round_trip(rng):
    inst = random_instance(rng, 7, 3, 9)
    card = GlobalCardinality(7, F(3, 7))
    text = format_instance(inst, card)
    inst2, card2 = parse_instance(text)
    assert card2 == card
    assert inst2.n == inst.n and inst2.m == inst.m
    for a, b in zip(inst.constraints, inst2.constraints):
        assert a.variables == b.variables and a.patterns == b.patterns


@st.composite
def instances(draw):
    n = draw(st.integers(2, 10))
    d = draw(st.integers(1, 3))
    p = F(draw(st.integers(1, n - 1)), n)
    return draw(csp_instances(n, d)), GlobalCardinality(n, p)


@settings(max_examples=200, deadline=None, database=None)
@given(instances())
def test_format_parse_round_trip_property(drawn):
    inst, card = drawn
    assert parse_instance(format_instance(inst, card)) == (inst, card)


# pieces that every parser branch turns on: sign spellings, a bad entry,
# counts a digit check refuses, and the tags of stray lines
_SIGN_TEXTS = ["1", "+1", "-1", "-1", "+1"]
_BAD_FIELDS = ["0", "x", "+1", "-1", "1_0", "\u0661", "7", "c", "s", "S", "s*", "csp",
               "0" * 1001 + "1"]
_STRAY_LINES = [["s", "+1", "-1"], ["c", "1", "1"], ["c"], ["s"], ["x", "1"], ["S", "1", "1"],
                ["s*", "1"], []]


@st.composite
def instance_texts(draw):
    """An instance text, mostly valid: a header, then constraint blocks whose
    pattern lines repeat a few predicates, under up to three mutations (a
    field replaced, a stray line inserted, a line dropped), rendered with
    spaces or tabs, '1' or '+1', zero-padded counts, trailing comments and
    blank lines."""
    n = draw(st.sampled_from([2, 4, 6]))
    d = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        arity = draw(st.integers(1, d))
        variables = draw(st.permutations(range(1, n + 1)))[:arity]
        # leading zeros are read, past 1000 digits the count is refused
        zeros = st.sampled_from([""] * 28 + ["0", "0" * 1000])
        lines.append(["c", str(arity)] + [draw(zeros) + str(v) for v in variables])
        for _ in range(draw(st.sampled_from([1, 1, 2, 2, 2, 3, 3, 0]))):
            lines.append(["s"] + draw(st.lists(st.sampled_from(_SIGN_TEXTS),
                                               min_size=arity, max_size=arity)))
    blocks = sum(line[0] == "c" for line in lines)
    m = blocks + draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    p = draw(st.sampled_from(["1/2", "0.5", "2/4"] + ["1/3"] * (n == 6)))
    lines.insert(0, ["csp", str(n), str(m), str(d), p])
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        where = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["field", "stray", "drop"]))
        if kind == "stray":
            lines.insert(where, list(draw(st.sampled_from(_STRAY_LINES))))
        elif where < len(lines) and kind == "drop":
            del lines[where]
        elif where < len(lines) and lines[where]:
            line = lines[where]
            line[draw(st.integers(0, len(line) - 1))] = draw(st.sampled_from(_BAD_FIELDS))
    out = []
    for fields in lines:
        sep = draw(st.sampled_from([" ", " ", "\t", "  ", " \t "]))
        indent = draw(st.sampled_from(["", "", "", " ", "\t"]))
        comment = draw(st.sampled_from(["", "", "", " # note", "#s +1", "\t# c 1 1"]))
        out.append(indent + sep.join(fields) + comment)
        if draw(st.integers(0, 9)) == 0:
            out.append(draw(st.sampled_from(["", "   ", "# a comment line"])))
    return draw(st.sampled_from(["\n", "\n", "\r\n"])).join(out) + "\n"


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return "ParseError", str(exc), exc.line


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(instance_texts())
def test_parse_matches_the_token_list_reference(text):
    # the one-pass parser with its per-call pattern-line cache and interned
    # predicates reads every text as the parser it replaced did: the same
    # instance, or the same ParseError message at the same line
    assert _parse_outcome(parse_instance, text) == _parse_outcome(parse_instance_reference, text)


def test_cardinality_invariants():
    card = GlobalCardinality(6, F(1, 3))
    assert card.num_negative == 2
    assert card.num_positive == 4
    assert card.target_sum == 2
    with pytest.raises(InputError):
        GlobalCardinality(5, F(1, 2))
    with pytest.raises(InputError):
        GlobalCardinality(4, F(0))


@pytest.mark.parametrize("n", [-4, 0, 4.0, F(4), True])
def test_cardinality_rejects_n_that_is_not_a_positive_int(n):
    # n = -4 used to build with num_negative == num_positive == -2
    with pytest.raises(InputError, match="positive integer"):
        GlobalCardinality(n, F(1, 2))


@pytest.mark.parametrize("p", [0.5, "1/2", None])
def test_cardinality_rejects_p_that_is_not_exact(p):
    # p = 0.5 raised AttributeError and p = "1/2" a TypeError
    with pytest.raises(InputError, match="is not an int or Fraction"):
        GlobalCardinality(4, p)


def test_to_polynomial_cut_constraint():
    inst = graph_instance(2, [(1, 2)])
    f = to_polynomial(inst)
    assert dict(f.items_sorted()) == {(): F(1, 2), (1, 2): F(-1, 2)}


def test_to_polynomial_star_closed_form():
    # K_{1,n-1}: f = (n-1)/2 - sum_{i>=2} x_1 x_i / 2, i.e. n/2 - (sum x_i) x_1/2
    n = 6
    f = to_polynomial(star_graph(n))
    assert f.coefficient(()) == F(n - 1, 2)
    for i in range(2, n + 1):
        assert f.coefficient((1, i)) == F(-1, 2)
    assert len(f.coeffs) == n


def test_to_polynomial_counts_everywhere(rng):
    inst = random_instance(rng, 8, 3, 10)
    f = to_polynomial(inst)
    for a in product((-1, 1), repeat=8):
        assert f.evaluate(a) == constraint_count(inst, a)


def test_to_polynomial_coefficients_multiples_of_2_pow_minus_d(rng):
    inst = random_instance(rng, 8, 3, 12)
    f = to_polynomial(inst)
    gamma = F(1, 2 ** inst.d)
    for c in f.coeffs.values():
        assert (c / gamma).denominator == 1
    assert f.degree_bound <= inst.d


def test_constraint_count_examples():
    edge = graph_instance(2, [(1, 2)])
    assert constraint_count(edge, (1, -1)) == 1
    assert constraint_count(edge, (1, 1)) == 0
    k4 = complete_graph(4)
    assert constraint_count(k4, (1, 1, -1, -1)) == 4
    empty = graph_instance(3, [])
    assert constraint_count(empty, (1, 1, -1)) == 0


def test_duplicate_constraints_allowed():
    inst = graph_instance(2, [(1, 2), (1, 2)])
    assert constraint_count(inst, (1, -1)) == 2
    assert to_polynomial(inst).coefficient(()) == 1


def _to_polynomial_reference(inst):
    """The compile to_polynomial replaced: Fraction terms, one per pattern
    and subset of positions."""
    coeffs = {}
    for c in inst.constraints:
        scale = F(1, 2 ** c.arity)
        for pat in c.patterns:
            for r in range(c.arity + 1):
                for positions in combinations(range(c.arity), r):
                    sign = 1
                    for j in positions:
                        sign *= pat[j]
                    key = tuple(sorted(c.variables[j] for j in positions))
                    coeffs[key] = coeffs.get(key, F(0)) + sign * scale
    return MultilinearPoly.from_subsets(inst.n, coeffs, Basis.CHI)


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.integers(1, 4).flatmap(lambda d: csp_instances(n, d))))
def test_to_polynomial_matches_fraction_reference(inst):
    # arities are drawn per constraint, so most instances mix them
    assert to_polynomial(inst) == _to_polynomial_reference(inst)


PARITY_N8 = CspInstance(n=8, d=3, constraints=tuple(
    Constraint(e, EVEN_PARITY) for e in combinations(range(1, 9), 3)))


@pytest.mark.parametrize("inst, one_object", [
    (complete_graph(10), True),
    (PARITY_N8, True),
    (CspInstance(n=2, d=2, constraints=(
        Constraint((1, 2), frozenset({(1, -1), (1, 1), (-1, -1)})),
        Constraint((2, 1), frozenset({(1, -1), (1, 1), (-1, -1)})))), False),
    (CspInstance(n=3, d=2, constraints=(
        Constraint((3, 1), {(1, -1), (-1, -1)}),
        Constraint((1,), {(-1,)}),
        Constraint((1, 3), frozenset({(1, -1), (-1, -1)})))), False),
    # the parser interns each predicate, also one whose lines are spelled
    # differently in one constraint
    (parse_instance(format_instance(complete_graph(12), GlobalCardinality(12, F(1, 2))))[0],
     True),
    (parse_instance(format_instance(PARITY_N8, GlobalCardinality(8, F(1, 2))).replace(
        "s +1 +1 +1", "s 1 1 +1 # respelled", 1))[0], True),
], ids=["K10-cut", "parity-n8", "one-predicate-both-orders", "plain-set", "K12-cut-parsed",
        "parity-n8-parsed-respelled"])
def test_to_polynomial_shared_predicates_match_reference(inst, one_object):
    # each distinct predicate is expanded once and mapped onto every scope
    assert to_polynomial(inst) == _to_polynomial_reference(inst)
    if one_object:
        assert len({id(c.patterns) for c in inst.constraints}) == 1


_SPELLINGS = {1: ("+1", "1"), -1: ("-1",)}


@st.composite
def valid_instance_texts(draw):
    """A valid instance's text as a person might write it, with the
    constraints it holds: csp_instances' constraints (arities at most d,
    often below it), some repeated, rendered with leading whitespace,
    trailing comments, comment and blank lines, '1' for '+1', LF or CR LF
    and an optional last line feed; a predicate's block is spelled one way
    throughout or afresh at each constraint."""
    n, d = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    constraints = list(draw(csp_instances(n, d)).constraints)
    for _ in range(draw(st.integers(0, 3)) if constraints else 0):
        constraints.insert(draw(st.integers(0, len(constraints))),
                           draw(st.sampled_from(constraints)))
    indent = st.sampled_from(["", "", "", " ", "\t"])
    comment = st.sampled_from(["", "", "", " # note", "\t# c 1 1", "#s +1"])
    spelled_once = draw(st.booleans())
    blocks = {}

    def block(patterns):
        if spelled_once and patterns in blocks:
            return blocks[patterns]
        lines = [draw(indent) + "s " + " ".join(draw(st.sampled_from(_SPELLINGS[v]))
                                                 for v in pat) + draw(comment)
                 for pat in draw(st.permutations(sorted(patterns)))]
        blocks[patterns] = lines
        return lines

    lines = [f"csp {n} {len(constraints)} {d} 1/{n}" + draw(comment)]
    for c in constraints:
        lines.append(draw(indent) + "c " + " ".join(map(str, (c.arity,) + c.variables))
                     + draw(comment))
        lines += block(c.patterns)
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "# a comment line", "#c 2 1 2"])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""])), tuple(constraints)


@settings(max_examples=300, deadline=None, database=None)
@given(valid_instance_texts())
def test_parse_builds_the_table_the_compile_builds(case):
    # the parser adds each constraint's terms as it reads; the instance keeps
    # that table, which equals the compile of the same constraints built
    # through the API and the Fraction reference
    text, constraints = case
    inst, _ = parse_instance(text)
    assert inst.constraints == constraints
    kept = _compile(inst)
    assert _compile(inst) is kept
    assert kept == _compile(CspInstance(inst.n, inst.d, inst.constraints))
    assert MultilinearPoly.from_numerators(inst.n, *kept) == _to_polynomial_reference(inst)


@pytest.mark.parametrize("inst, p", [
    (complete_graph(6), F(1, 2)),
    (complete_graph(6), F(1, 3)),
    # f is the constant 1, so the scan reads no level and returns the
    # compiled table itself as its reduced table
    (CspInstance(3, 1, (Constraint((1,), frozenset({(1,), (-1,)})),)), F(1, 3)),
], ids=["bisection", "scan", "scan-reads-no-level"])
def test_decide_and_kernel_leave_the_kept_table_unchanged(inst, p, monkeypatch, capsys):
    card = GlobalCardinality(inst.n, p)
    inst, card = parse_instance(format_instance(inst, card))
    den, table = _compile(inst)
    before = list(table.items())
    if len(table) == 1:
        assert _kernel_step(den, table, card, F(1, 2), 1, 10 ** 6).reduced is table
    for _ in range(2):
        decide(inst, card, 1)
    monkeypatch.setattr(cli, "_load_instance", lambda path: (inst, card))
    assert cli.main(["kernel", "--instance", "kept"]) == 0
    assert _compile(inst)[1] is table and list(table.items()) == before


def test_expansion_holds_exactly_the_nonzero_chi_terms():
    # every predicate of arity 1 to 3: the constant, then each nonempty
    # subset of positions whose coefficient is not 0, in (size, lex) order,
    # as numerators over 2^arity
    for arity in (1, 2, 3):
        cube = list(product((-1, 1), repeat=arity))
        subsets = [pos for r in range(1, arity + 1) for pos in combinations(range(arity), r)]
        for size in range(1, len(cube) + 1):
            for patterns in combinations(cube, size):
                constant, terms = _expansion(arity, frozenset(patterns))
                reference = {pos: F(sum(prod(pat[j] for j in pos) for pat in patterns),
                                    2 ** arity) for pos in subsets}
                assert F(constant, 2 ** arity) == F(len(patterns), 2 ** arity)
                assert [pos for pos, _ in terms] == [pos for pos in subsets if reference[pos]]
                assert all(num and F(num, 2 ** arity) == reference[pos] for pos, num in terms)


def test_parse_checks_a_large_variable_before_any_shift():
    # the scope's bits are formed only after its range check
    start = time.perf_counter()
    with pytest.raises(ParseError, match="variable out of range") as err:
        parse_instance("csp 4 1 1 1/2\nc 1 " + "9" * 999 + "\ns +1\n")
    assert err.value.line == 2 and time.perf_counter() - start < 1


def test_constraint_count_needs_no_compile():
    # each scope is read off the point; the instance is not compiled
    inst = CspInstance(8, 3, tuple(Constraint(e, frozenset(
        pat for pat in product((-1, 1), repeat=3) if pat.count(-1) % 2 == 0))
        for e in combinations(range(1, 9), 3)))
    for a in product((-1, 1), repeat=8):
        assert constraint_count(inst, a) == sum(
            tuple(a[v - 1] for v in c.variables) in c.patterns for c in inst.constraints)
    assert "_table" not in vars(inst)


def _clear_parse_caches():
    """Empty every lru_cache of csp_model, as a process finds them before
    it reads its first instance."""
    caches = [value for value in vars(csp_model).values() if hasattr(value, "cache_clear")]
    assert {csp_model._piece, csp_model._count, csp_model._expansion} <= set(caches)
    for cache in caches:
        cache.cache_clear()


def test_a_cold_parse_expands_each_distinct_predicate_once(monkeypatch):
    # m = 4 constraints over k = 3 predicates, every piece new: the reader
    # builds no table, so only _table expands, once per distinct predicate
    text = ("csp 4 4 3 1/2\nc 2 1 2\ns +1 -1\ns -1 +1\nc 2 3 4\ns +1 -1\ns -1 +1\n"
            "c 3 1 2 3\ns +1 +1 +1\ns -1 -1 +1\nc 1 4\ns -1\n")
    _clear_parse_caches()
    expanded = []
    expansion = csp_model._expansion
    monkeypatch.setattr(csp_model, "_expansion",
                        lambda *args: expanded.append(args) or expansion(*args))
    inst, _ = parse_instance(text)
    assert inst.m == 4
    assert len(expanded) == 3 and set(expanded) == {(c.arity, c.patterns)
                                                    for c in inst.constraints}


def _shared_predicates(inst):
    """{predicate: the ids of the frozensets its constraints hold}."""
    ids = {}
    for c in inst.constraints:
        ids.setdefault(c.patterns, set()).add(id(c.patterns))
    return ids


@settings(max_examples=200, deadline=None, database=None)
@given(valid_instance_texts())
def test_parse_reads_the_same_with_the_piece_cache_cold_warm_or_cleared(case):
    # a piece read before maps to its cached constraint; the instance, its
    # kept table and one frozenset per predicate do not depend on that
    text, constraints = case
    parsed = []
    for clear in (True, False, True):
        if clear:
            _clear_parse_caches()
        inst, card = parse_instance(text)
        parsed.append((inst, card, _compile(inst)))
        assert inst.constraints == constraints
        assert all(len(ids) == 1 for ids in _shared_predicates(inst).values())
    for inst, card, table in parsed[1:]:
        assert (inst, card, table) == parsed[0]
    assert parsed[1][2] == _compile(CspInstance(inst.n, inst.d, inst.constraints))


@pytest.mark.parametrize("valid, invalid, message", [
    ("csp 9 1 2 1/3\nc 2 1 9\ns +1 -1\ns -1 +1\n", "csp 8 1 2 1/2\nc 2 1 9\ns +1 -1\ns -1 +1\n",
     "variable out of range in constraint (1, 9)"),
    ("csp 3 1 3 1/3\nc 3 1 2 3\ns +1 -1 +1\n", "csp 3 1 2 1/3\nc 3 1 2 3\ns +1 -1 +1\n",
     "constraint arity 3 outside [1..2]"),
], ids=["variable-9-then-n-8", "arity-3-then-d-2"])
def test_a_cached_piece_is_checked_again_under_another_header(valid, invalid, message):
    # the piece cache is keyed by the instance's n and d as well as its text
    for _ in range(2):
        assert parse_instance(valid)[0].m == 1
        with pytest.raises(ParseError) as err:
            parse_instance(invalid)
        assert err.value.line == 2 and str(err.value) == f"line 2: {message}"


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("bad, offset, message", [
    ("c 2 1 7\ns +1 -1\ns -1 +1\n", 0, "variable out of range in constraint (1, 7)"),
    ("c 2 1 2\ns +1 -1\ns -1 0\n", 2, "pattern entry '0' is not +-1"),
    ("c 2 1 2\ns +1 -1\ns -1\n", 2, "pattern (-1,) has arity 1, not 2"),
    ("c 2 1 2\nc 2 1 3\ns +1 -1\n", 0, "constraint has no satisfying patterns"),
], ids=["scope", "entry", "pattern-arity", "no-patterns"])
def test_an_error_after_cached_pieces_names_its_line(k, bad, offset, message):
    # k - 1 regular cut constraints, read once to fill the cache, then a bad one
    good = "".join(f"c 2 {i} {i + 1}\ns +1 -1\ns -1 +1\n" for i in range(1, k))
    assert parse_instance(f"csp 6 {k - 1} 2 1/2\n" + good)[0].m == k - 1
    line = 2 + 3 * (k - 1) + offset
    with pytest.raises(ParseError) as err:
        parse_instance(f"csp 6 {k + 1} 2 1/2\n" + good + bad)
    assert err.value.line == line and str(err.value) == f"line {line}: {message}"


@pytest.mark.parametrize("first", [True, False], ids=["respelled-first", "respelled-last"])
def test_parsed_predicates_share_one_frozenset_whatever_block_comes_first(first):
    # a respelled block is read line by line into a frozenset of its own; a
    # cached piece carries its block's frozenset, and each constraint takes
    # its group's
    text = format_instance(PARITY_N8, GlobalCardinality(8, F(1, 2)))
    assert parse_instance(text)[0] == PARITY_N8     # the cache now holds every piece
    head, *blocks = text.split("\nc")
    index = 0 if first else len(blocks) - 1
    blocks[index] = blocks[index].replace("s +1 +1 +1", "s 1 1 +1 # respelled")
    inst, _ = parse_instance("\nc".join([head] + blocks))
    test_to_polynomial_shared_predicates_match_reference(inst, True)


def test_parse_shares_one_slice_per_n_and_p():
    # p is read once per text and the slice built once per (n, p); a
    # header error is raised afresh, with its line, every time
    a, b = (parse_instance(f"csp 4 0 1 {p}\n")[1] for p in ("1/2", "1/2"))
    assert a is b and a == GlobalCardinality(4, F(1, 2))
    for _ in range(2):
        with pytest.raises(ParseError) as err:
            parse_instance("# p*n = 5/2\ncsp 5 0 1 1/2\n")
        assert err.value.line == 2 and str(err.value) == "line 2: p*n = 5/2 is not an integer"


@pytest.mark.parametrize("scope", [(0, 1), (-1, 1), (1, 3)])
def test_constraint_count_checks_an_api_instance_s_scopes(scope):
    # (0, 1) read variable 0 as a[-1], (-1, 1) counted a silent 0 or 1, and
    # (1, 3) raised a bare IndexError; the oracle counted with them too
    inst = CspInstance(2, 2, (Constraint(scope, CUT),))
    card = GlobalCardinality(2, F(1, 2))
    message = re.escape(f"variable out of range in constraint {scope}")
    for count in (lambda: constraint_count(inst, (1, -1)), lambda: brute_opt(inst, card),
                  lambda: brute_average(inst, card)):
        with pytest.raises(InputError, match=message):
            count()
    assert "_table" not in vars(inst)


def test_a_long_piece_is_read_but_not_cached():
    # the piece cache holds no piece longer than _PIECE_CHARS, so a block of
    # many pattern lines is not kept once its text is gone
    held = csp_model._piece.cache_info().currsize
    for v in (1, 2):
        text = f"csp 4 1 1 1/2\nc 1 {v}\n" + "s +1\n" * (csp_model._PIECE_CHARS // 5 + 1)
        assert parse_instance(text)[0] == CspInstance(4, 1, (Constraint((v,), frozenset({(1,)})),))
    assert csp_model._piece.cache_info().currsize == held


def test_an_irregular_piece_is_read_once_per_process(monkeypatch):
    # comments, a tab-indented constraint line (read in the piece before
    # it), CR LF and a blank line inside a block: every piece is cached, so
    # the second parse reads no line
    text = ("csp 4 3 2 1/2\r\nc 2 1 2 # edge\r\ns +1 -1\r\n\r\n# the other sign\r\n"
            "s -1 +1\r\n\tc 2 2 3\r\ns +1 -1\r\ns -1 +1\r\nc  1 4\t# alone\ns +1\n\n")
    expected = CspInstance(4, 2, (Constraint((1, 2), CUT), Constraint((2, 3), CUT),
                                  Constraint((4,), frozenset({(1,)}))))
    assert parse_instance(text)[0] == expected
    calls = []
    read_line = csp_model._Reader.line
    monkeypatch.setattr(csp_model._Reader, "line",
                        lambda reader, *args: calls.append(args) or read_line(reader, *args))
    inst, _ = parse_instance(text)
    assert inst == expected and _compile(inst) == _compile(CspInstance(4, 2, expected.constraints))
    assert calls == []
