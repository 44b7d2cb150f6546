"""Seeded fuzzing of the text entry points: parse_instance, parse_config,
the CLI's rational options (--p of `delta`, --gamma of `kernel`) and its
count options (--n and --kmax of `delta`; --n, --d and --dense-cap of
`spectra`; --mc of `moments`; --enum-cap of `hyper` and `oracle`).

Each input is a valid text with one to four mutations: a piece inserted or
written over a character, a span deleted, or a line repeated.  The pieces
are the characters the grammars turn on (digits, sign, underscore, slash,
point, exponent, '#', '=', whitespace), non-ASCII digits, and digit runs
past the 1000-digit bound.  Every input must end in a result or a
CardCspError, and every CLI run in exit code 0, 1, 2 or 64 with no
traceback, each within PER_INPUT_S seconds; a count option exits 64
exactly when exact.parse_count refuses its text.  Hypothesis runs derandomized,
so the inputs are the same on every run; the whole file takes a few
seconds.
"""

import contextlib
import io
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from unittest import mock

from cardcsp import cli
from cardcsp.cli import main
from cardcsp.config import parse_config
from cardcsp.csp_model import parse_instance
from cardcsp.errors import CardCspError
from cardcsp.exact import parse_count

PER_INPUT_S = 2.0

FUZZ = settings(max_examples=400, derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

INSTANCES = [
    "csp 2 1 2 1/2\nc 2 1 2\ns +1 -1\ns -1 +1\n",
    "# a path\ncsp 3 2 2 1/3\nc 2 1 2   # edge\ns +1 -1\ns -1 +1\nc 2 2 3\ns 1 -1\n",
    "csp 6 2 3 0.5\nc 3 1 2 3\ns +1 +1 +1\ns -1 -1 +1\nc 1 6\ns -1\n",
]
CONFIGS = [
    "enum_cap = 1000\nkernel_cap = 12\n",
    "# caps\ndense_cap = 30  # small\np0 = 1/10\n",
]
RATIONALS = ["1/3", "0.25", "1/2", "5e-1", "+1/4", "2/6", ".5", "1/16"]
PIECES = ["0", "1", "7", "_", "+", "-", "/", ".", "e", "E", " ", "\t", "\n", "#", "=",
          "٤", "²", "１", "x", "c", "s", "csp", "9" * 1200, "1" + "0" * 30,
          "0" * 999 + "1"]


@st.composite
def mutated(draw, seeds):
    """One of seeds with one to four mutations."""
    text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(("insert", "overwrite", "delete", "repeat-line")))
        at = draw(st.integers(0, len(text)))
        if op == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 8)):]
        elif op == "repeat-line":
            lines = text.split("\n")
            line = lines[draw(st.integers(0, len(lines) - 1))]
            text = text[:at] + line + "\n" + text[at:]
        else:
            piece = draw(st.sampled_from(PIECES))
            text = text[:at] + piece + text[at + (op == "overwrite"):]
    return text


def bounded(call, *args):
    """call(*args), or the CardCspError it raised, within PER_INPUT_S."""
    start = time.perf_counter()
    try:
        out = call(*args)
    except CardCspError as exc:
        out = exc
    assert time.perf_counter() - start < PER_INPUT_S
    return out


@FUZZ
@given(mutated(INSTANCES))
def test_parse_instance_ends_in_a_result_or_an_error(text):
    bounded(parse_instance, text)


@FUZZ
@given(mutated(CONFIGS))
def test_parse_config_ends_in_a_result_or_an_error(text):
    bounded(parse_config, text)


@pytest.fixture(scope="module")
def instance_files(tmp_path_factory):
    """A p = 1/2 and a p = 1/3 instance for `cardcsp kernel`."""
    directory = tmp_path_factory.mktemp("fuzz")
    paths = []
    for name, text in (("half", INSTANCES[0]), ("third", INSTANCES[1])):
        path = directory / f"{name}.csp"
        path.write_text(text)
        paths.append(str(path))
    return paths


def run_cli(argv):
    """(exit code, stderr) of one CLI run, within PER_INPUT_S."""
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < PER_INPUT_S
    return code, err.getvalue()


@FUZZ
@given(st.data())
def test_cli_rational_options_end_in_an_exit_code(instance_files, data):
    value = data.draw(mutated(RATIONALS))
    argv = data.draw(st.sampled_from([
        ["delta", "--n", "6", "--kmax", "3", "--p", value],
        ["kernel", "--instance", instance_files[0], "--gamma", value],
        ["kernel", "--instance", instance_files[1], "--gamma", value],
    ]))
    code, err = run_cli(argv)
    assert code in (0, 1, 2, 64)
    assert "Traceback" not in err


# (argv without the option, the option, its valid value); INSTANCE stands for
# the p = 1/2 instance file.
COUNT_RUNS = [
    (["delta", "--p", "1/2", "--kmax", "2"], "--n", "10"),
    (["delta", "--n", "10", "--p", "1/2"], "--kmax", "3"),
    (["spectra", "--d", "2", "--p", "1/2"], "--n", "6"),
    (["spectra", "--n", "6", "--p", "1/2"], "--d", "2"),
    (["spectra", "--n", "6", "--d", "2", "--p", "1/2"], "--dense-cap", "2000"),
    (["moments", "--instance", "INSTANCE"], "--mc", "20"),
    (["hyper", "--instance", "INSTANCE"], "--enum-cap", "100"),
    (["oracle", "--instance", "INSTANCE"], "--enum-cap", "100"),
]


def is_count(text):
    try:
        parse_count("value", text)
    except CardCspError:
        return False
    return True


@FUZZ
@given(st.data())
def test_cli_count_options_end_in_an_exit_code(instance_files, data):
    argv, flag, good = data.draw(st.sampled_from(COUNT_RUNS))
    value = data.draw(mutated([good]))
    argv = [instance_files[0] if a == "INSTANCE" else a for a in argv] + [f"{flag}={value}"]
    # The sampler's time grows with an accepted --mc up to the enum cap; the
    # reading of the count and the cap check are what this test drives.
    with mock.patch.object(cli, "mc_moment", return_value=(0.0, 0.0)):
        code, err = run_cli(argv)
    assert code in (0, 1, 2, 64)
    assert "Traceback" not in err
    assert (code == 64) == (not is_count(value)), (argv, err)
