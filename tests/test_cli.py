import json
import time

import pytest

from cardcsp.cli import main

K4 = """\
csp 4 6 2 1/2
""" + "".join(f"c 2 {i} {j}\ns +1 -1\ns -1 +1\n"
              for i in range(1, 5) for j in range(i + 1, 5))

P4 = """\
csp 4 3 2 1/2
c 2 1 2
s +1 -1
s -1 +1
c 2 2 3
s +1 -1
s -1 +1
c 2 3 4
s +1 -1
s -1 +1
"""


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.csp"
    path.write_text(K4)
    return str(path)


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.csp"
    path.write_text(P4)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def test_solve_no(capsys, k4_file):
    code, doc, _ = run(capsys, ["solve", "--instance", k4_file, "--t", "1"])
    assert code == 1
    assert doc["answer"] == "SolvedExactly"
    assert doc["opt"]["exact"] == "4"
    assert doc["avg"]["exact"] == "4"


def test_solve_yes(capsys, p4_file):
    code, doc, _ = run(capsys, ["solve", "--instance", p4_file, "--t", "1"])
    assert code == 0
    assert doc["answer_bool"] is True
    assert sum(doc["witness"]) == 0


def test_solve_with_config(capsys, p4_file, tmp_path):
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("kernel_cap = 1  # too small for the P4 kernel\n")
    code, doc, err = run(capsys, ["solve", "--instance", p4_file, "--t", "1",
                                  "--config", str(cfg)])
    assert code == 2
    assert "kernel" in err


def test_solve_deterministic_output(capsys, k4_file):
    _, doc_a, _ = run(capsys, ["solve", "--instance", k4_file, "--t", "2"])
    _, doc_b, _ = run(capsys, ["solve", "--instance", k4_file, "--t", "2"])
    assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)


def test_delta_table(capsys):
    code, doc, _ = run(capsys, ["delta", "--n", "100", "--p", "1/2", "--kmax", "6"])
    assert code == 0
    assert doc["delta"][0]["exact"] == "1"
    assert doc["delta"][2]["exact"] == "-1/99"
    assert len(doc["delta"]) == 7


def test_delta_domain_error(capsys):
    code, _, err = run(capsys, ["delta", "--n", "4", "--p", "1/2", "--kmax", "9"])
    assert code == 2 and "kmax" in err
    # a negative kmax is not a count: a usage error since the count reader
    code, _, err = run(capsys, ["delta", "--n", "6", "--p", "1/2", "--kmax", "-1"])
    assert code == 64 and "kmax" in err


def test_spectra_report(capsys):
    code, doc, _ = run(capsys, ["spectra", "--n", "24", "--d", "2", "--p", "1/2",
                                "--kind", "B"])
    assert code == 0
    assert doc["null_dim"] == 25
    for cluster in doc["clusters"]:
        assert abs(cluster["value"] - cluster["closed_form"]) <= 0.15


def test_moments_with_mc(capsys, k4_file):
    code, doc, _ = run(capsys, ["moments", "--instance", k4_file,
                                "--mc", "50", "--seed", "7"])
    assert code == 0
    assert doc["variance"]["exact"] == "0"
    assert doc["mc"]["samples"] == 50
    code2, doc2, _ = run(capsys, ["moments", "--instance", k4_file,
                                  "--mc", "50", "--seed", "7"])
    assert doc == doc2  # seed pins the randomized path


def test_moments_fourth_power_mc(capsys, p4_file):
    code, doc, _ = run(capsys, ["moments", "--instance", p4_file,
                                "--mc", "30", "--power", "4", "--seed", "3"])
    assert code == 0 and doc["mc"]["power"] == 4


def test_kernel_report(capsys, p4_file):
    code, doc, _ = run(capsys, ["kernel", "--instance", p4_file])
    assert code == 0
    assert doc["bound_check"]["holds"] is True
    assert set(doc["active_set"]) <= {1, 2, 3, 4}


@pytest.mark.parametrize("p", ["1/2", "1/3"])
def test_kernel_report_matches_the_public_rounding(capsys, tmp_path, p):
    # the command reads _compile's table over 2^d; round_bisection and
    # round_global read to_polynomial's reduced denominators
    import random
    from fractions import Fraction

    from cardcsp.cardinal_dist import CardinalDist
    from cardcsp.csp_model import GlobalCardinality, format_instance, to_polynomial
    from cardcsp.exact import scalar_json
    from cardcsp.rounding import round_bisection, round_global
    from cardcsp.spectra import project_null
    from conftest import random_instance

    inst = random_instance(random.Random(11), 6, 2, 8)
    card = GlobalCardinality(6, Fraction(p))
    path = tmp_path / "inst.csp"
    path.write_text(format_instance(inst, card))
    code, doc, _ = run(capsys, ["kernel", "--instance", str(path)])
    f, dist, gamma = to_polynomial(inst), CardinalDist.from_card(card), Fraction(1, 4)
    if card.p == Fraction(1, 2):
        out = round_bisection(f, project_null(f, dist).h, gamma, d=2,
                              allow_large_residual=True)
    else:
        out = round_global(f, dist, gamma, d=2, allow_large_variance=True)
    assert code == 0
    assert doc["active_set"] == sorted(out.active_set)
    assert doc["h"] == {",".join(map(str, s)) or "const": scalar_json(c)
                        for s, c in out.h.items_sorted()}
    assert doc["blowup"] == (None if out.norm_blowup is None else scalar_json(out.norm_blowup))


def _must_not_run(*args, **kwargs):
    raise AssertionError("ran past a cap that should have stopped it")


def test_kernel_checks_dense_cap_before_projection(capsys, tmp_path, monkeypatch):
    import cardcsp.solver as solver
    # a 10-vertex path at p = 1/2: degree 2, projection unknowns C(10,0) + C(10,1) = 11
    path = tmp_path / "p10.csp"
    path.write_text("csp 10 9 2 1/2\n" + "".join(
        f"c 2 {i} {i + 1}\ns +1 -1\ns -1 +1\n" for i in range(1, 10)))
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("dense_cap = 11\n")
    code, doc, _ = run(capsys, ["kernel", "--instance", str(path), "--config", str(cfg)])
    assert code == 0 and doc["active_set"]
    cfg.write_text("dense_cap = 10\n")
    monkeypatch.setattr(solver, "_project", _must_not_run)
    code, doc, err = run(capsys, ["kernel", "--instance", str(path), "--config", str(cfg)])
    assert code == 2 and doc is None
    assert "11" in err and "dense cap 10" in err


def test_hyper_report(capsys, p4_file):
    code, doc, _ = run(capsys, ["hyper", "--instance", p4_file])
    assert code == 0
    assert doc["holds"] is True


def test_oracle_report(capsys, k4_file):
    code, doc, _ = run(capsys, ["oracle", "--instance", k4_file, "--t", "1"])
    assert code == 1
    assert doc["opt"] == 4 and doc["decision"] is False


def test_moments_match_oracle_off_half(capsys, tmp_path):
    import random
    from fractions import Fraction

    from cardcsp.csp_model import GlobalCardinality, format_instance, to_polynomial
    from cardcsp.exact import fraction_str
    from cardcsp.oracle import brute_average, brute_moment, brute_variance
    from conftest import random_instance

    inst = random_instance(random.Random(5), 9, 3, 8)
    card = GlobalCardinality(9, Fraction(1, 3))
    path = tmp_path / "biased.csp"
    path.write_text(format_instance(inst, card))
    code, doc, _ = run(capsys, ["moments", "--instance", str(path)])
    f = to_polynomial(inst)
    assert code == 0
    assert doc["avg"]["exact"] == fraction_str(brute_average(inst, card))
    assert doc["second_moment"]["exact"] == fraction_str(brute_moment(f, card, 2))
    assert doc["variance"]["exact"] == fraction_str(brute_variance(f, card))


def test_threads_flag_is_gone(p4_file):
    assert main(["--threads", "1", "solve", "--instance", p4_file, "--t", "1"]) == 64


def test_usage_error():
    assert main(["solve", "--bogus"]) == 64
    assert main(["nonsense"]) == 64


def test_missing_file(capsys):
    code, _, err = run(capsys, ["solve", "--instance", "/no/such/file", "--t", "1"])
    assert code == 2


@pytest.mark.parametrize("bad", ["abc", "1/0"])
def test_rational_options_reject_bad_values_as_usage_errors(capsys, p4_file, bad):
    for argv in (["kernel", "--instance", p4_file, "--gamma", bad],
                 ["spectra", "--n", "6", "--d", "2", "--p", bad],
                 ["delta", "--n", "6", "--p", bad, "--kmax", "2"]):
        code, doc, err = run(capsys, argv)
        assert code == 64 and doc is None
        assert "not a rational number" in err


def test_unbounded_rationals_end_in_an_error_exit(capsys, tmp_path):
    # each of these used to print a traceback and exit 1, the code of "no"
    path = tmp_path / "huge.csp"
    path.write_text("csp 2 0 1 5e-1000000\n")
    code, doc, err = run(capsys, ["solve", "--instance", str(path), "--t", "1"])
    assert code == 2 and doc is None and "line 1: bad header field" in err
    for flag, argv in (("--p", ["delta", "--n", "4", "--kmax", "2"]),
                       ("--p", ["spectra", "--n", "6", "--d", "2"]),
                       ("--gamma", ["kernel", "--instance", str(path)])):
        code, doc, err = run(capsys, argv + [flag, "5e-100000"])
        assert code == 64 and doc is None
        assert "not a rational number" in err and "exponent outside" in err


def test_an_unbounded_header_count_ends_in_an_error_exit(capsys, tmp_path):
    # a 3,001-digit n used to print a traceback (OverflowError) and exit 1,
    # the code of "no"
    path = tmp_path / "huge-n.csp"
    path.write_text("csp 1" + "0" * 3000 + " 1 1 1/2\nc 1 1\ns +1\n")
    code, doc, err = run(capsys, ["solve", "--instance", str(path), "--t", "1"])
    assert code == 2 and doc is None
    assert "line 1: bad header field: n has more than 1000 digits" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("gamma", ["0", "-1/4"])
def test_kernel_rejects_nonpositive_gamma_off_half(capsys, tmp_path, gamma):
    path = tmp_path / "p6.csp"
    path.write_text("csp 6 5 2 1/3\n" + "".join(
        f"c 2 {i} {i + 1}\ns +1 -1\ns -1 +1\n" for i in range(1, 6)))
    code, doc, err = run(capsys, ["kernel", "--instance", str(path), f"--gamma={gamma}"])
    assert code == 2 and doc is None
    assert "gamma must be positive" in err


@pytest.mark.parametrize("n, d, dimension", [
    ("14", "5", "3473"), ("20", "6", "60460"),
    ("14400", "14400", "at least <a number of about 62 digits>")])
def test_spectra_refuses_a_form_past_the_cap_before_summing_it(capsys, n, d, dimension):
    # the form's dimension C(14400, 0) + ... + C(14400, 14400) = 2^14400 took
    # 30 s to sum, then raised ValueError from str() past 4,300 digits (exit
    # 1); the sum stops once it is past the cap and too long to write out
    start = time.perf_counter()
    code, doc, err = run(capsys, ["spectra", "--n", n, "--d", d, "--p", "1/2"])
    assert time.perf_counter() - start < 1
    assert code == 2 and doc is None
    assert err == f"error: form of dimension {dimension} exceeds cap 2000\n"


def test_spectra_rejects_negative_degree(capsys):
    # read by the count reader, so a usage error; SetSymmetricForm's own
    # check is test_spectra's test_set_symmetric_form_rejects_negative_degree
    code, doc, err = run(capsys, ["spectra", "--n", "6", "--d", "-1", "--p", "1/2"])
    assert code == 64 and doc is None
    assert "argument --d: value = '-1' is not a count in ASCII digits" in err


COUNT_FLAGS = [
    (["delta", "--p", "1/2", "--kmax", "2"], "--n", "10"),
    (["delta", "--n", "10", "--p", "1/2"], "--kmax", "2"),
    (["spectra", "--d", "2", "--p", "1/2"], "--n", "6"),
    (["spectra", "--n", "6", "--p", "1/2"], "--d", "2"),
    (["spectra", "--n", "6", "--d", "2", "--p", "1/2"], "--dense-cap", "2000"),
    (["moments", "--instance", "P4"], "--mc", "20"),
    (["moments", "--instance", "P4", "--mc", "20"], "--power", "2"),
    (["hyper", "--instance", "P4"], "--enum-cap", "100"),
    (["oracle", "--instance", "P4"], "--enum-cap", "100"),
]


@pytest.mark.parametrize("argv, flag, good", COUNT_FLAGS,
                         ids=[f"{argv[0]}{flag}" for argv, flag, _ in COUNT_FLAGS])
def test_count_options_read_ascii_digits_only(capsys, p4_file, argv, flag, good):
    # argparse's int read an underscore, a sign, surrounding whitespace
    # and other scripts' digits; the count reader refuses each
    argv = [p4_file if a == "P4" else a for a in argv]
    code, want, _ = run(capsys, argv + [flag, good])
    assert code == 0
    code, doc, _ = run(capsys, argv + [flag, "0" + good])
    assert (code, doc) == (0, want)
    for bad in (good[0] + "_" + good[1:], "+" + good, "-" + good, " " + good,
                good + "\n", good.replace("2", "\u0662").replace("0", "\u0660")
                .replace("6", "\u0666").replace("1", "\u0661"), "", "1e3", "0x10"):
        code, doc, err = run(capsys, argv + [f"{flag}={bad}"])
        assert code == 64 and doc is None, bad
        assert f"argument {flag}: value" in err and "Traceback" not in err
    code, doc, err = run(capsys, argv + [f"{flag}={'9' * 1001}"])
    assert code == 64 and "value has more than 1000 digits" in err


def test_count_flags_refuse_underscores_signs_and_other_digits(capsys):
    # int() read these as n = 10, kmax = 2 and n = 6
    code, doc, err = run(capsys, ["delta", "--n", "1_0", "--p", "1/2", "--kmax", "\u0662"])
    assert code == 64 and doc is None and "'1_0' is not a count" in err
    code, doc, err = run(capsys, ["spectra", "--n", "+0_6", "--d", "2", "--p", "1/2"])
    assert code == 64 and doc is None and "'+0_6' is not a count" in err


def test_target_and_seed_stay_signed(capsys, k4_file):
    # t <= 0 is a defined branch of decide; a seed is any int
    code, doc, _ = run(capsys, ["solve", "--instance", k4_file, "--t", "-2"])
    assert code == 0 and doc["branch"] == "LargeVariance"
    code, doc, _ = run(capsys, ["moments", "--instance", k4_file, "--mc", "5", "--seed", "-3"])
    assert code == 0 and doc["mc"]["seed"] == -3


def test_monte_carlo_samples_are_capped_before_sampling(capsys, k4_file, monkeypatch):
    import cardcsp.cli as cli
    monkeypatch.setattr(cli, "mc_moment", _must_not_run)
    code, doc, err = run(capsys, ["moments", "--instance", k4_file, "--mc", "1" + "0" * 30])
    assert code == 2 and doc is None
    assert "Monte Carlo samples exceed enum cap 10000000" in err


def test_spectra_of_a_huge_degree_ends(capsys):
    # the dimension sum and the closed forms used to loop d times
    code, doc, _ = run(capsys, ["spectra", "--n", "6", "--d", "1" + "0" * 30, "--p", "1/2"])
    _, at_n, _ = run(capsys, ["spectra", "--n", "6", "--d", "6", "--p", "1/2"])
    assert code == 0
    assert doc["null_dim"] == at_n["null_dim"]
    assert [c["value"] for c in doc["clusters"]] == [c["value"] for c in at_n["clusters"]]


@pytest.mark.parametrize("argv", [["delta", "--n=--", "--p", "1/2", "--kmax", "2"],
                                  ["delta", "--n", "10", "--p=--", "--kmax", "2"],
                                  ["solve", "--instance=--", "--t", "1"]])
def test_an_option_valued_double_dash_is_a_usage_error(capsys, argv):
    # argparse handed these on as [] past the option's type: a TypeError
    # traceback and exit 1, or a domain error naming n = []
    code, doc, err = run(capsys, argv)
    assert code == 64 and doc is None
    assert "an option's value is '--'" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["solve", "--instance", "{bad}", "--t", "1"],
    ["oracle", "--instance", "{bad}"],
    ["hyper", "--instance", "{bad}"],
    ["solve", "--instance", "{good}", "--t", "1", "--config", "{bad}"],
], ids=["solve", "oracle", "hyper", "solve-config"])
def test_a_file_that_is_not_utf8_ends_in_an_error_exit(capsys, tmp_path, p4_file, argv):
    # a UnicodeDecodeError used to print a traceback and exit 1, the code of "no"
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"csp 2 1 2 1/2\xff\n")
    code, doc, err = run(capsys, [arg.format(bad=bad, good=p4_file) for arg in argv])
    assert code == 2 and doc is None
    assert err.startswith("error: ") and err.count("\n") == 1 and "utf-8" in err
