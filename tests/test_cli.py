import json

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


def _must_not_run(*args, **kwargs):
    raise AssertionError("ran past a cap that should have stopped it")


def test_kernel_checks_dense_cap_before_projection(capsys, tmp_path, monkeypatch):
    import cardcsp.cli as cli
    # a 10-vertex path at p = 1/2: degree 2, Gram dimension C(10,0) + C(10,1) = 11
    path = tmp_path / "p10.csp"
    path.write_text("csp 10 9 2 1/2\n" + "".join(
        f"c 2 {i} {i + 1}\ns +1 -1\ns -1 +1\n" for i in range(1, 10)))
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("dense_cap = 11\n")
    code, doc, _ = run(capsys, ["kernel", "--instance", str(path), "--config", str(cfg)])
    assert code == 0 and doc["active_set"]
    cfg.write_text("dense_cap = 10\n")
    monkeypatch.setattr(cli, "project_null", _must_not_run)
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
