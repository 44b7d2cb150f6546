"""Self-tests of the benchmark: seeded corpora and work counts repeat exactly,
the planted reference agrees with the exhaustive oracle, and run.py
fails a run in which an instance raises, and refuses to run without the
program's sources."""

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import cardcsp
from cardcsp.csp_model import GlobalCardinality
from cardcsp.oracle import brute_average, brute_opt

import run
import workloads
from workloads import Case, build_corpus, reference


def metric_names(kind):
    return [m["name"] for m in run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))[kind]]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_corpus_text_repeats_per_seed(name):
    first = [case.text for case in build_corpus(name, 5)]
    assert first == [case.text for case in build_corpus(name, 5)]
    assert first != [case.text for case in build_corpus(name, 6)]
    assert len(first) >= 100        # p90 keeps at least ten instances above it


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS", str(tmp_path))
    runs = [run.run_workload(name, 3, 0, 1, scale=0.03) for _ in range(2)]
    for tally, _ in runs:
        assert (tally.wrong, tally.failed) == (0, 0), tally.notes
    assert set(runs[0][1]) == set(metric_names("per_layer"))
    # Every count, and every ratio of counts, repeats exactly; timings need not.
    counts = [k for k in runs[0][1] if not k.endswith(("_s", "_share", "overhead_ratio"))]
    assert [runs[0][1][k] for k in counts] == [runs[1][1][k] for k in counts]
    assert os.listdir(tmp_path) == [f"spans-{name}-seed3.jsonl"]


def test_timed_run_reports_every_end_to_end_metric():
    tally, metrics = run.run_workload("biased-scan", 3, 0, 0, scale=0.02)
    assert (tally.wrong, tally.failed) == (0, 0), tally.notes
    assert set(metrics) == set(metric_names("end_to_end"))
    assert metrics["correct_ratio"] == 1


def test_an_instance_that_raises_fails_the_run(monkeypatch, capsys):
    corpus = build_corpus("biased-scan", 3, scale=0.02)
    monkeypatch.setattr(workloads, "build_corpus", lambda *args, **kwargs: corpus)
    monkeypatch.setattr(run, "measure_setup", lambda: 1.0)
    decide, calls = cardcsp.decide, []

    def raise_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise ZeroDivisionError("injected")
        return decide(*args, **kwargs)

    monkeypatch.setattr(cardcsp, "decide", raise_once)
    assert run.main(["--workload", "biased-scan", "--seed", "3", "--seconds", "0",
                     "--trace", "0"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (False, 1)
    assert result["metrics"]["correct_ratio"]["value"] < 1


@pytest.mark.parametrize("gen, n, p", [
    (workloads._cut, 8, Fraction(1, 2)),
    (workloads._cut, 9, Fraction(1, 3)),
    (workloads._parity, 6, Fraction(1, 2)),
    (workloads._parity_noise, 6, Fraction(1, 3)),
    (workloads._parity_noise, 8, Fraction(1, 2)),
])
def test_planted_reference_matches_oracle(gen, n, p):
    rng = random.Random(n)
    card = GlobalCardinality(n, p)
    for draw in range(3):
        inst, core, vertices = gen(rng, n)
        case = Case(ident=str(draw), kind="planted", text="", t=1,
                    core_size=core, noise_vertices=vertices)
        ref = reference(case, inst, card)
        assert ref.avg == brute_average(inst, card)
        assert ref.opt == brute_opt(inst, card)[0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bisect-sparse",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
