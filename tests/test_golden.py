"""Golden outputs: decide's verdict JSON, the `cardcsp kernel` report and
the `cardcsp hyper` run on 41 fixed instances at p in {1/2, 1/3}, n <= 10,
d <= 3, and the 336 runs of a `cardcsp spectra` sweep, pinned by digest.

A refactor that claims "every output unchanged" must leave each digest as
it is; a changed witness tie-break, kernel, h or warning changes one.  The
digests are the first 16 hex digits of the SHA-256 of each document's text
(the verdict's to_json, the kernel report's stdout line; for the `hyper`
runs and the sweep, each run's exit code, stdout and stderr, in order).
Regenerate them with `PYTHONPATH=src python tests/test_golden.py` only when
an output is meant to change, and say which and why.
"""

import contextlib
import hashlib
import io
import os
import random
import tempfile
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from cardcsp.cli import main
from cardcsp.csp_model import Constraint, CspInstance, GlobalCardinality, format_instance
from cardcsp.solver import decide

from conftest import complete_graph, random_instance

EVEN_PARITY = frozenset(pat for pat in product((-1, 1), repeat=3) if pat.count(-1) % 2 == 0)


def parity_core(n):
    """The complete 3-uniform even-parity core on n variables."""
    return CspInstance(n=n, d=3, constraints=tuple(
        Constraint(e, EVEN_PARITY) for e in combinations(range(1, n + 1), 3)))


def golden_cases():
    """(name, instance, p): 32 random instances (p alternating 1/2 and 1/3,
    d cycling 1..3, m = 2n), then complete graphs and parity cores."""
    cases = []
    for seed in range(32):
        p = F(1, 2) if seed % 2 == 0 else F(1, 3)
        n = (6, 8, 10)[seed % 3] if p == F(1, 2) else (6, 9)[seed // 2 % 2]
        d = 1 + seed // 2 % 3
        cases.append((f"random-{seed}", random_instance(random.Random(seed), n, d, 2 * n), p))
    for n, p in ((6, F(1, 2)), (8, F(1, 2)), (10, F(1, 2)), (6, F(1, 3)), (9, F(1, 3))):
        cases.append((f"K{n}-{p}", complete_graph(n), p))
    for n, p in ((6, F(1, 2)), (8, F(1, 2)), (6, F(1, 3)), (9, F(1, 3))):
        cases.append((f"parity{n}-{p}", parity_core(n), p))
    return cases


def outputs(inst, p, directory):
    """(verdict JSON at t = 1, `cardcsp kernel` stdout) of one case."""
    card = GlobalCardinality(inst.n, p)
    verdict = decide(inst, card, 1).to_json()
    path = os.path.join(directory, "golden.csp")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_instance(inst, card))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["kernel", "--instance", path])
    assert code == 0
    return verdict, out.getvalue()


def spectra_sweep():
    """The text of every `cardcsp spectra` run at p in {1/2, 1/3, 1/4}, n up
    to 14 in multiples of p's denominator, d = 0..5, kinds A and B and both
    entry conventions (n = 14, d = 5 exceeds the dense cap)."""
    runs = []
    for p in (F(1, 2), F(1, 3), F(1, 4)):
        for n in range(p.denominator, 15, p.denominator):
            for d in range(6):
                for kind in "AB":
                    for entries in ("exact", "simplified"):
                        runs.append(run_cli(["spectra", "--n", str(n), "--d", str(d),
                                             "--p", str(p), "--kind", kind,
                                             "--entries", entries]))
    return runs


def run_cli(argv):
    """One CLI run as its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"{code}\n{out.getvalue()}{err.getvalue()}"


def hyper_runs(directory):
    """The text of `cardcsp hyper` on each golden case, in order."""
    runs = []
    for _, inst, p in golden_cases():
        path = os.path.join(directory, "hyper.csp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_instance(inst, GlobalCardinality(inst.n, p)))
        runs.append(run_cli(["hyper", "--instance", path]))
    return runs


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# name: (verdict digest, kernel report digest)
GOLDEN = {
    "random-0": ("824f62ae5e868c07", "3eaac920ab55c9e0"),
    "random-1": ("10c1a84f4251a790", "8b41b17919dcae82"),
    "random-2": ("1574628a0949922c", "f8391519934ea991"),
    "random-3": ("8945bbc1a74b3466", "61417f59de2828e1"),
    "random-4": ("163de86b8ad8ff60", "75b4731cdff25630"),
    "random-5": ("d043fca883fc49d4", "b468286263f27453"),
    "random-6": ("e07aab9971db2a88", "647cf24219fa2e62"),
    "random-7": ("6c1073e237c5d4fd", "eed7ae256c961475"),
    "random-8": ("fa6082d238ef55c4", "ed2eb5327ebf6c02"),
    "random-9": ("bda21a54c82876bb", "0af27b1cb111ca69"),
    "random-10": ("f23b80c71be0201f", "1541fa9e74913d53"),
    "random-11": ("f142f98a80abad77", "7fea351851521518"),
    "random-12": ("c06c067f08f367c8", "9103e233e4456c0c"),
    "random-13": ("c572fe4255112af6", "51ff418526d2db94"),
    "random-14": ("bce89337a6ba4410", "29a93d279fda1754"),
    "random-15": ("1bb3b51c2410450c", "914662f43aeb37a8"),
    "random-16": ("13f3d6c08b881cba", "d12422335f5ec664"),
    "random-17": ("2041de11c80b8aeb", "512a4ac8cc7d3d92"),
    "random-18": ("6d3f254da0484af3", "3aa9cb1223ad3a51"),
    "random-19": ("adab178a00a72a9e", "1fe2890ca3d85a8e"),
    "random-20": ("0b60ebf5cec25caf", "0ec15789ee999980"),
    "random-21": ("b9edf28ebca0da1f", "d1c2010cad302766"),
    "random-22": ("9d0e97a2b14f2c8e", "b248782e5e79bbba"),
    "random-23": ("302169d6692efbe7", "b6c467e5b4b66428"),
    "random-24": ("af8e511199dc7318", "aa95dfb118631e33"),
    "random-25": ("4e904e50a03381bf", "fe699b8d89206260"),
    "random-26": ("a955aefc8b4e5c74", "c3c7d2617a166274"),
    "random-27": ("fb885150a4b04f5f", "0c56a7846b7cedc8"),
    "random-28": ("919119a8ba778ebb", "fd5c9680713ca2d5"),
    "random-29": ("0a7403c3fe99636c", "93c3b8a197a6523c"),
    "random-30": ("91fb6722c88debec", "4179aa23fb8deab7"),
    "random-31": ("6204646f5e3e3c78", "bf694c5192642ba3"),
    "K6-1/2": ("9212ca1fcf78e11b", "e18379ac54a61735"),
    "K8-1/2": ("bf0fdaa2face0979", "dc00f7a78aa32645"),
    "K10-1/2": ("eaccde9b09414fd3", "19ccfdac2d807ae1"),
    "K6-1/3": ("400148da6bac4957", "5ee38490f8852250"),
    "K9-1/3": ("78489cc1b633da91", "514ea538e69406ff"),
    "parity6-1/2": ("83b76dfa9da5179e", "33a7cfd3398ecbb5"),
    "parity8-1/2": ("c6794bf17ef40481", "d31bf820e5112a8c"),
    "parity6-1/3": ("04db4749ee0adf3b", "b5ce74e620e9a7a5"),
    "parity9-1/3": ("0a59fa229c5f579a", "8101150575881fa3"),
}


SPECTRA_SWEEP = "a123a5e61fcb941e"
HYPER_RUNS = "6ed2f82a952f7cd3"


@pytest.mark.parametrize("name, inst, p", golden_cases(), ids=[c[0] for c in golden_cases()])
def test_outputs_match_golden_digests(name, inst, p, tmp_path):
    verdict, report = outputs(inst, p, str(tmp_path))
    assert (digest(verdict), digest(report)) == GOLDEN[name], (verdict, report)


def test_hyper_runs_match_golden_digest(tmp_path):
    runs = hyper_runs(str(tmp_path))
    assert len(runs) == 41
    assert digest("".join(runs)) == HYPER_RUNS


def test_spectra_sweep_matches_golden_digest():
    runs = spectra_sweep()
    assert len(runs) == 336
    assert digest("".join(runs)) == SPECTRA_SWEEP


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        for name, inst, p in golden_cases():
            verdict, report = outputs(inst, p, directory)
            print(f'    "{name}": ("{digest(verdict)}", "{digest(report)}"),')
        print(f'HYPER_RUNS = "{digest("".join(hyper_runs(directory)))}"')
    print(f'SPECTRA_SWEEP = "{digest("".join(spectra_sweep()))}"')
