"""Benchmark for cardcsp's exact decision procedure.

Usage (from the repository root):

    python3 perfbench/run.py --workload bisect-sparse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed heldout      # every workload, both modes

A single-process closed loop with one caller and no threads.  A run builds
the workload's seeded corpus (workloads.py), computes each instance's
reference outside the timed region, then decides the corpus in whole passes
until another pass would overrun --seconds.

--trace 0 times parse_instance(text) + decide(...) per instance and reports
verdicts_per_s, the median and 90th percentile of the per-instance median
times, correct_ratio (verdicts matching the reference, over attempts),
setup_s (median over fresh processes that import cardcsp and decide one tiny
instance) and peak_rss_mb.  Verdict times are scaled to a reference host
speed by calibration probes interleaved with the work (see
at_reference_speed); the raw wall time is printed beside them.

--trace 1 also replays every decision one layer at a time (replay.py),
checks that the replay reproduces decide exactly, reports per-layer corpus
totals (raw seconds, shares of the traced total, work counts) and writes the
spans to perfbench/results/.

With --workload all, or without --trace, every (workload, mode) pair runs in
a fresh child process of its own, so that peak_rss_mb (the process's peak
RSS) belongs to that one run.

Each run prints its metrics by name with their units, lists every failed or
wrong instance with its reason, and ends with one JSON line
{"correct", "attempted", "failed", "metrics"}.  It exits 1 unless every
instance was decided and agrees with its reference: an instance that raises
(for example ResourceError from the kernel cap in settings.json) fails the
run as a wrong verdict does.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

# setup_s: a fresh interpreter imports cardcsp and decides this instance.
SETUP_INSTANCE = ("csp 4 4 2 1/2\nc 2 1 2\ns +1 -1\ns -1 +1\nc 2 2 3\ns +1 -1\ns -1 +1\n"
                  "c 2 3 4\ns +1 -1\ns -1 +1\nc 1 1\ns +1\n")
SETUP_CODE = ("import cardcsp\n"
              f"inst, card = cardcsp.parse_instance({SETUP_INSTANCE!r})\n"
              "print(cardcsp.decide(inst, card, 1).opt)\n")
SETUP_REPEATS = 9
# The calibration loop's time at the reference speed: the middle of the
# 2.3-3.4 ms it took on a shared 2-core x86-64 Linux host.
REFERENCE_CAL_S = 0.003


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q % of the sample at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def measure_setup():
    """Median wall time over SETUP_REPEATS fresh processes that each import
    cardcsp and decide one tiny instance."""
    from cardcsp import parse_instance
    from cardcsp.oracle import brute_opt

    expected = brute_opt(*parse_instance(SETUP_INSTANCE))[0]
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        if done.returncode != 0 or done.stdout.strip() != str(expected):
            raise RuntimeError(f"set-up run failed: {done.stderr.strip() or done.stdout.strip()}")
    return statistics.median(times)


def calibrate():
    """Time a fixed pure-Python loop of the kind the solver runs (Fraction
    arithmetic into a dict keyed by sorted tuples); about 3 ms."""
    start = time.perf_counter()
    acc = {}
    for i in range(1, 400):
        key = tuple(sorted({i % 7, i % 11, i % 13} ^ {3, 5}))
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 17 - 8, i % 5 + 1) * Fraction(3, 4)
    return time.perf_counter() - start


def at_reference_speed(raw, probes, window=5):
    """Scale each raw time to the reference speed of the host.

    The host's speed drifts by tens of percent over seconds to minutes (other
    tenants share its cores), so each time is multiplied by REFERENCE_CAL_S
    over the median of the calibration probes taken just before it and
    before its `window` neighbours on each side.
    """
    out = []
    for i, seconds in enumerate(raw):
        local = statistics.median(probes[max(0, i - window): i + window + 1])
        out.append(seconds * REFERENCE_CAL_S / local)
    return out


def verdict_error(verdict, ref, inst, card, t):
    """Why the verdict disagrees with the reference, or None if it agrees."""
    from cardcsp import constraint_count

    if verdict.avg != ref.avg:
        return f"avg {verdict.avg} != reference {ref.avg}"
    if verdict.answer_bool != (ref.opt >= ref.avg + t):
        return f"answer {verdict.answer_bool} != reference"
    if verdict.answer != "SolvedExactly":
        return None
    witness = verdict.witness
    if verdict.opt != ref.opt:
        return f"opt {verdict.opt} != reference {ref.opt}"
    if sum(witness) != card.target_sum or constraint_count(inst, witness) != ref.opt:
        return "witness is off the slice or misses the optimum"
    return None


def decide_timed(case, config):
    """parse_instance + decide, timed; a raised error is returned, not propagated."""
    from cardcsp import decide, parse_instance

    start = time.perf_counter()
    try:
        inst, card = parse_instance(case.text)
        result = decide(inst, card, case.t, config)
    except Exception as exc:  # counted and listed as a failed instance
        result = exc
    return time.perf_counter() - start, result


def timed_passes(corpus, seconds, body):
    """Run body(case, pass_index) over the whole corpus, pass after pass,
    until another pass would overrun `seconds`; always at least one pass.

    Returns (passes, {ident: [body's result per pass]}).
    """
    outcomes = {case.ident: [] for case in corpus}
    start = time.perf_counter()
    passes = 0
    while True:
        for case in corpus:
            outcomes[case.ident].append(body(case, passes))
        passes += 1
        wall = time.perf_counter() - start
        if wall + wall / passes > seconds:
            return passes, outcomes


class Tally:
    """Attempts, failures and wrong results of one run, with their reasons."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.notes = []

    def check(self, case, verdict, ref, inst, card, replayed=None):
        """Count one attempt; `replayed` is the traced replay's outcome, if any."""
        self.attempted += 1
        if isinstance(verdict, Exception):
            self.failed += 1
            self.notes.append(f"FAILED {case.ident}: {type(verdict).__name__}: {verdict}")
            return
        error = verdict_error(verdict, ref, inst, card, case.t)
        matches = replayed == {"branch": verdict.branch, "avg": verdict.avg,
                               "kernel": verdict.kernel, "opt": verdict.opt,
                               "witness": verdict.witness}
        if error is None and replayed is not None and not matches:
            error = f"traced replay differs from decide: {replayed!r}"
        if error is not None:
            self.wrong += 1
            self.notes.append(f"WRONG {case.ident}: {error}")

    @property
    def ok(self):
        """Every attempt was decided and agrees with its reference."""
        return self.failed == 0 and self.wrong == 0

    @property
    def correct_ratio(self):
        return (self.attempted - self.failed - self.wrong) / self.attempted


def run_workload(name, seed, seconds, trace, scale=1.0):
    """One run: (Tally, metrics).  scale < 1 shrinks the corpus for self-tests."""
    from cardcsp import SolverConfig, parse_instance
    from workloads import build_corpus, reference

    config = SolverConfig(kernel_cap=load_json(os.path.join(HERE, "settings.json"))["kernel_cap"])
    corpus = build_corpus(name, seed, scale)
    parsed = {case.ident: parse_instance(case.text) for case in corpus}
    refs = {case.ident: reference(case, *parsed[case.ident]) for case in corpus}
    tally = Tally()
    if trace:
        metrics = traced_metrics(corpus, config, seconds, parsed, refs, tally, name, seed)
    else:
        metrics = timed_metrics(corpus, config, seconds, parsed, refs, tally)
    return tally, metrics


def timed_metrics(corpus, config, seconds, parsed, refs, tally):
    setup_s = measure_setup()

    def body(case, _):
        probe = calibrate()
        return (probe,) + decide_timed(case, config)

    passes, outcomes = timed_passes(corpus, seconds, body)
    runs = [(case, pass_index) for pass_index in range(passes) for case in corpus]
    raw = [outcomes[case.ident][p][1] for case, p in runs]
    probes = [outcomes[case.ident][p][0] for case, p in runs]
    scaled = at_reference_speed(raw, probes)
    per_case = {}
    for (case, _), seconds_ in zip(runs, scaled):
        per_case.setdefault(case.ident, []).append(seconds_)
    for case in corpus:
        for _, _, verdict in outcomes[case.ident]:
            tally.check(case, verdict, refs[case.ident], *parsed[case.ident])
    medians = [statistics.median(v) for v in per_case.values()]
    tally.notes.insert(0, f"{len(corpus)} instances x {passes} passes; percentiles over "
                          f"{len(medians)} per-instance medians; raw wall "
                          f"{sum(raw):.3f} s, at reference speed {sum(scaled):.3f} s")
    return {
        "verdicts_per_s": (tally.attempted - tally.failed) / sum(scaled),
        "verdict_s.p50": percentile(medians, 50),
        "verdict_s.p90": percentile(medians, 90),
        "correct_ratio": tally.correct_ratio,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_metrics(corpus, config, seconds, parsed, refs, tally, name, seed):
    from replay import LAYERS, Tracer, replay

    tracers = []

    def body(case, pass_index):
        untraced, verdict = decide_timed(case, config)
        if pass_index == len(tracers):
            tracers.append(Tracer())
        start = time.perf_counter()
        try:
            replayed = replay(case.text, case.t, config, tracers[pass_index], case.ident)
        except Exception as exc:  # a replay that raises never matches decide
            replayed = exc
        return untraced, time.perf_counter() - start, verdict, replayed

    passes, outcomes = timed_passes(corpus, seconds, body)
    for case in corpus:
        for _, _, verdict, replayed in outcomes[case.ident]:
            tally.check(case, verdict, refs[case.ident], *parsed[case.ident],
                        replayed=replayed)
    counts = tracers[0].counts
    if any(tracer.counts != counts for tracer in tracers[1:]):
        tally.wrong += 1
        tally.notes.append("WRONG: work counts differ between traced passes")

    def layer_seconds(layer):
        return statistics.median(tracer.seconds(layer) for tracer in tracers)

    traced_total = layer_seconds("verdict")
    untraced = sum(o[0] for runs in outcomes.values() for o in runs)
    traced = sum(o[1] for runs in outcomes.values() for o in runs)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}_s"] = layer_seconds(layer)
        metrics[f"{layer}_share"] = metrics[f"{layer}_s"] / traced_total
    decided = sum(not isinstance(runs[0][2], Exception) for runs in outcomes.values())
    n_vars = counts.get("rounding.n_vars", 0)
    points = counts.get("solver.enum_points", 0)
    metrics.update({
        "trace.total_s": traced_total,
        "trace.untraced_s": untraced / passes,
        "trace.overhead_ratio": traced / untraced - 1,
        "csp_model.terms": counts.get("csp_model.terms", 0),
        "cardinal_dist.products": counts.get("cardinal_dist.products", 0),
        "solver.certified_ratio": counts.get("solver.certified", 0) / max(decided, 1),
        "spectra.gram_dim": counts.get("spectra.gram_dim", 0),
        "rounding.reconstruct_calls": counts.get("rounding.reconstruct_calls", 0),
        "rounding.n_vars": n_vars,
        "rounding.kernel_vars": counts.get("rounding.kernel_vars", 0),
        "rounding.shrink_ratio": counts.get("rounding.kernel_vars", 0) / max(n_vars, 1),
        "solver.enum_points": points,
        "solver.enum_feasible": counts.get("solver.enum_feasible", 0),
        "solver.enum_useful_ratio": counts.get("solver.enum_feasible", 0) / max(points, 1),
    })
    os.makedirs(RESULTS, exist_ok=True)
    spans_path = os.path.join(RESULTS, f"spans-{name}-seed{seed}.jsonl")
    with open(spans_path, "w", encoding="utf-8") as fh:
        for index, tracer in enumerate(tracers):
            for span in tracer.spans:
                fh.write(json.dumps(dict(span, trace_pass=index)) + "\n")
    tally.notes.insert(0, f"{len(corpus)} instances x {passes} traced passes; spans in "
                          f"{os.path.relpath(spans_path, ROOT)}")
    return metrics


def report(name, seed, trace, seconds, units):
    """One run in this process: print its notes and metrics; True if it is correct."""
    tally, metrics = run_workload(name, seed, seconds, trace)
    print(f"# {name} seed={seed} trace={trace}: {'correct' if tally.ok else 'INCORRECT'}, "
          f"{tally.attempted} attempted, {tally.failed} failed")
    for note in tally.notes:
        print(f"#   {note}")
    for metric, value in metrics.items():
        print(f"{name:14s} {metric:34s} {value:14.6g} {units[metric]}")
    print(json.dumps({"correct": tally.ok, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    sys.stdout.flush()
    return tally.ok


def main(argv=None):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", default="default",
                        help="an integer, or 'default' / 'heldout' from settings.json")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", choices=["0", "1"],
                        help="0: timed run, end-to-end metrics; 1: traced run, per-layer "
                             "metrics; omitted: both")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "cardcsp")):
        print(f"error: no cardcsp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    seed = int(load_json(os.path.join(HERE, "settings.json")).get(f"{args.seed}_seed", args.seed))
    if args.workload != "all" and args.trace is not None:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
        ok = report(args.workload, seed, int(args.trace), args.seconds, units)
        return 0 if ok else 1
    all_ok = True
    for name in names if args.workload == "all" else [args.workload]:
        for trace in ["0", "1"] if args.trace is None else [args.trace]:
            child = subprocess.run([sys.executable, os.path.abspath(__file__),
                                    "--workload", name, "--seed", str(seed),
                                    "--seconds", str(args.seconds), "--trace", trace], cwd=ROOT)
            all_ok = all_ok and child.returncode == 0
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
