"""Command-line surface: solve, kernel, spectra, delta, moments, hyper, oracle.

Every subcommand writes a single JSON document (schema 1) to stdout and
diagnostics to stderr.  Numeric fields carry both the exact value as a string
and a float rendering.  Exit codes: 0 = decision "yes", 1 = decision "no",
2 = domain error, 64 = usage error.  `--seed` pins every randomized path.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .cardinal_dist import (CardinalDist, chi_expectation, chi_variance,
                            delta_sequence, mc_moment)
from .config import DEFAULT_CONFIG, load_config
from .csp_model import parse_instance, to_polynomial
from .errors import CardCspError
from .exact import fraction_str, to_float
from .oracle import brute_average, brute_force_decision, brute_opt, hyper_ratio
from .poly import Basis, convert_basis
from .rounding import round_bisection, round_global
from .solver import _check_projection_cap, decide, fourth_moment_bound
from .spectra import SetSymmetricForm, eigen_summary, project_null

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_USAGE = 64


def _num(x) -> dict:
    return {"exact": fraction_str(x), "approx": to_float(x)}


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True))


def _load_instance(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _cmd_solve(args) -> int:
    inst, card = _load_instance(args.instance)
    config = load_config(args.config) if args.config else DEFAULT_CONFIG
    verdict = decide(inst, card, args.t, config)
    doc = verdict.as_dict()
    _emit(doc)
    return EXIT_YES if verdict.answer_bool else EXIT_NO


def _cmd_kernel(args) -> int:
    inst, card = _load_instance(args.instance)
    config = load_config(args.config) if args.config else DEFAULT_CONFIG
    f = to_polynomial(inst)
    dist = CardinalDist.from_card(card)
    gamma = Fraction(args.gamma) if args.gamma else Fraction(1, 2 ** inst.d)
    if card.p == Fraction(1, 2):
        _check_projection_cap(f, config.dense_cap)
        proj = project_null(f, dist, mode="exact")
        outcome = round_bisection(f, proj.h, gamma, d=inst.d,
                                  allow_large_residual=True)
    else:
        outcome = round_global(f, dist, gamma, d=inst.d, allow_large_variance=True)
    bound = None
    if outcome.norm_blowup is not None:
        bound = {"limit": 7 ** inst.d,
                 "holds": bool(outcome.norm_blowup <= 7 ** inst.d)}
    _emit({
        "schema": 1,
        "active_set": sorted(outcome.active_set),
        "h": {",".join(map(str, s)) or "const": _num(c)
              for s, c in outcome.h.items_sorted()},
        "blowup": _num(outcome.norm_blowup) if outcome.norm_blowup is not None else None,
        "bound_check": bound,
        "gamma": _num(gamma),
    })
    return EXIT_YES


def _cmd_spectra(args) -> int:
    form = SetSymmetricForm(n=args.n, d=args.d, p=Fraction(args.p),
                            kind=args.kind, exact=(args.entries == "exact"))
    summary = eigen_summary(form, dense_cap=args.dense_cap)
    _emit({
        "schema": 1,
        "n": summary.n, "d": summary.d, "p": str(summary.p),
        "kind": summary.kind, "entries": args.entries,
        "null_dim": summary.null_dim,
        "clusters": [{"value": c.value, "multiplicity": c.multiplicity,
                      "closed_form": c.closed_form, "gap": c.gap}
                     for c in summary.clusters],
    })
    return EXIT_YES


def _cmd_delta(args) -> int:
    values = delta_sequence(args.n, Fraction(args.p), args.kmax)
    _emit({
        "schema": 1, "n": args.n, "p": str(Fraction(args.p)),
        "delta": [_num(v) for v in values],
    })
    return EXIT_YES


def _cmd_moments(args) -> int:
    inst, card = _load_instance(args.instance)
    dist = CardinalDist.from_card(card)
    f = to_polynomial(inst)
    avg = chi_expectation(f, dist)
    var = chi_variance(f, dist)
    doc = {
        "schema": 1,
        "avg": _num(avg),
        "second_moment": _num(var + avg * avg),
        "variance": _num(var),
    }
    if args.mc:
        est, err = mc_moment(f, dist, args.power, args.mc, args.seed)
        doc["mc"] = {"power": args.power, "samples": args.mc,
                     "estimate": est, "stderr": err, "seed": args.seed}
    _emit(doc)
    return EXIT_YES


def _cmd_hyper(args) -> int:
    inst, card = _load_instance(args.instance)
    f = to_polynomial(inst)
    g = f if card.p == Fraction(1, 2) else convert_basis(f, Basis.PHI, card.p)
    ratio_m2, ratio_norm = hyper_ratio(g, card, cap=args.enum_cap)
    bound = fourth_moment_bound(inst.d, card.p)
    _emit({
        "schema": 1,
        "ratio_vs_second_moment": _num(ratio_m2),
        "ratio_vs_norm": _num(ratio_norm),
        "bound": _num(bound),
        "holds": bool(ratio_m2 <= bound),
    })
    return EXIT_YES


def _cmd_oracle(args) -> int:
    inst, card = _load_instance(args.instance)
    opt, arg = brute_opt(inst, card, cap=args.enum_cap)
    avg = brute_average(inst, card, cap=args.enum_cap)
    doc = {
        "schema": 1,
        "opt": opt,
        "argmax": list(arg),
        "avg": _num(avg),
    }
    if args.t is not None:
        doc["t"] = args.t
        doc["decision"] = brute_force_decision(inst, card, args.t, cap=args.enum_cap)
    _emit(doc)
    if args.t is not None:
        return EXIT_YES if doc["decision"] else EXIT_NO
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cardcsp",
        description="Above-average decisions for CSPs under a cardinality constraint")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the decision procedure")
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--t", type=int, required=True)
    p_solve.add_argument("--config", default=None)
    p_solve.set_defaults(func=_cmd_solve)

    p_kernel = sub.add_parser("kernel", help="projection/rounding kernel report")
    p_kernel.add_argument("--instance", required=True)
    p_kernel.add_argument("--gamma", default=None, help="coefficient granularity a/b")
    p_kernel.add_argument("--config", default=None)
    p_kernel.set_defaults(func=_cmd_kernel)

    p_spectra = sub.add_parser("spectra", help="eigen report of the moment forms")
    p_spectra.add_argument("--n", type=int, required=True)
    p_spectra.add_argument("--d", type=int, required=True)
    p_spectra.add_argument("--p", required=True)
    p_spectra.add_argument("--kind", choices=["A", "B"], default="A")
    p_spectra.add_argument("--entries", choices=["exact", "simplified"],
                           default="exact")
    p_spectra.add_argument("--dense-cap", type=int, default=DEFAULT_CONFIG.dense_cap)
    p_spectra.set_defaults(func=_cmd_spectra)

    p_delta = sub.add_parser("delta", help="moment coefficients of the slice")
    p_delta.add_argument("--n", type=int, required=True)
    p_delta.add_argument("--p", required=True)
    p_delta.add_argument("--kmax", type=int, required=True)
    p_delta.set_defaults(func=_cmd_delta)

    p_moments = sub.add_parser("moments", help="closed-form slice moments of an instance")
    p_moments.add_argument("--instance", required=True)
    p_moments.add_argument("--mc", type=int, default=0,
                           help="also run a Monte Carlo check with this many samples")
    p_moments.add_argument("--power", type=int, default=2, choices=[1, 2, 4])
    p_moments.add_argument("--seed", type=int, default=0)
    p_moments.set_defaults(func=_cmd_moments)

    p_hyper = sub.add_parser("hyper", help="fourth-moment ratio versus the bound")
    p_hyper.add_argument("--instance", required=True)
    p_hyper.add_argument("--enum-cap", type=int, default=DEFAULT_CONFIG.enum_cap)
    p_hyper.set_defaults(func=_cmd_hyper)

    p_oracle = sub.add_parser("oracle", help="exhaustive ground truth")
    p_oracle.add_argument("--instance", required=True)
    p_oracle.add_argument("--t", type=int, default=None)
    p_oracle.add_argument("--enum-cap", type=int, default=DEFAULT_CONFIG.enum_cap)
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CardCspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
