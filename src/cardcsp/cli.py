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

from .cardinal_dist import _chi_mean_variance, delta_sequence, mc_moment
from .config import DEFAULT_CONFIG, load_config
from .csp_model import _compile, parse_instance, to_polynomial
from .errors import CardCspError, InputError, ResourceError
from .exact import number_str, parse_count, parse_rational, scalar_json
from .oracle import brute_average, brute_force_decision, brute_opt, hyper_ratio
from .poly import Basis, convert_basis, superset_sums
from .solver import _kernel_step, decide, fourth_moment_bound
from .spectra import SetSymmetricForm, eigen_summary

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_USAGE = 64


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True))


def _fraction(text: str) -> Fraction:
    """argparse type for an exact rational such as 1/3 (exact.parse_rational);
    a bad value is a usage error, not a traceback."""
    try:
        return parse_rational(text)
    except InputError as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {exc}") from None


def _count(text: str) -> int:
    """argparse type for a count such as 12, in the instance format's
    grammar (exact.parse_count); a bad value is a usage error."""
    try:
        return parse_count("value", text)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
    gamma = args.gamma if args.gamma is not None else Fraction(1, 2 ** inst.d)
    outcome = _kernel_step(*_compile(inst), card, gamma, inst.d,
                           config.dense_cap).outcome(card.n)
    bound = None
    if outcome.norm_blowup is not None:
        bound = {"limit": 7 ** inst.d,
                 "holds": bool(outcome.norm_blowup <= 7 ** inst.d)}
    _emit({
        "schema": 1,
        "active_set": sorted(outcome.active_set),
        "h": {",".join(map(str, s)) or "const": scalar_json(c)
              for s, c in outcome.h.items_sorted()},
        "blowup": (scalar_json(outcome.norm_blowup)
                   if outcome.norm_blowup is not None else None),
        "bound_check": bound,
        "gamma": scalar_json(gamma),
    })
    return EXIT_YES


def _cmd_spectra(args) -> int:
    form = SetSymmetricForm(n=args.n, d=args.d, p=args.p,
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
    values = delta_sequence(args.n, args.p, args.kmax)
    _emit({
        "schema": 1, "n": args.n, "p": str(args.p),
        "delta": [scalar_json(v) for v in values],
    })
    return EXIT_YES


def _cmd_moments(args) -> int:
    if args.mc > DEFAULT_CONFIG.enum_cap:   # each sample is a slice point visited
        raise ResourceError(f"{number_str(args.mc)} Monte Carlo samples exceed "
                            f"enum cap {DEFAULT_CONFIG.enum_cap}")
    inst, card = _load_instance(args.instance)
    den, table = _compile(inst)
    avg, var = _chi_mean_variance(den, superset_sums(table), card)
    doc = {
        "schema": 1,
        "avg": scalar_json(avg),
        "second_moment": scalar_json(var + avg * avg),
        "variance": scalar_json(var),
    }
    if args.mc:
        est, err = mc_moment(to_polynomial(inst), card, args.power, args.mc, args.seed)
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
        "ratio_vs_second_moment": scalar_json(ratio_m2),
        "ratio_vs_norm": scalar_json(ratio_norm),
        "bound": scalar_json(bound),
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
        "avg": scalar_json(avg),
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
    p_kernel.add_argument("--gamma", type=_fraction, default=None,
                          help="coefficient granularity a/b")
    p_kernel.add_argument("--config", default=None)
    p_kernel.set_defaults(func=_cmd_kernel)

    p_spectra = sub.add_parser("spectra", help="eigen report of the moment forms")
    p_spectra.add_argument("--n", type=_count, required=True)
    p_spectra.add_argument("--d", type=_count, required=True)
    p_spectra.add_argument("--p", type=_fraction, required=True)
    p_spectra.add_argument("--kind", choices=["A", "B"], default="A")
    p_spectra.add_argument("--entries", choices=["exact", "simplified"],
                           default="exact")
    p_spectra.add_argument("--dense-cap", type=_count, default=DEFAULT_CONFIG.dense_cap)
    p_spectra.set_defaults(func=_cmd_spectra)

    p_delta = sub.add_parser("delta", help="moment coefficients of the slice")
    p_delta.add_argument("--n", type=_count, required=True)
    p_delta.add_argument("--p", type=_fraction, required=True)
    p_delta.add_argument("--kmax", type=_count, required=True)
    p_delta.set_defaults(func=_cmd_delta)

    p_moments = sub.add_parser("moments", help="closed-form slice moments of an instance")
    p_moments.add_argument("--instance", required=True)
    p_moments.add_argument("--mc", type=_count, default=0,
                           help="also run a Monte Carlo check with this many samples")
    p_moments.add_argument("--power", type=_count, default=2, choices=[1, 2, 4])
    p_moments.add_argument("--seed", type=int, default=0)
    p_moments.set_defaults(func=_cmd_moments)

    p_hyper = sub.add_parser("hyper", help="fourth-moment ratio versus the bound")
    p_hyper.add_argument("--instance", required=True)
    p_hyper.add_argument("--enum-cap", type=_count, default=DEFAULT_CONFIG.enum_cap)
    p_hyper.set_defaults(func=_cmd_hyper)

    p_oracle = sub.add_parser("oracle", help="exhaustive ground truth")
    p_oracle.add_argument("--instance", required=True)
    p_oracle.add_argument("--t", type=int, default=None)
    p_oracle.add_argument("--enum-cap", type=_count, default=DEFAULT_CONFIG.enum_cap)
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse of Python 3.11 reads an option's value "--" as [] and
        # calls no type on it; no option here takes a list
        if any(isinstance(value, list) for value in vars(args).values()):
            parser.error("an option's value is '--'")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CardCspError, OSError, UnicodeDecodeError) as exc:
        # UnicodeDecodeError: an instance or config file that is not UTF-8
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
