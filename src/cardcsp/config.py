"""Runtime caps, overridable from a key=value config file."""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import InputError
from .exact import check_exact, number_str, parse_count, parse_rational


@dataclass(frozen=True)
class SolverConfig:
    enum_cap: int = 10 ** 7          # max slice points any exhaustive walk may visit
    kernel_cap: int = 40             # max kernel variables the solver will enumerate
    dense_cap: int = 2000            # max projection unknowns; max spectra form dimension
    p0: Fraction = Fraction(1, 100)  # solver accepts p in [p0, 1-p0]

    def __post_init__(self):
        for name in ("enum_cap", "kernel_cap", "dense_cap"):
            cap = getattr(self, name)
            if not isinstance(cap, int) or isinstance(cap, bool) or cap < 0:
                raise InputError(f"{name} = {number_str(cap)} is not a nonnegative integer")
        if not 0 < check_exact("p0", self.p0) < Fraction(1, 2):
            raise InputError(f"p0 = {number_str(self.p0)} outside (0, 1/2)")


DEFAULT_CONFIG = SolverConfig()

_KEY_TYPES = {"enum_cap": parse_count, "kernel_cap": parse_count,
              "dense_cap": parse_count, "p0": lambda key, text: parse_rational(text)}


def parse_config(text: str, base: SolverConfig = DEFAULT_CONFIG) -> SolverConfig:
    """Parse 'key = value' lines ('#' comments allowed) over a base config;
    a line ends at a line feed alone, as in the instance format."""
    updates = {}
    for idx, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise InputError(f"config line {idx}: expected key = value")
        key, value = (part.strip() for part in body.split("=", 1))
        convert = _KEY_TYPES.get(key)
        if convert is None:
            raise InputError(f"config line {idx}: unknown key {key!r}")
        try:
            updates[key] = convert(key, value)
        except InputError as exc:
            raise InputError(f"config line {idx}: bad value for {key}: {exc}") from exc
    return replace(base, **updates)


def load_config(path: str, base: SolverConfig = DEFAULT_CONFIG) -> SolverConfig:
    """parse_config of the file at path; InputError naming it if it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_config(fh.read(), base)
        except UnicodeDecodeError as exc:
            raise InputError(f"config file {path}: {exc}") from exc
