"""cardcsp: exact above-average decisions for Boolean CSPs on a cardinality slice.

Given a d-ary CSP and the constraint sum_i x_i = (1-2p)n, decide whether some
valid assignment satisfies at least AVG + t constraints: certify via the
fourth-moment method when the variance over the slice is large, otherwise
reduce to an O(t^2)-variable kernel and enumerate it exactly.
"""

from .cardinal_dist import (CardinalDist, chi_expectation, chi_variance,
                            delta_sequence, mc_moment, sample)
from .config import DEFAULT_CONFIG, SolverConfig, load_config, parse_config
from .csp_model import (Constraint, CspInstance, GlobalCardinality,
                        constraint_count, format_instance, parse_instance,
                        to_polynomial)
from .errors import (CardCspError, DegenerateInput, InputError, ParseError,
                     PreconditionError, ResourceError)
from .poly import Assignment, Basis, MultilinearPoly, convert_basis
from .rounding import RoundingOutcome, reconstruct_h, round_bisection, round_global
from .solver import Verdict, average, certification_threshold, decide, enumerate_kernel
from .spectra import (AlphaTable, ProjectionResult, SetSymmetricForm, alpha_table,
                      eigen_summary, eigenvalue_closed_form, project_null)

__version__ = "0.1.0"

__all__ = [
    "CardinalDist", "chi_expectation", "chi_variance", "delta_sequence", "mc_moment",
    "sample", "DEFAULT_CONFIG", "SolverConfig", "load_config", "parse_config",
    "Constraint", "CspInstance", "GlobalCardinality", "constraint_count",
    "format_instance", "parse_instance", "to_polynomial", "CardCspError",
    "DegenerateInput", "InputError", "ParseError", "PreconditionError", "ResourceError",
    "Assignment", "Basis", "MultilinearPoly", "convert_basis", "RoundingOutcome",
    "reconstruct_h", "round_bisection", "round_global", "Verdict", "average",
    "certification_threshold", "decide", "enumerate_kernel", "AlphaTable",
    "ProjectionResult", "SetSymmetricForm", "alpha_table", "eigen_summary",
    "eigenvalue_closed_form", "project_null",
]
