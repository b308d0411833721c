"""Delayed logistic growth with fractional memory.

Three independent solution routes for the logistic model under
nonlocal derivatives with proportional delay, built to cross-validate
each other:

* exact closed forms (classical solution; constant-feedback case),
* the hybrid Sumudu-variational series with Adomian polynomials,
* product-integration numerical solvers for three fractional operators.
"""

from .adomian import ADOMIAN_MODES, adomian_delayed_product
from .closed_forms import (
    abc_exact_lambda0,
    classical_exact,
    classical_fixed_points,
    lambda0_amplitude,
)
from .errors import ConvergenceError, SingularParameterError, SolverError
from .hsv import (
    HSV_SOLVER_AGREEMENT_RTOL,
    GeometricForm,
    HsvEvaluation,
    HsvSolution,
    geometric_closed_form,
    geometric_gap,
    hsv_evaluate,
    hsv_iterate,
    psi_kernel,
)
from .model import ModelParams, logistic_rhs
from .series import (
    FracSeries,
    SumuduSeries,
    delay_rescale,
    eval_series,
    kernel_multiply,
    series_add,
    series_product,
    series_scale,
    sumudu_forward,
    sumudu_inverse,
)
from .solvers import (
    OperatorComparison,
    OperatorKind,
    SolveConfig,
    Trajectory,
    compare_operators,
    solve,
)
from .special import gamma_fn, mittag_leffler
from .stability import StabilityReport, hyers_ulam_probe

__version__ = "0.1.0"

__all__ = [
    "ADOMIAN_MODES",
    "ConvergenceError",
    "FracSeries",
    "GeometricForm",
    "HSV_SOLVER_AGREEMENT_RTOL",
    "HsvEvaluation",
    "HsvSolution",
    "ModelParams",
    "OperatorComparison",
    "OperatorKind",
    "SingularParameterError",
    "SolveConfig",
    "SolverError",
    "StabilityReport",
    "SumuduSeries",
    "Trajectory",
    "abc_exact_lambda0",
    "adomian_delayed_product",
    "classical_exact",
    "classical_fixed_points",
    "compare_operators",
    "delay_rescale",
    "eval_series",
    "gamma_fn",
    "geometric_closed_form",
    "geometric_gap",
    "hsv_evaluate",
    "hsv_iterate",
    "hyers_ulam_probe",
    "kernel_multiply",
    "lambda0_amplitude",
    "logistic_rhs",
    "mittag_leffler",
    "psi_kernel",
    "series_add",
    "series_product",
    "series_scale",
    "solve",
    "sumudu_forward",
    "sumudu_inverse",
    "__version__",
]
