"""The package's public names come from the module lists, each once."""

import fraclogistic
from fraclogistic import (
    adomian,
    closed_forms,
    errors,
    hsv,
    model,
    series,
    solvers,
    special,
    stability,
)

# 40 names: ADOMIAN_MODES went when lam = 1 became the one spelling of the
# undelayed Adomian square, so no mode is left to name
PUBLIC = {
    "ConvergenceError", "FracSeries", "GeometricForm",
    "HSV_SOLVER_AGREEMENT_RTOL", "HsvEvaluation", "HsvSolution", "ModelParams",
    "OperatorComparison", "OperatorKind", "SingularParameterError", "SolveConfig",
    "SolverError", "StabilityReport", "SumuduSeries", "Trajectory",
    "abc_exact_lambda0", "adomian_delayed_product", "classical_exact",
    "classical_fixed_points", "compare_operators", "delay_rescale", "eval_series",
    "gamma_fn", "geometric_closed_form", "geometric_gap", "hsv_evaluate",
    "hsv_iterate", "hyers_ulam_probe", "kernel_multiply", "lambda0_amplitude",
    "logistic_rhs", "mittag_leffler", "psi_kernel", "series_add", "series_product",
    "series_scale", "solve", "sumudu_forward", "sumudu_inverse", "__version__",
}

MODULES = (adomian, closed_forms, errors, hsv, model, series, solvers, special, stability)


def test_no_duplicates():
    assert len(fraclogistic.__all__) == len(set(fraclogistic.__all__))


def test_every_name_resolves():
    for name in fraclogistic.__all__:
        assert getattr(fraclogistic, name) is not None, name


def test_public_name_set():
    assert len(PUBLIC) == 40
    assert set(fraclogistic.__all__) == PUBLIC


def test_names_are_the_module_lists():
    listed = [name for module in MODULES for name in module.__all__]
    assert fraclogistic.__all__ == listed + ["__version__"]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(fraclogistic, name) is getattr(module, name), name
