"""The package's public names come from the module lists, each once."""

import importlib

import pytest

import fraclogistic
from fraclogistic import closed_forms, errors, hsv, model, solvers, special, stability

# 25 names: ADOMIAN_MODES went when lam = 1 became the one spelling of the
# undelayed Adomian square, so no mode is left to name; classical_fixed_points
# went because it returned a constant list that no route used; the eleven
# names of fraclogistic.series and fraclogistic.adomian went because they are
# the term-by-term reference of hsv_iterate, not a route of their own, and
# stay importable from those modules; psi_kernel and geometric_gap went
# because only geometric_closed_form used the kernel, which it now forms
# itself, and the gap is the difference of two public values;
# lambda0_amplitude went because the amplitude is the lam = 0 closed form's
# value at t = 0, abc_exact_lambda0(p, 0.0)
PUBLIC = {
    "ConvergenceError", "GeometricForm", "HSV_SOLVER_AGREEMENT_RTOL",
    "HsvEvaluation", "HsvSolution", "ModelParams", "OperatorComparison",
    "OperatorKind", "SingularParameterError", "SolveConfig", "SolverError",
    "StabilityReport", "Trajectory", "abc_exact_lambda0", "classical_exact",
    "compare_operators", "gamma_fn", "geometric_closed_form",
    "hsv_evaluate", "hsv_iterate", "hyers_ulam_probe",
    "logistic_rhs", "mittag_leffler", "solve", "__version__",
}

MODULES = (closed_forms, errors, hsv, model, solvers, special, stability)


def test_no_duplicates():
    assert len(fraclogistic.__all__) == len(set(fraclogistic.__all__))


def test_every_name_resolves():
    for name in fraclogistic.__all__:
        assert getattr(fraclogistic, name) is not None, name


def test_public_name_set():
    assert len(PUBLIC) == 25
    assert set(fraclogistic.__all__) == PUBLIC


def test_names_are_the_module_lists():
    listed = [name for module in MODULES for name in module.__all__]
    assert fraclogistic.__all__ == listed + ["__version__"]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(fraclogistic, name) is getattr(module, name), name


def test_reference_modules_stay_outside_the_namespace():
    with pytest.raises(ImportError):
        from fraclogistic import FracSeries  # noqa: F401
    for name in ("fraclogistic.series", "fraclogistic.adomian"):
        module = importlib.import_module(name)
        assert not set(module.__all__) & set(fraclogistic.__all__), name
