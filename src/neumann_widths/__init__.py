"""Exact Kolmogorov widths of Neumann-kernel convolution classes.

Series evaluators with certified tails, the theta-equation width formula,
sufficient-condition thresholds, SK-spline sign-condition machinery, a
variation-diminishing determinant test, and brute-force oracles backing the
whole stack.

Each public name is imported from its module on first access (PEP 562), so
importing the package, or its command-line entry point, loads no numpy.
"""

import importlib

# module -> the public names it defines; __all__ is read from this table
_EXPORTS = {
    "errors": ("BracketFailure", "DomainError", "NeumannWidthsError", "NotFound",
               "SignDegenerate", "SingularSystem", "TolUnreachable", "UnderflowLimit"),
    "policy": ("DEFAULT_POLICY", "EvalPolicy"),
    "kernels": ("KernelSpec", "NeumannParams", "eval_bernoulli", "eval_gq", "eval_hq",
                "eval_neumann", "eval_neumann_pair", "eval_pq", "eval_pq_theta",
                "eval_psi_beta1", "pq_floor"),
    "widths": ("Branch", "ThetaRoot", "WidthReport", "conv_square_wave", "exact_width",
               "solve_theta", "theta_cos_bound", "theta_equation_lhs"),
    "thresholds": ("INTEGER_BETA_Q_CUTOFF", "NONINTEGER_BETA_Q_CUTOFF", "ConditionCheck",
                   "ScanResult", "ThresholdVerdict", "check_budget_condition",
                   "check_tail_condition", "gamma_budget", "is_integer_beta",
                   "min_guaranteed_n", "min_guaranteed_n_beta", "verdict"),
    "sk_spline": ("Cy2nVerdict", "GammaLedger", "Partition2n", "SKSplineSolution",
                  "classify_sign_pattern", "derivative_eigen", "derivative_pq",
                  "eigen_assembly", "lambda_finite_sum", "lambda_fourier",
                  "solve_fundamental_spline", "verify_cy2n"),
    "cvd": ("DetResult", "NodeVectors", "builtin_witnesses", "cvd_witness", "det_D",
            "neumann_evaluator", "neumann_pair_evaluator"),
    "oracles": ("slow_series", "supnorm_square_conv", "theta_equation_series",
                "theta_sign_scan"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
