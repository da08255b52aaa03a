"""Exact Kolmogorov widths of Neumann-kernel convolution classes.

Series evaluators with certified tails, the theta-equation width formula,
sufficient-condition thresholds, SK-spline sign-condition machinery, a
variation-diminishing determinant test, and brute-force oracles backing the
whole stack.
"""

from .errors import (BracketFailure, DomainError, NeumannWidthsError, NotFound,
                     SignDegenerate, SingularSystem, TolUnreachable, UnderflowLimit)
from .kernels import (DEFAULT_POLICY, EvalPolicy, KernelSpec, NeumannParams,
                      eval_bernoulli, eval_gq, eval_hq, eval_neumann,
                      eval_neumann_pair, eval_pq, eval_pq_theta, eval_psi_beta,
                      eval_psi_beta1, pq_floor)
from .widths import (Branch, ThetaRoot, WidthReport, conv_square_wave,
                     exact_width, solve_theta, theta_cos_bound,
                     theta_equation_lhs)
from .thresholds import (INTEGER_BETA_Q_CUTOFF, NONINTEGER_BETA_Q_CUTOFF,
                         ConditionCheck, ScanResult, ThresholdVerdict,
                         check_budget_condition, check_tail_condition,
                         gamma_budget, is_integer_beta, min_guaranteed_n,
                         min_guaranteed_n_beta, verdict)
from .sk_spline import (Cy2nVerdict, EigenValue, GammaLedger, Partition2n,
                        SKSplineSolution, classify_sign_pattern,
                        derivative_eigen, derivative_pq, eigen_assembly,
                        lambda_finite_sum, lambda_fourier,
                        solve_fundamental_spline, verify_cy2n)
from .cvd import (DetResult, NodeVectors, builtin_witnesses, cvd_witness,
                  det_D, neumann_evaluator, neumann_pair_evaluator)
from .oracles import (slow_series, supnorm_square_conv, theta_equation_series,
                      theta_sign_scan)

__all__ = [
    "BracketFailure", "DomainError", "NeumannWidthsError", "NotFound",
    "SignDegenerate", "SingularSystem", "TolUnreachable", "UnderflowLimit",
    "DEFAULT_POLICY", "EvalPolicy", "KernelSpec", "NeumannParams",
    "eval_bernoulli", "eval_gq", "eval_hq", "eval_neumann", "eval_neumann_pair",
    "eval_pq", "eval_pq_theta", "eval_psi_beta", "eval_psi_beta1", "pq_floor",
    "Branch", "ThetaRoot", "WidthReport", "conv_square_wave", "exact_width",
    "solve_theta", "theta_cos_bound", "theta_equation_lhs",
    "INTEGER_BETA_Q_CUTOFF", "NONINTEGER_BETA_Q_CUTOFF", "ConditionCheck",
    "ScanResult", "ThresholdVerdict", "check_budget_condition",
    "check_tail_condition", "gamma_budget", "is_integer_beta",
    "min_guaranteed_n", "min_guaranteed_n_beta", "verdict",
    "Cy2nVerdict", "EigenValue", "GammaLedger", "Partition2n",
    "SKSplineSolution", "classify_sign_pattern", "derivative_eigen",
    "derivative_pq", "eigen_assembly", "lambda_finite_sum", "lambda_fourier",
    "solve_fundamental_spline", "verify_cy2n",
    "DetResult", "NodeVectors", "builtin_witnesses", "cvd_witness", "det_D",
    "neumann_evaluator", "neumann_pair_evaluator",
    "slow_series", "supnorm_square_conv", "theta_equation_series",
    "theta_sign_scan",
]

__version__ = "0.1.0"
