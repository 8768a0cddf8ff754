"""Brascamp-Lieb and reversed Brascamp-Lieb constants via Gaussian fixed points.

The optimal constant in both inequalities is attained on centered Gaussians.
The optimal covariance solves a fixed-point equation, the stationarity
condition of a geodesically concave log-det objective, and `solve` finds it
by Newton steps in that geometry. Everything the solver claims can be
re-checked inside the package: determinant inequalities on random Gaussian
inputs, low-dimensional quadrature of the actual integrals, and Monte Carlo
of the variational formula for log-moment generating functions.
"""

from .datum import (
    BLDatum,
    DatumDiagnostics,
    DatumError,
    LinearFactor,
    datum_digest,
    datum_from_dict,
    datum_to_dict,
    direct_sum,
    is_frame,
    load_datum,
    make_datum,
    save_datum,
    validate,
)
from .gaussian_solver import (
    ConvergenceError,
    SolveResult,
    direct_extremizers,
    fp_map,
    grad_logdet,
    reverse_extremizers,
    solve,
)
from .gaussian_verify import (
    dual_check,
    gaussian_constant_search,
    sample_spd_stack,
    sample_tuple,
    sweep_direct,
    sweep_dual,
    sweep_reverse,
)
from .functional_verify import (
    GridFunction,
    box_function,
    bump_function,
    direct_integral_check,
    gaussian_function,
    integrate,
    reverse_integral_check,
    sup_convolution,
)
from .quadform import check_inf, harmonic_combine, inf_decomposition
from .report import VerificationReport
from .stochastic import (
    BrownianConfig,
    DriftPolicy,
    builtin_suite,
    closed_form_linear,
    closed_form_quadratic,
    drift_value,
    linear_g,
    mc_log_mgf,
    quadratic_g,
    terminal_points,
)
from .structure import (
    SplitResult,
    Subspace,
    coordinate_subspaces,
    is_critical,
    multiplicativity_check,
    quotient,
    restrict,
)
from .young import (
    YoungExponents,
    beckner_constant,
    closed_form_A,
    conjugate,
    constant_from_cs,
    datum_from_exponents,
)

__version__ = "0.1.0"

__all__ = [
    "BLDatum",
    "BrownianConfig",
    "ConvergenceError",
    "DatumDiagnostics",
    "DatumError",
    "DriftPolicy",
    "GridFunction",
    "LinearFactor",
    "SolveResult",
    "SplitResult",
    "Subspace",
    "VerificationReport",
    "YoungExponents",
    "beckner_constant",
    "box_function",
    "builtin_suite",
    "bump_function",
    "check_inf",
    "closed_form_A",
    "closed_form_linear",
    "closed_form_quadratic",
    "conjugate",
    "constant_from_cs",
    "coordinate_subspaces",
    "datum_digest",
    "datum_from_dict",
    "datum_from_exponents",
    "datum_to_dict",
    "direct_extremizers",
    "direct_integral_check",
    "direct_sum",
    "drift_value",
    "dual_check",
    "fp_map",
    "gaussian_constant_search",
    "gaussian_function",
    "grad_logdet",
    "harmonic_combine",
    "inf_decomposition",
    "integrate",
    "is_critical",
    "is_frame",
    "linear_g",
    "load_datum",
    "make_datum",
    "mc_log_mgf",
    "multiplicativity_check",
    "quadratic_g",
    "quotient",
    "restrict",
    "reverse_extremizers",
    "reverse_integral_check",
    "sample_spd_stack",
    "sample_tuple",
    "save_datum",
    "solve",
    "sup_convolution",
    "sweep_direct",
    "sweep_dual",
    "sweep_reverse",
    "terminal_points",
    "validate",
]
