"""Sharp norm bounds for Cauchy-wavelet localization operators.

The library computes the optimal operator-norm bound for localization
operators whose weight is constrained in two Lebesgue norms on the
hyperbolic upper half-plane, classifies which constraint binds,
reconstructs the extremal weights, and checks everything against two
independent numerical oracles: a discrete variational solver, and the
operator norm of the extremal weight, computed exactly from its radial
profile (or, on request, by power iteration on a transform grid).
"""

from .core import (
    FOUR_PI,
    DerivedConstants,
    ParameterError,
    ProblemParams,
    QuadratureError,
    Regime,
    RegimeError,
    canonical_order,
    classify_regime,
    derive_constants,
    g_eval,
    g_prime,
)
from .closed_form import (
    RadialProfile,
    SingleConstraintResult,
    disc_measure,
    distribution_of_profile,
    single_bound,
    single_profile,
    verify_moment_identities,
)
from .solver import (
    BoundReport,
    Multipliers,
    SolverError,
    bound_integral,
    compute_bound,
    find_T,
    moment,
    multipliers,
    solve_multipliers,
    u_eval,
)
from .weight import (
    ExtremalWeight,
    HalfPlanePoint,
    eval_weight,
    measured_distribution,
    pseudo_hyperbolic,
    psi_inverse,
    radial_operator_norm,
    weight_from_report,
    weight_norms,
)
from .oracle import (
    DiscreteProblem,
    DiscreteSolution,
    OracleError,
    check_monotone_restoration,
    run_oracle,
    solve_discrete,
)
from .verifier import (
    CauchyTransform,
    FrequencyGrid,
    PlaneGrid,
    PowerIterationResult,
    VerificationReport,
    cauchy_wavelet_hat,
    operator_norm,
    run_verification,
)

__version__ = "0.1.0"
