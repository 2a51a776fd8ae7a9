"""Optimal reduced bases for discretized PDE solution operators.

The package computes weighted SVD bases of solution operators G = L^{-1}
by a randomized sketch that only touches L through sparse solves, provides
brute-force oracles for the optimality theory behind those bases, and
ships the two multiscale model problems (elliptic diffusion and radiative
transport) the experiments run on.
"""

from .basis import (
    RsvdParams,
    SVDBasis,
    compute_basis,
    defining_relation_errors,
    dense_svd_oracle,
)
from .bayes import (
    check_equivalence,
    check_reconstruction_bound,
    nwidth_eval,
    posterior,
    trace_objective,
)
from .config import ExperimentConfig, config_from_dict, config_to_dict, load_config
from .elliptic import EllipticMedium, assemble_elliptic, eval_source_elliptic, kappa
from .exceptions import (
    BoundViolation,
    ConfigInvalid,
    DimensionMismatch,
    Diverged,
    OptbasisError,
    OrderTooHigh,
    ProblemTooLarge,
    RankDeficient,
    RankDeficientWarning,
    RankExhausted,
    SidecarMismatch,
    SingularOperator,
    SingularTheta,
    SvdFailure,
)
from .experiments import (
    ErrorCurve,
    ProblemSetup,
    build_problem,
    error_curve,
    nonlinear_error_curve,
    reference_solution,
    solve_linear_projection,
)
from .grids import Grid2D, PhaseGrid
from .linalg import FactorizedSolver, factorize, qr_thin, svd_dense
from .nonlinear import (
    CubicTerm,
    FixedPointResult,
    TwoPhotonTerm,
    ZeroTerm,
    check_linear_representation_bound,
    error_indicators,
    fixed_point_solve,
    newton_reference,
    project_onto_span,
)
from .obf import read_basis, write_basis
from .transport import (
    RteCoefficients,
    assemble_rte,
    eval_source_rte,
    hg_kernel_matrix,
    sigma_a,
    sigma_b,
    sigma_s,
)
from .weights import (
    build_rte_weight,
    build_sobolev_weight,
    energy_norm,
    fd_operator_1d,
    fd_operator_2d,
    identity_weight,
    sobolev_gram_matrix,
)

__version__ = "0.1.0"
