"""Finite-rank integral neural operators: construction, injectivity
certification, injective lifting, and inversion of nonlinear integral
operator layers."""

from .errors import (
    AliasingGuardError,
    DegenerateWitnessError,
    DimensionError,
    DivergenceError,
    GridMismatchError,
    IllConditionedError,
    InjopError,
    IntervalMismatchError,
    NotDifferentiableError,
    OutOfBasinError,
    ReductionVerificationError,
    SingularOperatorError,
    UsageError,
)
from .funcspace import (
    BasisSpec,
    Grid,
    GridFunction,
    SpectralCoeffs,
    from_spectral,
    h1_distance,
    h1_norm,
    l2_norm,
    to_spectral,
)
from .finite_rank import (
    Activation,
    FiniteRankLayer,
    FiniteRankNetwork,
    apply_affine,
    apply_finite_rank,
    apply_layer,
    apply_network,
    block_matrix,
    blocks_from_matrix,
    stack_coeffs,
    truncate_kernel,
    unstack_coeffs,
    zero_bias,
)
from .certify import (
    CertReport,
    certify_bijective_activation,
    certify_relu_dss,
    verify_collision,
)
from .reduction import (
    LiftResult,
    ProjectionPair,
    ReductionMap,
    build_projection_pair,
    build_reduction_explicit,
    build_reduction_randomized,
    check_reduction_dimensions,
    lift_to_injective,
)
from .nonlin import (
    CoercivityReport,
    FactorizedFrechet,
    InversionTrace,
    LinearTableKernel,
    NonlinearIntegralOperator,
    SigmoidSumKernel,
    SoftmaxAttentionKernel,
    VolterraKernel,
    WireKernel,
    estimate_coercivity,
    estimate_contraction,
    frechet_derivative,
    invert_banach,
    linearize,
)
from .atlas import (
    Anchor,
    Atlas,
    build_atlas,
    cell_key,
    compose_cell_masks,
    global_invert,
    local_invert,
    mask_apply,
)

__version__ = "0.1.0"
