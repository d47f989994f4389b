"""Finite-rank integral neural operators: construction, injectivity
certification, injective lifting, and inversion of nonlinear integral
operator layers.

Importing the package loads none of its modules: each public name, and
each module, is loaded on first use (PEP 562) and then kept here.
"""

import importlib

#: Each public name, under the module that defines it.
_EXPORTS = {
    "errors": (
        "AliasingGuardError", "DegenerateWitnessError", "DimensionError", "DivergenceError",
        "GridMismatchError", "IllConditionedError", "InjopError", "IntervalMismatchError",
        "NotDifferentiableError", "OutOfBasinError", "ReductionVerificationError",
        "SingularOperatorError", "UsageError"),
    "funcspace": (
        "BasisSpec", "Grid", "GridFunction", "SpectralCoeffs", "from_spectral", "h1_distance",
        "h1_norm", "l2_norm", "to_spectral"),
    "finite_rank": (
        "Activation", "FiniteRankLayer", "FiniteRankNetwork", "apply_affine",
        "apply_finite_rank", "apply_layer", "apply_network", "block_matrix", "truncate_kernel",
        "zero_bias"),
    "certify": (
        "CertReport", "certify_bijective_activation", "certify_relu_dss", "verify_collision"),
    "reduction": (
        "LiftResult", "ProjectionPair", "ReductionMap", "build_projection_pair",
        "build_reduction_explicit", "build_reduction_randomized", "check_reduction_dimensions",
        "lift_to_injective"),
    "nonlin": (
        "CoercivityReport", "FactorizedFrechet", "InversionTrace", "LinearTableKernel",
        "NonlinearIntegralOperator", "SigmoidSumKernel", "SoftmaxAttentionKernel",
        "VolterraKernel", "WireKernel", "estimate_coercivity", "estimate_contraction",
        "frechet_derivative", "invert_banach", "linearize"),
    "atlas": (
        "Anchor", "Atlas", "build_atlas", "cell_key", "compose_cell_masks", "global_invert",
        "local_invert", "mask_apply"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

#: The module that loads each name: a public name's home, or the module itself.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_HOME.update((module, module) for module in (*_EXPORTS, "serialize", "cli"))

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    value = globals()[name] = module if name == _HOME[name] else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
