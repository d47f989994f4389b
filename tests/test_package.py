"""The package's public surface: every name it exported when it imported
all its modules eagerly is still there, now loaded on first use."""

import importlib
import os
import subprocess
import sys

import pytest

import injop

#: The public names of ``injop``, in order, under the module that defines each.
SURFACE = {
    "errors": [
        "AliasingGuardError", "DegenerateWitnessError", "DimensionError", "DivergenceError",
        "GridMismatchError", "IllConditionedError", "InjopError", "IntervalMismatchError",
        "NotDifferentiableError", "OutOfBasinError", "ReductionVerificationError",
        "SingularOperatorError", "UsageError"],
    "funcspace": [
        "BasisSpec", "Grid", "GridFunction", "SpectralCoeffs", "from_spectral", "h1_distance",
        "h1_norm", "l2_norm", "to_spectral"],
    "finite_rank": [
        "Activation", "FiniteRankLayer", "FiniteRankNetwork", "apply_affine",
        "apply_finite_rank", "apply_layer", "apply_network", "block_matrix", "truncate_kernel",
        "zero_bias"],
    "certify": [
        "CertReport", "certify_bijective_activation", "certify_relu_dss", "verify_collision"],
    "reduction": [
        "LiftResult", "ProjectionPair", "ReductionMap", "build_projection_pair",
        "build_reduction_explicit", "build_reduction_randomized", "check_reduction_dimensions",
        "lift_to_injective"],
    "nonlin": [
        "CoercivityReport", "FactorizedFrechet", "InversionTrace", "LinearTableKernel",
        "NonlinearIntegralOperator", "SigmoidSumKernel", "SoftmaxAttentionKernel",
        "VolterraKernel", "WireKernel", "estimate_coercivity", "estimate_contraction",
        "frechet_derivative", "invert_banach", "linearize"],
    "atlas": [
        "Anchor", "Atlas", "build_atlas", "cell_key", "compose_cell_masks", "global_invert",
        "local_invert", "mask_apply"],
}
NAMES = [name for names in SURFACE.values() for name in names]
MODULES = [*SURFACE, "serialize", "cli"]


@pytest.mark.parametrize("module, name", [(m, n) for m, names in SURFACE.items() for n in names])
def test_name_is_its_home_module_attribute(module, name):
    home = getattr(importlib.import_module(f"injop.{module}"), name)
    namespace = {}
    exec(f"from injop import {name}", namespace)
    assert namespace[name] is home
    assert getattr(injop, name) is home


def test_all_and_dir_list_the_surface():
    assert injop.__all__ == NAMES
    assert set(NAMES + MODULES) <= set(dir(injop))


def test_star_import_binds_the_surface():
    namespace = {}
    exec("from injop import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)


@pytest.mark.parametrize("module", MODULES)
def test_modules_are_attributes(module):
    assert getattr(injop, module) is importlib.import_module(f"injop.{module}")


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        injop.no_such_name
    assert not hasattr(injop, "no_such_name")


def test_a_module_loads_on_first_use():
    # In a fresh interpreter: the package alone loads no module, and reading
    # a module through it loads that module.
    script = ("import sys, injop\n"
              "before = [m for m in sys.modules if m.startswith('injop.')]\n"
              "assert before == [], before\n"
              "assert callable(injop.nonlin.invert_banach)\n"
              "assert 'injop.nonlin' in sys.modules\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(injop.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
