"""Grid quadrature, the two bases, and spectral projections."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from injop.errors import (
    AliasingGuardError,
    DimensionError,
    GridMismatchError,
    IntervalMismatchError,
)
from injop.funcspace import (
    BasisSpec,
    Grid,
    GridFunction,
    SpectralCoeffs,
    from_spectral,
    h1_distance,
    h1_gram_cholesky,
    h1_norm,
    mode_table,
    to_spectral,
)


def test_trapezoid_weights_sum_to_length():
    for a, b, m in [(0.0, 1.0, 512), (-1.0, 2.0, 129), (0.0, 1.0, 2)]:
        g = Grid(a, b, m)
        assert_allclose(g.weights.sum(), b - a, rtol=1e-14)
        assert g.weights[0] == g.weights[-1] == g.h / 2.0


def test_trapezoid_exact_on_periodic_trig():
    # On a closed uniform grid the trapezoid rule coincides with the
    # rectangle rule for periodic integrands, which integrates trig
    # polynomials below the Nyquist frequency exactly.
    g = Grid(0.0, 1.0, 512)
    f = np.cos(2 * np.pi * 7 * g.nodes) ** 2
    assert_allclose(np.sum(g.weights * f), 0.5, atol=1e-14)
    f2 = np.sin(2 * np.pi * 3 * g.nodes) * np.cos(2 * np.pi * 5 * g.nodes)
    assert_allclose(np.sum(g.weights * f2), 0.0, atol=1e-14)


def test_grid_mismatch_raises():
    f = GridFunction(Grid(0.0, 1.0, 64), np.zeros(64))
    g = GridFunction(Grid(0.0, 1.0, 65), np.zeros(65))
    with pytest.raises(GridMismatchError):
        f + g


def test_fourier_gram_is_identity():
    g = Grid(0.0, 1.0, 512)
    basis = BasisSpec("fourier", (0.0, 1.0))
    gram = mode_table(basis, g, 16).gram
    assert_allclose(gram, np.eye(16), atol=1e-12)


def test_fourier_gram_identity_on_shifted_interval():
    g = Grid(-2.0, 3.0, 640)
    basis = BasisSpec("fourier", (-2.0, 3.0))
    gram = mode_table(basis, g, 10).gram
    assert_allclose(gram, np.eye(10), atol=1e-12)


def test_step_haar_gram_exact_on_dyadic_grid():
    # size = 2^9 + 1 puts every dyadic breakpoint 2^-k on a node, so the
    # quadrature integrates the indicators without boundary error.
    g = Grid(0.0, 1.0, 513)
    basis = BasisSpec("step_haar", (0.0, 1.0))
    gram = mode_table(basis, g, 6).gram
    assert_allclose(gram, np.eye(6), atol=1e-13)


def test_step_haar_projection_on_dyadic_grid():
    g = Grid(0.0, 1.0, 513)
    basis = BasisSpec("step_haar", (0.0, 1.0))
    coeffs = np.arange(1.0, 7.0)
    back = to_spectral(from_spectral(SpectralCoeffs(basis, 6, coeffs), g), basis, 6)
    assert_allclose(back.coeffs[0], coeffs, atol=1e-12)


def test_step_haar_on_non_dyadic_grid_is_refused():
    # On 100 nodes the dyadic breakpoints miss the nodes, so the step modes
    # are not orthonormal under the quadrature (Gram defect 1/33).
    g = Grid(0.0, 1.0, 100)
    basis = BasisSpec("step_haar", (0.0, 1.0))
    with pytest.raises(AliasingGuardError, match="Gram defect 3.030e-02"):
        to_spectral(GridFunction(g, np.ones(100)), basis, 3)


def test_step_haar_supports_disjoint():
    basis = BasisSpec("step_haar", (0.0, 1.0))
    x = np.linspace(0.0, 1.0, 2049)
    phi = basis.eval_modes(x, 8)
    support_count = np.sum(phi != 0.0, axis=0)
    assert support_count.max() == 1


def test_step_haar_values_and_half_open_edges():
    basis = BasisSpec("step_haar", (0.0, 1.0))
    x = np.array([0.5, 0.75, 1.0, 0.25, 0.249])
    phi = basis.eval_modes(x, 2)
    # mode 1 lives on [1/2, 1) with height sqrt(2)
    assert_allclose(phi[0], [math.sqrt(2), math.sqrt(2), 0.0, 0.0, 0.0])
    # mode 2 lives on [1/4, 1/2) with height 2
    assert_allclose(phi[1], [0.0, 0.0, 0.0, 2.0, 0.0])


# Derived once from the antiderivatives of x, x cos(2 pi k x), and
# x sin(2 pi k x) on [0, 1]:
#   (x, 1) = 1/2,   (x, sqrt2 cos 2 pi k x) = 0,
#   (x, sqrt2 sin 2 pi k x) = -sqrt2 / (2 pi k).
_X_COEFFS_5 = [
    0.5,
    0.0,
    -math.sqrt(2.0) / (2.0 * math.pi),
    0.0,
    -math.sqrt(2.0) / (4.0 * math.pi),
]


def test_linear_function_fourier_coefficients():
    g = Grid(0.0, 1.0, 4096)
    basis = BasisSpec("fourier", (0.0, 1.0))
    f = GridFunction(g, g.nodes.copy())
    c = to_spectral(f, basis, 5)
    assert_allclose(c.coeffs[0], _X_COEFFS_5, atol=1e-6)


def test_bandlimited_round_trip_and_parseval():
    g = Grid(0.0, 1.0, 512)
    basis = BasisSpec("fourier", (0.0, 1.0))
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal((2, 9))
    f = from_spectral(SpectralCoeffs(basis, 9, coeffs), g)
    back = to_spectral(f, basis, 9)
    assert_allclose(back.coeffs, coeffs, atol=1e-12)
    assert_allclose(f.l2_norm(), np.linalg.norm(coeffs), rtol=1e-12)
    assert_allclose(back.l2_norm(), np.linalg.norm(coeffs), rtol=1e-12)


def test_aliasing_guard():
    g = Grid(0.0, 1.0, 63)
    basis = BasisSpec("fourier", (0.0, 1.0))
    f = GridFunction(g, np.zeros(63))
    with pytest.raises(AliasingGuardError):
        to_spectral(f, basis, 8)


def test_interval_mismatch():
    g = Grid(0.0, 2.0, 64)
    basis = BasisSpec("fourier", (0.0, 1.0))
    with pytest.raises(IntervalMismatchError):
        basis.require_matches_grid(g)


@pytest.mark.parametrize("a, b", [(0.0, np.inf), (-np.inf, 1.0), (-np.inf, np.inf)])
def test_grid_refuses_infinite_endpoints(a, b):
    with pytest.raises(ValueError, match="grid endpoints must be finite"):
        Grid(a, b, 5)


@pytest.mark.parametrize("interval", [(0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0)])
def test_basis_refuses_non_finite_interval(interval):
    with pytest.raises(ValueError, match="basis interval must be finite"):
        BasisSpec("fourier", interval)


def test_h1_norm_of_linear_function():
    # || x ||_{H1}^2 = 1/3 + 1; the derivative part is exact for a linear
    # function, the value part carries the trapezoid's O(h^2) bias.
    g = Grid(0.0, 1.0, 512)
    expected = math.sqrt(1.0 / 3.0 + 1.0)
    assert_allclose(h1_norm(g, g.nodes), expected, rtol=1e-5)


@pytest.mark.parametrize("size", [2, 3, 65, 129, 512, 1024])
def test_h1_gram_cholesky_factors_the_h1_norm(size):
    # h1_norm(v)^2 = v^T L L^T v with L lower bidiagonal: (L^T v)_i is
    # diag_i v_i + sub_i v_{i+1}.  Rough v keep that sum free of
    # cancellation, so the two agree to rounding.
    g = Grid(-1.0, 2.0, size)
    diag, sub = h1_gram_cholesky(g)
    assert diag.shape == (size,) and sub.shape == (size - 1,)
    assert not (diag.flags.writeable or sub.flags.writeable)
    rng = np.random.default_rng(size)
    for v in rng.standard_normal((4, size)):
        lt_v = diag * v + np.append(sub * v[1:], 0.0)
        assert_allclose(np.linalg.norm(lt_v), h1_norm(g, v), rtol=2e-15, atol=0.0)


def test_h1_distance_symmetry():
    g = Grid(0.0, 1.0, 128)
    rng = np.random.default_rng(4)
    f = GridFunction(g, rng.standard_normal(128))
    h = GridFunction(g, rng.standard_normal(128))
    assert_allclose(h1_distance(f, h), h1_distance(h, f), rtol=1e-14)
    assert h1_distance(f, f) == 0.0


def test_from_callable_broadcasts_constants():
    g = Grid(0.0, 1.0, 32)
    f = GridFunction.from_callable(g, lambda x: 1.0 + 0.0 * x, lambda x: x)
    assert f.channels == 2
    assert_allclose(f.values[0], 1.0)
    assert_allclose(f.values[1], g.nodes)


def test_mode_tables_built_once_and_read_only(monkeypatch):
    calls = []
    eval_modes = BasisSpec.eval_modes

    def counting(self, x, n):
        calls.append(n)
        return eval_modes(self, x, n)

    monkeypatch.setattr(BasisSpec, "eval_modes", counting)
    g = Grid(0.0, 1.0, 776)  # a key no other test uses
    basis = BasisSpec("fourier", (0.0, 1.0))
    rng = np.random.default_rng(12)
    f = GridFunction(g, rng.standard_normal((2, 776)))
    first = to_spectral(f, basis, 7)
    from_spectral(first, g)
    mode_table(basis, g, 7).gram
    assert calls == [7]

    table = mode_table(basis, g, 7)
    for arr in (table.phi, table.analysis, table.gram):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    # Results are fresh arrays: writing to one leaves the cache intact.
    first.coeffs[:] = 0.0
    assert_allclose(to_spectral(f, basis, 7).coeffs, f.values @ table.analysis, atol=0)
    assert calls == [7]


def test_batched_transforms_match_single_functions():
    g = Grid(0.0, 1.0, 256)
    basis = BasisSpec("fourier", (0.0, 1.0))
    rng = np.random.default_rng(13)
    coeffs = rng.standard_normal((5, 2, 9))
    batch = from_spectral(SpectralCoeffs(basis, 9, coeffs), g)
    assert batch.values.shape == (5, 2, 256) and batch.channels == 2
    back = to_spectral(batch, basis, 9)
    for b in range(5):
        single = from_spectral(SpectralCoeffs(basis, 9, coeffs[b]), g)
        assert_allclose(batch.values[b], single.values, atol=1e-12)
        assert_allclose(back.coeffs[b], to_spectral(single, basis, 9).coeffs, atol=1e-12)
    with pytest.raises(DimensionError):
        GridFunction(g, np.zeros((1, 5, 2, 256)))
