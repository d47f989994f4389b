"""Nonlinear integral operators: quadrature, fixed points, linearization."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from injop.errors import (
    DimensionError,
    DivergenceError,
    GridMismatchError,
    NotDifferentiableError,
    SingularOperatorError,
)
from injop.funcspace import BasisSpec, Grid, GridFunction, SpectralCoeffs, from_spectral
from injop.nonlin import (
    FactorizedFrechet,
    LinearTableKernel,
    NonlinearIntegralOperator,
    SigmoidSumKernel,
    SoftmaxAttentionKernel,
    VolterraKernel,
    WireKernel,
    causal_trapezoid_weights,
    estimate_coercivity,
    estimate_contraction,
    frechet_derivative,
    invert_banach,
    solve_frechet,
)

GRID = Grid(0.0, 1.0, 201)


class TestQuadrature:
    def test_causal_weights_integrate_constants(self):
        w = causal_trapezoid_weights(GRID)
        assert_allclose(w.sum(axis=1), GRID.nodes - GRID.a, atol=1e-13)

    def test_causal_weights_strictly_upper_zero(self):
        w = causal_trapezoid_weights(GRID)
        assert np.all(w[np.triu_indices(GRID.size, k=1)] == 0.0)
        assert np.all(w[0] == 0.0)
        h = GRID.h
        for i in (1, 50, 200):
            assert w[i, 0] == h / 2.0
            assert w[i, i] == h / 2.0
            if i > 1:
                assert_allclose(w[i, 1:i], h)

    def test_volterra_integrates_linear_exactly(self):
        # Row-wise trapezoid rules are exact on polynomials of degree one,
        # so F(u) = u + int_0^x u dy applied to u = y has closed form
        # y + y^2 / 2 with no quadrature error.
        op = NonlinearIntegralOperator(GRID, VolterraKernel())
        u = GridFunction(GRID, GRID.nodes.copy())
        out = op.apply(u)
        assert_allclose(out.values[0], GRID.nodes + GRID.nodes**2 / 2.0, atol=1e-14)


class TestOperator:
    def test_multiplier_validation(self):
        with pytest.raises(ValueError):
            NonlinearIntegralOperator(GRID, VolterraKernel(), w=0.0)
        with pytest.raises(DimensionError):
            NonlinearIntegralOperator(GRID, VolterraKernel(), w=np.ones(7))

    def test_grid_and_channel_checks(self):
        op = NonlinearIntegralOperator(GRID, VolterraKernel())
        with pytest.raises(GridMismatchError):
            op.apply(GridFunction(Grid(0.0, 1.0, 17), np.zeros(17)))
        attn = NonlinearIntegralOperator(
            GRID, SoftmaxAttentionKernel(np.eye(2), np.eye(2))
        )
        with pytest.raises(DimensionError):
            attn.apply(GridFunction(GRID, np.zeros(GRID.size)))

    def test_dense_parameter_must_fit_the_grid(self):
        m = GRID.size
        with pytest.raises(DimensionError, match=r"shape \(1, 2\)"):
            NonlinearIntegralOperator(GRID, VolterraKernel(np.ones((1, 2))))
        with pytest.raises(DimensionError, match="does not broadcast"):
            NonlinearIntegralOperator(
                GRID, SigmoidSumKernel([(0.1, np.ones((1, m, m)), 0.0)], signature="u(y)")
            )
        for shape in [(m, m), (1, m), (m, 1), (m,)]:
            NonlinearIntegralOperator(GRID, LinearTableKernel(np.ones(shape)))

    def test_linear_table_matches_matrix(self):
        rng = np.random.default_rng(61)
        table = rng.standard_normal((GRID.size, GRID.size))
        op = NonlinearIntegralOperator(GRID, LinearTableKernel(lambda x, y: table), w=2.0)
        u = GridFunction(GRID, rng.standard_normal(GRID.size))
        expected = 2.0 * u.values[0] + table @ (GRID.weights * u.values[0])
        assert_allclose(op.apply(u).values[0], expected, atol=1e-12)

    def test_attention_weights_normalized(self):
        rng = np.random.default_rng(62)
        kern = SoftmaxAttentionKernel([[1.0]], [[1.0]])
        u_vals = rng.standard_normal((1, GRID.size))
        weights = kern.weights_on_grid(GRID, u_vals)
        assert_allclose(GRID.weights @ weights, np.ones(GRID.size), atol=1e-12)

    def test_attention_on_constant_input(self):
        # Constant input makes the scores flat, the weight table uniform,
        # and the kernel part the plain average of u.
        kern = SoftmaxAttentionKernel([[1.0]], [[1.0]])
        op = NonlinearIntegralOperator(GRID, kern)
        u = GridFunction(GRID, np.full((1, GRID.size), 3.0))
        assert_allclose(op.apply(u).values[0], 6.0, atol=1e-12)


class TestBanach:
    def test_contraction_round_trip(self):
        kern = SigmoidSumKernel([(0.3, 1.0, 0.0)], signature="u(y)")
        op = NonlinearIntegralOperator(GRID, kern, w=1.0)
        rng = np.random.default_rng(63)
        u_true = GridFunction(GRID, np.cumsum(rng.standard_normal(GRID.size)) * 0.05)
        z = op.apply(u_true)
        u, trace = invert_banach(op, z, tol=1e-12, max_iter=100)
        assert trace.converged
        gap = np.sqrt(np.sum(GRID.weights * (u.values - u_true.values) ** 2))
        assert gap <= 1e-10
        rho = estimate_contraction(op)
        assert all(r <= rho + 0.05 for r in trace.ratios[:-1])

    def test_bias_is_subtracted(self):
        kern = SigmoidSumKernel([(0.2, 1.0, 0.0)], signature="u(y)")
        bias = GridFunction(GRID, np.sin(2 * np.pi * GRID.nodes))
        op = NonlinearIntegralOperator(GRID, kern, w=1.0, bias=bias)
        u_true = GridFunction(GRID, np.cos(2 * np.pi * GRID.nodes))
        z = op.apply(u_true)
        u, trace = invert_banach(op, z, tol=1e-12)
        assert trace.converged
        assert_allclose(u.values, u_true.values, atol=1e-10)

    def test_divergence_raises_with_trace(self):
        # A constant kernel of size 3 makes the fixed-point map expand the
        # constant mode by a factor of 3 each sweep.
        op = NonlinearIntegralOperator(GRID, LinearTableKernel(3.0))
        z = GridFunction(GRID, np.ones(GRID.size))
        with pytest.raises(DivergenceError) as err:
            invert_banach(op, z, tol=1e-12, max_iter=100)
        trace = err.value.trace
        assert trace is not None and not trace.converged
        assert all(r > 1.0 for r in trace.ratios[-5:])

    def test_non_finite_target_stops_at_once(self):
        kern = SigmoidSumKernel([(0.3, 1.0, 0.0)], signature="u(y)")
        op = NonlinearIntegralOperator(GRID, kern)
        values = np.ones(GRID.size)
        values[17] = np.nan
        with pytest.raises(DivergenceError, match="non-finite residual at iteration 1") as err:
            invert_banach(op, GridFunction(GRID, values), tol=1e-12, max_iter=100)
        trace = err.value.trace
        assert trace is not None and not trace.converged
        assert trace.residuals_l2 == [] and trace.rows() == []

    def test_trace_rows_pair_ratios(self):
        kern = SigmoidSumKernel([(0.3, 1.0, 0.0)], signature="u(y)")
        op = NonlinearIntegralOperator(GRID, kern)
        z = op.apply(GridFunction(GRID, np.ones(GRID.size)))
        _, trace = invert_banach(op, z, tol=1e-12)
        rows = trace.rows()
        assert rows[0][3] is None
        assert rows[1][3] == trace.ratios[0]
        assert [r[0] for r in rows] == list(range(1, trace.iterations + 1))


class TestFrechet:
    def test_linear_kernel_derivative_is_exact(self):
        rng = np.random.default_rng(64)
        table = rng.standard_normal((GRID.size, GRID.size))
        op = NonlinearIntegralOperator(GRID, LinearTableKernel(lambda x, y: table), w=1.5)
        u0 = GridFunction(GRID, rng.standard_normal(GRID.size))
        a = frechet_derivative(op, u0)
        v = rng.standard_normal(GRID.size)
        lhs = op.apply(GridFunction(GRID, u0.values[0] + v)).values[0]
        rhs = op.apply(u0).values[0] + a @ v
        assert_allclose(lhs, rhs, atol=1e-10)

    @pytest.mark.parametrize("kernel", [
        SigmoidSumKernel([(0.7, 2.0, 0.3)], signature="u(y)"),
        WireKernel(3.0, [(0.5, 1.0, 0.1)], signature="u(y)"),
        VolterraKernel(nonlinearity="sigmoid"),
    ])
    def test_finite_difference_agreement(self, kernel):
        rng = np.random.default_rng(65)
        op = NonlinearIntegralOperator(GRID, kernel, w=1.0)
        u0 = GridFunction(GRID, 0.3 * np.sin(2 * np.pi * GRID.nodes))
        a = frechet_derivative(op, u0)
        v = rng.standard_normal(GRID.size)
        h = 1e-5
        up = op.apply(GridFunction(GRID, u0.values[0] + h * v)).values[0]
        dn = op.apply(GridFunction(GRID, u0.values[0] - h * v)).values[0]
        fd = (up - dn) / (2.0 * h)
        err = np.max(np.abs(fd - a @ v)) / max(1.0, np.max(np.abs(a @ v)))
        assert err <= 1e-6

    def test_ux_kernels_not_differentiable(self):
        op = NonlinearIntegralOperator(
            GRID, SigmoidSumKernel([(0.5, 1.0, 0.0)], signature="u(x)")
        )
        u0 = GridFunction(GRID, np.zeros(GRID.size))
        with pytest.raises(NotDifferentiableError):
            frechet_derivative(op, u0)
        attn = NonlinearIntegralOperator(GRID, SoftmaxAttentionKernel([[1.0]], [[1.0]]))
        with pytest.raises(NotDifferentiableError):
            frechet_derivative(attn, u0)

    def test_singular_matrix_rejected(self):
        mat = np.ones((4, 4))
        with pytest.raises(SingularOperatorError):
            FactorizedFrechet(mat)

    def test_solve_round_trip(self):
        rng = np.random.default_rng(66)
        a = rng.standard_normal((30, 30)) + 5.0 * np.eye(30)
        g = Grid(0.0, 1.0, 30)
        rhs = GridFunction(g, rng.standard_normal(30))
        w = solve_frechet(a, rhs)
        assert_allclose(a @ w.values[0], rhs.values[0], atol=1e-10)


class TestEstimators:
    def test_contraction_of_rank_one_kernel(self):
        # K(u) = c * int u has operator norm exactly c on [0, 1]; the
        # deterministic probe pairs include the constant mode, so the
        # sampled constant hits it.
        op = NonlinearIntegralOperator(GRID, LinearTableKernel(0.4))
        rho = estimate_contraction(op)
        assert rho == pytest.approx(0.4, abs=1e-8)

    def test_coercivity_slope_for_sigmoid_sum(self):
        kern = SigmoidSumKernel([(0.2, 1.0, 0.0)], signature="u(y)")
        op = NonlinearIntegralOperator(GRID, kern, w=1.0)
        report = estimate_coercivity(op, alpha=1.0, n_rays=8)
        assert report.analytic_condition_ok
        assert report.analytic_slope == pytest.approx(0.8, abs=1e-12)
        assert report.min_values.shape == report.radii.shape
        # Every probed value sits above the guaranteed ray lower bound.
        lower = report.analytic_slope * report.radii - 1e-8
        assert np.all(report.min_values >= lower)
        assert report.half_slope_threshold_radius == report.radii[0]

    def test_coercivity_flags_violated_condition(self):
        kern = SigmoidSumKernel([(5.0, 1.0, 0.0)], signature="u(y)")
        op = NonlinearIntegralOperator(GRID, kern, w=1.0)
        report = estimate_coercivity(op, alpha=1.0, n_rays=4)
        assert report.analytic_condition_ok is False


def _reference_contraction(op, seed):
    """The sampled Lipschitz constant one pair at a time, evaluating K at
    both points of every pair: the oracle for the array version."""
    grid = op.grid
    basis = BasisSpec("fourier", (grid.a, grid.b))
    n_modes = min(16, grid.size // 8)
    rng = np.random.default_rng(seed)
    ch = op.channels

    def smooth(coeffs):
        return from_spectral(SpectralCoeffs(basis, n_modes, coeffs), grid)

    base_points = [GridFunction(grid, np.zeros((ch, grid.size)))]
    base_points.append(smooth(rng.standard_normal((ch, n_modes)) * (2.0 / 8.0)))
    pairs = []
    for base in base_points:
        for k in range(n_modes):
            coeffs = np.zeros((ch, n_modes))
            coeffs[:, k] = 1.0
            probe = smooth(coeffs)
            for delta in (1e-3, 1.0):
                pairs.append((base, base + delta * probe))
    while len(pairs) < 64:
        u = smooth(rng.standard_normal((ch, n_modes)) * (2.0 / 4.0))
        v = smooth(rng.standard_normal((ch, n_modes)) * (2.0 / 4.0))
        pairs.append((u, v))
    rho = 0.0
    for u, v in pairs:
        gap = (u - v).l2_norm()
        if gap <= 1e-14:
            continue
        ku = op.kernel_part(u).values / op.w_values
        kv = op.kernel_part(v).values / op.w_values
        out_gap = float(np.sqrt(np.sum(grid.weights * (ku - kv) ** 2)))
        rho = max(rho, out_gap / gap)
    return rho


def _reference_coercivity_values(op, alpha, n_rays, seed):
    """Ray probe values one ray at a time (the array version's oracle)."""
    grid = op.grid
    radii = np.geomspace(1.0, 1000.0, 13)
    rng = np.random.default_rng(seed)
    basis = BasisSpec("fourier", (grid.a, grid.b))
    n_modes = min(16, grid.size // 8)
    values = np.empty((n_rays, radii.size))
    for d in range(n_rays):
        coeffs = rng.standard_normal((op.channels, n_modes))
        direction = from_spectral(SpectralCoeffs(basis, n_modes, coeffs), grid)
        direction = GridFunction(grid, direction.values / direction.l2_norm())
        unit_sq = float(np.sum(grid.weights * direction.values**2))
        for j, r in enumerate(radii):
            ku = op.kernel_part(r * direction)
            inner = float(np.sum(grid.weights * (ku.values / op.w_values) * direction.values))
            values[d, j] = alpha * r * unit_sq + inner
    return values.min(axis=0)


@pytest.mark.parametrize("size", [64, 100, 512])
def test_estimators_match_pairwise_reference(size):
    # M = 64 and 100 have fewer than 16 probe modes, so random pairs fill
    # the sample up to 64 pairs; M = 512 uses the probe pairs alone.
    grid = Grid(0.0, 1.0, size)
    rng = np.random.default_rng(size)
    ops = [
        NonlinearIntegralOperator(
            grid, SigmoidSumKernel([(0.3, 1.0, 0.0), (0.2, -2.0, 0.5)], "u(y)"), w=2.0
        ),
        NonlinearIntegralOperator(grid, WireKernel(3.0, [(0.4, 1.0, 0.0)]), w=lambda x: 1.5 + x),
        NonlinearIntegralOperator(grid, LinearTableKernel(0.1 * rng.standard_normal((size, size)))),
        NonlinearIntegralOperator(
            grid, SoftmaxAttentionKernel(0.5 * np.eye(2), [[0.2, 0.1], [0.0, 0.3]])
        ),
    ]
    for i, op in enumerate(ops):
        assert estimate_contraction(op, seed=i) == _reference_contraction(op, i)
    if size < 512:  # the ray reference is slow at M = 512 and not size-specific
        for op in (ops[0], ops[3]):
            report = estimate_coercivity(op, alpha=1.0, n_rays=2, seed=1)
            want = _reference_coercivity_values(op, 1.0, 2, 1)
            assert report.min_values.tobytes() == want.tobytes()
