"""Nonlinear integral operators: quadrature, fixed points, linearization."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from injop.atlas import build_atlas
from injop.errors import (
    DimensionError,
    DivergenceError,
    GridMismatchError,
    NotDifferentiableError,
    OutOfBasinError,
    SingularOperatorError,
)
from injop.finite_rank import expit
from injop.funcspace import (
    BasisSpec,
    Grid,
    GridFunction,
    SpectralCoeffs,
    from_spectral,
    h1_norm,
    l2_norm,
)
from injop.nonlin import (
    DIVERGENCE_PATIENCE,
    FRECHET_SINGULAR_TOL,
    FactorizedFrechet,
    InversionTrace,
    KernelBase,
    LinearTableKernel,
    NonlinearIntegralOperator,
    RidgeKernel,
    SigmoidSumKernel,
    SoftmaxAttentionKernel,
    VolterraKernel,
    WireKernel,
    estimate_coercivity,
    estimate_contraction,
    frechet_derivative,
    invert_banach,
    linearize,
    quad_weights,
    trapezoid,
)

GRID = Grid(0.0, 1.0, 201)


def _loop_causal_weights(grid):
    """Causal trapezoid table built row by row: row i holds the weights
    over [a, x_i].  The reference for the closed-form table."""
    m = grid.size
    h = grid.h
    w = np.zeros((m, m))
    for i in range(1, m):
        w[i, : i + 1] = h
        w[i, 0] = h / 2.0
        w[i, i] = h / 2.0
    return w


class TestQuadrature:
    def test_causal_quad_weights_integrate_constants(self):
        w = quad_weights(GRID, True)
        assert_allclose(w.sum(axis=1), GRID.nodes - GRID.a, atol=1e-13)

    def test_causal_quad_weights_strictly_upper_zero(self):
        w = quad_weights(GRID, True)
        assert np.all(w[np.triu_indices(GRID.size, k=1)] == 0.0)
        assert np.all(w[0] == 0.0)
        h = GRID.h
        for i in (1, 50, 200):
            assert w[i, 0] == h / 2.0
            assert w[i, i] == h / 2.0
            if i > 1:
                assert_allclose(w[i, 1:i], h)

    @pytest.mark.parametrize("size", [2, 3, 64, 201, 1024])
    def test_causal_quad_weights_match_the_row_loop(self, size):
        grid = Grid(0.0, 1.0, size)
        assert quad_weights(grid, True).tobytes() == _loop_causal_weights(grid).tobytes()

    @pytest.mark.parametrize("size", [2, 3, 64, 201, 512, 1024])
    def test_causal_quad_weights_are_the_causal_trapezoid(self, size):
        # Column j of the table is the causal trapezoid of e_j, bit for bit.
        grid = Grid(0.0, 1.0, size)
        w = quad_weights(grid, True)
        assert w.flags.c_contiguous
        assert w.tobytes() == trapezoid(grid, np.eye(size), True).T.tobytes()

    def test_causal_quad_weights_are_built_per_call(self):
        first = quad_weights(GRID, True)
        first[:] = 7.0
        assert quad_weights(GRID, True).tobytes() == _loop_causal_weights(GRID).tobytes()

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_multiplier_refused(self, bad):
        field = np.ones(GRID.size)
        field[3] = bad
        for w in (bad, field, lambda x: np.where(x > 0.5, bad, 1.0)):
            with pytest.raises(ValueError, match="multiplier field w must be finite"):
                NonlinearIntegralOperator(GRID, VolterraKernel(), w=w)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_bias_refused(self, bad):
        values = np.zeros(GRID.size)
        values[-1] = bad
        with pytest.raises(ValueError, match="bias must be finite"):
            NonlinearIntegralOperator(GRID, VolterraKernel(), bias=GridFunction(GRID, values))

    @pytest.mark.parametrize("make, name", [
        (lambda: SigmoidSumKernel([(np.nan, 1.0, 0.0)], signature="u(y)"),
         "sigmoid_sum kernel term 0 parameter c"),
        (lambda: SigmoidSumKernel([(0.5, 1.0, 0.0), (0.1, np.full((1, 201), np.inf), 0.0)]),
         "sigmoid_sum kernel term 1 parameter a"),
        (lambda: WireKernel(3.0, [(0.5, 1.0, -np.inf)]), "wire kernel term 0 parameter b"),
        (lambda: WireKernel(np.nan, [(0.5, 1.0, 0.0)]), "omega"),
        # The Volterra base and the linear table are term 0's parameter c.
        (lambda: VolterraKernel(np.inf), "volterra kernel term 0 parameter c"),
        (lambda: LinearTableKernel(np.full((201, 201), np.nan)),
         "linear_table kernel term 0 parameter c"),
        (lambda: SoftmaxAttentionKernel(np.eye(2), [[1.0, 0.0], [np.nan, 1.0]]),
         "attention matrices A and B"),
    ], ids=["sigmoid_c", "sigmoid_dense_a", "wire_b", "wire_omega", "volterra_base",
            "linear_table", "attention"])
    def test_non_finite_kernel_parameter_refused(self, make, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            make()

    def test_callable_kernel_parameters_are_not_evaluated_at_build(self):
        kern = SigmoidSumKernel([(lambda x, y: np.full(np.broadcast_shapes(x.shape, y.shape),
                                                       np.nan), 1.0, 0.0)], signature="u(y)")
        NonlinearIntegralOperator(GRID, kern)

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


def _kernel_table(op, u):
    vals = u.values[0]
    s = vals[:, None] if op.kernel.uses_ux else None
    m = op.grid.size
    return np.broadcast_to(
        op.kernel.table(op.grid.nodes[:, None], op.grid.nodes[None, :], s, vals[None, :]), (m, m))


def _product_kernel_part(op, u):
    """K(u) as the full quadrature product of the broadcast kernel table:
    the reference for every kernel table."""
    m = op.grid.size
    quad = quad_weights(op.grid, op.kernel.causal)
    return (np.broadcast_to(_kernel_table(op, u), (m, m)) * quad) @ u.values[0]


#: Ridge kernels with scalar parameters; each table depends on x alone or y
#: alone, so the integral is one matvec.
SCALAR_KERNELS = {
    "sigmoid_sum_ux": lambda: SigmoidSumKernel([(0.3, 1.0, 0.0), (0.2, -2.0, 0.5)], "u(x)"),
    "sigmoid_sum_uy": lambda: SigmoidSumKernel([(0.3, 1.0, 0.0), (0.2, -2.0, 0.5)], "u(y)"),
    "wire_ux": lambda: WireKernel(3.0, [(0.4, 1.0, 0.0), (-0.2, 0.5, 0.3)], "u(x)"),
    "wire_uy": lambda: WireKernel(3.0, [(0.4, 1.0, 0.0), (-0.2, 0.5, 0.3)], "u(y)"),
    "volterra_none": lambda: VolterraKernel(0.7, "none"),
    "volterra_sigmoid": lambda: VolterraKernel(0.7, "sigmoid"),
    "volterra_sin": lambda: VolterraKernel(0.7, "sin"),
    "linear_table_scalar": lambda: LinearTableKernel(0.4),
}


def _probe_input(grid, seed):
    rng = np.random.default_rng(seed)
    return GridFunction(
        grid, 1.5 * np.sin(2 * np.pi * grid.nodes) + 0.5 * rng.standard_normal(grid.size)
    )


class TestIntegral:
    @pytest.mark.parametrize("size", [64, 512, 1024])
    @pytest.mark.parametrize("name", sorted(SCALAR_KERNELS))
    def test_scalar_kernels_match_the_product(self, name, size):
        grid = Grid(0.0, 1.0, size)
        op = NonlinearIntegralOperator(grid, SCALAR_KERNELS[name](), w=1.5)
        u = _probe_input(grid, size)
        table = _kernel_table(op, u)
        assert 0 in table.strides  # the case the matvec serves
        got = op.kernel_part(u).values[0]
        want = _product_kernel_part(op, u)
        # Rounding is relative to the integral of |k u|: a u(y) kernel's
        # K(u) is one sum over y, and it may cancel far below its terms.
        quad = quad_weights(grid, op.kernel.causal)
        scale = (np.abs(np.broadcast_to(table, (size, size))) * quad) @ np.abs(u.values[0])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(scale)

    @pytest.mark.parametrize(
        "make",
        [
            lambda m, rng: LinearTableKernel(rng.standard_normal((m, m))),
            lambda m, rng: SigmoidSumKernel(
                [(lambda x, y: 0.3 * np.cos(x - y), 1.0, 0.0)], "u(y)"
            ),
            lambda m, rng: SigmoidSumKernel([(rng.standard_normal((m, 1)), 1.0, 0.0)], "u(y)"),
        ],
        ids=["dense_linear_table", "callable_c", "column_c_on_uy"],
    )
    def test_dense_tables_keep_the_product_bit_for_bit(self, make):
        grid = Grid(0.0, 1.0, 64)
        op = NonlinearIntegralOperator(grid, make(grid.size, np.random.default_rng(5)))
        u = _probe_input(grid, 6)
        assert op.kernel_part(u).values[0].tobytes() == _product_kernel_part(op, u).tobytes()

    @staticmethod
    def _kernel_part_peak(kernel, m):
        """Peak bytes traced while building an operator on an m-node grid
        and taking one kernel_part."""
        grid = Grid(0.0, 1.0, m)
        u = _probe_input(grid, 7)
        tracemalloc.start()
        try:
            op = NonlinearIntegralOperator(grid, kernel)
            op.kernel_part(u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_scalar_kernel_allocates_no_grid_table(self):
        # An M x M table, for the product or for the quadrature weights,
        # takes 32 MB at M = 2048.
        m = 2048
        peak = self._kernel_part_peak(SigmoidSumKernel([(0.3, 1.0, 0.0)], "u(y)"), m)
        assert peak < m * m * 8 / 4

    def test_volterra_kernel_allocates_no_grid_table(self):
        # The causal integral of a y-only table is a running sum: neither
        # the operator nor the integral builds the causal weight table.
        m = 2048
        peak = self._kernel_part_peak(VolterraKernel(0.7, "sigmoid"), m)
        assert peak < m * m * 8 / 4

    @pytest.mark.parametrize("make", [
        lambda m, rng: VolterraKernel(rng.standard_normal((m, m)), "sigmoid"),
        lambda m, rng: VolterraKernel(lambda x, y: 0.5 * np.cos(x - y), "none"),
    ], ids=["dense_base_sigmoid", "callable_base"])
    @pytest.mark.parametrize("size", [64, 201])
    def test_dense_volterra_is_the_loop_table_product(self, make, size):
        grid = Grid(0.0, 1.0, size)
        op = NonlinearIntegralOperator(grid, make(size, np.random.default_rng(11)))
        u = _probe_input(grid, 12)
        table = np.broadcast_to(_kernel_table(op, u), (size, size))
        want = (table * _loop_causal_weights(grid)) @ u.values[0]
        assert op.kernel_part(u).values[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("make", [
        SCALAR_KERNELS["sigmoid_sum_uy"], SCALAR_KERNELS["wire_ux"],
        lambda: LinearTableKernel(np.eye(64)), lambda: SoftmaxAttentionKernel([[1.0]], [[0.5]]),
    ], ids=["sigmoid_sum_uy", "wire_ux", "dense_linear_table", "softmax_attention"])
    def test_ordinary_quadrature_is_the_grid_weight_row(self, make):
        grid = Grid(0.0, 1.0, 64)
        assert quad_weights(grid, make().causal) is grid.weights

    def test_y_only_integral_is_a_writable_row(self):
        grid = Grid(0.0, 1.0, 64)
        op = NonlinearIntegralOperator(grid, SCALAR_KERNELS["sigmoid_sum_uy"]())
        u = _probe_input(grid, 8)
        row = op.kernel.integral(grid, u.values)
        assert row.shape == (grid.size,) and row.flags.writeable
        assert np.all(row == row[0])

    def test_grid_weights_survive_every_consumer(self):
        grid = Grid(0.0, 1.0, 64)
        before = grid.weights.copy()
        op = NonlinearIntegralOperator(grid, SCALAR_KERNELS["sigmoid_sum_uy"](), w=1.5)
        u = _probe_input(grid, 9)
        op.apply(u)
        frechet_derivative(op, u)[:] = 7.0
        estimate_contraction(op)
        assert grid.weights.tobytes() == before.tobytes()

    @pytest.mark.parametrize("name", ["sigmoid_sum_uy", "wire_uy", "linear_table_scalar"])
    def test_frechet_is_the_broadcast_weight_product(self, name):
        grid = Grid(0.0, 1.0, 64)
        op = NonlinearIntegralOperator(grid, SCALAR_KERNELS[name](), w=1.5)
        u0 = _probe_input(grid, 10)
        x, y, t = grid.nodes[:, None], grid.nodes[None, :], u0.values[0][None, :]
        table, slope = op.kernel.table(x, y, None, t), op.kernel.du(x, y, t)
        want = np.broadcast_to(grid.weights, (grid.size, grid.size)) * (table + t * slope)
        want[np.arange(grid.size), np.arange(grid.size)] += op.w_values
        assert frechet_derivative(op, u0).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["volterra_none", "volterra_sigmoid", "volterra_sin"])
    def test_volterra_frechet_is_the_loop_table_product(self, name):
        grid = Grid(0.0, 1.0, 64)
        op = NonlinearIntegralOperator(grid, SCALAR_KERNELS[name](), w=1.5)
        u0 = _probe_input(grid, 13)
        x, y, t = grid.nodes[:, None], grid.nodes[None, :], u0.values[0][None, :]
        table, slope = op.kernel.table(x, y, None, t), op.kernel.du(x, y, t)
        want = _loop_causal_weights(grid) * (table + t * slope)
        want[np.arange(grid.size), np.arange(grid.size)] += op.w_values
        assert frechet_derivative(op, u0).tobytes() == want.tobytes()

    def test_logistic_profile_within_4_ulp_of_scipy(self):
        from scipy.special import expit as scipy_expit

        z = np.linspace(-800.0, 800.0, 200_001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expit(z)
        want = scipy_expit(z)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
        assert got[0] == 0.0 and got[-1] == 1.0


def _strided_integral(kernel, grid, values):
    """``KernelBase.integral`` as it read the broadcast (M, M) table's
    strides, kept word for word as the oracle for the stored-table routes."""
    vals = values[0]
    s = vals[:, None] if kernel.uses_ux else None
    table = np.broadcast_to(kernel.table(grid.nodes[:, None], grid.nodes[None, :], s,
                                         vals[None, :]), (grid.size, grid.size))
    if table.strides[0] == 0:
        return trapezoid(grid, table[0] * vals, kernel.causal)
    if table.strides[1] == 0:
        return table[:, 0] * trapezoid(grid, vals, kernel.causal)
    return (table * quad_weights(grid, kernel.causal)) @ vals


def _param_at_each_call(p, x, y):
    """The parameter read as it was before parameters were normalized once."""
    if callable(p):
        return p(x, y)
    arr = np.asarray(p, dtype=float)
    return float(arr) if arr.ndim == 0 else arr


def _volterra_case(nonlinearity, dense):
    return lambda x: VolterraKernel(
        np.exp(-np.abs(x[:, None] - x[None, :])) if dense else 0.8, nonlinearity)


#: Ridge kernels on the grid nodes x, with scalar, dense, row, column and
#: callable parameters.
RIDGE_CASES = {
    "sigmoid_sum_ux": lambda x: SigmoidSumKernel([(0.3, 1.2, 0.3), (-0.2, 0.8, -0.2)], "u(x)"),
    "sigmoid_sum_uy": lambda x: SigmoidSumKernel([(0.3, 1.2, 0.3), (-0.2, 0.8, -0.2)], "u(y)"),
    "wire_ux": lambda x: WireKernel(3.0, [(0.3, 1.0, 0.1)], "u(x)"),
    "wire_uy": lambda x: WireKernel(3.0, [(0.3, 1.0, 0.1)], "u(y)"),
    **{f"volterra_{nl}_{base}": _volterra_case(nl, base == "dense")
       for nl in ("none", "sigmoid", "sin") for base in ("scalar", "dense")},
    "linear_table_scalar": lambda x: LinearTableKernel(0.4),
    "linear_table_dense": lambda x: LinearTableKernel(np.cos(x[:, None] - 2 * x[None, :])),
    "linear_table_row": lambda x: LinearTableKernel(np.cos(x)[None, :]),
    "linear_table_column": lambda x: LinearTableKernel(np.cos(x)[:, None]),
    "callable_c_uy": lambda x: SigmoidSumKernel([(lambda a, b: a + b, 1.0, 0.0)], "u(y)"),
    "callable_ab_ux": lambda x: SigmoidSumKernel(
        [(0.5, lambda a, b: 1.0 + 0.0 * b, lambda a, b: np.sin(b))], "u(x)"),
    "callable_table": lambda x: LinearTableKernel(lambda a, b: a * b),
}


class TestStoredTable:
    @pytest.mark.parametrize("size", [64, 512])
    @pytest.mark.parametrize("name", sorted(RIDGE_CASES))
    def test_integral_equals_the_strided_oracle(self, name, size):
        grid = Grid(0.0, 1.0, size)
        kernel = RIDGE_CASES[name](grid.nodes)
        for seed in range(3):
            u = 3.0 * _probe_input(grid, seed).values
            got = kernel.integral(grid, u)
            assert got.tobytes() == _strided_integral(kernel, grid, u).tobytes()

    def test_parameters_read_once_give_the_same_table(self):
        grid = Grid(0.0, 1.0, 33)
        x, y = grid.nodes[:, None], grid.nodes[None, :]
        t = _probe_input(grid, 4).values[0][None, :]
        terms = [(1, 2, 0), (np.float64(0.3), np.array(1.5), [0.1] * 33),
                 (np.arange(33)[:, None], np.ones((1, 33), dtype=np.float32), 0.2)]
        kernel = SigmoidSumKernel(terms, "u(y)")
        want = sum(_param_at_each_call(c, x, y) * expit(
            _param_at_each_call(a, x, y) * t + _param_at_each_call(b, x, y)) for c, a, b in terms)
        got = kernel.table(x, y, None, t)
        assert got.shape == (33, 33) and got.tobytes() == want.tobytes()

    def test_ridge_sum_is_stored_unbroadcast(self):
        grid = Grid(0.0, 1.0, 64)
        x, y = grid.nodes[:, None], grid.nodes[None, :]
        t = grid.nodes[None, :]
        assert SCALAR_KERNELS["sigmoid_sum_uy"]().table(x, y, None, t).shape == (1, 64)
        assert SCALAR_KERNELS["sigmoid_sum_ux"]().table(x, y, t.T, t).shape == (64, 1)
        assert LinearTableKernel(0.4).table(x, y, None, t) == 0.4
        assert SCALAR_KERNELS["sigmoid_sum_uy"]().du(x, y, t).shape == (1, 64)
        assert SCALAR_KERNELS["wire_uy"]().du(x, y, t).shape == (1, 64)
        assert LinearTableKernel(0.4).du(x, y, t) == 0.0


class _TableOnlyKernel(KernelBase):
    """Test-only kernel that supplies nothing but ``table``."""

    kind = "test_table_only"

    def __init__(self, make, causal):
        self.make, self.causal = make, causal

    def table(self, x, y, s, t):
        return self.make(x, y, t)


#: (M, M) tables of a table-only kernel, by the route they take.
TABLE_ONLY = {
    "zero_stride_row": lambda x, y, t: np.broadcast_to(np.cos(y) * t, (x.size, y.size)),
    "zero_stride_column": lambda x, y, t: np.broadcast_to(np.cos(x), (x.size, y.size)),
    "dense": lambda x, y, t: np.cos(x - y) * t,
}


@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("route", sorted(TABLE_ONLY))
def test_table_only_kernel_integrates_by_its_route(route, causal, monkeypatch):
    import injop.nonlin as nonlin

    grid = Grid(0.0, 1.0, 257)
    kernel = _TableOnlyKernel(TABLE_ONLY[route], causal)
    u = _probe_input(grid, 3)
    x, y, t = grid.nodes[:, None], grid.nodes[None, :], u.values[0][None, :]
    table = np.broadcast_to(kernel.table(x, y, None, t), (grid.size, grid.size))
    want = (table * quad_weights(grid, causal)) @ u.values[0]
    dense_calls = []
    monkeypatch.setattr(nonlin, "quad_weights",
                        lambda *args: dense_calls.append(args) or quad_weights(*args))
    got = kernel.integral(grid, u.values)
    assert len(dense_calls) == (route == "dense")
    scale = (np.abs(table) * quad_weights(grid, causal)) @ np.abs(u.values[0])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(scale)


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

    @pytest.mark.parametrize("case", ["converges", "max_iter", "diverges"])
    def test_one_kernel_integral_per_iterate(self, integral_calls, case):
        # Each iterate's K(u) serves its residual and the next update, so
        # n iterations take n + 1 integrals: the one at u = 0 and one each.
        if case == "diverges":
            op = NonlinearIntegralOperator(GRID, LinearTableKernel(3.0))
            z = GridFunction(GRID, np.ones(GRID.size))
            with pytest.raises(DivergenceError, match="increased") as err:
                invert_banach(op, z, tol=1e-12, max_iter=100)
            trace = err.value.trace
            assert trace.iterations > DIVERGENCE_PATIENCE
        else:
            op = NonlinearIntegralOperator(GRID, SigmoidSumKernel([(0.3, 1.0, 0.0)], "u(y)"))
            z = GridFunction(GRID, 1.0 + GRID.nodes)
            max_iter = 100 if case == "converges" else 4
            _, trace = invert_banach(op, z, tol=1e-12, max_iter=max_iter)
            assert trace.converged == (case == "converges")
            if case == "max_iter":
                assert trace.iterations == max_iter
        assert len(integral_calls) == trace.iterations + 1

    def test_trace_rows_pair_ratios(self):
        kern = SigmoidSumKernel([(0.3, 1.0, 0.0)], signature="u(y)")
        op = NonlinearIntegralOperator(GRID, kern)
        z = op.apply(GridFunction(GRID, np.ones(GRID.size)))
        _, trace = invert_banach(op, z, tol=1e-12)
        rows = trace.rows()
        assert rows[0][3] is None
        assert rows[1][3] == trace.ratios[0]
        assert [r[0] for r in rows] == list(range(1, trace.iterations + 1))


def _reference_banach(op, z, tol, max_iter):
    """The contraction loop that evaluates F(u) in full for each residual,
    integrating K twice per iterate: the oracle for invert_banach."""
    rhs = z.values.copy()
    if op.bias is not None:
        rhs = rhs - op.bias.values
    u = GridFunction(op.grid, np.zeros_like(z.values))
    trace = InversionTrace()
    increases = 0
    for m in range(1, max_iter + 1):
        u = GridFunction(op.grid, (rhs - op.kernel_part(u).values) / op.w_values)
        diff = op.apply(u).values - z.values
        res_l2 = float(np.sqrt(np.sum(op.grid.weights * diff**2)))
        res_h1 = h1_norm(op.grid, diff)
        if not (np.isfinite(res_l2) and np.isfinite(res_h1)):
            raise DivergenceError(f"non-finite residual at iteration {m}", trace=trace)
        if trace.residuals_l2:
            prev = trace.residuals_l2[-1]
            trace.ratios.append(res_l2 / prev if prev > 0 else 0.0)
            increases = increases + 1 if res_l2 > prev else 0
        trace.residuals_l2.append(res_l2)
        trace.residuals_h1.append(res_h1)
        trace.iterations = m
        if res_l2 <= tol:
            trace.converged = True
            return u, trace
        if increases >= DIVERGENCE_PATIENCE:
            raise DivergenceError("residual increased", trace=trace)
    return u, trace


def _banach_outcome(solve, op, z):
    """(solution bytes or None, trace fields, error type) of one solve."""
    try:
        u, trace = solve(op, z, 1e-12, 60)
        solution, error = u.values.tobytes(), None
    except DivergenceError as err:
        solution, trace, error = None, err.trace, type(err)
    fields = (trace.residuals_l2, trace.residuals_h1, trace.ratios, trace.iterations,
              trace.converged)
    return solution, fields, error


BANACH_GRID = Grid(0.0, 1.0, 64)
_NODES = BANACH_GRID.nodes

#: (operator, target) pairs for the reference comparison.
BANACH_CASES = {
    "sigmoid_sum_uy_bias": lambda: (
        NonlinearIntegralOperator(
            BANACH_GRID, SigmoidSumKernel([(0.3, 1.0, 0.0), (0.2, -2.0, 0.5)], "u(y)"),
            w=1.5, bias=GridFunction(BANACH_GRID, np.sin(2 * np.pi * _NODES))),
        GridFunction(BANACH_GRID, 1.0 + _NODES)),
    "volterra_sigmoid": lambda: (
        NonlinearIntegralOperator(BANACH_GRID, VolterraKernel(0.7, "sigmoid")),
        GridFunction(BANACH_GRID, np.cos(3 * _NODES))),
    "wire_ux": lambda: (
        NonlinearIntegralOperator(BANACH_GRID, WireKernel(3.0, [(0.4, 1.0, 0.0)]),
                                  w=lambda x: 1.5 + x),
        GridFunction(BANACH_GRID, 0.5 - _NODES**2)),
    "dense_linear_table": lambda: (
        NonlinearIntegralOperator(
            BANACH_GRID,
            LinearTableKernel(0.2 * np.random.default_rng(3).standard_normal((64, 64)))),
        GridFunction(BANACH_GRID, np.exp(_NODES))),
    "softmax_attention": lambda: (
        NonlinearIntegralOperator(
            BANACH_GRID, SoftmaxAttentionKernel(0.5 * np.eye(2), [[0.2, 0.1], [0.0, 0.3]]),
            w=2.0),
        GridFunction(BANACH_GRID, np.stack([np.sin(_NODES), 1.0 - _NODES]))),
    "diverges": lambda: (
        NonlinearIntegralOperator(BANACH_GRID, LinearTableKernel(3.0)),
        GridFunction(BANACH_GRID, np.ones(64))),
    "non_finite_target": lambda: (
        NonlinearIntegralOperator(BANACH_GRID, SigmoidSumKernel([(0.3, 1.0, 0.0)], "u(y)")),
        GridFunction(BANACH_GRID, np.where(np.arange(64) == 17, np.nan, 1.0))),
}


@pytest.mark.parametrize("name", sorted(BANACH_CASES))
def test_banach_matches_full_evaluation_reference(name):
    op, z = BANACH_CASES[name]()
    got = _banach_outcome(invert_banach, op, z)
    assert got == _banach_outcome(_reference_banach, op, z)
    if name in ("diverges", "non_finite_target"):
        assert got[2] is DivergenceError
    else:
        assert got[1][4]  # converged


def _affine(op, u, k_values):
    """W u + K(u) + b from the values of K(u): the operator's former
    ``_affine`` method, which the wrapped loop below calls."""
    out = op.w_values * u.values + k_values
    if op.bias is not None:
        out = out + op.bias.values
    return out


def _wrapped_banach(
    op: NonlinearIntegralOperator,
    z: GridFunction,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> tuple:
    """``invert_banach`` as it stepped on ``GridFunction`` wraps, kept word
    for word (``op._affine`` now :func:`_affine`) as the oracle for the
    array loop."""
    op.grid.require_matches(z.grid)
    rhs = z.values if op.bias is None else z.values - op.bias.values
    u = GridFunction(op.grid, np.zeros_like(z.values))
    k_u = op.kernel_part(u).values
    trace = InversionTrace(meta={"method": "banach", "tol": tol})
    increases = 0
    for m in range(1, max_iter + 1):
        u = GridFunction(op.grid, (rhs - k_u) / op.w_values)
        k_u = op.kernel_part(u).values
        diff = _affine(op, u, k_u) - z.values
        res_l2 = l2_norm(op.grid, diff)
        res_h1 = h1_norm(op.grid, diff)
        if not (math.isfinite(res_l2) and math.isfinite(res_h1)):
            raise DivergenceError(
                f"non-finite residual at iteration {m} (L2 {res_l2}, H1 {res_h1})",
                trace=trace,
            )
        if trace.residuals_l2:
            prev = trace.residuals_l2[-1]
            trace.ratios.append(res_l2 / prev if prev > 0 else 0.0)
            increases = increases + 1 if res_l2 > prev else 0
        trace.residuals_l2.append(res_l2)
        trace.residuals_h1.append(res_h1)
        trace.iterations = m
        if res_l2 <= tol:
            trace.converged = True
            return u, trace
        if increases >= DIVERGENCE_PATIENCE:
            raise DivergenceError(
                f"residual increased {DIVERGENCE_PATIENCE} iterations in a row "
                f"(last {res_l2:.3e})",
                trace=trace,
            )
    return u, trace


def _full_outcome(solve, *args, **kwargs):
    """Solution bytes (None on error), every trace field, and the error's
    type and message, of one solve."""
    u, error = None, None
    try:
        u, trace = solve(*args, **kwargs)
    except (DivergenceError, OutOfBasinError) as err:
        trace, error = err.trace, err
    return (None if u is None else u.values.tobytes(), trace.residuals_l2, trace.residuals_h1,
            trace.ratios, trace.iterations, trace.converged, trace.meta,
            type(error), str(error))


def _on_stored_tables(solve, *args, **kwargs):
    """:func:`_full_outcome` with every ridge kernel integrating through the
    stored-table route of ``KernelBase.integral``, as all of them did before
    scalar kernels took their own route."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RidgeKernel, "integral", KernelBase.integral)
        return _full_outcome(solve, *args, **kwargs)


def _banach_ridge_case(make):
    return lambda grid: (NonlinearIntegralOperator(grid, make(grid.nodes), w=2.0),
                         GridFunction(grid, 1.0 + np.cos(3 * grid.nodes)), 100)


#: Three ridge terms, whose sum depends on the order it is taken in.
_THREE_TERMS = [(0.3, 1.2, 0.3), (-0.2, 0.8, -0.2), (0.1, -1.5, 0.4)]

#: (operator, target, max_iter) on a grid, by the path the solve takes:
#: every ridge case converges, three-term sums included; then a bias,
#: two-channel attention, and the max_iter, increasing-residual and
#: non-finite-residual exits.
BANACH_ARRAY_CASES = {
    **{name: (_banach_ridge_case(make), "converged") for name, make in RIDGE_CASES.items()},
    "sigmoid_sum_uy_three_terms": (_banach_ridge_case(
        lambda x: SigmoidSumKernel(_THREE_TERMS, "u(y)")), "converged"),
    "wire_ux_three_terms": (_banach_ridge_case(
        lambda x: WireKernel(3.0, _THREE_TERMS, "u(x)")), "converged"),
    "sigmoid_sum_uy_bias": (lambda grid: (
        NonlinearIntegralOperator(
            grid, SigmoidSumKernel([(0.3, 1.0, 0.0), (0.2, -2.0, 0.5)], "u(y)"), w=1.5,
            bias=GridFunction(grid, np.sin(2 * np.pi * grid.nodes))),
        GridFunction(grid, 1.0 + grid.nodes), 100), "converged"),
    "softmax_attention_two_channel": (lambda grid: (
        NonlinearIntegralOperator(
            grid, SoftmaxAttentionKernel(0.5 * np.eye(2), [[0.2, 0.1], [0.0, 0.3]]), w=2.0),
        GridFunction(grid, np.stack([np.sin(grid.nodes), 1.0 - grid.nodes])), 100), "converged"),
    "max_iter": (lambda grid: (
        NonlinearIntegralOperator(grid, SigmoidSumKernel([(0.3, 1.0, 0.0)], "u(y)"), w=2.0),
        GridFunction(grid, 1.0 + grid.nodes), 4), "max_iter"),
    "diverges": (lambda grid: (
        NonlinearIntegralOperator(grid, LinearTableKernel(3.0)),
        GridFunction(grid, np.ones(grid.size)), 100), "residual increased"),
    "non_finite_target": (lambda grid: (
        NonlinearIntegralOperator(grid, SigmoidSumKernel([(0.3, 1.0, 0.0)], "u(y)")),
        GridFunction(grid, np.where(np.arange(grid.size) == 17, np.nan, 1.0)), 100),
        "non-finite residual"),
}


@pytest.mark.parametrize("size", [33, 64, 257])
@pytest.mark.parametrize("name", sorted(BANACH_ARRAY_CASES))
def test_array_loop_is_the_wrapped_loop_bit_for_bit(name, size):
    make, path = BANACH_ARRAY_CASES[name]
    op, z, max_iter = make(Grid(0.0, 1.0, size))
    got = _full_outcome(invert_banach, op, z, tol=1e-12, max_iter=max_iter)
    assert got == _on_stored_tables(_wrapped_banach, op, z, tol=1e-12, max_iter=max_iter)
    solution, _, _, _, iterations, converged, _, error, message = got
    if path == "converged":
        assert converged and error is type(None)
    elif path == "max_iter":
        assert solution is not None and not converged and iterations == max_iter
    else:
        assert error is DivergenceError and message.startswith(path)


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
        # A kernel reads u(x) when its ``reads`` says so: _ScaledMeanKernel
        # states nothing else and is refused like the built-in ones.
        u0 = GridFunction(GRID, np.zeros(GRID.size))
        for kernel in (SigmoidSumKernel([(0.5, 1.0, 0.0)], signature="u(x)"),
                       SoftmaxAttentionKernel([[1.0]], [[1.0]]), _ScaledMeanKernel()):
            op = NonlinearIntegralOperator(GRID, kernel)
            for linearization in (frechet_derivative, linearize,
                                  lambda op, u0: build_atlas(op, [u0])):
                with pytest.raises(NotDifferentiableError, match=r"reads u\(x\)"):
                    linearization(op, u0)

    def test_singular_matrix_rejected(self):
        mat = np.ones((4, 4))
        with pytest.raises(SingularOperatorError):
            FactorizedFrechet(mat)

    def test_verdict_matches_svd_rule(self):
        verdicts = []
        for a in _verdict_sweep():
            try:
                FactorizedFrechet(a)
                got = False
            except SingularOperatorError:
                got = True
            want = _svd_rule_singular(a)
            assert got == want, (a.shape, np.linalg.svd(a, compute_uv=False)[[0, -1]])
            verdicts.append(want)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_solve_round_trip(self):
        rng = np.random.default_rng(66)
        a = rng.standard_normal((30, 30)) + 5.0 * np.eye(30)
        rhs = rng.standard_normal(30)
        fact = FactorizedFrechet(a)
        assert_allclose(a @ fact.solve(rhs), rhs, atol=1e-10)
        assert fact.solve(np.eye(30)).tobytes() == np.linalg.inv(a).tobytes()
        assert not hasattr(fact, "inverse")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_refused(self, bad):
        mat = 2.0 * np.eye(4)
        mat[2, 1] = bad
        ones = np.ones(4)
        for args in ((np.full((4, 4), bad),), (mat,),
                     (np.r_[1.0, 1.0, bad, 1.0], 0.1 * ones), (ones, np.r_[0.1, bad, 0.1, 0.1])):
            with pytest.raises(ValueError, match="non-finite derivative matrix"):
                FactorizedFrechet(*args)

    def test_rank_one_verdict_matches_svd_rule(self):
        verdicts = []
        for w, r in _rank_one_sweep():
            try:
                FactorizedFrechet(w, r)
                got = False
            except SingularOperatorError:
                got = True
            want = _svd_rule_singular(np.diag(w) + r[None, :])
            assert got == want, (w, 1.0 + r @ (1.0 / w))
            verdicts.append(want)
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("size", [33, 256, 1024])
    @pytest.mark.parametrize("kernel", [
        SigmoidSumKernel([(0.7, 2.0, 0.3), (-0.4, 1.0, -0.2)], signature="u(y)"),
        WireKernel(3.0, [(0.5, 1.0, 0.1)], signature="u(y)"),
        LinearTableKernel(0.6),
    ], ids=["sigmoid_sum", "wire", "linear_table"])
    def test_rank_one_form_agrees_with_the_dense_matrix(self, monkeypatch, kernel, size):
        grid = Grid(0.0, 1.0, size)
        op = NonlinearIntegralOperator(grid, kernel, w=lambda x: 1.5 + 0.5 * np.sin(3.0 * x))
        u0 = GridFunction(grid, 0.3 + np.cos(2 * np.pi * grid.nodes))
        rhs = np.random.default_rng(size).standard_normal(size)

        def refuse(*args, **kwargs):
            raise AssertionError("dense algebra in the rank-one form")

        with monkeypatch.context() as patch:
            for name in ("inv", "svd", "solve"):
                patch.setattr(np.linalg, name, refuse)
            fact = linearize(op, u0)
            got = fact.solve(rhs)
            got_inverse = fact.solve(np.eye(size))
        a = frechet_derivative(op, u0)
        want = np.linalg.solve(a, rhs)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        want_inverse = np.linalg.inv(a)
        assert np.max(np.abs(got_inverse - want_inverse)) <= 1e-14 * np.max(np.abs(want_inverse))
        assert not hasattr(fact, "inverse")

    def test_rank_one_form_refuses_mismatched_shapes(self):
        with pytest.raises(DimensionError, match="rank-one form"):
            FactorizedFrechet(np.ones(4), np.full(3, 0.1))
        with pytest.raises(DimensionError, match="rank-one form"):
            FactorizedFrechet(np.eye(4), np.full(4, 0.1))
        for fact in (FactorizedFrechet(np.ones(4), np.full(4, 0.1)), FactorizedFrechet(np.eye(4))):
            for rhs in (np.ones(3), np.ones((3, 4)), np.ones((4, 4, 1)), np.float64(1.0)):
                with pytest.raises(DimensionError, match="right-hand side"):
                    fact.solve(rhs)

    @pytest.mark.parametrize("form", ["rank_one", "dense"])
    def test_matrix_right_hand_side_solves_each_column(self, form):
        rng = np.random.default_rng(71)
        w, r = 1.0 + rng.uniform(0.0, 1.0, 40), 0.05 * rng.standard_normal(40)
        fact = FactorizedFrechet(w, r) if form == "rank_one" else FactorizedFrechet(
            np.diag(w) + r[None, :] + 0.01 * rng.standard_normal((40, 40)))
        assert (fact.rank_one is not None) == (form == "rank_one")
        rhs = rng.standard_normal((40, 5))
        columns = np.stack([fact.solve(col) for col in rhs.T], axis=1)
        assert_allclose(fact.solve(rhs), columns, rtol=1e-14, atol=1e-15)


def _svd_rule_singular(a):
    """The reference verdict: singular iff sigma_min <= FRECHET_SINGULAR_TOL * sigma_max."""
    svals = np.linalg.svd(a, compute_uv=False)
    return bool(svals[-1] <= FRECHET_SINGULAR_TOL * svals[0])


def _verdict_sweep():
    """Exactly singular matrices, then diagonal and randomly rotated ones
    whose singular values run from 1 down to a ratio on either side of the
    floor, including ratios where the Frobenius bound fails but the SVD
    accepts (diag(1, ..., 1, 3e-10) at M = 64)."""
    rng = np.random.default_rng(12)
    mats = [np.ones((4, 4)), np.zeros((3, 3)), np.diag([1.0, 0.0])]
    ratios = [1e-13, 1e-11, 5e-11, 0.99e-10, 1.01e-10, 2e-10, 3e-10, 1e-9, 1e-8, 1e-7]
    for m in (4, 16, 64):
        q1 = np.linalg.qr(rng.standard_normal((m, m)))[0]
        q2 = np.linalg.qr(rng.standard_normal((m, m)))[0]
        for ratio in ratios:
            mats.append(np.diag(np.r_[np.ones(m - 1), ratio]))
            mats.append((q1 * np.geomspace(1.0, ratio, m)) @ q2.T)
    return mats


def _rank_one_sweep():
    """(W, r) pairs of diag(W) + 1 r^T: exactly singular ones, then
    constant and non-constant W with r scaled so that 1 + r.W^-1 1 lies on
    either side of 0 at distances from 1e-12 to 1e-3, whose singular-value
    ratios straddle the floor."""
    pairs = [(np.ones(4), np.full(4, -0.25)), (np.array([2.0, 1.0]), np.array([-1.0, -0.5])),
             (np.ones(3), np.array([-1.0, 0.0, 0.0]))]
    rng = np.random.default_rng(14)
    gaps = [0.0, 1e-12, 1e-11, 3e-11, 1e-10, 3e-10, 1e-9, 3e-9, 1e-8, 1e-6, 1e-3]
    for m in (4, 16, 64):
        x = np.linspace(0.0, 1.0, m)
        for w in (np.ones(m), np.full(m, 2.5), 1.5 + 0.5 * np.sin(2 * np.pi * x),
                  np.where(x < 0.3, -1.0, 2.0)):
            r0 = rng.uniform(-0.5, 1.0, m) / m
            for gap in gaps:
                for sign in (1.0, -1.0):
                    pairs.append((w, r0 * ((sign * gap - 1.0) / (r0 @ (1.0 / w)))))
    return pairs


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

    @pytest.mark.parametrize("size", [4, 7])
    def test_estimators_refuse_grids_under_8_nodes(self, size):
        op = NonlinearIntegralOperator(Grid(0.0, 1.0, size), LinearTableKernel(0.4))
        with pytest.raises(ValueError, match=f"at least 8 nodes, got {size}"):
            estimate_contraction(op)
        with pytest.raises(ValueError, match=f"at least 8 nodes, got {size}"):
            estimate_coercivity(op, alpha=1.0, n_rays=2)

    def test_estimators_run_on_an_8_node_grid(self):
        op = NonlinearIntegralOperator(Grid(0.0, 1.0, 8), LinearTableKernel(0.4))
        assert np.isfinite(estimate_contraction(op))
        assert np.all(np.isfinite(estimate_coercivity(op, alpha=1.0, n_rays=2).min_values))

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


def test_estimators_evaluate_their_points_in_one_call(integral_calls):
    # 66 contraction points at M >= 128 and 8 rays x 13 radii: one kernel
    # integral each.
    op = NonlinearIntegralOperator(GRID, SigmoidSumKernel([(0.3, 1.0, 0.0)], "u(y)"))
    estimate_contraction(op)
    assert len(integral_calls) == 1
    estimate_coercivity(op, alpha=1.0, n_rays=8)
    assert len(integral_calls) == 2


#: Every route of the batched evaluate: the ridge routes of RIDGE_CASES
#: (scalar row, column and constant; causal Volterra; dense, row, column
#: and callable tables, with and without u) and two-channel attention.
BATCH_CASES = {
    **RIDGE_CASES,
    "attention": lambda x: SoftmaxAttentionKernel(0.5 * np.eye(2), [[0.2, 0.1], [0.0, 0.3]]),
}


def _batch(grid, channels, count, seed):
    rng = np.random.default_rng(seed)
    wave = np.sin(2 * np.pi * grid.nodes)
    return 1.5 * wave + 0.5 * rng.standard_normal((count, channels, grid.size))


class TestBatch:
    """A (P, h, M) batch gives each function the bytes it gets alone."""

    @pytest.mark.parametrize("layout", ["one", "several", "strided"])
    @pytest.mark.parametrize("size", [64, 257])
    @pytest.mark.parametrize("name", sorted(BATCH_CASES))
    def test_evaluate_is_bit_for_bit(self, name, size, layout):
        grid = Grid(0.0, 1.0, size)
        kernel = BATCH_CASES[name](grid.nodes)
        bias = GridFunction(grid, 0.1 * np.cos(np.arange(kernel.channels)[:, None] + grid.nodes))
        op = NonlinearIntegralOperator(grid, kernel, w=lambda x: 1.5 + x, bias=bias)
        stack = _batch(grid, kernel.channels, {"one": 1, "several": 5, "strided": 10}[layout],
                       size)
        batch = stack[::2] if layout == "strided" else stack
        assert batch.flags.c_contiguous == (layout != "strided")
        k, f = op.evaluate(batch)
        assert k.shape == f.shape == batch.shape
        for i, values in enumerate(batch):
            k_one, f_one = op.evaluate(values)
            assert k[i].tobytes() == k_one.tobytes()
            assert f[i].tobytes() == f_one.tobytes()

    @pytest.mark.parametrize("name", ["sigmoid_sum_ux", "sigmoid_sum_uy", "wire_uy",
                                      "volterra_sigmoid_scalar", "linear_table_dense",
                                      "attention"])
    def test_apply_and_kernel_part_take_a_batch(self, name):
        # One case per kernel kind: a batch used to fail inside numpy.
        grid = Grid(0.0, 1.0, 64)
        op = NonlinearIntegralOperator(grid, BATCH_CASES[name](grid.nodes), w=2.0)
        stack = GridFunction(grid, _batch(grid, op.channels, 3, 7))
        for method in (op.apply, op.kernel_part):
            out = method(stack)
            assert out.values.shape == (3, op.channels, 64)
            for i in range(3):
                one = method(GridFunction(grid, stack.values[i]))
                assert out.values[i].tobytes() == one.values.tobytes()


class _ScaledMeanKernel(KernelBase):
    """A kernel of another form: K(u)(x) = u(x) times the integral of
    sin u(y), written for one function alone."""

    kind = "scaled_mean"
    reads = ("u(x)", "u(y)")

    def function_integral(self, grid, values):
        return values * (grid.weights @ np.sin(values[0]))


def test_a_kernel_of_another_form_overrides_only_its_function_integral():
    # KernelBase.integral loops the one-function hook over a batch, so the
    # estimators, which evaluate all their points in one call, take it too.
    grid = Grid(0.0, 1.0, 128)
    op = NonlinearIntegralOperator(grid, _ScaledMeanKernel(), w=2.0)
    batch = _batch(grid, 1, 4, 3)
    k = op.evaluate(batch)[0]
    for i, values in enumerate(batch):
        assert k[i].tobytes() == op.evaluate(values)[0].tobytes()
        assert k[i].tobytes() == (values * (grid.weights @ np.sin(values[0]))).tobytes()
    assert estimate_contraction(op, seed=2) == _reference_contraction(op, 2)
    report = estimate_coercivity(op, alpha=1.0, n_rays=2, seed=1)
    assert report.min_values.tobytes() == _reference_coercivity_values(op, 1.0, 2, 1).tobytes()


@pytest.mark.parametrize("solve", [
    lambda op, u: invert_banach(op, u),
    lambda op, u: linearize(op, u),
    lambda op, u: frechet_derivative(op, u),
], ids=["invert_banach", "linearize", "frechet_derivative"])
def test_one_function_solvers_refuse_a_batch(solve):
    grid = Grid(0.0, 1.0, 64)
    op = NonlinearIntegralOperator(grid, SigmoidSumKernel([(0.3, 1.0, 0.0)], "u(y)"))
    batch = GridFunction(grid, np.zeros((3, 1, 64)))
    with pytest.raises(DimensionError, match=r"batch of shape \(3, 1, 64\)"):
        solve(op, batch)
