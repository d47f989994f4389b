"""Finite-rank layers: block-matrix algebra, activations, kernel truncation."""

import math
import pickle
import warnings
from copy import deepcopy

import numpy as np
import pytest
from numpy.testing import assert_allclose

from injop import finite_rank
from injop.errors import AliasingGuardError, DimensionError, IntervalMismatchError
from injop.finite_rank import (
    Activation,
    FiniteRankLayer,
    FiniteRankNetwork,
    apply_affine,
    apply_finite_rank,
    apply_layer,
    apply_network,
    block_matrix,
    expit,
    truncate_kernel,
    zero_bias,
)
from injop.funcspace import (
    BasisSpec,
    Grid,
    GridFunction,
    SpectralCoeffs,
    from_spectral,
    to_spectral,
)
from injop.nonlin import SigmoidSumKernel
from injop.reduction import lift_to_injective

BASIS = BasisSpec("fourier", (0.0, 1.0))


def random_layer(rng, n=4, d_in=2, d_out=3, activation=None):
    c = rng.standard_normal((n, n, d_out, d_in))
    bias = SpectralCoeffs(BASIS, n, rng.standard_normal((d_out, n)))
    return FiniteRankLayer(
        d_in=d_in, d_out=d_out, n=n, c=c, bias=bias,
        activation=activation or Activation(),
    )


class TestActivation:
    def test_relu_and_leaky(self):
        x = np.array([-2.0, -0.5, 0.0, 1.5])
        assert_allclose(Activation("relu").apply(x), [0.0, 0.0, 0.0, 1.5])
        assert_allclose(Activation("leaky_relu", 0.1).apply(x), [-0.2, -0.05, 0.0, 1.5])

    def test_injectivity_flags(self):
        assert not Activation("relu").is_injective
        assert Activation("leaky_relu", 0.3).is_injective
        assert Activation("sigmoid").is_injective
        assert Activation("leaky_relu", 1.0).is_identity_map
        assert not Activation("leaky_relu", 0.3).is_identity_map

    def test_inverses_round_trip(self):
        x = np.linspace(-3.0, 3.0, 41)
        # The smallest slope accepted: the next double above 2**-1024.
        smallest = float(np.nextafter(2.0**-1024, 1.0))
        for act in [Activation("leaky_relu", 0.25), Activation("leaky_relu", 1e-300),
                    Activation("leaky_relu", 1e300), Activation("leaky_relu", smallest),
                    Activation("sigmoid")]:
            assert_allclose(act.inverse(act.apply(x)), x, atol=1e-12)

    def test_sigmoid_saturates_without_overflow(self):
        # One logistic function: the activation's map is nonlin's sigmoid profile.
        z = np.array([-800.0, 0.0, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = Activation("sigmoid").apply(z)
        assert got.tolist() == [0.0, 0.5, 1.0]
        assert SigmoidSumKernel([(1.0, 1.0, 0.0)])._g is expit

    @pytest.mark.parametrize("activation", [
        Activation(), Activation("relu"), Activation("leaky_relu", 0.3),
        Activation("leaky_relu", 2.5), Activation("sigmoid"),
    ], ids=["identity", "relu", "leaky_0.3", "leaky_2.5", "sigmoid"])
    def test_apply_over_its_input_gives_the_same_bytes(self, activation):
        # A layer activates its grid values in the array that holds them;
        # ReLU writes there, and identity returns its input.
        x = np.array(EDGE_VALUES + [math.inf, -math.inf, -800.0, 800.0]) * np.ones((3, 1))
        with np.errstate(over="ignore"):
            want = activation.apply(x)
            got = activation.apply(x, overwrite=True)
        assert (got is x) == (activation.kind in ("identity", "relu"))
        assert got.tobytes() == want.tobytes()

    def test_relu_has_no_inverse(self):
        with pytest.raises(ValueError):
            Activation("relu").inverse(np.array([1.0]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Activation("leaky_relu")
        with pytest.raises(ValueError):
            Activation("relu", a=0.5)
        with pytest.raises(ValueError):
            Activation("softplus")

    @pytest.mark.parametrize("a", [0.0, -0.0, -0.5, float("nan"), float("inf"), -float("inf")])
    def test_slope_must_be_finite_and_positive(self, a):
        # Slope 0 is relu and a negative slope folds the line: neither is a
        # bijection, and only relu may take the DSS route.
        with pytest.raises(ValueError, match="slope a must be finite and positive"):
            Activation("leaky_relu", a)

    @pytest.mark.parametrize("a", [5e-324, 1e-310, 2.0**-1024], ids=["min", "subnormal", "edge"])
    def test_slope_needs_a_finite_reciprocal(self, a):
        # 1/a overflows to inf, and the inverse would give inf * 0 = NaN at 0.
        with pytest.raises(ValueError, match="slope a must have a finite reciprocal"):
            Activation("leaky_relu", a)


class TestBlockAlgebra:
    """The layer's one dense view must be its stored matrix and reproduce
    the layer's product, and that product the einsum it replaced."""

    def test_block_matrix_matches_apply(self):
        # block_matrix is mat.T, sharing its memory, and maps the flattened
        # (d_in, n) coefficients to the flattened (d_out, n_out) output.
        rng = np.random.default_rng(7)
        for n, n_out, d_in, d_out in [(4, 4, 2, 3), (3, 7, 4, 2), (5, 2, 1, 3)]:
            c = rng.standard_normal((n, n_out, d_out, d_in))
            layer = FiniteRankLayer(d_in, d_out, n, c, zero_bias(BASIS, d_out, n_out), n_out=n_out)
            mat = block_matrix(layer)
            assert mat.shape == (d_out * n_out, d_in * n)
            assert np.shares_memory(mat, layer.mat)
            u = SpectralCoeffs(BASIS, n, rng.standard_normal((d_in, n)))
            direct = apply_finite_rank(layer, u).coeffs.reshape(-1)
            assert_allclose(mat @ u.coeffs.reshape(-1), direct, atol=1e-14)

    @pytest.mark.parametrize("n, n_out, d_in, d_out", [(4, 4, 2, 3), (3, 7, 4, 2)])
    @pytest.mark.parametrize("form", ["single", "batch", "transposed"])
    def test_product_matches_the_einsum(self, n, n_out, d_in, d_out, form):
        # Sums of d_in * n <= 12 terms: the stored product and the einsum
        # round apart by at most 4 ulp of the output's largest entry.
        rng = np.random.default_rng(11)
        c = rng.standard_normal((n, n_out, d_out, d_in))
        layer = FiniteRankLayer(d_in, d_out, n, c, zero_bias(BASIS, d_out, n_out), n_out=n_out)
        coeffs = {
            "single": lambda: rng.standard_normal((d_in, n)),
            "batch": lambda: rng.standard_normal((5, d_in, n)),
            # Like certify's kernel directions: a non-contiguous batch.
            "transposed": lambda: rng.standard_normal((n * d_in, 5)).T
                                     .reshape(-1, n, d_in).transpose(0, 2, 1),
        }[form]()
        want = np.einsum("kpij,...jk->...ip", c, coeffs)
        u = SpectralCoeffs(BASIS, n, coeffs)
        grid = Grid(0.0, 1.0, 16 * n_out)
        for got in (apply_finite_rank(layer, u).coeffs, apply_layer(layer, u, grid).coeffs):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 4 * np.spacing(np.max(np.abs(want)))

    def test_product_on_long_sums_is_within_the_rounding_bound(self):
        # G's last layer in the lift workload: sums of 48 terms, where the
        # two summation orders may differ by more than 4 ulp of the largest
        # entry but each stays within K * eps * (|C| |u|) of the exact sum.
        n, n_out, d_in, d_out = 8, 54, 6, 8
        rng = np.random.default_rng(12)
        c = rng.standard_normal((n, n_out, d_out, d_in))
        layer = FiniteRankLayer(d_in, d_out, n, c, zero_bias(BASIS, d_out, n_out), n_out=n_out)
        coeffs = rng.standard_normal((6, d_in, n))
        want = np.einsum("kpij,...jk->...ip", c, coeffs)
        scale = np.einsum("kpij,...jk->...ip", np.abs(c), np.abs(coeffs))
        got = apply_finite_rank(layer, SpectralCoeffs(BASIS, n, coeffs)).coeffs
        k_eps = d_in * n * np.finfo(float).eps
        assert np.all(np.abs(got - want) <= 2 * k_eps / (1 - k_eps) * scale)

    def test_edits_through_c_reach_the_product(self):
        # c is a view of the stored matrix, so entries written through it,
        # -0.0 among them, apply as in a layer built from the edited array.
        rng = np.random.default_rng(10)
        given = rng.standard_normal((3, 5, 2, 4))
        act = Activation("leaky_relu", 0.3)
        bias = SpectralCoeffs(BASIS, 5, rng.standard_normal((2, 5)))
        layer = FiniteRankLayer(4, 2, 3, given, bias, act, n_out=5)
        layer.c[0, 1] = -0.0
        layer.c[2, :, 1, 3] *= -2.0
        fresh = FiniteRankLayer(4, 2, 3, np.array(layer.c), bias, act, n_out=5)
        assert layer.c.shape == fresh.c.shape == (3, 5, 2, 4)
        assert np.signbit(layer.c[0, 1]).all()
        assert layer.c.tobytes() == fresh.c.tobytes()
        assert block_matrix(layer).tobytes() == block_matrix(fresh).tobytes()
        grid = Grid(0.0, 1.0, 80)
        last = FiniteRankLayer(2, 1, 5, rng.standard_normal((5, 5, 1, 2)), zero_bias(BASIS, 1, 5))
        for coeffs in (rng.standard_normal((4, 3)), rng.standard_normal((7, 4, 3))):
            u = SpectralCoeffs(BASIS, 3, coeffs)
            assert (apply_finite_rank(layer, u).coeffs.tobytes()
                    == apply_finite_rank(fresh, u).coeffs.tobytes())
            assert (apply_layer(layer, u, grid).coeffs.tobytes()
                    == apply_layer(fresh, u, grid).coeffs.tobytes())
            assert (apply_network(FiniteRankNetwork([layer, last]), u, grid).coeffs.tobytes()
                    == apply_network(FiniteRankNetwork([fresh, last]), u, grid).coeffs.tobytes())

    def test_layer_does_not_alias_the_given_array(self):
        # Neither a plain array nor another layer's c, which is already in
        # the stored layout, is shared with the new layer.
        rng = np.random.default_rng(13)
        given = rng.standard_normal((3, 3, 2, 2))
        layer = FiniteRankLayer(2, 2, 3, given, zero_bias(BASIS, 2, 3))
        copy = FiniteRankLayer(2, 2, 3, layer.c, zero_bias(BASIS, 2, 3))
        u = SpectralCoeffs(BASIS, 3, rng.standard_normal((2, 3)))
        before = apply_finite_rank(layer, u).coeffs.tobytes()
        kept = given.tobytes()
        given[:] = 0.0
        assert layer.c.tobytes() == kept
        assert apply_finite_rank(layer, u).coeffs.tobytes() == before
        layer.c[:] = 0.0
        assert copy.c.tobytes() == kept
        assert apply_finite_rank(copy, u).coeffs.tobytes() == before

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_copies_keep_c_a_view_of_the_product(self, how):
        # A copy's c must be a view of the copy's own matrix, so zeroing it
        # zeroes the copy's output and leaves the original's alone.
        layer = FiniteRankLayer(2, 2, 3, np.ones((3, 3, 2, 2)), zero_bias(BASIS, 2, 3))
        dup = deepcopy(layer) if how == "deepcopy" else pickle.loads(pickle.dumps(layer))
        assert dup.c.shape == (3, 3, 2, 2)
        assert np.shares_memory(dup.c, dup.mat)
        assert not np.shares_memory(dup.mat, layer.mat)
        u = SpectralCoeffs(BASIS, 3, np.ones((2, 3)))
        dup.c[:] = 0.0
        assert np.all(apply_finite_rank(dup, u).coeffs == 0.0)
        assert np.all(apply_finite_rank(layer, u).coeffs == 6.0)

    def test_c_is_a_read_only_view_not_a_second_copy(self):
        # The layer stores only its matrix: c cannot be rebound to an array
        # the product would not see.
        layer = FiniteRankLayer(2, 2, 3, np.ones((3, 3, 2, 2)), zero_bias(BASIS, 2, 3))
        assert "c" not in vars(layer)
        with pytest.raises(AttributeError):
            layer.c = np.zeros((3, 3, 2, 2))
        assert np.all(layer.c == 1.0)
        u = SpectralCoeffs(BASIS, 3, np.ones((2, 3)))
        assert np.all(apply_finite_rank(layer, u).coeffs == 6.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_blocks_or_bias_are_refused(self, bad):
        c = np.ones((3, 3, 2, 2))
        c[1, 2, 0, 1] = bad
        with pytest.raises(ValueError, match="kernel blocks C must be finite"):
            FiniteRankLayer(2, 2, 3, c, zero_bias(BASIS, 2, 3))
        bias = zero_bias(BASIS, 2, 3)
        bias.coeffs[1, 0] = bad
        with pytest.raises(ValueError, match="bias must be finite"):
            FiniteRankLayer(2, 2, 3, np.ones((3, 3, 2, 2)), bias)

    def test_identity_blocks_give_identity_matrix(self):
        n, d = 3, 2
        c = np.zeros((n, n, d, d))
        for k in range(n):
            c[k, k] = np.eye(d)
        layer = FiniteRankLayer(d, d, n, c, zero_bias(BASIS, d, n))
        assert_allclose(block_matrix(layer), np.eye(n * d))

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            FiniteRankLayer(2, 3, 4, np.zeros((4, 4, 2, 3)), zero_bias(BASIS, 3, 4))
        with pytest.raises(DimensionError):
            FiniteRankLayer(2, 3, 4, np.zeros((4, 4, 3, 2)), zero_bias(BASIS, 2, 4))
        rng = np.random.default_rng(0)
        layer = random_layer(rng)
        with pytest.raises(DimensionError):
            apply_finite_rank(layer, SpectralCoeffs(BASIS, 4, np.zeros((5, 4))))


class TestComposition:
    def test_linear_layers_compose_exactly(self):
        # Identity activations skip the grid round trip, so composing two
        # linear layers equals multiplying their block matrices with no
        # quadrature error at all.
        rng = np.random.default_rng(21)
        first = random_layer(rng, n=4, d_in=2, d_out=3)
        second = random_layer(rng, n=4, d_in=3, d_out=1)
        net = FiniteRankNetwork([first, second])
        u = SpectralCoeffs(BASIS, 4, rng.standard_normal((2, 4)))
        grid = Grid(0.0, 1.0, 64)
        out = apply_network(net, u, grid)
        expected = (
            block_matrix(second) @ (block_matrix(first) @ u.coeffs.reshape(-1)
                                    + first.bias.coeffs.reshape(-1))
            + second.bias.coeffs.reshape(-1)
        )
        assert_allclose(out.coeffs.reshape(-1), expected, atol=1e-13)

    def test_relu_layer_matches_grid_oracle(self):
        rng = np.random.default_rng(22)
        layer = random_layer(rng, activation=Activation("relu"))
        u = SpectralCoeffs(BASIS, 4, rng.standard_normal((2, 4)))
        grid = Grid(0.0, 1.0, 256)
        out = apply_layer(layer, u, grid)
        pre = apply_affine(layer, u)
        g = from_spectral(pre, grid)
        oracle = to_spectral(GridFunction(grid, np.maximum(g.values, 0.0)), BASIS, 4)
        assert_allclose(out.coeffs, oracle.coeffs, atol=1e-13)

    @pytest.mark.parametrize(
        "activation",
        [Activation(), Activation("relu"), Activation("leaky_relu", 0.3), Activation("sigmoid")],
        ids=lambda act: act.kind,
    )
    def test_batch_matches_row_by_row(self, activation):
        rng = np.random.default_rng(24)
        net = FiniteRankNetwork([
            random_layer(rng, n=4, d_in=2, d_out=3, activation=activation),
            random_layer(rng, n=4, d_in=3, d_out=3, activation=activation),
            random_layer(rng, n=4, d_in=3, d_out=2),
        ])
        grid = Grid(0.0, 1.0, 64)
        batch = rng.standard_normal((6, 2, 4))
        out = apply_network(net, SpectralCoeffs(BASIS, 4, batch), grid)
        assert out.coeffs.shape == (6, 2, 4)
        for b in range(6):
            row = apply_network(net, SpectralCoeffs(BASIS, 4, batch[b]), grid)
            assert_allclose(out.coeffs[b], row.coeffs, rtol=0, atol=1e-12)

    def test_network_validation(self):
        rng = np.random.default_rng(23)
        a = random_layer(rng, d_in=2, d_out=3)
        b = random_layer(rng, d_in=2, d_out=1)
        with pytest.raises(DimensionError):
            FiniteRankNetwork([a, b])
        with pytest.raises(DimensionError):
            FiniteRankNetwork([])
        relu_last = random_layer(rng, d_in=2, d_out=1, activation=Activation("relu"))
        with pytest.raises(DimensionError):
            FiniteRankNetwork([relu_last])
        with pytest.raises(DimensionError, match="orders do not chain"):
            FiniteRankNetwork([a, random_layer(rng, n=3, d_in=3, d_out=1)])
        other = FiniteRankLayer(d_in=3, d_out=1, n=4, c=rng.standard_normal((4, 4, 1, 3)),
                                bias=zero_bias(BasisSpec("fourier", (0.0, 2.0)), 1, 4))
        with pytest.raises(DimensionError, match="share the basis"):
            FiniteRankNetwork([a, other])


def wrapper_chain_layer(layer, u, grid):
    """apply_layer through the public maps: the reference for its one pass."""
    z = apply_affine(layer, u)
    if layer.activation.is_identity_map:
        return z
    g = from_spectral(z, grid)
    activated = GridFunction(grid, layer.activation.apply(g.values))
    return to_spectral(activated, layer.basis, layer.n_out)


ACTIVATIONS = [Activation(), Activation("relu"), Activation("leaky_relu", 0.3),
               Activation("sigmoid")]


class TestOnePassLayer:
    """apply_layer is the wrapper chain of apply_affine, from_spectral, the
    activation and to_spectral in one pass: the same products on the same
    operands, so the same bits and the same errors."""

    @pytest.mark.parametrize("activation", ACTIVATIONS, ids=lambda act: act.kind)
    @pytest.mark.parametrize("batch", [(), (5,)], ids=["single", "batched"])
    def test_layer_and_network_equal_the_wrapper_chain(self, activation, batch):
        rng = np.random.default_rng(25)
        grid = Grid(0.0, 1.0, 64)
        # Orders 4 -> 6 -> 5: every layer has n_out != n.
        first = FiniteRankLayer(2, 3, 4, rng.standard_normal((4, 6, 3, 2)),
                                SpectralCoeffs(BASIS, 6, rng.standard_normal((3, 6))),
                                activation, n_out=6)
        last = FiniteRankLayer(3, 2, 6, rng.standard_normal((6, 5, 2, 3)),
                               SpectralCoeffs(BASIS, 5, rng.standard_normal((2, 5))), n_out=5)
        u = SpectralCoeffs(BASIS, 4, rng.standard_normal((*batch, 2, 4)))
        got = apply_layer(first, u, grid)
        want = wrapper_chain_layer(first, u, grid)
        assert got.coeffs.shape == (*batch, 3, 6)
        assert (got.basis, got.n) == (want.basis, want.n)
        assert np.array_equal(got.coeffs, want.coeffs)
        out = apply_network(FiniteRankNetwork([first, last]), u, grid)
        assert np.array_equal(out.coeffs, wrapper_chain_layer(last, want, grid).coeffs)

    @pytest.mark.parametrize("u_shape, grid, error, message", [
        ((2, 3), Grid(0.0, 1.0, 64), DimensionError, "coefficient order 3 != layer order 4"),
        ((3, 4), Grid(0.0, 1.0, 64), DimensionError, "3 channels fed to a d_in=2 layer"),
        ((2, 4), Grid(0.0, 1.0, 47), AliasingGuardError, r"grid size 47 < 8 \* 6"),
        ((2, 4), Grid(0.0, 2.0, 64), IntervalMismatchError,
         r"basis interval \(0.0, 1.0\) does not match grid \[0.0, 2.0\]"),
    ], ids=["order", "channels", "coarse_grid", "interval"])
    def test_errors_equal_the_wrapper_chain(self, u_shape, grid, error, message):
        rng = np.random.default_rng(26)
        layer = FiniteRankLayer(2, 3, 4, rng.standard_normal((4, 6, 3, 2)),
                                zero_bias(BASIS, 3, 6), Activation("relu"), n_out=6)
        u = SpectralCoeffs(BASIS, u_shape[-1], rng.standard_normal(u_shape))
        with pytest.raises(error, match=message) as got:
            apply_layer(layer, u, grid)
        with pytest.raises(error) as want:
            wrapper_chain_layer(layer, u, grid)
        assert str(got.value) == str(want.value)


def four_pass_leaky(x, slope):
    """LeakyReLU as first written, in four passes: the reference for its
    two-pass form."""
    return np.maximum(x, 0.0) - slope * np.maximum(-x, 0.0)


def layered_network(net, u, grid, monkeypatch):
    """apply_network as first written, a loop of checked layers with the
    four-pass LeakyReLU: the reference for the array path."""
    with monkeypatch.context() as patch:
        patch.setattr(finite_rank, "_leaky", four_pass_leaky)
        for layer in net.layers:
            u = apply_layer(layer, u, grid)
    return u


#: Finite values that stress the sign of zero, underflow and overflow.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -1.0]
#: Slopes from the smallest one accepted, the next double above 2**-1024.
EDGE_SLOPES = [float(np.nextafter(2.0**-1024, 1.0)), 1e-300, 0.2, 0.3, 0.8,
               float(np.nextafter(1.0, 0.0)), 1.0, 2.0, 2.5, 1e300]


class TestArrayPath:
    """apply_network steps on bare arrays and LeakyReLU takes two passes,
    to the bytes of the layered path and the four-pass formula."""

    @pytest.mark.parametrize("slope", EDGE_SLOPES)
    @pytest.mark.parametrize("direction", ["apply", "inverse"])
    def test_leaky_edge_values_equal_the_four_pass_form(self, direction, slope):
        act = Activation("leaky_relu", slope)
        for x in EDGE_VALUES + [math.inf, -math.inf, math.nan]:
            x = np.array([x])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if direction == "apply":
                    want = four_pass_leaky(x, slope)
                else:  # slope 1 is the identity map, whose inverse returns its input
                    want = x if slope == 1.0 else four_pass_leaky(x, 1.0 / slope)
            with warnings.catch_warnings():
                # Where the formula warns (a huge slope times a huge value
                # overflows) the two-pass form may warn as well.
                warnings.simplefilter("ignore" if caught else "error")
                got = getattr(act, direction)(x)
            assert got.tobytes() == want.tobytes(), (x, slope)

    @pytest.mark.parametrize("slope", [0.2, 0.5, 0.8, 1.5])
    def test_leaky_random_values_equal_the_four_pass_form(self, slope):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((4, 300)) * 10.0 ** rng.integers(-320, 300, (4, 300))
        act = Activation("leaky_relu", slope)
        assert act.apply(x).tobytes() == four_pass_leaky(x, slope).tobytes()
        assert act.inverse(x).tobytes() == four_pass_leaky(x, 1.0 / slope).tobytes()

    @pytest.mark.parametrize("activation", [
        Activation(), Activation("relu"), Activation("leaky_relu", 0.3),
        Activation("leaky_relu", 1.0), Activation("leaky_relu", 2.5), Activation("sigmoid"),
    ], ids=["identity", "relu", "leaky_0.3", "leaky_1.0", "leaky_2.5", "sigmoid"])
    @pytest.mark.parametrize("batch", [(), (5,)], ids=["single", "batched"])
    def test_network_equals_the_layered_path(self, activation, batch, monkeypatch):
        rng = np.random.default_rng(27)
        net = FiniteRankNetwork([
            random_layer(rng, n=4, d_in=2, d_out=3, activation=activation),
            random_layer(rng, n=4, d_in=3, d_out=3, activation=activation),
            random_layer(rng, n=4, d_in=3, d_out=2),
        ])
        grid = Grid(0.0, 1.0, 64)
        u = SpectralCoeffs(BASIS, 4, rng.standard_normal((*batch, 2, 4)))
        got = apply_network(net, u, grid)
        want = layered_network(net, u, grid, monkeypatch)
        assert (got.basis, got.n, got.coeffs.shape) == (want.basis, want.n, (*batch, 2, 4))
        assert got.coeffs.tobytes() == want.coeffs.tobytes()

    @pytest.mark.parametrize("mode, activation", [
        ("relu", Activation("relu")), ("injective", Activation("leaky_relu", 0.4)),
    ], ids=["relu", "leaky"])
    @pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "batched"])
    def test_lifted_network_equals_the_layered_path(self, mode, activation, batch, monkeypatch):
        # The lifted net's last layer maps order n to n_total > n.
        rng = np.random.default_rng(28)
        net = FiniteRankNetwork([
            random_layer(rng, n=3, d_in=2, d_out=3, activation=activation),
            random_layer(rng, n=3, d_in=3, d_out=3, activation=activation),
            random_layer(rng, n=3, d_in=3, d_out=2),
        ])
        lifted = lift_to_injective(net, mode=mode, alpha=0.1).network
        assert lifted.n_out > lifted.n
        grid = Grid(0.0, 1.0, 256)
        u = SpectralCoeffs(BASIS, 3, rng.standard_normal((*batch, 2, 3)))
        got = apply_network(lifted, u, grid)
        want = layered_network(lifted, u, grid, monkeypatch)
        assert got.n == want.n == lifted.n_out
        assert got.coeffs.tobytes() == want.coeffs.tobytes()

    def test_network_wraps_only_its_result(self, spectral_coeffs_built):
        rng = np.random.default_rng(29)
        act = Activation("leaky_relu", 0.3)
        net = FiniteRankNetwork([random_layer(rng, d_in=2, d_out=3, activation=act),
                                 random_layer(rng, d_in=3, d_out=3, activation=act),
                                 random_layer(rng, d_in=3, d_out=2)])
        u = SpectralCoeffs(BASIS, 4, rng.standard_normal((2, 4)))
        spectral_coeffs_built.clear()
        out = apply_network(net, u, Grid(0.0, 1.0, 64))
        assert spectral_coeffs_built == [out]

    @pytest.mark.parametrize("batch", [(), (4,)], ids=["single", "batched"])
    @pytest.mark.parametrize("shape, message", [
        ((2, 3), "coefficient order 3 != layer order 4"),
        ((3, 4), "3 channels fed to a d_in=2 layer"),
    ], ids=["order", "channels"])
    def test_network_checks_its_input(self, batch, shape, message):
        rng = np.random.default_rng(30)
        net = FiniteRankNetwork([random_layer(rng, d_in=2, d_out=3, activation=Activation("relu")),
                                 random_layer(rng, d_in=3, d_out=1)])
        u = SpectralCoeffs(BASIS, shape[-1], rng.standard_normal((*batch, *shape)))
        with pytest.raises(DimensionError, match=message):
            apply_network(net, u, Grid(0.0, 1.0, 64))


@pytest.mark.parametrize("coeffs_basis", [
    BasisSpec("step_haar", (0.0, 1.0)),
    BasisSpec("fourier", (0.0, 2.0)),
], ids=["step_haar", "fourier_on_0_2"])
@pytest.mark.parametrize("apply", [
    lambda layer, net, u, grid: apply_finite_rank(layer, u),
    lambda layer, net, u, grid: apply_affine(layer, u),
    lambda layer, net, u, grid: apply_layer(layer, u, grid),
    lambda layer, net, u, grid: apply_network(net, u, grid),
], ids=["finite_rank", "affine", "layer", "network"])
def test_layer_maps_refuse_coefficients_in_another_basis(coeffs_basis, apply):
    rng = np.random.default_rng(31)
    layer = random_layer(rng, n=2, d_in=1, d_out=1, activation=Activation("relu"))
    net = FiniteRankNetwork([layer, random_layer(rng, n=2, d_in=1, d_out=1)])
    u = SpectralCoeffs(coeffs_basis, 2, rng.standard_normal((1, 2)))
    with pytest.raises(DimensionError, match=r"coefficients in BasisSpec.* fed to a layer in "
                                             r"BasisSpec\('fourier', interval=\(0.0, 1.0\)\)"):
        apply(layer, net, u, Grid(0.0, 1.0, 64))


class TestTruncateKernel:
    def test_separable_trig_kernel(self):
        # k(x, y) = 1 + sin(2 pi x) cos(2 pi y) lies in the span of the first
        # three modes: phi_1 phi_1 + (1/2) phi_3(x) phi_2(y).
        grid = Grid(0.0, 1.0, 512)

        def kernel(x, y):
            return 1.0 + np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)

        res = truncate_kernel(kernel, grid, BASIS, 3)
        coeff = res.layer.c[:, :, 0, 0]
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        expected[1, 2] = 0.5  # input mode 2 (cos), output mode 3 (sin)
        assert_allclose(coeff, expected, atol=1e-12)
        assert res.hs_tail <= 1e-6

    def test_diagonal_kernel_tail(self):
        grid = Grid(0.0, 1.0, 512)
        rates = [0.5**k for k in range(8)]

        def kernel(x, y):
            phi_x = BASIS.eval_modes(np.atleast_1d(x.ravel()), 8)
            phi_y = BASIS.eval_modes(np.atleast_1d(y.ravel()), 8)
            out = np.zeros((x + y).shape)
            for k, a in enumerate(rates):
                out += a * (phi_x[k].reshape(x.shape) * phi_y[k].reshape(y.shape))
            return out

        res = truncate_kernel(kernel, grid, BASIS, 4)
        coeff = res.layer.c[:, :, 0, 0]
        assert_allclose(coeff, np.diag(rates[:4]), atol=1e-10)
        expected_tail = math.sqrt(sum(a * a for a in rates[4:]))
        assert_allclose(res.hs_tail, expected_tail, rtol=1e-6)

    @pytest.mark.parametrize("basis, size, n", [
        (BASIS, 33, 33),
        (BASIS, 64, 200),
        (BasisSpec("step_haar", (0.0, 1.0)), 100, 3),
    ], ids=["fourier_33_nodes_rank_33", "fourier_64_nodes_rank_200", "step_haar_off_dyadic"])
    def test_unresolved_order_is_refused(self, basis, size, n):
        # The guards of to_spectral: size >= 8 n, and modes orthonormal
        # under the quadrature (step modes miss the nodes of a 100-node grid).
        grid = Grid(0.0, 1.0, size)
        with pytest.raises(AliasingGuardError):
            truncate_kernel(lambda x, y: np.exp(-np.abs(x - y)), grid, basis, n)

    @pytest.mark.parametrize("stored", [
        lambda x, y: 0.5,
        lambda x, y: np.cos(3.0 * y),
        lambda x, y: np.cos(3.0 * x),
    ], ids=["scalar", "row", "column"])
    def test_zero_stride_table_truncates_as_its_contiguous_copy(self, stored):
        # A broadcast table has zero strides; matmul on it rounds differently
        # from BLAS on the same values stored contiguously.
        grid = Grid(0.0, 1.0, 128)
        broadcast = lambda x, y: np.broadcast_to(stored(x, y), (grid.size, grid.size))
        got = truncate_kernel(broadcast, grid, BASIS, 8)
        want = truncate_kernel(lambda x, y: np.array(broadcast(x, y)), grid, BASIS, 8)
        assert got.layer.mat.tobytes() == want.layer.mat.tobytes()
        assert (got.hs_tail, got.tail_clamped) == (want.hs_tail, want.tail_clamped)

    def test_inside_span_kernel_clamps(self):
        grid = Grid(0.0, 1.0, 256)
        res = truncate_kernel(lambda x, y: 1.0 + 0.0 * (x + y), grid, BASIS, 2)
        assert res.hs_tail == 0.0
        assert_allclose(res.layer.c[0, 0, 0, 0], 1.0, atol=1e-13)
