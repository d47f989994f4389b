"""File formats: canonical JSON, grid CSV, traces, and round trips."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from numpy.testing import assert_allclose

from injop.errors import DimensionError, UsageError
from injop.finite_rank import Activation, FiniteRankLayer, FiniteRankNetwork, zero_bias
from injop.funcspace import BasisSpec, Grid, GridFunction, SpectralCoeffs
from injop.nonlin import (
    InversionTrace,
    LinearTableKernel,
    NonlinearIntegralOperator,
    SigmoidSumKernel,
    SoftmaxAttentionKernel,
    VolterraKernel,
    WireKernel,
    invert_banach,
)
from injop.atlas import build_atlas
from injop.serialize import (
    TRACE_HEADER,
    canonical_json,
    format_float,
    kernel_from_obj,
    kernel_to_obj,
    load_atlas,
    load_network,
    load_operator,
    read_grid_function_csv,
    read_json,
    save_atlas,
    save_network,
    save_operator,
    write_grid_function_csv,
    write_json,
    write_trace_csv,
)

BASIS = BasisSpec("fourier", (0.0, 1.0))


class TestFloats:
    def test_round_trip_precision(self):
        for x in (0.1, 1.0 / 3.0, -2.5e-300, 7.1e17, 0.0):
            assert float(format_float(x)) == x

    def test_non_finite_rejected(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError):
                format_float(bad)

    def test_canonical_json_stable(self):
        obj = {"b": 1.5, "a": [1.0 / 3.0, 2]}
        assert canonical_json(obj) == canonical_json(obj)
        assert "0.33333333333333331" in canonical_json(obj)

    def test_unserializable_object_leaves_file_as_it_was(self, tmp_path):
        path = str(tmp_path / "report.json")
        write_json({"residual": 0.5}, path)
        with open(path, "rb") as fh:
            before = fh.read()
        with pytest.raises(ValueError, match="non-finite"):
            write_json({"residual": float("nan")}, path)
        with open(path, "rb") as fh:
            assert fh.read() == before


PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)

#: Edge values: signed zero, subnormals, the extremes, integral floats.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.7976931348623157e308,
               3.0, -17.0, 2.0**53, 1e16, 0.1, 1.0 / 3.0]


def finite_arrays(dtype):
    width = np.dtype(dtype).itemsize * 8
    return arrays(dtype, array_shapes(min_dims=1, max_dims=4, max_side=4),
                  elements=st.floats(allow_nan=False, allow_infinity=False, width=width))


def per_element_json(arr):
    """The reference: :func:`format_float` on each element, one at a time,
    with the brackets nested by shape."""
    if arr.ndim == 1:
        return "[" + ",".join(format_float(x) for x in arr.ravel().tolist()) + "]"
    return "[" + ",".join(per_element_json(sub) for sub in arr) + "]"


def per_element_csv(f):
    """The reference grid CSV: one node at a time, one cell at a time."""
    lines = ["x," + ",".join(f"ch{c}" for c in range(f.channels))]
    for i, x in enumerate(f.grid.nodes):
        lines.append(",".join(format_float(v) for v in [x, *f.values[:, i].tolist()]))
    return "\n".join(lines) + "\n"


def format_float_error(arr):
    """The message format_float gives for the first non-finite element in C order."""
    for x in arr.ravel().tolist():
        try:
            format_float(x)
        except ValueError as err:
            return str(err)
    raise AssertionError("no non-finite element")


@st.composite
def arrays_with_non_finite(draw):
    arr = draw(finite_arrays(np.float64)).copy()
    for _ in range(draw(st.integers(1, 3))):
        arr.flat[draw(st.integers(0, arr.size - 1))] = draw(st.sampled_from(
            [np.nan, np.inf, -np.inf]))
    return arr


class TestArrayFormatting:
    """A float array is formatted one array at a time, to the same bytes as
    :func:`format_float` on each element."""

    @PROPERTY
    @given(st.one_of(finite_arrays(np.float64), finite_arrays(np.float32)))
    def test_json_matches_per_element_reference(self, arr):
        assert canonical_json(arr) == per_element_json(arr)
        assert canonical_json(arr.T) == per_element_json(arr.T)  # not C-contiguous

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_edge_values(self, dtype):
        info = np.finfo(dtype)
        with np.errstate(over="ignore"):  # +-1e308 overflow to infinity in float32
            arr = np.array(EDGE_FLOATS + [info.max, -info.smallest_subnormal], dtype=dtype)
        arr = np.resize(arr[np.isfinite(arr)], 12)
        for shaped in (arr, arr.reshape(3, 4), arr.reshape(1, 2, 3, 2)):
            assert canonical_json(shaped) == per_element_json(shaped)
        assert canonical_json(np.array([-0.0, 5e-324, 3.0])) == "[-0,4.9406564584124654e-324,3]"

    @PROPERTY
    @given(arrays_with_non_finite())
    def test_first_non_finite_element_is_named(self, arr):
        with pytest.raises(ValueError) as got:
            canonical_json({"w": arr})
        assert str(got.value) == format_float_error(arr)

    @pytest.mark.parametrize("arr, text", [
        (np.array(3.0), "3"),
        (np.array(0.1), "0.10000000000000001"),
        (np.array(7), "7"),
        (np.array([]), "[]"),
        (np.zeros((2, 0)), "[[],[]]"),
        (np.zeros((0, 3)), "[]"),
        (np.array([[1, -2], [3, 4]]), "[[1,-2],[3,4]]"),
        (np.array([True, False]), "[true,false]"),
    ])
    def test_other_arrays_take_the_generic_route(self, arr, text):
        assert canonical_json(arr) == text

    def test_zero_dim_array_is_written_as_its_scalar(self):
        assert canonical_json({"c": np.array(2.5)}) == canonical_json({"c": np.float64(2.5)})

    def test_complex_array_is_refused(self):
        with pytest.raises(TypeError, match="cannot serialize complex"):
            canonical_json(np.array([1.0 + 2.0j]))

    @PROPERTY
    @given(st.integers(1, 3), st.integers(2, 9), st.floats(-1e3, 1e3), st.floats(1e-3, 1e3),
           st.data())
    def test_csv_matches_per_element_reference(self, channels, size, a, length, data):
        values = data.draw(arrays(np.float64, (channels, size),
                                  elements=st.floats(allow_nan=False, allow_infinity=False)))
        f = GridFunction(Grid(a, a + length, size), values)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.csv")
            write_grid_function_csv(f, path)
            with open(path, newline="") as fh:
                assert fh.read() == per_element_csv(f)

    def test_csv_non_finite_leaves_file_as_it_was(self, tmp_path):
        path = str(tmp_path / "f.csv")
        grid = Grid(0.0, 1.0, 5)
        write_grid_function_csv(GridFunction(grid, np.ones((2, 5))), path)
        values = np.ones((2, 5))
        values[1, 2], values[0, 3] = -np.inf, np.nan
        with pytest.raises(ValueError, match=r"^cannot serialize non-finite value -inf$"):
            write_grid_function_csv(GridFunction(grid, values), path)
        with open(path) as fh:
            assert fh.read() == per_element_csv(GridFunction(grid, np.ones((2, 5))))

    def test_batched_grid_function_is_refused(self, tmp_path):
        path = str(tmp_path / "f.csv")
        grid = Grid(0.0, 1.0, 5)
        write_grid_function_csv(GridFunction(grid, np.ones(5)), path)
        with pytest.raises(DimensionError, match=r"one function of shape \(h, M\)"):
            write_grid_function_csv(GridFunction(grid, np.zeros((3, 1, 5))), path)
        with open(path) as fh:
            assert fh.read() == per_element_csv(GridFunction(grid, np.ones(5)))


def random_network(rng, n=3):
    hidden = FiniteRankLayer(
        d_in=1, d_out=2, n=n,
        c=rng.standard_normal((n, n, 2, 1)),
        bias=SpectralCoeffs(BASIS, n, rng.standard_normal((2, n))),
        activation=Activation("leaky_relu", 0.3),
    )
    final = FiniteRankLayer(
        d_in=2, d_out=1, n=n,
        c=rng.standard_normal((n, n, 1, 2)),
        bias=SpectralCoeffs(BASIS, n, rng.standard_normal((1, n))),
    )
    return FiniteRankNetwork([hidden, final])


class TestNetworkFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(81)
        net = random_network(rng)
        path = str(tmp_path / "net.json")
        save_network(net, path)
        back = load_network(path)
        assert len(back.layers) == 2
        for a, b in zip(net.layers, back.layers):
            assert np.array_equal(a.c, b.c)
            assert np.array_equal(a.bias.coeffs, b.bias.coeffs)
            assert a.activation == b.activation
        path2 = str(tmp_path / "net2.json")
        save_network(back, path2)
        with open(path, "rb") as fh1, open(path2, "rb") as fh2:
            assert fh1.read() == fh2.read()

    def test_negative_zero_keeps_its_sign(self, tmp_path):
        net = random_network(np.random.default_rng(83))
        net.layers[0].c[0, 0, 0, 0] = -0.0
        path = str(tmp_path / "net.json")
        save_network(net, path)
        assert np.signbit(load_network(path).layers[0].c[0, 0, 0, 0])

    def test_file_ends_with_newline(self, tmp_path):
        path = str(tmp_path / "net.json")
        save_network(random_network(np.random.default_rng(0)), path)
        with open(path, "rb") as fh:
            assert fh.read().endswith(b"\n")


def golden_network(rectangular=False):
    """Two dyadic layers at order 2; the rectangular variant's last layer
    maps order 2 to order 3."""
    hidden = FiniteRankLayer(
        d_in=1, d_out=2, n=2,
        c=np.arange(8.0).reshape(2, 2, 2, 1) / 8.0 - 0.25,
        bias=SpectralCoeffs(BASIS, 2, np.array([[0.1, 0.0], [-0.5, 0.25]])),
        activation=Activation("leaky_relu", 0.2),
    )
    c = np.array([1.0, -2.0, 0.5, 0.0, 0.0, 3.0, -0.125, 1.0]).reshape(2, 2, 1, 2)
    if rectangular:
        c = np.concatenate([c, np.full((2, 1, 1, 2), 0.75)], axis=1)
        final = FiniteRankLayer(d_in=2, d_out=1, n=2, c=c, bias=zero_bias(BASIS, 1, 3), n_out=3)
    else:
        final = FiniteRankLayer(d_in=2, d_out=1, n=2, c=c, bias=zero_bias(BASIS, 1, 2))
    return FiniteRankNetwork([hidden, final])


class TestNetworkLayout:
    """Canonical network JSON, pinned byte for byte.  A square network's
    file names no output orders; a layer whose output order differs from
    its input order carries ``n_out``."""

    HIDDEN = ('{"d_in":1,"d_out":2,"activation":{"kind":"leaky_relu","a":0.20000000000000001},'
              '"C":[[[[-0.25],[-0.125]],[[0],[0.125]]],[[[0.25],[0.375]],[[0.5],[0.625]]]],'
              '"bias":[[0.10000000000000001,0],[-0.5,0.25]]}')

    @pytest.mark.parametrize("rectangular, final", [
        (False, '{"d_in":2,"d_out":1,"activation":{"kind":"identity"},'
                '"C":[[[[1,-2]],[[0.5,0]]],[[[0,3]],[[-0.125,1]]]],"bias":[[0,0]]}'),
        (True, '{"d_in":2,"d_out":1,"n_out":3,"activation":{"kind":"identity"},'
               '"C":[[[[1,-2]],[[0.5,0]],[[0.75,0.75]]],[[[0,3]],[[-0.125,1]],[[0.75,0.75]]]],'
               '"bias":[[0,0,0]]}'),
    ], ids=["square", "rectangular"])
    def test_layout_is_pinned(self, tmp_path, rectangular, final):
        first, second = str(tmp_path / "net.json"), str(tmp_path / "again.json")
        save_network(golden_network(rectangular), first)
        text = '{"basis":{"kind":"fourier","interval":[0,1]},"N":2,"layers":[%s,%s]}\n'
        assert open(first).read() == text % (self.HIDDEN, final)
        save_network(load_network(first), second)
        assert open(second, "rb").read() == open(first, "rb").read()


class TestGridCsv:
    def test_round_trip(self, tmp_path):
        g = Grid(0.0, 1.0, 65)
        rng = np.random.default_rng(82)
        f = GridFunction(g, rng.standard_normal((2, 65)))
        path = str(tmp_path / "f.csv")
        write_grid_function_csv(f, path)
        with open(path) as fh:
            assert fh.readline().strip() == "x,ch0,ch1"
        back = read_grid_function_csv(path)
        assert back.grid.size == 65
        assert_allclose(back.values, f.values, atol=0)

    def test_grid_cross_check(self, tmp_path):
        g = Grid(0.0, 1.0, 33)
        f = GridFunction(g, np.zeros(33))
        path = str(tmp_path / "f.csv")
        write_grid_function_csv(f, path)
        read_grid_function_csv(path, grid=g)
        with pytest.raises(UsageError, match="33 nodes .* 32 nodes"):
            read_grid_function_csv(path, grid=Grid(0.0, 1.0, 32))

    def test_bad_header_is_usage_error(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("time,value\n0,1\n")
        with pytest.raises(UsageError):
            read_grid_function_csv(path)


class TestTraceCsv:
    def test_layout(self, tmp_path):
        trace = InversionTrace(
            residuals_l2=[1.0, 0.5, 0.25],
            residuals_h1=[2.0, 1.0, 0.5],
            ratios=[0.5, 0.5],
            converged=True,
            iterations=3,
        )
        path = str(tmp_path / "trace.csv")
        write_trace_csv(trace, path)
        lines = open(path).read().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1" and first[3] == ""
        assert float(lines[2].split(",")[3]) == 0.5


class TestKernels:
    @pytest.mark.parametrize("kernel", [
        SigmoidSumKernel([(0.4, 1.0, -0.2)], signature="u(y)"),
        SigmoidSumKernel([(0.2, 2.0, 0.0), (0.1, -1.0, 0.5)], signature="u(x)"),
        WireKernel(3.0, [(0.5, 1.0, 0.1)], signature="u(y)"),
        VolterraKernel(base=2.0, nonlinearity="sigmoid"),
        VolterraKernel(),
        SoftmaxAttentionKernel([[1.0, 0.2], [0.0, 1.0]], [[1.0, 0.0], [0.3, 1.0]]),
        LinearTableKernel(0.4),
        WireKernel(2.0, [(0.3, -1.0, 0.0)], signature="u(x)"),
    ])
    def test_kernel_object_round_trip(self, kernel):
        obj = kernel_to_obj(kernel)
        back = kernel_from_obj(obj)
        assert canonical_json(kernel_to_obj(back)) == canonical_json(obj)
        assert back.kind == kernel.kind

    def test_callable_table_rejected(self):
        from injop.nonlin import LinearTableKernel

        with pytest.raises(TypeError):
            kernel_to_obj(LinearTableKernel(lambda x, y: x + y))

    def test_dense_table_round_trip(self, tmp_path):
        from injop.nonlin import LinearTableKernel

        g = Grid(0.0, 1.0, 17)
        rng = np.random.default_rng(83)
        table = rng.standard_normal((17, 17))
        op = NonlinearIntegralOperator(g, LinearTableKernel(table), w=1.5)
        path = str(tmp_path / "op.json")
        save_operator(op, path)
        back = load_operator(path)
        u = GridFunction(g, rng.standard_normal(17))
        assert_allclose(back.apply(u).values, op.apply(u).values, atol=0)


GOLDEN_GRID = Grid(0.0, 1.0, 3)
GOLDEN_TABLE = np.array([[0.5, -0.25, 1.0], [0.0, 2.0, 0.125], [-1.5, 0.75, 0.25]])


class TestOperatorLayout:
    """Canonical operator JSON for each kernel layout, pinned byte for byte."""

    @pytest.mark.parametrize("make_op, text", [
        (lambda: NonlinearIntegralOperator(
            GOLDEN_GRID,
            SigmoidSumKernel([(0.2, 2.0, 0.0), (0.1, -1.0, 0.5)], signature="u(x)"),
            w=1.5, bias=GridFunction(GOLDEN_GRID, np.array([0.1, 0.0, -0.1]))),
         '{"grid":{"a":0,"b":1,"size":3},"w":[1.5,1.5,1.5],"kernel":{"kind":"sigmoid_sum",'
         '"signature":["x","y","u(x)"],"terms":[{"c":0.20000000000000001,"a":2,"b":0},'
         '{"c":0.10000000000000001,"a":-1,"b":0.5}]},'
         '"bias":[[0.10000000000000001,0,-0.10000000000000001]]}'),
        (lambda: NonlinearIntegralOperator(
            GOLDEN_GRID,
            SigmoidSumKernel([(GOLDEN_TABLE, 1.0, -0.2), (0.1, 2.0, 0.0)], signature="u(y)")),
         '{"grid":{"a":0,"b":1,"size":3},"w":[1,1,1],"kernel":{"kind":"sigmoid_sum",'
         '"signature":["x","y","u(y)"],"terms":[{"c":[[0.5,-0.25,1],[0,2,0.125],'
         '[-1.5,0.75,0.25]],"a":1,"b":-0.20000000000000001},'
         '{"c":0.10000000000000001,"a":2,"b":0}]}}'),
        (lambda: NonlinearIntegralOperator(
            GOLDEN_GRID, WireKernel(3.0, [(0.5, 1.0, 0.1)], signature="u(y)")),
         '{"grid":{"a":0,"b":1,"size":3},"w":[1,1,1],"kernel":{"kind":"wire",'
         '"signature":["x","y","u(y)"],"omega":3,"terms":[{"c":0.5,"a":1,'
         '"b":0.10000000000000001}]}}'),
        (lambda: NonlinearIntegralOperator(GOLDEN_GRID, VolterraKernel()),
         '{"grid":{"a":0,"b":1,"size":3},"w":[1,1,1],"kernel":{"kind":"volterra",'
         '"signature":["x","y"],"base":1,"nonlinearity":"none"}}'),
        (lambda: NonlinearIntegralOperator(
            GOLDEN_GRID, VolterraKernel(base=2.0, nonlinearity="sigmoid"),
            w=np.array([1.0, 2.0, 0.5])),
         '{"grid":{"a":0,"b":1,"size":3},"w":[1,2,0.5],"kernel":{"kind":"volterra",'
         '"signature":["x","y","u(y)"],"base":2,"nonlinearity":"sigmoid"}}'),
        (lambda: NonlinearIntegralOperator(GOLDEN_GRID, LinearTableKernel(0.4)),
         '{"grid":{"a":0,"b":1,"size":3},"w":[1,1,1],"kernel":{"kind":"linear_table",'
         '"signature":["x","y"],"table":0.40000000000000002}}'),
        (lambda: NonlinearIntegralOperator(GOLDEN_GRID, LinearTableKernel(GOLDEN_TABLE), w=1.5),
         '{"grid":{"a":0,"b":1,"size":3},"w":[1.5,1.5,1.5],"kernel":{"kind":"linear_table",'
         '"signature":["x","y"],"table":[[0.5,-0.25,1],[0,2,0.125],[-1.5,0.75,0.25]]}}'),
        (lambda: NonlinearIntegralOperator(
            GOLDEN_GRID,
            SoftmaxAttentionKernel([[1.0, 0.2], [0.0, 1.0]], [[1.0, 0.0], [0.3, 1.0]])),
         '{"grid":{"a":0,"b":1,"size":3},"w":[1,1,1],"kernel":{"kind":"softmax_attention",'
         '"signature":["x","y","u(x)","u(y)"],"A":[[1,0.20000000000000001],[0,1]],'
         '"B":[[1,0],[0.29999999999999999,1]]}}'),
    ], ids=["sigmoid_sum_ux", "sigmoid_sum_uy_table", "wire", "volterra_none",
            "volterra_sigmoid", "linear_table_scalar", "linear_table_table",
            "softmax_attention"])
    def test_layout_is_pinned(self, tmp_path, make_op, text):
        first, second = str(tmp_path / "op.json"), str(tmp_path / "again.json")
        save_operator(make_op(), first)
        assert open(first).read() == text + "\n"
        save_operator(load_operator(first), second)
        assert open(second, "rb").read() == open(first, "rb").read()


class TestOperatorFiles:
    def test_round_trip_with_bias_and_field(self, tmp_path):
        g = Grid(0.0, 1.0, 33)
        rng = np.random.default_rng(84)
        kern = SigmoidSumKernel([(0.3, 1.0, 0.0)], signature="u(y)")
        op = NonlinearIntegralOperator(
            g, kern,
            w=1.0 + 0.1 * np.sin(2 * np.pi * g.nodes),
            bias=GridFunction(g, rng.standard_normal(33)),
        )
        path = str(tmp_path / "op.json")
        save_operator(op, path)
        back = load_operator(path)
        u = GridFunction(g, rng.standard_normal(33))
        assert_allclose(back.apply(u).values, op.apply(u).values, atol=0)

    @pytest.mark.parametrize("make_kernel", [
        LinearTableKernel,
        lambda table: SigmoidSumKernel([(table, 1.0, -0.2), (0.1, 2.0, 0.0)], signature="u(y)"),
    ], ids=["linear_table", "sigmoid_sum_table"])
    def test_loaded_table_operator_saves_again(self, tmp_path, make_kernel):
        # Dense-table parameters come back as arrays, so a loaded operator
        # can be saved again, byte for byte.
        g = Grid(0.0, 1.0, 17)
        table = np.random.default_rng(85).standard_normal((17, 17))
        op = NonlinearIntegralOperator(g, make_kernel(table), w=1.5)
        first, second = str(tmp_path / "op.json"), str(tmp_path / "again.json")
        save_operator(op, first)
        save_operator(load_operator(first), second)
        assert open(second, "rb").read() == open(first, "rb").read()

    def test_grid_mismatch_detected(self, tmp_path):
        g = Grid(0.0, 1.0, 33)
        op = NonlinearIntegralOperator(g, VolterraKernel())
        path = str(tmp_path / "op.json")
        save_operator(op, path)
        with pytest.raises(Exception):
            load_operator(path, grid=Grid(0.0, 1.0, 65))


class TestAtlasFiles:
    def test_save_and_reload(self, tmp_path):
        g = Grid(0.0, 1.0, 65)
        kern = SigmoidSumKernel([(0.4, 1.0, 0.0)], signature="u(y)")
        op = NonlinearIntegralOperator(g, kern)
        training = [
            GridFunction(g, np.zeros(65)),
            GridFunction(g, np.full(65, 1.5)),
        ]
        atlas = build_atlas(op, training, ell0=3, eps1=0.25)
        d = str(tmp_path / "atlas")
        save_atlas(atlas, d)
        assert os.path.exists(os.path.join(d, "atlas.json"))
        meta = read_json(os.path.join(d, "atlas.json"))
        assert meta["ell0"] == 3
        back = load_atlas(d, op)
        assert len(back.anchors) == len(atlas.anchors)
        assert back.cell_map == atlas.cell_map
        for a, b in zip(atlas.anchors, back.anchors):
            assert_allclose(b.v.values, a.v.values, atol=1e-15)

    def test_stale_atlas_rejected(self, tmp_path):
        # Saved for w = 1 and loaded with w = 2, the anchor images double and
        # land in other cells; the load must refuse instead of re-binning.
        g = Grid(0.0, 1.0, 65)
        kern = SigmoidSumKernel([(0.4, 1.0, 0.0)], signature="u(y)")
        training = [GridFunction(g, np.full(65, 0.5 * j)) for j in range(8)]
        d = str(tmp_path / "atlas")
        save_atlas(build_atlas(NonlinearIntegralOperator(g, kern, w=1.0), training), d)
        with pytest.raises(UsageError, match="stale atlas"):
            load_atlas(d, NonlinearIntegralOperator(g, kern, w=2.0))
