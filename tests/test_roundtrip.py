"""Property tests: every object that can be saved loads and saves again
byte for byte (save -> load -> save)."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from injop.finite_rank import ACTIVATION_KINDS, Activation, FiniteRankLayer, FiniteRankNetwork
from injop.funcspace import BasisSpec, Grid, GridFunction, SpectralCoeffs
from injop.nonlin import (
    LinearTableKernel,
    NonlinearIntegralOperator,
    SigmoidSumKernel,
    SoftmaxAttentionKernel,
    VolterraKernel,
    WireKernel,
)
from injop.atlas import build_atlas
from injop.serialize import (
    load_atlas,
    load_network,
    load_operator,
    read_grid_function_csv,
    save_atlas,
    save_network,
    save_operator,
    write_grid_function_csv,
)

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)

#: Every finite double: signed zeros, subnormals and the extremes included.
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
#: Interval endpoints of a grid or basis.
ENDPOINTS = st.floats(-1e6, 1e6)


def assert_round_trip(save, load, obj, fields):
    """save(obj), load it back and save that: the two files are the same
    bytes, and the loaded object has the same ``fields(obj)``, bit for bit."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first"), os.path.join(tmp, "second")
        save(obj, first)
        back = load(first)
        save(back, second)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()
    assert fields(back) == fields(obj)


def bits(*values):
    """Each value as the bytes of a float64 array (None stays None)."""
    return [None if v is None else np.asarray(v, dtype=np.float64).tobytes() for v in values]


def network_fields(net):
    return [(layer.n, layer.n_out, layer.activation, *bits(layer.c, layer.bias.coeffs))
            for layer in net.layers]


def operator_fields(op):
    k = op.kernel
    params = [p for term in getattr(k, "terms", []) for p in term]
    return (op.grid, k.kind, bits(op.w_values, getattr(op.bias, "values", None), *params,
                                  getattr(k, "omega", None), getattr(k, "a_mat", None),
                                  getattr(k, "b_mat", None)))


def grid_function_fields(f):
    return f.grid, bits(f.values)


@st.composite
def intervals(draw):
    a = draw(ENDPOINTS)
    return a, a + draw(st.floats(1e-3, 1e6))


@st.composite
def activations(draw):
    kind = draw(st.sampled_from(ACTIVATION_KINDS))
    return Activation(kind, draw(FLOATS) if kind == "leaky_relu" else None)


@st.composite
def networks(draw, shape):
    """A network of 1-3 layers; ``shape`` is "square" (every layer keeps
    its order), "rectangular" (some layer changes it) or "negative_zero"
    (square, with -0.0 entries in every kernel and bias)."""
    depth = draw(st.integers(1, 3))
    sizes = st.lists(st.integers(1, 4), min_size=depth + 1, max_size=depth + 1)
    if shape == "rectangular":
        orders = draw(sizes.filter(lambda o: len(set(o)) > 1))
    else:
        orders = [draw(st.integers(1, 4))] * (depth + 1)
    dims = draw(sizes)
    basis = BasisSpec(draw(st.sampled_from(BasisSpec.KINDS)), draw(intervals()))
    layers = []
    for i in range(depth):
        n, n_out, d_in, d_out = orders[i], orders[i + 1], dims[i], dims[i + 1]
        c = draw(arrays(np.float64, (n, n_out, d_out, d_in), elements=FLOATS))
        bias = draw(arrays(np.float64, (d_out, n_out), elements=FLOATS))
        if shape == "negative_zero":
            for a in (c, bias):
                a[draw(arrays(bool, a.shape))] = -0.0
                a.flat[0] = -0.0
        act = draw(activations()) if i < depth - 1 else Activation()  # the last is linear
        layers.append(FiniteRankLayer(d_in, d_out, n, c, SpectralCoeffs(basis, n_out, bias),
                                      act, n_out))
    return FiniteRankNetwork(layers)


#: (kernel kind, dense parameters); attention has matrices, no table parameters.
KERNEL_CASES = [(kind, dense) for kind in ("sigmoid_sum", "wire", "volterra", "linear_table")
                for dense in (False, True)] + [("softmax_attention", False)]


@st.composite
def operators(draw, kind, dense):
    """An operator with a kernel of ``kind`` whose table parameters are
    scalars or, when ``dense``, arrays of shape (M, M), (M, 1) or (1, M);
    the multiplier is a scalar or a field, and a bias is optional."""
    m = draw(st.integers(2, 6))
    grid = Grid(*draw(intervals()), m)
    shapes = st.sampled_from([(m, m), (m, 1), (1, m)])
    param = arrays(np.float64, shapes, elements=FLOATS) if dense else FLOATS
    terms = st.lists(st.tuples(param, param, param), min_size=1, max_size=2)
    signature = st.sampled_from(["u(x)", "u(y)"])
    if kind == "sigmoid_sum":
        kernel = SigmoidSumKernel(draw(terms), draw(signature))
    elif kind == "wire":
        kernel = WireKernel(draw(FLOATS), draw(terms), draw(signature))
    elif kind == "volterra":
        kernel = VolterraKernel(draw(param), draw(st.sampled_from(["none", "sigmoid", "sin"])))
    elif kind == "linear_table":
        kernel = LinearTableKernel(draw(param))
    else:
        d = draw(st.integers(1, 3))
        kernel = SoftmaxAttentionKernel(draw(arrays(np.float64, (d, d), elements=FLOATS)),
                                        draw(arrays(np.float64, (d, d), elements=FLOATS)))
    nonzero = FLOATS.filter(lambda v: abs(v) >= 1e-14)
    w = draw(nonzero | arrays(np.float64, (m,), elements=nonzero))
    bias = draw(st.none() | arrays(np.float64, (kernel.channels, m), elements=FLOATS))
    return NonlinearIntegralOperator(grid, kernel, w=w,
                                     bias=None if bias is None else GridFunction(grid, bias))


@st.composite
def grid_functions(draw):
    grid = Grid(*draw(intervals()), draw(st.integers(2, 12)))
    channels = draw(st.integers(1, 3))
    return GridFunction(grid, draw(arrays(np.float64, (channels, grid.size), elements=FLOATS)))


@pytest.mark.parametrize("shape", ["square", "rectangular", "negative_zero"])
@PROPERTY
@given(data=st.data())
def test_network_files_round_trip(shape, data):
    assert_round_trip(save_network, load_network, data.draw(networks(shape)), network_fields)


@pytest.mark.parametrize("kind, dense", KERNEL_CASES, ids=[
    k if k == "softmax_attention" else f"{k}-{'dense' if d else 'scalar'}" for k, d in KERNEL_CASES
])
@PROPERTY
@given(data=st.data())
def test_operator_files_round_trip(kind, dense, data):
    assert_round_trip(save_operator, load_operator, data.draw(operators(kind, dense)),
                      operator_fields)


@PROPERTY
@given(f=grid_functions())
def test_grid_function_csvs_round_trip(f):
    assert_round_trip(write_grid_function_csv, read_grid_function_csv, f, grid_function_fields)


#: (kernel kind, constant multiplier) for the atlas round trip: the rank-one
#: linearization with constant and non-constant W, and the dense (causal) one.
ATLAS_CASES = [("sigmoid_sum", True), ("sigmoid_sum", False), ("wire", True), ("wire", False),
               ("volterra", True)]


@st.composite
def atlases(draw, kind, constant_w):
    """An atlas of 1-4 anchors over an operator of ``kind`` on u(y) with
    scalar parameters.  The parameters keep every linearization well away
    from singular: |W| >= 1 and the kernel part is at most about 0.6."""
    m = draw(st.integers(8, 40))
    grid = Grid(*draw(intervals()), m)
    small = st.floats(-0.3, 0.3)
    terms = draw(st.lists(st.tuples(small, st.floats(-1.0, 1.0), small), min_size=1,
                          max_size=2))
    scale = 0.6 / (len(terms) * max(1.0, grid.length))
    terms = [(c * scale, a, b) for c, a, b in terms]
    if kind == "sigmoid_sum":
        kernel = SigmoidSumKernel(terms, "u(y)")
    elif kind == "wire":
        kernel = WireKernel(draw(st.floats(0.5, 3.0)), [(c / 4.0, a, b) for c, a, b in terms],
                            "u(y)")
    else:
        kernel = VolterraKernel(terms[0][0], draw(st.sampled_from(["none", "sigmoid", "sin"])))
    magnitude = st.floats(1.0, 4.0)
    w = draw(magnitude) if constant_w else draw(arrays(np.float64, (m,), elements=magnitude))
    w = draw(st.sampled_from([-1.0, 1.0])) * w
    op = NonlinearIntegralOperator(grid, kernel, w=w)
    inputs = draw(st.lists(arrays(np.float64, (1, m), elements=st.floats(-2.0, 2.0)),
                           min_size=1, max_size=4))
    ell0 = draw(st.integers(1, min(4, m)))
    eps1 = draw(st.floats(0.05, 2.0))
    return build_atlas(op, [GridFunction(grid, v) for v in inputs], ell0=ell0, eps1=eps1)


@pytest.mark.filterwarnings("ignore:cell .* hit by anchors")
@pytest.mark.parametrize("kind, constant_w", ATLAS_CASES, ids=[
    f"{k}-{'constant' if c else 'field'}_w" for k, c in ATLAS_CASES])
@PROPERTY
@given(data=st.data())
def test_atlas_files_round_trip(kind, constant_w, data):
    atlas = data.draw(atlases(kind, constant_w))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first"), os.path.join(tmp, "second")
        save_atlas(atlas, first)
        save_atlas(load_atlas(first, atlas.op), second)
        names = sorted(os.listdir(first))
        assert names == sorted(os.listdir(second))
        assert names == sorted(["atlas.json"]
                               + [f"anchor_{j:03d}.csv" for j in range(len(atlas.anchors))])
        for name in names:
            with open(os.path.join(first, name), "rb") as fa, \
                    open(os.path.join(second, name), "rb") as fb:
                assert fa.read() == fb.read(), name
