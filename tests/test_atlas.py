"""Anchored Newton charts, cell routing, and the mask algebra."""

import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import injop.atlas
import injop.nonlin
from injop.errors import DimensionError, OutOfBasinError
from injop.funcspace import Grid, GridFunction, h1_norm, l2_norm
from injop.nonlin import (
    FactorizedFrechet,
    InversionTrace,
    KernelBase,
    LinearTableKernel,
    NonlinearIntegralOperator,
    SigmoidSumKernel,
    SoftmaxAttentionKernel,
    VolterraKernel,
    WireKernel,
    frechet_derivative,
    invert_banach,
    linearize,
)
from injop.atlas import (
    BASIN_PATIENCE,
    Anchor,
    build_atlas,
    cell_key,
    compose_cell_masks,
    global_invert,
    local_invert,
    mask_apply,
    probe_indices,
)
from injop.serialize import load_atlas, save_atlas
from test_nonlin import RIDGE_CASES, _full_outcome, _on_stored_tables

GRID = Grid(0.0, 1.0, 129)


def make_op():
    kern = SigmoidSumKernel([(0.4, 1.0, 0.0)], signature="u(y)")
    return NonlinearIntegralOperator(GRID, kern, w=1.0)


def bench_problem(size):
    """The benchmark's atlas problem (``bench/workloads.py``): a sigmoid-sum
    operator whose contraction estimate exceeds 1, and eight anchor inputs."""
    grid = Grid(0.0, 1.0, size)
    op = NonlinearIntegralOperator(
        grid, SigmoidSumKernel([(2.5, 1.0, 0.0)], signature="u(y)"), w=1.0)
    wave = np.sin(2 * np.pi * grid.nodes)
    return op, [GridFunction(grid, level + 0.3 * wave) for level in np.linspace(-2.0, 2.0, 8)]


def training_set():
    # Images probe far enough apart that each anchor gets its own cell.
    return [
        GridFunction(GRID, np.zeros(GRID.size)),
        GridFunction(GRID, np.full(GRID.size, 1.0)),
        GridFunction(GRID, 2.0 + 0.8 * np.sin(2 * np.pi * GRID.nodes)),
    ]


class TestCells:
    def test_probe_indices_cover_endpoints(self):
        idx = probe_indices(129, 4)
        assert idx[0] == 0 and idx[-1] == 128
        assert len(idx) == 4
        with pytest.raises(ValueError):
            probe_indices(129, 0)

    def test_cell_key_matches_mask_bins(self):
        # 0.125 sits exactly on the shared edge of bins 0 and 1 for
        # eps1 = 1/4; the key assigns it to bin 1 and the bin-1 mask
        # includes it while the bin-0 mask does not.
        idx = np.array([0])
        eps1 = 0.25
        g = GridFunction(GRID, np.full(GRID.size, 0.125))
        key = cell_key(g, idx, eps1)
        assert key == (1,)
        passed = mask_apply(0, 1 * eps1, eps1, g, g)
        blocked = mask_apply(0, 0 * eps1, eps1, g, g)
        assert np.any(passed.values != 0.0)
        assert np.all(blocked.values == 0.0)

    def test_exactly_one_composed_mask_fires(self):
        idx = probe_indices(GRID.size, 3)
        eps1 = 0.25
        rng = np.random.default_rng(71)
        g = GridFunction(GRID, rng.standard_normal(GRID.size))
        own = cell_key(g, idx, eps1)
        candidates = {own}
        for shift in (-1, 1):
            candidates.add(tuple(i + shift for i in own))
        fired = 0
        for cell in candidates:
            out = compose_cell_masks(cell, idx, eps1, g, g)
            if np.any(out.values != 0.0):
                fired += 1
                assert cell == own
        assert fired == 1


class TestBuild:
    def test_anchors_carry_images_and_factorizations(self):
        op = make_op()
        atlas = build_atlas(op, training_set(), ell0=3, eps1=0.25)
        assert len(atlas.anchors) == 3
        for j, anchor in enumerate(atlas.anchors):
            assert anchor.index == j
            assert_allclose(anchor.g.values, op.apply(anchor.v).values, atol=1e-14)
            assert anchor.inv_h1_norm > 0.0
        assert len(atlas.cell_map) == 3
        for key, j in atlas.cell_map.items():
            assert cell_key(atlas.anchors[j].g, atlas.probe_idx, atlas.eps1) == key

    def test_constants_reported(self):
        op = make_op()
        atlas = build_atlas(op, training_set(), ell0=3, eps1=0.25)
        for name in ("C_S", "C_B", "C_H", "R2", "r", "eps0", "eps1"):
            assert name in atlas.constants
        assert atlas.constants["eps0"] > 0.0
        assert atlas.constants["r"] > 0.0
        assert atlas.constants["R2"] == pytest.approx(
            max(v.h1_norm() for v in training_set()), rel=1e-12
        )

    def test_svd_runs_only_near_the_singularity_floor(self, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        atlas = build_atlas(make_op(), training_set(), ell0=3, eps1=0.25)
        assert len(atlas.anchors) == 3 and calls == []
        # The Frobenius bound fails here, so the SVD decides, and accepts.
        FactorizedFrechet(np.diag(np.r_[np.ones(63), 3e-10]))
        assert len(calls) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_training_input_refused(self, bad):
        inputs = training_set()
        inputs[1].values[0, 40] = bad
        with pytest.raises(ValueError, match="training input 1 has non-finite values"):
            build_atlas(make_op(), inputs, ell0=3, eps1=0.25)

    @pytest.mark.parametrize("eps1", [np.nan, np.inf, 0.0, -0.25])
    def test_eps1_must_be_finite_and_positive(self, eps1):
        with pytest.raises(ValueError, match="eps1 must be finite and positive"):
            build_atlas(make_op(), training_set(), ell0=3, eps1=eps1)

    def test_scalar_kernel_atlas_forms_no_dense_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense linearization of a rank-one derivative")

        for name in ("inv", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(injop.nonlin, "frechet_derivative", refuse)
        op = make_op()
        atlas = build_atlas(op, training_set(), ell0=3, eps1=0.25)
        u_true = GridFunction(GRID, 1.0 + 0.05 * np.cos(2 * np.pi * GRID.nodes))
        u, trace = global_invert(atlas, op, op.apply(u_true), tol=1e-10)
        assert trace.converged and trace.meta["anchor"] == 1
        assert h1_norm(GRID, u.values - u_true.values) <= 1e-8

    def test_volterra_atlas_takes_the_dense_path(self, monkeypatch):
        shapes = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: shapes.append(a.shape) or inv(a))
        op = NonlinearIntegralOperator(GRID, VolterraKernel(0.8, "sigmoid"), w=1.0)
        atlas = build_atlas(op, training_set(), ell0=3, eps1=0.25)
        assert shapes == [(GRID.size, GRID.size)] * 3
        u_true = GridFunction(GRID, 1.0 + 0.05 * np.cos(2 * np.pi * GRID.nodes))
        u, trace = global_invert(atlas, op, op.apply(u_true), tol=1e-10)
        assert trace.converged
        assert h1_norm(GRID, u.values - u_true.values) <= 1e-8

    def test_duplicate_cells_warn_and_keep_first(self):
        op = make_op()
        v = GridFunction(GRID, np.zeros(GRID.size))
        with pytest.warns(UserWarning, match="cell"):
            atlas = build_atlas(op, [v, v.copy()], ell0=3, eps1=0.25)
        assert len(atlas.cell_map) == 1
        assert list(atlas.cell_map.values()) == [0]
        assert atlas.warnings


@pytest.mark.parametrize("entry", ["build_atlas", "local_invert", "global_invert"])
def test_one_function_entry_points_refuse_a_batch(entry):
    op = make_op()
    batch = GridFunction(GRID, np.zeros((3, 1, GRID.size)))
    shape = rf"batch of shape \(3, 1, {GRID.size}\)"
    if entry == "build_atlas":
        with pytest.raises(DimensionError, match="training input 1 .*" + shape):
            build_atlas(op, [training_set()[0], batch], ell0=3, eps1=0.25)
        return
    atlas = build_atlas(op, training_set(), ell0=3, eps1=0.25)
    with pytest.raises(DimensionError, match="g .*" + shape):
        if entry == "local_invert":
            local_invert(op, atlas.anchors[0], batch)
        else:
            global_invert(atlas, op, batch)


def test_anchor_images_are_evaluated_in_one_call(integral_calls):
    op, anchors = bench_problem(GRID.size)
    atlas = build_atlas(op, anchors, ell0=4, eps1=0.25)
    assert len(integral_calls) == 1
    for anchor in atlas.anchors:
        assert anchor.g.values.tobytes() == op.apply(anchor.v).values.tobytes()


class TestLocalInvert:
    def test_anchor_image_returns_immediately(self):
        op = make_op()
        atlas = build_atlas(op, training_set(), ell0=3, eps1=0.25)
        anchor = atlas.anchors[2]
        u, trace = local_invert(op, anchor, anchor.g, tol=1e-8)
        assert trace.converged and trace.iterations == 1
        assert_allclose(u.values, anchor.v.values, atol=1e-14)

    def test_nearby_target_converges(self):
        op = make_op()
        atlas = build_atlas(op, training_set(), ell0=3, eps1=0.25)
        anchor = atlas.anchors[0]
        u_true = GridFunction(GRID, anchor.v.values[0] + 0.1 * np.cos(2 * np.pi * GRID.nodes))
        g = op.apply(u_true)
        u, trace = local_invert(op, anchor, g, tol=1e-10)
        assert trace.converged
        assert h1_norm(GRID, u.values - u_true.values) <= 1e-8
        assert trace.meta["ratio_kind"] == "step_h1"
        assert all(r < 1.0 for r in trace.ratios)


class TestEvaluations:
    """Newton starts from the anchor's stored image, so n iterations
    evaluate F (one kernel integral each) n - 1 times."""

    def test_converged_run(self, integral_calls):
        op = make_op()
        anchor = build_atlas(op, training_set(), ell0=3, eps1=0.25).anchors[0]
        g = op.apply(GridFunction(GRID, 0.1 * np.cos(2 * np.pi * GRID.nodes)))
        integral_calls.clear()
        _, trace = local_invert(op, anchor, g, tol=1e-10)
        assert trace.converged and trace.iterations > 2
        assert len(integral_calls) == trace.iterations - 1

    def test_run_to_max_iter(self, integral_calls):
        op = make_op()
        anchor = build_atlas(op, training_set(), ell0=3, eps1=0.25).anchors[0]
        g = op.apply(GridFunction(GRID, np.cos(2 * np.pi * GRID.nodes)))
        integral_calls.clear()
        _, trace = local_invert(op, anchor, g, tol=1e-14, max_iter=3)
        assert not trace.converged and trace.iterations == 3
        assert len(integral_calls) == 2

    def test_anchor_image_needs_no_evaluation(self, integral_calls):
        op = make_op()
        atlas = build_atlas(op, training_set(), ell0=3, eps1=0.25)
        integral_calls.clear()
        for anchor in atlas.anchors:
            _, trace = local_invert(op, anchor, anchor.g)
            assert trace.converged and trace.iterations == 1
        assert integral_calls == []


class _FoldKernel(KernelBase):
    """Test-only kernel -2|u(y)|: flat slope at 0, slope -2 away from it.

    The anchor at zero freezes A = I, so each chord step doubles the
    residual once the iterate is positive; divergence is monotone.
    """

    kind = "test_fold"
    uses_uy = True

    def table(self, x, y, s, t):
        return np.broadcast_to(-2.0 * np.abs(t), np.broadcast_shapes(
            np.shape(x), np.shape(y), np.shape(t)))

    def du(self, x, y, t):
        return np.broadcast_to(-2.0 * np.sign(t), np.broadcast_shapes(
            np.shape(x), np.shape(y), np.shape(t)))


class TestBasinEscape:
    def test_out_of_basin_raises_with_trace(self):
        op = NonlinearIntegralOperator(GRID, _FoldKernel())
        atlas = build_atlas(op, [GridFunction(GRID, np.zeros(GRID.size))],
                            ell0=3, eps1=0.25)
        g = GridFunction(GRID, np.ones(GRID.size))
        with pytest.raises(OutOfBasinError) as err:
            local_invert(op, atlas.anchors[0], g, tol=1e-10, max_iter=50)
        trace = err.value.trace
        assert trace is not None and not trace.converged
        tail = trace.residuals_h1[-6:]
        assert all(b > a for a, b in zip(tail, tail[1:]))

    def test_global_invert_annotates_cell(self):
        op = NonlinearIntegralOperator(GRID, _FoldKernel())
        atlas = build_atlas(op, [GridFunction(GRID, np.zeros(GRID.size))],
                            ell0=3, eps1=0.25)
        g = GridFunction(GRID, np.ones(GRID.size))
        with pytest.raises(OutOfBasinError, match="cell"):
            global_invert(atlas, op, g, tol=1e-10, max_iter=50)

    def test_global_invert_refuses_an_operator_the_atlas_was_not_built_for(self):
        # The first residual reads the stored anchor image, so another
        # operator would converge at once to a u it does not map to g.
        op, anchors = bench_problem(GRID.size)
        atlas = build_atlas(op, anchors, ell0=4, eps1=0.25)
        other = NonlinearIntegralOperator(
            GRID, SigmoidSumKernel([(0.5, 1.0, 0.0)], signature="u(y)"), w=1.0)
        with pytest.raises(ValueError, match="atlas.op"):
            global_invert(atlas, other, atlas.anchors[3].g)
        u, trace = global_invert(atlas, op, atlas.anchors[3].g)
        assert trace.converged and trace.iterations == 1

    def test_local_invert_refuses_an_operator_the_anchor_was_not_built_for(self):
        # Newton's first residual is the stored image minus g: under another
        # operator it reads zero at anchor 3's image, and the u returned
        # misses g by 0.22 in max norm under that operator.
        op, anchors = bench_problem(512)
        anchor = build_atlas(op, anchors, ell0=4, eps1=0.25).anchors[3]
        other = NonlinearIntegralOperator(
            op.grid, SigmoidSumKernel([(0.5, 1.0, 0.0)], signature="u(y)"), w=1.0)
        with pytest.raises(ValueError, match="anchor.op"):
            local_invert(other, anchor, anchor.g)
        u, trace = local_invert(op, anchor, anchor.g)
        assert trace.converged and trace.iterations == 1
        assert anchor.op is op


class _SquareKernel(KernelBase):
    """Test-only kernel u(y), so K(u) = int u^2: from a zero anchor the
    frozen Newton step squares the residual until it overflows."""

    kind = "test_square"

    def table(self, x, y, s, t):
        return np.broadcast_to(t, np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(t)))

    def du(self, x, y, t):
        return np.ones(np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(t)))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
class TestNonFinite:
    def test_local_invert_stops_at_first_non_finite_residual(self):
        op = NonlinearIntegralOperator(GRID, _SquareKernel())
        atlas = build_atlas(op, [GridFunction(GRID, np.zeros(GRID.size))], ell0=3, eps1=0.25)
        g = GridFunction(GRID, np.full(GRID.size, 1e10))
        with pytest.raises(OutOfBasinError, match="non-finite residual at iteration 5") as err:
            local_invert(op, atlas.anchors[0], g, tol=1e-10)
        trace = err.value.trace
        assert trace.iterations == 4 and len(trace.residuals_h1) == 4
        assert np.all(np.isfinite(trace.residuals_l2 + trace.residuals_h1))

    @pytest.mark.parametrize("level", [1e200, 1e306, 1e308])
    def test_huge_target_is_out_of_basin(self, level):
        op = make_op()
        atlas = build_atlas(op, training_set(), ell0=3, eps1=0.25)
        g = GridFunction(GRID, level * (1.0 + 0.5 * GRID.nodes))
        with pytest.raises(OutOfBasinError) as err:
            global_invert(atlas, op, g, tol=1e-10)
        trace = err.value.trace
        assert not trace.converged
        assert np.all(np.isfinite(trace.residuals_l2 + trace.residuals_h1))


def _wrapped_local_invert(
    op: NonlinearIntegralOperator,
    anchor: Anchor,
    g: GridFunction,
    tol: float = 1e-8,
    max_iter: int = 50,
) -> tuple:
    """``local_invert`` as it evaluated F through ``GridFunction`` wraps,
    kept word for word as the oracle for the array loop."""
    op.grid.require_matches(g.grid)
    u = anchor.v.values.copy()
    trace = InversionTrace(
        meta={"method": "newton", "tol": tol, "anchor": anchor.index, "ratio_kind": "step_h1"}
    )
    increases = 0
    prev_step = None
    for m in range(1, max_iter + 1):
        f_u = op.apply(GridFunction(op.grid, u)).values if m > 1 else anchor.g.values
        diff = f_u - g.values
        res_h1 = h1_norm(op.grid, diff)
        res_l2 = l2_norm(op.grid, diff)
        if not (math.isfinite(res_l2) and math.isfinite(res_h1)):
            raise OutOfBasinError(
                f"non-finite residual at iteration {m} near anchor {anchor.index} "
                f"(L2 {res_l2}, H1 {res_h1})",
                trace=trace,
            )
        if trace.residuals_h1:
            increases = increases + 1 if res_h1 > trace.residuals_h1[-1] else 0
        trace.residuals_l2.append(res_l2)
        trace.residuals_h1.append(res_h1)
        trace.iterations = m
        if res_h1 <= tol:
            trace.converged = True
            return GridFunction(op.grid, u), trace
        if increases >= BASIN_PATIENCE:
            raise OutOfBasinError(
                f"H1 residual rose {BASIN_PATIENCE} iterations in a row near anchor "
                f"{anchor.index} (last {res_h1:.3e})",
                trace=trace,
            )
        step = anchor.fact.solve(diff[0])
        u = u - step
        step_norm = h1_norm(op.grid, step)
        if prev_step is not None and prev_step > 0:
            trace.ratios.append(step_norm / prev_step)
        prev_step = step_norm
    return GridFunction(op.grid, u), trace


def _chart(kernel, grid, w=2.0):
    """An operator, an anchor at a smooth v and a target F(v + dv).  A kernel
    that reads u(x) has no linearization; its anchor freezes A = diag(W),
    the chord of the contraction map."""
    op = NonlinearIntegralOperator(grid, kernel, w=w)
    v = GridFunction(grid, 0.2 + 0.3 * np.sin(2 * np.pi * grid.nodes))
    fact = (FactorizedFrechet(op.w_values, np.zeros(grid.size)) if "u(x)" in kernel.reads
            else linearize(op, v))
    target = op.apply(GridFunction(grid, v.values[0] + 0.1 * np.cos(2 * np.pi * grid.nodes)))
    return op, Anchor(index=3, v=v, g=op.apply(v), fact=fact, op=op), target


#: (operator, anchor, target, max_iter) on a grid, by the path the solve
#: takes: every ridge case and attention converge; then the max_iter,
#: rising-residual and non-finite-residual exits.
LOCAL_CASES = {
    **{name: (lambda grid, make=make: (*_chart(make(grid.nodes), grid), 50), "converged")
       for name, make in RIDGE_CASES.items()},
    "softmax_attention": (lambda grid: (
        *_chart(SoftmaxAttentionKernel([[1.0]], [[0.5]]), grid), 50), "converged"),
    "max_iter": (lambda grid: (
        *_chart(SigmoidSumKernel([(0.4, 1.0, 0.0)], "u(y)"), grid), 3), "max_iter"),
    "out_of_basin": (lambda grid: (
        *_chart(_FoldKernel(), grid, w=1.0)[:2], GridFunction(grid, np.ones(grid.size)), 50),
        "H1 residual rose"),
    "non_finite": (lambda grid: (
        *_chart(_SquareKernel(), grid, w=1.0)[:2],
        GridFunction(grid, np.full(grid.size, 1e10)), 50), "non-finite residual"),
}


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("size", [33, 64, 257])
@pytest.mark.parametrize("name", sorted(LOCAL_CASES))
def test_array_newton_is_the_wrapped_newton_bit_for_bit(name, size):
    make, path = LOCAL_CASES[name]
    op, anchor, g, max_iter = make(Grid(0.0, 1.0, size))
    got = _full_outcome(local_invert, op, anchor, g, tol=1e-12, max_iter=max_iter)
    assert got == _on_stored_tables(_wrapped_local_invert, op, anchor, g, tol=1e-12,
                                    max_iter=max_iter)
    solution, _, _, _, iterations, converged, _, error, message = got
    if path == "converged":
        assert converged and error is type(None)
    elif path == "max_iter":
        assert solution is not None and not converged and iterations == max_iter
    else:
        assert error is OutOfBasinError and message.startswith(path)


def test_inversion_loops_wrap_only_their_result(grid_functions_built):
    """Each loop checks its target once and steps on arrays: one call builds
    one ``GridFunction``, the solution it returns."""
    grid = Grid(0.0, 1.0, 129)
    op = NonlinearIntegralOperator(grid, SigmoidSumKernel([(0.4, 1.0, 0.0)], "u(y)"), w=1.0)
    z = op.apply(GridFunction(grid, np.cos(2 * np.pi * grid.nodes)))
    zero = GridFunction(grid, np.zeros(grid.size))
    chord = Anchor(index=0, v=zero, g=op.apply(zero),
                   fact=FactorizedFrechet(op.w_values, np.zeros(grid.size)), op=op)
    for solve in (lambda: invert_banach(op, z, tol=1e-13, max_iter=100),
                  lambda: local_invert(op, chord, z, tol=1e-13, max_iter=100)):
        grid_functions_built.clear()
        u, trace = solve()
        assert trace.converged and trace.iterations >= 10
        assert len(grid_functions_built) == 1 and grid_functions_built[0] is u


class TestGlobalInvert:
    def test_round_trip_through_cells(self):
        op = make_op()
        atlas = build_atlas(op, training_set(), ell0=3, eps1=0.25)
        rng = np.random.default_rng(72)
        for j, anchor in enumerate(atlas.anchors):
            u_true = GridFunction(
                GRID, anchor.v.values[0] + 0.05 * rng.standard_normal() * np.ones(GRID.size)
            )
            g = op.apply(u_true)
            u, trace = global_invert(atlas, op, g, tol=1e-10)
            assert trace.converged
            assert h1_norm(GRID, u.values - u_true.values) <= 1e-8

    def test_anchor_images_route_to_own_cell(self):
        op = make_op()
        atlas = build_atlas(op, training_set(), ell0=3, eps1=0.25)
        for j, anchor in enumerate(atlas.anchors):
            u, trace = global_invert(atlas, op, anchor.g, tol=1e-8)
            assert trace.meta["anchor"] == j
            assert trace.meta["fallback"] is False

    def test_unseen_cell_falls_back_to_nearest(self):
        op = make_op()
        atlas = build_atlas(op, training_set()[:2], ell0=3, eps1=0.25)
        u_true = GridFunction(GRID, np.full(GRID.size, 4.0))
        g = op.apply(u_true)
        assert cell_key(g, atlas.probe_idx, atlas.eps1) not in atlas.cell_map
        u, trace = global_invert(atlas, op, g, tol=1e-10, max_iter=100)
        assert trace.meta["fallback"] is True
        assert trace.converged
        assert h1_norm(GRID, u.values - u_true.values) <= 1e-8


#: Diagnostic values of build_atlas(make_op(), training_set(), ell0=3,
#: eps1=0.25) as build_atlas computed them eagerly, before they became
#: values computed on first read, at the default BLAS thread count of a
#: 2-vCPU machine; float.hex.
EAGER_INV_H1_NORMS = ["0x1.000000000004dp+0", "0x1.0000000000057p+0", "0x1.00007908c7bd9p+0"]
#: Anchors 0 and 1 are constant inputs, so their r is a multiple of the
#: weights.  The H1 Gram matrix G has G 1 = weights, so L^{-1} r is parallel to
#: L^T 1 and the singular values of L^T A^{-1} L^{-T} are 1 and |1 - a.b|:
#: the norm is exactly 1.  The eager dense formula read 1 + 77 ulp and
#: 1 + 87 ulp there, its rounding; the closed form reads the exact value.
EXACT_INV_H1_NORMS = {0: 1.0, 1: 1.0}
EAGER_CONSTANTS = {
    "domain_length": "0x1.0000000000000p+0", "C_S": "0x1.6a09e667f3bcdp+0",
    "R2": "0x1.077ea7c8a8604p+2", "kernel_c2": "0x1.98174789cb495p-2",
    "kernel_c3": "0x1.98174789cb495p-2", "C_0": "0x1.e3c6c71885e62p+4",
    "C_B": "0x1.00007908c7bd9p+0", "C_L": "0x1.428484bb03eebp+3",
    "C_A": "0x1.4285b5b2b10f2p+3", "C_H": "0x1.3e1326680c739p+12",
    "r": "0x1.9c14442a38bb7p-14", "eps0": "0x1.9c138156de790p-18",
    "eps1": "0x1.0000000000000p-2",
}
#: save_atlas's atlas.json for the same atlas, from the eager computation.
EAGER_ATLAS_JSON = (
    '{"ell0":3,"eps1":0.25,"probe_indices":[0,64,128],"anchors":["anchor_000.csv",'
    '"anchor_001.csv","anchor_002.csv"],"cell_map":[{"cell":[0,0,0],"anchor":0},'
    '{"cell":[5,5,5],"anchor":1},{"cell":[11,11,11],"anchor":2}],"constants":'
    '{"domain_length":1,"C_S":1.4142135623730951,"R2":4.1171054324672731,'
    '"kernel_c2":0.39852630404022565,"kernel_c3":0.39852630404022565,'
    '"C_0":30.236029716294418,"C_B":1.0000072142063259,"C_L":10.078676572098137,'
    '"C_A":10.078821991927246,"C_H":5089.196876572264,"r":9.8247329023900108e-05,'
    '"eps0":6.1404137657819236e-06,"eps1":0.25}}\n'
)
#: Constants that depend only on the grid, the anchors and the sampled
#: kernel bounds.  The others derive from inv_h1_norm: the eager dense SVD
#: and inverse rounded differently under different BLAS thread counts (by up
#: to 11 ulp), and the closed form differs from them in the last digits.
BLAS_FREE_CONSTANTS = ("domain_length", "C_S", "R2", "kernel_c2", "kernel_c3", "C_0", "C_L",
                       "eps1")


def _refuse(*args, **kwargs):
    raise AssertionError("diagnostic constants computed")


class TestLazyConstants:
    def test_first_read_matches_eager_values(self):
        atlas = build_atlas(make_op(), training_set(), ell0=3, eps1=0.25)
        norms = [a.inv_h1_norm for a in atlas.anchors]
        c = atlas.constants
        assert c.keys() == EAGER_CONSTANTS.keys()
        for key in BLAS_FREE_CONSTANTS:
            assert c[key].hex() == EAGER_CONSTANTS[key], key
        eager = [float.fromhex(h) for h in EAGER_INV_H1_NORMS]
        # The dense formula the eager values came from still reads them.
        assert_allclose([dense_c_b(rank_one_inverse(a.fact), GRID) for a in atlas.anchors], eager,
                        rtol=1e-14, atol=0.0)
        exact = [EXACT_INV_H1_NORMS.get(i, e) for i, e in enumerate(eager)]
        assert_allclose(norms, exact, rtol=1e-14, atol=0.0)
        moving = [key for key in c if key not in BLAS_FREE_CONSTANTS]
        assert_allclose([c[k] for k in moving],
                        [float.fromhex(EAGER_CONSTANTS[k]) for k in moving], rtol=1e-14, atol=0.0)
        # Bit for bit, the moving constants follow from inv_h1_norm.
        c_b, c_0, r2 = c["C_B"], c["C_0"], c["R2"]
        assert c_b == max(norms)
        assert c["C_A"] == c_b**2 * c["C_L"]
        assert c["C_H"] == 2.0 * c_b * c_0 + c["C_A"] * (c_b + 4.0 * c_0 * r2)
        assert c["r"] == min(1.0 / (2.0 * c["C_H"]), r2)
        assert c["eps0"] == 0.5 * ((1.0 / (8.0 * c_b)) * (1.0 / (2.0 * c["C_H"])))
        assert atlas.constants is atlas.constants

    def test_save_atlas_matches_eager_file(self, tmp_path):
        atlas = build_atlas(make_op(), training_set(), ell0=3, eps1=0.25)
        save_atlas(atlas, str(tmp_path))
        with open(os.path.join(tmp_path, "atlas.json")) as fh:
            text = fh.read()
        head, sep, _ = text.partition('"constants":')
        assert sep and head == EAGER_ATLAS_JSON.partition('"constants":')[0]
        saved = json.loads(text)["constants"]
        eager = json.loads(EAGER_ATLAS_JSON)["constants"]
        assert saved == atlas.constants  # 17 digits round-trip every constant
        for key in BLAS_FREE_CONSTANTS:
            assert saved[key] == eager[key], key
        moving = [key for key in saved if key not in BLAS_FREE_CONSTANTS]
        assert_allclose([saved[k] for k in moving], [eager[k] for k in moving],
                        rtol=1e-14, atol=0.0)

    def test_load_and_invert_never_compute_constants(self, tmp_path, monkeypatch):
        op = make_op()
        save_atlas(build_atlas(op, training_set(), ell0=3, eps1=0.25), str(tmp_path))
        monkeypatch.setattr(injop.atlas, "_atlas_constants", _refuse)
        monkeypatch.setattr(injop.atlas, "_h1_operator_norm_of_inverse", _refuse)
        atlas = load_atlas(str(tmp_path), op)
        for anchor in atlas.anchors:
            u_true = GridFunction(GRID, anchor.v.values[0] + 0.05)
            u, trace = global_invert(atlas, op, op.apply(u_true), tol=1e-10)
            assert trace.converged
            assert h1_norm(GRID, u.values - u_true.values) <= 1e-8
        with pytest.raises(AssertionError, match="constants computed"):
            atlas.constants

    def test_eps0_saturates_where_the_cap_overflows(self, tmp_path):
        # Subnormal coefficients put C_H near 2.8e-309, so 1/(2 C_H) is inf.
        grid = Grid(0.0, 1.0, 16)
        op = NonlinearIntegralOperator(grid, WireKernel(1.0, [(1e-310, 0.5, 0.0)], "u(y)"))
        atlas = build_atlas(op, [GridFunction(grid, np.full(grid.size, 0.5))])
        c = atlas.constants
        assert 0.0 < c["C_H"] < 2.8e-309
        assert c["eps0"] == sys.float_info.max
        save_atlas(atlas, str(tmp_path))
        with open(os.path.join(tmp_path, "atlas.json")) as fh:
            assert json.load(fh)["constants"] == c
        assert load_atlas(str(tmp_path), op).constants == c


@functools.lru_cache(maxsize=1)
def _dense_h1_factor(grid):
    """LAPACK's Cholesky factor L of the dense H1 Gram matrix, and L^{-1}."""
    m = grid.size
    d = (np.eye(m, k=1)[: m - 1] - np.eye(m)[: m - 1]) / grid.h
    chol = np.linalg.cholesky(np.diag(grid.weights) + d.T @ (grid.h * d))
    return chol, np.linalg.inv(chol)


def dense_c_b(a_inv, grid):
    """The dense C_B formula, kept as the reference:
    sigma_max(L^T A^{-1} L^{-T})."""
    chol, chol_inv = _dense_h1_factor(grid)
    return float(np.linalg.svd(chol.T @ a_inv @ chol_inv.T, compute_uv=False)[0])


def rank_one_inverse(fact):
    w, r = fact.rank_one
    return np.linalg.inv(np.diag(w) + r[None, :])


class TestClosedFormCB:
    """C_B of a rank-one anchor with a constant W, in closed form, against
    the dense formula."""

    @pytest.mark.parametrize("size, rtol", [(64, 1e-14), (129, 1e-14), (256, 1e-14),
                                            (512, 1e-13), (1024, 1e-13)])
    def test_bench_anchors_match_the_dense_formula(self, size, rtol):
        op, anchors = bench_problem(size)
        atlas = build_atlas(op, anchors, ell0=4, eps1=0.25)
        for anchor in atlas.anchors:
            assert anchor.fact.rank_one is not None
            assert_allclose(anchor.inv_h1_norm,
                            dense_c_b(rank_one_inverse(anchor.fact), op.grid), rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("size", [2, 3, 4, 16])
    def test_random_rank_one_matches_the_dense_formula(self, size):
        grid = Grid(0.0, 1.0, size)
        rng = np.random.default_rng(size)
        checked = 0
        while checked < 20:
            w = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)
            r = rng.standard_normal(size)
            if abs(w + r.sum()) < 0.05 * abs(w):
                continue
            fact = FactorizedFrechet(np.full(size, w), r)
            assert_allclose(injop.atlas._h1_operator_norm_of_inverse(fact, grid),
                            dense_c_b(rank_one_inverse(fact), grid), rtol=1e-14, atol=0.0)
            checked += 1

    @pytest.mark.parametrize("w, c", [(1.0, 0.2), (1.0, -0.6), (-2.0, 0.5), (0.5, 3.0)])
    def test_parallel_a_and_b(self, w, c):
        # r = c * weights: G 1 = weights, so L^{-1} r is parallel to a = L^T 1
        # and the singular values are 1/|w| and 1/|w + c * length|.
        grid = Grid(0.0, 2.0, 64)
        fact = FactorizedFrechet(np.full(grid.size, w), c * grid.weights)
        c_b = injop.atlas._h1_operator_norm_of_inverse(fact, grid)
        assert_allclose(c_b, max(1.0 / abs(w), 1.0 / abs(w + c * grid.length)), rtol=1e-14)
        assert_allclose(c_b, dense_c_b(rank_one_inverse(fact), grid), rtol=1e-13)

    def test_constant_w_constants_need_no_dense_algebra(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense algebra for a rank-one C_B")

        for name in ("inv", "svd", "cholesky"):
            monkeypatch.setattr(np.linalg, name, refuse)
        atlas = build_atlas(make_op(), training_set(), ell0=3, eps1=0.25)
        assert atlas.constants["C_B"] == max(a.inv_h1_norm for a in atlas.anchors) > 0.0

    @pytest.mark.parametrize("op", [
        NonlinearIntegralOperator(GRID, SigmoidSumKernel([(0.4, 1.0, 0.0)], signature="u(y)"),
                                  w=1.0 + 0.5 * GRID.nodes),
        NonlinearIntegralOperator(GRID, VolterraKernel(0.8, "sigmoid"), w=1.0),
    ], ids=["non_constant_w", "volterra"])
    def test_other_anchors_take_the_dense_formula(self, monkeypatch, op):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        atlas = build_atlas(op, training_set(), ell0=3, eps1=0.25)
        c_b = atlas.constants["C_B"]
        assert len(calls) == len(atlas.anchors)
        references = [dense_c_b(np.linalg.inv(frechet_derivative(op, a.v)), GRID)
                      for a in atlas.anchors]
        assert_allclose(c_b, max(references), rtol=1e-14, atol=0.0)


def _broadcast_kernel_bounds(op, t_max):
    """The kernel bounds over full (M, M) copies of every table and slope:
    the reference."""
    grid = op.grid
    x, y = grid.nodes[:, None], grid.nodes[None, :]
    ts = np.linspace(-t_max, t_max, 17)
    dt = float(ts[1] - ts[0])
    shape = (grid.size, grid.size)
    tables = np.stack([np.broadcast_to(op.kernel.table(x, y, None, t), shape) for t in ts])
    slopes = np.stack([np.broadcast_to(op.kernel.du(x, y, t), shape) for t in ts]).astype(float)
    c01 = max(float(np.max(np.abs(tables))), float(np.max(np.abs(slopes))))
    ktt = (slopes[2:] - slopes[:-2]) / (2.0 * dt)
    kttt = (slopes[2:] - 2.0 * slopes[1:-1] + slopes[:-2]) / dt**2
    c2 = max(c01, float(np.max(np.abs(ktt))))
    return c2, max(c2, float(np.max(np.abs(kttt))))


_DENSE = np.random.default_rng(3).standard_normal((GRID.size, GRID.size))


class TestKernelBounds:
    @pytest.mark.parametrize("kernel", [
        SigmoidSumKernel([(0.4, 1.0, 0.0), (-0.7, 2.0, 0.5)], signature="u(y)"),
        WireKernel(3.0, [(0.5, 1.5, -0.2)], signature="u(y)"),
        LinearTableKernel(0.6),
        VolterraKernel(0.8, "sigmoid"),
        SigmoidSumKernel([(_DENSE, 1.0, GRID.nodes[None, :])], signature="u(y)"),
    ], ids=["sigmoid_sum", "wire", "linear_table", "volterra", "dense"])
    def test_bounds_equal_the_broadcast_reference(self, kernel):
        op = NonlinearIntegralOperator(GRID, kernel, w=1.0)
        for t_max in (1.0, 4.5):
            assert injop.atlas._measured_kernel_bounds(op, t_max) == _broadcast_kernel_bounds(
                op, t_max)

    def test_constants_of_a_rank_one_atlas_hold_no_dense_array(self):
        grid = Grid(0.0, 1.0, 2048)
        op = NonlinearIntegralOperator(
            grid, SigmoidSumKernel([(0.4, 1.0, 0.0)], signature="u(y)"), w=1.0)
        wave = np.sin(2 * np.pi * grid.nodes)
        atlas = build_atlas(op, [GridFunction(grid, lvl + 0.3 * wave) for lvl in (-1, 0, 1)])
        tracemalloc.start()
        try:
            atlas.constants
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < grid.size**2 * 8 / 4


#: Saves the M = 129 atlas of this module and the benchmark's atlas at
#: M = 512 under the directory given as the second argument.
_SAVE_TWO_ATLASES = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from test_atlas import bench_problem, build_atlas, make_op, save_atlas, training_set\n"
    "out = sys.argv[2]\n"
    "save_atlas(build_atlas(make_op(), training_set(), ell0=3, eps1=0.25), out + '/m129')\n"
    "op, anchors = bench_problem(512)\n"
    "save_atlas(build_atlas(op, anchors, ell0=4, eps1=0.25), out + '/m512')\n"
)


def test_saved_atlas_is_the_same_under_one_and_two_blas_threads(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(injop.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-c", _SAVE_TWO_ATLASES, here, str(tmp_path / threads)],
                       env=env, capture_output=True, text=True, timeout=120, check=True)
    for atlas in ("m129", "m512"):
        names = sorted(os.listdir(tmp_path / "1" / atlas))
        assert "atlas.json" in names and names == sorted(os.listdir(tmp_path / "2" / atlas))
        for name in names:
            one = (tmp_path / "1" / atlas / name).read_bytes()
            assert one == (tmp_path / "2" / atlas / name).read_bytes(), (atlas, name)
