"""Anchored Newton charts, cell routing, and the mask algebra."""

import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

import injop.atlas
from injop.errors import OutOfBasinError
from injop.funcspace import Grid, GridFunction, h1_norm
from injop.nonlin import (
    KernelBase,
    NonlinearIntegralOperator,
    SigmoidSumKernel,
)
from injop.atlas import (
    build_atlas,
    cell_key,
    compose_cell_masks,
    global_invert,
    local_invert,
    mask_apply,
    probe_indices,
)
from injop.serialize import load_atlas, save_atlas

GRID = Grid(0.0, 1.0, 129)


def make_op():
    kern = SigmoidSumKernel([(0.4, 1.0, 0.0)], signature="u(y)")
    return NonlinearIntegralOperator(GRID, kern, w=1.0)


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

    def test_duplicate_cells_warn_and_keep_first(self):
        op = make_op()
        v = GridFunction(GRID, np.zeros(GRID.size))
        with pytest.warns(UserWarning, match="cell"):
            atlas = build_atlas(op, [v, v.copy()], ell0=3, eps1=0.25)
        assert len(atlas.cell_map) == 1
        assert list(atlas.cell_map.values()) == [0]
        assert atlas.warnings


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
#: values computed on first read; float.hex, so the checks are bit for bit.
EAGER_INV_H1_NORMS = ["0x1.000000000004dp+0", "0x1.0000000000057p+0", "0x1.00007908c7bd9p+0"]
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


def _refuse(*args, **kwargs):
    raise AssertionError("diagnostic constants computed")


class TestLazyConstants:
    def test_first_read_matches_eager_values(self):
        atlas = build_atlas(make_op(), training_set(), ell0=3, eps1=0.25)
        assert [a.inv_h1_norm.hex() for a in atlas.anchors] == EAGER_INV_H1_NORMS
        assert {k: v.hex() for k, v in atlas.constants.items()} == EAGER_CONSTANTS
        assert atlas.constants is atlas.constants

    def test_save_atlas_matches_eager_file(self, tmp_path):
        atlas = build_atlas(make_op(), training_set(), ell0=3, eps1=0.25)
        save_atlas(atlas, str(tmp_path))
        with open(os.path.join(tmp_path, "atlas.json")) as fh:
            assert fh.read() == EAGER_ATLAS_JSON

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
