"""Newton-type local inversion around anchor points, glued into a global
inverse by indicator masks over probe-node bins.

An atlas holds anchors (v_j, g_j = F(v_j), inverse derivative A_j^{-1}) and
a map from integer cells to anchors.  A target g lands in the cell

    i_l = floor(g(y_l) / eps1 + 1/2)   for probe nodes y_l,

equivalently (i_l - 1/2) eps1 <= g(y_l) < (i_l + 1/2) eps1, so the
half-open bins are disjoint and exactly one composed mask fires for any
target.  Local inversion iterates u <- u - A_j^{-1}(F(u) - g) from v_j and
converges in the discrete H1 norm.

Inversion needs only each anchor's factorized derivative
(:func:`nonlin.linearize`: O(M) to build and to solve for a ridge kernel with
scalar parameters on u(y), a dense inverse otherwise), its image and the
cell map.  The diagnostic constants (``Atlas.constants``,
``Anchor.inv_h1_norm``) are computed on first read.  For a rank-one anchor
with a constant W, C_B has a closed form in O(M) over the bidiagonal H1
Cholesky factor; any other anchor applies its factorization's ``solve`` to
a dense one.  The kernel bounds read the operator the atlas keeps, over the
values its tables store.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import OutOfBasinError
from .funcspace import Grid, GridFunction, h1_distance, h1_gram_cholesky, h1_norm, l2_h1_norms
from .nonlin import FactorizedFrechet, InversionTrace, NonlinearIntegralOperator, linearize

#: Consecutive H1 residual increases tolerated before leaving the basin.
BASIN_PATIENCE = 5


def probe_indices(grid_size: int, ell0: int) -> np.ndarray:
    """ell0 equispaced node indices, endpoints included, repeats dropped."""
    if not 1 <= ell0 <= grid_size:
        raise ValueError(f"need 1 <= ell0 <= grid size, got {ell0}")
    idx = np.linspace(0, grid_size - 1, ell0).round().astype(int)
    return idx[np.diff(idx, prepend=-1) > 0]  # np.unique would import numpy.ma


def cell_key(g: GridFunction, probe_idx: np.ndarray, eps1: float) -> Tuple[int, ...]:
    """Integer cell of g: bin index of g(y_l) for each probe node.

    Raises :class:`OutOfBasinError`, with an empty trace, when a bin index
    is not finite: no cell, so no anchor's basin, holds such a g.
    """
    vals = g.values[0, probe_idx]
    with np.errstate(over="ignore"):
        bins = np.floor(vals / eps1 + 0.5)
    if not np.all(np.isfinite(bins)):
        raise OutOfBasinError(
            f"no finite cell index: probe values {[float(v) for v in vals]} at eps1 = {eps1}",
            trace=InversionTrace(),
        )
    return tuple(int(b) for b in bins)


def mask_apply(
    node_index: int, s: float, h: float, v: GridFunction, w: GridFunction
) -> GridFunction:
    """Pass v through iff w(node) lies in the half-open bin [s-h/2, s+h/2)."""
    val = w.values[0, node_index]
    if s - h / 2.0 <= val < s + h / 2.0:
        return v.copy()
    return GridFunction(v.grid, np.zeros_like(v.values))


def compose_cell_masks(
    cell: Sequence[int],
    probe_idx: np.ndarray,
    eps1: float,
    v: GridFunction,
    w: GridFunction,
) -> GridFunction:
    """Chain one bin mask per probe node; nonzero iff every bin matches."""
    out = v
    for ell, i in enumerate(cell):
        out = mask_apply(int(probe_idx[ell]), i * eps1, eps1, out, w)
    return out


@dataclass
class Anchor:
    """Training input with its image and inverted local linearization."""

    index: int
    v: GridFunction
    g: GridFunction
    fact: FactorizedFrechet

    @functools.cached_property
    def inv_h1_norm(self) -> float:
        """H1 -> H1 norm of the inverse linearization, computed on first read."""
        return _h1_operator_norm_of_inverse(self.fact, self.v.grid)


@dataclass
class Atlas:
    probe_idx: np.ndarray
    eps1: float
    ell0: int
    anchors: List[Anchor]
    cell_map: Dict[Tuple[int, ...], int]
    op: NonlinearIntegralOperator = field(repr=False, compare=False)
    warnings: List[str] = field(default_factory=list)

    @functools.cached_property
    def constants(self) -> Dict[str, float]:
        """Lipschitz and basin constants, computed on first read."""
        return _atlas_constants(self.op, self.anchors, self.eps1)


@functools.lru_cache(maxsize=1)
def _h1_dense_factor(grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
    """L of :func:`h1_gram_cholesky` as a dense matrix, and L^{-1}; read-only."""
    diag, sub = h1_gram_cholesky(grid)
    chol = np.diag(diag) + np.diag(sub, -1)
    chol_inv = np.linalg.inv(chol)
    chol.flags.writeable = chol_inv.flags.writeable = False
    return chol, chol_inv


def _h1_operator_norm_of_inverse(fact: FactorizedFrechet, grid: Grid) -> float:
    """H1 -> H1 norm of A^{-1}: sigma_max(L^T A^{-1} L^{-T}), L the H1 Gram
    Cholesky factor.

    For the rank-one form with one diagonal value, A = w I + 1 r^T, that
    matrix is (I - a b^T) / w with a = L^T 1 and b = L^{-1} r / (w + sum r)
    (Sherman & Morrison, 1950).  It is w^{-1} I off span{a, b}, so M - 2 of
    its singular values are 1/|w|; the other two, times |w|, have squares
    summing to 2 - 2 a.b + |a|^2 |b|^2 and product |1 - a.b|, so the larger
    is at least 1 for every M.  That is O(M), with one bidiagonal forward
    substitution.  Any other A takes the SVD of L^T A^{-1} L^{-T}, with
    A^{-1} L^{-T} from :meth:`FactorizedFrechet.solve`.
    """
    w_diag, r = fact.rank_one or (None, None)
    if w_diag is None or np.any(w_diag != w_diag[0]):
        chol, chol_inv = _h1_dense_factor(grid)
        return float(np.linalg.svd(chol.T @ fact.solve(chol_inv.T), compute_uv=False)[0])
    diag, sub = h1_gram_cholesky(grid)
    w = float(w_diag[0])
    a = diag + np.append(sub, 0.0)  # column sums of L
    l_inv_r, prev = [], 0.0
    for d, s, f in zip(diag.tolist(), [0.0] + sub.tolist(), r.tolist()):
        prev = (f - s * prev) / d
        l_inv_r.append(prev)
    b = np.array(l_inv_r) / (w + np.sum(r))
    ab = float(a @ b)
    p = float(a @ a) * float(b @ b)
    # p >= (a.b)^2 (Cauchy-Schwarz), so 4 - 4 a.b + p >= (2 - a.b)^2 >= 0.
    sigma = math.sqrt(0.5 * (2.0 - 2.0 * ab + p + math.sqrt(p * max(0.0, 4.0 - 4.0 * ab + p))))
    # sigma_+ >= 1 by Cauchy-Schwarz, so max only absorbs rounding.
    return max(1.0, sigma) / abs(w)


def _stored(a: np.ndarray) -> np.ndarray:
    """The values a broadcast array stores: the view indexed 0, kept as
    length 1, along every zero-stride axis."""
    return a[tuple(slice(0, 1) if s == 0 else slice(None) for s in a.strides)]


def _measured_kernel_bounds(op: NonlinearIntegralOperator, t_max: float) -> Tuple[float, float]:
    """Sampled surrogates for the C2 and C3 sup norms of the kernel.

    Sup of |k| and its first three state derivatives (first analytic, the
    rest by central differences of the analytic slope) over the grid and a
    symmetric state range.  Each sup is taken over the values a table
    stores, which are every value of its (M, M) broadcast.
    """
    grid = op.grid
    x, y = grid.nodes[:, None], grid.nodes[None, :]
    ts = np.linspace(-t_max, t_max, 17)
    dt = float(ts[1] - ts[0])
    shape = (grid.size, grid.size)
    c01 = c2d = c3d = 0.0
    window: List[np.ndarray] = []
    for t in ts:
        table = _stored(np.broadcast_to(op.kernel.table(x, y, None, t), shape))
        slope = np.asarray(_stored(np.broadcast_to(op.kernel.du(x, y, t), shape)), dtype=float)
        c01 = max(c01, float(np.max(np.abs(table))), float(np.max(np.abs(slope))))
        window.append(slope)
        if len(window) == 3:
            ktt = (window[2] - window[0]) / (2.0 * dt)
            kttt = (window[2] - 2.0 * window[1] + window[0]) / dt**2
            c2d = max(c2d, float(np.max(np.abs(ktt))))
            c3d = max(c3d, float(np.max(np.abs(kttt))))
            window.pop(0)
    c2 = max(c01, c2d)
    c3 = max(c2, c3d)
    return c2, c3


def _atlas_constants(
    op: NonlinearIntegralOperator, anchors: List[Anchor], eps1: float
) -> Dict[str, float]:
    """Lipschitz and basin constants, reported for diagnostics only."""
    grid = op.grid
    length = grid.length
    c_s = math.sqrt(2.0 * max(1.0, 1.0 / length))
    r2 = max(anchor.v.h1_norm() for anchor in anchors)
    t_max = max(1.0, 2.0 * max(anchor.v.sup_norm() for anchor in anchors))
    c2, c3 = _measured_kernel_bounds(op, t_max)
    c_b = max(anchor.inv_h1_norm for anchor in anchors)
    c_0 = 3.0 * math.sqrt(length) * c3 * (1.0 + 2.0 * c_s * r2) * c_s**2
    c_l = 2.0 * c2 * length * (1.0 + 2.0 * c_s * r2)
    c_a = c_b**2 * c_l
    c_h = 2.0 * c_b * c_0 + c_a * (c_b + 4.0 * c_0 * r2)
    r = min(1.0 / (2.0 * c_h), r2) if c_h > 0 else r2
    eps0_cap = (1.0 / (8.0 * c_b)) * (1.0 / (2.0 * c_h)) if c_b > 0 and c_h > 0 else 1.0
    return {
        "domain_length": length,
        "C_S": c_s,
        "R2": r2,
        "kernel_c2": c2,
        "kernel_c3": c3,
        "C_0": c_0,
        "C_B": c_b,
        "C_L": c_l,
        "C_A": c_a,
        "C_H": c_h,
        "r": r,
        "eps0": min(0.5 * eps0_cap, sys.float_info.max),  # the cap overflows for tiny C_H
        "eps1": eps1,
    }


def build_atlas(
    op: NonlinearIntegralOperator,
    training_inputs: Sequence[GridFunction],
    ell0: int = 4,
    eps1: float = 0.25,
) -> Atlas:
    """Anchor the atlas at the given inputs and bin their images into cells.

    Duplicate cell keys keep the smallest anchor index; the collision is
    recorded in ``atlas.warnings``.
    """
    if not training_inputs:
        raise ValueError("need at least one training input")
    if not (math.isfinite(eps1) and eps1 > 0):
        raise ValueError(f"eps1 must be finite and positive, got {eps1}")
    grid = op.grid
    idx = probe_indices(grid.size, ell0)
    anchors: List[Anchor] = []
    for j, v in enumerate(training_inputs):
        grid.require_matches(v.grid)
        if not np.all(np.isfinite(v.values)):
            raise ValueError(f"training input {j} has non-finite values")
        anchors.append(Anchor(index=j, v=v.copy(), g=op.apply(v), fact=linearize(op, v)))
    cell_map: Dict[Tuple[int, ...], int] = {}
    notes: List[str] = []
    for anchor in anchors:
        key = cell_key(anchor.g, idx, eps1)
        if key in cell_map:
            notes.append(
                f"cell {key} hit by anchors {cell_map[key]} and {anchor.index}; "
                f"keeping {cell_map[key]}"
            )
            continue
        cell_map[key] = anchor.index
    for note in notes:
        warnings.warn(note)
    return Atlas(
        probe_idx=idx,
        eps1=eps1,
        ell0=int(len(idx)),
        anchors=anchors,
        cell_map=cell_map,
        op=op,
        warnings=notes,
    )


def local_invert(
    op: NonlinearIntegralOperator,
    anchor: Anchor,
    g: GridFunction,
    tol: float = 1e-8,
    max_iter: int = 50,
) -> tuple:
    """Newton iteration with the frozen anchor linearization.

    ``op`` is the operator the anchor was built for.  The residual is checked
    before each step, the first being the stored image ``anchor.g`` minus g,
    so n iterations evaluate F n - 1 times and the anchor's own image returns
    in one iteration.  g is checked once; the loop steps on (h, M) arrays and
    wraps only the u it returns.  Raises :class:`OutOfBasinError` after
    ``BASIN_PATIENCE`` consecutive H1 residual increases, or at the first
    non-finite residual; the trace then holds the finite iterations before it.
    """
    g_values = op.checked_values(g)
    u = anchor.v.values.copy()
    trace = InversionTrace(
        meta={"method": "newton", "tol": tol, "anchor": anchor.index, "ratio_kind": "step_h1"}
    )
    increases = 0
    prev_step: Optional[float] = None
    for m in range(1, max_iter + 1):
        f_u = op.evaluate(u)[1] if m > 1 else anchor.g.values
        diff = f_u - g_values
        res_l2, res_h1 = l2_h1_norms(op.grid, diff)
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
            break
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


def _shown_key(key: Tuple[int, ...]) -> tuple:
    """The cell key for messages and reports: an index beyond 2**53 is
    written as the float it was floored from (exact, and a few characters
    in place of hundreds of digits)."""
    return tuple(float(i) if abs(i) > 2**53 else i for i in key)


def global_invert(
    atlas: Atlas,
    op: NonlinearIntegralOperator,
    g: GridFunction,
    tol: float = 1e-8,
    max_iter: int = 50,
) -> tuple:
    """Route g to its cell's anchor and invert locally.

    The half-open bins are disjoint, so the masked sum over cells has
    exactly one nonzero term and reduces to the selected local inverse.
    Unseen cells fall back to the anchor whose image is nearest in the
    discrete H1 distance.
    """
    if not atlas.anchors:
        raise ValueError("atlas has no anchors")
    key = cell_key(g, atlas.probe_idx, atlas.eps1)
    fallback = key not in atlas.cell_map
    if fallback:
        j = min(
            range(len(atlas.anchors)),
            key=lambda i: (h1_distance(g, atlas.anchors[i].g), i),
        )
    else:
        j = atlas.cell_map[key]
    anchor = atlas.anchors[j]
    shown = _shown_key(key)
    try:
        u, trace = local_invert(op, anchor, g, tol=tol, max_iter=max_iter)
    except OutOfBasinError as err:
        err.trace.meta.update({"cell": list(shown), "fallback": fallback})
        raise OutOfBasinError(
            f"{err} [cell {shown}, fallback={fallback}]", trace=err.trace
        ) from err
    trace.meta.update({"cell": list(shown), "fallback": fallback})
    return u, trace
