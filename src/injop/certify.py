"""Layerwise injectivity certification.

Two routes, matching the two activation regimes:

* injective activations: the layer is injective iff its coefficient block
  matrix is, which the singular values decide;
* ReLU: a falsifier that hunts for collision witnesses by sampling inputs,
  reading off which output channels stay strictly positive, and testing
  kernel directions of the row-restricted block matrix against the
  pointwise sign conditions a collision direction must satisfy.

A reported witness is always re-verified by evaluating the layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DegenerateWitnessError
from .finite_rank import (
    FiniteRankLayer,
    apply_affine,
    apply_finite_rank,
    apply_layer,
    block_matrix,
    unstack_coeffs,
)
from .funcspace import Grid, SpectralCoeffs, from_spectral

#: Relative singular-value threshold for "injective on the span".
SINGULAR_TOL = 1e-10

#: Strict-positivity margin used when deciding the active channel set.
ACTIVE_MARGIN = 1e-12

#: Pointwise tolerance for the collision-direction sign conditions.
POINTWISE_TOL = 1e-10

VERDICT_CERTIFIED = "CertifiedInjective"
VERDICT_COUNTEREXAMPLE = "CounterexampleFound"
VERDICT_NO_COUNTEREXAMPLE = "NoCounterexampleFound"

#: Scalings tried on each kernel direction, 1 first, then outward by octave.
_SCALES = [
    sign * 2.0**j
    for j in list(range(0, 9)) + list(range(-1, -9, -1))
    for sign in (1.0, -1.0)
]


@dataclass
class CertReport:
    """Outcome of a certification run."""

    verdict: str
    sigma_min: float
    sigma_max: float
    trials: int
    seed: Optional[int] = None
    witness: Optional[Tuple[SpectralCoeffs, SpectralCoeffs]] = None
    bijective_on_span: bool = False

    def __post_init__(self):
        if self.verdict == VERDICT_COUNTEREXAMPLE and self.witness is None:
            raise ValueError("counterexample verdict requires a witness")


def verify_collision(
    layer: FiniteRankLayer, v1: SpectralCoeffs, v2: SpectralCoeffs, grid: Grid
) -> float:
    """L2 distance between the layer outputs of a claimed witness pair.

    Raises if the pair is degenerate (v1 == v2).  The caller decides what
    residual counts as a collision; `collision_threshold` gives the scale
    used throughout this module.
    """
    gap = np.linalg.norm(v1.coeffs - v2.coeffs)
    if gap <= 1e-12:
        raise DegenerateWitnessError(f"witness pair is degenerate: |v1 - v2| = {gap:.3e}")
    out1 = apply_layer(layer, v1, grid)
    out2 = apply_layer(layer, v2, grid)
    return float(np.linalg.norm(out1.coeffs - out2.coeffs))


def collision_threshold(layer: FiniteRankLayer, v1: SpectralCoeffs, grid: Grid) -> float:
    out1 = apply_layer(layer, v1, grid)
    return POINTWISE_TOL * (1.0 + out1.l2_norm())


def _null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal null-space basis of a, as columns.

    scipy.linalg.null_space's algorithm on numpy's SVD: singular values at
    or below max(s) * eps * max(a.shape) count as zero.
    """
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    tol = np.amax(s, initial=0.0) * np.finfo(s.dtype).eps * max(a.shape)
    num = np.sum(s > tol, dtype=int)
    return vh[num:].T.conj()


def certify_bijective_activation(layer: FiniteRankLayer) -> CertReport:
    """Certify a layer whose activation is injective.

    Injectivity of the layer reduces to injectivity of the coefficient
    block matrix; the verdict compares sigma_min against
    ``SINGULAR_TOL * sigma_max``.  When the matrix fails the test, the
    least singular direction yields a witness pair (0, kernel direction).
    """
    if not layer.activation.is_injective:
        raise ValueError(
            f"activation {layer.activation.kind!r} is not injective; "
            f"use certify_relu_dss"
        )
    mat = block_matrix(layer)
    _, svals, vt = np.linalg.svd(mat)
    sigma_max = float(svals[0])
    # A wide matrix (more input than output dims) can never be injective.
    sigma_min = float(svals[-1]) if mat.shape[0] >= mat.shape[1] else 0.0
    certified = sigma_min > SINGULAR_TOL * sigma_max and sigma_max > 0.0
    if certified:
        return CertReport(
            verdict=VERDICT_CERTIFIED,
            sigma_min=sigma_min,
            sigma_max=sigma_max,
            trials=0,
            bijective_on_span=(mat.shape[0] == mat.shape[1]),
        )
    # Kernel direction: least right-singular vector (or any direction if C = 0).
    if sigma_max == 0.0:
        direction = np.zeros(mat.shape[1])
        direction[0] = 1.0
    else:
        direction = vt[-1]
    v1 = unstack_coeffs(np.zeros(mat.shape[1]), layer.basis, layer.n, layer.d_in)
    v2 = unstack_coeffs(direction, layer.basis, layer.n, layer.d_in)
    return CertReport(
        verdict=VERDICT_COUNTEREXAMPLE,
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        trials=0,
        witness=(v1, v2),
    )


def certify_relu_dss(
    layer: FiniteRankLayer, grid: Grid, trials: int = 1000, seed: int = 0
) -> CertReport:
    """Collision search for ReLU layers.

    For each sampled input v, channels whose pre-activation stays strictly
    positive on the whole grid are "active"; a collision direction must lie
    in the kernel of the active-row block matrix and satisfy, on every
    inactive channel, the pointwise conditions

    * where the pre-activation is <= 0: it dominates the direction's value,
    * where it is > 0: the direction's value vanishes.

    Every kernel direction is tested at every scale of ``_SCALES`` in one
    array pass per scale.  The passing (direction, scale) pairs are taken
    direction-major, in scale order, and the first witness
    (v, v - scale * direction) that re-verifies through the layer is
    reported.  Probes are made one per trial, since a planted collision
    ends the search at the first.
    """
    if layer.activation.kind != "relu":
        raise ValueError(f"DSS search expects a relu layer, got {layer.activation.kind!r}")
    mat = block_matrix(layer)
    svals = np.linalg.svd(mat, compute_uv=False)
    sigma_max = float(svals[0]) if svals.size else 0.0
    sigma_min = float(svals[-1]) if mat.shape[0] >= mat.shape[1] else 0.0

    basis, n, d = layer.basis, layer.n, layer.d_in
    for trial in range(trials):
        # Probes: zero, then +-1 on each (channel, mode), then seeded noise.
        if trial > 2 * d * n:
            coeffs = np.random.default_rng([seed, trial]).standard_normal((d, n))
        else:
            coeffs = np.zeros((d, n))
            if trial:
                c, k, s = np.unravel_index(trial - 1, (d, n, 2))
                coeffs[c, k] = (1.0, -1.0)[s]
        v = SpectralCoeffs(basis, n, coeffs)
        pre = from_spectral(apply_affine(layer, v), grid).values  # (d_out, M)
        active = np.min(pre, axis=1) > ACTIVE_MARGIN
        if active.any():
            kernel = _null_space(mat[np.tile(active, n)])
        else:
            kernel = np.eye(mat.shape[1])
        if kernel.size == 0:
            continue
        # Kernel columns as a batch of stacked coefficients, (k, d_in, N).
        directions = kernel.T.reshape(-1, n, d).transpose(0, 2, 1)
        dir_vals = from_spectral(
            apply_finite_rank(layer, SpectralCoeffs(basis, n, directions)), grid
        ).values[:, ~active]
        y = pre[~active]
        nonpos = y <= 0.0
        # passes[j, i]: direction j at scale _SCALES[i] meets the sign
        # conditions on every inactive channel.
        passes = np.empty((len(directions), len(_SCALES)), dtype=bool)
        for i, t in enumerate(_SCALES):
            dt = t * dir_vals
            bad = np.where(nonpos, y > dt + POINTWISE_TOL, np.abs(dt) > POINTWISE_TOL)
            passes[:, i] = ~bad.reshape(len(directions), -1).any(axis=1)
        for j, i in zip(*np.nonzero(passes)):
            v2 = SpectralCoeffs(basis, n, v.coeffs - _SCALES[i] * directions[j])
            residual = verify_collision(layer, v, v2, grid)
            if residual <= collision_threshold(layer, v, grid):
                return CertReport(
                    verdict=VERDICT_COUNTEREXAMPLE,
                    sigma_min=sigma_min,
                    sigma_max=sigma_max,
                    trials=trial + 1,
                    seed=seed,
                    witness=(v, v2),
                )
    return CertReport(
        verdict=VERDICT_NO_COUNTEREXAMPLE,
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        trials=max(trials, 0),
        seed=seed,
    )
