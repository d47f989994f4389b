"""Projection pairs, rank reductions, and the injective lift.

The lift augments a network with an identity-carrying pathway so the
augmented map H(a) = (pathway(a); original(a)) is injective, then removes
the pathway again with a reduction B that is itself injective on the range
of H.  B comes from a pair of nearby orthogonal projections: the reference
projection kills the pathway block, the tilted one leans each protected
(mode, channel) direction into a reserved high-mode slot of the last
channel, and the direct rotation between the two (Kato) intertwines them.
Composing "restrict to the output channels" with that rotation and the
tilted projection gives B.

The tilt acts in mutually orthogonal (slot, xi-slot) planes, and in each
plane the direct rotation is the plane rotation by asin(alpha); everywhere
else both projections and the rotation are the identity.  The explicit
route therefore builds the pair, its tilt, B and the fold of B into the
last layer from those planes in closed form, with no dense factorization
and no product of dense ambient-size matrices.

A randomized alternative draws the tilted subspace by rotating the
reference one with a random rotation, builds the direct rotation densely
and checks injectivity empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    DimensionError,
    IllConditionedError,
    ReductionVerificationError,
)
from .finite_rank import (
    Activation,
    FiniteRankLayer,
    FiniteRankNetwork,
    apply_network,
    block_matrix,
    blocks_from_matrix,
    stack_coeffs,
)
from .funcspace import Grid, SpectralCoeffs, from_spectral, to_spectral

LIFT_MODES = ("injective", "relu")

#: Rows per batched network evaluation in the randomized verifier.  It
#: bounds the verifier's working memory whatever its sample count.  At 256
#: rows one chunk's grid values (a few hundred KB) stay in cache; on a
#: 2-vCPU Xeon a randomized lift (N=3) took 30-45 ms against 115 ms with
#: 1024-row chunks.
VERIFY_CHUNK_ROWS = 256

#: p_zero on one (slot, xi) plane: the slot direction is projected out.
_P_ZERO_BLOCK = np.array([[0.0, 0.0], [0.0, 1.0]])


@dataclass
class ProjectionPair:
    """Reference and tilted projections with their intertwining rotation.

    The dense matrices act on mode-major stacked coefficients of an
    ``m``-channel function at order ``n_total``; entry (k, c) of the
    coefficient table sits at stacked index ``k * m + c``.

    Plane i is spanned by the unit vectors at stacked indices
    ``slots[i]`` (a protected (mode, channel) direction: one of the first
    ``n_core`` modes of the first ``m - ell`` channels) and
    ``xi_slots[i]`` (its reserved high mode in the last channel).  The
    planes are mutually orthogonal.

    ``p_zero`` projects onto the complement of the slot directions;
    ``p_alpha`` projects onto the complement of the tilted directions
    ``amp * e_slot + alpha * e_xi`` with ``amp = sqrt(1 - alpha^2)``; ``q``
    is the direct rotation with ``q @ p_alpha = p_zero @ q``, which is
    ``[[amp, alpha], [-alpha, amp]]`` in (slot, xi) coordinates of each
    plane and the identity elsewhere.  The three are filled in on access;
    the lift itself only reads the planes.
    """

    alpha: float
    m: int
    ell: int
    n_core: int
    n_total: int
    slots: np.ndarray
    xi_slots: np.ndarray

    @property
    def dim(self) -> int:
        return self.m * self.n_total

    @property
    def amp(self) -> float:
        return math.sqrt(1.0 - self.alpha * self.alpha)

    def _plane_matrix(self, block: np.ndarray) -> np.ndarray:
        """Identity with the 2x2 ``block`` on (slot, xi) of every plane."""
        (ss, sx), (xs, xx) = block
        mat = np.eye(self.dim)
        mat[self.slots, self.slots] = ss
        mat[self.slots, self.xi_slots] = sx
        mat[self.xi_slots, self.slots] = xs
        mat[self.xi_slots, self.xi_slots] = xx
        return mat

    def _p_alpha_block(self) -> np.ndarray:
        # 1 - u u^T on one plane, rounded as the dense product rounds it.
        amp, alpha = self.amp, self.alpha
        return np.array([[1.0 - amp * amp, -(amp * alpha)],
                         [-(amp * alpha), 1.0 - alpha * alpha]])

    @property
    def p_zero(self) -> np.ndarray:
        return self._plane_matrix(_P_ZERO_BLOCK)

    @property
    def p_alpha(self) -> np.ndarray:
        return self._plane_matrix(self._p_alpha_block())

    @property
    def q(self) -> np.ndarray:
        amp, alpha = self.amp, self.alpha
        return self._plane_matrix(np.array([[amp, alpha], [-alpha, amp]]))

    def tilt_norm(self) -> float:
        """Operator norm of p_alpha - p_zero (the measured eps0).

        The difference is block diagonal over the planes with one repeated
        2x2 block, so its norm is that block's.
        """
        return float(np.linalg.norm(self._p_alpha_block() - _P_ZERO_BLOCK, 2))


@dataclass
class ReductionMap:
    """Dense reduction matrix from stacked m-channel to stacked ell-channel
    coefficients, with provenance metadata."""

    b: np.ndarray
    kind: str
    meta: dict = field(default_factory=dict)

    def row_orthonormality_defect(self) -> float:
        gram = self.b @ self.b.T
        return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


def _kato_rotation(p_zero: np.ndarray, p_alpha: np.ndarray) -> np.ndarray:
    """Direct rotation between two orthogonal projections.

    Built as (p0 p + (1-p0)(1-p)) (1 - (p0 - p)^2)^{-1/2} with the inverse
    square root taken through a symmetric eigendecomposition.  Fails when
    the projections are too far apart for the square root to make sense.
    Used by the randomized route, and by tests as the reference for the
    closed-form explicit pair.
    """
    dim = p_zero.shape[0]
    diff = p_zero - p_alpha
    base = np.eye(dim) - diff @ diff
    evals, evecs = np.linalg.eigh(base)
    lam_min = float(evals.min())
    if lam_min <= 1e-12:
        raise IllConditionedError(
            f"projections too far apart: min eigenvalue {lam_min:.3e} of "
            f"1 - (p0 - p)^2"
        )
    inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.T
    eye = np.eye(dim)
    r = p_zero @ p_alpha + (eye - p_zero) @ (eye - p_alpha)
    return r @ inv_sqrt


def build_projection_pair(m: int, ell: int, n_core: int, alpha: float) -> ProjectionPair:
    """Construct the tilted projection pair on stacked coefficients.

    Parameters
    ----------
    m : int
        Total channel count; the first ``m - ell`` channels are protected.
    ell : int
        Output channels kept by the reduction, ``1 <= ell < m``.
    n_core : int
        Protected mode count per protected channel.
    alpha : float
        Tilt amplitude in (0, 1/2).  Each protected direction (mode k,
        channel c) is tilted with amplitude alpha into its reserved slot,
        mode ``n_core + k * (m - ell) + c`` of the last channel, so the
        projection difference has norm exactly alpha.
    """
    if not 1 <= ell < m:
        raise DimensionError(f"need 1 <= ell < m, got ell={ell}, m={m}")
    if n_core < 1:
        raise DimensionError(f"n_core must be positive, got {n_core}")
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    protected = m - ell
    k, c = np.divmod(np.arange(n_core * protected), protected)
    return ProjectionPair(
        alpha=alpha,
        m=m,
        ell=ell,
        n_core=n_core,
        n_total=n_core * (1 + protected),
        slots=k * m + c,
        xi_slots=(n_core + k * protected + c) * m + m - 1,
    )


def _keep_indices(m: int, ell: int, n_total: int) -> np.ndarray:
    """Stacked indices of the last ell channels, mode-major order."""
    return (np.arange(n_total)[:, None] * m + np.arange(m - ell, m)).ravel()


def build_reduction_explicit(pair: ProjectionPair) -> ReductionMap:
    """Restrict-to-output-channels composed with the rotation and the
    tilted projection.

    Since q p_alpha = p_zero q and the kept rows avoid the slots, B is the
    kept rows of q: unit rows, except that each xi row is
    ``amp * e_xi - alpha * e_slot``.
    """
    m, ell = pair.m, pair.ell
    keep = _keep_indices(m, ell, pair.n_total)
    b = np.zeros((keep.size, pair.dim))
    b[np.arange(keep.size), keep] = 1.0
    xi_rows = (pair.xi_slots // m) * ell + ell - 1
    b[xi_rows, pair.xi_slots] = pair.amp
    b[xi_rows, pair.slots] = -pair.alpha
    return ReductionMap(
        b=b,
        kind="explicit",
        meta={
            "alpha": pair.alpha,
            "m": m,
            "ell": ell,
            "n_core": pair.n_core,
            "n_total": pair.n_total,
            "tilt": pair.tilt_norm(),
        },
    )


def check_reduction_dimensions(n_in_modes: int, out_modes: int):
    """The randomized route needs out_modes >= 2 * n_in_modes + 1."""
    if n_in_modes < 1 or out_modes < 1:
        raise DimensionError("mode counts must be positive")
    if out_modes < 2 * n_in_modes + 1:
        raise DimensionError(
            f"randomized reduction needs out_modes >= 2 * n_in_modes + 1; "
            f"got n_in_modes={n_in_modes}, out_modes={out_modes}"
        )


def build_reduction_randomized(
    t_map: Callable[[np.ndarray], np.ndarray],
    n_in_modes: int,
    out_modes: int,
    seed: int = 0,
    max_retries: int = 8,
) -> ReductionMap:
    """Draw a random reduction for a black-box graph map and verify it.

    ``t_map`` sends a (batch, n_in_modes) array of stacked input
    coefficients to the (batch, n_in_modes + out_modes) array of their
    stacked ambient coefficients.  The reference complement is the output
    block; the tilted complement is its image under exp(0.1 S) for a random
    unit-norm skew-symmetric S.  Each candidate B is accepted only if the
    finite difference Jacobian of B o T has full rank n_in_modes at 32
    seeded points and no collision shows up among 10,000 seeded pairs;
    otherwise a fresh seed is drawn, up to ``max_retries`` times.
    """
    import scipy.linalg

    check_reduction_dimensions(n_in_modes, out_modes)
    dtot = n_in_modes + out_modes

    p_zero = np.zeros((dtot, dtot))
    p_zero[n_in_modes:, n_in_modes:] = np.eye(out_modes)

    for attempt in range(max_retries):
        rng = np.random.default_rng([seed, attempt])
        s = rng.standard_normal((dtot, dtot))
        skew = (s - s.T) / 2.0
        skew /= np.linalg.norm(skew, 2)
        rot = scipy.linalg.expm(0.1 * skew)
        p = rot @ p_zero @ rot.T
        q = _kato_rotation(p_zero, p)
        b = (q @ p)[n_in_modes:, :]

        if _verify_randomized(t_map, b, n_in_modes, rng):
            return ReductionMap(
                b=b,
                kind="randomized",
                meta={
                    "seed": seed,
                    "attempt": attempt,
                    "n_in_modes": n_in_modes,
                    "out_modes": out_modes,
                    "tilt": float(np.linalg.norm(p - p_zero, 2)),
                },
            )
    raise ReductionVerificationError(
        f"no randomized reduction passed verification in {max_retries} attempts"
    )


def _verify_randomized(batch_map, b, n_in, rng) -> bool:
    # (a) full Jacobian rank at 32 seeded points, forward differences.
    n_points = 32
    points = rng.standard_normal((n_points, n_in))
    h = 1e-6
    probes = [points]
    for i in range(n_in):
        shifted = points.copy()
        shifted[:, i] += h
        probes.append(shifted)
    outputs = (batch_map(np.concatenate(probes, axis=0)) @ b.T).reshape(1 + n_in, n_points, -1)
    # jac[p, :, i] is the difference quotient along input i at point p.
    jac = ((outputs[1:] - outputs[0]) / h).transpose(1, 2, 0)
    svals = np.linalg.svd(jac, compute_uv=False)
    if np.any(svals[:, -1] <= 1e-6 * svals[:, 0]):
        return False
    # (b) no collisions among 10,000 seeded pairs.
    u = rng.standard_normal((10_000, n_in))
    v = rng.standard_normal((10_000, n_in))
    gap_in = np.linalg.norm(u - v, axis=1)
    gap_out = np.linalg.norm(batch_map(u) @ b.T - batch_map(v) @ b.T, axis=1)
    ok = gap_in > 0
    return bool(np.all(gap_out[ok] >= 1e-9 * gap_in[ok]))


# ---------------------------------------------------------------------------
# Injective lift


#: Pathway block of each lift mode, in units of the d x d identity: entry
#: (i, j) is how pathway copy j of a layer's input feeds copy i of its
#: output.  In relu mode the pathway travels as a (+, -) pair, so each
#: hidden layer rebuilds the clean value with ReLU(t) - ReLU(-t) = t.
_PATHWAY_BLOCKS = {
    "injective": np.array([[1.0]]),
    "relu": np.array([[1.0, -1.0], [-1.0, 1.0]]),
}


def _pad_layer(layer: FiniteRankLayer, n_total: int) -> FiniteRankLayer:
    if n_total == layer.n:
        return layer
    c = np.zeros((n_total, n_total, layer.d_out, layer.d_in))
    c[: layer.n, : layer.n] = layer.c
    bias = np.zeros((layer.d_out, n_total))
    bias[:, : layer.n] = layer.bias.coeffs
    return FiniteRankLayer(
        d_in=layer.d_in,
        d_out=layer.d_out,
        n=n_total,
        c=c,
        bias=SpectralCoeffs(layer.basis, n_total, bias),
        activation=layer.activation,
    )


def _augment_network(net: FiniteRankNetwork, mode: str) -> FiniteRankNetwork:
    """Attach the identity-carrying pathway in front of every layer.

    Each augmented layer puts the mode's pathway block, with every entry
    standing for delta_{kp} I_d, beside the original kernel.  The first
    layer feeds the raw input to both, so it takes only the block's first
    column; the last layer collapses the pathway to one copy, so it takes
    only the block's first row and is linear.  A single-layer net thus
    carries the plain I pathway in either mode, and in relu mode the
    augmented output's first channels are exactly the input.  In injective
    mode the pathway passes through the hidden activations.
    """
    n, d = net.n, net.d_in
    block = _PATHWAY_BLOCKS[mode]
    last = len(net.layers) - 1
    aug = []
    for t, layer in enumerate(net.layers):
        path = block[: 1 if t == last else None, : 1 if t == 0 else None]
        p_out, p_in = path.shape[0] * d, path.shape[1] * d
        # The first layer's original kernel reads the raw input too.
        in_off = 0 if t == 0 else p_in
        c = np.zeros((n, n, p_out + layer.d_out, in_off + layer.d_in))
        # delta_{kp} times the block; -1 entries give -0.0 off the diagonal.
        c[:, :, :p_out, :p_in] = np.eye(n)[:, :, None, None] * np.kron(path, np.eye(d))
        c[:, :, p_out:, in_off:] = layer.c
        bias = np.zeros((p_out + layer.d_out, n))
        bias[p_out:] = layer.bias.coeffs
        aug.append(
            FiniteRankLayer(
                d_in=in_off + layer.d_in,
                d_out=p_out + layer.d_out,
                n=n,
                c=c,
                bias=SpectralCoeffs(net.basis, n, bias),
                activation=Activation() if t == last else layer.activation,
            )
        )
    return FiniteRankNetwork(aug)


def _fold_explicit(pair: ProjectionPair, layer: FiniteRankLayer):
    """Kernel blocks and bias of ``layer`` followed by the explicit
    reduction, i.e. ``b @ block_matrix(layer)`` without forming either.

    B keeps the last ell output channels and replaces each xi row by
    ``amp * (xi row) - alpha * (slot row)``.
    """
    kept = slice(pair.m - pair.ell, None)
    c = layer.c[:, :, kept].copy()
    bias = layer.bias.coeffs[kept].copy()
    slot_mode, slot_chan = np.divmod(pair.slots, pair.m)
    xi_mode = pair.xi_slots // pair.m
    c[:, xi_mode, -1] = pair.amp * c[:, xi_mode, -1] - pair.alpha * layer.c[:, slot_mode, slot_chan]
    bias[-1, xi_mode] = (pair.amp * bias[-1, xi_mode]
                         - pair.alpha * layer.bias.coeffs[slot_chan, slot_mode])
    return c, bias


@dataclass
class LiftResult:
    """Outcome of lifting a network to a provably injective one.

    ``network`` is the lifted map G at order ``n_total``; ``augmented``
    is the pathway-carrying map H at the original order; ``eps0`` is the
    measured projection tilt driving the closeness guarantee
    ||original(a) - G(a)|| <= 5 * eps0 * ||H(a)||.
    """

    original: FiniteRankNetwork
    mode: str
    network: FiniteRankNetwork
    augmented: FiniteRankNetwork
    reduction: ReductionMap
    eps0: float
    n: int
    n_total: int
    pair: Optional[ProjectionPair] = None

    def apply(self, a: SpectralCoeffs, grid: Grid) -> SpectralCoeffs:
        """Evaluate the lifted network on an order-n input."""
        return apply_network(self.network, a.padded(self.n_total), grid)

    def apply_augmented(self, a: SpectralCoeffs, grid: Grid) -> SpectralCoeffs:
        return apply_network(self.augmented, a, grid)

    def apply_original(self, a: SpectralCoeffs, grid: Grid) -> SpectralCoeffs:
        return apply_network(self.original, a, grid)

    def recover_input(self, h_out: SpectralCoeffs, grid: Grid) -> SpectralCoeffs:
        """Read the input back off the augmented output's pathway channels.

        Exact in relu mode (the final layer has already collapsed the
        pathway pair to the raw input).  In injective mode the pathway
        passed through the activations, so each one is inverted pointwise
        and reprojected; that is exact for identity-like activations and
        approximate otherwise.
        """
        d = self.original.d_in
        path = SpectralCoeffs(h_out.basis, h_out.n, h_out.coeffs[:d].copy())
        if self.mode == "relu":
            return path
        for layer in reversed(self.original.layers[:-1]):
            if layer.activation.is_identity_map:
                continue
            g = from_spectral(path, grid)
            inverted = g.copy()
            inverted.values = layer.activation.inverse(g.values)
            path = to_spectral(inverted, path.basis, path.n)
        return path


def lift_to_injective(
    net: FiniteRankNetwork,
    mode: str,
    alpha: float = 0.1,
    seed: int = 0,
    randomized: bool = False,
) -> LiftResult:
    """Lift a network to an injective one with a quantified deviation.

    Parameters
    ----------
    net : FiniteRankNetwork
        Hidden activations must all be ReLU (mode "relu") or all be
        injective Identity/LeakyReLU maps (mode "injective").
    mode : {"injective", "relu"}
    alpha : float
        Tilt amplitude of the explicit reduction; the measured eps0
        equals it.
    seed : int
        Only used by the randomized reduction.
    randomized : bool
        Use the randomized reduction (needs the dimension gate
        out_modes >= 2 * n_in_modes + 1) instead of the explicit one.
    """
    if mode not in LIFT_MODES:
        raise ValueError(f"mode must be one of {LIFT_MODES}, got {mode!r}")
    hidden = net.layers[:-1]
    kinds = {layer.activation.kind for layer in hidden}
    if mode == "relu":
        if kinds - {"relu"}:
            raise ValueError(f"relu mode expects all-ReLU hidden layers, got {sorted(kinds)}")
    else:
        bad = [
            layer.activation.kind
            for layer in hidden
            if not (layer.activation.is_injective and layer.activation.kind in ("identity", "leaky_relu"))
        ]
        if bad:
            raise ValueError(
                f"injective mode expects Identity/LeakyReLU hidden layers, got {bad}"
            )

    augmented = _augment_network(net, mode)
    d_in, d_out, n = net.d_in, net.d_out, net.n
    m = d_in + d_out

    if randomized:
        n_in_modes = n * d_in
        n_total = max(n * (1 + d_in), -(-(2 * n_in_modes + 1) // d_out))
        out_modes = n_total * d_out
        pair = None
        t_map = _augmented_coefficient_map(augmented, d_in, d_out, n, n_total)
        reduction = build_reduction_randomized(t_map, n_in_modes, out_modes, seed=seed)
    else:
        pair = build_projection_pair(m=m, ell=d_out, n_core=n, alpha=alpha)
        n_total = pair.n_total
        reduction = build_reduction_explicit(pair)
    eps0 = float(reduction.meta["tilt"])

    padded = [_pad_layer(layer, n_total) for layer in augmented.layers]
    final = padded[-1]
    if randomized:
        b_full = _embed_randomized_b(reduction.b, m, d_in, n, n_total)
        folded_c = blocks_from_matrix(b_full @ block_matrix(final), n_total, d_out, final.d_in)
        folded_bias = (b_full @ stack_coeffs(final.bias)).reshape(n_total, d_out).T
    else:
        folded_c, folded_bias = _fold_explicit(pair, final)
    lifted_final = FiniteRankLayer(
        d_in=final.d_in,
        d_out=d_out,
        n=n_total,
        c=folded_c,
        bias=SpectralCoeffs(final.basis, n_total, folded_bias),
        activation=Activation(),
    )
    lifted = FiniteRankNetwork(padded[:-1] + [lifted_final])
    return LiftResult(
        original=net,
        mode=mode,
        network=lifted,
        augmented=augmented,
        reduction=reduction,
        eps0=eps0,
        n=n,
        n_total=n_total,
        pair=pair,
    )


def _augmented_coefficient_map(augmented, d_in, d_out, n, n_total):
    """Batched stacked-coefficient map of H for the randomized verifier.

    Input rows are stacked order-n input coefficients; output rows are the
    pathway block (order n) followed by the output block (order n_total,
    zero-padded), which is the ambient layout the randomized reduction
    expects.  Evaluation uses a grid fine enough for the lifted order, and
    runs batched in chunks of ``VERIFY_CHUNK_ROWS`` rows.
    """
    basis = augmented.basis
    grid = Grid(basis.interval[0], basis.interval[1], max(8 * n_total, 64))
    n_path = n * d_in

    def batch_map(batch):
        batch = np.atleast_2d(np.asarray(batch, dtype=float))
        out = np.zeros((len(batch), n_path + n_total * d_out))
        for start in range(0, len(batch), VERIFY_CHUNK_ROWS):
            chunk = slice(start, start + VERIFY_CHUNK_ROWS)
            rows = batch[chunk]
            a = SpectralCoeffs(basis, n, rows.reshape(-1, n, d_in).transpose(0, 2, 1))
            # (rows, n, d_in + d_out): mode-major, like the stacked layout.
            h = apply_network(augmented, a, grid).coeffs.transpose(0, 2, 1)
            out[chunk, :n_path] = h[:, :, :d_in].reshape(len(rows), -1)
            # The output block's modes past n stay zero.
            out[chunk, n_path : n_path + n * d_out] = h[:, :, d_in:].reshape(len(rows), -1)
        return out

    return batch_map


def _embed_randomized_b(b_sub, m, d_in, n, n_total):
    """Spread a randomized reduction over the full stacked ambient space."""
    n_in_modes = n * d_in
    in_idx = (np.arange(n)[:, None] * m + np.arange(d_in)).ravel()
    b_full = np.zeros((b_sub.shape[0], m * n_total))
    b_full[:, in_idx] = b_sub[:, :n_in_modes]
    b_full[:, _keep_indices(m, m - d_in, n_total)] = b_sub[:, n_in_modes:]
    return b_full
