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
route therefore reads the pair, its tilt (eps0 = alpha) and the row
defect of B from those planes in closed form, with no dense algebra; its
dense matrices are built only on request, as references.  Both routes
then fold B into the last layer in its own layout, where a bias and each
row of the layer's matrix are (channel, mode) tables: the randomized B by
one product on the tables stacked mode-major, the explicit B by two slice
writes that copy the kept channels and put -alpha times each protected
entry on its xi mode.

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
    UsageError,
)
from .finite_rank import (
    Activation,
    FiniteRankLayer,
    FiniteRankNetwork,
    apply_network,
)
from .funcspace import ALIASING_FACTOR, Grid, SpectralCoeffs, from_spectral, to_spectral

#: Hidden activation kinds each lift mode accepts.
LIFT_MODES = {"injective": {"identity", "leaky_relu"}, "relu": {"relu"}}

#: Most rows the randomized verifier hands its map per call.  It checks its
#: Jacobian probes and its 10,000 pairs a chunk at a time, so its working
#: memory is one chunk's whatever its sample count.  At 256 rows one chunk's
#: grid values (a few hundred KB) stay in cache; on a 2-vCPU Xeon a randomized
#: lift (N=3) took 30-45 ms against 115 ms with 1024-row chunks.
VERIFY_CHUNK_ROWS = 256


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
    plane and the identity elsewhere.  The three are dense references,
    filled in on access; the lift and its report read only the planes.
    ``alpha`` is the tilt ||p_alpha - p_zero||, the eps0 of the lift: on
    each plane the difference has eigenvalues +-alpha, and elsewhere it is 0.
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

    def _plane_matrix(self, block) -> np.ndarray:
        """Identity with the 2x2 ``block`` on (slot, xi) of every plane."""
        (ss, sx), (xs, xx) = block
        mat = np.eye(self.dim)
        mat[self.slots, self.slots] = ss
        mat[self.slots, self.xi_slots] = sx
        mat[self.xi_slots, self.slots] = xs
        mat[self.xi_slots, self.xi_slots] = xx
        return mat

    @property
    def p_zero(self) -> np.ndarray:
        # The slot direction is projected out of each plane.
        return self._plane_matrix(((0.0, 0.0), (0.0, 1.0)))

    @property
    def p_alpha(self) -> np.ndarray:
        # 1 - u u^T on each plane, rounded as the dense product rounds it.
        amp, alpha = self.amp, self.alpha
        return self._plane_matrix(((1.0 - amp * amp, -(amp * alpha)),
                                   (-(amp * alpha), 1.0 - alpha * alpha)))

    @property
    def q(self) -> np.ndarray:
        amp, alpha = self.amp, self.alpha
        return self._plane_matrix(((amp, alpha), (-alpha, amp)))


@dataclass
class ReductionMap:
    """Reduction from m-channel to ell-channel coefficients, with provenance
    metadata.  The randomized kind holds its matrix ``dense`` and fold
    ``columns``; the explicit kind holds its ``pair``."""

    kind: str
    meta: dict = field(default_factory=dict)
    dense: Optional[np.ndarray] = None
    pair: Optional[ProjectionPair] = None
    columns: Optional[np.ndarray] = None

    def row_orthonormality_defect(self) -> float:
        """max |B B^T - I|.  The explicit rows have disjoint supports and
        are unit rows except the xi rows, amp * e_xi - alpha * e_slot, so
        the defect is theirs: |amp^2 + alpha^2 - 1|."""
        if self.pair is None:
            gram = self.dense @ self.dense.T
            return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
        amp, alpha = self.pair.amp, self.pair.alpha
        return abs(amp * amp + alpha * alpha - 1.0)

    def fold(self, coeffs: np.ndarray) -> np.ndarray:
        """B on (channel, mode) tables of shape (..., m, n), the layout of a
        bias and of each row of a layer's ``mat``; n is H's order, and the
        result is (..., ell, n_total).  The randomized kind takes one product
        on the tables stacked mode-major.  The explicit kind gives that
        product bit for bit: it copies the kept channels and puts ``-alpha``
        times slot (mode k, channel c) on mode ``n + k * (m - ell) + c`` of
        the last kept channel; the + 0.0 gives the +0.0 the product's sum
        gives for -0.0.
        """
        lead, (m, n) = coeffs.shape[:-2], coeffs.shape[-2:]
        if self.pair is None:
            if self.columns is None:
                raise UsageError("this randomized reduction has no columns to fold with")
            stacked = np.moveaxis(coeffs, (-1, -2), (0, 1)).reshape(n * m, *lead)
            # take, not dense[:, columns], whose copy is F-ordered: BLAS
            # rounds the product on that layout differently.
            out = self.dense.take(self.columns, 1) @ stacked
            ell = m - self.meta["n_in_modes"] // n  # B drops H's pathway channels
            return np.moveaxis(out.reshape(-1, ell, *lead), (0, 1), (-1, -2))
        pair = self.pair
        out = np.zeros(lead + (pair.ell, pair.n_total))
        out[..., :n] = coeffs[..., m - pair.ell:, :] + 0.0
        protected = np.swapaxes(coeffs[..., : m - pair.ell, :], -1, -2).reshape(*lead, -1)
        out[..., -1, n:] = -pair.alpha * protected + 0.0
        return out


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


def build_reduction_explicit(pair: ProjectionPair) -> ReductionMap:
    """Restrict-to-output-channels composed with the rotation and the
    tilted projection of ``pair``.  Since q p_alpha = p_zero q and the kept
    rows avoid the slots, this B is the kept rows of q: unit rows, except
    that each xi row is ``amp * e_xi - alpha * e_slot``."""
    meta = {"alpha": pair.alpha, "m": pair.m, "ell": pair.ell, "n_core": pair.n_core,
            "n_total": pair.n_total, "tilt": pair.alpha}
    return ReductionMap(kind="explicit", meta=meta, pair=pair)


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
    columns: Optional[np.ndarray] = None,
) -> ReductionMap:
    """Draw a random reduction for a black-box graph map and verify it.

    ``t_map`` sends a (batch, n_in_modes) array of stacked input
    coefficients to the (batch, n_in_modes + out_modes) array of their
    stacked ambient coefficients, at most ``VERIFY_CHUNK_ROWS`` rows per
    call; :meth:`ReductionMap.fold` needs the ``columns``.  The reference
    complement is the output block; the tilted one is its image under
    exp(0.1 S) for a random unit-norm skew-symmetric S.  A candidate B is
    accepted only if the finite difference Jacobian of B o T has full rank
    n_in_modes at 32 seeded points and no collision shows up among 10,000
    seeded pairs, drawn at once and checked a chunk at a time up to the
    first collision; else a fresh seed is drawn, up to ``max_retries`` times.
    """
    check_reduction_dimensions(n_in_modes, out_modes)
    dtot = n_in_modes + out_modes

    p_zero = np.zeros((dtot, dtot))
    p_zero[n_in_modes:, n_in_modes:] = np.eye(out_modes)

    for attempt in range(max_retries):
        rng = np.random.default_rng([seed, attempt])
        s = rng.standard_normal((dtot, dtot))
        skew = (s - s.T) / 2.0
        skew /= np.linalg.norm(skew, 2)
        rot = term = np.eye(dtot)
        for k in range(1, 17):  # ||0.1 S||_2 = 0.1: the remainder is below 0.1**17/17! ~ 3e-32
            term = term @ skew * (0.1 / k)
            rot = rot + term
        p = rot @ p_zero @ rot.T
        q = _kato_rotation(p_zero, p)
        b = (q @ p)[n_in_modes:, :]

        if _verify_randomized(t_map, b, n_in_modes, rng):
            return ReductionMap(
                dense=b,
                columns=columns,
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
    def chunks(rows):  # rows a chunk at a time, each with its image under B o T
        for i in range(0, len(rows), VERIFY_CHUNK_ROWS):
            chunk = rows[i:i + VERIFY_CHUNK_ROWS]
            yield chunk, batch_map(chunk) @ b.T

    # (a) full Jacobian rank at 32 seeded points, forward differences.
    n_points = 32
    points = rng.standard_normal((n_points, n_in))
    h = 1e-6
    probes = [points]
    for i in range(n_in):
        shifted = points.copy()
        shifted[:, i] += h
        probes.append(shifted)
    outputs = np.concatenate([out for _, out in chunks(np.concatenate(probes, axis=0))])
    outputs = outputs.reshape(1 + n_in, n_points, -1)
    # jac[p, :, i] is the difference quotient along input i at point p.
    jac = ((outputs[1:] - outputs[0]) / h).transpose(1, 2, 0)
    svals = np.linalg.svd(jac, compute_uv=False)
    if np.any(svals[:, -1] <= 1e-6 * svals[:, 0]):
        return False
    # (b) no collisions among 10,000 seeded pairs, a chunk at a time.
    u = rng.standard_normal((10_000, n_in))
    v = rng.standard_normal((10_000, n_in))
    for (pu, ru), (pv, rv) in zip(chunks(u), chunks(v)):
        gap_in = np.linalg.norm(pu - pv, axis=1)
        gap_out = np.linalg.norm(ru - rv, axis=1)
        if not np.all((gap_out >= 1e-9 * gap_in)[gap_in > 0]):
            return False
    return True


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
        d_in, d_out = in_off + layer.d_in, p_out + layer.d_out
        # The layer's stored layout: rows (in chan, k), columns (out chan, p).
        mat = np.zeros((d_in * n, d_out * n))
        # delta_{kp} times kron(path, I_d); -1 entries give -0.0 off the diagonal.
        kron = (path[:, None, :, None] * np.eye(d)[None, :, None, :]).reshape(p_out, p_in)
        mat[:p_in * n, :p_out * n] = (kron.T[:, None, :, None]
                                      * np.eye(n)[None, :, None, :]).reshape(p_in * n, -1)
        mat[in_off * n:, p_out * n:] = layer.mat
        bias = np.concatenate([np.zeros((p_out, n)), layer.bias.coeffs])
        aug.append(
            FiniteRankLayer(
                d_in=d_in,
                d_out=d_out,
                n=n,
                c=mat.reshape(d_in, n, d_out, n).transpose(1, 3, 2, 0),  # copied by one memcpy
                bias=SpectralCoeffs(net.basis, n, bias),
                activation=Activation() if t == last else layer.activation,
            )
        )
    return FiniteRankNetwork(aug)


@dataclass
class LiftResult:
    """Outcome of lifting a network to a provably injective one.

    ``network`` is the lifted map G: its hidden layers are H's, at the
    original order n, and its last layer maps order n to ``n_total``.
    ``augmented`` is the pathway-carrying map H at order n; ``eps0`` is the
    projection tilt ||p_alpha - p_zero|| driving the closeness guarantee
    ||original(a) - G(a)|| <= 5 * eps0 * ||H(a)||: alpha itself for the
    explicit pair (``reduction.pair``), measured for the randomized one.
    """

    original: FiniteRankNetwork
    mode: str
    network: FiniteRankNetwork
    augmented: FiniteRankNetwork
    reduction: ReductionMap
    eps0: float
    n: int
    n_total: int

    def apply(self, a: SpectralCoeffs, grid: Grid) -> SpectralCoeffs:
        """Evaluate the lifted network on an order-n input."""
        return apply_network(self.network, a, grid)

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
    mode: Optional[str] = None,
    alpha: float = 0.1,
    seed: int = 0,
    randomized: bool = False,
) -> LiftResult:
    """Lift a network to an injective one with a quantified deviation.

    Parameters
    ----------
    net : FiniteRankNetwork
        Hidden activations must all be ReLU (mode "relu") or all be
        Identity/LeakyReLU (mode "injective"), and every layer must keep
        its order (n_out == n); a lifted network does not lift again.
    mode : {"injective", "relu"} or None
        None takes "relu" when every hidden activation is ReLU (a net
        with no hidden layer included) and "injective" otherwise.
    alpha : float
        Tilt amplitude of the explicit reduction; its eps0 is alpha.
    seed : int
        Only used by the randomized reduction.
    randomized : bool
        Use the randomized reduction (needs the dimension gate
        out_modes >= 2 * n_in_modes + 1) instead of the explicit one.
    """
    kinds = {layer.activation.kind for layer in net.layers[:-1]}
    if mode is None:
        mode = "relu" if kinds <= LIFT_MODES["relu"] else "injective"
    if mode not in LIFT_MODES:
        raise UsageError(f"mode must be one of {tuple(LIFT_MODES)}, got {mode!r}")
    if not kinds <= LIFT_MODES[mode]:
        raise UsageError(f"{mode} lift needs hidden activations in "
                         f"{sorted(LIFT_MODES[mode])}, got {sorted(kinds)}")
    for t, layer in enumerate(net.layers):
        if layer.n_out != layer.n:
            raise UsageError(f"layer {t}: the lift needs layers that keep their order, "
                             f"got order {layer.n} -> {layer.n_out}")

    augmented = _augment_network(net, mode)
    d_in, d_out, n = net.d_in, net.d_out, net.n

    if randomized:
        n_total = max(n * (1 + d_in), -(-(2 * n * d_in + 1) // d_out))
        reduction = _randomized_reduction(augmented, d_in, n, n_total, seed)
    else:
        pair = build_projection_pair(m=d_in + d_out, ell=d_out, n_core=n, alpha=alpha)
        n_total = pair.n_total
        reduction = build_reduction_explicit(pair)
    eps0 = float(reduction.meta["tilt"])

    # Fold B into the last layer: G's last layer is B after H's.  Each row
    # of the layer's matrix, like its bias, is a (channel, mode) table.
    final = augmented.layers[-1]
    mat = reduction.fold(final.mat.reshape(-1, final.d_out, n))
    lifted_final = FiniteRankLayer(
        d_in=final.d_in,
        d_out=d_out,
        n=n,
        c=mat.reshape(final.d_in, n, d_out, n_total).transpose(1, 3, 2, 0),
        bias=SpectralCoeffs(final.basis, n_total, reduction.fold(final.bias.coeffs)),
        activation=Activation(),
        n_out=n_total,
    )
    lifted = FiniteRankNetwork(augmented.layers[:-1] + [lifted_final])
    return LiftResult(
        original=net,
        mode=mode,
        network=lifted,
        augmented=augmented,
        reduction=reduction,
        eps0=eps0,
        n=n,
        n_total=n_total,
    )


def _randomized_reduction(augmented, d_in, n, n_total, seed):
    """The randomized reduction for H, verified on its batched
    stacked-coefficient map.

    Input rows are stacked order-n input coefficients; output rows are
    ambient: the pathway block (order n) followed by the zero-padded output
    block (order n_total).  Evaluation uses a grid fine enough for the
    lifted order, on the verifier's chunk of rows as one batch.
    """
    basis, m = augmented.basis, augmented.d_out
    grid = Grid(basis.interval[0], basis.interval[1], max(ALIASING_FACTOR * n_total, 64))
    # The ambient column of each stacked order-n entry of H's output (mode
    # k, channel c at k * m + c): where the map writes it and B folds it.
    k, c = np.divmod(np.arange(n * m), m)
    columns = np.where(c < d_in, k * d_in + c, n * d_in + k * (m - d_in) + c - d_in)

    def batch_map(rows):
        a = SpectralCoeffs(basis, n, rows.reshape(-1, n, d_in).transpose(0, 2, 1))
        h = apply_network(augmented, a, grid).coeffs.transpose(0, 2, 1)  # mode-major
        out = np.zeros((len(rows), n * d_in + n_total * (m - d_in)))
        out[:, columns] = h.reshape(len(rows), -1)
        return out

    return build_reduction_randomized(batch_map, n * d_in, n_total * (m - d_in), seed=seed,
                                      columns=columns)
