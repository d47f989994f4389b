"""Finite-rank integral operator layers and their networks.

A layer maps an n-channel function u to an m-channel function via

    (K u)(x) = sum_{k <= N, p <= N'} C[k,p] (u, phi_k) phi_p(x),     C[k,p] in R^{m x n},

followed by a spectral bias and a pointwise activation.  The output
order N' is N unless the layer says otherwise.  In coefficient space the
layer is the matrix ``block_matrix(layer) = layer.mat.T``; activations are
evaluated on a grid and the result is projected back to the first N' modes.

The layer maps accept a batch: coefficients of shape (B, d, N) pass
through one product with the layer's stored matrix, one synthesis product
and one analysis product per layer, and come out as (B, d', N').  A single
function of shape (d, N) is the unbatched case of the same code.  A
network checks its input once and steps through its layers on bare arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError
from .funcspace import (BasisSpec, Grid, SpectralCoeffs, expit, require_finite,
                        resolved_mode_table)

ACTIVATION_KINDS = ("identity", "relu", "leaky_relu", "sigmoid")


def _leaky(x: np.ndarray, slope: float) -> np.ndarray:
    """max(x, 0) - slope * max(-x, 0) on a float array.  Below slope 1 it is
    max(x, slope * x) in two passes, which cannot overflow; the + 0.0 gives
    the +0.0 the formula gives at -0.0 and where slope * x underflows."""
    if slope >= 1.0:
        return np.maximum(x, 0.0) - slope * np.maximum(-x, 0.0)
    out = slope * x
    np.maximum(x, out, out=out)
    out += 0.0
    return out


@dataclass(frozen=True)
class Activation:
    """Pointwise activation; ``a`` is the LeakyReLU negative-side slope,
    finite and positive with a finite reciprocal, so that every kind but
    ReLU is a bijection with a finite inverse."""

    kind: str = "identity"
    a: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation {self.kind!r}")
        if self.kind == "leaky_relu":
            if self.a is None:
                raise ValueError("leaky_relu needs a slope parameter a")
            if not 0.0 < self.a < float("inf"):
                raise ValueError(f"leaky_relu slope a must be finite and positive, got {self.a}")
            if 1.0 / float(self.a) == float("inf"):  # inverse would give inf * 0 = NaN
                raise ValueError(f"leaky_relu slope a must have a finite reciprocal, got {self.a}")
        elif self.a is not None:
            raise ValueError(f"{self.kind} takes no parameter")

    def apply(self, x: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """The activation of ``x``; ReLU writes it into ``x`` if ``overwrite``."""
        if self.kind == "leaky_relu":
            return _leaky(x, self.a)
        if self.kind == "relu":
            return np.maximum(x, 0.0, out=x if overwrite else None)
        return expit(x) if self.kind == "sigmoid" else np.asarray(x, dtype=float)

    @property
    def is_injective(self) -> bool:
        return self.kind != "relu"

    @property
    def is_identity_map(self) -> bool:
        """True when the activation is literally the identity function."""
        return self.kind == "identity" or (self.kind == "leaky_relu" and self.a == 1.0)

    def inverse(self, x: np.ndarray) -> np.ndarray:
        """Pointwise inverse; only defined for injective kinds."""
        if not self.is_injective:
            raise ValueError(f"{self.kind} has no inverse")
        if self.is_identity_map:
            return np.asarray(x, dtype=float)
        if self.kind == "leaky_relu":
            return _leaky(x, 1.0 / self.a)
        x = np.asarray(x, dtype=float)
        return np.log(x) - np.log1p(-x)  # sigmoid


class FiniteRankLayer:
    """One finite-rank integral layer from ``d_in`` to ``d_out`` channels and
    from input order ``n`` to output order ``n_out`` (default ``n``).  The
    kernel blocks ``c``, shape (n, n_out, d_out, d_in), are indexed [input
    mode k][output mode p][out chan][in chan]; the output-side ``bias`` has
    shape (d_out, n_out).  The layer stores only ``mat``, the C-ordered copy
    of the blocks made at construction, with rows (in chan, k) and columns
    (out chan, p), whose transpose is :func:`block_matrix`; ``c`` is a
    read-only view of it, so entries written through ``c`` reach the
    product.  A layer does not alias the array it was given, and refuses
    non-finite blocks or bias."""

    def __init__(self, d_in: int, d_out: int, n: int, c: np.ndarray, bias: SpectralCoeffs,
                 activation: Activation = Activation(), n_out: Optional[int] = None):
        self.d_in, self.d_out, self.n, self.bias, self.activation = d_in, d_out, n, bias, activation
        self.n_out = n if n_out is None else n_out
        c = np.asarray(c, dtype=float)
        expected = (self.n, self.n_out, self.d_out, self.d_in)
        if c.shape != expected:
            raise DimensionError(f"kernel blocks C have shape {c.shape}, expected {expected}")
        if bias.coeffs.shape != (self.d_out, self.n_out):
            raise DimensionError(
                f"bias has shape {bias.coeffs.shape}, expected {(self.d_out, self.n_out)}"
            )
        self.mat = np.array(c.transpose(3, 0, 2, 1), order="C").reshape(self.d_in * self.n, -1)
        require_finite("kernel blocks C", self.mat)
        require_finite("bias", bias.coeffs)

    @property
    def c(self) -> np.ndarray:
        return self.mat.reshape(self.d_in, self.n, self.d_out, self.n_out).transpose(1, 3, 2, 0)

    @property
    def basis(self) -> BasisSpec:
        return self.bias.basis


def zero_bias(basis: BasisSpec, d_out: int, n: int) -> SpectralCoeffs:
    return SpectralCoeffs(basis, n, np.zeros((d_out, n)))


@dataclass
class FiniteRankNetwork:
    """Composition of finite-rank layers; the final layer is linear."""

    layers: list

    def __post_init__(self):
        if not self.layers:
            raise DimensionError("network needs at least one layer")
        for t, (prev, nxt) in enumerate(zip(self.layers, self.layers[1:]), 1):
            if prev.d_out != nxt.d_in:
                raise DimensionError(f"layer {t}: widths do not chain: {prev.d_out} -> {nxt.d_in}")
            if prev.n_out != nxt.n:
                raise DimensionError(f"layer {t}: orders do not chain: {prev.n_out} -> {nxt.n}")
            if prev.basis != nxt.basis:
                raise DimensionError(f"layer {t}: all layers must share the basis")
        if not self.layers[-1].activation.is_identity_map:
            raise DimensionError(f"layer {len(self.layers) - 1}: final layer must carry the "
                                 f"identity activation")

    @property
    def n(self) -> int:
        """Input order."""
        return self.layers[0].n

    @property
    def n_out(self) -> int:
        return self.layers[-1].n_out

    @property
    def basis(self) -> BasisSpec:
        return self.layers[0].basis

    @property
    def d_in(self) -> int:
        return self.layers[0].d_in

    @property
    def d_out(self) -> int:
        return self.layers[-1].d_out


def _require_input(layer: FiniteRankLayer, u: SpectralCoeffs) -> None:
    if u.basis != layer.basis:
        raise DimensionError(f"coefficients in {u.basis} fed to a layer in {layer.basis}")
    if u.n != layer.n:
        raise DimensionError(f"coefficient order {u.n} != layer order {layer.n}")
    if u.channels != layer.d_in:
        raise DimensionError(f"{u.channels} channels fed to a d_in={layer.d_in} layer")


def _kernel_step(layer: FiniteRankLayer, coeffs: np.ndarray) -> np.ndarray:
    """The kernel part on checked coefficients: one gemv, or one gemm on a batch."""
    lead = coeffs.shape[:-2]
    return (coeffs.reshape(*lead, -1) @ layer.mat).reshape(*lead, layer.d_out, layer.n_out)


def apply_finite_rank(layer: FiniteRankLayer, u: SpectralCoeffs) -> SpectralCoeffs:
    """Apply only the kernel part: out[..., :, p] = sum_k C[k, p] @ u[..., :, k]."""
    _require_input(layer, u)
    return SpectralCoeffs(layer.basis, layer.n_out, _kernel_step(layer, u.coeffs))


def apply_affine(layer: FiniteRankLayer, u: SpectralCoeffs) -> SpectralCoeffs:
    """Kernel plus bias, no activation."""
    out = apply_finite_rank(layer, u)
    return SpectralCoeffs(out.basis, out.n, out.coeffs + layer.bias.coeffs)


def _layer_step(layer: FiniteRankLayer, coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """:func:`apply_layer` on checked (..., d_in, n) coefficients.  An
    identity-map activation skips the grid round trip, so purely linear
    layers compose exactly."""
    z = _kernel_step(layer, coeffs) + layer.bias.coeffs
    if layer.activation.is_identity_map:
        return z
    table = resolved_mode_table(layer.basis, grid, layer.n_out)
    values = z @ table.phi  # a fresh array, so the activation may overwrite it
    return layer.activation.apply(values, overwrite=True) @ table.analysis


def apply_layer(layer: FiniteRankLayer, u: SpectralCoeffs, grid: Grid) -> SpectralCoeffs:
    """Full layer: affine map, activation on the grid, reprojection to n_out."""
    _require_input(layer, u)
    return SpectralCoeffs(layer.basis, layer.n_out, _layer_step(layer, u.coeffs, grid))


def apply_network(net: FiniteRankNetwork, u: SpectralCoeffs, grid: Grid) -> SpectralCoeffs:
    """Compose the layers on one input (d_in, N) or a batch (B, d_in, N).
    The input is checked once: the network checked that its layers chain."""
    _require_input(net.layers[0], u)
    coeffs = u.coeffs
    for layer in net.layers:
        coeffs = _layer_step(layer, coeffs, grid)
    return SpectralCoeffs(net.basis, net.n_out, coeffs)


def block_matrix(layer: FiniteRankLayer) -> np.ndarray:
    """The layer's one dense view, ``layer.mat.T``, with rows (out chan, p)
    and columns (in chan, k): it maps ``u.coeffs.reshape(-1)`` to the
    kernel part's ``coeffs.reshape(-1)``.  A view, as ``c`` is, not a copy."""
    return layer.mat.T


@dataclass
class TruncationResult:
    layer: FiniteRankLayer
    hs_tail: float
    tail_clamped: bool


def truncate_kernel(
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
    grid: Grid,
    basis: BasisSpec,
    n: int,
) -> TruncationResult:
    """Project a scalar bivariate kernel k(x, y) onto rank n.

    Returns the single-channel layer with blocks
    C[k, p] = (k, phi_k(y) phi_p(x)) under the grid quadrature, together
    with the Hilbert-Schmidt tail estimate

        tail^2 = ||k||_HS^2 - sum_{k,p <= n} C[k,p]^2 .

    Rounding can push the bracket slightly negative when the kernel is
    numerically inside the span; the tail is clamped to zero and flagged
    in ``tail_clamped``, the one record of the clamp.
    Raises :class:`AliasingGuardError` when the grid does not resolve
    modes 1..n, the guard of :func:`to_spectral`.
    """
    phi_w = resolved_mode_table(basis, grid, n).analysis.T  # (n, M)
    # A contiguous copy: a scalar table broadcasts with zero strides, which
    # would take matmul off its BLAS path and change the last digits.
    table = np.array(kernel(grid.nodes[:, None], grid.nodes[None, :]), dtype=float, order="C")
    if table.shape != (grid.size, grid.size):
        raise DimensionError(
            f"kernel table has shape {table.shape}, expected {(grid.size, grid.size)}"
        )
    # C[k, p] = sum_{s,t} w_s w_t k(x_s, y_t) phi_k(y_t) phi_p(x_s)
    coeff = phi_w @ table.T @ phi_w.T  # rows k (input mode), cols p (output mode)
    hs_sq = float(np.sum(grid.weights[:, None] * grid.weights[None, :] * table**2))
    tail_sq = hs_sq - float(np.sum(coeff**2))
    clamped = tail_sq < 0.0
    tail_sq = max(tail_sq, 0.0)
    c = coeff[:, :, None, None]  # (k, p, 1, 1)
    layer = FiniteRankLayer(d_in=1, d_out=1, n=n, c=c, bias=zero_bias(basis, 1, n),
                            activation=Activation())
    return TruncationResult(layer=layer, hs_tail=float(np.sqrt(tail_sq)), tail_clamped=clamped)
