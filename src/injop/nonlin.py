"""Nonlinear integral operators of multiplier-plus-kernel form and their
fixed-point inversion.

The operators are

    F(u)(x) = W(x) u(x) + K(u)(x) + b(x),
    K(u)(x) = integral of k(x, y, u(x), u(y)) u(y) dy,

discretized with the trapezoid rule on the grid: over the whole interval,
or over [a, x_i] at each node x_i for a causal (Volterra) kernel.  The
scalar kernels are one ridge family; softmax attention computes its own
integral.  A scalar integral whose kernel values are one row or one
column (they depend on y alone or on x alone, as for every ridge kernel
with scalar parameters) is one trapezoid sum: a dot product of length M,
or a running sum for a Volterra kernel.  Any other table costs the dense
M x M product with the quadrature weights, which are built only for it.
:meth:`NonlinearIntegralOperator.evaluate` gives K(u) and F(u) on bare
(h, M) arrays; the inversion loops step on it and check their target
``GridFunction`` once.  Linearization is available exactly for the
kernels that read at most u(y), matching the derivative formula

    (A_{u0} w)(x) = W(x) w(x)
                    + integral of [k(x,y,u0(y)) + u0(y) dk/du(x,y,u0(y))] w(y) dy.

Where that bracket depends on y alone and the kernel is not causal
(``sigmoid_sum``, ``wire`` and scalar ``linear_table`` on u(y)), A is
diag(W) + 1 r^T, and :func:`linearize` builds, checks and solves it in O(M)
by Sherman-Morrison, forming no M x M array.  Other kernels take the dense
matrix, inverted once.  Either form applies its inverse only through
:meth:`FactorizedFrechet.solve`, to a vector or to the columns of a matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    DimensionError,
    DivergenceError,
    NotDifferentiableError,
    SingularOperatorError,
)
from .finite_rank import expit
from .funcspace import (BasisSpec, Grid, GridFunction, SpectralCoeffs, from_spectral,
                        l2_h1_norms, require_finite)

TableParam = Union[float, np.ndarray, Callable[[np.ndarray, np.ndarray], np.ndarray]]


def _normalized(p: TableParam) -> TableParam:
    """A parameter as a float, a float array, or the callable itself."""
    return p if callable(p) else float(p) if np.ndim(p) == 0 else np.asarray(p, dtype=float)


def _param_at(p: TableParam, x: np.ndarray, y: np.ndarray):
    """A normalized parameter at (x, y)."""
    return p(x, y) if callable(p) else p


def _param_sup(p: TableParam, grid: Grid) -> float:
    return float(np.max(np.abs(_param_at(p, grid.nodes[:, None], grid.nodes[None, :]))))


class KernelBase:
    """Kernel k(x, y, u(x), u(y)); a scalar kernel supplies ``table`` (its
    (M, M) grid values), ``du`` and optionally ``stored_table`` (the same
    values unbroadcast); a kernel of another form overrides ``integral``."""

    kind: str = "base"
    uses_ux: bool = False
    reads: Tuple[str, ...] = ()  # the solution values the kernel reads: "u(x)", "u(y)"
    causal: bool = False
    channels: int = 1

    def table(self, x, y, s, t) -> np.ndarray:
        """Kernel values on the (x, y) grid; s = u(x) column, t = u(y) row."""
        raise NotImplementedError

    def stored_table(self, x, y, s, t):
        """Any array or float that broadcasts to :meth:`table`: the table itself."""
        return self.table(x, y, s, t)

    def du(self, x, y, t) -> np.ndarray:
        """Derivative with respect to the u(y) argument."""
        raise NotImplementedError

    def check_grid(self, grid: Grid):
        """Raise :class:`DimensionError` if a parameter does not fit the grid."""

    def integral(self, grid: Grid, values: np.ndarray) -> np.ndarray:
        """K(u) on the grid: the trapezoid integral over y of
        table(x, y, u(x), u(y)) u(y), read from :meth:`stored_table`.

        Stored values with an axis of length 1 or stride 0 are one row r
        (constant in x) or one column c (constant in y), so K(u) is the
        trapezoid sum of r u, or c times that of u.  Any other table takes
        the dense M x M product with the quadrature weights.
        """
        vals = values[0]
        s = vals[:, None] if self.uses_ux else None
        k = np.atleast_2d(self.stored_table(grid.nodes[:, None], grid.nodes[None, :], s,
                                            vals[None, :]))
        if k.shape[0] == 1 or k.strides[0] == 0:
            return trapezoid(grid, k[0] * vals, self.causal)
        if k.shape[1] == 1 or k.strides[1] == 0:
            return k[:, 0] * trapezoid(grid, vals, self.causal)
        return (k * quad_weights(grid, self.causal)) @ vals


def trapezoid(grid: Grid, f: np.ndarray, causal: bool) -> np.ndarray:
    """Trapezoid integral of f along its last axis (y) for every node x_i:
    over [a, x_i] when causal, a running sum that is 0 at x_0; otherwise
    over the whole interval, the same value at every node."""
    if causal:
        return grid.h * (np.cumsum(f, axis=-1) - 0.5 * (f[..., :1] + f))
    return np.full(grid.size, grid.weights @ f)


def quad_weights(grid: Grid, causal: bool) -> np.ndarray:
    """Trapezoid weights over y for a dense (M, M) table product: the grid's
    weight row, shape (M,), broadcast along the table's rows, or for a causal
    kernel a new (M, M) table whose row i integrates over [a, x_i], with h/2
    at j = 0 and j = i: the causal :func:`trapezoid` of e_j in column j."""
    if not causal:
        return grid.weights
    w = np.tri(grid.size)
    w[:, 0] = w[np.diag_indices(grid.size)] = 0.5
    w[0, 0] = 0.0
    return grid.h * w


def _wire_profile(omega: float) -> tuple:
    """Gabor profile sin(omega z) exp(-z^2) and its derivative."""
    return (
        lambda z: np.sin(omega * z) * np.exp(-np.square(z)),
        lambda z: (omega * np.cos(omega * z) - 2.0 * z * np.sin(omega * z)) * np.exp(-np.square(z)),
    )


#: Ridge profiles (g, g') by name; the wire profile is :func:`_wire_profile`.
#: Every g is bounded by 1 in absolute value.  The constant profile g = 1 is
#: None, so a dense table passes into the quadrature product uncopied.
_PROFILES = {
    "none": (None, lambda z: 0.0),
    "sigmoid": (expit, lambda z: (s := expit(z)) * (1.0 - s)),
    "sin": (np.sin, np.cos),
}


class RidgeKernel(KernelBase):
    """Sum of ridges in the solution value,

        k = sum_j c_j(x, y) * g(a_j(x, y) * u + b_j(x, y)),

    where u is u(x) or u(y) according to ``signature`` and ``profile`` is
    the pair (g, g').  Each parameter is made a float, a float array or a
    callable of (x, y) once; scalars keep :meth:`stored_table` a row or a
    column, and a dense parameter must broadcast to the (M, M) grid table.
    With scalars alone, :meth:`integral` takes the route fixed here: a row
    in u(y) or a column in u(x), or for the constant profile one number,
    the sum of the c_j, taken as a row.
    """

    def __init__(self, terms: Sequence[tuple], profile: tuple, signature: str = "u(y)"):
        if signature not in ("u(x)", "u(y)"):
            raise ValueError(f"signature must be 'u(x)' or 'u(y)', got {signature!r}")
        if not terms:
            raise ValueError("need at least one (c, a, b) term")
        self.terms = [tuple(map(_normalized, t)) for t in terms]
        for j, term in enumerate(self.terms):
            for name, p in zip("cab", term):
                require_finite(f"{self.kind} kernel term {j} parameter {name}", p)
        self.uses_ux = signature == "u(x)"
        self._g, self._dg = profile
        self.reads = () if self._g is None else (signature,)
        scalar = all(type(p) is float for term in self.terms for p in term)
        self._route = None if not scalar else (
            "column" if self.uses_ux and self._g is not None else "row")

    def _ridge_sum(self, terms, u):
        """sum_j c_j g(a_j u + b_j) over parameter values, or sum_j c_j for g = 1."""
        acc = None
        for c, a, b in terms:
            term = c if self._g is None else c * self._g(a * u + b)
            acc = term if acc is None else acc + term
        return acc

    def stored_table(self, x, y, s, t):
        """The ridge sum unbroadcast: one row (u(y)) or column (u(x)) for scalars."""
        terms = [tuple(_param_at(p, x, y) for p in term) for term in self.terms]
        return self._ridge_sum(terms, s if self.uses_ux else t)

    def integral(self, grid: Grid, values: np.ndarray) -> np.ndarray:
        """K(u).  With scalar parameters the ridge sum is taken over the
        solution values alone: K(u) is the trapezoid sum of r u for a row r
        (or a constant), or a column c times that of u.  Any other parameter
        takes the stored-table route of :meth:`KernelBase.integral`."""
        if self._route is None:
            return super().integral(grid, values)
        vals = values[0]
        ridge = self._ridge_sum(self.terms, vals)
        if self._route == "column":
            return ridge * trapezoid(grid, vals, self.causal)
        return trapezoid(grid, ridge * vals, self.causal)

    def table(self, x, y, s, t):
        u = s if self.uses_ux else t
        return np.broadcast_to(self.stored_table(x, y, s, t),
                               np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(u)))

    def du(self, x, y, t):
        acc = 0.0
        for c, a, b in self.terms:
            av = _param_at(a, x, y)
            acc = acc + _param_at(c, x, y) * av * self._dg(av * t + _param_at(b, x, y))
        return np.broadcast_to(acc, np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(t)))

    def sup_bound(self, grid: Grid) -> float:
        """sum_j sup |c_j|, an upper bound for sup |k| since |g| <= 1."""
        return sum(_param_sup(c, grid) for c, _, _ in self.terms)

    def check_grid(self, grid: Grid):
        """Each dense parameter must broadcast to the (M, M) grid table."""
        m = grid.size
        for shape in {np.shape(p) for term in self.terms for p in term if not callable(p)}:
            if len(shape) > 2 or any(n not in (1, m) for n in shape):
                raise DimensionError(
                    f"kernel parameter of shape {shape} does not broadcast to the "
                    f"({m}, {m}) grid table"
                )


class SigmoidSumKernel(RidgeKernel):
    """Sum of coefficient-weighted logistic ridges in u(x) or u(y)."""

    kind = "sigmoid_sum"

    def __init__(self, terms: Sequence[tuple], signature: str = "u(x)"):
        super().__init__(terms, _PROFILES["sigmoid"], signature)


class WireKernel(RidgeKernel):
    """Wavelet-activation kernel: decaying sinusoid ridges in u."""

    kind = "wire"

    def __init__(self, omega: float, terms: Sequence[tuple], signature: str = "u(x)"):
        self.omega = float(omega)
        require_finite("omega", self.omega)
        super().__init__(terms, _wire_profile(self.omega), signature)


class VolterraKernel(RidgeKernel):
    """Causal kernel base(x, y) * g(u(y)) supported on y <= x: the single
    ridge term (base, 1, 0).

    The causal structure lives in the quadrature (trapezoid rules over
    [a, x_i]), so the mask is exact on the grid.
    """

    kind = "volterra"
    causal = True

    def __init__(self, base: TableParam = 1.0, nonlinearity: str = "none"):
        if type(nonlinearity) is not str or nonlinearity not in _PROFILES:
            raise ValueError(
                f"unknown nonlinearity {nonlinearity!r}; expected one of {sorted(_PROFILES)}"
            )
        self.nonlinearity = nonlinearity
        super().__init__([(base, 1.0, 0.0)], _PROFILES[nonlinearity])


class LinearTableKernel(RidgeKernel):
    """Plain bivariate table k(x, y), the single ridge term (table, 0, 0)
    with the constant profile; the operator is affine."""

    kind = "linear_table"

    def __init__(self, table: TableParam):
        super().__init__([(table, 0.0, 0.0)], _PROFILES["none"])


class SoftmaxAttentionKernel(KernelBase):
    """Attention weights softmax_x(<A u(x), B u(y)>), normalized over x.

    Reads both u(x) and u(y); supports d channels with d x d matrices.
    """

    kind = "softmax_attention"
    uses_ux = True
    reads = ("u(x)", "u(y)")

    def __init__(self, a_mat, b_mat):
        self.a_mat = np.atleast_2d(np.asarray(a_mat, dtype=float))
        self.b_mat = np.atleast_2d(np.asarray(b_mat, dtype=float))
        if self.a_mat.shape != self.b_mat.shape or self.a_mat.shape[0] != self.a_mat.shape[1]:
            raise DimensionError(
                f"attention matrices must share a square shape, got "
                f"{self.a_mat.shape} and {self.b_mat.shape}"
            )
        require_finite("attention matrices A and B", [self.a_mat, self.b_mat])

    @property
    def channels(self) -> int:
        return self.a_mat.shape[0]

    def weights_on_grid(self, grid: Grid, u_values: np.ndarray) -> np.ndarray:
        """Normalized weight table w[i, j]; columns integrate to 1 over x."""
        au = self.a_mat @ u_values  # (d, M)
        bu = self.b_mat @ u_values
        scores = au.T @ bu  # (M_x, M_y)
        scores = scores - scores.max(axis=0, keepdims=True)
        num = np.exp(scores)
        denom = grid.weights @ num  # integral over x for each y
        return num / denom[None, :]

    def integral(self, grid: Grid, values: np.ndarray) -> np.ndarray:
        return ((self.weights_on_grid(grid, values) * grid.weights) @ values.T).T


class NonlinearIntegralOperator:
    """Discretized multiplier-plus-integral operator on a grid."""

    def __init__(
        self,
        grid: Grid,
        kernel: KernelBase,
        w: Union[float, np.ndarray, Callable[[np.ndarray], np.ndarray]] = 1.0,
        bias: Optional[GridFunction] = None,
    ):
        self.grid = grid
        self.kernel = kernel
        w_values = np.array(w(grid.nodes) if callable(w) else w, dtype=float)  # a copy
        if w_values.ndim == 0 and not callable(w):
            w_values = np.full(grid.size, float(w_values))
        if w_values.shape != (grid.size,):
            raise DimensionError(
                f"multiplier field w has shape {w_values.shape}, grid has {grid.size} nodes"
            )
        require_finite("multiplier field w", w_values)
        if np.any(np.abs(w_values) < 1e-14):
            raise ValueError("multiplier field w must be bounded away from zero")
        self.w_values = w_values
        if bias is not None:
            grid.require_matches(bias.grid)
            if bias.values.shape != (kernel.channels, grid.size):
                raise DimensionError(f"bias has shape {bias.values.shape}, operator expects "
                                     f"({kernel.channels}, {grid.size})")
            require_finite("bias", bias.values)
        self.bias = bias
        self.channels = kernel.channels
        kernel.check_grid(grid)

    def w_inv_sup(self) -> float:
        """Operator norm of the inverse multiplier, max 1/|W|."""
        return float(np.max(1.0 / np.abs(self.w_values)))

    def checked_values(self, u: GridFunction) -> np.ndarray:
        """The (h, M) values of u, once its grid and channel count match the operator's."""
        self.grid.require_matches(u.grid)
        if u.channels != self.channels:
            raise DimensionError(f"operator expects {self.channels} channel(s), got {u.channels}")
        return u.values

    def evaluate(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """K(u) and F(u) = W u + K(u) + b, each (h, M), from values that
        :meth:`checked_values` returned or that were computed from them."""
        k = self.kernel.integral(self.grid, values).reshape(values.shape)
        f = self.w_values * values + k
        if self.bias is not None:
            f = f + self.bias.values
        return k, f

    def kernel_part(self, u: GridFunction) -> GridFunction:
        """K(u) alone, without multiplier and bias."""
        return GridFunction(self.grid, self.evaluate(self.checked_values(u))[0])

    def apply(self, u: GridFunction) -> GridFunction:
        return GridFunction(self.grid, self.evaluate(self.checked_values(u))[1])


@dataclass
class InversionTrace:
    """Per-iteration record of a fixed-point inversion."""

    residuals_l2: List[float] = field(default_factory=list)
    residuals_h1: List[float] = field(default_factory=list)
    ratios: List[float] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    meta: dict = field(default_factory=dict)

    def rows(self):
        """(iteration, residual_l2, residual_h1, ratio-or-None) tuples."""
        return [(i + 1, l2, h1, self.ratios[i - 1] if 1 <= i <= len(self.ratios) else None)
                for i, (l2, h1) in enumerate(zip(self.residuals_l2, self.residuals_h1))]


#: Consecutive residual increases tolerated before declaring divergence.
DIVERGENCE_PATIENCE = 5


def invert_banach(
    op: NonlinearIntegralOperator,
    z: GridFunction,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> tuple:
    """Invert F(u) = z by the contraction iteration u <- W^-1 (z - b - K(u)).

    Starts from u = 0; iteration m is the m-th application of the map, and
    its K(u) serves both its residual and the next update (n iterations take
    n + 1 kernel integrals).  z is checked once; the loop steps on (h, M)
    arrays and wraps only the u it returns.  Raises :class:`DivergenceError`
    (with the trace attached) after ``DIVERGENCE_PATIENCE`` consecutive
    residual increases, or at the first non-finite residual; the trace then
    holds the finite iterations before it.
    """
    z_values = op.checked_values(z)
    rhs = z_values if op.bias is None else z_values - op.bias.values
    u = np.zeros_like(z_values)
    k_u = op.evaluate(u)[0]
    trace = InversionTrace(meta={"method": "banach", "tol": tol})
    increases = 0
    for m in range(1, max_iter + 1):
        u = (rhs - k_u) / op.w_values
        k_u, f_u = op.evaluate(u)
        res_l2, res_h1 = l2_h1_norms(op.grid, f_u - z_values)
        if not (math.isfinite(res_l2) and math.isfinite(res_h1)):
            raise DivergenceError(
                f"non-finite residual at iteration {m} (L2 {res_l2}, H1 {res_h1})",
                trace=trace,
            )
        if trace.residuals_l2:
            prev = trace.residuals_l2[-1]
            trace.ratios.append(res_l2 / prev if prev > 0 else 0.0)
            increases = increases + 1 if res_l2 > prev else 0
        trace.residuals_l2.append(res_l2)
        trace.residuals_h1.append(res_h1)
        trace.iterations = m
        if res_l2 <= tol:
            trace.converged = True
            break
        if increases >= DIVERGENCE_PATIENCE:
            raise DivergenceError(
                f"residual increased {DIVERGENCE_PATIENCE} iterations in a row "
                f"(last {res_l2:.3e})",
                trace=trace,
            )
    return GridFunction(op.grid, u), trace


def _derivative_table(op: NonlinearIntegralOperator, u0: GridFunction) -> np.ndarray:
    """The (M, M) table k(x, y, u0(y)) + u0(y) dk/du(x, y, u0(y)) of the
    linearization at u0.  Where the kernel table and its slope both have a
    zero stride in x (every row is one row in memory), the sum is formed
    once, as that row, and returned as a zero-stride view of it."""
    op.grid.require_matches(u0.grid)
    if op.kernel.uses_ux:
        raise NotDifferentiableError(
            "kernel reads u(x); the derivative formula needs the k(x, y, u(y)) form"
        )
    vals = u0.values[0]
    x, y, t = op.grid.nodes[:, None], op.grid.nodes[None, :], vals[None, :]
    table = op.kernel.table(x, y, None, t)
    slope = op.kernel.du(x, y, t)
    if table.strides[0] == 0 and slope.strides[0] == 0:
        return np.broadcast_to(table[0] + vals * slope[0], table.shape)
    return table + t * slope


def _dense_frechet(op: NonlinearIntegralOperator, table: np.ndarray) -> np.ndarray:
    """W on the diagonal plus the quadrature product with the derivative table."""
    a = quad_weights(op.grid, op.kernel.causal) * table
    a[np.arange(op.grid.size), np.arange(op.grid.size)] += op.w_values
    return a


def frechet_derivative(op: NonlinearIntegralOperator, u0: GridFunction) -> np.ndarray:
    """Dense derivative matrix of F at u0.

    Only defined when the kernel reads at most u(y); kernels that read
    u(x) (including attention) raise :class:`NotDifferentiableError`.
    """
    return _dense_frechet(op, _derivative_table(op, u0))


def linearize(op: NonlinearIntegralOperator, u0: GridFunction) -> "FactorizedFrechet":
    """The derivative of F at u0, factorized.

    A kernel that is not causal and whose derivative table is one row r0 in
    memory (a ridge kernel with scalar parameters on u(y): ``sigmoid_sum``,
    ``wire``, scalar ``linear_table``) has the derivative
    diag(W) + 1 r^T with r = weights * r0, which takes the rank-one form in
    O(M); any other kernel takes the dense matrix of
    :func:`frechet_derivative`.
    """
    table = _derivative_table(op, u0)
    if op.kernel.causal or table.strides[0] != 0:
        return FactorizedFrechet(_dense_frechet(op, table))
    return FactorizedFrechet(op.w_values, op.grid.weights * table[0])


#: Relative singular-value floor below which the linearization is treated
#: as singular.
FRECHET_SINGULAR_TOL = 1e-10


class FactorizedFrechet:
    """Inverse of a derivative matrix A, with a singularity check.

    A is the (M, M) matrix ``a``; or, given ``r``, the diagonal ``a`` = W
    plus the rank-one part 1 r^T.  The rank-one form solves by
    Sherman-Morrison (Sherman & Morrison, 1950): with p = 1/W, q = r p and
    c = 1 / (1 + r.p), A^{-1} = diag(p) - c p q^T, so a solve is O(M) and
    no M x M array is formed.

    sigma_max/sigma_min <= ||A||_F ||A^{-1}||_F (Higham, ch. 14-15), so a
    bound under 1 / (2 FRECHET_SINGULAR_TOL) passes; the 2 covers the
    rounding of the computed inverse.  The rank-one form has both Frobenius
    norms in closed form; where its bound fails (1 + r.p = 0 included),
    the dense matrix is formed and checked as any other.  The singular
    values decide the rest.  ``rank_one`` is the pair (W, r) when the
    rank-one form holds, else None.  Only :meth:`solve` applies A^{-1}; the
    rank-one form never builds it.
    """

    def __init__(self, a: np.ndarray, r: Optional[np.ndarray] = None):
        a = np.asarray(a, dtype=float)
        r = None if r is None else np.asarray(r, dtype=float)
        if not (np.all(np.isfinite(a)) and (r is None or np.all(np.isfinite(r)))):
            raise ValueError("non-finite derivative matrix")
        self.rank_one: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if r is not None:
            if a.ndim != 1 or r.shape != a.shape:
                raise DimensionError(
                    f"rank-one form needs a diagonal and a row of one length, got "
                    f"shapes {a.shape} and {r.shape}"
                )
            with np.errstate(all="ignore"):
                p = 1.0 / a
                q = r * p
                c = 1.0 / (1.0 + r @ p)
                norm_a = np.sqrt(np.sum(np.square(a + r) + (a.size - 1) * np.square(r)))
                p_sq = np.square(p)
                norm_inv = np.sqrt(np.sum(
                    p_sq * np.square(1.0 - c * q) + np.square(c * q) * (np.sum(p_sq) - p_sq)
                ))
                bound = norm_a * norm_inv
            if bound * FRECHET_SINGULAR_TOL < 0.5:
                self.rank_one = (a, r)
                self._sherman_morrison = (p, q, c)
                return
            a = np.diag(a) + r[None, :]
        try:
            inverse = np.linalg.inv(a)
            bound = np.linalg.norm(a) * np.linalg.norm(inverse)
        except np.linalg.LinAlgError:
            inverse, bound = None, np.inf
        if not bound * FRECHET_SINGULAR_TOL < 0.5:
            svals = np.linalg.svd(a, compute_uv=False)
            sigma_max, sigma_min = float(svals[0]), float(svals[-1])
            if inverse is None or sigma_min <= FRECHET_SINGULAR_TOL * sigma_max:
                raise SingularOperatorError(
                    f"linearized operator is numerically singular "
                    f"(sigma_min/sigma_max = {sigma_min / max(sigma_max, 1e-300):.3e}); "
                    f"injectivity fails at the linearization point"
                )
        self._inverse = inverse

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^{-1} rhs for one right-hand side of shape (M,) or k of shape (M, k)."""
        rhs = np.asarray(rhs, dtype=float)
        m = len(self.rank_one[0]) if self.rank_one else len(self._inverse)
        if rhs.ndim not in (1, 2) or rhs.shape[0] != m:
            raise DimensionError(f"right-hand side of shape {rhs.shape}; need ({m},) or ({m}, k)")
        if self.rank_one is None:
            return self._inverse @ rhs
        p, q, c = self._sherman_morrison
        p = p.reshape(p.shape + (1,) * (rhs.ndim - 1))
        return p * rhs - p * (c * (q @ rhs))


def _probe_modes(grid: Grid) -> int:
    """Fourier modes in the estimators' smooth probes: M // 8, at most 16."""
    if grid.size < 8:
        raise ValueError(
            f"the operator estimators need a grid of at least 8 nodes, got {grid.size}"
        )
    return min(16, grid.size // 8)


@dataclass
class CoercivityReport:
    """Ray-probe summary for F(u) = alpha u + W^-1 K(u)."""

    alpha: float
    radii: np.ndarray
    min_values: np.ndarray
    monotone: bool
    analytic_slope: Optional[float] = None
    analytic_condition_ok: Optional[bool] = None
    half_slope_threshold_radius: Optional[float] = None


def estimate_coercivity(
    op: NonlinearIntegralOperator,
    alpha: float,
    n_rays: int = 32,
    seed: int = 0,
) -> CoercivityReport:
    """Probe <alpha r u + W^-1 K(r u), u> along seeded unit rays at the
    radii r = 10^(k/4), k = 0..12.

    Directions are random smooth functions (first 16 modes), drawn and
    normalized in the quadrature norm together.  K is nonlinear, so each
    (ray, radius) pair is one integral.  For sigmoid-sum kernels the report
    carries the closed-form slope alpha - sup|W^-1| * C_K * |D| with C_K
    the sum of the coefficient sup norms, and the flag for its validity
    condition C_K < (sup|W^-1|)^-1 |D|^-1.
    """
    radii = np.geomspace(1.0, 1000.0, 13)
    grid = op.grid
    rng = np.random.default_rng(seed)
    basis = BasisSpec("fourier", (grid.a, grid.b))
    n_modes = _probe_modes(grid)
    coeffs = rng.standard_normal((n_rays, op.channels, n_modes))
    rays = from_spectral(SpectralCoeffs(basis, n_modes, coeffs), grid).values
    rays = rays / np.sqrt(np.sum(grid.weights * rays**2, axis=(1, 2)))[:, None, None]
    unit_sq = np.sum(grid.weights * rays**2, axis=(1, 2))
    values = np.empty((n_rays, radii.size))
    for d, ray in enumerate(rays):
        for j, r in enumerate(radii):
            ku = op.evaluate(ray * r)[0]
            values[d, j] = alpha * r * unit_sq[d] + np.sum(grid.weights * (ku / op.w_values) * ray)
    min_values = values.min(axis=0)
    scale = np.maximum(1.0, np.abs(min_values[:-1]))
    monotone = bool(np.all(np.diff(min_values) >= -1e-9 * scale))
    slope = None
    condition_ok = None
    if op.kernel.kind == "sigmoid_sum":
        c_k = op.kernel.sup_bound(grid)
        slope = alpha - op.w_inv_sup() * c_k * grid.length
        condition_ok = c_k < 1.0 / (op.w_inv_sup() * grid.length)
    # The smallest radius from which on every min value clears alpha r / 2.
    failed = np.flatnonzero(~(min_values >= (alpha / 2.0) * radii - 1e-12))
    k = failed[-1] + 1 if failed.size else 0
    threshold = float(radii[k]) if k < radii.size else None
    return CoercivityReport(
        alpha=alpha,
        radii=radii,
        min_values=min_values,
        monotone=monotone,
        analytic_slope=slope,
        analytic_condition_ok=condition_ok,
        half_slope_threshold_radius=threshold,
    )


def estimate_contraction(op: NonlinearIntegralOperator, seed: int = 0) -> float:
    """Sampled Lipschitz constant of u -> W^-1 K(u).

    The seeded sampler mixes deterministic probe pairs along the first
    basis modes (two scales each from two shared base points, so linear
    kernels report their exact directional gains) with random smooth pairs
    of norm up to 2, up to 64 pairs.  K is evaluated once per distinct
    sample point.
    """
    grid = op.grid
    basis = BasisSpec("fourier", (grid.a, grid.b))
    n_modes = _probe_modes(grid)
    rng = np.random.default_rng(seed)
    ch = op.channels

    def smooth(coeffs) -> np.ndarray:
        return from_spectral(SpectralCoeffs(basis, n_modes, coeffs), grid).values

    bases = np.stack([np.zeros((ch, grid.size)), smooth(rng.standard_normal((ch, n_modes)) * 0.25)])
    unit = np.zeros((n_modes, ch, n_modes))
    unit[np.arange(n_modes), :, np.arange(n_modes)] = 1.0
    deltas = np.array([1e-3, 1.0])[:, None, None]
    # (base, mode, delta) order: each base pairs with its 2 * n_modes shifts.
    shifted = bases[:, None, None] + smooth(unit)[None, :, None] * deltas
    n_random = max(0, 64 - 4 * n_modes)
    random = smooth(rng.standard_normal((2 * n_random, ch, n_modes)) * 0.5)
    points = np.concatenate([bases, shifted.reshape(-1, ch, grid.size), random])
    k_points = np.stack([op.evaluate(u)[0] for u in points])
    k_points = k_points / op.w_values
    fixed = np.stack([np.repeat([0, 1], 2 * n_modes), np.arange(2, 2 + 4 * n_modes)], axis=1)
    drawn = 2 + 4 * n_modes + np.arange(2 * n_random).reshape(-1, 2)
    first, second = np.concatenate([fixed, drawn]).T
    gap = np.sqrt(np.sum(grid.weights * (points[first] - points[second]) ** 2, axis=(1, 2)))
    out = np.sqrt(np.sum(grid.weights * (k_points[first] - k_points[second]) ** 2, axis=(1, 2)))
    keep = gap > 1e-14
    # fmax skips NaN ratios, as a running max(rho, ratio) from 0 does.
    return float(np.fmax.reduce(out[keep] / gap[keep], initial=0.0))
