"""Grids, orthonormal bases, and spectral transforms on an interval.

Functions are represented two ways and the pair of transforms moves
between them:

* :class:`GridFunction` -- channel values sampled on a uniform closed grid,
  integrated with composite trapezoid weights.
* :class:`SpectralCoeffs` -- coefficients against the first ``n`` modes of
  an orthonormal basis (:class:`BasisSpec`).

Both may carry an optional leading batch axis: values of shape
(B, h, size) and coefficients of shape (B, h, n) hold B functions that the
transforms and the layer maps in :mod:`injop.finite_rank` move together.
A single function is the unbatched case.  The norms, inner products and
arithmetic here treat the whole array as one function.

The trapezoid rule on a uniform closed grid is exact for periodic
trigonometric polynomials, so the Fourier modes stay orthonormal under the
discrete inner product as long as the grid resolves them; ``to_spectral``
and ``finite_rank.truncate_kernel`` enforce the guard ``size >= 8 * n``
before projecting, and refuse a grid on which the modes are not
orthonormal under the quadrature (:func:`resolved_mode_table`).

The synthesis and analysis tables of each (basis, grid, n) are built once
by :meth:`BasisSpec.eval_modes` and kept, read-only, in a bounded
module-level cache (:func:`mode_table`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AliasingGuardError,
    DimensionError,
    GridMismatchError,
    IntervalMismatchError,
)

#: Grid points required per spectral mode before projection is allowed.
ALIASING_FACTOR = 8

#: Interval endpoints are compared with this absolute tolerance.
INTERVAL_TOL = 1e-12

#: Largest quadrature Gram defect max|G - I| that ``to_spectral`` accepts.
GRAM_DEFECT_TOL = 1e-10

#: Mode tables kept by the cache behind :func:`mode_table`.
MODE_TABLE_CACHE_SIZE = 32


def require_finite(name: str, p) -> None:
    """Raise ValueError if a parameter that is not callable holds NaN or infinity."""
    if not callable(p) and not np.all(np.isfinite(np.asarray(p, dtype=float))):
        raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class Grid:
    """Uniform closed grid on [a, b] with composite trapezoid weights.

    Parameters
    ----------
    a, b : float
        Interval endpoints, ``a < b``.
    size : int
        Number of nodes including both endpoints, at least 2.
    """

    a: float = 0.0
    b: float = 1.0
    size: int = 512
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_finite("grid endpoints", (self.a, self.b))
        if not self.b > self.a:
            raise ValueError(f"empty interval: a={self.a}, b={self.b}")
        if self.size < 2:
            raise ValueError(f"grid needs at least 2 nodes, got {self.size}")
        nodes = np.linspace(self.a, self.b, self.size)
        h = (self.b - self.a) / (self.size - 1)
        weights = np.full(self.size, h)
        weights[0] = weights[-1] = h / 2.0
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def h(self) -> float:
        """Node spacing."""
        return (self.b - self.a) / (self.size - 1)

    @property
    def length(self) -> float:
        """Interval length |b - a|."""
        return self.b - self.a

    def matches(self, other: "Grid") -> bool:
        return (
            abs(self.a - other.a) <= INTERVAL_TOL
            and abs(self.b - other.b) <= INTERVAL_TOL
            and self.size == other.size
        )

    def require_matches(self, other: "Grid"):
        if not self.matches(other):
            raise GridMismatchError(
                f"grids differ: [{self.a}, {self.b}] x {self.size} vs "
                f"[{other.a}, {other.b}] x {other.size}"
            )


class BasisSpec:
    """Orthonormal basis family on an interval.

    Two kinds are supported:

    ``"fourier"``
        Constant mode, then interleaved cosine/sine pairs of increasing
        frequency, rescaled from [0, 1] to the interval.  Mode 1 is the
        normalized constant, mode 2k is the cosine of frequency k, mode
        2k+1 the sine.
    ``"step_haar"``
        Normalized indicators of the dyadic blocks [2^-k, 2^-(k-1)) of the
        rescaled interval.  The supports are pairwise disjoint, which is
        the property the discontinuous demo sequences need.  Quadrature
        orthonormality is exact when the dyadic breakpoints land on grid
        nodes (grids with size = 2^q + 1).
    """

    KINDS = ("fourier", "step_haar")

    def __init__(self, kind: str = "fourier", interval=(0.0, 1.0)):
        if kind not in self.KINDS:
            raise ValueError(f"unknown basis kind {kind!r}; expected one of {self.KINDS}")
        if len(interval) != 2:
            raise ValueError(f"interval needs two endpoints, got {len(interval)}")
        a, b = float(interval[0]), float(interval[1])
        require_finite("basis interval", (a, b))
        if not b > a:
            raise ValueError(f"empty interval: {interval}")
        self.kind = kind
        self.interval = (a, b)

    def __eq__(self, other):
        return (
            isinstance(other, BasisSpec)
            and self.kind == other.kind
            and abs(self.interval[0] - other.interval[0]) <= INTERVAL_TOL
            and abs(self.interval[1] - other.interval[1]) <= INTERVAL_TOL
        )

    def __repr__(self):
        return f"BasisSpec({self.kind!r}, interval={self.interval})"

    def matches_grid(self, grid: Grid) -> bool:
        a, b = self.interval
        return abs(a - grid.a) <= INTERVAL_TOL and abs(b - grid.b) <= INTERVAL_TOL

    def require_matches_grid(self, grid: Grid):
        if not self.matches_grid(grid):
            raise IntervalMismatchError(
                f"basis interval {self.interval} does not match grid "
                f"[{grid.a}, {grid.b}]"
            )

    def eval_modes(self, x: np.ndarray, n: int) -> np.ndarray:
        """Evaluate modes 1..n at points ``x``; returns shape (n, len(x))."""
        if n < 1:
            raise ValueError(f"mode count must be positive, got {n}")
        x = np.asarray(x, dtype=float)
        a, b = self.interval
        length = b - a
        t = (x - a) / length
        out = np.empty((n, x.size))
        if self.kind == "fourier":
            scale = 1.0 / np.sqrt(length)
            out[0] = scale
            for k in range(2, n + 1):
                freq = k // 2
                phase = 2.0 * np.pi * freq * t
                out[k - 1] = np.sqrt(2.0) * scale * (np.sin if k % 2 else np.cos)(phase)
        else:  # step_haar
            for k in range(1, n + 1):
                lo, hi = 2.0 ** (-k), 2.0 ** (-k + 1)
                inside = (t >= lo - 1e-12) & (t < hi - 1e-12)
                out[k - 1] = np.where(inside, 2.0 ** (k / 2.0) / np.sqrt(length), 0.0)
        return out


class ModeTable:
    """Read-only tables of the first n modes of a basis on a grid.

    ``phi`` (n, size) synthesizes grid values from coefficients,
    ``analysis`` (size, n) = (phi * weights).T projects grid values onto
    the modes, ``gram`` (n, n) is the quadrature Gram matrix and
    ``gram_defect`` its largest entry-wise distance from the identity.
    """

    def __init__(self, phi: np.ndarray, weights: np.ndarray):
        phi_w = phi * weights
        self.phi = phi
        self.analysis = phi_w.T
        self.gram = phi_w @ phi.T
        self.gram_defect = float(np.max(np.abs(self.gram - np.eye(phi.shape[0]))))
        for table in (self.phi, self.analysis, self.gram):
            table.flags.writeable = False


def mode_table(basis: BasisSpec, grid: Grid, n: int) -> ModeTable:
    """Cached :class:`ModeTable` of the first n modes of ``basis`` on ``grid``.

    Entries are keyed by the exact basis kind and interval, grid endpoints
    and size, and n; the least recently used one is dropped beyond
    ``MODE_TABLE_CACHE_SIZE``.
    """
    basis.require_matches_grid(grid)
    return _mode_table(basis.kind, basis.interval, grid.a, grid.b, grid.size, n)


@functools.lru_cache(maxsize=MODE_TABLE_CACHE_SIZE)
def _mode_table(kind, interval, a, b, size, n) -> ModeTable:
    grid = Grid(a, b, size)
    return ModeTable(BasisSpec(kind, interval).eval_modes(grid.nodes, n), grid.weights)


@dataclass
class GridFunction:
    """Channel-valued function sampled on a grid.

    ``values`` has shape (h, size), or (B, h, size) for a batch of B
    functions.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = _channel_array(self.values)
        if self.values.shape[-1] != self.grid.size:
            raise DimensionError(
                f"values have {self.values.shape[-1]} nodes, grid has {self.grid.size}"
            )

    @classmethod
    def from_callable(cls, grid: Grid, *fns) -> "GridFunction":
        """Sample one callable per channel on the grid nodes."""
        vals = np.stack([np.broadcast_to(f(grid.nodes), grid.nodes.shape) for f in fns])
        return cls(grid, vals)

    @property
    def channels(self) -> int:
        return self.values.shape[-2]

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())

    def l2_norm(self) -> float:
        return l2_norm(self.grid, self.values)

    def h1_norm(self) -> float:
        return h1_norm(self.grid, self.values)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __add__(self, other):
        self.grid.require_matches(other.grid)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other):
        self.grid.require_matches(other.grid)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar):
        return GridFunction(self.grid, self.values * float(scalar))

    __rmul__ = __mul__


@dataclass
class SpectralCoeffs:
    """Coefficients of a channel-valued function against basis modes 1..n.

    ``coeffs[c, k-1]`` multiplies mode k in channel c; shape (h, n), or
    (B, h, n) for a batch of B functions.
    """

    basis: BasisSpec
    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = _channel_array(self.coeffs)
        if self.coeffs.shape[-1] != self.n:
            raise DimensionError(
                f"coefficient array has order {self.coeffs.shape[-1]}, expected {self.n}"
            )

    @property
    def channels(self) -> int:
        return self.coeffs.shape[-2]

    def l2_norm(self) -> float:
        """L2 norm of the represented function (Parseval)."""
        return float(np.linalg.norm(self.coeffs))

    def copy(self) -> "SpectralCoeffs":
        return SpectralCoeffs(self.basis, self.n, self.coeffs.copy())


def _channel_array(arr) -> np.ndarray:
    """Float array of shape (h, last) or (B, h, last); 1-D input is one channel."""
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    if arr.ndim > 3:
        raise DimensionError(f"expected (h, ...) or (B, h, ...) data, got shape {arr.shape}")
    return arr


def resolved_mode_table(basis: BasisSpec, grid: Grid, n: int) -> ModeTable:
    """The :class:`ModeTable` of modes 1..n, for projecting onto them.

    Requires ``grid.size >= 8 * n`` so the quadrature resolves products
    of the retained modes, and modes that are orthonormal under the grid
    quadrature (Gram defect at most ``GRAM_DEFECT_TOL``; step modes need
    their dyadic breakpoints on grid nodes); raises
    :class:`AliasingGuardError` otherwise.
    """
    basis.require_matches_grid(grid)
    if grid.size < ALIASING_FACTOR * n:
        raise AliasingGuardError(
            f"grid size {grid.size} < {ALIASING_FACTOR} * {n}; refine the grid "
            f"or lower the order"
        )
    table = mode_table(basis, grid, n)
    if table.gram_defect > GRAM_DEFECT_TOL:
        raise AliasingGuardError(
            f"{basis.kind} modes 1..{n} are not orthonormal on a {grid.size}-node grid "
            f"(quadrature Gram defect {table.gram_defect:.3e} > {GRAM_DEFECT_TOL:.0e})"
        )
    return table


def to_spectral(f: GridFunction, basis: BasisSpec, n: int) -> SpectralCoeffs:
    """Project a grid function onto the first n basis modes, on a grid that
    resolves them (:func:`resolved_mode_table`).  A batch of functions is
    projected in one product.
    """
    table = resolved_mode_table(basis, f.grid, n)
    return SpectralCoeffs(basis, n, f.values @ table.analysis)


def from_spectral(c: SpectralCoeffs, grid: Grid) -> GridFunction:
    """Synthesize coefficients (one function or a batch) on a grid over the
    same interval."""
    return GridFunction(grid, c.coeffs @ mode_table(c.basis, grid, c.n).phi)


def l2_norm(grid: Grid, values: np.ndarray) -> float:
    """Quadrature L2 norm of a float array of shape (..., size), as one function."""
    return math.sqrt((grid.weights * values**2).sum())


def h1_norm(grid: Grid, values: np.ndarray) -> float:
    """Discrete H1 norm of a float array of shape (..., size), taken over
    the whole array: quadrature L2 plus forward-difference derivative."""
    h = grid.h
    diff = (values[..., 1:] - values[..., :-1]) / h
    return math.sqrt((grid.weights * values**2).sum() + (diff**2).sum() * h)


def l2_h1_norms(grid: Grid, values: np.ndarray) -> tuple:
    """(:func:`l2_norm`, :func:`h1_norm`) of one array from one pass: the
    two share the quadrature sum, so each equals its own function bit for bit."""
    h = grid.h
    l2_sq = (grid.weights * values**2).sum()
    diff = (values[..., 1:] - values[..., :-1]) / h
    return math.sqrt(l2_sq), math.sqrt(l2_sq + (diff**2).sum() * h)


@functools.lru_cache(maxsize=1)
def h1_gram_cholesky(grid: Grid) -> tuple:
    """Diagonal (M,) and subdiagonal (M - 1,) of the lower bidiagonal L with
    h1_norm(v) = |L^T v|: the Cholesky factor of diag(weights) + D^T h D, D the
    forward difference over h, by the tridiagonal recurrence (Golub & Van
    Loan, sec. 4.3.6); read-only, kept for the last grid asked for."""
    h = grid.h
    gram_diag = grid.weights + np.r_[1.0, np.full(grid.size - 2, 2.0), 1.0] / h
    diag, sub = [math.sqrt(gram_diag[0])], []
    for g in gram_diag[1:].tolist():
        sub.append(-1.0 / h / diag[-1])
        diag.append(math.sqrt(g - sub[-1] ** 2))
    diag, sub = np.array(diag), np.array(sub)
    diag.flags.writeable = sub.flags.writeable = False
    return diag, sub


def h1_distance(f: GridFunction, g: GridFunction) -> float:
    f.grid.require_matches(g.grid)
    return h1_norm(f.grid, f.values - g.values)
