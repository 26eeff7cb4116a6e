"""Chebyshev collocation grid on the time interval [0, 1].

All time-dependent quantities in the package live on a shared grid of
Chebyshev-Gauss-Lobatto nodes mapped to [0, 1].  The grid carries a spectral
differentiation matrix (barycentric form with the negative-sum trick on the
diagonal) and, formed on first use, the integration matrix J, (J v)_i =
int_0^{t_i} v, exact for the interpolant of v.  The quadrature weights are
J's last row, since int_0^1 v = (J v)(1): the Clenshaw-Curtis rule.
make_grid hands out one shared, read-only grid per node count.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

MIN_NODES = 8
DEFAULT_NODES = 64
# D and J take 32 MiB each at this size.
MAX_NODES = 2049


@dataclass(frozen=True)
class TimeGrid:
    """Collocation nodes on [0, 1] with differentiation and quadrature."""

    nodes: np.ndarray
    diff_matrix: np.ndarray

    @property
    def node_count(self) -> int:
        return self.nodes.size

    @functools.cached_property
    def integration_matrix(self) -> np.ndarray:
        """J with (J v)_i = int_0^{t_i} v, formed on first use and kept on the grid, read-only."""
        return _read_only(_integration_matrix(self.node_count - 1))

    @functools.cached_property
    def quad_weights(self) -> np.ndarray:
        """Weights w with w . v = int_0^1 v: the last row of J, a read-only view."""
        return self.integration_matrix[-1]

    @functools.cached_property
    def end_distances(self) -> np.ndarray:
        """Rows t and 1 - t, each node's distance from the two ends, kept on the grid, read-only."""
        return _read_only(np.stack([self.nodes, 1.0 - self.nodes]))


@dataclass(frozen=True)
class CoefficientSeries:
    """Values of one scalar coefficient sampled on a TimeGrid, kept as a read-only copy."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != (self.grid.node_count,):
            raise ValueError(
                f"series has {values.shape} values for {self.grid.node_count} nodes"
            )
        object.__setattr__(self, "values", _read_only(values))


def make_grid(node_count: int = DEFAULT_NODES) -> TimeGrid:
    """The Chebyshev-Gauss-Lobatto grid with node_count points.

    Grids are memoised per node count, so every caller of one size shares one
    grid, and its J once formed; their arrays are read-only.  The memo keeps
    the 4 most recent sizes, at worst 4 grids at MAX_NODES: 4 x (D + J) =
    256 MiB.
    """
    if node_count < MIN_NODES:
        raise ValueError(f"node_count must be >= {MIN_NODES}, got {node_count}")
    if node_count > MAX_NODES:
        raise ValueError(f"node_count must be <= {MAX_NODES}, got {node_count}")
    return _make_grid(operator.index(node_count))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=4)
def _make_grid(node_count: int) -> TimeGrid:
    n = node_count - 1
    # t_j = (1 - cos(pi j / n)) / 2, assembled from the sin^2 half-angle form
    # and mirrored so that the nodes are exactly symmetric about 1/2.
    j = np.arange(n + 1)
    nodes = np.sin(np.pi * j / (2 * n)) ** 2
    m = (n + 1) // 2
    nodes[m:] = 1.0 - nodes[n - np.arange(m, n + 1)]
    if n % 2 == 0:
        nodes[n // 2] = 0.5

    # Barycentric weights for Lobatto nodes: alternating signs, halved ends.
    bary = np.where(j % 2 == 0, 1.0, -1.0)
    bary[[0, n]] *= 0.5
    dt = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(dt, 1.0)
    diff = (bary[None, :] / bary[:, None]) / dt
    np.fill_diagonal(diff, 0.0)
    np.fill_diagonal(diff, -diff.sum(axis=1))
    return TimeGrid(nodes=_read_only(nodes), diff_matrix=_read_only(diff))


def _integration_matrix(n: int) -> np.ndarray:
    """J on n+1 Lobatto nodes: values -> Chebyshev coefficients -> antiderivative -> values.

    At node j, x = 2t - 1 = cos(pi (n-j)/n), so T_k(x_j) = cos(pi r/n), r = k (n-j) mod 2n.
    """
    table = np.cos(np.pi * np.arange(2 * n) / n)
    cheb = table[np.arange(n + 2)[:, None] * np.arange(n, -1, -1) % (2 * n)]  # T_k(x_j)
    # Row k of coeffs, (2/n) sum'' v_j T_k(x_j), is the T_k coefficient a_k; row 0 is 2 a_0.
    coeffs = (2.0 / n) * cheb[:n + 1]
    coeffs[:, [0, -1]] *= 0.5
    coeffs[-1] *= 0.5
    # int T_0 = T_1 and int T_k = T_(k+1)/(2(k+1)) - T_(k-1)/(2(k-1)), so the antiderivative
    # has T_k coefficient (row k-1 - a_(k+1))/(2k); it is taken from x = -1, T_k(-1) = (-1)^k.
    anti = np.zeros((n + 2, n + 1))
    anti[1:] = coeffs
    anti[1:n] -= coeffs[2:]
    anti[1:] /= 2.0 * np.arange(1, n + 2)[:, None]
    return 0.5 * (cheb - (-1.0) ** np.arange(n + 2)[:, None]).T @ anti  # dt = dx/2


def same_grid(a: TimeGrid, b: TimeGrid) -> bool:
    return a is b or np.array_equal(a.nodes, b.nodes)


def require_same_grid(series: CoefficientSeries, grid: TimeGrid) -> None:
    if not same_grid(series.grid, grid):
        raise ValueError("series grids differ; resample explicitly instead of mixing")


def sample(grid: TimeGrid, fn) -> CoefficientSeries:
    """Sample a scalar callable on the grid nodes."""
    return CoefficientSeries(grid, np.asarray([fn(t) for t in grid.nodes], dtype=float))


def derivative(series: CoefficientSeries) -> CoefficientSeries:
    """Spectral time derivative on the shared grid."""
    return CoefficientSeries(series.grid, series.grid.diff_matrix @ series.values)


def integrate(series: CoefficientSeries) -> float:
    """Clenshaw-Curtis integral of the series over [0, 1], through the last row of J."""
    return float(series.grid.quad_weights @ series.values)
