"""Discretization of the static linearized operator -d_x^2 + W''(H) and
its low spectrum: kernel, spectral gap and sampled coercivity constants."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .ansatz import AnsatzLevel, make_params
from .errors import ConfigError, InvalidMultiplierError
from .numerics import gaussian_bumps, grid_spacing
from .potential import PotentialModel, VacuumTable


@dataclass
class OperatorDiscretization:
    """Symmetric tridiagonal form of -d_x^2 + V with Dirichlet ends."""

    grid: np.ndarray
    v: np.ndarray
    dx: float
    kernel_direction: np.ndarray  # samples of dH/dx, the continuum kernel

    @property
    def diagonal(self) -> np.ndarray:
        return 2.0 / self.dx**2 + self.v

    @property
    def off_diagonal(self) -> np.ndarray:
        return np.full(len(self.grid) - 1, -1.0 / self.dx**2)

    def matvec(self, g: np.ndarray) -> np.ndarray:
        out = self.diagonal * g
        out[:-1] += self.off_diagonal * g[1:]
        out[1:] += self.off_diagonal * g[:-1]
        return out

    def quad(self, g: np.ndarray) -> float:
        """<g, L g> with the L2 grid weight."""
        return float(np.dot(g, self.matvec(g)) * self.dx)

    def h1_norm_sq(self, g: np.ndarray) -> float:
        """Forward-difference H^1 norm squared."""
        fwd = np.diff(g) / self.dx
        return float((np.dot(g, g) + np.dot(fwd, fwd)) * self.dx)


COERCIVITY_SAMPLES = 100  # coercivity_constant's random bump fields


def build_operator(model: PotentialModel, table: VacuumTable, n: int, n_prime: int,
                   grid: np.ndarray) -> OperatorDiscretization:
    """Central-difference discretization of -d_x^2 + W''(H_{n,n'}) on grid:
    V and the kernel direction dH/dx are read off the ansatz level of the
    kink at rest at the origin, its profile tabulated at step min(0.01, dx)."""
    grid = np.asarray(grid, dtype=float)
    dx = grid_spacing(grid)
    params = make_params(model, table, (n, n_prime), (0.0,), (0.0,), dx=min(0.01, dx))
    level = AnsatzLevel(params, 0.0, grid)
    return OperatorDiscretization(grid=grid, v=level.V, dx=dx, kernel_direction=level.slope(1))


def low_spectrum(disc: OperatorDiscretization, k: int = 2):
    """The k smallest eigenpairs (ascending), eigenvectors L2-normalized."""
    if not 1 <= k <= len(disc.grid):
        raise ConfigError(f"k = {k} eigenpairs requested; the grid has {len(disc.grid)} points")
    vals, vecs = eigh_tridiagonal(disc.diagonal, disc.off_diagonal,
                                  select="i", select_range=(0, k - 1))
    return vals, vecs


def coercivity_constant(disc: OperatorDiscretization, Z: np.ndarray, seed: int = 0) -> float:
    """Smallest sampled Rayleigh ratio <g, L g> / |g|_{H^1}^2 over
    COERCIVITY_SAMPLES random bump fields with the <Z, g> pairing projected
    out."""
    Z = np.asarray(Z, dtype=float)
    zk = float(np.dot(Z, disc.kernel_direction) * disc.dx)
    scale = np.linalg.norm(Z) * np.linalg.norm(disc.kernel_direction) * disc.dx
    if abs(zk) < 1e-8 * max(scale, 1e-300):
        raise InvalidMultiplierError("multiplier is orthogonal to the kernel direction")
    zz = float(np.dot(Z, Z) * disc.dx)
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(COERCIVITY_SAMPLES):
        g = gaussian_bumps(disc.grid, rng)
        g = g - (float(np.dot(Z, g) * disc.dx) / zz) * Z
        ratios.append(disc.quad(g) / disc.h1_norm_sq(g))
    return float(np.min(ratios))  # unlike min, np.min passes a NaN ratio on
