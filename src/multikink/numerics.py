"""Grid calculus helpers: finite differences, quadrature, fits, test fields."""

from __future__ import annotations

import numpy as np
from scipy.integrate import simpson

from .errors import ConfigError, FitError


def grid_spacing(x: np.ndarray) -> float:
    """Spacing of a uniform grid; ConfigError if it has fewer than two points
    or is not uniform."""
    dx = np.diff(x)
    if dx.size == 0:
        raise ConfigError("grid needs at least two points")
    if not np.allclose(dx, dx[0], rtol=1e-10, atol=1e-12):
        raise ConfigError("grid is not uniform")
    return float(dx[0])


MAX_COUNT = 10**7  # the most grid points, table samples or time steps one value may ask for


def capped_count(count: float, what: str) -> float:
    """count if finite and at most MAX_COUNT, else ConfigError naming what."""
    if not count <= MAX_COUNT:
        raise ConfigError(f"{what}: {count:.3g}, not finite or above MAX_COUNT = {MAX_COUNT}")
    return count


def integrate_grid(y: np.ndarray, dx: float):
    """Composite Simpson quadrature along the last axis (a float for 1-D y)."""
    return float(simpson(y, dx=dx)) if np.ndim(y) == 1 else simpson(y, dx=dx)


def derivative(y: np.ndarray, dx: float) -> np.ndarray:
    """First derivative, 4th order in the interior, one-sided at the edges."""
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * dx)
    d[1] = (y[2] - y[0]) / (2.0 * dx)
    d[-2] = (y[-1] - y[-3]) / (2.0 * dx)
    d[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * dx)
    d[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * dx)
    return d


def derivative2(y: np.ndarray, dx: float) -> np.ndarray:
    """Second derivative, 4th order in the interior, 2nd order near edges."""
    d = np.empty_like(y)
    d[2:-2] = (
        -y[:-4] + 16.0 * y[1:-3] - 30.0 * y[2:-2] + 16.0 * y[3:-1] - y[4:]
    ) / (12.0 * dx * dx)
    d[1] = (y[0] - 2.0 * y[1] + y[2]) / (dx * dx)
    d[-2] = (y[-3] - 2.0 * y[-2] + y[-1]) / (dx * dx)
    d[0] = d[1]
    d[-1] = d[-2]
    return d


def central_diff(y: np.ndarray, dx: float) -> np.ndarray:
    """Plain 2nd-order first derivative along the last axis (one-sided at
    the edges)."""
    d = np.empty_like(y)
    d[..., 1:-1] = (y[..., 2:] - y[..., :-2]) / (2.0 * dx)
    d[..., 0] = (y[..., 1] - y[..., 0]) / dx
    d[..., -1] = (y[..., -1] - y[..., -2]) / dx
    return d


def smoothstep_quintic(s: np.ndarray | float):
    """C^2 monotone join rising 0 -> 1 on [0, 1] (6s^5 - 15s^4 + 10s^3)."""
    s = np.clip(s, 0.0, 1.0)
    return s * s * s * (s * (6.0 * s - 15.0) + 10.0)


def fit_log_linear(x: np.ndarray, y: np.ndarray):
    """Least-squares line through (x, log y).

    Returns (slope, intercept, r_squared, rms_residual). y must be positive.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise FitError("need at least 3 samples for a log-linear fit")
    if np.any(y <= 0.0):
        raise FitError("log-linear fit requires positive values")
    logy = np.log(y)
    slope, intercept = np.polyfit(x, logy, 1)
    resid = logy - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((logy - logy.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    rms = float(np.sqrt(ss_res / x.size))
    return float(slope), float(intercept), r2, rms


BUMPS = 4  # gaussian_bumps sums this many Gaussians
BUMP_CENTER_FRAC = 0.6  # centred in this middle share of the grid
BUMP_WIDTHS = (0.5, 3.0)  # with widths drawn from this range


def gaussian_bumps(grid: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random smooth localized field: a sum of seeded Gaussian bumps.

    Centers are drawn from the central BUMP_CENTER_FRAC of the grid so the
    field is essentially zero at the boundary.
    """
    span = grid[-1] - grid[0]
    mid = 0.5 * (grid[0] + grid[-1])
    half = 0.5 * BUMP_CENTER_FRAC * span
    y = np.zeros_like(grid)
    for _ in range(BUMPS):
        c = mid + rng.uniform(-half, half)
        w = rng.uniform(*BUMP_WIDTHS)
        a = rng.uniform(0.2, 1.0) * rng.choice((-1.0, 1.0))
        y += a * np.exp(-0.5 * ((grid - c) / w) ** 2)
    return y


def random_pair_field(grid: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Two-component random smooth field, shape (2, len(grid))."""
    return np.stack([gaussian_bumps(grid, rng), gaussian_bumps(grid, rng)])
