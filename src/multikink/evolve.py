"""Time evolution of the nonlinear field equation and its linearization.

Explicit leapfrog (velocity Verlet) with Dirichlet-clamped boundaries.
The Laplacian blends the 3-point and 5-point stencils, taking as much of
the 4th-order correction as stays stable at the configured Courant ratio;
this keeps the zero-mode pairings of the linearized flow conserved at
the discretization level. The scheme is time reversible and free of
artificial dissipation, so exponential-decay measurements are not damped
by the integrator. Negative dt integrates backward in time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline, RectBivariateSpline

from .ansatz import FieldState, MultikinkParams, inner_product, linearization_potential, zero_modes
from .errors import ConfigError, InstabilityError, SectorError
from .numerics import derivative, grid_spacing, integrate_grid
from .potential import PotentialModel, VacuumTable


@dataclass
class EvolveConfig:
    """Leapfrog run parameters; dt must satisfy dt <= cfl_limit * dx."""

    dt: float
    t_end: float
    snapshot_every: int = 25
    cfl_limit: float = 0.9
    boundary: str = "clamp"

    def validate(self, dx: float):
        if self.boundary != "clamp":
            raise ConfigError("only vacuum-clamped boundaries are supported")
        if abs(self.dt) <= 0:
            raise ConfigError("dt must be nonzero")
        if abs(self.dt) > self.cfl_limit * dx + 1e-15:
            raise ConfigError(
                f"CFL violation: |dt|={abs(self.dt)} exceeds {self.cfl_limit}*dx={self.cfl_limit * dx}")
        if self.snapshot_every < 1:
            raise ConfigError("snapshot_every must be >= 1")

    def stencil_blend(self, dx: float) -> float:
        """Weight of the 5-point Laplacian mixed into the 3-point one.

        The blended operator has spectral radius (4 + 4 blend/3)/dx^2, so the
        leapfrog stability bound is (4 + 4 blend/3) (dt/dx)^2 <= 4. The weight
        is the largest value keeping a 3% margin at the configured dt/dx;
        small Courant ratios get the full 4th-order stencil.
        """
        r2 = (self.dt / dx) ** 2
        return min(1.0, max(0.0, 3.0 * (0.97 / r2 - 1.0)))


def make_laplacian(dx: float, blend: float):
    """Blended 3/5-point second-difference operator with zeroed boundary rows.

    The outermost interior nodes always use the 3-point formula.
    """
    inv_dx2 = 1.0 / (dx * dx)
    a = (1.0 - blend) * inv_dx2
    b = blend * inv_dx2 / 12.0

    def lap(f, out):
        three = f[2:] - 2.0 * f[1:-1] + f[:-2]
        out[1:-1] = a * three
        if blend > 0.0:
            out[2:-2] += b * (-f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2]
                              + 16.0 * f[3:-1] - f[4:])
            out[1] += blend * inv_dx2 * three[0]
            out[-2] += blend * inv_dx2 * three[-1]
        out[0] = 0.0
        out[-1] = 0.0
        return out

    return lap


class SpaceTimeSlab:
    """Time-ordered snapshots of (phi, d_t phi) on a common uniform grid."""

    def __init__(self, times, grid, phis, phi_dots):
        self.times = np.asarray(times, dtype=float)
        self.grid = np.asarray(grid, dtype=float)
        self.phis = np.asarray(phis, dtype=float)
        self.phi_dots = np.asarray(phi_dots, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ConfigError("snapshot times must be strictly increasing")
        if self.phis.shape != (len(self.times), len(self.grid)):
            raise ConfigError("slab shape mismatch")
        self.dx = grid_spacing(self.grid)
        self._value_spline = None
        self._tderiv_spline = None
        self._time_splines = None

    def __len__(self):
        return len(self.times)

    def state(self, i: int) -> FieldState:
        return FieldState(t=float(self.times[i]), grid=self.grid,
                          phi=self.phis[i].copy(), phi_dot=self.phi_dots[i].copy())

    def sample(self, t: float):
        """(phi, phi_dot) at an arbitrary time via cubic interpolation."""
        if self._time_splines is None:
            self._time_splines = (CubicSpline(self.times, self.phis, axis=0),
                                  CubicSpline(self.times, self.phi_dots, axis=0))
        return self._time_splines[0](t), self._time_splines[1](t)

    def value_spline(self) -> RectBivariateSpline:
        if self._value_spline is None:
            self._value_spline = RectBivariateSpline(self.times, self.grid, self.phis)
        return self._value_spline

    def tderiv_spline(self) -> RectBivariateSpline:
        if self._tderiv_spline is None:
            self._tderiv_spline = RectBivariateSpline(self.times, self.grid, self.phi_dots)
        return self._tderiv_spline

    def merged(self, other: "SpaceTimeSlab") -> "SpaceTimeSlab":
        """Union of two slabs on the same grid (overlapping times deduplicated)."""
        if len(self.grid) != len(other.grid) or not np.allclose(self.grid, other.grid):
            raise ConfigError("cannot merge slabs on different grids")
        times = np.concatenate([self.times, other.times])
        phis = np.concatenate([self.phis, other.phis])
        dots = np.concatenate([self.phi_dots, other.phi_dots])
        order = np.argsort(times)
        times, phis, dots = times[order], phis[order], dots[order]
        keep = np.concatenate([[True], np.diff(times) > 1e-10])
        return SpaceTimeSlab(times[keep], self.grid, phis[keep], dots[keep])

    def save(self, directory):
        """One CSV per snapshot (columns x, phi, phi_dot) plus a manifest."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        names = []
        xs = [f"{x:.17g}," for x in self.grid.tolist()]
        for i in range(len(self.times)):
            name = f"snapshot_{i:05d}.csv"
            names.append(name)
            rows = ["%s%.17g,%.17g\n" % row for row in
                    zip(xs, self.phis[i].tolist(), self.phi_dots[i].tolist())]
            with open(directory / name, "w") as fh:
                fh.write("x,phi,phi_dot\n" + "".join(rows))
        manifest = {"times": [float(t) for t in self.times], "files": names,
                    "n_grid": len(self.grid),
                    "x_min": float(self.grid[0]), "x_max": float(self.grid[-1])}
        with open(directory / "manifest.json", "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)

    @staticmethod
    def load(directory) -> "SpaceTimeSlab":
        directory = Path(directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        grid = None
        phis, dots = [], []
        for name in manifest["files"]:
            data = np.loadtxt(directory / name, delimiter=",", skiprows=1)
            if grid is None:
                grid = data[:, 0]
            phis.append(data[:, 1])
            dots.append(data[:, 2])
        return SpaceTimeSlab(manifest["times"], grid, phis, dots)


def _leapfrog(phi, pd, dt, n_steps, accel, t0, snapshot_every, record_first=True):
    """Shared leapfrog driver; accel(t, phi, out) fills the acceleration
    with zero boundary entries. Returns (times, phis, dots)."""
    times, phis, dots = [], [], []
    if record_first:
        times.append(t0)
        phis.append(phi.copy())
        dots.append(pd.copy())
    a = np.zeros_like(phi)
    accel(t0, phi, a)
    t = t0
    for step in range(1, n_steps + 1):
        pd_half = pd + (0.5 * dt) * a
        phi[1:-1] += dt * pd_half[1:-1]
        t = t0 + step * dt
        accel(t, phi, a)
        pd = pd_half + (0.5 * dt) * a
        pd[0] = 0.0
        pd[-1] = 0.0
        if step % snapshot_every == 0 or step == n_steps:
            if not np.all(np.isfinite(phi)):
                raise InstabilityError(f"NaN/Inf detected at t={t}")
            times.append(t)
            phis.append(phi.copy())
            dots.append(pd.copy())
    return times, phis, dots


def evolve_nonlinear(state: FieldState, model: PotentialModel,
                     config: EvolveConfig) -> SpaceTimeSlab:
    """Evolve d_t^2 phi = d_x^2 phi - W'(phi) with clamped boundaries.

    Boundary values are frozen at their initial (vacuum-level) values.
    config.dt may be negative for backward evolution; t_end is then below
    the initial time.
    """
    dx = state.dx
    config.validate(dx)
    dt = config.dt
    span = config.t_end - state.t
    if span * dt <= 0:
        raise ConfigError("sign of dt must match t_end - t_start")
    n_steps = int(round(span / dt))
    phi = state.phi.astype(float).copy()
    pd = state.phi_dot.astype(float).copy()
    pd[0] = 0.0
    pd[-1] = 0.0
    lap = make_laplacian(dx, config.stencil_blend(dx))

    def accel(_t, f, out):
        lap(f, out)
        out[1:-1] -= model(f[1:-1], 1)

    times, phis, dots = _leapfrog(phi, pd, dt, n_steps, accel, state.t,
                                  config.snapshot_every)
    if dt < 0:
        times, phis, dots = times[::-1], phis[::-1], dots[::-1]
    return SpaceTimeSlab(times, state.grid, phis, dots)


def evolve_linearized(h0: np.ndarray, params: MultikinkParams, grid: np.ndarray,
                      t_start: float, config: EvolveConfig) -> SpaceTimeSlab:
    """Evolve d_t^2 h = d_x^2 h - V(t, x) h with h clamped to zero at the ends.

    h0 is a two-component field (h, d_t h); the time-dependent potential is
    resampled from the ansatz at every step.
    """
    grid = np.asarray(grid, dtype=float)
    dx = grid_spacing(grid)
    config.validate(dx)
    dt = config.dt
    span = config.t_end - t_start
    if span * dt <= 0:
        raise ConfigError("sign of dt must match t_end - t_start")
    n_steps = int(round(span / dt))
    h = h0[0].astype(float).copy()
    hd = h0[1].astype(float).copy()
    h[0] = h[-1] = 0.0
    hd[0] = hd[-1] = 0.0
    lap = make_laplacian(dx, config.stencil_blend(dx))

    def accel(t, f, out):
        pot = linearization_potential(params, t, grid)
        lap(f, out)
        out[1:-1] -= pot[1:-1] * f[1:-1]

    times, phis, dots = _leapfrog(h, hd, dt, n_steps, accel, t_start,
                                  config.snapshot_every)
    if dt < 0:
        times, phis, dots = times[::-1], phis[::-1], dots[::-1]
    return SpaceTimeSlab(times, grid, phis, dots)


def energy(state: FieldState, model: PotentialModel):
    """(E, E_p, E_k) by grid quadrature; boundary tails sit at vacua and
    contribute nothing."""
    phx = derivative(state.phi, state.dx)
    ep = integrate_grid(0.5 * phx**2 + model(state.phi, 0), state.dx)
    ek = integrate_grid(0.5 * state.phi_dot**2, state.dx)
    return float(ep + ek), float(ep), float(ek)


def detect_sector(state: FieldState, table: VacuumTable, tol: float = 1e-3,
                  edge_points: int = 8) -> tuple[int, int]:
    """Vacuum labels matched by the boundary windows of the field."""
    out = []
    for window in (state.phi[:edge_points], state.phi[-edge_points:]):
        val = float(np.mean(window))
        dist = [abs(val - w) for w in table.vacua]
        n = int(np.argmin(dist))
        if dist[n] > tol:
            raise SectorError(f"boundary value {val} is no vacuum (tol={tol})")
        out.append(n)
    return tuple(out)


def zero_mode_drift(params: MultikinkParams, h0: np.ndarray, grid: np.ndarray,
                    t_start: float, config: EvolveConfig):
    """Evolve h linearly and record all 2K dual pairings per snapshot.

    Returns (slab, pairings) with pairings[i, j-1, s] = <psi_j^s(t_i), h(t_i)>.
    """
    slab = evolve_linearized(h0, params, grid, t_start, config)
    dx = slab.dx
    pairings = np.empty((len(slab), params.K, 2))
    for i, t in enumerate(slab.times):
        h = np.stack([slab.phis[i], slab.phi_dots[i]])
        for j in range(1, params.K + 1):
            modes = zero_modes(params, j, t, grid)
            pairings[i, j - 1, 0] = inner_product(modes.psi0, h, dx)
            pairings[i, j - 1, 1] = inner_product(modes.psi1, h, dx)
    return slab, pairings
