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
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.interpolate import RectBivariateSpline

from .ansatz import FieldState, MultikinkParams, inner_product, linearization_potential, zero_modes
from .errors import ConfigError, InstabilityError, SectorError
from .numerics import derivative, grid_spacing, integrate_grid
from .potential import PotentialModel, VacuumTable


STABLE_FRACTION = 0.97  # leapfrog runs keep (4 + 4 blend/3) (dt/dx)^2 <= 4 * this
MAX_COURANT = math.sqrt(STABLE_FRACTION)  # the largest |dt|/dx keeping it: blend 0


@dataclass
class EvolveConfig:
    """Leapfrog run parameters; |dt| must be at most MAX_COURANT * dx. A
    run takes the fewest steps of at most |dt| that land on t_end
    (step_plan); a backward run whose dt tiles its span steps exactly dt."""

    dt: float
    t_end: float
    snapshot_every: int = 25

    def validate(self, dx: float):
        if abs(self.dt) <= 0:
            raise ConfigError("dt must be nonzero")
        if abs(self.dt) > MAX_COURANT * dx + 1e-15:
            raise ConfigError(f"CFL violation: |dt|={abs(self.dt)} exceeds {MAX_COURANT * dx}")
        if self.snapshot_every < 1:
            raise ConfigError("snapshot_every must be >= 1")

    def stencil_blend(self, dx: float) -> float:
        """Weight of the 5-point Laplacian mixed into the 3-point one.

        The blended operator has spectral radius (4 + 4 blend/3)/dx^2, so the
        leapfrog stability bound is (4 + 4 blend/3) (dt/dx)^2 <= 4. The weight
        is the largest value keeping a 3% margin (STABLE_FRACTION) at the
        configured dt/dx; small Courant ratios get the full 4th-order stencil.
        """
        r2 = (self.dt / dx) ** 2
        return min(1.0, max(0.0, 3.0 * (STABLE_FRACTION / r2 - 1.0)))


def step_plan(span: float, dt: float) -> tuple[int, float]:
    """(n, span / n): the fewest steps of at most |dt| covering span. The
    1e-9 slack keeps a span that is a whole number of steps up to rounding
    at that number."""
    n = max(1, math.ceil(abs(span / dt) - 1e-9))
    return n, span / n


def make_laplacian(dx: float, blend: float):
    """Blended 3/5-point second-difference operator with zeroed boundary rows,
    applied along the last axis (one row per lane of a (B, n) state).

    The outermost interior nodes always use the 3-point formula.
    """
    inv_dx2 = 1.0 / (dx * dx)
    a = (1.0 - blend) * inv_dx2
    b = blend * inv_dx2 / 12.0

    def lap(f, out):
        three = f[..., 2:] - 2.0 * f[..., 1:-1] + f[..., :-2]
        out[..., 1:-1] = a * three
        if blend > 0.0:
            out[..., 2:-2] += b * (-f[..., :-4] + 16.0 * f[..., 1:-3] - 30.0 * f[..., 2:-2]
                                   + 16.0 * f[..., 3:-1] - f[..., 4:])
            out[..., 1] += blend * inv_dx2 * three[..., 0]
            out[..., -2] += blend * inv_dx2 * three[..., -1]
        out[..., 0] = 0.0
        out[..., -1] = 0.0
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

    def __len__(self):
        return len(self.times)

    def state(self, i: int) -> FieldState:
        return FieldState(t=float(self.times[i]), grid=self.grid,
                          phi=self.phis[i].copy(), phi_dot=self.phi_dots[i].copy())

    def phi_at(self, t: float) -> np.ndarray:
        """phi at time t: the cubic Hermite interpolant of the stored (phi,
        phi_t) on the interval holding t, extended from the end intervals
        outside [times[0], times[-1]]. Knots are returned exactly."""
        # times[i] <= t < times[i+1], the last interval closed
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        i = min(max(i, 0), len(self.times) - 2)
        step = self.times[i + 1] - self.times[i]
        u = (t - self.times[i]) / step
        w = 1.0 - u
        return ((1.0 + 2.0 * u) * w * w * self.phis[i] + u * u * (3.0 - 2.0 * u) * self.phis[i + 1]
                + step * (u * w * w * self.phi_dots[i] - u * u * w * self.phi_dots[i + 1]))

    @cached_property
    def value_spline(self) -> RectBivariateSpline:
        return RectBivariateSpline(self.times, self.grid, self.phis)

    @cached_property
    def tderiv_spline(self) -> RectBivariateSpline:
        return RectBivariateSpline(self.times, self.grid, self.phi_dots)

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
        # one template per save, filled with one % per file
        template = "x,phi,phi_dot\n" + "".join(
            f"{x:.17g},%.17g,%.17g\n" for x in self.grid.tolist())
        row = np.empty(2 * len(self.grid))
        for i in range(len(self.times)):
            name = f"snapshot_{i:05d}.csv"
            names.append(name)
            row[0::2], row[1::2] = self.phis[i], self.phi_dots[i]
            with open(directory / name, "w") as fh:
                fh.write(template % tuple(row.tolist()))
        manifest = {"times": [float(t) for t in self.times], "files": names,
                    "n_grid": len(self.grid),
                    "x_min": float(self.grid[0]), "x_max": float(self.grid[-1])}
        with open(directory / "manifest.json", "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)

    @staticmethod
    def load(directory) -> "SpaceTimeSlab":
        """Read a slab written by save into preallocated arrays; the x
        column is parsed from the first file only."""
        directory = Path(directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        names, n_grid = manifest["files"], manifest["n_grid"]
        phis = np.empty((len(names), n_grid))
        dots = np.empty_like(phis)
        grid = None
        for i, name in enumerate(names):
            path = directory / name
            try:
                data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                                  usecols=(1, 2) if i else (0, 1, 2))
            except ValueError as err:
                raise ConfigError(f"{path}: {err}") from err
            if len(data) != n_grid:
                raise ConfigError(f"{path} holds {len(data)} rows; the manifest says "
                                  f"n_grid = {n_grid}")
            if not i:
                grid = data[:, 0]
            phis[i], dots[i] = data[:, -2], data[:, -1]
        return SpaceTimeSlab(manifest["times"], grid, phis, dots)


def _evolve(phi, pd, t0: float, grid: np.ndarray, dx: float, config: EvolveConfig,
            source, observe=None, starts=None) -> SpaceTimeSlab:
    """Leapfrog from (phi, pd) at t0 to config.t_end with the blended
    Laplacian; phi and pd are (n,) for one lane or (B, n) for B lanes.
    source(t, f, out) adds the other terms of the acceleration to out, which
    holds the Laplacian of f, for every active lane (both (b, n)). phi and
    pd are copied, and the velocity is clamped to zero at both ends.

    Forward runs take their levels at t0 + step * dt. Backward runs
    (dt < 0) count them from their lower end, t_end + m * |dt|, and step
    exactly config.dt when it tiles the span up to step_plan's slack, so
    backward runs with one dt share their levels whatever their top. Both
    ends are pinned, which the sums can miss by a rounding.

    starts, if given, holds each lane's start time: the first lane's is
    t0, the others follow in the run's order on snapshot levels. A lane is
    inactive before its start, so the active lanes are a prefix of the rows,
    and at its start it joins from its rows of phi and pd with no arrival
    half-kick; in a backward run it then equals the run from its start.

    Returns the last lane's slab from its start: its state at every
    snapshot_every-th step and the last step; observe(t, phi, pd) sees
    every active lane at each snapshot. Backward runs are returned in
    increasing time."""
    config.validate(dx)
    span = config.t_end - t0
    if span * config.dt <= 0:
        raise ConfigError("sign of dt must match t_end - t_start")
    n_steps, dt = step_plan(span, config.dt)
    if dt < 0 and abs(span / config.dt - n_steps) <= 1e-9:
        dt = config.dt
    every = config.snapshot_every
    phi = np.array(phi, dtype=float, ndmin=2)
    pd = np.array(pd, dtype=float, ndmin=2)
    pd[:, 0] = pd[:, -1] = 0.0
    lap = make_laplacian(dx, config.stencil_blend(dx))

    if dt > 0:
        levels = t0 + dt * np.arange(n_steps + 1)
    else:
        levels = config.t_end - dt * np.arange(n_steps, -1, -1)
    levels[0], levels[-1] = t0, config.t_end
    joins = [0] * len(phi)
    if starts is not None and len(starts) != len(phi):
        raise ConfigError("need one start per lane")
    for lane, start in enumerate(starts or ()):
        step = int(round((start - t0) / dt))
        if not 0 <= step <= n_steps or abs(levels[step] - start) > 1e-6 * abs(dt):
            raise ConfigError(f"lane start {start} is not a level of the run")
        if step % every or step < joins[max(lane - 1, 0)] or (lane == 0 and step):
            raise ConfigError("the first lane starts at t0, the others on snapshot "
                              "levels in the run's order")
        joins[lane] = step
        levels[step] = start
    levels = levels.tolist()

    first = joins[-1]  # the stored lane's first level
    n_snap = (n_steps - first) // every + 1 + ((n_steps - first) % every != 0)
    times = np.empty(n_snap)
    phis = np.empty((n_snap, phi.shape[1]))
    dots = np.empty_like(phis)
    j = 0

    def snapshot(t, f, v):
        nonlocal j
        if len(f) == len(phi):
            times[j], phis[j], dots[j] = t, f[-1], v[-1]
            j += 1
        if observe is not None:
            observe(t, f, v)

    b = joins.count(0)
    ph, v, a = phi[:b], pd[:b], np.zeros_like(phi)
    ac = a[:b]
    lap(ph, ac)
    source(t0, ph, ac)
    snapshot(t0, ph, v)
    join = joins[b] if b < len(joins) else -1
    for step in range(1, n_steps + 1):
        pd_half = v + (0.5 * dt) * ac
        ph[:, 1:-1] += dt * pd_half[:, 1:-1]
        t = levels[step]
        if step == join:
            # the lanes starting here join with their initial data; the
            # kick below is the others' arrival half-kick only
            b0, b = b, b + joins.count(step)
            ph, ac = phi[:b], a[:b]
            lap(ph, ac)
            source(t, ph, ac)
            v = np.concatenate([pd_half + (0.5 * dt) * ac[:b0], pd[b0:b]])
            join = joins[b] if b < len(joins) else -1
        else:
            lap(ph, ac)
            source(t, ph, ac)
            v = pd_half + (0.5 * dt) * ac
        v[:, 0] = 0.0
        v[:, -1] = 0.0
        if step % every == 0 or step == n_steps:
            if not np.all(np.isfinite(ph)):
                raise InstabilityError(f"NaN/Inf detected at t={t}")
            snapshot(t, ph, v)
    if dt < 0:
        times, phis, dots = times[::-1], phis[::-1], dots[::-1]
    return SpaceTimeSlab(times, grid, phis, dots)


def evolve_nonlinear(state: FieldState, model: PotentialModel,
                     config: EvolveConfig) -> SpaceTimeSlab:
    """Evolve d_t^2 phi = d_x^2 phi - W'(phi) with clamped boundaries.

    Boundary values are frozen at their initial (vacuum-level) values.
    config.dt may be negative for backward evolution; t_end is then below
    the initial time.
    """
    def source(_t, f, out):
        out[:, 1:-1] -= model(f[:, 1:-1], 1)

    return _evolve(state.phi, state.phi_dot, state.t, state.grid, state.dx, config, source)


def evolve_linearized(h0: np.ndarray, params: MultikinkParams, grid: np.ndarray,
                      t_start: float, config: EvolveConfig) -> SpaceTimeSlab:
    """Evolve d_t^2 h = d_x^2 h - V(t, x) h with h clamped to zero at the ends.

    h0 is a two-component field (h, d_t h); the time-dependent potential is
    resampled from the ansatz at every step.
    """
    grid = np.asarray(grid, dtype=float)
    h = np.array(h0, dtype=float)
    h[:, 0] = h[:, -1] = 0.0

    def source(t, f, out):
        out[:, 1:-1] -= linearization_potential(params, t, grid)[1:-1] * f[:, 1:-1]

    return _evolve(h[0], h[1], t_start, grid, grid_spacing(grid), config, source)


def energy(state: FieldState, model: PotentialModel):
    """(E, E_p, E_k) by grid quadrature; boundary tails sit at vacua and
    contribute nothing."""
    phx = derivative(state.phi, state.dx)
    ep = integrate_grid(0.5 * phx**2 + model(state.phi, 0), state.dx)
    ek = integrate_grid(0.5 * state.phi_dot**2, state.dx)
    return float(ep + ek), float(ep), float(ek)


SECTOR_EDGE_POINTS = 8  # detect_sector's boundary value: the mean of this many points
SECTOR_TOL = 1e-3  # its largest distance to the vacuum it names


def detect_sector(state: FieldState, table: VacuumTable) -> tuple[int, int]:
    """Vacuum labels matched by the boundary windows of the field."""
    out = []
    for window in (state.phi[:SECTOR_EDGE_POINTS], state.phi[-SECTOR_EDGE_POINTS:]):
        val = float(np.mean(window))
        dist = [abs(val - w) for w in table.vacua]
        n = int(np.argmin(dist))
        if dist[n] > SECTOR_TOL:
            raise SectorError(f"boundary value {val} is no vacuum (tol={SECTOR_TOL})")
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


def zero_mode_laws(params: MultikinkParams, slab: SpaceTimeSlab,
                   pairings: np.ndarray) -> dict:
    """The pairing laws per kink, from zero_mode_drift's output: p0 =
    <psi_j^0, h> is conserved and p1 - p1(t_0) = -(1/gamma_j) int p0 dt
    (trapezoidal). Returns {"kink_j": {"psi0_drift": max |p0 - p0(t_0)|,
    "psi1_law_residual": max law violation, "psi0_scale": max |p0|}}."""
    laws = {}
    for j in range(1, params.K + 1):
        p0 = pairings[:, j - 1, 0]
        p1 = pairings[:, j - 1, 1]
        integral = np.concatenate([[0.0], np.cumsum(
            0.5 * (p0[1:] + p0[:-1]) * np.diff(slab.times))])
        law = p1 - p1[0] + integral / params.gammas[j - 1]
        laws[f"kink_{j}"] = {
            "psi0_drift": float(np.max(np.abs(p0 - p0[0]))),
            "psi1_law_residual": float(np.max(np.abs(law))),
            "psi0_scale": float(np.max(np.abs(p0))),
        }
    return laws
