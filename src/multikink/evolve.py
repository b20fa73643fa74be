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

from .ansatz import AnsatzLevel, FieldState, MultikinkParams, energy_norm_sq, inner_product
from .errors import ConfigError, InstabilityError, SectorError
from .numerics import capped_count, derivative, grid_spacing, integrate_grid, require_finite
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


def step_plan(span: float, dt: float, what: str) -> tuple[int, float]:
    """(n, span / n): the fewest steps of at most |dt| covering span, the one
    step-count rule. The 1e-9 slack keeps a whole number of steps up to
    rounding; a count not finite or above MAX_COUNT raises ConfigError naming what."""
    n = max(1, math.ceil(capped_count(abs(span / dt), what) - 1e-9))
    return n, span / n


def make_laplacian(dx: float, blend: float):
    """Blended 3/5-point second-difference operator with zeroed boundary rows,
    applied along the last axis (one row per lane of a (B, n) state).

    (1 - blend) times the 3-point stencil plus blend times the 5-point one is
    the single symmetric stencil c1 d1 - b d2, with d1 = (f[i-1] + f[i+1]) -
    2 f[i], d2 = (f[i-2] + f[i+2]) - 2 f[i], b = blend / (12 dx^2) and c1 =
    (1 - blend) / dx^2 + 16 b, written in place into out. Kept as second
    differences, each term is exactly zero on a constant field. The
    outermost interior nodes always use the 3-point formula d1 / dx^2.
    """
    inv_dx2 = 1.0 / (dx * dx)
    b = blend * inv_dx2 / 12.0
    c1 = (1.0 - blend) * inv_dx2 + 16.0 * b

    def lap(f, out):
        twice = 2.0 * f[..., 1:-1]
        d1 = np.add(f[..., :-2], f[..., 2:], out=out[..., 1:-1])
        d1 -= twice
        out[..., 2:-2] *= c1
        out[..., [1, -2]] *= inv_dx2
        d2 = f[..., :-4] + f[..., 4:]
        d2 -= twice[..., 1:-1]
        d2 *= b
        out[..., 2:-2] -= d2
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
        for name, values in (("times", self.times), ("grid", self.grid)):
            if values.ndim != 1:
                raise ConfigError(f"{name} has shape {values.shape}, not one axis")
        if np.any(np.diff(self.times) <= 0):
            raise ConfigError("snapshot times must be strictly increasing")
        shape = (len(self.times), len(self.grid))
        for name, values in (("phis", self.phis), ("phi_dots", self.phi_dots)):
            if values.shape != shape:
                raise ConfigError(f"{name} has shape {values.shape}, not (times, grid) = {shape}")
        self.dx = grid_spacing(self.grid)

    def __len__(self):
        return len(self.times)

    def state(self, i: int) -> FieldState:
        return FieldState(t=float(self.times[i]), grid=self.grid,
                          phi=self.phis[i].copy(), phi_dot=self.phi_dots[i].copy())

    def energy_norms(self) -> np.ndarray:
        """Energy norm of each snapshot, one at a time: no slab-sized temporary."""
        return np.sqrt([energy_norm_sq(pair, self.dx) for pair in zip(self.phis, self.phi_dots)])

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

    def save(self, directory):
        """grid.npy, phis.npy and phi_dots.npy plus a manifest.json of the
        times. A non-finite value is a NumericsError naming its file, and
        nothing is written."""
        directory = Path(directory)
        arrays = {"grid": self.grid, "phis": self.phis, "phi_dots": self.phi_dots}
        require_finite(directory / "manifest.json", "times", self.times)
        for name, values in arrays.items():
            require_finite(directory / f"{name}.npy", name, values)
        directory.mkdir(parents=True, exist_ok=True)
        for name, values in arrays.items():
            np.save(directory / f"{name}.npy", values)
        with open(directory / "manifest.json", "w") as fh:
            json.dump({"times": self.times.tolist()}, fh, sort_keys=True, indent=1)

    @staticmethod
    def load(directory) -> "SpaceTimeSlab":
        """Read a slab written by save. A missing, empty, truncated or
        non-.npy file, an array of anything but finite real floats or a
        manifest without a list of finite numbers as its times is a
        ConfigError naming the file; the constructor checks the shapes."""
        directory = Path(directory)
        arrays = {}
        try:
            for name in ("grid", "phis", "phi_dots"):
                path = directory / f"{name}.npy"
                arrays[name] = np.load(path, allow_pickle=False)
                if arrays[name].dtype.kind != "f" or not np.isfinite(arrays[name]).all():
                    raise ConfigError(f"{path}: not an array of finite real floats")
            path = directory / "manifest.json"
            manifest = json.loads(path.read_text())
            if not isinstance(manifest, dict) or "times" not in manifest:
                raise ConfigError(f'{path}: not an object {{"times": [...]}}')
            times = np.asarray(manifest["times"], dtype=float)
            if not np.isfinite(times).all():
                raise ConfigError(f"{path}: times are not all finite")
        except (OSError, EOFError, ValueError, TypeError) as err:
            raise ConfigError(f"{path}: {err}") from err
        return SpaceTimeSlab(times, **arrays)


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
    n_steps, dt = step_plan(span, config.dt, "steps of dt from the start to t_end")
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
    """Evolve d_t^2 h = d_x^2 h - V(t, x) h, h clamped to zero at the ends,
    from the two-component field h0 = (h, d_t h), and record all 2K dual
    pairings per snapshot. Each time level's ansatz gives both V and the
    modes paired at that level.

    Returns (slab, pairings) with pairings[i, j-1, s] = <psi_j^s(t_i), h(t_i)>.
    """
    grid = np.asarray(grid, dtype=float)
    dx = grid_spacing(grid)
    h = np.array(h0, dtype=float)
    h[:, 0] = h[:, -1] = 0.0
    level = None
    pairings = []

    def source(t, f, out):
        nonlocal level
        level = AnsatzLevel(params, t, grid)
        out[:, 1:-1] -= level.V[1:-1] * f[:, 1:-1]

    def observe(_t, f, v):
        pair = np.stack([f[-1], v[-1]])
        pairings.append([[inner_product(psi, pair, dx) for psi in (modes.psi0, modes.psi1)]
                         for modes in map(level.zero_modes, range(1, params.K + 1))])

    slab = _evolve(h[0], h[1], t_start, grid, dx, config, source, observe)
    return slab, np.array(pairings[::-1] if config.dt < 0 else pairings)


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
