"""Lorentz boosts of multikink parameters and of space-time field data,
and the covariance check construct-then-boost vs boost-then-construct."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .ansatz import AnsatzLevel, FieldState, MultikinkParams
from .construct import TRUNCATION_MAX_SPAN, SolverConfig, fixed_point, suggest_domain
from .errors import ConfigError, CoverageError
from .evolve import EvolveConfig, SpaceTimeSlab, evolve_nonlinear

COVARIANCE_T_SAMPLES = 11  # verify_covariance's primed sample times
COVARIANCE_PAD = 0.25  # the share of the primed domain it skips at either end


@dataclass(frozen=True)
class BoostSpec:
    """Boost velocity v with space-time translation (t0, x0).

    Coordinates map as (t, x) = (t0 + gamma (t' + v x'), x0 + gamma (x' + v t')).
    """

    v: float
    t0: float = 0.0
    x0: float = 0.0

    def __post_init__(self):
        if not -1.0 < self.v < 1.0:
            raise ConfigError("boost velocity must lie in (-1, 1)")

    @property
    def gamma(self) -> float:
        return 1.0 / math.sqrt(1.0 - self.v * self.v)

    def unprimed(self, t_prime, x_prime):
        """(t, x) of an event given its primed coordinates."""
        g = self.gamma
        return (self.t0 + g * (t_prime + self.v * x_prime),
                self.x0 + g * (x_prime + self.v * t_prime))

    def primed(self, t, x):
        """(t', x') of an event given its unprimed coordinates."""
        g = self.gamma
        return (g * (t - self.t0 - self.v * (x - self.x0)),
                g * (x - self.x0 - self.v * (t - self.t0)))

    @property
    def inverse(self) -> "BoostSpec":
        """The boost mapping primed coordinates back to unprimed ones."""
        g = self.gamma
        return BoostSpec(v=-self.v, t0=-g * (self.t0 - self.v * self.x0),
                         x0=-g * (self.x0 - self.v * self.t0))


def boost_params(params: MultikinkParams, boost: BoostSpec) -> MultikinkParams:
    """Parameters of the boosted multikink: relativistic velocity addition
    for the velocities, matched recentering for the shifts."""
    v, t0, x0 = boost.v, boost.t0, boost.x0
    new_v = []
    new_a = []
    for vj, aj, gj in zip(params.velocities, params.shifts, params.gammas):
        vjp = (vj - v) / (1.0 - vj * v)
        gjp = 1.0 / math.sqrt(1.0 - vjp * vjp)
        new_v.append(vjp)
        new_a.append(gj * (aj + vj * t0 - x0) / gjp)
    return params.with_parameters(new_v, new_a)


def boost_field(slab: SpaceTimeSlab, boost: BoostSpec, t_prime: float,
                grid_prime: np.ndarray) -> FieldState:
    """Field snapshot in the primed frame from stored unprimed data.

    Values come from bicubic space-time interpolation of the slab; the
    primed time derivative uses the chain rule d_t' = gamma (d_t + v d_x).
    Raises CoverageError when a pulled-back event leaves the slab.
    """
    grid_prime = np.asarray(grid_prime, dtype=float)
    t, x = boost.unprimed(t_prime, grid_prime)
    t = np.broadcast_to(np.asarray(t, dtype=float), grid_prime.shape)
    if (t.min() < slab.times[0] - 1e-9 or t.max() > slab.times[-1] + 1e-9
            or x.min() < slab.grid[0] - 1e-9 or x.max() > slab.grid[-1] + 1e-9):
        raise CoverageError(
            f"boosted window needs t in [{t.min():.3f}, {t.max():.3f}], "
            f"x in [{x.min():.3f}, {x.max():.3f}]; slab covers "
            f"t in [{slab.times[0]:.3f}, {slab.times[-1]:.3f}], "
            f"x in [{slab.grid[0]:.3f}, {slab.grid[-1]:.3f}]")
    sval = slab.value_spline
    phi = sval.ev(t, x)
    dphi_dt = slab.tderiv_spline.ev(t, x)
    dphi_dx = sval.ev(t, x, dy=1)
    g = boost.gamma
    phi_dot = g * (dphi_dt + boost.v * dphi_dx)
    return FieldState(t=float(t_prime), grid=grid_prime, phi=phi, phi_dot=phi_dot)


def extend_backward(slab: SpaceTimeSlab, model, t_min: float,
                    config: SolverConfig) -> SpaceTimeSlab:
    """Prepend snapshots down to t_min by evolving the earliest stored state
    backward in time (the equation is globally well posed, and leapfrog is
    time reversible), stepping and snapshotting by config.plan. The backward
    run ends exactly at the slab's first time and keeps its own snapshot
    there."""
    if t_min >= slab.times[0]:
        return slab
    dt, every = config.plan(t_min, slab.times[0])
    cfg = EvolveConfig(dt=-dt, t_end=t_min, snapshot_every=every)
    back = evolve_nonlinear(slab.state(0), model, cfg)
    return SpaceTimeSlab(np.concatenate([back.times, slab.times[1:]]), slab.grid,
                         np.concatenate([back.phis, slab.phis[1:]]),
                         np.concatenate([back.phi_dots, slab.phi_dots[1:]]))


def verify_covariance(params: MultikinkParams, boost: BoostSpec,
                      config: SolverConfig, settings: dict, window_t: float = 5.0) -> dict:
    """Compare boost(H + Psi) against H' + Psi' on a common primed window.

    Builds the unprimed solution, boosts the parameters, builds the primed
    solution independently, and reports the sup discrepancy of the two
    fields over the window together with its location. settings holds
    fixed_point's tol and max_iter, used by both constructions, and may
    hold its T, delta and t_final, used by the unprimed one only: the
    primed construction picks its own. window_t, the window's length in
    t', must be positive and below TRUNCATION_MAX_SPAN: the window ends at
    least 1 before the primed t_final, which the truncation search keeps
    within that span of the primed T. Both are checked before either
    construction.
    """
    if not window_t > 0:
        raise ConfigError(f"window_t must be positive, got {window_t}")
    if window_t >= TRUNCATION_MAX_SPAN:
        raise ConfigError("window_t must be below the truncation span cap "
                          f"{TRUNCATION_MAX_SPAN:g}, got {window_t:g}")
    # the field H + Psi, built in the arrays of Psi, which nothing else holds
    field, rep = fixed_point(params, config, **settings)
    for i, t in enumerate(field.times):
        level = AnsatzLevel(params, t, field.grid)
        field.phis[i] += level.H
        field.phi_dots[i] += level.H_t

    params_p = boost_params(params, boost)
    lo, hi = suggest_domain(params_p, rep.t_final)
    config_p = replace(config, x_min=lo, x_max=hi)
    psi_p, rep_p = fixed_point(params_p, config_p, tol=settings["tol"],
                               max_iter=settings["max_iter"])

    pad = COVARIANCE_PAD * (config_p.x_max - config_p.x_min)
    x_lo, x_hi = config_p.x_min + pad, config_p.x_max - pad
    g, v = boost.gamma, boost.v
    t_lo = max(rep_p.T, *(boost.primed(rep.T, x)[0] for x in (x_lo, x_hi)))
    # the window's pullback t0 + g (t' + v x') stays at or below rep.t_final
    t_end = min(rep_p.t_final - 1.0, *((rep.t_final - boost.t0) / g - v * x for x in (x_lo, x_hi)))
    t_lo = max(rep_p.T, min(t_lo, t_end - window_t))
    t_hi = t_lo + window_t
    # and x0 + g (x' + v t') on the unprimed grid
    x_lo = max(x_lo, *((field.grid[0] - boost.x0) / g - v * t for t in (t_lo, t_hi)))
    x_hi = min(x_hi, *((field.grid[-1] - boost.x0) / g - v * t for t in (t_lo, t_hi)))
    if t_end < t_hi or x_hi < x_lo:
        raise CoverageError("no common primed window; enlarge the constructions")

    grid_p = np.arange(x_lo, x_hi + 1e-9, config.dx)
    needed_t = [boost.unprimed(tp, xp)[0]
                for tp in (t_lo, t_hi) for xp in (grid_p[0], grid_p[-1])]
    field = extend_backward(field, params.model, min(needed_t) - 0.5, config)

    times_p = np.linspace(t_lo, t_hi, COVARIANCE_T_SAMPLES)
    diffs = np.array([
        np.abs(boost_field(field, boost, tp, grid_p).phi
               - (AnsatzLevel(params_p, tp, grid_p).H
                  + psi_p.value_spline.ev(np.full_like(grid_p, tp), grid_p)))
        for tp in times_p])
    # the first maximum in sample order, or the first NaN
    i, j = np.unravel_index(np.argmax(diffs), diffs.shape)
    return {
        "discrepancy": float(diffs[i, j]),
        "max_location": {"t_prime": float(times_p[i]), "x_prime": float(grid_p[j])},
        "window": {"t_lo": float(t_lo), "t_hi": float(t_hi),
                   "x_lo": float(grid_p[0]), "x_hi": float(grid_p[-1])},
        "tolerances": {"fixed_point_tol": settings["tol"], "dx": config.dx,
                       "snapshot_dt": config.snapshot_dt},
        "unprimed": rep.to_dict(),
        "primed": rep_p.to_dict(),
        "boost": {"v": boost.v, "t0": boost.t0, "x0": boost.x0},
    }
