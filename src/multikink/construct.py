"""Construction of pure multi-solitons by contraction mapping.

The error g of the ansatz solves a forced linear wave equation with the
multikink potential; the forcing is the nonlinearity N(g). The linear
solver integrates backward from vanishing data at a large final time, the
fixed point iterates g <- R N(g), and first parameter derivatives solve
the linearized equation with the potential W''(H + Psi).

All norms are discrete surrogates: the weighted norm takes the supremum
over stored snapshots only, which bounds the continuum supremum from
below.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .ansatz import AnsatzLevel, MultikinkParams, energy_norm_sq
from .errors import ConfigError, FitError, NoContractionError
from .evolve import MAX_COURANT, EvolveConfig, SpaceTimeSlab, _evolve, step_plan
from .numerics import capped_count, derivative2, fit_log_linear, grid_spacing, integrate_grid

START_THRESHOLD = 1e-3  # T is the first scanned time with |N(0)(T)|_{L2} <= this
FIT_SPAN = 10.0  # the exponential fit of |Psi| (fitted_decay_rate) spans [T, T + FIT_SPAN]
TRUNCATION_RTOL = 1e-8  # a probe is stable when its gap is <= this * max(1, scale)
TRUNCATION_MAX_SPAN = 400.0  # no truncation probe runs past T + this
RESIDUAL_MARGIN = 5.0  # the residual skips this width at either end of the grid
EDGE_WIDTH = 1.0  # the edge ratio reads max |Psi| within this width of either grid end
EDGE_RATIO_MAX = 1e-3  # fixed_point warns above this edge ratio: the grid may cut Psi
TAIL_MARGIN = 18.0  # suggest_domain pads the kink paths by this / min(mass)
LOG_FLOAT_MAX = math.log(sys.float_info.max)  # the largest delta * t of a weight e^{delta t}


@dataclass
class SolverConfig:
    """Grid and stepping plan for the backward solver and fixed point."""

    x_min: float
    x_max: float
    dx: float = 0.02
    cfl: float = 0.9
    snapshot_dt: float = 0.25

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.dx, self.snapshot_dt))):
            raise ConfigError("x_min, x_max, dx and snapshot_dt must be finite")
        if self.x_max <= self.x_min:
            raise ConfigError("x_max must exceed x_min")
        if self.dx <= 0 or not 0 < self.cfl <= MAX_COURANT or self.snapshot_dt <= 0:
            raise ConfigError(f"dx, snapshot_dt must be positive, cfl in (0, {MAX_COURANT:.4g}]")
        span = float(self.x_max) - float(self.x_min)  # Python floats overflow to inf silently
        n = int(round(capped_count(span / float(self.dx), "grid points of x_min, x_max and dx")))
        if n < 8:
            raise ConfigError("domain too narrow for the stencil")
        self.grid = self.x_min + self.dx * np.arange(n + 1)

    def plan(self, t_start: float, t_final: float):
        """(dt, snapshot_every) landing exactly on both endpoints with a
        uniform snapshot cadence. A span that is a whole number of
        snapshot_dt, up to step_plan's slack, keeps that number and steps
        snapshot_dt / every, so all such plans share one step length."""
        span = t_final - t_start
        if span <= 0:
            raise ConfigError("t_final must exceed t_start")
        every = max(1, math.ceil(capped_count(self.snapshot_dt / (self.cfl * self.dx),
                                              "steps of cfl * dx per snapshot_dt")))
        n_snap = max(2, step_plan(span, self.snapshot_dt, "snapshots of snapshot_dt")[0])
        if abs(span / self.snapshot_dt - n_snap) <= 1e-9:
            return self.snapshot_dt / every, every
        return span / (n_snap * every), every


def _check_delta(delta: float):
    if not delta > 0:
        raise ConfigError(f"delta must be positive, got {delta}")


def _weighted_sup(times: np.ndarray, norms: np.ndarray, T: float, delta: float):
    """Per column of norms (one row per time): max over the times >= T of
    e^{delta t} * norm. A weight past the largest float raises ConfigError."""
    _check_delta(delta)
    mask = times >= T - 1e-9
    if not np.any(mask):
        raise ConfigError("slab has no snapshots at or after T")
    t_max = float(times[mask].max())
    if float(delta) * t_max > LOG_FLOAT_MAX:
        raise ConfigError(f"delta = {delta:g} overflows the weight e^(delta t) at t = {t_max:g}")
    return np.max(np.exp(delta * times[mask])[:, None] * norms[mask], axis=0)


def weighted_norm(slab: SpaceTimeSlab, T: float, delta: float) -> float:
    """sup over snapshots t >= T of e^{delta t} * |(g, g_t)(t)|, the H^1 x
    L^2 norm."""
    return float(_weighted_sup(slab.times, slab.energy_norms()[:, None], T, delta)[0])


def nonlinearity(level: AnsatzLevel, g) -> np.ndarray:
    """N(g) = -W'(H + g) + sum_k W'(H_k) + V g at one ansatz level."""
    return -level.params.model(level.H + g, 1) + level.sum_wp + level.V * g


def _forcing_norm(params: MultikinkParams, t: float, grid: np.ndarray, dx: float) -> float:
    """|N(0)(t)|_{L2}, the free forcing's norm."""
    return math.sqrt(integrate_grid(nonlinearity(AnsatzLevel(params, t, grid), 0.0) ** 2, dx))


def default_start_time(params: MultikinkParams, grid: np.ndarray) -> float:
    """First time of the scan t_x + 0.5, t_x + 1, ..., t_x + 200 with
    |N(0)(t)|_{L2} <= START_THRESHOLD; the scan stops there. t_x, the last
    time two adjacent kink paths cross, or 0 if none crosses after 0, keeps
    the scan off kinks in the wrong order, where N(0) can be small before
    it grows; a t_x that is not finite raises ConfigError. If no time
    qualifies, warns and returns the scanned time of the smallest norm."""
    v, a = params.velocities, params.shifts
    t_cross = max([0.0, *((a[k] - a[k + 1]) / (v[k + 1] - v[k]) for k in range(params.K - 1))])
    if not math.isfinite(t_cross):
        raise ConfigError(f"the kink paths cross at t = {t_cross:g}")
    times = t_cross + np.arange(0.5, 200.0 + 1e-9, 0.5)
    dx = grid[1] - grid[0]
    norms = []
    for t in times:
        norms.append(_forcing_norm(params, t, grid, dx))
        if norms[-1] <= START_THRESHOLD:
            return float(t)
    warnings.warn("forcing never drops below threshold in the scanned range; "
                  "using the time of its minimum")
    return float(times[np.argmin(norms)])


def forcing_rate(params: MultikinkParams) -> float:
    """Exponential decay rate eta of the free forcing N(0): the min over
    adjacent kinks k, k+1 of m min(gamma_k, gamma_{k+1}) (v_{k+1} - v_k), m
    the mass of the vacuum they share, the slower rate at which either
    kink's tail reaches the other (Manton and Sutcliffe, Topological
    Solitons, ch. 5). Positive, as the velocities increase. Without a pair
    N(0) is zero, and eta is the smallest mass, the slowest tail rate."""
    v, gammas, labels = params.velocities, params.gammas, params.chain.labels
    rates = (params.table.mass(labels[k + 1]) * min(gammas[k], gammas[k + 1]) * (v[k + 1] - v[k])
             for k in range(params.K - 1))
    return float(min(rates, default=min(params.table.masses)))


def solve_backward(params: MultikinkParams, terms, t_start: float, t_final: float,
                   config: SolverConfig, tops=None, observe=None,
                   keep=(-1,)) -> list[SpaceTimeSlab]:
    """Solve d_t^2 h - d_x^2 h + U h = f backward from zero data.

    Integrates from (h, d_t h)(t_final) = (0, 0) down to t_start with the
    leapfrog stepper; this realizes the decaying solution once t_final is
    large enough that the forcing is negligible beyond it.

    The ansatz level is evaluated once per time level and handed to
    terms(t, level, h), which sees the live solution h, one row per active
    lane, and returns (U, f): the operator's potential, None meaning the
    ansatz's V, and the forcing, an (n,) array shared by every lane or one
    row per lane. The lanes are solutions of the same operator whose
    forcings may read each other's live values. tops holds each lane's top,
    nonincreasing from t_final and on snapshot levels, None meaning one lane
    from t_final: a lane is inactive above its top and starts there from
    zero data, so it equals the solve from its top on the same plan. The
    slabs returned are those of the lanes in keep, the last lane by
    default, each in increasing time from its top; observe(t, h, h_t), if
    given, sees every active lane at each snapshot.
    """
    grid = config.grid
    dt, every = config.plan(t_start, t_final)

    def source(t, h, out):
        level = AnsatzLevel(params, t, grid)
        pot, f = terms(t, level, h)
        pot = level.V if pot is None else pot
        out[:, 1:-1] -= pot[1:-1] * h[:, 1:-1]
        out[:, 1:-1] += f[..., 1:-1]

    zero = np.zeros((1 if tops is None else len(tops), len(grid)))
    return _evolve(zero, zero, t_final, grid, config.dx,
                   EvolveConfig(dt=-dt, t_end=t_start, snapshot_every=every),
                   source, observe, tops, keep)


# Picard iterates per backward sweep (pipelined waveform relaxation)
PICARD_LANES = 3


@dataclass
class ConstructReport:
    """Diagnostics of one fixed-point construction."""

    T: float
    delta: float
    t_final: float
    iterate_norms: list[float] = field(default_factory=list)
    # None: not measured
    contraction_ratio: float | None = None
    final_residual: float | None = None
    edge_ratio: float | None = None
    fitted_decay_rate: float | None = None
    decay_fit_r2: float | None = None
    decay_fit_error: str | None = None
    converged: bool = False
    iterations: int = 0
    # the truncation search's tests as [span, gap, scale], and whether the
    # span cap stopped its doubling (empty and False with t_final given)
    truncation: list[list[float]] = field(default_factory=list)
    truncation_capped: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Truncation:
    """The truncation search's outcome: t_final, the accepted candidate's
    last iterate with the weighted norms of its increments, each test as
    [span, gap, scale] and whether the span cap stopped the doubling."""

    t_final: float
    iterate: SpaceTimeSlab
    increments: list[float]
    tests: list[list[float]]
    capped: bool


def _sweep(params: MultikinkParams, config: SolverConfig, T: float, tops, n_cand: int,
           lanes: int, delta: float, g: SpaceTimeSlab | None = None):
    """Picard iterates from g on [T, top] for the increasing tops, run as the
    lanes of one backward sweep from tops[-1], each joining at its own top.

    Each top has a seed lane R N(g), g read between its snapshots through
    g.phi_at, cubic Hermite in its phi and phi_t (N(0) when g is None), and
    the first n_cand seeds carry `lanes` further iterates chained live:
    chain lane j is forced by N at lane j-1's live value. The
    seeds share one N(g) row per level; g, if given, is stored on the
    snapshot lattice of [T, top] of every candidate.

    Returns (gaps, candidates). gaps holds (gap, scale) of each seed against
    the next longer one over their common snapshots: gap is the largest
    |phi| or |phi_t| difference, scale the largest |phi| of the longer
    seed. candidates holds, per candidate, its chain's last lane as a slab,
    kept by the sweep itself (solve_backward's keep), and the weighted norms
    (weight e^{delta t} from T) of its increments, the seed's against g (or
    0), taken per snapshot, so no seed slab is stored.
    """
    seed, rows = {}, []
    for k in reversed(range(len(tops))):  # rows ordered by top, highest first
        seed[k] = len(rows)
        rows += [tops[k]] * (1 + lanes * (k < n_cand))
    seeds = np.array(list(seed.values()))
    chains = np.setdiff1d(np.arange(len(rows)), seeds)

    def terms(t, level, h):
        f = np.empty_like(h)
        f[seeds[seeds < len(h)]] = nonlinearity(level, 0.0 if g is None else g.phi_at(t))
        live = chains[chains < len(h)]
        f[live] = nonlinearity(level, h[live - 1])
        return None, f

    dx = grid_spacing(config.grid)
    gaps = [[0.0, 1e-300] for _ in tops[1:]]
    seen = [[] for _ in range(n_cand)]  # each candidate's increment norms, latest first

    def observe(_t, h, h_t):
        for k, p in seed.items():
            if p >= len(h):
                continue
            if k + 1 < len(tops):
                q = seed[k + 1]
                gap = gaps[k]
                gap[0] = max(gap[0], float(np.max(np.abs(h[p] - h[q]))),
                             float(np.max(np.abs(h_t[p] - h_t[q]))))
                gap[1] = max(gap[1], float(np.max(np.abs(h[q]))))
            if k < n_cand:
                chain = slice(p, p + lanes + 1)
                i = -1 - len(seen[k])  # the snapshot's row: the sweep runs backward
                base = (0.0, 0.0) if g is None else (g.phis[i][None], g.phi_dots[i][None])
                # increments along the chain: lane 0 against g, lane j against lane j-1
                dh = np.diff(h[chain], axis=0, prepend=base[0])
                dh_t = np.diff(h_t[chain], axis=0, prepend=base[1])
                seen[k].append([math.sqrt(energy_norm_sq(d, dx)) for d in zip(dh, dh_t)])

    ends = solve_backward(params, terms, T, tops[-1], config, rows, observe,
                          [seed[k] + lanes for k in range(n_cand)])
    candidates = []
    for slab, norms in zip(ends, seen):
        sups = _weighted_sup(slab.times, np.array(norms[::-1]), T, delta)
        candidates.append((slab, [float(n) for n in sups]))
    return [tuple(gap) for gap in gaps], candidates


def choose_final_time(params: MultikinkParams, config: SolverConfig, T: float,
                      delta: float, lanes: int = 0) -> Truncation:
    """Double the truncation time until the zero-iterate response on the
    kept window stops changing (mirrors the limiting construction of the
    backward solver).

    The first span s is max(16, 4/delta) and the reach D is 2/delta, both
    rounded up to a whole number of snapshot_dt so that every probe lies on
    one lattice of levels, and s at most the largest such number not above
    TRUNCATION_MAX_SPAN (a snapshot_dt above it raises ConfigError). Each window is one sweep (_sweep, from g = 0) of
    the candidates at spans s and 2s and a last probe at 2s + D; each
    candidate is tested against the next probe up. A test of span c
    against the probe at span p divides its gap by 1 - e^{-delta (p - c)},
    which makes it the candidate's distance to the untruncated limit if
    each further rise of the top by p - c shrinks the gap by e^{-delta
    (p - c)}, and passes when that is at most
    TRUNCATION_RTOL * max(1, scale); the first test that passes gives
    t_final = T + c. If none passes, the next window starts at 4s. A window
    whose 8s passes TRUNCATION_MAX_SPAN is the last: it probes s, 2s and
    4s, none past the cap, all candidates, and if no test passes its
    longest probe is accepted with a warning. The accepted probe is R N(0)
    on [T, t_final], the first fixed-point iterate, and the `lanes`
    iterates chained on it are the next ones.
    """
    _check_delta(delta)
    step = config.snapshot_dt
    span, reach = (step * step_plan(t, step, "snapshots of snapshot_dt")[0]
                   for t in (max(16.0, 4.0 / delta), 2.0 / delta))
    cap = step * math.floor(TRUNCATION_MAX_SPAN / step)
    if cap <= 0:
        raise ConfigError(f"snapshot_dt = {step:g} leaves no truncation probe within "
                          f"TRUNCATION_MAX_SPAN = {TRUNCATION_MAX_SPAN:g} of T")
    span = min(span, cap)
    tests = []
    while True:
        capped = 8.0 * span > TRUNCATION_MAX_SPAN
        spans = [k * span for k in (1, 2, 4) if k == 1 or k * span <= TRUNCATION_MAX_SPAN]
        if not capped:
            spans[-1] = 2.0 * span + reach
        n_cand = len(spans) if capped else len(spans) - 1
        tops = [T + s for s in spans]
        gaps, candidates = _sweep(params, config, T, tops, n_cand, lanes, delta)
        for k, (gap, scale) in enumerate(gaps):
            gap /= -math.expm1(-delta * (spans[k + 1] - spans[k]))
            tests.append([spans[k], gap, scale])
            if gap <= TRUNCATION_RTOL * max(1.0, scale):
                return Truncation(tops[k], *candidates[k], tests, False)
        if capped:
            warnings.warn("truncation time hit its cap before stabilizing")
            return Truncation(tops[-1], *candidates[-1], tests, True)
        span = 4.0 * span


def _residual_window(grid: np.ndarray) -> np.ndarray:
    """The grid points RESIDUAL_MARGIN clear of both ends."""
    return (grid >= grid[0] + RESIDUAL_MARGIN) & (grid <= grid[-1] - RESIDUAL_MARGIN)


def measure_residual(params: MultikinkParams, psi_slab: SpaceTimeSlab) -> float:
    """Sup over interior snapshots of the L2 norm of the PDE residual of
    H + Psi, RESIDUAL_MARGIN clear of the grid's ends, measured with
    stencils independent of the solver (snapshot second differences in t,
    wide 4th-order stencil in x)."""
    grid = psi_slab.grid
    dx = psi_slab.dx
    mask = _residual_window(grid)
    worst = 0.0
    # H + Psi per snapshot, held three at a time
    fields = (AnsatzLevel(params, t, grid).H + psi
              for t, psi in zip(psi_slab.times, psi_slab.phis))
    prev, cur = next(fields, None), next(fields, None)
    for i, nxt in enumerate(fields, start=1):
        dt1 = psi_slab.times[i] - psi_slab.times[i - 1]
        dt2 = psi_slab.times[i + 1] - psi_slab.times[i]
        if abs(dt1 - dt2) <= 1e-9:
            dtt = (prev - 2.0 * cur + nxt) / (dt1 * dt1)
            dxx = derivative2(cur, dx)
            r = dtt - dxx + params.model(cur, 1)
            worst = max(worst, math.sqrt(integrate_grid(r[mask] ** 2, dx)))
        prev, cur = cur, nxt
    return worst


def edge_ratio(psi_slab: SpaceTimeSlab) -> float:
    """max |Psi| within EDGE_WIDTH of either grid end over max |Psi|, both
    over every snapshot, taken one snapshot at a time; 0 when Psi is zero.
    A construction on a grid that cuts the solution reads well above
    EDGE_RATIO_MAX, since the clamped ends hold Psi at zero there."""
    grid = psi_slab.grid
    edge = (grid <= grid[0] + EDGE_WIDTH) | (grid >= grid[-1] - EDGE_WIDTH)
    near, whole = np.max([(np.max(np.abs(phi[edge])), np.max(np.abs(phi)))
                          for phi in psi_slab.phis], axis=0)
    return 0.0 if whole == 0.0 else float(near / whole)


def decay_fit(psi_slab: SpaceTimeSlab, T: float, span: float):
    """Log-linear fit of the energy norm of (Psi, d_t Psi) over [T, T+span].

    Returns (rate, r2): rate > 0 means exponential decay at that rate.
    """
    mask = (psi_slab.times >= T - 1e-9) & (psi_slab.times <= T + span + 1e-9)
    slope, _, r2, _ = fit_log_linear(psi_slab.times[mask], psi_slab.energy_norms()[mask])
    return -slope, r2


def fixed_point(params: MultikinkParams, config: SolverConfig,
                T: float | None = None, delta: float | None = None,
                tol: float = 1e-8, max_iter: int = 25,
                t_final: float | None = None, g0: SpaceTimeSlab | None = None):
    """Iterate g <- R N(g) from g = 0 (or g0, stored on the solver's
    snapshot lattice of [T, t_final], both given) until a weighted
    increment norm drops below tol; returns (Psi slab, ConstructReport).

    The iterates run PICARD_LANES at a time as the lanes of one backward
    sweep (_sweep with the one top t_final), fewer when max_iter leaves
    fewer. A sweep runs to its last lane, which is the iterate kept, and
    every lane counts as an iteration, so the last iterate may lie past the
    first increment below tol.

    T defaults to the first time the free forcing N(0) is small, delta to
    half its decay rate forcing_rate, and the truncation time to the stabilized
    doubling of choose_final_time. Its windows carry the first iterates
    too: the accepted probe R N(0) and the iterates chained live on it,
    min(PICARD_LANES, max_iter - 1) of them, after which the sweeps go on
    from the last. max_iter < 1, tol <= 0 or not finite, delta <= 0, a grid
    with no point RESIDUAL_MARGIN clear of both ends (where the residual is
    measured), a g0 without T and t_final or off their lattice, a kink
    centre v_k T + a_k off the grid and kink centres at T that do not
    increase raise ConfigError before any solve. The
    report's edge_ratio is edge_ratio(Psi), and a ratio above
    EDGE_RATIO_MAX warns that the grid may cut the solution.
    """
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    if not 0 < tol < math.inf:
        raise ConfigError(f"tol must be positive and finite, got {tol}")
    if delta is not None:
        _check_delta(delta)
    grid = config.grid
    if not np.any(_residual_window(grid)):
        raise ConfigError(f"no point of the grid [{grid[0]:g}, {grid[-1]:g}] lies "
                          f"{RESIDUAL_MARGIN:g} clear of both ends, where the residual "
                          "is measured")
    if g0 is not None:
        if T is None or t_final is None:
            raise ConfigError("a g0 needs T and t_final given")
        dt, every = config.plan(T, t_final)
        n_snap = step_plan(t_final - T, dt, "steps from T to t_final")[0] // every + 1
        if g0.phis.shape != (n_snap, len(grid)):
            raise ConfigError(f"g0 must hold {n_snap} snapshots on the solver grid")
    if T is None:
        T = default_start_time(params, grid)
    centres = params.centres(T)
    for k, x in enumerate(centres, start=1):
        if not grid[0] < x < grid[-1]:
            raise ConfigError(f"kink {k} sits at x = {x:g} at T = {T:g}, off the grid "
                              f"[{grid[0]:g}, {grid[-1]:g}] the construction solves on")
        if k > 1 and not centres[k - 2] < x:
            raise ConfigError(f"kink {k} sits at x = {x:g} at T = {T:g}, not right of kink "
                              f"{k - 1} at {centres[k - 2]:g}: their paths cross after T")
    if delta is None:
        delta = 0.5 * forcing_rate(params)
    report = ConstructReport(T=T, delta=delta, t_final=t_final)
    pending = None  # the next iterate with the weighted norms of its increments
    if t_final is None:
        search = choose_final_time(params, config, T, delta,
                                   lanes=min(PICARD_LANES, max_iter - 1))
        report.t_final = t_final = search.t_final
        report.truncation, report.truncation_capped = search.tests, search.capped
        pending = search.iterate, search.increments
    start_norm = _forcing_norm(params, T, grid, config.dx)
    if start_norm > 0.1:
        warnings.warn(f"|N(0)(T)| = {start_norm:.3g} is large; T may be too small")

    g, norms, rising = g0, report.iterate_norms, 0
    while report.iterations < max_iter and not report.converged:
        if pending is None:
            lanes = min(PICARD_LANES, max_iter - report.iterations)
            _, [pending] = _sweep(params, config, T, [t_final], 1, lanes - 1, delta, g)
        (g, dnorms), pending = pending, None
        for dnorm in dnorms:
            norms.append(dnorm)
            if len(norms) >= 2 and norms[-2] > 0:
                q = dnorm / norms[-2]
                rising = rising + 1 if q >= 1.0 else 0
                # increments hovering at the discrete floor are a stall, not
                # a divergence; only growth well above the floor aborts
                if rising >= 3 and dnorm > 100.0 * min(norms):
                    raise NoContractionError(
                        f"increment ratio stayed >= 1 for 3 iterations (last q={q:.3g}); "
                        "try a larger T")
            report.iterations += 1
            report.converged = report.converged or dnorm < tol
    # each ratio with the increment it ends at; ratios taken once increments
    # reach the discrete noise floor say nothing about the map, so keep those
    # above the geometric midpoint between the first and the smallest increment
    ratios = [(b / a, b) for a, b in zip(norms, norms[1:]) if a > 0]
    if ratios:
        cutoff = math.sqrt(norms[0] * max(min(norms), 1e-300))
        kept = [q for q, b in ratios if b >= cutoff] or [q for q, _ in ratios]
        report.contraction_ratio = float(np.median(kept))
    report.final_residual = measure_residual(params, g)
    report.edge_ratio = edge_ratio(g)
    if report.edge_ratio > EDGE_RATIO_MAX:
        warnings.warn(f"max |Psi| within {EDGE_WIDTH:g} of a grid end is {report.edge_ratio:.3g} "
                      f"of its max (above {EDGE_RATIO_MAX:g}); the grid may cut the solution")
    try:
        rate, r2 = decay_fit(g, T, span=min(FIT_SPAN, t_final - T - 2 * config.snapshot_dt))
        report.fitted_decay_rate = rate
        report.decay_fit_r2 = r2
    except FitError as err:
        report.decay_fit_error = str(err)
    return g, report


def shift_derivative_of_kink(level: AnsatzLevel, k: int) -> np.ndarray:
    """d H_k / d a_k = -gamma_k H'(gamma_k (x - v_k t - a_k))."""
    return -level.params.gammas[k - 1] * level.slope(k)


def velocity_derivative_of_kink(level: AnsatzLevel, k: int) -> np.ndarray:
    """d H_k / d v_k = H'(gamma_k y) (gamma_k^3 v_k y - gamma_k t)."""
    g, v = level.params.gammas[k - 1], level.params.velocities[k - 1]
    return level.slope(k) * (g**3 * v * level.coord(k) - g * level.t)


def param_derivative(params: MultikinkParams, psi_slab: SpaceTimeSlab, k: int,
                     which: str, config: SolverConfig) -> SpaceTimeSlab:
    """Solve the linear equation for d Psi / d a_k or d Psi / d v_k.

    The equation's whole potential is W''(H + Psi), which replaces the
    ansatz's V (never built here), and its right-hand side is
    -(W''(H + Psi) - W''(H_k)) dH_k, which reads W'' of the k-th kink only;
    both are evaluated along the stored Psi slab, read between its
    snapshots through psi_slab.phi_at, the cubic Hermite interpolant of its
    phi and phi_t, which keeps no state.
    """
    if which not in ("shift", "velocity"):
        raise ConfigError("which must be 'shift' or 'velocity'")
    if not 1 <= k <= params.K:
        raise ConfigError(f"kink index {k} outside 1..{params.K}")
    dkink = shift_derivative_of_kink if which == "shift" else velocity_derivative_of_kink

    def terms(t, level, _h):
        wpp_full = params.model(level.H + psi_slab.phi_at(t), 2)
        forcing = -(wpp_full - params.model(level.kinks[k - 1], 2)) * dkink(level, k)
        return wpp_full, forcing

    return solve_backward(params, terms, float(psi_slab.times[0]),
                          float(psi_slab.times[-1]), config)[0]


def suggest_domain(params: MultikinkParams, t_max: float):
    """Spatial interval containing every kink over [0, t_max], padded by
    TAIL_MARGIN tail decay lengths of the lightest vacuum."""
    margin = TAIL_MARGIN / min(params.table.masses)
    pos = params.centres(0.0) + params.centres(t_max)
    return min((0.0, *pos)) - margin, max((0.0, *pos)) + margin
