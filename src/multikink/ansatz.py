"""Multikink ansatz fields: profiles superposed along a chain of vacua,
their linearization potential, generalized zero modes, cutoffs and the
coercive quadratic forms.

Two-component fields (h, dh/dt) are represented as arrays of shape
(2, n_grid). The symplectic matrix J maps (f, g) to (g, -f).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError
from .kink import KinkProfile, kink_profile
from .numerics import central_diff, grid_spacing, integrate_grid, random_pair_field, smoothstep_quintic
from .potential import ChainOfVacua, PotentialModel, VacuumTable, validate_chain


@dataclass
class FieldState:
    """Sampled pair (phi, d_t phi) on a uniform grid at time t."""

    t: float
    grid: np.ndarray
    phi: np.ndarray
    phi_dot: np.ndarray

    def __post_init__(self):
        self.dx = grid_spacing(self.grid)
        if not (len(self.grid) == len(self.phi) == len(self.phi_dot)):
            raise ConfigError("grid, phi and phi_dot must have equal length")


@dataclass(frozen=True)
class MultikinkParams:
    """A chain of vacua with admissible velocities and shifts.

    Carries the potential, vacuum table and the kink profiles for every
    adjacent pair so that all ansatz operations are self-contained.
    Immutable; boosting produces a new instance sharing the profiles.
    """

    model: PotentialModel
    table: VacuumTable
    chain: ChainOfVacua
    velocities: tuple[float, ...]
    shifts: tuple[float, ...]
    profiles: Mapping[tuple[int, int], KinkProfile] = field(repr=False)

    def __post_init__(self):
        K = self.chain.K
        if len(self.velocities) != K or len(self.shifts) != K:
            raise ConfigError("velocities and shifts must have one entry per kink")
        v = self.velocities
        if any(not -1.0 < vi < 1.0 for vi in v):
            raise ConfigError("velocities must lie in (-1, 1)")
        if any(not a < b for a, b in zip(v, v[1:])):
            raise ConfigError("velocities must be strictly increasing")
        for pair in self.chain.pairs():
            if pair not in self.profiles:
                raise ConfigError(f"missing kink profile for vacuum pair {pair}")

    @property
    def K(self) -> int:
        return self.chain.K

    @cached_property
    def gammas(self) -> tuple[float, ...]:
        return tuple(1.0 / np.sqrt(1.0 - v * v) for v in self.velocities)

    def profile(self, k: int) -> KinkProfile:
        """Profile of the k-th kink (1-indexed)."""
        return self.profiles[self.chain.pairs()[k - 1]]

    def with_parameters(self, velocities, shifts) -> "MultikinkParams":
        return MultikinkParams(model=self.model, table=self.table, chain=self.chain,
                               velocities=tuple(float(v) for v in velocities),
                               shifts=tuple(float(a) for a in shifts),
                               profiles=self.profiles)


def make_params(model: PotentialModel, table: VacuumTable, labels: Sequence[int],
                velocities: Sequence[float], shifts: Sequence[float],
                dx: float = 0.01, half_width: float | None = None) -> MultikinkParams:
    """Validate the chain and tabulate one profile per adjacent vacuum pair."""
    chain = validate_chain(table, labels)
    profiles = {}
    for pair in chain.pairs():
        if pair not in profiles:
            profiles[pair] = kink_profile(model, table, pair[0], pair[1],
                                          half_width=half_width, dx=dx)
    return MultikinkParams(model=model, table=table, chain=chain,
                           velocities=tuple(float(v) for v in velocities),
                           shifts=tuple(float(a) for a in shifts), profiles=profiles)


class AnsatzLevel:
    """The multikink ansatz at one time level.

    The one place a kink profile is sampled: each H_k once, at gamma_k y_k,
    y_k = coord(k) its co-moving coordinate. Every piece below is derived
    from those samples on first use, so a caller pays only for the pieces
    it reads; W' and W'' are applied to the sampled H_k, never to
    tabulated values.
    """

    def __init__(self, params: MultikinkParams, t: float, grid: np.ndarray):
        self.params = params
        self.t = float(t)
        self.grid = np.asarray(grid, dtype=float)
        self.kinks = [params.profile(k)(params.gammas[k - 1] * self.coord(k))
                      for k in range(1, params.K + 1)]
        self._slopes: dict[int, np.ndarray] = {}

    def coord(self, k: int) -> np.ndarray:
        """y_k = x - v_k t - a_k, the k-th kink's co-moving coordinate."""
        p = self.params
        return self.grid - p.velocities[k - 1] * self.t - p.shifts[k - 1]

    def slope(self, k: int) -> np.ndarray:
        """Profile derivative H_k' at the k-th kink's argument (1-indexed)."""
        if k not in self._slopes:
            self._slopes[k] = self.params.profile(k).deriv_at_values(self.kinks[k - 1], 1)
        return self._slopes[k]

    def zero_modes(self, j: int) -> "ModePair":
        """Y^0, Y^1 and their duals for the j-th kink (1-indexed), from
        H_j' = slope(j) and H_j'' = W'(H_j). Y^0 generates translations of
        the moving kink, Y^1 velocity changes; psi^i = J Y^i are the pairing
        functionals whose evolution obeys the linearized flow's laws."""
        p = self.params
        v, g, y = p.velocities[j - 1], p.gammas[j - 1], self.coord(j)
        d1 = self.slope(j)
        d2 = p.model(self.kinks[j - 1], 1)
        # Y1 is gamma * d/dv of the moving-kink pair with the secular part removed;
        # with these factors h = Y1 + (t/gamma) Y0 solves the linearized flow exactly
        Y0 = np.stack([d1, -g * v * d2])
        Y1 = np.stack([-g * v * y * d1, g * d1 + g * g * v * v * y * d2])
        return ModePair(Y0=Y0, Y1=Y1, psi0=apply_J(Y0), psi1=apply_J(Y1))

    @cached_property
    def H(self) -> np.ndarray:
        """Vacuum plus the sum of the kink increments."""
        p = self.params
        H = np.full_like(self.grid, p.table.vacuum(p.chain.labels[0]))
        for k, hk in enumerate(self.kinks, start=1):
            H += hk - p.table.vacuum(p.chain.labels[k - 1])
        return H

    @cached_property
    def H_t(self) -> np.ndarray:
        """Exact time derivative of H by the chain rule."""
        p = self.params
        H_t = np.zeros_like(self.grid)
        for k in range(1, p.K + 1):
            H_t += -p.gammas[k - 1] * p.velocities[k - 1] * self.slope(k)
        return H_t

    @cached_property
    def V(self) -> np.ndarray:
        """Potential of the linearized operator: the sum of W''(H_k) with
        the vacuum-mass offsets removed, so the limits at -/+ infinity are
        the squared masses of the end vacua. For K = 0 this is the constant
        squared mass of the single vacuum."""
        p = self.params
        labels = p.chain.labels
        if p.K == 0:
            return np.full_like(self.grid, p.table.mass(labels[0]) ** 2)
        V = p.model(self.kinks[0], 2)
        for j in range(1, p.K):
            V = V + p.model(self.kinks[j], 2) - p.table.mass(labels[j]) ** 2
        return V

    @cached_property
    def sum_wp(self) -> np.ndarray:
        """Sum over the kinks of W'(H_k)."""
        out = np.zeros_like(self.grid)
        for hk in self.kinks:
            out += self.params.model(hk, 1)
        return out


def multikink(params: MultikinkParams, t: float, grid: np.ndarray) -> FieldState:
    """The ansatz field: vacuum plus the sum of boosted kink increments.

    phi_dot is the exact time derivative of the superposition, using the
    tail-extended profile derivatives and the chain rule.
    """
    level = AnsatzLevel(params, t, grid)
    return FieldState(t=level.t, grid=level.grid, phi=level.H, phi_dot=level.H_t)


def apply_J(h: np.ndarray) -> np.ndarray:
    """Symplectic matrix [[0, 1], [-1, 0]] acting on a two-component field."""
    return np.stack([h[1], -h[0]])


@dataclass(frozen=True)
class ModePair:
    """Generalized zero modes of one kink and their symplectic duals."""

    Y0: np.ndarray
    Y1: np.ndarray
    psi0: np.ndarray
    psi1: np.ndarray


def zero_modes(params: MultikinkParams, j: int, t: float, grid: np.ndarray) -> ModePair:
    """AnsatzLevel.zero_modes(j) of the ansatz at time t, j checked first."""
    if not 1 <= j <= params.K:
        raise ConfigError(f"kink index {j} outside 1..{params.K}")
    return AnsatzLevel(params, t, grid).zero_modes(j)


def default_rho(params: MultikinkParams) -> float:
    """Cutoff half-speed: 0.05 of the smallest velocity gap."""
    if params.K < 2:
        return 0.05 * (1.0 - max((abs(v) for v in params.velocities), default=0.0))
    return 0.05 * min(b - a for a, b in zip(params.velocities, params.velocities[1:]))


def kink_cutoff(params: MultikinkParams, j: int, t: float, x, rho: float):
    """Smooth bump following the j-th kink: 1 within |u|<=1, 0 for |u|>=2,
    u = (x - v_j t - a_j) / (rho t). Requires t > 0."""
    if t <= 0:
        raise ConfigError("the cutoff is defined for t > 0 only")
    if rho <= 0:
        raise ConfigError("rho must be positive")
    if not 1 <= j <= params.K:
        raise ConfigError(f"kink index {j} outside 1..{params.K}")
    u = np.abs((np.asarray(x, dtype=float) - params.velocities[j - 1] * t
                - params.shifts[j - 1]) / (rho * t))
    val = 1.0 - smoothstep_quintic(u - 1.0)
    return float(val) if val.ndim == 0 else val


def inner_product(h: np.ndarray, mode: np.ndarray, dx: float) -> float:
    """L2 x L2 inner product of two two-component sampled fields."""
    h = np.asarray(h)
    mode = np.asarray(mode)
    if h.shape != mode.shape:
        raise ConfigError(f"grid mismatch: {h.shape} vs {mode.shape}")
    return integrate_grid(h[0] * mode[0] + h[1] * mode[1], dx)


def energy_norm_sq(h: np.ndarray, dx: float):
    """Squared energy norm |h|_{H^1}^2 + |h_dot|_{L^2}^2 of each pair of a
    (2, ..., n) stack: a float for one (2, n) field."""
    hx = central_diff(h[0], dx)
    return integrate_grid(h[0] ** 2 + hx**2 + h[1] ** 2, dx)


def _quad_form(h: np.ndarray, dx: float, pot: np.ndarray, cross) -> float:
    """1/2 int (h_dot^2 + h_x^2 + 2 cross h_dot h_x + pot h^2), the form of
    both quad_form_ functions; pot = V and the cross weight do not depend on
    h, so a caller with many h computes them once."""
    hx = central_diff(h[0], dx)
    integrand = h[1] ** 2 + hx**2 + 2.0 * cross * h[1] * hx + pot * h[0] ** 2
    return 0.5 * integrate_grid(integrand, dx)


def _cutoff_velocity(params: MultikinkParams, t: float, grid: np.ndarray) -> np.ndarray:
    """sum_j chi_j v_j, quad_form_multi's cross weight, the cutoffs chi_j at
    half-speed default_rho(params)."""
    cross = np.zeros(np.shape(grid))
    for j in range(1, params.K + 1):
        cross += kink_cutoff(params, j, t, grid, default_rho(params)) * params.velocities[j - 1]
    return cross


def quad_form_single(params: MultikinkParams, t: float, h: np.ndarray,
                     grid: np.ndarray) -> float:
    """Quadratic form of the linearized flow around one moving kink (K=1):
    1/2 int (h_dot^2 + 2 v h_dot h_x + h_x^2 + V h^2)."""
    if params.K != 1:
        raise ConfigError("single-kink quadratic form requires K = 1")
    return _quad_form(h, grid_spacing(grid), AnsatzLevel(params, t, grid).V, params.velocities[0])


def quad_form_multi(params: MultikinkParams, t: float, h: np.ndarray,
                    grid: np.ndarray) -> float:
    """Quadratic form around the multikink with cutoff-localized cross terms:
    1/2 int (h_dot^2 + h_x^2 + 2 sum_j chi_j v_j h_dot h_x + V h^2), the
    cutoffs chi_j at half-speed default_rho(params)."""
    return _quad_form(h, grid_spacing(grid), AnsatzLevel(params, t, grid).V,
                      _cutoff_velocity(params, t, grid))


def remove_projections(h: np.ndarray, duals: Sequence[np.ndarray], dx: float) -> np.ndarray:
    """Correct h by a combination of the duals so every pairing vanishes.

    Solves the Gram system <psi_i, psi_j> c_j = <psi_i, h> and subtracts
    sum_j c_j psi_j.
    """
    if not duals:
        return h
    gram = np.array([[inner_product(a, b, dx) for b in duals] for a in duals])
    rhs = np.array([inner_product(a, h, dx) for a in duals])
    coef = np.linalg.solve(gram, rhs)
    out = h.astype(float).copy()
    for c, psi in zip(coef, duals):
        out -= c * psi
    return out


def coercivity_sample(params: MultikinkParams, t: float, grid: np.ndarray,
                      rng: np.random.Generator, n_samples: int) -> float:
    """Smallest Rayleigh ratio q(h) / |h|^2 (energy norm) over n_samples
    random pair fields, each drawn from rng in turn and projected off the
    2K duals psi_j^0, psi_j^1 at time t. q is quad_form_single for K = 1,
    quad_form_multi otherwise."""
    if n_samples < 1:
        raise ConfigError("coercivity needs at least one sample")
    grid = np.asarray(grid, dtype=float)
    dx = grid_spacing(grid)
    level = AnsatzLevel(params, t, grid)
    modes = [level.zero_modes(j) for j in range(1, params.K + 1)]
    duals = [psi for m in modes for psi in (m.psi0, m.psi1)]
    # the h-independent terms of quad_form_single / quad_form_multi, once
    cross = params.velocities[0] if params.K == 1 else _cutoff_velocity(params, t, grid)
    ratios = []
    for _ in range(n_samples):
        h = remove_projections(random_pair_field(grid, rng), duals, dx)
        ratios.append(_quad_form(h, dx, level.V, cross) / energy_norm_sq(h, dx))
    return float(np.min(ratios))  # unlike min, np.min passes a NaN ratio on
