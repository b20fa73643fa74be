"""Static kinks and antikinks: quadrature, profiles, energies, tails.

A kink between adjacent vacua solves the first-order Bogomolny equation
dH/dx = sqrt(2 W(H)) and is tabulated on a finite grid; outside the grid
it is continued by its single-exponential tail. Each half of the table,
from the midpoint at x = 0 to one vacuum v, is integrated in the
log-distance u = log|v - H| with W written in the offset from v, so that
the step control and W keep their relative accuracy all the way to the
vacuum. Derivatives of a profile are evaluated through the Bogomolny
relation itself (d1 = +-sqrt(2W(H)), d2 = W'(H)), which keeps them exact
functions of H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import CubicSpline

from .errors import ConfigError, FitError, IntegrationError
from .numerics import capped_count, fit_log_linear, integrate_grid
from .potential import PotentialModel, VacuumTable

_TAIL_SWITCH = 1e-10  # distance to the vacuum at which integration hands over to the tail
_LOG_TAIL_SWITCH = math.log(_TAIL_SWITCH)
_QUAD = dict(epsabs=1e-13, epsrel=1e-12, limit=400)  # tolerances of every quad call


def center_value(table: VacuumTable, n: int) -> float:
    """Midpoint of the vacua n and n+1; the profile passes through it at x=0."""
    return 0.5 * (table.vacuum(n) + table.vacuum(n + 1))


def position_from_value(model: PotentialModel, table: VacuumTable, n: int, psi: float) -> float:
    """Position x at which the kink from vacuum n to n+1 attains the value psi.

    This is the quadrature int_{mid}^{psi} dy / sqrt(2 W(y)) with the midpoint
    of the two vacua as base point; it diverges logarithmically at the vacua,
    so psi must lie strictly between them.
    """
    lo, hi = table.vacuum(n), table.vacuum(n + 1)
    if not lo < psi < hi:
        raise ConfigError(f"psi={psi} is not strictly between the vacua ({lo}, {hi})")
    base = center_value(table, n)

    def integrand(y):
        return 1.0 / np.sqrt(2.0 * model(y, 0))

    val, _ = quad(integrand, base, psi, **_QUAD)
    return float(val)


def bogomolny_bound(model: PotentialModel, phi_a: float, phi_b: float) -> float:
    """Energy lower bound between two field values: int_a^b sqrt(2 W(y)) dy.

    Antisymmetric in its endpoints' order in absolute value; returns the
    signed integral so bound(a, b) = -bound(b, a).
    """
    val, _ = quad(lambda y: np.sqrt(2.0 * model(y, 0)), phi_a, phi_b, **_QUAD)
    return float(val)


def _check_labels(table: VacuumTable, n: int, n_prime: int):
    if not (0 <= n < len(table) and 0 <= n_prime < len(table)):
        raise ConfigError(f"vacuum labels ({n}, {n_prime}) outside 0..{len(table) - 1}")


def kink_energy(model: PotentialModel, table: VacuumTable, n: int, n_prime: int) -> float:
    """Rest energy of the kink/antikink between adjacent vacua n and n_prime."""
    _check_labels(table, n, n_prime)
    if abs(n - n_prime) != 1:
        raise ConfigError("kink energy requires adjacent vacua")
    lo, hi = sorted((table.vacuum(n), table.vacuum(n_prime)))
    return bogomolny_bound(model, lo, hi)


@dataclass(frozen=True)
class TailFit:
    side: str                # "left" or "right"
    fitted_rate: float
    expected_rate: float
    fit_residual: float

    def __post_init__(self):
        if self.fitted_rate <= 0:
            raise FitError("fitted tail rate must be positive")


class KinkProfile:
    """Tabulated static kink with exponential-tail continuation.

    The grid is uniform on [-X, X]; values are strictly monotone between
    the two vacua. Inside it a point x takes the piece i = floor((x + X) /
    dx) of the cubic spline through the samples, clipped to the table, and
    is evaluated by Horner's rule in u = x - x[i]; no interval search.
    Outside it the single-exponential tails continue the profile.
    """

    def __init__(self, model, table, n, n_prime, x, h):
        self.model = model
        self.table = table
        self.n = int(n)
        self.n_prime = int(n_prime)
        self.x = x
        self.h = h
        self.dx = float(x[1] - x[0])
        self.half_width = float(x[-1])
        self.orientation = 1.0 if n_prime == n + 1 else -1.0
        self.vac_left = table.vacuum(n)
        self.vac_right = table.vacuum(n_prime)
        self.mass_left = table.mass(n)
        self.mass_right = table.mass(n_prime)
        # signed tail coefficients relative to the vacuum at each end
        self._c_left = h[0] - self.vac_left
        self._c_right = h[-1] - self.vac_right
        self._spline = CubicSpline(x, h)

    def __call__(self, x):
        scalar = np.isscalar(x) or np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(x.shape, dtype=float)
        left = x < -self.half_width
        right = x > self.half_width
        core = ~(left | right)
        xc = x[core]
        # a core point lies at 0 <= t <= n - 1 knot spacings from x[0] = -X,
        # so the cast's truncation is the floor; fmin puts t = n - 1 on the
        # last piece, and NaN there too, so the cast sees no NaN and u keeps it
        t = (xc - self.x[0]) / self.dx
        i = np.fmin(t, len(self.x) - 2, out=t).astype(np.intp)
        u = xc - self.x[i]
        # the spline's piece i is c3 u^3 + c2 u^2 + c1 u + c0
        c3, c2, c1, c0 = self._spline.c
        val = c3[i]
        val *= u
        val += c2[i]
        val *= u
        val += c1[i]
        val *= u
        val += c0[i]
        out[core] = val
        out[left] = self.vac_left + self._c_left * np.exp(
            self.mass_left * (x[left] + self.half_width))
        out[right] = self.vac_right + self._c_right * np.exp(
            -self.mass_right * (x[right] - self.half_width))
        return float(out[0]) if scalar else out

    def deriv(self, x, order: int = 1):
        """Spatial derivative of the profile via the Bogomolny relations."""
        return self.deriv_at_values(self(x), order)

    def deriv_at_values(self, hval, order: int = 1):
        """deriv(x, order) from the profile values hval = self(x), for a
        caller that already holds them and need not sample the profile again."""
        if order == 1:
            w = np.maximum(self.model(hval, 0), 0.0)
            return self.orientation * np.sqrt(2.0 * w)
        if order == 2:
            return self.model(hval, 1)
        raise ConfigError(f"profile derivative order must be 1 or 2, got {order}")

    def reflected(self) -> "KinkProfile":
        """The antikink (or kink) obtained by exact reflection x -> -x."""
        return KinkProfile(self.model, self.table, self.n_prime, self.n,
                           self.x.copy(), self.h[::-1].copy())


def _integrate_half(model, start, target_vac, mass, xs):
    """The half of a kink from H(0) = start to target_vac, sampled at xs >= 0.

    Integrates the log-distance u = log|target_vac - H|, which obeys
    du/dx = -sqrt(2 W(H)) / |target_vac - H| with W taken in the offset from
    the vacuum (model.about), and returns H = target_vac -+ e^u. Near the
    vacuum u falls linearly at the rate of the mass, so RK45 steps as far
    toward either vacuum, wherever it lies. Hands over to the exponential
    tail, u falling at exactly the mass, once H is within _TAIL_SWITCH of
    the target vacuum.
    """
    w = model.about(target_vac)
    side = 1.0 if start > target_vac else -1.0  # H = target_vac + side * e^u

    def rhs(_x, u):
        d = math.exp(u[0])
        return [-math.sqrt(2.0 * max(float(w(side * d)), 0.0)) / d]

    def near_vacuum(_x, u):
        return u[0] - _LOG_TAIL_SWITCH
    near_vacuum.terminal = True
    near_vacuum.direction = -1

    sol = solve_ivp(rhs, (0.0, xs[-1]), [math.log(abs(start - target_vac))], t_eval=xs,
                    method="RK45", rtol=1e-12, atol=1e-14, events=near_vacuum,
                    dense_output=False)
    if not sol.success and sol.status != 1:
        raise IntegrationError(f"Bogomolny integration failed: {sol.message}")
    u = np.empty_like(xs)
    got = sol.y[0].size
    u[:got] = sol.y[0]
    if got < xs.size:
        x_star = sol.t_events[0][0]
        u_star = sol.y_events[0][0][0]
        u[got:] = u_star - mass * (xs[got:] - x_star)
    h = target_vac + side * np.exp(u)
    overshoot = side * (target_vac - h)
    if np.any(overshoot > 1e-9):
        raise IntegrationError("integration overshot the vacuum interval")
    return h


def kink_profile(model: PotentialModel, table: VacuumTable, n: int, n_prime: int,
                 half_width: float | None = None, dx: float = 0.01) -> KinkProfile:
    """Tabulate the kink (n -> n+1) or antikink (n+1 -> n) profile.

    Kinks are integrated from the midpoint value at x = 0 in both
    directions; antikinks are produced by exact reflection of the kink.
    """
    _check_labels(table, n, n_prime)
    if abs(n - n_prime) != 1:
        raise ConfigError("kink profiles exist only between adjacent vacua")
    if dx <= 0:
        raise ConfigError("dx must be positive")
    if n_prime == n - 1:
        return kink_profile(model, table, n_prime, n, half_width, dx).reflected()

    m_min = min(table.mass(n), table.mass(n_prime))
    if half_width is None:
        half_width = 20.0 / m_min
    if half_width <= 0:
        raise ConfigError("half_width must be positive")
    n_half = int(np.ceil(capped_count(half_width / dx, "profile samples of half_width and dx")))
    xs = dx * np.arange(n_half + 1)
    start = center_value(table, n)
    h_right = _integrate_half(model, start, table.vacuum(n_prime), table.mass(n_prime), xs)
    h_left = _integrate_half(model, start, table.vacuum(n), table.mass(n), xs)
    x = np.concatenate([-xs[::-1], xs[1:]])
    h = np.concatenate([h_left[::-1], h_right[1:]])
    # deep-tail samples may round onto the vacuum itself; only a genuine
    # excursion past the vacua is an integration failure
    lo, hi = table.vacuum(n), table.vacuum(n_prime)
    if h[0] < lo - 1e-9 or h[-1] > hi + 1e-9:
        raise IntegrationError("profile left the vacuum interval")
    return KinkProfile(model, table, n, n_prime, x, h)


def default_tail_window(profile: KinkProfile, side: str) -> tuple[float, float]:
    """Window [x_lo, x_hi] (in |x|) clear of the core but above tail underflow."""
    m = profile.mass_left if side == "left" else profile.mass_right
    x_lo = 6.0 / m
    x_hi = min(0.9 * profile.half_width, 24.0 / m)
    if x_hi <= x_lo + 4 * profile.dx:
        raise FitError("profile too narrow for a tail window")
    return (x_lo, x_hi)


def fit_tails(profile: KinkProfile):
    """Least-squares exponential rates of both tails over
    default_tail_window, a pair of positive offsets from the core; the left
    tail uses its mirror image. Returns (left_fit, right_fit).
    """
    fits = []
    for side in ("left", "right"):
        lo, hi = default_tail_window(profile, side)
        if side == "right":
            vac, expected = profile.vac_right, profile.mass_right
        else:
            lo, hi = -hi, -lo
            vac, expected = profile.vac_left, profile.mass_left
        mask = (profile.x >= lo) & (profile.x <= hi)
        xs = profile.x[mask]
        resid = np.abs(profile.h[mask] - vac)
        if xs.size < 3:
            raise FitError(f"{side} tail window contains fewer than 3 samples")
        if np.any(resid < 5e-15):
            raise FitError(f"{side} tail underflows in the requested window")
        slope, _intercept, _r2, rms = fit_log_linear(xs, resid)
        fits.append(TailFit(side=side, fitted_rate=abs(slope), expected_rate=expected,
                            fit_residual=rms))
    return tuple(fits)


def stationary_residual(model: PotentialModel, field: np.ndarray, dx: float) -> float:
    """Sup norm of d2(field)/dx2 - W'(field) over interior grid nodes."""
    field = np.asarray(field, dtype=float)
    lap = (field[2:] - 2.0 * field[1:-1] + field[:-2]) / (dx * dx)
    return float(np.max(np.abs(lap - model(field[1:-1], 1))))


def potential_energy_of_profile(profile: KinkProfile) -> float:
    """Grid quadrature of 1/2 (dH/dx)^2 + W(H), tail contributions included.

    The derivative is taken from the tabulated values (spline), so this is
    an independent check against the Bogomolny bound.
    """
    dh = profile._spline.derivative()(profile.x)
    w = profile.model(profile.h, 0)
    core = integrate_grid(0.5 * dh**2 + w, profile.dx)
    # each tail: integral of m^2 c^2 e^{+-2m(x -+ X)} of both terms
    tail = 0.5 * profile.mass_left * profile._c_left**2 \
        + 0.5 * profile.mass_right * profile._c_right**2
    return float(core + tail)
