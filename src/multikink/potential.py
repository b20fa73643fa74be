"""External potentials, their vacua and masses, and chains of vacua.

A potential must be nonnegative with isolated non-degenerate zeros; each
zero ("vacuum") carries a mass m = sqrt(W''(vacuum)) that controls the
exponential tails of the kinks connecting adjacent vacua.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from .errors import ConfigError, DegenerateVacuumError, InvalidChainError

_MAX_ORDER = 2
VACUUM_SCAN_POINTS = 20001  # find_vacua's scan of W' over the search interval
VACUUM_ZERO_TOL = 1e-9  # a minimum of W at most this is a vacuum


def _sin_minus_identity(x):
    """sin(x) - x without the cancellation of the difference for small |x|:
    its Taylor series, nested in x^2, for |x| <= 1, the difference beyond."""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    series = 1.0
    for n in range(9, 0, -1):  # -x^3/3! (1 - x^2/(4*5) (1 - x^2/(6*7) (...)))
        series = 1.0 - x2 / ((2 * n + 2) * (2 * n + 3)) * series
    return np.where(np.abs(x) <= 1.0, -x * x2 / 6.0 * series, np.sin(x) - x)


@dataclass(frozen=True)
class PotentialModel:
    """A potential W with exact derivatives up to second order.

    Built-in models carry closed-form derivatives; custom models are
    polynomials or trigonometric polynomials so every derivative order is
    exact as well. `search_interval` is the vacuum-search window.

    `about(v)` gives W near a vacuum v as a function of the offset delta,
    delta -> W(v + delta), written so that it keeps its relative accuracy as
    delta -> 0, where W(v + delta) evaluated directly cancels to O(eps).
    Each factory supplies its own form:
    - phi4: (delta (2v + delta))^2, that is (delta (2 +- delta))^2
    - phi6: (v + delta)^2 (1 - v^2 - delta (2v + delta))^2, which at the
      vacua +-1 is ((1 +- delta) delta (2 +- delta))^2 and at 0 is
      delta^2 (1 - delta^2)^2
    - sine_gordon: 2 sin^2(delta/2)
    - custom_poly: the Taylor polynomial of W about v, with its constant and
      linear coefficients set to exactly 0
    - custom_trig: each cos(k(v + delta)) and sin(k(v + delta)) by angle
      addition, with W(v) and the term delta W'(v) set to exactly 0
    """

    kind: str
    derivs: tuple[Callable, ...] = field(repr=False)
    about: Callable[[float], Callable] = field(repr=False)
    search_interval: tuple[float, float] = (-2.0, 2.0)

    def __call__(self, phi, order: int = 0):
        if not isinstance(order, (int, np.integer)) or not 0 <= order <= _MAX_ORDER:
            raise ConfigError(f"derivative order must be in 0..{_MAX_ORDER}, got {order!r}")
        return self.derivs[order](phi)

    @staticmethod
    def phi4() -> "PotentialModel":
        """W = (1 - phi^2)^2, vacua at -1 and 1."""
        return PotentialModel(
            kind="phi4",
            derivs=(
                lambda p: (1.0 - np.asarray(p) ** 2) ** 2,
                lambda p: -4.0 * np.asarray(p) * (1.0 - np.asarray(p) ** 2),
                lambda p: 12.0 * np.asarray(p) ** 2 - 4.0,
            ),
            about=lambda v: lambda d: (d * (2.0 * v + d)) ** 2,
        )

    @staticmethod
    def phi6() -> "PotentialModel":
        """W = phi^2 (1 - phi^2)^2, vacua at -1, 0, 1."""
        return PotentialModel(
            kind="phi6",
            derivs=(
                lambda p: np.asarray(p) ** 2 * (1.0 - np.asarray(p) ** 2) ** 2,
                lambda p: 2.0 * np.asarray(p) - 8.0 * np.asarray(p) ** 3 + 6.0 * np.asarray(p) ** 5,
                lambda p: 2.0 - 24.0 * np.asarray(p) ** 2 + 30.0 * np.asarray(p) ** 4,
            ),
            about=lambda v: lambda d: ((v + d) * (1.0 - v * v - d * (2.0 * v + d))) ** 2,
        )

    @staticmethod
    def sine_gordon() -> "PotentialModel":
        """W = 1 - cos(phi), vacua at 2 pi n.

        W is evaluated as 2 sin^2(phi/2), which keeps its full relative
        accuracy near every vacuum, where 1 - cos(phi) cancels.
        """
        return PotentialModel(
            kind="sine_gordon",
            derivs=(
                lambda p: 2.0 * np.sin(0.5 * np.asarray(p)) ** 2,
                lambda p: np.sin(p),
                lambda p: np.cos(p),
            ),
            about=lambda _v: lambda d: 2.0 * np.sin(0.5 * d) ** 2,
            search_interval=(-1.0, 14.0),
        )

    @staticmethod
    def custom_poly(coeffs: Sequence[float],
                    search_interval: tuple[float, float] = (-2.0, 2.0)) -> "PotentialModel":
        """W = sum_k coeffs[k] * phi^k with exact polynomial derivatives."""
        base = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))
        ds = [base]
        for _ in range(_MAX_ORDER):
            ds.append(ds[-1].deriv())

        def about(v):
            # W(v + delta) composed as a polynomial in delta: its Taylor
            # coefficients about v, of which W(v) and W'(v) are 0 at a vacuum
            taylor = base(np.polynomial.Polynomial([v, 1.0])).coef.copy()
            taylor[:2] = 0.0
            return np.polynomial.Polynomial(taylor)

        return PotentialModel(kind="custom", derivs=tuple(ds), about=about,
                              search_interval=tuple(search_interval))

    @staticmethod
    def custom_trig(cos_coeffs: Sequence[float], sin_coeffs: Sequence[float] = (),
                    search_interval: tuple[float, float] = (-1.0, 7.0)) -> "PotentialModel":
        """W = c0 + sum_{k>=1} c_k cos(k phi) + sum_{k>=1} s_k sin(k phi).

        cos_coeffs[0] is the constant term; sin_coeffs[0] (if given) pairs
        with sin(1*phi). W itself is evaluated with cos(k phi) written as
        1 - 2 sin^2(k phi/2), as sum_k c_k - 2 sum_k c_k sin^2(k phi/2) + ...,
        which does not cancel where W vanishes, so coeffs (1, -1) give the
        built-in sine-Gordon W bit for bit. About a vacuum v, angle addition
        gives W(v + delta) = -2 sum_k A_k sin^2(k delta/2)
        + sum_k B_k (sin(k delta) - k delta), with A_k = c_k cos(kv) + s_k sin(kv)
        and B_k = s_k cos(kv) - c_k sin(kv): W(v) and delta W'(v) = delta sum_k k B_k
        are the terms dropped as exactly 0.
        """
        c = np.asarray(cos_coeffs, dtype=float)
        s = np.asarray(sin_coeffs, dtype=float)
        k = np.arange(max(len(c), len(s) + 1))
        c_k = np.pad(c, (0, len(k) - len(c)))
        s_k = np.pad(s, (1, len(k) - len(s) - 1))

        def make(order):
            def f(p):
                kp = np.multiply.outer(np.asarray(p, dtype=float), k)
                # the sines and cosines themselves, not cos(k p + n pi/2), whose
                # rounded pi/2 leaves W'(0) off 0 by 6e-17
                if order == 0:
                    total = c_k.sum() - 2.0 * (np.sin(0.5 * kp) ** 2 @ c_k) + np.sin(kp) @ s_k
                elif order == 1:
                    total = np.cos(kp) @ (k * s_k) - np.sin(kp) @ (k * c_k)
                else:
                    total = -(np.cos(kp) @ (k**2 * c_k) + np.sin(kp) @ (k**2 * s_k))
                return total if total.shape else float(total)
            return f

        def about(v):
            a = c_k * np.cos(k * v) + s_k * np.sin(k * v)
            b = s_k * np.cos(k * v) - c_k * np.sin(k * v)

            def w(d):
                kd = np.multiply.outer(np.asarray(d, dtype=float), k)
                total = _sin_minus_identity(kd) @ b - 2.0 * (np.sin(0.5 * kd) ** 2 @ a)
                return total if total.shape else float(total)
            return w

        return PotentialModel(kind="custom", derivs=tuple(make(n) for n in range(_MAX_ORDER + 1)),
                              about=about, search_interval=tuple(search_interval))

    @staticmethod
    def builtin(kind: str) -> "PotentialModel":
        try:
            return {"phi4": PotentialModel.phi4,
                    "phi6": PotentialModel.phi6,
                    "sine_gordon": PotentialModel.sine_gordon}[kind]()
        except KeyError:
            raise ConfigError(f"unknown potential kind {kind!r}") from None


@dataclass(frozen=True)
class VacuumTable:
    """Vacua of a potential in increasing order with their masses."""

    model: PotentialModel
    vacua: tuple[float, ...]
    masses: tuple[float, ...]

    def __post_init__(self):
        if not all(a < b for a, b in zip(self.vacua, self.vacua[1:])):
            raise ConfigError("vacua must be strictly increasing")
        if any(m <= 0 for m in self.masses):
            raise ConfigError("all masses must be positive")

    def __len__(self):
        return len(self.vacua)

    def vacuum(self, n: int) -> float:
        return self.vacua[n]

    def mass(self, n: int) -> float:
        return self.masses[n]


@dataclass(frozen=True)
class ChainOfVacua:
    """Sequence of vacuum labels with |n_{k-1} - n_k| = 1 for every step."""

    labels: tuple[int, ...]

    @property
    def K(self) -> int:
        return len(self.labels) - 1

    def pairs(self):
        return list(zip(self.labels, self.labels[1:]))


def find_vacua(model: PotentialModel, tol: float = 1e-12) -> VacuumTable:
    """Locate all vacua of W inside model.search_interval and attach masses.

    Minima of W are bracketed by sign changes of W' on a fine scan grid and
    polished with Brent's method to tol; a minimum counts as a vacuum when
    W <= VACUUM_ZERO_TOL there. W'' <= tol there raises DegenerateVacuumError.
    One Newton step on W' with the exact W'' then takes each root from
    Brent's tol to the nearest double, such as 0, 2 pi and 4 pi exactly.
    """
    a, b = (float(end) for end in model.search_interval)
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ConfigError("vacuum search interval must be finite and increasing")
    if tol <= 0:
        raise ConfigError("tol must be positive")
    xs = np.linspace(a, b, VACUUM_SCAN_POINTS)
    w1 = np.asarray(model(xs, 1), dtype=float)
    vacua = []
    for i in np.nonzero((w1[:-1] < 0.0) & (w1[1:] >= 0.0))[0]:
        root = brentq(lambda p: float(model(p, 1)), xs[i], xs[i + 1],
                      xtol=tol, rtol=8.881784197001252e-16)
        if float(model(root, 0)) > VACUUM_ZERO_TOL:
            continue  # positive local minimum, not a vacuum
        curv = float(model(root, 2))
        if curv <= tol:
            raise DegenerateVacuumError(
                f"vacuum near {root:.6g} has W'' = {curv:.3g} <= tol")
        root -= float(model(root, 1)) / curv
        vacua.append((root, np.sqrt(float(model(root, 2)))))
    if not vacua:
        raise ConfigError(f"no vacua of {model.kind} found in [{a}, {b}]")
    vs, ms = zip(*vacua)
    return VacuumTable(model=model, vacua=tuple(vs), masses=tuple(ms))


def validate_chain(table: VacuumTable, labels: Sequence[int]) -> ChainOfVacua:
    """Check labels index the table and consecutive labels are adjacent."""
    labels = tuple(int(n) for n in labels)
    if len(labels) < 1:
        raise InvalidChainError("a chain needs at least one vacuum label")
    for n in labels:
        if not 0 <= n < len(table):
            raise InvalidChainError(f"label {n} outside vacuum table of size {len(table)}")
    for n, n2 in zip(labels, labels[1:]):
        if abs(n - n2) != 1:
            raise InvalidChainError(f"labels ({n}, {n2}) are not adjacent vacua")
    return ChainOfVacua(labels=labels)
