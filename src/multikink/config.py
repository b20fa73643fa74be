"""Flat sectioned key=value experiment configuration (INI syntax).

Every value is a scalar or a comma-separated list; one level of sections,
no nesting. The resolved configuration (defaults filled in) is embedded in
every JSON output for reproducibility.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from pathlib import Path

from .ansatz import make_params
from .construct import SolverConfig
from .errors import ConfigError
from .evolve import MAX_COURANT
from .lorentz import BoostSpec
from .potential import PotentialModel, find_vacua


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _number(text: str) -> float:
    """text as a finite float; ValueError otherwise."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _items(text: str) -> list[str]:
    return [s.strip() for s in text.split(",") if s.strip()]


class ExperimentConfig:
    """Parsed configuration file with typed accessors and a resolved dump."""

    def __init__(self, path):
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        # values are read raw: a % in one is a character, not an interpolation
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
        try:
            parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"config parse error: {exc}") from exc
        self._parser = parser
        self.path = str(path)
        self.resolved: dict[str, dict] = {}

    def _record(self, section: str, key: str, value):
        self.resolved.setdefault(section, {})[key] = value
        return value

    def has(self, section: str) -> bool:
        return self._parser.has_section(section)

    def _get(self, section, key, parse, expected, default=None, required=False):
        """[section] key parsed by parse, or default when the file does not
        set it, recorded either way; a ConfigError naming [section] key when
        a required key is missing or parse raises."""
        if not self._parser.has_option(section, key):
            if required:
                raise ConfigError(f"missing required config key [{section}] {key}")
            return self._record(section, key, default)
        raw = self._parser.get(section, key)
        try:
            value = parse(raw.strip())
        except (KeyError, ValueError):
            raise ConfigError(f"[{section}] {key}: expected {expected}, got {raw!r}") from None
        return self._record(section, key, value)

    def get_str(self, section, key, default=None, required=False):
        return self._get(section, key, str, "a string", default, required)

    def get_float(self, section, key, default=None, required=False):
        return self._get(section, key, _number, "a finite number", default, required)

    def get_auto_float(self, section, key, default=None):
        """A float or the word 'auto' (recorded as 'auto', returned as default)."""
        value = self._get(section, key,
                          lambda text: "auto" if text.lower() == "auto" else _number(text),
                          "a finite number or 'auto'", default)
        return default if value == "auto" else value

    def get_int(self, section, key, default=None, required=False):
        return self._get(section, key, int, "an integer", default, required)

    def get_bool(self, section, key, default=False):
        return self._get(section, key, lambda text: _BOOLEANS[text.lower()], "a boolean",
                         default)

    def get_floats(self, section, key, default=None, required=False):
        return self._get(section, key, lambda text: [_number(s) for s in _items(text)],
                         "a comma-separated list of finite numbers", default, required)

    def get_ints(self, section, key, default=None, required=False):
        return self._get(section, key, lambda text: [int(s) for s in _items(text)],
                         "a comma-separated list of integers", default, required)

    # ---- keys read by more than one command or builder ----------------

    def _grid_extent(self) -> dict:
        """SolverConfig's x_min, x_max and dx from [grid]."""
        return {"x_min": self.get_float("grid", "x_min", required=True),
                "x_max": self.get_float("grid", "x_max", required=True),
                "dx": self.get_float("grid", "dx", default=0.02)}

    def build_grid(self):
        """The spatial grid of [grid] x_min, x_max and dx."""
        return SolverConfig(**self._grid_extent()).grid

    def cfl(self) -> float:
        """[grid] cfl, the Courant ratio dt/dx of every leapfrog run, in (0, MAX_COURANT]."""
        cfl = self.get_float("grid", "cfl", default=0.9)
        if not 0 < cfl <= MAX_COURANT:
            raise ConfigError(f"[grid] cfl must lie in (0, {MAX_COURANT:.4g}], got {cfl}")
        return cfl

    def t_start(self) -> float:
        return self.get_float("grid", "t_start", default=0.0)

    def t_end(self) -> float:
        """[grid] t_end, by default t_start + 10."""
        return self.get_float("grid", "t_end", default=self.t_start() + 10.0)

    def kink_labels(self) -> tuple[int, int]:
        """[kink] n and n_prime, the vacua of the one kink of kink and spectrum."""
        return (self.get_int("kink", "n", default=0),
                self.get_int("kink", "n_prime", default=1))

    def profile_settings(self) -> dict:
        """The tabulation keywords dx and half_width of kink profiles."""
        return {"dx": self.get_float("multikink", "profile_dx", default=0.01),
                "half_width": self.get_float("multikink", "half_width")}

    def fixed_point_settings(self) -> dict:
        """fixed_point's T, delta, t_final (None for 'auto'), tol and max_iter."""
        return {"T": self.get_auto_float("construct", "T"),
                "delta": self.get_auto_float("construct", "delta"),
                "t_final": self.get_auto_float("construct", "t_final"),
                "tol": self.get_float("construct", "tol", default=1e-8),
                "max_iter": self.get_int("construct", "max_iter", default=25)}

    # ---- domain object builders -------------------------------------

    def build_model(self) -> PotentialModel:
        """The potential of [potential]; search_interval replaces the form's
        own vacuum-search window only when the file sets it."""
        kind = self.get_str("potential", "kind", required=True)
        interval = self.get_floats("potential", "search_interval")
        if interval is not None and len(interval) != 2:
            raise ConfigError(f"[potential] search_interval needs two values, got {len(interval)}")
        given = {} if interval is None else {"search_interval": tuple(interval)}
        if kind in ("phi4", "phi6", "sine_gordon"):
            return dataclasses.replace(PotentialModel.builtin(kind), **given)
        if kind == "custom":
            form = self.get_str("potential", "form", default="poly")
            coeffs = self.get_floats("potential", "coeffs", required=True)
            if not coeffs:
                raise ConfigError("[potential] coeffs needs at least one value")
            if form == "poly":
                return PotentialModel.custom_poly(coeffs, **given)
            if form == "trig":
                sin_coeffs = self.get_floats("potential", "sin_coeffs", default=[])
                return PotentialModel.custom_trig(coeffs, sin_coeffs, **given)
            raise ConfigError(f"[potential] form must be 'poly' or 'trig', got {form!r}")
        raise ConfigError(f"[potential] kind must be phi4, phi6, sine_gordon or custom, got {kind!r}")

    def build_table(self, model: PotentialModel):
        tol = self.get_float("potential", "vacuum_tol", default=1e-12)
        return find_vacua(model, tol=tol)

    def build_params(self, model, table):
        labels = self.get_ints("chain", "labels", required=True)
        velocities = self.get_floats("multikink", "velocities", default=[])
        shifts = self.get_floats("multikink", "shifts", default=[])
        if len(velocities) != len(labels) - 1 or len(shifts) != len(labels) - 1:
            raise ConfigError(
                f"chain with {len(labels)} labels needs {len(labels) - 1} velocities and shifts; "
                f"got {len(velocities)} and {len(shifts)}")
        return make_params(model, table, labels, velocities, shifts,
                           **self.profile_settings())

    def build_solver_config(self):
        return SolverConfig(**self._grid_extent(), cfl=self.cfl(),
                            snapshot_dt=self.get_float("construct", "snapshot_dt", default=0.25))

    def build_boost(self):
        if not self.has("boost"):
            raise ConfigError("missing required config section [boost]")
        return BoostSpec(v=self.get_float("boost", "v", required=True),
                         t0=self.get_float("boost", "t0", default=0.0),
                         x0=self.get_float("boost", "x0", default=0.0))

    def seed(self, override=None) -> int:
        if override is not None:
            seed = self._record("run", "seed", int(override))
        else:
            seed = self.get_int("run", "seed", default=0)
        if seed < 0:
            raise ConfigError(f"seed must be non-negative, got {seed}")
        return seed
