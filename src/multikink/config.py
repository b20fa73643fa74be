"""Flat sectioned key=value experiment configuration (INI syntax).

Every value is a scalar or a comma-separated list; one level of sections,
no nesting. The resolved configuration (defaults filled in) is embedded in
every JSON output for reproducibility.
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path

from .errors import ConfigError
from .potential import PotentialModel, find_vacua


def _number(section: str, key: str, text: str) -> float:
    """text as a finite float; a ConfigError naming [section] key otherwise."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: expected a finite number, got {text!r}")
    return value


def _ints(text: str) -> list[int]:
    items = [s.strip() for s in text.split(",") if s.strip()]
    try:
        return [int(s) for s in items]
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated list of integers, got {text!r}") from exc


class ExperimentConfig:
    """Parsed configuration file with typed accessors and a resolved dump."""

    def __init__(self, path):
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
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

    def has(self, section: str, key: str | None = None) -> bool:
        if key is None:
            return self._parser.has_section(section)
        return self._parser.has_option(section, key)

    def _raw(self, section, key, required):
        if not self._parser.has_option(section, key):
            if required:
                raise ConfigError(f"missing required config key [{section}] {key}")
            return None
        return self._parser.get(section, key)

    def get_str(self, section, key, default=None, required=False):
        raw = self._raw(section, key, required)
        return self._record(section, key, default if raw is None else raw.strip())

    def get_float(self, section, key, default=None, required=False):
        raw = self._raw(section, key, required)
        if raw is None:
            return self._record(section, key, default)
        return self._record(section, key, _number(section, key, raw))

    def get_auto_float(self, section, key, default=None):
        """A float or the word 'auto' (returned as None)."""
        raw = self._raw(section, key, False)
        if raw is None or raw.strip().lower() == "auto":
            self._record(section, key, "auto" if raw is not None else default)
            return default
        return self._record(section, key, _number(section, key, raw))

    def get_int(self, section, key, default=None, required=False):
        raw = self._raw(section, key, required)
        if raw is None:
            return self._record(section, key, default)
        try:
            return self._record(section, key, int(raw))
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}") from exc

    def get_bool(self, section, key, default=False):
        raw = self._raw(section, key, False)
        if raw is None:
            return self._record(section, key, default)
        val = raw.strip().lower()
        if val in ("1", "true", "yes", "on"):
            return self._record(section, key, True)
        if val in ("0", "false", "no", "off"):
            return self._record(section, key, False)
        raise ConfigError(f"[{section}] {key}: expected a boolean, got {raw!r}")

    def get_floats(self, section, key, default=None, required=False):
        raw = self._raw(section, key, required)
        if raw is None:
            return self._record(section, key, default)
        items = [s.strip() for s in raw.split(",") if s.strip()]
        return self._record(section, key, [_number(section, key, s) for s in items])

    def get_ints(self, section, key, default=None, required=False):
        raw = self._raw(section, key, required)
        if raw is None:
            return self._record(section, key, default)
        return self._record(section, key, _ints(raw))

    # ---- domain object builders -------------------------------------

    def build_model(self) -> PotentialModel:
        kind = self.get_str("potential", "kind", required=True)
        interval = self.get_floats("potential", "search_interval")
        if interval is not None and len(interval) != 2:
            raise ConfigError(f"[potential] search_interval needs two values, got {len(interval)}")
        if kind in ("phi4", "phi6", "sine_gordon"):
            model = PotentialModel.builtin(kind)
            if interval is not None:
                model = PotentialModel(kind=model.kind, derivs=model.derivs,
                                       search_interval=tuple(interval))
            return model
        if kind == "custom":
            form = self.get_str("potential", "form", default="poly")
            coeffs = self.get_floats("potential", "coeffs", required=True)
            if not coeffs:
                raise ConfigError("[potential] coeffs needs at least one value")
            si = tuple(interval) if interval is not None else (-2.0, 2.0)
            if form == "poly":
                return PotentialModel.custom_poly(coeffs, search_interval=si)
            if form == "trig":
                sin_coeffs = self.get_floats("potential", "sin_coeffs", default=[])
                return PotentialModel.custom_trig(coeffs, sin_coeffs, search_interval=si)
            raise ConfigError(f"[potential] form must be 'poly' or 'trig', got {form!r}")
        raise ConfigError(f"[potential] kind must be phi4, phi6, sine_gordon or custom, got {kind!r}")

    def build_table(self, model: PotentialModel):
        tol = self.get_float("potential", "vacuum_tol", default=1e-12)
        return find_vacua(model, tol=tol)

    def build_params(self, model, table):
        from .ansatz import make_params
        labels = self.get_ints("chain", "labels", required=True)
        velocities = self.get_floats("multikink", "velocities", default=[])
        shifts = self.get_floats("multikink", "shifts", default=[])
        if len(velocities) != len(labels) - 1 or len(shifts) != len(labels) - 1:
            raise ConfigError(
                f"chain with {len(labels)} labels needs {len(labels) - 1} velocities and shifts; "
                f"got {len(velocities)} and {len(shifts)}")
        dx = self.get_float("multikink", "profile_dx", default=0.01)
        half_width = self.get_float("multikink", "half_width", default=None)
        return make_params(model, table, labels, velocities, shifts,
                           dx=dx, half_width=half_width)

    def build_solver_config(self):
        from .construct import SolverConfig
        return SolverConfig(
            x_min=self.get_float("grid", "x_min", required=True),
            x_max=self.get_float("grid", "x_max", required=True),
            dx=self.get_float("grid", "dx", default=0.02),
            cfl=self.get_float("grid", "cfl", default=0.9),
            snapshot_dt=self.get_float("construct", "snapshot_dt", default=0.25))

    def build_boost(self):
        from .lorentz import BoostSpec
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
