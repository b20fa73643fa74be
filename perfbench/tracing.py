"""Span recording from outside the program, and the per-layer metrics
derived from the spans.

The tracer wraps functions of the multikink modules in place: every name
in every multikink module that is bound to a wrapped function is rebound
to the wrapper, so callers that imported the function by name (construct
imports multikink, _leapfrog and integrate_grid; lorentz imports
fixed_point) are traced too. Methods are wrapped on their class. Spans
(name, start, end, parent, run id, meta) stay in memory until the job ends.

Pure Python on purpose: the tests import this module without numpy.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import re
import statistics
import sys
import time
from pathlib import Path

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Public functions of these modules are wrapped automatically; the entries
# below add methods and the private hot spots named in the ROADMAP. Names
# that a later version of the program drops are skipped.
MODULES = ("potential", "kink", "ansatz", "evolve", "construct", "lorentz",
           "spectral", "numerics")
EXTRA = {
    "potential": ("PotentialModel.__call__",),
    "kink": ("KinkProfile.__call__", "KinkProfile.deriv"),
    "evolve": ("SpaceTimeSlab.save", "SpaceTimeSlab.load", "_leapfrog"),
    "construct": ("_ansatz_pieces",),
}

# Spans subtracted from a backward solve to give its stepping-only time:
# every ansatz, kink and potential span, and the construct-module copies of
# the ansatz evaluator.
EVALUATOR_LAYERS = ("ansatz", "kink", "potential")
EVALUATOR_NAMES = ("construct._ansatz_pieces", "construct.kink_values")

# Per-layer metric -> (unit, workloads it is read on), from the notes'
# table. A traced run reports each metric from the requested workload when
# it is listed, else from the first listed workload; None means every
# workload.
C, D, E = "construct-sg2", "derivative-sg2", "evolve-sg2"
LAYER_METRICS = {
    "kink.profile_s": ("s", None),
    "kink.evals": ("count", (C, D)),
    "kink.eval_s": ("s", (C, D)),
    "potential.calls": ("count", (C, D)),
    "potential.s": ("s", (C, D)),
    "ansatz.multikink_calls": ("count", (E, C)),
    "ansatz.multikink_s": ("s", (E, C)),
    "ansatz.linearization_potential_calls": ("count", (E,)),
    "ansatz.linearization_potential_s": ("s", (E,)),
    "ansatz.coercivity_s": ("s", (E,)),
    "construct.solves": ("count", (C,)),
    "construct.useful_solve_frac": ("1", (C,)),
    "construct.steps": ("count", (C, D)),
    "construct.solve_s": ("s", (C, D)),
    "construct.solve_self_s": ("s", (C, D)),
    "construct.gridpoint_steps_per_s": ("1/s", (C, D)),
    "construct.nonlinearity_calls": ("count", (C,)),
    "construct.nonlinearity_s": ("s", (C,)),
    "construct.start_time_s": ("s", (C,)),
    "construct.truncation_s": ("s", (C,)),
    "construct.iterate_s": ("s", (C,)),
    "construct.iterations": ("count", (C,)),
    "construct.residual_s": ("s", (C,)),
    "construct.param_derivative_s": ("s", (D,)),
    "evolve.nonlinear_steps": ("count", (E,)),
    "evolve.nonlinear_step_us": ("us", (E,)),
    "evolve.zero_mode_drift_s": ("s", (E,)),
    "evolve.energy_s": ("s", (E,)),
    "evolve.slab_save_s": ("s", (E, C)),
    "evolve.slab_load_s": ("s", (E,)),
    "evolve.slab_bytes": ("B", (E, C)),
    "lorentz.boost_field_s": ("s", (E,)),
    "spectral.s": ("s", (E,)),
    "numerics.integrate_calls": ("count", (C, E)),
}
# reported by the traced run next to the layer metrics
OVERHEAD_METRIC = ("trace.overhead_s", "s")


def source_workload(metric: str, requested: str) -> str:
    listed = LAYER_METRICS[metric][1]
    if listed is None or requested in listed:
        return requested
    return listed[0]


# ---- interval arithmetic ---------------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a = max(a, reach)
        b = min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the time its child spans cover."""
    return (end - start) - covered(child_intervals, start, end)


# ---- recording -------------------------------------------------------

def _steps_of_solve(fn):
    sig = inspect.signature(fn)

    def meta(args, kwargs, _result):
        bound = sig.bind(*args, **kwargs)
        config = bound.arguments["config"]
        t0, t1 = bound.arguments["t_start"], bound.arguments["t_final"]
        dt, _every = config.plan(t0, t1)
        return {"steps": int(round((t1 - t0) / dt)), "n_grid": len(config.grid)}
    return meta


def _steps_of_nonlinear(fn):
    sig = inspect.signature(fn)

    def meta(args, kwargs, _result):
        bound = sig.bind(*args, **kwargs).arguments
        state, config = bound["state"], bound["config"]
        return {"steps": int(round((config.t_end - state.t) / config.dt))}
    return meta


def _bytes_written(fn):
    sig = inspect.signature(fn)

    def meta(args, kwargs, _result):
        directory = Path(sig.bind(*args, **kwargs).arguments["directory"])
        return {"bytes": sum(p.stat().st_size for p in directory.iterdir())}
    return meta


def _iterations(_fn):
    def meta(_args, _kwargs, result):
        return {"iterations": result[1].iterations}
    return meta


META = {
    "construct.solve_backward": _steps_of_solve,
    "evolve.evolve_nonlinear": _steps_of_nonlinear,
    "evolve.SpaceTimeSlab.save": _bytes_written,
    "construct.fixed_point": _iterations,
}


class Tracer:
    """In-memory span recorder. Each span is [name, start, end, parent,
    run_id, meta]; parent is the index of the enclosing span or -1."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._clock = clock
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, meta=None):
        spans, stack, clock, run_id = self.spans, self._stack, self._clock, self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if meta is not None:
                span[5] = meta(args, kwargs, result)
            return result
        return traced

    def install(self, package: str = "multikink"):
        """Wrap the targets of every module in MODULES of the package."""
        mods = [m for n, m in sys.modules.items()
                if n == package or n.startswith(package + ".")]
        for short in MODULES:
            mod = sys.modules[f"{package}.{short}"]
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    self._replace(mods, f"{short}.{attr}", fn)
            for target in EXTRA.get(short, ()):
                owner_name, _, attr = target.rpartition(".")
                if owner_name:
                    cls = getattr(mod, owner_name, None)
                    raw = vars(cls).get(attr) if cls is not None else None
                    if raw is None:
                        continue
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    wrapped = self.wrap(f"{short}.{target}", fn,
                                        self._meta(f"{short}.{target}", fn))
                    self._undo.append((cls, attr, raw))
                    setattr(cls, attr, staticmethod(wrapped)
                            if isinstance(raw, staticmethod) else wrapped)
                elif hasattr(mod, attr):
                    self._replace(mods, f"{short}.{attr}", getattr(mod, attr))

    def _meta(self, name, fn):
        factory = META.get(name)
        return factory(fn) if factory else None

    def _replace(self, mods, name, fn):
        wrapped = self.wrap(name, fn, self._meta(name, fn))
        for m in mods:
            for attr, val in list(vars(m).items()):
                if val is fn:
                    self._undo.append((m, attr, fn))
                    setattr(m, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# ---- analysis --------------------------------------------------------

class SpanIndex:
    """Parent/child structure of one job's spans (recorded in entry order,
    so a span's descendants follow it contiguously)."""

    def __init__(self, spans):
        self.spans = spans
        self.starts = [s[1] for s in spans]
        self.children: list[list[int]] = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.children[s[3]].append(i)

    def named(self, *names):
        return [i for i, s in enumerate(self.spans) if s[0] in names]

    def duration(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def outermost(self, pred):
        """Spans matching pred with no matching ancestor."""
        inside = [False] * len(self.spans)
        out = []
        for i, s in enumerate(self.spans):
            p = s[3]
            above = p >= 0 and (inside[p] or pred(self.spans[p]))
            inside[i] = above
            if pred(s) and not above:
                out.append(i)
        return out

    def total(self, *names):
        return sum(self.duration(i) for i in self.outermost(lambda s: s[0] in names))

    def self_time(self, i):
        s = self.spans[i]
        return self_time(s[1], s[2], [self.spans[c][1:3] for c in self.children[i]])

    def descendants(self, i):
        end = bisect.bisect_left(self.starts, self.spans[i][2], lo=i + 1)
        return range(i + 1, end)

    def time_less(self, i, pred):
        """Duration of span i less the time covered by its outermost
        descendants matching pred."""
        picked = []
        for d in self.descendants(i):
            if not pred(self.spans[d]):
                continue
            p = self.spans[d][3]
            while p != i and not pred(self.spans[p]):
                p = self.spans[p][3]
            if p == i:
                picked.append(self.spans[d][1:3])
        s = self.spans[i]
        return self_time(s[1], s[2], picked)

    def ancestor_named(self, i, name):
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False


def _median(values):
    return statistics.median(values) if values else 0.0


def _is_evaluator(span):
    return span[0].split(".", 1)[0] in EVALUATOR_LAYERS or span[0] in EVALUATOR_NAMES


def layer_metrics(spans, job_start: int = 0) -> dict:
    """Every metric of LAYER_METRICS from one job's spans. Spans before
    job_start were recorded during set-up and count only for
    kink.profile_s; the job starts with an empty span stack."""
    profile_s = SpanIndex(spans).total("kink.kink_profile")
    spans = [[n, a, b, p - job_start if p >= 0 else -1, r, m]
             for n, a, b, p, r, m in spans[job_start:]]
    ix = SpanIndex(spans)
    evals = ix.named("kink.KinkProfile.__call__")
    kink_methods = ix.named("kink.KinkProfile.__call__", "kink.KinkProfile.deriv")
    potential = ix.named("potential.PotentialModel.__call__")
    solves = ix.outermost(lambda s: s[0] == "construct.solve_backward")
    solve_meta = [spans[i][5] for i in solves]
    solve_time = sum(ix.duration(i) for i in solves)
    steps = sum(m["steps"] for m in solve_meta)
    gridpoint_steps = sum(m["steps"] * m["n_grid"] for m in solve_meta)
    probes = [i for i in solves if ix.ancestor_named(i, "construct.choose_final_time")]
    fixed = ix.outermost(lambda s: s[0] == "construct.fixed_point")
    searches = ("construct.choose_final_time", "construct.default_start_time",
                "construct.fitted_forcing_rate", "construct.measure_residual",
                "construct.decay_fit")
    nonlinear = ix.named("evolve.evolve_nonlinear")
    nl_steps = sum(spans[i][5]["steps"] for i in nonlinear)
    saves = ix.named("evolve.SpaceTimeSlab.save")
    energies = ix.named("evolve.energy")
    return {
        "kink.profile_s": profile_s,
        "kink.evals": len(evals),
        "kink.eval_s": sum(ix.self_time(i) for i in kink_methods),
        "potential.calls": len(potential),
        "potential.s": sum(ix.self_time(i) for i in potential),
        "ansatz.multikink_calls": len(ix.named("ansatz.multikink")),
        "ansatz.multikink_s": ix.total("ansatz.multikink"),
        "ansatz.linearization_potential_calls":
            len(ix.named("ansatz.linearization_potential")),
        "ansatz.linearization_potential_s": ix.total("ansatz.linearization_potential"),
        "ansatz.coercivity_s": ix.total("ansatz.zero_modes", "ansatz.remove_projections",
                                        "ansatz.quad_form_multi", "ansatz.quad_form_single",
                                        "ansatz.energy_norm_sq"),
        "construct.solves": len(solves),
        "construct.useful_solve_frac":
            (len(solves) - len(probes)) / len(solves) if solves else 0.0,
        "construct.steps": steps,
        "construct.solve_s": _median([ix.duration(i) for i in solves]),
        "construct.solve_self_s": _median([ix.time_less(i, _is_evaluator) for i in solves]),
        "construct.gridpoint_steps_per_s":
            gridpoint_steps / solve_time if solve_time > 0 else 0.0,
        "construct.nonlinearity_calls": len(ix.named("construct.nonlinearity")),
        "construct.nonlinearity_s": ix.total("construct.nonlinearity"),
        "construct.start_time_s": ix.total("construct.default_start_time",
                                           "construct.fitted_forcing_rate"),
        "construct.truncation_s": ix.total("construct.choose_final_time"),
        "construct.iterate_s": sum(ix.time_less(i, lambda s: s[0] in searches)
                                   for i in fixed),
        "construct.iterations": sum(spans[i][5]["iterations"] for i in fixed),
        "construct.residual_s": ix.total("construct.measure_residual",
                                         "construct.decay_fit"),
        "construct.param_derivative_s": _median(
            [ix.duration(i) for i in ix.named("construct.param_derivative")]),
        "evolve.nonlinear_steps": nl_steps,
        "evolve.nonlinear_step_us":
            1e6 * sum(ix.duration(i) for i in nonlinear) / nl_steps if nl_steps else 0.0,
        "evolve.zero_mode_drift_s": ix.total("evolve.zero_mode_drift"),
        "evolve.energy_s": _median([ix.duration(i) for i in energies]),
        "evolve.slab_save_s": sum(ix.duration(i) for i in saves),
        "evolve.slab_load_s": ix.total("evolve.SpaceTimeSlab.load"),
        "evolve.slab_bytes": sum(spans[i][5]["bytes"] for i in saves),
        "lorentz.boost_field_s": ix.total("lorentz.boost_field"),
        "spectral.s": ix.total("spectral.build_operator", "spectral.low_spectrum",
                               "spectral.coercivity_constant"),
        "numerics.integrate_calls": len(ix.named("numerics.integrate_grid")),
    }
