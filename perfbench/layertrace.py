"""Per-layer spans and counters, recorded from outside the library.

``Tracer.install`` replaces every public function of each ``gwtheta`` module
with a timed wrapper, in its own module and wherever another module holds a
reference to it (``gwtheta.simulator.step_pmf``, the package namespace, ...).
A few private hooks are wrapped for counts only: ``EnvSequence.value``,
``environment._check_index`` and the two coefficient engines of ``series``.
``uninstall`` puts every original back.

A layer's self time is the time inside its spans minus the time inside the
spans they call directly.  Count-only hooks open no span, so their time stays
with the span that called them: ``analytics.self_s`` includes the
``environment`` lookups of the constants pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("environment", "analytics", "series", "simulator", "classifier",
          "harness", "cli")
_PMF_BUILDERS = {"step_pmf", "population_pmf", "pmf_from_theta_pgf"}


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.max_cutoff = 0
        self.sampler_build_s = 0.0
        self.functions = defaultdict(lambda: [0, 0.0])   # calls, total s
        self._stack = []          # [layer, child seconds] per open span
        self._reached = None      # (source, cutoff) seen in this ensemble
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import gwtheta
        import gwtheta.environment as env
        import gwtheta.series as series
        modules = [importlib.import_module(f"gwtheta.{name}")
                   for name in LAYERS]
        holders = modules + [gwtheta]
        for layer, mod in zip(LAYERS, modules):
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                if inspect.isgeneratorfunction(fn):
                    wrapped = self._generator(layer, name, fn)
                else:
                    wrapped = self._span(layer, name, fn)
                for holder in holders:
                    if vars(holder).get(name) is fn:
                        self._set(holder, name, wrapped)
        self._set(env.EnvSequence, "value",
                  self._count(env.EnvSequence.value,
                              "environment.value_calls"))
        self._set(env, "_check_index",
                  self._count(env._check_index, "environment.checks"))
        self._set(series, "_coeffs_theta",
                  self._coeffs(series._coeffs_theta, theta_arg=True))
        self._set(series, "_coeffs_theta_zero",
                  self._coeffs(series._coeffs_theta_zero, theta_arg=False))

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._undo):
            setattr(holder, name, original)
        self._undo.clear()

    def _set(self, holder, name, value) -> None:
        self._undo.append((holder, name, vars(holder)[name]))
        setattr(holder, name, value)

    # -- wrappers -----------------------------------------------------------

    def _count(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _coeffs(self, fn, theta_arg: bool):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            J = args[-1]
            counts["series.coeffs_computed"] += J + 1
            if theta_arg:
                counts["series.recurrence_ops"] += J * J // 2
            return fn(*args)
        return counted

    def _generator(self, layer, name, fn):
        """Generators are counted, not timed: their work runs inside the
        caller's span as the caller consumes them."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[f"{layer}.calls"] += 1
            if name == "constants_iter":
                bound = inspect.signature(fn).bind(*args, **kwargs)
                counts["analytics.generations_walked"] += bound.arguments[
                    "up_to"]
            return fn(*args, **kwargs)
        return counted

    def _span(self, layer, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            outer_reached = self._reached
            if name == "run_ensemble":
                self._reached = set()
            result = error = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                error = err
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.self_s[layer] += dt - frame[1]
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += dt
                if layer == "series" and parent == "simulator":
                    self.sampler_build_s += dt
                stats = self.functions[f"{layer}.{name}"]
                stats[0] += 1
                stats[1] += dt
                self._on_return(layer, name, args, kwargs, result, error)
                self._reached = outer_reached
        return timed

    def _on_return(self, layer, name, args, kwargs, result, error) -> None:
        counts = self.counts
        counts[f"{layer}.calls"] += 1
        if layer == "series":
            pmf = result if error is None else getattr(error, "partial", None)
            if pmf is not None and hasattr(pmf, "cutoff"):
                self.max_cutoff = max(self.max_cutoff, pmf.cutoff)
            if name in _PMF_BUILDERS:
                counts["series.pmf_builds"] += 1
            elif name == "extend_pmf":
                counts["series.extend_calls"] += 1
                base = args[0]
                if (self._reached is not None and pmf is not None
                        and pmf.cutoff > base.cutoff):
                    key = (base.source, pmf.cutoff)
                    if key in self._reached:
                        counts["series.extend_redundant"] += 1
                    self._reached.add(key)
        elif layer == "simulator" and error is None:
            if name == "run_ensemble":
                counts["simulator.replicates"] += result.replicates
                counts["simulator.truncated"] += result.truncated_count
                counts["simulator.cutoff_exceeded"] += \
                    result.error_counts.get("CutoffExceeded", 0)
            elif name == "simulate_trajectory":
                counts["simulator.trajectories"] += 1
                counts["simulator.truncated"] += int(result.truncated)

    # -- report -------------------------------------------------------------

    def per_round(self, rounds: int) -> dict:
        """Per-layer metrics averaged over the traced rounds (max_cutoff is
        the largest cutoff seen)."""
        c = self.counts
        sim_work = c["simulator.replicates"] + c["simulator.trajectories"]
        sim_self = self.self_s["simulator"]
        values = {
            "environment.value_calls": c["environment.value_calls"],
            "environment.checks": c["environment.checks"],
            "analytics.calls": c["analytics.calls"],
            "analytics.generations_walked": c["analytics.generations_walked"],
            "analytics.self_s": self.self_s["analytics"],
            "series.pmf_builds": c["series.pmf_builds"],
            "series.extend_calls": c["series.extend_calls"],
            "series.coeffs_computed": c["series.coeffs_computed"],
            "series.recurrence_ops": c["series.recurrence_ops"],
            "series.extend_redundant": c["series.extend_redundant"],
            "series.self_s": self.self_s["series"],
            "simulator.replicates": c["simulator.replicates"],
            "simulator.trajectories": c["simulator.trajectories"],
            "simulator.self_s": sim_self,
            "simulator.sampler_build_s": self.sampler_build_s,
            "simulator.truncated": c["simulator.truncated"],
            "simulator.cutoff_exceeded": c["simulator.cutoff_exceeded"],
            "classifier.calls": c["classifier.calls"],
            "classifier.self_s": self.self_s["classifier"],
        }
        out = {key: val / rounds for key, val in values.items()}
        out["series.max_cutoff"] = self.max_cutoff
        out["simulator.replicates_per_self_s"] = (
            sim_work / sim_self if sim_self > 0.0 else 0.0)
        return out
