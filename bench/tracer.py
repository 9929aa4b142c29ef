"""Outside-in tracer: spans and counts at the package's module boundaries.

``from .geometry import tier_geometry`` binds the function a second time, in
the importing module, and callers look it up there.  So the tracer patches
every module of the package whose namespace holds the original object, not
only the defining one, and a method is patched on its class.  ``restore``
puts the originals back.  A target the package no longer defines is
reported as absent, never as zero.

Each wrapped call records a span (id, name, start, end, parent id).  Spans
stay in memory, in flat arrays, until ``write``.  A span's self time is its
duration minus its direct children's durations; calls nest on one thread,
so children never overlap.  The tracer assumes one calling thread.
"""
from __future__ import annotations

import array
import collections
import importlib
import math
import sys
import time

import numpy as np

# name -> (module, attribute path) of every wrapped function, by layer.
TARGETS = {
    "cli.main": ("leosec.cli", "main"),
    "experiments.sweep": ("leosec.experiments", "sweep"),
    "experiments.optimize_gamma": ("leosec.experiments", "optimize_gamma"),
    "experiments.validate": ("leosec.experiments", "validate"),
    "analytics.full_report": ("leosec.analytics", "full_report"),
    "analytics.availability_probability": ("leosec.analytics", "availability_probability"),
    "analytics.coverage_probability": ("leosec.analytics", "coverage_probability"),
    "analytics.secrecy_outage_probability": ("leosec.analytics", "secrecy_outage_probability"),
    "analytics.secure_probability": ("leosec.analytics", "secure_probability"),
    "analytics.interference_laplace": ("leosec.analytics", "interference_laplace"),
    "analytics.integrate": ("leosec.analytics", "integrate"),
    "geometry.tier_geometry": ("leosec.geometry", "tier_geometry"),
    "geometry.central_angle_to_distance": ("leosec.geometry", "central_angle_to_distance"),
    "geometry.contact_angle_pdf": ("leosec.geometry", "contact_angle_pdf"),
    "geometry.sample_sphere_cosines": ("leosec.geometry", "sample_sphere_cosines"),
    "geometry.sample_cap_cosines": ("leosec.geometry", "sample_cap_cosines"),
    "channel.path_gain": ("leosec.channel", "path_gain"),
    "channel.sample_fades": ("leosec.channel", "sample_fades"),
    "channel.received_power": ("leosec.channel", "received_power"),
    "config.NetworkConfig.tier_geometries": ("leosec.config", "NetworkConfig.tier_geometries"),
    "montecarlo.estimate": ("leosec.montecarlo", "estimate"),
    "montecarlo.run_trial": ("leosec.montecarlo", "run_trial"),
}

# Exact counts taken from a wrapped call's result: name -> count metric.
SIZE_COUNTS = {
    "analytics.interference_laplace": "s_points",
    "geometry.central_angle_to_distance": "points",
    "geometry.contact_angle_pdf": "points",
    "geometry.sample_sphere_cosines": "draws",
    "geometry.sample_cap_cosines": "draws",
    "channel.path_gain": "points",
    "channel.sample_fades": "draws",
}


class _Frame:
    __slots__ = ("span_id", "name", "args", "child_s", "sphere_calls")

    def __init__(self, span_id, name, args):
        self.span_id, self.name, self.args = span_id, name, args
        self.child_s = 0.0
        self.sphere_calls = 0


class Tracer:
    def __init__(self):
        # One span per wrapped call, as parallel arrays indexed by span id.
        self.span_name = array.array("H")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_parent = array.array("q")   # -1 for a root span
        self.calls = collections.Counter()
        self.total_s = collections.Counter()
        self.self_s = collections.Counter()
        self.counts = collections.Counter()
        self.absent: set[str] = set()
        self._names = list(TARGETS)
        self._stack: list[_Frame] = []
        self._patches: list[tuple] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "leosec" or n.startswith("leosec."))]
        for name, (module_name, path) in TARGETS.items():
            owner = importlib.import_module(module_name)
            *class_path, attr = path.split(".")
            for part in class_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.add(name)
                continue
            wrapped = self._wrap(name, original)
            if class_path:
                self._patch(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr, wrapped) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack
        name_index = self._names.index(name)
        size_count = SIZE_COUNTS.get(name)
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = len(self.span_name)
            frame = _Frame(span_id, name, args)
            self.span_name.append(name_index)
            self.span_parent.append(parent.span_id if parent is not None else -1)
            self.span_end.append(0.0)
            stack.append(frame)
            start = perf_counter()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                if type(e).__name__ == "QuadratureError" and name == "analytics.integrate":
                    self.counts["analytics.integrate.errors"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.span_end[span_id] = end
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame.child_s
                if parent is not None:
                    parent.child_s += duration
            if size_count is not None:
                self.counts[f"{name}.{size_count}"] += int(np.size(result))
            if name == "analytics.secure_probability" and any(
                    f.name == "experiments.optimize_gamma" for f in stack):
                self.counts["experiments.optimize_gamma.objective_evals"] += 1
            elif name == "geometry.sample_sphere_cosines":
                self._count_in_cap(result)
            elif name == "montecarlo.estimate":
                self.counts["montecarlo.trials"] += int(
                    kwargs["n_trials"] if "n_trials" in kwargs else args[1])
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_in_cap(self, cosines) -> None:
        """Satellite draws that land in their tier's visibility cap.  A trial
        draws one tier after the other, so the k-th draw inside a trial is
        tier k's."""
        trial = next((f for f in reversed(self._stack) if f.name == "montecarlo.run_trial"), None)
        if trial is None:
            return
        from leosec.geometry import max_central_angle

        cfg = trial.args[0]
        if trial.sphere_calls >= len(cfg.tiers):
            return
        tier = cfg.tiers[trial.sphere_calls]
        trial.sphere_calls += 1
        shell = cfg.earth_radius_km + tier.altitude_km
        cap_cos = math.cos(max_central_angle(cfg.theta_beam, shell, cfg.earth_radius_km))
        self.counts["montecarlo.sat_draws"] += int(np.size(cosines))
        self.counts["montecarlo.sat_draws_in_cap"] += int(np.count_nonzero(cosines >= cap_cos))

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float | None]:
        """Per-layer metrics; None marks a target the package lacks."""
        out: dict[str, float | None] = {}
        for name in TARGETS:
            absent = name in self.absent
            out[f"{name}.calls"] = None if absent else self.calls[name]
            out[f"{name}.s"] = None if absent else self.total_s[name]
            out[f"{name}.self_s"] = None if absent else self.self_s[name]
        for name, kind in SIZE_COUNTS.items():
            out[f"{name}.{kind}"] = None if name in self.absent else self.counts[f"{name}.{kind}"]
        c = self.counts
        optimizes = self.calls["experiments.optimize_gamma"]
        out["experiments.optimize_gamma.objective_evals"] = (
            None if {"experiments.optimize_gamma", "analytics.secure_probability"} & self.absent
            else c["experiments.optimize_gamma.objective_evals"] / optimizes if optimizes else 0)
        out["analytics.integrate.errors"] = (
            None if "analytics.integrate" in self.absent else c["analytics.integrate.errors"])
        trials = c["montecarlo.trials"]
        draws = sum(c[f"{n}.draws"] for n in ("geometry.sample_sphere_cosines",
                                             "geometry.sample_cap_cosines",
                                             "channel.sample_fades"))
        out["montecarlo.draws_per_trial"] = (
            None if "montecarlo.estimate" in self.absent else draws / trials if trials else 0)
        sat = c["montecarlo.sat_draws"]
        out["montecarlo.sat_draw_in_cap_ratio"] = (
            None if {"montecarlo.run_trial", "geometry.sample_sphere_cosines"} & self.absent
            else c["montecarlo.sat_draws_in_cap"] / sat if sat else 0)
        out["trace.spans"] = len(self.span_start)
        return out

    def write(self, path) -> None:
        """Spans as tab-separated lines; times in seconds from the first
        span's start, parent -1 for a root span."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            for i, (k, start, end, parent) in enumerate(zip(
                    self.span_name, self.span_start, self.span_end, self.span_parent)):
                fh.write(f"{i}\t{self._names[k]}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\n")
