"""Spans and counts at the public functions of each swarm_eq module.

The tracer wraps functions from outside the program: it replaces each
function at every module attribute that refers to it, so callers that
imported it by name (``swarm_eq.cli.run``, ``swarm_eq.cli.target_verdict_grid``)
reach the wrapper too.  A function that no longer exists is skipped and its
layer reported as absent.  Spans and counts are kept in memory while the run
lasts and written out once at its end.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import Counter

import numpy as np

import reference

PACKAGE = "swarm_eq"

#: Layer name -> functions timed under it, as (module, attribute path).
LAYERS = {
    "particles.forces": [("particles", "forces")],
    "particles.step": [("particles", "step")],
    "particles.run": [("particles", "run")],
    "particles.particle_energy": [("particles", "particle_energy")],
    "particles.max_speed": [("particles", "max_speed")],
    "particles.init": [("particles", "init_random_disk"), ("particles", "init_from_equilibrium")],
    "particles.morphology": [("particles", "morphology")],
    "sweeps.target_verdict_grid": [("sweeps", "target_verdict_grid")],
    "sweeps.region_code_grid": [("sweeps", "region_code_grid")],
    "output.write_csv": [("output", "write_csv")],
    "output.svg": [
        ("output", f"SvgPlot.{name}")
        for name in ("__init__", "polyline", "circle", "cell", "text", "axes", "to_string", "save")
    ],
    "cli.main": [("cli", "main")],
    "linear_stability.stability_report": [("linear_stability", "stability_report")],
    "linear_stability.mode_spectrum": [("linear_stability", "mode_spectrum")],
    "linear_stability.build_Q_from_integrals": [("linear_stability", "build_Q_from_integrals")],
    "equilibria.build_equilibrium": [("equilibria", "build_equilibrium")],
    "variational.lambda_profile": [("variational", "lambda_profile")],
    "variational.minimizer_verdict": [("variational", "minimizer_verdict")],
    "weak_cross.d_of_ab_ratio": [("weak_cross", "d_of_ab_ratio")],
    "weak_cross.ab_ratio_of_d": [("weak_cross", "ab_ratio_of_d")],
    "boundary_integrals.oracles": [
        ("boundary_integrals", name)
        for name in ("oracle_log_contour", "oracle_rational_contour", "oracle_attraction", "oracle_repulsion")
    ],
    "quadrature": [
        ("quadrature", name)
        for name in ("disk_kernel_integral", "periodic_trapezoid", "quad_complex", "disk_repulsion_batch")
    ],
}


def _pair_count(bound):
    state = bound.arguments["state"]
    n = len(state.pos1) + len(state.pos2)
    return {"pairs": n * n}


def _model_time(bound):
    return {"model_time": float(bound.arguments["t_end"]) - float(bound.arguments["state"].t)}


def _file_bytes(bound):
    return {"bytes_written": os.path.getsize(bound.arguments["path"])}


def _cubic_solves(bound):
    """Existing grid points times modes 2..m_max, from the sweep's own inputs."""
    args = bound.arguments
    kind = str(getattr(args["kind"], "value", args["kind"]))
    A, B, M = np.asarray(args["A"]), np.asarray(args["B"]), float(args["M"])
    existing = reference.curve_distance(A, B, M) > 1e-9 * np.maximum(1.0, np.maximum(A, B))
    existing &= np.isin(reference.region(A, B, M), sorted(reference.EXISTENCE[kind]))
    return {"cubic_solves": int(existing.sum()) * (int(args["m_max"]) - 1)}


#: Counts taken from a call's arguments once it returns.
COUNT_HOOKS = {
    ("particles", "forces"): _pair_count,
    ("particles", "run"): _model_time,
    ("output", "write_csv"): _file_bytes,
    ("output", "SvgPlot.save"): _file_bytes,
    ("sweeps", "target_verdict_grid"): _cubic_solves,
}

#: Spans whose kernel passes are diagnostics rather than integration stages.
DIAGNOSTIC_PARENTS = ("particles.max_speed",)


class Tracer:
    """Wraps the LAYERS functions; records spans and counts while ``active``."""

    def __init__(self):
        self.active = False
        self.run_id = ""
        self.spans = []  # (span id, name, start, end, parent span id, run id)
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.absent = set()
        self.broken_counts = set()
        self._stack = []  # [span id, name, start, time covered by children, parent id]
        self._restore = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer, targets in LAYERS.items():
            found = False
            for mod_name, path in targets:
                owner = sys.modules.get(f"{PACKAGE}.{mod_name}")
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part, None)
                original = getattr(owner, parts[-1], None) if owner is not None else None
                if not callable(original):
                    continue
                found = True
                wrapper = self._wrap(layer, original, COUNT_HOOKS.get((mod_name, path)))
                if len(parts) > 1:
                    self._patch(owner, parts[-1], wrapper)
                    continue
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
            if not found:
                self.absent.add(layer)

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- spans --------------------------------------------------------------

    def _wrap(self, layer, original, hook):
        tracer = self
        signature = inspect.signature(original) if hook else None

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            entry = tracer._open(layer)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(entry)
                if hook is not None:
                    tracer._count(hook, signature, args, kwargs)

        wrapper.__name__ = getattr(original, "__name__", layer)
        wrapper.__wrapped__ = original
        return wrapper

    def _open(self, layer):
        parent = self._stack[-1][0] if self._stack else None
        if layer == "particles.forces" and any(e[1] in DIAGNOSTIC_PARENTS for e in self._stack):
            self.counts["diagnostic_forces"] += 1
        entry = [len(self.spans), layer, time.perf_counter(), 0.0, parent]
        self.spans.append(None)
        self._stack.append(entry)
        return entry

    def _close(self, entry):
        end = time.perf_counter()
        span_id, layer, start, covered, parent = entry
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        self.self_s[layer] += duration - covered
        self.calls[layer] += 1
        self.spans[span_id] = (span_id, layer, start, end, parent, self.run_id)

    def _count(self, hook, signature, args, kwargs):
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            increments = hook(bound)
        except (TypeError, KeyError, AttributeError, OSError, ValueError):
            self.broken_counts.add(hook.__name__)
            return
        self.counts.update(increments)

    def write(self, path):
        """Write every span and count recorded so far as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "run_id"],
                    "spans": self.spans,
                    "self_s": self.self_s,
                    "calls": self.calls,
                    "counts": self.counts,
                    "absent": sorted(self.absent),
                },
                fh,
            )


def layer_metrics(tracer, rounds):
    """Per-layer metrics per traced round; names of absent layers are left out."""
    out = {}
    per = 1.0 / rounds
    for layer in LAYERS:
        if layer in tracer.absent:
            continue
        out[f"{layer}.s"] = tracer.self_s[layer] * per
        out[f"{layer}.calls"] = tracer.calls[layer] * per

    def derived(name, needs, value):
        if not any(n in tracer.absent for n in needs):
            out[name] = value()

    forces = tracer.calls["particles.forces"]
    passes = forces + tracer.calls["particles.particle_energy"]
    if "_pair_count" not in tracer.broken_counts:
        derived("particles.pair_evals", ["particles.forces"], lambda: tracer.counts["pairs"] * per)
        derived(
            "particles.pair_rate",
            ["particles.forces"],
            lambda: tracer.counts["pairs"] / tracer.self_s["particles.forces"] if forces else 0.0,
        )
    if "_model_time" not in tracer.broken_counts:
        derived(
            "particles.force_evals_per_model_time",
            ["particles.forces", "particles.run"],
            lambda: forces / tracer.counts["model_time"] if tracer.counts["model_time"] else 0.0,
        )
    derived(
        "particles.stage_share",
        ["particles.forces", "particles.particle_energy", "particles.max_speed"],
        lambda: (forces - tracer.counts["diagnostic_forces"]) / passes if passes else 0.0,
    )
    if "_cubic_solves" not in tracer.broken_counts:
        derived("sweeps.cubic_solves", ["sweeps.target_verdict_grid"], lambda: tracer.counts["cubic_solves"] * per)
    if "_file_bytes" not in tracer.broken_counts:
        derived("output.bytes_written", ["output.write_csv"], lambda: tracer.counts["bytes_written"] * per)
    return out
