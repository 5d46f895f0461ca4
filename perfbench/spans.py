"""Spans and counters for the benchmark's traced runs.

The tracer wraps the package's public functions at every name through
which callers find them: ``reduction.chebyshev_center`` and
``cli.chebyshev_center`` are the same function as
``centers.chebyshev_center`` and get the same wrapper.  Methods are wrapped
on their class.  Each call records one span (name, start, end, parent) in
flat arrays kept in memory; counters are taken from the call's arguments
and result.  Nothing inside ``cocyclelab`` is edited.

A layer's time is self time: the span's duration minus that of its child
spans.  Every wrapped function belongs to exactly one layer metric, so the
layer times of a round sum to the time covered by its root spans, and that
plus ``trace.remainder_s`` is the traced wall time of the round.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import time
from array import array

import numpy as np

PACKAGE = "cocyclelab"

# Layer time metric -> the functions whose self time it sums, written as
# "module:qualified name" inside the package.  "cli:cmd_*" stands for every
# subcommand handler.
LAYERS = {
    "centers.chebyshev_s": ["centers:chebyshev_center"],
    "centers.lemma_s": [
        "centers:check_center_continuity",
        "centers:check_diameter_shrink",
        "centers:check_ball_intersection_radius",
    ],
    "spd.scan_s": ["spd:spd_distances_from"],
    "spd.geodesic_s": ["spd:spd_geodesic"],
    "spd.pairwise_s": ["spd:pairwise_spd_distances"],
    "spd.eigen_s": ["spd:sym_eigen"],
    "spd.distance_s": ["spd:spd_distance"],
    "reduction.sample_s": ["reduction:sample_fibers"],
    "reduction.section_s": ["reduction:section_from_centers"],
    "reduction.conjugate_s": [
        "reduction:reduce_to_orthogonal",
        "reduction:reduce_to_conformal",
    ],
    "cocycles.generators_s": ["cocycles:MatrixCocycle.generators_along"],
    "cocycles.skew_s": [
        "cocycles:twisted_birkhoff",
        "cocycles:boundedness_probe",
        "cocycles:compose_along_orbit",
        "cocycles:recurrence_isometries",
        "cocycles:semigroup_closure_check",
    ],
    "circle.orbit_s": [
        "circle:RotationBase.orbit",
        "circle:ParabolicBase.orbit",
        "circle:minimality_probe",
        "circle:return_times",
    ],
    "solvers.solve_s": [
        "solvers:fourier_solve",
        "solvers:residual",
        "solvers:orbit_reconstruction",
        "solvers:cyclotomic_rhs",
        "solvers:cyclotomic_solve",
        "solvers:cyclotomic_verify",
        "solvers:shift_solve_unilateral",
        "solvers:shift_solve_bilateral",
        "solvers:uniqueness_gap",
        "solvers:oscillation_profile",
        "solvers:oscillation_estimate",
    ],
    "trigpoly.eval_s": ["trigpoly:TrigPoly.__call__"],
    "presets.build_s": [
        "presets:golden_rotation",
        "presets:conjugacy_direction",
        "presets:coboundary_cocycle",
        "presets:conformal_coboundary_cocycle",
        "presets:scalar_orthogonal_cocycle",
        "presets:rotation_translation_cocycle",
        "presets:coboundary_isometry_cocycle",
        "presets:jump_cascade",
        "presets:shift_single_mode",
        "presets:shift_geometric",
        "presets:shift_compact_section",
        "presets:rho_from_descriptor",
        "presets:matrix_cocycle_from_descriptor",
        "reduction:construct_coboundary",
    ],
    "cli.self_s": ["cli:main", "cli:cmd_*"],
}


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _center(counts, args, kwargs, report):
    counts["centers.chebyshev_calls"] += 1
    counts["centers.iterations"] += report.iterations
    counts["centers.iterations_max"] = max(
        counts["centers.iterations_max"], report.iterations
    )


def _recurrence_steps(counts, args, kwargs, sample):
    counts["cocycles.skew_steps"] += sample[-1][0] if sample else 0


def _adder(metric: str, amount):
    def count(counts, args, kwargs, result):
        counts[metric] += amount(args, kwargs, result)
    return count


def _calls(metric: str):
    return _adder(metric, lambda args, kwargs, result: 1)


# Counters by wrapped function.  Each reads the call's arguments or result.
COUNTERS = {
    "centers:chebyshev_center": _center,
    "spd:spd_distances_from": _adder(
        "spd.scan_points", lambda a, k, r: len(r)),
    "spd:spd_geodesic": _calls("spd.geodesic_calls"),
    "spd:pairwise_spd_distances": _adder(
        "spd.pairwise_pairs", lambda a, k, r: len(r)),
    "spd:sym_eigen": _calls("spd.eigen_calls"),
    "spd:spd_distance": _calls("spd.distance_calls"),
    "reduction:sample_fibers": _adder(
        "reduction.orbit_steps", lambda a, k, r: r.steps),
    "cocycles:twisted_birkhoff": _adder(
        "cocycles.skew_steps", lambda a, k, r: _arg(a, k, 2, "k")),
    "cocycles:compose_along_orbit": _adder(
        "cocycles.skew_steps", lambda a, k, r: _arg(a, k, 2, "k")),
    "cocycles:boundedness_probe": _adder(
        "cocycles.skew_steps", lambda a, k, r: _arg(a, k, 3, "n")),
    "cocycles:recurrence_isometries": _recurrence_steps,
    "circle:RotationBase.orbit": _adder(
        "circle.orbit_points", lambda a, k, r: len(r)),
    "circle:ParabolicBase.orbit": _adder(
        "circle.orbit_points", lambda a, k, r: len(r)),
    "trigpoly:TrigPoly.__call__": _adder(
        "trigpoly.points", lambda a, k, r: int(np.size(_arg(a, k, 1, "theta")))),
}
for _name in LAYERS["solvers.solve_s"]:
    COUNTERS[_name] = _calls("solvers.calls")

COUNT_METRICS = (
    "centers.chebyshev_calls", "centers.iterations", "centers.iterations_max",
    "spd.scan_points", "spd.geodesic_calls", "spd.pairwise_pairs",
    "spd.eigen_calls", "spd.distance_calls", "reduction.orbit_steps",
    "cocycles.skew_steps", "circle.orbit_points", "solvers.calls",
    "trigpoly.points",
)


def package_modules():
    prefix = PACKAGE + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(prefix))]


class Patches:
    """Replaces a function at every name it is looked up by, and restores it."""

    def __init__(self):
        self._saved = []

    def replace(self, sites, wrapper) -> None:
        """Put ``wrapper`` at every site ``lookup_sites`` returned."""
        for owner, name, fn in sites:
            self._saved.append((owner, name, fn))
            setattr(owner, name, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, name, fn = self._saved.pop()
            setattr(owner, name, fn)


def _expand(target: str) -> list[str]:
    module_name, _, qualname = target.partition(":")
    if not qualname.endswith("*"):
        return [target]
    module = importlib.import_module(f"{PACKAGE}.{module_name}")
    prefix = qualname[:-1]
    return [f"{module_name}:{name}" for name in sorted(vars(module))
            if name.startswith(prefix) and callable(getattr(module, name))]


def lookup_sites(target: str):
    """(owner, attribute, function) for every name callers reach ``target`` by."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    fn = vars(owner)[attr]
    if path:  # a method: callers find it through its class
        return [(owner, attr, fn)]
    return [(module, name, fn) for module in package_modules()
            for name, value in vars(module).items() if value is fn]


class Tracer:
    """Records spans and counters while installed; sums them per round."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self._stack: list[int] = []
        self._patches = Patches()
        self._plan = None
        self.counts: dict = {}
        self._mark = 0

    def install(self) -> None:
        if self._plan is None:
            self._plan = [
                (target, layer, lookup_sites(target))
                for layer, patterns in LAYERS.items()
                for pattern in patterns for target in _expand(pattern)
            ]
        for target, layer, sites in self._plan:
            self._patches.replace(sites, self._wrap(target, layer, sites[0][2]))

    def uninstall(self) -> None:
        self._patches.restore()

    def _wrap(self, target: str, layer: str, fn):
        name_id = self._ids.get(target)
        if name_id is None:
            name_id = self._ids[target] = len(self.names)
            self.names.append(target)
            self.layer_of.append(layer)
        counter = COUNTERS.get(target)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(name_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return traced

    def begin_round(self) -> None:
        self._mark = len(self.start)
        self.counts = dict.fromkeys(COUNT_METRICS, 0)

    def end_round(self, wall_s: float) -> dict:
        """Layer self times and counters of the spans since ``begin_round``."""
        lo = self._mark
        # Slices of an array.array are copies, so no buffer stays exported.
        start = np.frombuffer(self.start[lo:], dtype=float)
        end = np.frombuffer(self.end[lo:], dtype=float)
        parent = np.frombuffer(self.parent[lo:], dtype=np.int64)
        name = np.frombuffer(self.name[lo:], dtype=np.int64)
        dur = end - start
        nested = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[nested] - lo, dur[nested])
        self_time = dur - child
        by_name = np.bincount(name, weights=self_time, minlength=len(self.names))
        out = dict.fromkeys(LAYERS, 0.0)
        for name_id, seconds in enumerate(by_name):
            out[self.layer_of[name_id]] += float(seconds)
        out.update(self.counts)
        covered = float(dur[~nested].sum())
        out["trace.wall_s"] = wall_s
        out["trace.remainder_s"] = wall_s - covered
        out["trace.spans"] = len(dur)
        return out

    def write(self, path, origin: float) -> None:
        """Write every span as CSV: index, parent, name, start and end in
        seconds after ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "parent", "name", "start_s", "end_s"])
            for i in range(len(self.start)):
                writer.writerow([
                    i, self.parent[i], self.names[self.name[i]],
                    f"{self.start[i] - origin:.9f}", f"{self.end[i] - origin:.9f}",
                ])
