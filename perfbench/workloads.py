"""The benchmark's workloads: inputs made from a seed, the operations that
run the program on them, and the checks of what the operations return.

An operation has three steps.  ``run`` calls the program and is the only
step that is timed.  ``collect`` reads what the call left behind (the
CLI's JSON and CSV files, or the objects a library call returned) and
fingerprints it.  ``check`` compares it with the references in
``oracles``, which never call the program.  A round runs every operation
once; rounds of one run repeat the same inputs, so an output whose
fingerprint matches one already checked gets that check's verdict.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from cocyclelab import cli, errors, presets, reduction

import oracles
from spans import Patches, lookup_sites

# Tolerances of the checks.  Containment and Jung's bound compare distances
# the program's centre search produced; the 1e-9 slack is far below the
# smallest margin seen (1.4e-3, at 64 Pos(2) cells).
GEOMETRY_TOL = 1e-9
# The fibre started on phi* stays on it up to rounding of the orbit product.
FIBRE_TOL = 1e-8
# The program's reported distance and the Cholesky/eigvalsh distance.
DISTANCE_TOL = 1e-9
ORACLE_DEFECT_TOL = 1e-9
# Closed forms of the paper battery, relative to max(1, |value|), and the
# residuals the program reports for its solutions.
CLOSED_FORM_TOL = 1e-8
RESIDUAL_TOL = 1e-10
# The paper battery's outputs are exact up to rounding, so its accuracy
# metrics are reported as max(floor, worst deviation): they read the floor
# while rounding stays below it and rise once a result loses accuracy,
# before the check above fails.
SECTION_FLOOR = 1e-10
DEFECT_FLOOR = 1e-12

SQRT2 = float(np.sqrt(2.0))


@dataclass
class Output:
    ran: bool                   # the program finished without an error
    data: dict
    fingerprint: str


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    section_error: float = 0.0
    defect: float = 0.0


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    collect: Callable[[object], Output]
    check: Callable[[dict], Verdict]


@dataclass
class Workload:
    ops: list
    section_floor: float = 0.0
    defect_floor: float = 0.0


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _rel(a, b) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


# -- the CLI --------------------------------------------------------------------

class CliOp:
    """One ``cocyclelab`` subcommand, run in this process through ``cli.main``."""

    def __init__(self, name: str, seed: int, out: Path, argv: list, files: list,
                 check: Callable[[dict], Verdict], capture=None):
        self.name = name
        self.out = out / name
        self.argv = ["--seed", str(seed), "--out", str(self.out)] + argv
        self.files = files
        self.check = check
        self.capture = capture

    def run(self) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def collect(self, code: int) -> Output:
        kept = self.capture.take() if self.capture is not None else {}
        if code != 0:
            return Output(False, {"exit": code}, f"exit {code}")
        raw = {name: (self.out / name).read_bytes()
               for name in ["summary.json"] + self.files}
        data = {"summary": json.loads(raw["summary.json"])}
        for name in self.files:
            rows = list(csv.reader(io.StringIO(raw[name].decode())))
            data[name] = rows[1:]
        data.update(kept)
        arrays = [kept[k] for k in sorted(kept) if isinstance(kept[k], np.ndarray)]
        points = kept.get("cell_points", [])
        return Output(True, data, _digest(*raw.values(), *arrays, *points))

    def op(self) -> Op:
        return Op(self.name, self.run, self.collect, self.check)


class Capture:
    """Keeps the fibre buckets and reduction results the CLI computes but
    does not write out, by wrapping the functions that return them."""

    def __init__(self):
        self._kept: dict = {}
        self._patches = Patches()
        for target in ("reduction:sample_fibers", "cli:reduce_to_orthogonal",
                       "cli:reduce_to_conformal"):
            sites = lookup_sites(target)
            self._patches.replace(sites, self._keeper(sites[0][2]))

    def _keeper(self, fn):
        kept = self._kept

        def keep(*args, **kwargs):
            result = fn(*args, **kwargs)
            if isinstance(result, reduction.FiberBuckets):
                kept["cell_points"] = result.cell_points
            else:
                kept["values"] = np.asarray(result.section.values)
                kept["thetas"] = np.asarray(result.section.thetas)
            return result

        return keep

    def take(self) -> dict:
        out = dict(self._kept)
        self._kept.clear()
        return out


# -- checks of a reduction ------------------------------------------------------

def check_centres(data: dict, phi_star, x0: float, steps: int, cells: int,
                  verdict: Verdict) -> np.ndarray:
    """Checks every cell of a centre-based section against phi*; returns
    the per-cell distances d(phi_i, phi*(theta_i))."""
    problems = verdict.problems
    values, thetas, cell_points = data["values"], data["thetas"], data["cell_points"]
    xs = oracles.rotation_orbit(x0, steps)
    groups = oracles.cell_groups(xs, cells)
    exact = phi_star(thetas)
    dists = oracles.spd_distances(exact, values)
    if len(cell_points) != cells or len(values) != cells:
        problems.append(f"{len(cell_points)} buckets and {len(values)} values for {cells} cells")
        return dists
    for i, (pts, idx) in enumerate(zip(cell_points, groups)):
        if len(pts) != len(idx):
            problems.append(f"cell {i}: {len(pts)} samples, orbit puts {len(idx)} there")
            continue
        drift = float(np.max(oracles.spd_distances(pts, phi_star(xs[idx]))))
        if drift > FIBRE_TOL:
            problems.append(f"cell {i}: samples {drift:.3e} off phi*")
        reach = float(np.max(oracles.spd_distances(exact[i], pts)))
        if dists[i] > reach + GEOMETRY_TOL:
            problems.append(
                f"cell {i}: centre {dists[i]:.6e} from phi*(theta), samples within {reach:.6e}")
        radius = float(np.max(oracles.spd_distances(values[i], pts)))
        diam = oracles.spd_pairwise_max(pts)
        if not diam / 2.0 - GEOMETRY_TOL <= radius <= diam / SQRT2 + GEOMETRY_TOL:
            problems.append(
                f"cell {i}: radius {radius:.6e} outside [diam/2, diam/sqrt2], diam {diam:.6e}")
    return dists


def _check_reported_distance(reported: float, mine: float, verdict: Verdict):
    gap = abs(float(reported) - mine)
    if gap > DISTANCE_TOL:
        verdict.problems.append(
            f"oracle_max_distance differs from the independent distance by {gap:.3e}")


def _check_oracle_defect(defect: float) -> Verdict:
    verdict = Verdict()
    if not defect <= ORACLE_DEFECT_TOL:
        verdict.problems.append(f"exact-section defect {defect:.3e} > {ORACLE_DEFECT_TOL:g}")
    return verdict


def _exit_problem(data: dict) -> Verdict | None:
    if "exit" in data:
        return Verdict([f"exit code {data['exit']}"])
    return None


# -- reduce-pos2 ----------------------------------------------------------------

POS2_CELLS = 128
POS2_STEPS = 300 * POS2_CELLS
POS2_TOL = 3e-5


def reduce_pos2(seed: int, out: Path) -> Workload:
    """The CLI's orthogonal and det-normalised reductions on Pos(2), plus
    their exact-section paths.  The seed picks the orbit's start x0."""
    x0 = float(np.random.default_rng(seed).uniform(0.05, 0.95))
    capture = Capture()
    sections = {
        "coboundary": oracles.ExpSection(presets.conjugacy_direction(0.7)),
        "conformal-coboundary": oracles.ExpSection(
            presets.conjugacy_direction(0.7, traceless=True)),
    }
    ops = []
    for preset, phi_star in sections.items():
        def check(data, phi_star=phi_star):
            verdict = _exit_problem(data) or Verdict()
            if verdict.problems:
                return verdict
            summary = data["summary"]
            errs = check_centres(data, phi_star, x0, POS2_STEPS, POS2_CELLS, verdict)
            # The per-cell oracle_distance column is not compared: the
            # program's 2x2 closed form loses digits when the centre lies
            # within ~1e-7 of phi* (see CHANGES.md).  The maximum is
            # ~4.5e-4, where both distances agree to ~1e-12.
            _check_reported_distance(summary["oracle_max_distance"], errs.max(), verdict)
            verdict.section_error = float(errs.max())
            verdict.defect = float(summary["defect"])
            return verdict

        argv = ["reduce", "--preset", preset, "--cells", str(POS2_CELLS),
                "--steps", str(POS2_STEPS), "--x0", repr(x0), "--tol", repr(POS2_TOL),
                "--threads", "1"]
        ops.append(CliOp(preset, seed, out, argv, ["reduction_cells.csv"],
                         check, capture).op())
        ops.append(CliOp(f"{preset}-oracle", seed, out,
                         ["reduce", "--preset", preset, "--oracle"],
                         ["reduction_cells.csv"], _oracle_cli_check, capture).op())
    return Workload(ops)


def _oracle_cli_check(data: dict) -> Verdict:
    return _exit_problem(data) or _check_oracle_defect(float(data["summary"]["defect"]))


# -- reduce-pos3 ----------------------------------------------------------------

POS3_CELLS = 2
POS3_STEPS = 50 * POS3_CELLS
POS3_TOL = 0.1
POS3_S0 = np.array([[0.5, 0.2, -0.1], [0.2, -0.3, 0.25], [-0.1, 0.25, 0.1]])
POS3_S0 = POS3_S0 * (0.7 / np.linalg.norm(POS3_S0))
POS3_AXIS = np.array([1.0, 2.0, 2.0]) / 3.0


def pos3_cocycle():
    """A(x) = B(x + alpha) Q(x) B(x)^{-1} with B(x) = exp(sin(2 pi x) S0)
    and Q(x) the rotation by 2 pi x about a fixed axis."""
    def b_batch(xs):
        return oracles.sym_expm(POS3_S0, np.sin(2.0 * np.pi * np.asarray(xs, float)))

    def q_gen(x):
        return oracles.rotation_about(POS3_AXIS, 2.0 * np.pi * x)

    return reduction.construct_coboundary(
        lambda x: b_batch([x])[0], q_gen, presets.golden_rotation(), dim=3,
        b_batch=b_batch, q_batch=lambda xs: np.array([q_gen(x) for x in xs]),
    )


def reduce_pos3(seed: int, out: Path) -> Workload:
    """The orthogonal pipeline of ``cocyclelab reduce`` on a 3x3 coboundary,
    called through the library because the CLI presets are 2x2.  The
    seed picks the orbit's start x0."""
    x0 = float(np.random.default_rng(seed).uniform(0.05, 0.95))
    c = pos3_cocycle()
    phi_star = oracles.ExpSection(POS3_S0)

    def run_centres():
        try:
            fb = reduction.sample_fibers(c, x0, c.oracle_section(x0), POS3_STEPS, POS3_CELLS)
            got = reduction.section_from_centers(fb, center_tol=POS3_TOL)
            result = reduction.reduce_to_orthogonal(c, got.section)
            oracle = reduction.oracle_section_distance(result.section, c.oracle_section)
        except errors.CocycleLabError as exc:
            return exc
        return fb, result, oracle

    def collect_centres(raw) -> Output:
        if isinstance(raw, Exception):
            return Output(False, {"exit": repr(raw)}, repr(raw))
        fb, result, oracle = raw
        data = {
            "cell_points": fb.cell_points,
            "values": np.asarray(result.section.values),
            "thetas": np.asarray(result.section.thetas),
            "defect": result.defect,
            "oracle_max_distance": oracle,
        }
        return Output(True, data, _digest(data["values"], data["thetas"],
                                          *fb.cell_points,
                                          np.array([result.defect, oracle])))

    def check_centres_op(data) -> Verdict:
        verdict = _exit_problem(data) or Verdict()
        if verdict.problems:
            return verdict
        errs = check_centres(data, phi_star, x0, POS3_STEPS, POS3_CELLS, verdict)
        _check_reported_distance(data["oracle_max_distance"], errs.max(), verdict)
        verdict.section_error = float(errs.max())
        verdict.defect = float(data["defect"])
        return verdict

    def run_oracle():
        try:
            return reduction.reduce_to_orthogonal(c, c.oracle_section)
        except errors.CocycleLabError as exc:
            return exc

    def collect_oracle(raw) -> Output:
        if isinstance(raw, Exception):
            return Output(False, {"exit": repr(raw)}, repr(raw))
        return Output(True, {"defect": raw.defect},
                      _digest(raw.per_cell_defect, raw.b_values))

    def check_oracle(data) -> Verdict:
        return _exit_problem(data) or _check_oracle_defect(float(data["defect"]))

    return Workload([
        Op("coboundary3", run_centres, collect_centres, check_centres_op),
        Op("coboundary3-oracle", run_oracle, collect_oracle, check_oracle),
    ])


# -- paper-battery --------------------------------------------------------------

BATTERY_STEPS = 20_000
LEMMA_ARGS = ["lemmas", "--sets", "100", "--spd-sets", "20", "--samples", "2000"]
# The lemma batteries keep the CLI's default seed.  The cost of their 240
# random centre problems is heavy-tailed (one took 4,815 iterations), so
# drawing new ones per seed moved the round time by 29 % between seeds.
LEMMA_SEED = 7
SHIFT_RATIO = 0.5   # presets.shift_geometric defaults
SHIFT_LEVELS = 12
SHIFT_WINDOW = 24


def paper_battery(seed: int, out: Path) -> Workload:
    """Every CLI subcommand but ``reduce`` and ``center``.  The seed is the
    CLI's ``--seed`` (the coboundary and recurrence polynomials) and picks
    the Birkhoff start point and the twist beta."""
    rng = np.random.default_rng(seed)
    x0 = float(rng.uniform(0.05, 0.95))
    beta = float(rng.uniform(0.3, 2.5))
    # cmd_birkhoff draws its coboundary section first from default_rng(seed).
    section = oracles.random_trig_coeffs(4, np.random.default_rng(seed))

    def cli_op(name, argv, files, check, cli_seed=seed):
        return CliOp(name, cli_seed, out, argv, files, check).op()

    def check_lemmas(data):
        verdict = _exit_problem(data) or Verdict()
        if verdict.problems:
            return verdict
        s = data["summary"]
        ratio = s["diameter_shrink"]["tetrahedron_ratio"]
        if abs(ratio - 1.0 / SQRT2) > 1e-9:
            verdict.problems.append(f"tetrahedron ratio {ratio!r} is not 1/sqrt2")
        flags = [s["continuity"]["all_pass"], s["diameter_shrink"]["random_all_pass"]]
        flags += [b["passed"] for b in s["ball_intersection"]]
        if not all(flags):
            verdict.problems.append("a lemma battery reports a failure")
        return verdict

    def check_birkhoff(exact_norms):
        def check(data):
            verdict = _exit_problem(data) or Verdict()
            if verdict.problems:
                return verdict
            rows = data["birkhoff.csv"]
            ks = np.array([int(r[0]) for r in rows])
            norms = np.array([float(r[1]) for r in rows])
            dev = _rel(norms, exact_norms(ks))
            if dev > CLOSED_FORM_TOL:
                verdict.problems.append(f"Birkhoff norms {dev:.3e} off the closed form")
            verdict.section_error = dev
            return verdict
        return check

    def check_solution(exact):
        def check(data):
            verdict = _exit_problem(data) or Verdict()
            if verdict.problems:
                return verdict
            rows = np.array(data["solution.csv"], dtype=float)
            got = rows[:, 1] + 1j * rows[:, 2]
            dev = _rel(got, exact(rows[:, 0]))
            res = float(data["summary"]["residual"])
            if dev > CLOSED_FORM_TOL:
                verdict.problems.append(f"solution {dev:.3e} off the closed form")
            if not res <= RESIDUAL_TOL:
                verdict.problems.append(f"reported residual {res:.3e}")
            verdict.section_error = dev
            verdict.defect = res
            return verdict
        return check

    def check_shift(indices):
        exact = oracles.geometric_shift_coords(indices, SHIFT_RATIO, SHIFT_LEVELS)

        def check(data):
            verdict = _exit_problem(data) or Verdict()
            if verdict.problems:
                return verdict
            s = data["summary"]
            dev = max(_rel(s["norm"], np.linalg.norm(exact)),
                      _rel(s["coordinate_bound"], np.max(np.abs(exact))))
            bound = 1.0 / (1.0 - SHIFT_RATIO)
            if dev > CLOSED_FORM_TOL:
                verdict.problems.append(f"shift coordinates {dev:.3e} off the closed form")
            if s["coordinate_bound"] > bound:
                verdict.problems.append(f"coordinate bound {s['coordinate_bound']!r} > {bound}")
            if not s["invariance_residual"] <= RESIDUAL_TOL:
                verdict.problems.append(f"invariance residual {s['invariance_residual']:.3e}")
            verdict.section_error = dev
            verdict.defect = float(s["invariance_residual"])
            return verdict
        return check

    def check_flags(*paths, expect_count=None):
        def check(data):
            verdict = _exit_problem(data) or Verdict()
            if verdict.problems:
                return verdict
            s = data["summary"]
            for path in paths:
                if s.get(path) is not True:
                    verdict.problems.append(f"{path} is {s.get(path)!r}")
            if expect_count is not None and not s.get(expect_count, 0) > 0:
                verdict.problems.append(f"{expect_count} is {s.get(expect_count)!r}")
            return verdict
        return check

    def check_demo(data):
        verdict = check_flags("orbit_bounded", "oscillation_above_floor")(data)
        if verdict.problems:
            return verdict
        # psi(x) = x mod 1 sampled on k/4096: any window around the fixed
        # point 0 holds the samples 0 and 4095/4096.
        for scale, osc in data["summary"]["oscillation"].items():
            if abs(osc - 4095.0 / 4096.0) > 1e-12:
                verdict.problems.append(f"oscillation {osc!r} at scale {scale}")
        return verdict

    birkhoff_exact = {
        "rotation-translation": lambda ks: oracles.birkhoff_rotation_norms(ks, beta),
        "coboundary": lambda ks: oracles.birkhoff_coboundary_norms(ks, x0, beta, section),
        "counterexample": lambda ks: oracles.birkhoff_cascade_norms(ks, x0),
    }
    ops = [cli_op("lemmas", LEMMA_ARGS, ["continuity.csv"], check_lemmas, LEMMA_SEED)]
    for preset, exact in birkhoff_exact.items():
        ops.append(cli_op(
            f"birkhoff-{preset}",
            ["birkhoff", "--preset", preset, "--steps", str(BATTERY_STEPS),
             "--x0", repr(x0), "--beta", repr(beta)],
            ["birkhoff.csv"], check_birkhoff(exact)))
    ops += [
        cli_op("solve-fourier", ["solve", "fourier", "--beta", repr(beta)],
               ["solution.csv"],
               check_solution(lambda t: oracles.fourier_single_mode(t, beta))),
        cli_op("solve-cyclotomic", ["solve", "cyclotomic", "--beta", repr(beta), "--q", "2"],
               ["solution.csv"],
               check_solution(lambda t: oracles.cyclotomic_single_mode(t, beta, 2))),
        # shift_coords.csv is not read: the CLI writes its numbers as
        # "np.float64(...)" under NumPy 2 (see CHANGES.md).  The summary's
        # norm and coordinate bound are checked against the closed form.
        cli_op("solve-shift",
               ["solve", "shift", "--preset", "geometric", "--truncation", str(SHIFT_WINDOW)],
               [], check_shift(np.arange(SHIFT_WINDOW + 1))),
        cli_op("solve-shift-bilateral",
               ["solve", "shift", "--preset", "geometric", "--bilateral",
                "--truncation", str(SHIFT_WINDOW)],
               [], check_shift(np.arange(-SHIFT_WINDOW, SHIFT_WINDOW + 1))),
        cli_op("recurrence", ["recurrence"], ["recurrence.csv"],
               check_flags("all_ok", expect_count="checks")),
        cli_op("demo-counterexample", ["demo-counterexample"], [], check_demo),
    ]
    return Workload(ops, SECTION_FLOOR, DEFECT_FLOOR)


WORKLOADS = {
    "reduce-pos2": reduce_pos2,
    "reduce-pos3": reduce_pos3,
    "paper-battery": paper_battery,
}


def build(name: str, seed: int, out_root: Path) -> Workload:
    out = out_root / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    return WORKLOADS[name](seed, out)
