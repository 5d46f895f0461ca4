"""Command-line harness: reproducible experiment runs with JSON + CSV output.

Subcommands
-----------
center               ctr / ctr* of a point-set file, with the midpoint-set
                     diameter-shrink report
lemmas               randomized batteries for the center-continuity bound,
                     the sqrt(2) diameter shrink, and the two-ball
                     intersection radius drop
solve                fourier | cyclotomic | shift solvers
birkhoff             twisted Birkhoff sums and the boundedness probe
reduce               orthogonal / conformal reduction pipelines
demo-counterexample  bounded orbits without a continuous solution over the
                     parabolic base
recurrence           recurrence-isometry sampling and semigroup closure

Exit codes: 0 ok, 2 invalid configuration, 3 numeric failure,
4 invariant violation.  COCYCLE_SEED overrides --seed.  Summaries are
deterministic for a fixed config and seed; wall-clock timings live under
the volatile "timing" key.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import errors as E
from . import spd
from .centers import (
    EuclideanSpace,
    PointSet,
    SPDSpace,
    bt_center,
    check_ball_intersection_radius,
    check_center_continuity,
    check_diameter_shrink,
    chebyshev_center,
    diameter,
)
from .circle import minimality_probe
from .cocycles import (
    ShiftCocycle,
    boundedness_probe,
    recurrence_isometries,
    semigroup_closure_check,
)
from .presets import (
    coboundary_cocycle,
    coboundary_isometry_cocycle,
    conformal_coboundary_cocycle,
    golden_rotation,
    jump_cascade,
    parse_alpha,
    rho_from_descriptor,
    rotation_translation_cocycle,
    scalar_orthogonal_cocycle,
    shift_compact_section,
    shift_geometric,
    shift_single_mode,
)
from .reduction import (
    oracle_distances,
    reduce_to_conformal,
    reduce_to_orthogonal,
    sample_fibers,
    section_from_centers,
)
from .solvers import (
    Section,
    TwistedEquation,
    cyclotomic_solve,
    cyclotomic_verify,
    fourier_solve,
    oscillation_profile,
    residual,
    section_to_csv,
    shift_solve_bilateral,
    shift_solve_unilateral,
)
from .trigpoly import TrigPoly

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INVARIANT = 4

NUMERIC_ERRORS = (
    E.SmallDivisor, E.MeanObstruction, E.NoConvergence, E.SamplingFailure,
    E.EmptyCell, E.TruncationTooSmall, E.ScaleTooFine, E.SingularMatrix,
    E.PreconditionViolated, E.NonFinite,
)
INVARIANT_ERRORS = (
    E.NotSymmetric, E.NotPositiveDefinite, E.NotUnitDeterminant,
    E.NotOrthogonal, E.NotIsometry, E.NotASolution, E.EmptySet,
    E.DimensionMismatch,
)


def _json_default(obj):
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _seed_from(args) -> int:
    env = os.environ.get("COCYCLE_SEED")
    if env is not None:
        return int(env)
    return args.seed


def _load_point_set(path: str) -> PointSet:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise E.ConfigInvalid(f"cannot read point-set file: {exc}") from exc
    try:
        kind = raw.get("space", "euclidean")
        pts = np.asarray(raw.get("points"), dtype=float)
    except (AttributeError, TypeError, ValueError) as exc:
        raise E.ConfigInvalid(f"malformed point-set file: {exc}") from exc
    if kind == "euclidean":
        if pts.ndim != 2:
            raise E.ConfigInvalid("euclidean points must be a 2-d array")
        return PointSet(EuclideanSpace(pts.shape[1]), pts)
    if kind == "spd":
        if pts.ndim != 3 or pts.shape[1] != pts.shape[2]:
            raise E.ConfigInvalid("spd points must be an array of square matrices")
        # One check of the whole stack; an error names the failing entry.
        spd._cholesky(spd._symmetric(pts, "point"), "point")
        return PointSet(SPDSpace(pts.shape[1]), pts)
    raise E.ConfigInvalid(f"unknown space kind {kind!r}")


# -- subcommands --------------------------------------------------------------

def cmd_center(args) -> dict:
    ps = _load_point_set(args.input)
    report = chebyshev_center(ps)
    star = bt_center(ps, rounds=args.rounds)
    shrink = check_diameter_shrink(ps) if len(ps) >= 2 else None
    out = Path(args.out)
    summary = {
        "command": "center",
        "points": len(ps),
        "space": ps.space.name,
        "chebyshev": {
            "radius": report.radius,
            "lower_bound": report.lower_bound,
            "support_size": len(report.support),
            "iterations": report.iterations,
        },
        "bt_center_distance_to_chebyshev": float(
            ps.space.distance(report.center, star)
        ),
        "diameter": diameter(ps),
    }
    if shrink is not None:
        summary["midpoint_shrink"] = {
            "ratio": shrink.ratio, "passed": shrink.passed,
        }
    rows = [
        (i, repr(float(d)))
        for i, d in enumerate(ps.space.distances_from(report.center, ps.points))
    ]
    _write_csv(out / "center_distances.csv", ["index", "distance"], rows)
    return summary


def cmd_lemmas(args) -> dict:
    if min(args.sets, args.spd_sets) < 0 or args.sets + args.spd_sets < 1:
        raise E.ConfigInvalid("--sets and --spd-sets must be >= 0, not both 0")
    rng = np.random.default_rng(_seed_from(args))
    eps_cycle = [1e-3, 1e-2, 1e-1]
    e2 = EuclideanSpace(2)
    s2 = SPDSpace(2)

    continuity_rows = []
    worst_margin = np.inf
    all_pass = True
    for i in range(args.sets):
        m = int(rng.integers(4, 16))
        pts = rng.random((m, 2)) * rng.uniform(0.5, 2.0)
        eps = eps_cycle[i % 3]
        ang = rng.random(m) * 2 * np.pi
        rad = eps * np.sqrt(rng.random(m))
        pts_e = pts + np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
        rep = check_center_continuity(PointSet(e2, pts), PointSet(e2, pts_e))
        all_pass &= rep.passed
        worst_margin = min(worst_margin, rep.rhs + 1e-7 - rep.lhs)
        continuity_rows.append(
            ("euclidean", i, eps, repr(rep.lhs), repr(rep.rhs), rep.passed)
        )
    for i in range(args.spd_sets):
        m = int(rng.integers(4, 9))
        pts = np.array([
            spd.spd_exp(0.35 * _random_sym(rng, 2)) for _ in range(m)
        ])
        eps = eps_cycle[i % 3]
        pts_e = np.array([
            _spd_jitter(rng, p, eps * rng.random()) for p in pts
        ])
        rep = check_center_continuity(PointSet(s2, pts), PointSet(s2, pts_e))
        all_pass &= rep.passed
        worst_margin = min(worst_margin, rep.rhs + 1e-7 - rep.lhs)
        continuity_rows.append(
            ("pos2", i, eps, repr(rep.lhs), repr(rep.rhs), rep.passed)
        )

    shrink_pass = True
    worst_ratio = 0.0
    for i in range(args.sets):
        m = int(rng.integers(3, 12))
        ps = PointSet(e2, rng.random((m, 2)))
        rep = check_diameter_shrink(ps)
        shrink_pass &= rep.passed
        worst_ratio = max(worst_ratio, rep.ratio)
    tetra = PointSet(EuclideanSpace(3), _tetrahedron())
    tetra_ratio = check_diameter_shrink(tetra).ratio

    balls = []
    for space, v0, v0p, r0, eps in (
        (e2, np.zeros(2), np.array([0.4, 0.0]), 1.0, 0.01),
        (s2, np.eye(2), spd.spd_exp(0.5 * np.eye(2) / np.sqrt(2.0)), 1.0, 0.015),
    ):
        rep = check_ball_intersection_radius(
            space, v0, v0p, r0, eps, args.samples, rng
        )
        balls.append({
            "space": space.name,
            "accepted": rep.samples_accepted,
            "max_distance_to_midpoint": rep.max_distance_to_midpoint,
            "bound": rep.bound,
            "passed": rep.passed,
        })

    out = Path(args.out)
    _write_csv(out / "continuity.csv",
               ["space", "index", "eps", "lhs", "rhs", "passed"],
               continuity_rows)
    summary = {
        "command": "lemmas",
        "continuity": {
            "cases": len(continuity_rows),
            "all_pass": bool(all_pass),
            "worst_margin": worst_margin,
        },
        "diameter_shrink": {
            "random_all_pass": bool(shrink_pass),
            "worst_ratio": worst_ratio,
            "tetrahedron_ratio": tetra_ratio,
            "sharpness_gap": abs(tetra_ratio - 1.0 / np.sqrt(2.0)),
        },
        "ball_intersection": balls,
    }
    if not (all_pass and shrink_pass and all(b["passed"] for b in balls)):
        raise E.NotASolution("a lemma battery failed; see summary")
    return summary


def _random_sym(rng, n):
    g = rng.standard_normal((n, n))
    return (g + g.T) / 2.0


def _spd_jitter(rng, p, size):
    s = _random_sym(rng, p.shape[0])
    norm = np.linalg.norm(s)
    if norm > 0:
        s *= size / norm
    root = spd.spd_sqrt(p)
    return spd.symmetrize(root @ spd.spd_exp(s) @ root)


def _tetrahedron(side: float = 1.0) -> np.ndarray:
    pts = np.array([
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ])
    return pts * (side / np.sqrt(8.0))


def cmd_solve(args) -> dict:
    rng = np.random.default_rng(_seed_from(args))
    out = Path(args.out)
    if args.solver == "fourier":
        alpha = parse_alpha(args.alpha)
        rho = rho_from_descriptor(args.rho, rng)
        eq = TwistedEquation(alpha, args.beta, rho)
        phi = fourier_solve(eq, args.floor)
        res = residual(eq, phi, args.grid)
        section_to_csv(phi, out / "solution.csv", args.grid)
        return {
            "command": "solve-fourier",
            "alpha": alpha,
            "beta": args.beta,
            "rho_modes": len(rho.coeffs),
            "residual": res,
            "divisor_min": min(eq.divisors.values(), default=None),
        }
    if args.solver == "cyclotomic":
        alpha = parse_alpha(args.alpha)
        rho = rho_from_descriptor(args.rho, rng)
        phi = cyclotomic_solve(rho, alpha, args.beta, args.q, args.floor)
        res = cyclotomic_verify(phi, rho, alpha, args.beta, args.q, args.grid)
        section_to_csv(phi, out / "solution.csv", args.grid)
        return {
            "command": "solve-cyclotomic",
            "alpha": alpha,
            "beta": args.beta,
            "q": args.q,
            "residual": res,
        }
    if args.solver == "shift":
        preset = {
            "single-mode": shift_single_mode,
            "geometric": shift_geometric,
            "compact": shift_compact_section,
        }.get(args.preset)
        if preset is None:
            raise E.ConfigInvalid(f"unknown shift preset {args.preset!r}")
        cocycle = preset(truncation=args.truncation)
        if args.bilateral:
            cocycle = ShiftCocycle(
                base=cocycle.base, rho_coords=cocycle.rho_coords,
                bilateral=True, truncation=args.truncation,
            )
            sol = shift_solve_bilateral(cocycle, args.x, args.tail)
        else:
            sol = shift_solve_unilateral(cocycle, args.x)
        rows = [
            (sol.offset + i, repr(float(z.real)), repr(float(z.imag)))
            for i, z in enumerate(sol.coords)
        ]
        _write_csv(out / "shift_coords.csv", ["index", "re", "im"], rows)
        return {
            "command": "solve-shift",
            "preset": args.preset,
            "bilateral": bool(args.bilateral),
            "norm": sol.norm,
            "coordinate_bound": sol.coordinate_bound,
            "tail_fraction": sol.tail_fraction,
            "invariance_residual": sol.invariance_residual,
            "flags": sol.flags,
        }
    raise E.ConfigInvalid(f"unknown solver {args.solver!r}")


def cmd_birkhoff(args) -> dict:
    rng = np.random.default_rng(_seed_from(args))
    base = golden_rotation()
    if args.preset == "rotation-translation":
        cocycle = rotation_translation_cocycle(
            base, args.beta, rho_from_descriptor(args.rho, rng)
        )
        v0 = np.zeros(2)
    elif args.preset == "coboundary":
        cocycle = coboundary_isometry_cocycle(
            base, args.beta, TrigPoly.random(4, rng)
        )
        v0 = np.zeros(2)
    elif args.preset == "counterexample":
        cocycle = jump_cascade().cocycle
        v0 = np.zeros(1)
    else:
        raise E.ConfigInvalid(f"unknown birkhoff preset {args.preset!r}")
    # The probe starts at v0 = 0, so its norms are the twisted Birkhoff sums.
    probe = boundedness_probe(cocycle, args.x0, v0, args.steps)
    ks = np.unique(np.geomspace(1, args.steps, 64).astype(int))
    rows = [(int(k), repr(float(probe.norms[k]))) for k in ks]
    _write_csv(Path(args.out) / "birkhoff.csv", ["k", "norm"], rows)
    return {
        "command": "birkhoff",
        "preset": args.preset,
        "steps": args.steps,
        "sup_norm": probe.sup_norm,
        "argmax_k": probe.argmax_k,
        "growth_slope": probe.growth_slope,
    }


def cmd_reduce(args) -> dict:
    presets = {
        "coboundary": coboundary_cocycle,
        "conformal-coboundary": conformal_coboundary_cocycle,
        "scalar-orthogonal": scalar_orthogonal_cocycle,
    }
    if args.preset not in presets:
        raise E.ConfigInvalid(f"unknown reduce preset {args.preset!r}")
    cocycle = presets[args.preset]()
    conformal = args.conformal or args.preset in (
        "conformal-coboundary", "scalar-orthogonal"
    )
    t0 = time.perf_counter()
    summary: dict = {
        "command": "reduce",
        "preset": args.preset,
        "cells": args.cells,
        "steps": args.steps,
        "conformal": bool(conformal),
        "oracle": bool(args.oracle),
    }
    phi_star = oracle = cocycle.oracle_section
    if phi_star is not None and conformal:
        # The det-normalized pipeline recovers phi* / det(phi*)^{1/n}.
        def oracle(xs):
            return spd.unit_determinant(phi_star(xs))
    got = None
    if args.oracle:
        if oracle is None:
            raise E.ConfigInvalid("preset carries no oracle section")
        result = (reduce_to_conformal(cocycle, oracle) if conformal
                  else reduce_to_orthogonal(cocycle, oracle))
    else:
        v0 = oracle(args.x0) if oracle is not None else np.eye(cocycle.dim)
        fb = sample_fibers(cocycle, args.x0, v0, args.steps, args.cells,
                           conformal=conformal)
        got = section_from_centers(fb)
        result = (reduce_to_conformal(cocycle, got.section) if conformal
                  else reduce_to_orthogonal(cocycle, got.section))
        summary["occupancy"] = {
            "min": fb.min_occupancy, "mean": fb.mean_occupancy,
        }
        summary["diameter_spread"] = fb.diameter_spread()
        summary["center_gap_max"] = float(got.center_gaps.max())
    summary["defect"] = result.defect
    if got is not None:
        summary["invariance_residual"] = got.invariance_residual
    if result.distortion_max_deviation is not None:
        summary["distortion_max_deviation"] = result.distortion_max_deviation
    # One column per field; csv writes each float with str(), its repr.
    columns = {
        "cell": range(len(result.per_cell_defect)),
        "theta": result.section.thetas.tolist(),
        "defect": result.per_cell_defect.tolist(),
    }
    if oracle is not None and not args.oracle:
        columns["oracle_distance"] = oracle_distances(result.section, oracle).tolist()
        summary["oracle_max_distance"] = max(columns["oracle_distance"])
    if got is not None:
        columns["gap"] = got.center_gaps.tolist()
        columns["support"] = [" ".join(map(str, s)) for s in got.center_supports]
    _write_csv(Path(args.out) / "reduction_cells.csv", list(columns),
               zip(*columns.values()))
    summary_timing = {"runtime_seconds": time.perf_counter() - t0}
    summary["timing"] = summary_timing
    if not result.defect <= args.defect_bound:
        raise E.NotASolution(
            f"defect {result.defect:.3e} above bound {args.defect_bound:g}"
        )
    return summary


def cmd_demo_counterexample(args) -> dict:
    jc = jump_cascade()
    v0 = np.array([args.v0])
    probe = boundedness_probe(jc.cocycle, args.x0, v0, args.steps)
    bound = abs(args.v0) + 2.0 * jc.sup_psi
    thetas = np.arange(args.grid) / args.grid
    section = Section.from_samples(thetas, jc.candidate_values(thetas))
    try:
        scales = [float(s) for s in args.scales.split(",")]
    except ValueError as exc:
        raise E.ConfigInvalid(f"--scales {args.scales!r}: {exc}") from exc
    profile = oscillation_profile(section, jc.base.fixed_point, scales)
    minimal = minimality_probe(jc.base, args.x0, min(args.steps, 10 ** 5), 0.2)
    summary = {
        "command": "demo-counterexample",
        "steps": args.steps,
        "sup_norm": probe.sup_norm,
        "orbit_bound": bound,
        "orbit_bounded": bool(probe.sup_norm <= bound + 1e-9),
        "oscillation": {repr(s): profile[s] for s in sorted(profile)},
        "oscillation_floor": 0.9 * jc.jump,
        "oscillation_above_floor": bool(
            min(profile.values()) >= 0.9 * jc.jump
        ),
        "base_minimal_probe": bool(minimal),
    }
    if not (summary["orbit_bounded"] and summary["oscillation_above_floor"]):
        raise E.NotASolution("counterexample invariants failed")
    return summary


def cmd_recurrence(args) -> dict:
    rng = np.random.default_rng(_seed_from(args))
    base = golden_rotation()
    if args.preset == "rotation-valued":
        table = TrigPoly.random(2, rng, 0.2)
        cocycle = rotation_translation_cocycle(base, args.beta, table)
    elif args.preset == "translation":
        cocycle = rotation_translation_cocycle(
            base, 0.0, TrigPoly.random(2, rng, 0.2)
        )
    else:
        raise E.ConfigInvalid(f"unknown recurrence preset {args.preset!r}")
    sample = recurrence_isometries(cocycle, args.x, args.delta, args.n)
    checks = semigroup_closure_check(
        cocycle, args.x, sample, max_pairs=args.pairs
    )
    rows = [
        (int(k), repr(float(np.linalg.norm(iso.translation))))
        for k, iso in sample
    ]
    _write_csv(Path(args.out) / "recurrence.csv",
               ["k", "translation_norm"], rows)
    return {
        "command": "recurrence",
        "returns": len(sample),
        "checks": len(checks),
        "all_ok": bool(all(c.ok for c in checks)),
        "max_deviation": max((c.deviation for c in checks), default=0.0),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cocyclelab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=7,
                        help="RNG seed (env COCYCLE_SEED overrides)")
    parser.add_argument("--out", default="out",
                        help="output directory for JSON/CSV artifacts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("center", help="centers of a point-set file")
    p.add_argument("--input", required=True,
                   help='JSON {"space": "euclidean"|"spd", "points": [...]}')
    p.add_argument("--rounds", type=int, default=60)
    p.set_defaults(func=cmd_center)

    p = sub.add_parser("lemmas", help="quantitative lemma batteries")
    p.add_argument("--sets", type=int, default=500)
    p.add_argument("--spd-sets", type=int, default=100)
    p.add_argument("--samples", type=int, default=10000)
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("solve", help="twisted-equation solvers")
    p.add_argument("solver", choices=["fourier", "cyclotomic", "shift"])
    p.add_argument("--alpha", default="golden")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--rho", default="single-mode",
                   help="single-mode | random:<deg> | constant:<c> | JSON")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--floor", type=float, default=1e-8)
    p.add_argument("--grid", type=int, default=4096)
    p.add_argument("--preset", default="geometric",
                   help="shift data: single-mode | geometric | compact")
    p.add_argument("--bilateral", action="store_true")
    p.add_argument("--truncation", type=int, default=24)
    p.add_argument("--tail", type=int, default=64)
    p.add_argument("--x", type=float, default=0.3)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("birkhoff", help="twisted sums and boundedness probe")
    p.add_argument("--preset", default="rotation-translation",
                   choices=["rotation-translation", "coboundary",
                            "counterexample"])
    p.add_argument("--beta", type=float, default=0.7)
    p.add_argument("--rho", default="single-mode")
    p.add_argument("--steps", type=int, default=100000)
    p.add_argument("--x0", type=float, default=0.3)
    p.set_defaults(func=cmd_birkhoff)

    p = sub.add_parser("reduce", help="reduction pipelines")
    p.add_argument("--preset", default="coboundary",
                   choices=["coboundary", "conformal-coboundary",
                            "scalar-orthogonal"])
    p.add_argument("--cells", type=int, default=512)
    p.add_argument("--steps", type=int, default=200000)
    p.add_argument("--x0", type=float, default=0.2)
    p.add_argument("--tol", type=float, default=1e-6,
                   help="accepted for compatibility and ignored: every "
                        "centre is exact and certified")
    p.add_argument("--threads", type=int, default=1, choices=[1],
                   help="accepted for compatibility; runs are single-threaded")
    p.add_argument("--oracle", action="store_true",
                   help="use the preset's exact section instead of centers")
    p.add_argument("--conformal", action="store_true")
    p.add_argument("--defect-bound", type=float, default=np.inf,
                   help="exit nonzero if the defect exceeds this bound")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("demo-counterexample",
                       help="bounded orbits without a continuous solution")
    p.add_argument("--steps", type=int, default=100000)
    p.add_argument("--x0", type=float, default=0.3)
    p.add_argument("--v0", type=float, default=0.5)
    p.add_argument("--grid", type=int, default=4096)
    p.add_argument("--scales", default="0.05,0.02,0.01")
    p.set_defaults(func=cmd_demo_counterexample)

    p = sub.add_parser("recurrence", help="recurrence-isometry sampling")
    p.add_argument("--preset", default="rotation-valued",
                   choices=["rotation-valued", "translation"])
    p.add_argument("--beta", type=float, default=0.9)
    p.add_argument("--delta", type=float, default=0.02)
    p.add_argument("--n", type=int, default=30000)
    p.add_argument("--x", type=float, default=0.1)
    p.add_argument("--pairs", type=int, default=4)
    p.set_defaults(func=cmd_recurrence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags, matching our config code.
        return int(exc.code) if exc.code else 0
    t0 = time.perf_counter()
    try:
        summary = args.func(args)
    except E.ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except INVARIANT_ERRORS as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    summary.setdefault("seed", _seed_from(args))
    timing = summary.pop("timing", {})
    timing.setdefault("runtime_seconds", time.perf_counter() - t0)
    out = Path(args.out)
    _write_json(out / "summary.json", summary)
    _write_json(out / "timing.json", timing)
    print(json.dumps(summary, indent=2, sort_keys=True, default=_json_default))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
