"""CLI surface: subcommands, artifacts, exit codes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cocyclelab
from cocyclelab import cli, spd
from cocyclelab import errors as E
from cocyclelab.cli import main
from cocyclelab.centers import (
    EuclideanSpace,
    PointSet,
    chebyshev_center,
    diameter,
)
from cocyclelab.circle import RotationBase, circle_distance, is_dense
from cocyclelab.cocycles import (
    ITERATION_CAP,
    boundedness_probe,
    twisted_birkhoff,
)
from cocyclelab.presets import (
    coboundary_cocycle,
    coboundary_isometry_cocycle,
    conformal_coboundary_cocycle,
    golden_rotation,
    jump_cascade,
    parse_alpha,
    rotation_translation_cocycle,
    scalar_orthogonal_cocycle,
)
from cocyclelab.reduction import sample_fibers, section_from_centers
from cocyclelab.solvers import TwistedEquation, fourier_solve
from cocyclelab.trigpoly import TrigPoly

from conftest import reference_oracle_distances, walked_products


def run_cli(tmp_path, *args, env_seed=None):
    out = tmp_path / "out"
    argv = ["--out", str(out)] + list(args)
    old = os.environ.pop("COCYCLE_SEED", None)
    try:
        if env_seed is not None:
            os.environ["COCYCLE_SEED"] = str(env_seed)
        code = main(argv)
    finally:
        os.environ.pop("COCYCLE_SEED", None)
        if old is not None:
            os.environ["COCYCLE_SEED"] = old
    summary = None
    summary_path = out / "summary.json"
    if summary_path.exists():
        summary = json.loads(summary_path.read_text())
    return code, summary, out


@pytest.fixture
def tetra_file(tmp_path):
    pts = np.array([
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ]) / np.sqrt(8.0)
    path = tmp_path / "tetra.json"
    path.write_text(json.dumps(
        {"space": "euclidean", "points": pts.tolist()}
    ))
    return path


class TestCenterCommand:
    def test_tetrahedron_ratio(self, tmp_path, tetra_file):
        code, summary, out = run_cli(
            tmp_path, "center", "--input", str(tetra_file)
        )
        assert code == 0
        assert abs(
            summary["midpoint_shrink"]["ratio"] - 1.0 / np.sqrt(2.0)
        ) <= 1e-9
        assert (out / "center_distances.csv").exists()

    def test_spd_point_set(self, tmp_path):
        pts = [np.eye(2).tolist(), np.diag([4.0, 0.5]).tolist()]
        path = tmp_path / "spd.json"
        path.write_text(json.dumps({"space": "spd", "points": pts}))
        code, summary, _ = run_cli(tmp_path, "center", "--input", str(path))
        assert code == 0
        assert summary["space"] == "pos:2"
        cheb = summary["chebyshev"]
        assert cheb["support_size"] == 2 and cheb["iterations"] == 0
        assert abs(cheb["radius"] - cheb["lower_bound"]) <= 1e-15

    def test_descent_reports_lower_bound(self, tmp_path, tetra_file):
        code, summary, _ = run_cli(
            tmp_path, "center", "--input", str(tetra_file)
        )
        assert code == 0
        cheb = summary["chebyshev"]
        # Unit edges: all four vertices support the circumradius sqrt(6)/4.
        assert cheb["support_size"] == 4
        assert abs(cheb["lower_bound"] - np.sqrt(6.0) / 4.0) <= 1e-12
        assert cheb["lower_bound"] <= np.sqrt(6.0) / 4.0 <= cheb["radius"]
        assert cheb["radius"] - cheb["lower_bound"] <= 1e-12

    def test_non_finite_euclidean_point_is_numeric_error(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text('{"space": "euclidean", "points": [[0, 0], [1, NaN]]}')
        code, _, _ = run_cli(tmp_path, "center", "--input", str(path))
        assert code == 3

    def test_one_certification(self, tmp_path, tetra_file, monkeypatch):
        # The centre and the diameter come from one pair_certificates call.
        calls = []
        certify = cli.pair_certificates
        monkeypatch.setattr(cli, "pair_certificates", lambda *a: (
            calls.append(len(a[1])) or certify(*a)))
        code, summary, _ = run_cli(tmp_path, "center", "--input", str(tetra_file))
        assert code == 0 and calls == [4]
        ps = PointSet(EuclideanSpace(3),
                      np.array(json.loads(tetra_file.read_text())["points"]))
        assert summary["chebyshev"]["radius"] == chebyshev_center(ps).radius
        assert summary["diameter"] == diameter(ps)

    def test_missing_file_is_config_error(self, tmp_path):
        code, _, _ = run_cli(tmp_path, "center", "--input", "/nope.json")
        assert code == 2

    def test_rounds_below_one_is_config_error(self, tmp_path, tetra_file):
        code, summary, _ = run_cli(
            tmp_path, "center", "--input", str(tetra_file), "--rounds", "0"
        )
        assert code == 2 and summary is None

    def test_indefinite_spd_point_is_named(self, tmp_path, capsys):
        pts = [np.eye(2), np.diag([2.0, 3.0]), np.diag([1.0, -1.0]),
               np.eye(2)]
        path = tmp_path / "spd.json"
        path.write_text(json.dumps(
            {"space": "spd", "points": [p.tolist() for p in pts]}
        ))
        code, summary, _ = run_cli(tmp_path, "center", "--input", str(path))
        assert code == 4 and summary is None
        assert "point entry 2 is not positive definite" in capsys.readouterr().err

    def test_non_finite_spd_point_is_numeric_error(self, tmp_path):
        pts = [np.eye(3).tolist(), [[1.0, float("nan"), 0.0],
                                    [float("nan"), 1.0, 0.0],
                                    [0.0, 0.0, 1.0]]]
        path = tmp_path / "spd.json"
        path.write_text(json.dumps({"space": "spd", "points": pts}))
        code, _, _ = run_cli(tmp_path, "center", "--input", str(path))
        assert code == 3


class TestSolveCommand:
    def test_fourier(self, tmp_path):
        code, summary, out = run_cli(
            tmp_path, "solve", "fourier", "--alpha", "golden",
            "--beta", "1", "--rho", "single-mode",
        )
        assert code == 0
        assert summary["residual"] <= 1e-10
        assert (out / "solution.csv").exists()

    def test_cyclotomic(self, tmp_path):
        code, summary, _ = run_cli(
            tmp_path, "solve", "cyclotomic", "--q", "3",
            "--rho", "random:4",
        )
        assert code == 0
        assert summary["residual"] <= 1e-8

    def test_shift(self, tmp_path):
        code, summary, out = run_cli(
            tmp_path, "solve", "shift", "--preset", "geometric",
        )
        assert code == 0
        assert summary["coordinate_bound"] <= 2.0 + 1e-9
        assert summary["invariance_residual"] <= 1e-10
        rows = (out / "shift_coords.csv").read_text().splitlines()
        assert rows[0] == "index,re,im" and len(rows) > 1
        for row in rows[1:]:
            _, real, imag = row.split(",")
            float(real)
            float(imag)

    def test_mean_obstruction_exit_code(self, tmp_path):
        code, _, _ = run_cli(
            tmp_path, "solve", "fourier", "--beta", "0",
            "--rho", "constant:1",
        )
        assert code == 3


class TestMalformedInput:
    @pytest.mark.parametrize("argv", [
        ["center", "--input", "{file}", "[[0, 0], [1, 1]]"],
        ["center", "--input", "{file}", '{"points": [[0, 0], [1]]}'],
        ["center", "--input", "{file}", '{"points": [["a", "b"], [1, 2]]}'],
        ["solve", "fourier", "--rho", "{bad"],
        ["solve", "fourier", "--rho", '{"1": [1]}'],
        ["solve", "fourier", "--rho", "constant:abc"],
        ["solve", "fourier", "--rho", "random:x"],
        ["solve", "fourier", "--alpha", "abc"],
        ["solve", "fourier", "--grid", "0"],
        ["demo-counterexample", "--scales", "a,b"],
        ["demo-counterexample", "--scales", "nan"],
        ["demo-counterexample", "--grid", "0"],
        ["demo-counterexample", "--grid", "-3"],
        ["solve", "shift", "--truncation", "-1"],
        ["recurrence", "--n", "5000", "--pairs", "0"],
        ["recurrence", "--delta", "nan"],
        ["recurrence", "--delta", "-1"],
        ["recurrence", "--n", "-3"],
        ["solve", "shift", "--bilateral", "--tail", "-2"],
        ["solve", "fourier", "--floor", "nan"],
        ["--seed", "-5", "recurrence", "--n", "2000"],
        ["COCYCLE_SEED=abc", "recurrence", "--n", "2000"],
    ], ids=lambda argv: " ".join(argv[:3]))
    def test_is_config_error(self, tmp_path, capsys, argv):
        if argv[-2] == "{file}":
            # The point-set file's contents follow its placeholder.
            path = tmp_path / "points.json"
            path.write_text(argv[-1])
            argv = argv[:-2] + [str(path)]
        source, env_seed = argv[0], None
        if source.startswith("COCYCLE_SEED="):
            env_seed = source.partition("=")[2]
            argv = argv[1:]
        code, summary, _ = run_cli(tmp_path, *argv, env_seed=env_seed)
        assert code == 2 and summary is None
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        if "SEED" in source.upper():
            # A bad seed is named by where it came from.
            assert source.partition("=")[0] in err

    @pytest.mark.parametrize("argv, code", [
        (["solve", "fourier", "--rho", '{"1": [NaN, 0]}'], 4),
        (["solve", "cyclotomic", "--beta", "inf"], 3),
        (["solve", "fourier", "--beta", "nan"], 3),
        (["solve", "shift", "--x", "nan"], 3),
        (["solve", "shift", "--x", "inf", "--bilateral"], 3),
        (["reduce", "--cells", "8", "--steps", "400", "--defect-bound", "nan"], 4),
        (["birkhoff", "--beta", "nan"], 3),
        (["birkhoff", "--beta", "inf"], 3),
        (["recurrence", "--beta", "inf", "--n", "2000"], 3),
        (["recurrence", "--x", "nan"], 3),
        (["demo-counterexample", "--v0", "nan"], 3),
        (["birkhoff", "--x0", "inf"], 3),
        (["birkhoff", "--preset", "counterexample", "--x0", "nan"], 3),
        (["demo-counterexample", "--x0", "inf"], 3),
        (["demo-counterexample", "--x0", "nan"], 3),
        (["reduce", "--cells", "8", "--steps", "400", "--x0", "inf"], 3),
        (["reduce", "--cells", "8", "--steps", "400", "--x0", "nan"], 3),
    ])
    def test_non_finite_value_fails(self, tmp_path, capsys, argv, code):
        got, summary, out = run_cli(tmp_path, *argv)
        assert got == code and summary is None
        assert not (out / "solution.csv").exists()
        if "--x0" in argv:
            # Rejected where the base point enters, before any arithmetic.
            x0 = argv[argv.index("--x0") + 1]
            assert f"base point x = {x0} is not finite" in capsys.readouterr().err

    def test_every_error_has_one_exit_code(self):
        # An error outside both tuples would escape main as a traceback
        # with exit 1; one inside both would have no single exit code.
        errors, todo = set(), [E.CocycleLabError]
        while todo:
            for sub in todo.pop().__subclasses__():
                errors.add(sub)
                todo.append(sub)
        defined = {obj for obj in vars(E).values() if isinstance(obj, type)
                   and issubclass(obj, E.CocycleLabError)}
        assert defined - {E.CocycleLabError} <= errors
        for error in errors:
            numeric = issubclass(error, cli.NUMERIC_ERRORS)
            invariant = issubclass(error, cli.INVARIANT_ERRORS)
            if issubclass(error, E.ConfigInvalid):
                assert not (numeric or invariant), error
            else:
                assert numeric != invariant, error


class TestOtherCommands:
    @pytest.mark.parametrize("command,steps", [
        ("birkhoff", "0"), ("birkhoff", "-3"), ("birkhoff", "1"),
        ("demo-counterexample", "1"),
    ])
    def test_short_walk_is_config_error(self, tmp_path, command, steps):
        code, summary, _ = run_cli(tmp_path, command, "--steps", steps)
        assert code == 2 and summary is None

    def test_birkhoff_counterexample(self, tmp_path):
        code, summary, out = run_cli(
            tmp_path, "birkhoff", "--preset", "counterexample",
            "--steps", "20000",
        )
        assert code == 0
        assert summary["sup_norm"] <= 2.0 + 1e-9
        assert (out / "birkhoff.csv").exists()

    @pytest.mark.parametrize(
        "preset", ["rotation-translation", "coboundary", "counterexample"]
    )
    def test_birkhoff_csv_is_twisted_birkhoff(self, tmp_path, preset):
        code, _, out = run_cli(
            tmp_path, "birkhoff", "--preset", preset, "--steps", "5000",
        )
        assert code == 0
        # The cocycle cmd_birkhoff builds from its defaults and --seed 7.
        base = golden_rotation()
        if preset == "rotation-translation":
            c = rotation_translation_cocycle(base, 0.7, TrigPoly.single_mode(1))
        elif preset == "coboundary":
            c = coboundary_isometry_cocycle(
                base, 0.7, TrigPoly.random(4, np.random.default_rng(7))
            )
        else:
            c = jump_cascade().cocycle
        rows = (out / "birkhoff.csv").read_text().splitlines()
        assert rows[0] == "k,norm" and len(rows) > 40
        ks, norms = np.array([row.split(",") for row in rows[1:]]).T
        ks, norms = ks.astype(int), norms.astype(float)
        assert np.array_equal(
            ks, np.unique(np.geomspace(1, 5000, 64).astype(int)))
        # The probe's norms at ks, bit for bit, from one walk of 5000 steps.
        probe = boundedness_probe(c, 0.3, np.zeros(c.dim), 5000, at=ks)
        assert np.array_equal(norms, probe.norms)
        for k, norm in zip(ks, norms):
            want = np.linalg.norm(twisted_birkhoff(c, 0.3, int(k)))
            assert abs(norm - want) <= 1e-15 * max(want, 1.0)

    def test_reduce_small(self, tmp_path):
        code, summary, out = run_cli(
            tmp_path, "reduce", "--preset", "coboundary",
            "--cells", "64", "--steps", "4000", "--tol", "1e-4",
        )
        assert code == 0
        assert summary["defect"] <= 0.1
        assert summary["occupancy"]["min"] >= 1
        assert summary["center_gap_max"] <= 1e-12
        rows = (out / "reduction_cells.csv").read_text().splitlines()
        assert rows[0] == "cell,theta,defect,oracle_distance,gap,support"
        assert len(rows) == 65
        for row in rows[1:]:
            gap, support = row.split(",")[4:]
            assert float(gap) <= 1e-12 and len(support.split()) == 2

    def test_reduce_coboundary_conformal(self, tmp_path):
        code, summary, _ = run_cli(
            tmp_path, "reduce", "--preset", "coboundary", "--conformal",
            "--cells", "16", "--steps", "1000", "--tol", "1e-3",
        )
        assert code == 0
        assert summary["conformal"]
        assert np.isfinite(summary["defect"])
        # Against phi*/det(phi*)^{1/2}: the centre error, as in the
        # orthogonal run of this command (0.026), not the determinant
        # offset of the raw phi* (0.405).
        assert summary["oracle_max_distance"] <= 0.05

    def test_reduce_coboundary_conformal_oracle(self, tmp_path):
        code, summary, _ = run_cli(
            tmp_path, "reduce", "--preset", "coboundary", "--conformal",
            "--oracle",
        )
        assert code == 0
        assert summary["defect"] <= 1e-9

    @pytest.mark.parametrize(
        "preset", ["coboundary", "conformal-coboundary", "scalar-orthogonal"])
    def test_reduce_oracle(self, tmp_path, preset):
        code, summary, _ = run_cli(
            tmp_path, "reduce", "--preset", preset, "--oracle",
        )
        assert code == 0
        assert summary["defect"] <= 1e-9

    @pytest.mark.parametrize("preset, conformal", [
        ("coboundary", False), ("coboundary", True),
        ("conformal-coboundary", True),
    ])
    def test_oracle_distance_column_matches_per_cell_loop(
            self, tmp_path, preset, conformal):
        argv = ["reduce", "--preset", preset, "--cells", "32", "--steps",
                "1600"] + (["--conformal"] if conformal else [])
        code, summary, out = run_cli(tmp_path, *argv)
        assert code == 0
        c = {"coboundary": coboundary_cocycle,
             "conformal-coboundary": conformal_coboundary_cocycle}[preset]()
        oracle = c.oracle_section
        if conformal:
            oracle = lambda x: spd.unit_determinant(c.oracle_section(x))
        fb = sample_fibers(c, 0.2, oracle(0.2), 1600, 32, conformal=conformal)
        want = reference_oracle_distances(section_from_centers(fb).section,
                                          oracle)
        rows = (out / "reduction_cells.csv").read_text().splitlines()
        assert rows[0].split(",")[3] == "oracle_distance"
        column = np.array([float(row.split(",")[3]) for row in rows[1:]])
        assert np.max(np.abs(column - want)) <= 1e-12
        assert abs(summary["oracle_max_distance"] - want.max()) <= 1e-12

    def test_scalar_only_oracle_is_invariant_violation(self, tmp_path,
                                                       monkeypatch):
        # An oracle that ignores the array contract gives one (2, 2)
        # matrix for 512 cells.
        def preset():
            c = scalar_orthogonal_cocycle()
            c.oracle_section = lambda x: np.eye(2)
            return c

        monkeypatch.setattr(cli, "scalar_orthogonal_cocycle", preset)
        code, _, _ = run_cli(
            tmp_path, "reduce", "--preset", "scalar-orthogonal", "--oracle",
        )
        assert code == 4

    def test_reduce_defect_bound_enforced(self, tmp_path):
        code, _, _ = run_cli(
            tmp_path, "reduce", "--preset", "coboundary",
            "--cells", "64", "--steps", "4000", "--tol", "1e-4",
            "--defect-bound", "1e-9",
        )
        assert code == 4

    def test_demo_counterexample(self, tmp_path):
        code, summary, _ = run_cli(
            tmp_path, "demo-counterexample", "--steps", "20000",
        )
        assert code == 0
        assert summary["orbit_bounded"]
        assert summary["oscillation_above_floor"]
        assert not summary["base_minimal_probe"]

    def test_demo_counterexample_base_orbits(self, tmp_path, monkeypatch):
        # The boundedness probe walks the base orbit one block after the
        # other, each stretch with its successor point, the next block's
        # first; the minimality probe then builds its first 1e5 points.
        stretches = []
        base = type(jump_cascade().base)
        orbit = base.orbit
        monkeypatch.setattr(base, "orbit", lambda self, x0, n, start=0: (
            stretches.append((start, n)) or orbit(self, x0, n, start)))
        code, summary, _ = run_cli(tmp_path, "demo-counterexample",
                                   "--steps", "120000")
        assert code == 0 and not summary["base_minimal_probe"]
        walk, minimality = stretches[:-1], stretches[-1]
        starts = [lo for lo, _ in walk]
        ends = [lo + n - 1 for lo, n in walk]
        assert starts == [0] + ends[:-1] and ends[-1] == 120000
        assert minimality == (0, 10 ** 5)

    @pytest.mark.parametrize("steps", [2, 20_000, 120_000])
    def test_demo_counterexample_summary(self, tmp_path, steps):
        # Every summary value recomputed from all n + 1 norms, the full
        # m x m oscillation scan and the first 1e5 points of the orbit.
        code, summary, _ = run_cli(tmp_path, "demo-counterexample",
                                   "--steps", str(steps))
        assert code == 0
        jc = jump_cascade()
        prods = walked_products(jc.cocycle, 0.3, steps)
        norms = np.abs(prods[:, 0, 0] * 0.5 + prods[:, 0, 1])
        thetas = np.arange(4096) / 4096
        values = jc.candidate_values(thetas)
        oscillation = {}
        for s in (0.01, 0.02, 0.05):
            near = values[circle_distance(thetas, 0.0) <= s]
            diff = near[:, None] - near[None, :]
            oscillation[repr(s)] = float(np.max(np.sqrt(np.abs(diff) ** 2)))
        bound = 0.5 + 2.0 * jc.sup_psi
        assert summary == {
            "command": "demo-counterexample",
            "steps": steps,
            "sup_norm": float(norms.max()),
            "orbit_bound": bound,
            "orbit_bounded": bool(norms.max() <= bound + 1e-9),
            "oscillation": oscillation,
            "oscillation_floor": 0.9 * jc.jump,
            "oscillation_above_floor": True,
            "base_minimal_probe": is_dense(
                jc.base.orbit(0.3, steps)[:10 ** 5], 0.2),
            "seed": 7,
        }

    def test_recurrence(self, tmp_path):
        code, summary, out = run_cli(
            tmp_path, "recurrence", "--n", "20000",
        )
        assert code == 0
        assert summary["returns"] > 0
        assert summary["all_ok"]
        assert (out / "recurrence.csv").exists()

    @pytest.mark.parametrize("cells", ["0", "-4"])
    def test_reduce_cells_below_one_is_config_error(self, tmp_path, cells):
        code, summary, _ = run_cli(
            tmp_path, "reduce", "--preset", "coboundary", "--cells", cells,
            "--steps", "4000",
        )
        assert code == 2 and summary is None

    def test_reduce_steps_above_iteration_cap_is_config_error(
            self, tmp_path, capsys, monkeypatch):
        def no_orbit(*args):
            raise AssertionError("the orbit must not be built")

        monkeypatch.setattr(RotationBase, "orbit", no_orbit)
        code, summary, _ = run_cli(
            tmp_path, "reduce", "--steps", str(ITERATION_CAP + 1),
            "--cells", "8",
        )
        assert code == 2 and summary is None
        assert f"exceeds {ITERATION_CAP}" in capsys.readouterr().err

    def test_lemmas_without_sets_is_config_error(self, tmp_path):
        code, summary, _ = run_cli(
            tmp_path, "lemmas", "--sets", "0", "--spd-sets", "0",
            "--samples", "100",
        )
        assert code == 2 and summary is None

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_lemmas_samples_below_one_is_config_error(self, tmp_path, samples):
        code, summary, _ = run_cli(
            tmp_path, "lemmas", "--sets", "2", "--spd-sets", "0",
            "--samples", samples,
        )
        assert code == 2 and summary is None

    def test_lemmas_small(self, tmp_path):
        code, summary, out = run_cli(
            tmp_path, "lemmas", "--sets", "12", "--spd-sets", "4",
            "--samples", "1000",
        )
        assert code == 0
        assert summary["continuity"]["all_pass"]
        assert summary["diameter_shrink"]["sharpness_gap"] <= 1e-9
        assert (out / "continuity.csv").exists()


# One small run of every subcommand; "{points}" is a point-set file.
ARTEFACT_RUNS = [
    ["center", "--input", "{points}"],
    ["lemmas", "--sets", "4", "--spd-sets", "1", "--samples", "200"],
    ["solve", "fourier"],
    ["solve", "cyclotomic", "--q", "3", "--rho", "random:4"],
    ["solve", "shift"],
    ["solve", "shift", "--bilateral"],
    ["birkhoff", "--preset", "rotation-translation", "--steps", "500"],
    ["birkhoff", "--preset", "coboundary", "--steps", "500"],
    ["birkhoff", "--preset", "counterexample", "--steps", "500"],
    ["reduce", "--cells", "16", "--steps", "800"],
    ["recurrence", "--n", "2000"],
    ["demo-counterexample", "--steps", "2000"],
]


def csv_writer_bytes(rows) -> bytes:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode()


class TestDeterminism:
    @pytest.mark.parametrize("argv", ARTEFACT_RUNS, ids=" ".join)
    def test_artefacts_byte_identical(self, tmp_path, tetra_file, capsys, argv):
        argv = [str(tetra_file) if a == "{points}" else a for a in argv]
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["--out", str(out), "--seed", "5"] + argv) == 0
            # The one volatile artefact.
            (out / "timing.json").unlink()
            # stdout is the text of summary.json.
            summary = (out / "summary.json").read_text()
            assert summary.endswith("}\n")
            assert capsys.readouterr().out == summary
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        assert "summary.json" in names
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        for table in (name for name in names if name.endswith(".csv")):
            with open(a / table, newline="") as fh:
                rows = list(csv.reader(fh))
            assert len(rows) > 1
            assert all(len(row) == len(rows[0]) for row in rows)
            # The repr of a NumPy 2 scalar is "np.float64(...)".
            assert not any("np." in cell for row in rows for cell in row)
            # The bytes csv.writer writes for these rows: its quoting and
            # its \r\n terminators.
            assert (a / table).read_bytes() == csv_writer_bytes(rows), table

    def test_parser_built_once(self, tmp_path, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser",
                            lambda: builds.append(1) or build())
        argv = ["birkhoff", "--steps", "500"]
        assert main(["--out", str(tmp_path / "a")] + argv) == 0
        assert builds == [1]
        # A handler replaced after the parser was built is the one that runs.
        monkeypatch.setattr(cli, "cmd_birkhoff",
                            lambda args: {"command": "replaced"})
        assert main(["--out", str(tmp_path / "b")] + argv) == 0
        assert builds == [1]
        summary = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert summary["command"] == "replaced"

    @pytest.mark.parametrize("columns", [
        {"a": [], "b": []},
        {"x": []},
        {"i": range(4), "x": [0.1, -0.0, float("inf"), float("nan")],
         "n": [2 ** 70, -1, 0, 7], "ok": [True, False, True, False],
         "s": ["1 2", "", "a b c", "x"], "t": [1e-300, 1e300, 5e-324, 1 / 3]},
        {"s": ["a", "b c"]},
    ], ids=["empty", "empty-one-column", "mixed", "one-str-column"])
    def test_table_matches_csv_writer(self, tmp_path, columns):
        path = tmp_path / "t.csv"
        cli._write_table(path, columns)
        rows = [list(columns)] + [list(r) for r in zip(*columns.values())]
        assert path.read_bytes() == csv_writer_bytes(rows)

    @pytest.mark.parametrize("columns", [
        {"s": ["a", "b,c"]}, {"s": ['a"b'], "x": [1.0]},
        {"s": ["a\rb"], "x": [1.0]}, {"s": ["a\nb"], "x": [1.0]},
        {"s": ["a", ""]}, {"a,b": [1.0]},
    ], ids=["comma", "quote", "cr", "lf", "lone-empty", "header"])
    def test_table_field_needing_quotes_raises(self, tmp_path, columns):
        # csv.writer would quote these fields; the table writer does not.
        with pytest.raises(ValueError):
            cli._write_table(tmp_path / "t.csv", columns)
        assert not (tmp_path / "t.csv").exists()

    def test_table_rejects_numpy_scalars(self, tmp_path):
        # csv writes repr(np.float64(x)), "np.float64(x)".
        with pytest.raises(TypeError):
            cli._write_table(tmp_path / "t.csv", {"x": [np.float64(0.5)]})

    def test_fourier_solution_csv_round_trips(self, tmp_path):
        code, _, out = run_cli(tmp_path, "solve", "fourier", "--beta", "0.7",
                               "--grid", "4099")
        assert code == 0
        with open(out / "solution.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["theta", "re", "im"]
        got = np.array(rows[1:], dtype=float)
        thetas = np.arange(4099) / 4099
        eq = TwistedEquation(parse_alpha("golden"), 0.7, TrigPoly.single_mode(1))
        want = fourier_solve(eq).poly(thetas)
        assert np.array_equal(got[:, 0], thetas)
        assert np.array_equal(got[:, 1], want.real)
        assert np.array_equal(got[:, 2], want.imag)

    def test_module_run_writes_nothing_to_stderr(self, tmp_path):
        # A process outside pytest's warning filter: any warning shows.
        env = {k: v for k, v in os.environ.items() if k != "COCYCLE_SEED"}
        src = str(Path(cocyclelab.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + env.get("PYTHONPATH", "").split(os.pathsep))
        proc = subprocess.run(
            [sys.executable, "-m", "cocyclelab.cli", "--out", str(tmp_path),
             "recurrence", "--n", "2000"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["command"] == "recurrence"

    def test_byte_identical_summaries(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        code1 = main(["--out", str(a), "--seed", "9", "lemmas",
                      "--sets", "6", "--spd-sets", "2", "--samples", "500"])
        code2 = main(["--out", str(b), "--seed", "9", "lemmas",
                      "--sets", "6", "--spd-sets", "2", "--samples", "500"])
        assert code1 == code2 == 0
        assert (a / "summary.json").read_bytes() == \
            (b / "summary.json").read_bytes()
        # timings are volatile by nature and live in a separate artifact
        assert (a / "timing.json").exists()

    def test_byte_identical_reduce_summaries(self, tmp_path):
        argv = ["reduce", "--preset", "conformal-coboundary", "--cells", "32",
                "--steps", "2000", "--tol", "1e-4"]
        for name in ("a", "b"):
            assert main(["--out", str(tmp_path / name)] + argv) == 0
        summary = (tmp_path / "a" / "summary.json").read_bytes()
        assert summary == (tmp_path / "b" / "summary.json").read_bytes()
        assert b"center_gap_max" in summary

    def test_env_seed_override(self, tmp_path):
        code, summary, _ = run_cli(
            tmp_path, "recurrence", "--n", "5000", env_seed=123,
        )
        assert code == 0
        assert summary["seed"] == 123

    def test_unknown_command_is_config_error(self, tmp_path):
        assert main(["--out", str(tmp_path), "orbitz"]) == 2
