"""CLI surface: subcommands, artifacts, exit codes, determinism."""

import json
import os

import numpy as np
import pytest

from cocyclelab import cli, spd
from cocyclelab.cli import main
from cocyclelab.cocycles import twisted_birkhoff
from cocyclelab.presets import (
    coboundary_cocycle,
    coboundary_isometry_cocycle,
    conformal_coboundary_cocycle,
    golden_rotation,
    jump_cascade,
    rotation_translation_cocycle,
    scalar_orthogonal_cocycle,
)
from cocyclelab.reduction import sample_fibers, section_from_centers
from cocyclelab.trigpoly import TrigPoly

from conftest import reference_oracle_distances


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
        ["recurrence", "--n", "5000", "--pairs", "0"],
    ], ids=lambda argv: " ".join(argv[:3]))
    def test_is_config_error(self, tmp_path, capsys, argv):
        if argv[-2] == "{file}":
            # The point-set file's contents follow its placeholder.
            path = tmp_path / "points.json"
            path.write_text(argv[-1])
            argv = argv[:-2] + [str(path)]
        code, summary, _ = run_cli(tmp_path, *argv)
        assert code == 2 and summary is None
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("argv, code", [
        (["solve", "fourier", "--rho", '{"1": [NaN, 0]}'], 4),
        (["solve", "cyclotomic", "--beta", "inf"], 3),
        (["solve", "fourier", "--beta", "nan"], 3),
        (["solve", "shift", "--x", "nan"], 3),
        (["solve", "shift", "--x", "inf", "--bilateral"], 3),
        (["reduce", "--cells", "8", "--steps", "400", "--defect-bound", "nan"], 4),
        (["birkhoff", "--beta", "nan"], 3),
    ])
    def test_non_finite_value_fails(self, tmp_path, argv, code):
        got, summary, out = run_cli(tmp_path, *argv)
        assert got == code and summary is None
        assert not (out / "solution.csv").exists()


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
        for row in rows[1:]:
            k, norm = row.split(",")
            want = np.linalg.norm(twisted_birkhoff(c, 0.3, int(k)))
            assert abs(float(norm) - want) <= 1e-15 * max(want, 1.0)

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


class TestDeterminism:
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
