"""CLI surface: subcommands, artifacts, exit codes, determinism."""

import json
import os

import numpy as np
import pytest

from cocyclelab.cli import main


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

    def test_missing_file_is_config_error(self, tmp_path):
        code, _, _ = run_cli(tmp_path, "center", "--input", "/nope.json")
        assert code == 2

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


class TestOtherCommands:
    def test_birkhoff_counterexample(self, tmp_path):
        code, summary, out = run_cli(
            tmp_path, "birkhoff", "--preset", "counterexample",
            "--steps", "20000",
        )
        assert code == 0
        assert summary["sup_norm"] <= 2.0 + 1e-9
        assert (out / "birkhoff.csv").exists()

    def test_reduce_small(self, tmp_path):
        code, summary, out = run_cli(
            tmp_path, "reduce", "--preset", "coboundary",
            "--cells", "64", "--steps", "4000", "--tol", "1e-4",
        )
        assert code == 0
        assert summary["defect"] <= 0.1
        assert summary["occupancy"]["min"] >= 1
        assert (out / "reduction_cells.csv").exists()

    def test_reduce_coboundary_conformal(self, tmp_path):
        code, summary, _ = run_cli(
            tmp_path, "reduce", "--preset", "coboundary", "--conformal",
            "--cells", "16", "--steps", "1000", "--tol", "1e-3",
        )
        assert code == 0
        assert summary["conformal"]
        assert np.isfinite(summary["defect"])

    def test_reduce_oracle(self, tmp_path):
        code, summary, _ = run_cli(
            tmp_path, "reduce", "--preset", "coboundary", "--oracle",
        )
        assert code == 0
        assert summary["defect"] <= 1e-9

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

    def test_env_seed_override(self, tmp_path):
        code, summary, _ = run_cli(
            tmp_path, "recurrence", "--n", "5000", env_seed=123,
        )
        assert code == 0
        assert summary["seed"] == 123

    def test_unknown_command_is_config_error(self, tmp_path):
        assert main(["--out", str(tmp_path), "orbitz"]) == 2
