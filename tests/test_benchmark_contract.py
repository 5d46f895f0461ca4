"""The names and arguments the benchmark in ``perfbench/`` reaches the
package by.

The benchmark's tracer wraps functions at every name callers find them
by, and its workloads call the library directly and pass ``reduce``
options the library otherwise ignores.  Renaming or deleting any of them
breaks only traced benchmark runs, so these tests check them.  They read
``perfbench/`` and edit nothing there; every patch is restored.
"""

import sys
from pathlib import Path

import numpy as np

from cocyclelab import cli, reduction

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_target_resolves():
    # install() looks every LAYERS target up through vars(owner)[attr]
    # before it replaces anything, so a missing name raises here.
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    targets = [target for patterns in spans.LAYERS.values()
               for pattern in patterns for target in spans._expand(pattern)]
    assert sorted(tracer.names) == sorted(targets)
    for _, _, sites in tracer._plan:
        for owner, name, fn in sites:
            assert vars(owner)[name] is fn


def test_capture_keeps_what_the_cli_computes(tmp_path):
    sample_fibers = reduction.sample_fibers
    capture = workloads.Capture()
    try:
        code = cli.main(["--out", str(tmp_path), "reduce",
                         "--cells", "8", "--steps", "400"])
        kept = capture.take()
    finally:
        capture._patches.restore()
    assert reduction.sample_fibers is sample_fibers
    assert code == 0
    assert len(kept["cell_points"]) == 8
    assert kept["values"].shape == (8, 2, 2)
    assert kept["thetas"].shape == (8,)


def test_pos3_cocycle_generator():
    c = workloads.pos3_cocycle()
    a = c.generator(0.3)
    assert a.shape == (3, 3)
    assert np.array_equal(a, c.generators_along(np.array([0.3]))[0])


def test_pos3_workload_runs_and_checks(tmp_path):
    for op in workloads.reduce_pos3(1, tmp_path).ops:
        out = op.collect(op.run())
        assert out.ran, out.data
        assert op.check(out.data).problems == []


def test_reduce_argv_parses():
    argv = ["--seed", "1", "--out", "out", "reduce", "--preset", "coboundary",
            "--cells", str(workloads.POS2_CELLS),
            "--steps", str(workloads.POS2_STEPS), "--x0", repr(0.3),
            "--tol", repr(workloads.POS2_TOL), "--threads", "1"]
    args = cli.build_parser().parse_args(argv)
    assert args.func is cli.cmd_reduce
    assert (args.tol, args.threads) == (workloads.POS2_TOL, 1)
