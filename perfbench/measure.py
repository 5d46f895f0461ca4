"""One measured run of one workload, in a process of its own.

``run.py`` starts this script with a clean environment and reads the JSON
object it prints last.  Set-up (imports, inputs, references) is timed from
the first line of this file, paced like the rounds (``pace.py``), and
divided by the slowdown measured during it.  Then whole rounds of the workload's
operations start until ``--seconds`` have passed.  Only the program calls
are timed.  ``wall_s`` is the median over rounds of a round's time divided
by the machine slowdown measured during it (``pace.py``).  The peak
resident memory is read before the outputs are checked, so it covers the
program and not the checks.

With ``--trace 1`` the first round warms up, then every second round runs
with the tracer installed.  The per-layer metrics are those of the traced
round with the least paced time, and the tracing overhead is the median
paced time of the traced rounds minus that of the rounds between them.
"""

import time

STARTED = time.perf_counter()

from pace import Pace, python_unit, PYTHON_UNIT_S  # noqa: E402

SETUP_PACE = Pace(python_unit, PYTHON_UNIT_S, period_s=0.01).__enter__()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", required=True, help="directory for the program's output")
    p.add_argument("--setup-only", action="store_true",
                   help="print the set-up time and exit")
    return p.parse_args(argv)


def run_rounds(wl, seconds: float, tracer):
    """Starts whole rounds until ``seconds`` have passed.

    Returns (rounds, outputs).  Each round is a dict: ``wall`` is the time
    the program ran with the calibration units taken out, ``slowdown`` the
    machine slowdown ``Pace`` measured meanwhile, ``traced`` None for the
    warm-up round of a traced run, and ``layers`` (traced rounds) the
    tracer's breakdown of the round's whole time, units included.
    outputs[op name][fingerprint] is [Output, times seen].  With a tracer
    the first round only warms up (its outputs are still checked); then
    traced and untraced rounds alternate.
    """
    rounds = []
    outputs = {op.name: {} for op in wl.ops}
    pace = Pace()
    window = time.perf_counter()
    while True:
        traced = None if tracer is not None and not rounds else (
            tracer is not None and len(rounds) % 2 == 1)
        if traced:
            tracer.begin_round()
            tracer.install()
        paced_s, units = pace.seconds, pace.units
        total = 0.0
        for op in wl.ops:
            with pace:
                t0 = time.perf_counter()
                raw = op.run()
                total += time.perf_counter() - t0
            out = op.collect(raw)
            seen = outputs[op.name].setdefault(out.fingerprint, [out, 0])
            seen[1] += 1
        paced_s = pace.seconds - paced_s
        record = {"wall": total - paced_s, "traced": traced,
                  "slowdown": pace.slowdown(paced_s, pace.units - units)}
        if traced:
            tracer.uninstall()
            record["layers"] = tracer.end_round(total)
        rounds.append(record)
        elapsed = time.perf_counter() - window
        if elapsed >= seconds and (tracer is None or len(rounds) >= 3):
            return rounds, outputs


def check_outputs(wl, outputs):
    """(attempted, failed, correct, section_error, defect, problems)."""
    attempted = failed = 0
    correct = True
    section_error, defect = wl.section_floor, wl.defect_floor
    problems = []
    for op in wl.ops:
        for out, times in outputs[op.name].values():
            attempted += times
            verdict = op.check(out.data)
            if verdict.problems:
                failed += times
                correct = correct and not out.ran
                problems += [f"{op.name}: {p}" for p in verdict.problems[:5]]
            section_error = max(section_error, verdict.section_error)
            defect = max(defect, verdict.defect)
    return attempted, failed, correct, section_error, defect, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = workloads.build(args.workload, args.seed, Path(args.out))
    setup_wall = time.perf_counter() - STARTED
    SETUP_PACE.__exit__()
    setup_s = ((setup_wall - SETUP_PACE.seconds)
               / SETUP_PACE.slowdown(SETUP_PACE.seconds, SETUP_PACE.units))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = spans.Tracer() if args.trace else None
    rounds, outputs = run_rounds(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, correct, section_error, defect, problems = check_outputs(wl, outputs)

    def paced(r):
        return r["wall"] / r["slowdown"]

    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(paced(r) for r in rounds), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "section_error": (section_error, "1"),
            "defect": (defect, "1"),
        }
    else:
        # The breakdown of the fastest traced round, whose layer times and
        # remainder add up to its whole wall time.
        traced = [r for r in rounds if r["traced"]]
        fastest = min(traced, key=paced)
        metrics = {name: (value, "s" if name.endswith("_s") else "count")
                   for name, value in fastest["layers"].items()}
        untraced = statistics.median(paced(r) for r in rounds if r["traced"] is False)
        metrics["trace.untraced_wall_s"] = (untraced, "s")
        metrics["trace.overhead_s"] = (
            statistics.median(paced(r) for r in traced) - untraced, "s")
        tracer.write(Path(args.out) / args.workload / "spans.csv", STARTED)
    print(json.dumps({
        "setup_s": setup_s,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "rounds": [{k: r[k] for k in ("wall", "traced", "slowdown")} for r in rounds],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
