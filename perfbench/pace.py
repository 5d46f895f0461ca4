"""The machine's speed while the program runs.

The shared machine this benchmark was written on changes speed for reasons
outside the process: one operation repeated back to back varied by up to a
factor two, and the level drifted by 10-40 % over minutes.  While a
``Pace`` is active, a SIGALRM timer interrupts the program every 50 ms and
runs a fixed unit of interpreter and small-array work that does not call
the program.  The unit's mean time over its reference is the slowdown the
program met at the same moments.  On the 2x2 reduction, dividing the
program's time by it cut the spread of 20-second means from 8.6 % to
2.5 %, and on Pos(3) distances from 7.3 % to 2.0 %.

Signals reach Python code between bytecodes, so a unit runs after a long
NumPy call returns, never inside it.  The units take 2-3 % of the time;
callers subtract ``seconds`` from what they measured.

Set-up (imports and building inputs, about 0.2 s) is paced the same way
with a pure-Python unit every 10 ms, since NumPy is not imported yet when
it starts.  This module imports NumPy only inside ``array_unit``.
"""

from __future__ import annotations

import signal
import time

# Typical unit times on an idle core of the 2.1 GHz Xeon the benchmark was
# written on; they only fix the scale of the reported seconds.
ARRAY_UNIT_S = 0.5e-3
PYTHON_UNIT_S = 0.3e-3


def array_unit() -> float:
    """Interpreter work with small-array NumPy calls; returns its duration."""
    import numpy as np

    t0 = time.perf_counter()
    s = 0.0
    a = np.linspace(1.0, 2.0, 64)
    for i in range(1000):
        s += (i % 7) * 0.5
        if i % 16 == 0:
            a = np.log(np.sqrt(a * a + 1.0)) + 1.0
    return time.perf_counter() - t0


def python_unit() -> float:
    """Interpreter work only; returns its duration."""
    t0 = time.perf_counter()
    s = 0.0
    d = {}
    for i in range(2000):
        s += (i % 7) * 0.5
        d[i & 31] = s
    return time.perf_counter() - t0


class Pace:
    """Context manager: runs ``unit`` every ``period_s`` while active."""

    def __init__(self, unit=array_unit, reference_s: float = ARRAY_UNIT_S,
                 period_s: float = 0.05):
        self.unit = unit
        self.reference_s = reference_s
        self.period_s = period_s
        self.seconds = 0.0   # spent in units, summed over every activation
        self.units = 0
        self._previous = None

    def _tick(self, signum, frame):
        self.seconds += self.unit()
        self.units += 1

    def __enter__(self) -> "Pace":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, unit_seconds: float, units: int) -> float:
        """Mean unit time over the reference; 1 when nothing was sampled."""
        return unit_seconds / units / self.reference_s if units else 1.0
