"""A fixed reference computation that samples the machine's speed.

The host's speed changes by up to 2x within a second and drifts over
minutes, so a timed job also measures the machine.  ``SpeedProbe`` samples
the speed while the job runs: a timer signal every ``PERIOD_S`` runs one
unit of the reference computation inside the job's own process and times
it.  ``REF_UNIT_S`` over a unit's time is the speed at that moment.  A
job's time, less the time spent in units while it ran, multiplied by the
mean speed over its samples, is the time it would take at the reference
speed.

One unit is the Gauss-Jordan elimination of a fixed ``N`` x ``N`` matrix of
Fractions: interpreted, allocation-heavy code like the program's own, about
0.4 ms.  It runs with the garbage collector off, so settings the program
makes to ``gc`` do not change the reference.  This module imports only what
``lbxmod`` imports anyway, plus ``signal``, so that loading it into a
process under measurement adds little to it.
"""

from __future__ import annotations

import gc
import json
import signal
import time
from fractions import Fraction

PERIOD_S = 0.01     # one unit per 10 ms of a job
EDGE_UNITS = 2      # units run just before and just after a job
N = 5
REF_UNIT_S = 0.0004  # one unit at the reference speed (a 2-vCPU VM, Python 3.11)
REPORT_TAG = "speed-probe"
MATRIX = tuple(tuple(Fraction((7 * i + 3 * j * j) % 19 - 9, (i + 2 * j) % 5 + 1) for j in range(N))
               for i in range(N))


class SpeedProbe:
    """Times reference units from a ``SIGALRM`` handler, interleaved with
    the job at a fixed wall-clock period.  ``units`` holds the unit times
    since ``before``; ``spent`` the time the timed units took in all."""

    def __init__(self) -> None:
        self.units: list[float] = []
        self.spent = 0.0
        self.busy = False
        signal.signal(signal.SIGALRM, self._tick)

    @staticmethod
    def unit() -> float:
        """Runs one unit; returns its time."""
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        rows = [list(r) for r in MATRIX]
        r = 0
        for c in range(N):
            piv = next((i for i in range(r, N) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = 1 / rows[r][c]
            for i in range(N):
                if i != r and rows[i][c]:
                    f = rows[i][c] * inv
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            r += 1
        dt = time.perf_counter() - t0
        if enabled:
            gc.enable()
        if r != N:
            raise RuntimeError(f"reference elimination found rank {r}, not {N}")
        return dt

    def sample(self) -> None:
        """Runs one unit and counts it in ``spent``."""
        if self.busy:
            return
        self.busy = True
        t0 = time.perf_counter()
        self.units.append(self.unit())
        self.spent += time.perf_counter() - t0
        self.busy = False

    def _tick(self, _signum, _frame) -> None:
        self.sample()

    def before(self) -> None:
        """Starts a job's samples with ``EDGE_UNITS`` units, not counted in ``spent``."""
        self.units = [self.unit() for _ in range(EDGE_UNITS)]
        self.spent = 0.0

    def start(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def after(self, more=()) -> float:
        """Ends a job's samples with ``EDGE_UNITS`` units, adds the unit times
        ``more`` taken elsewhere, and returns the mean speed over all."""
        self.units += [self.unit() for _ in range(EDGE_UNITS)]
        self.units += more
        return speed_of(self.units)

    def report(self) -> str:
        return json.dumps({"units": self.units, "spent": self.spent})


def speed_of(units: list[float]) -> float:
    """Mean speed over unit times (above 1 on a machine faster than the reference)."""
    return sum(REF_UNIT_S / u for u in units) / len(units)


def parse_report(text: str) -> tuple[list[float], float]:
    """Unit times and spent time from the last ``REPORT_TAG`` line of text."""
    for line in reversed(text.splitlines()):
        if line.startswith(REPORT_TAG + " "):
            rep = json.loads(line[len(REPORT_TAG) + 1:])
            return rep["units"], rep["spent"]
    return [], 0.0
