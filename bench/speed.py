"""A speed probe that rescales measured times to the host's nominal speed.

The benchmark host is a small VM whose vCPUs, for seconds to minutes at a
time, run the same code up to ~1.9x slower (the other tenants of the
physical cores; the two vCPUs drift independently).  Such phases can fill a
whole run, so no statistic over a run's own passes removes them.  The probe
measures the drift where it happens: a SIGALRM every PERIOD_S interrupts
the pass and times a fixed loop of Fraction floor divisions, the operation
that dominates the program's hot paths.  A command's time is then rescaled
interval by interval:

    rescaled = (raw time - probe time) * NOMINAL_S * mean(1 / probe samples)

i.e. the work the command did, in seconds at the speed at which the probe
loop takes NOMINAL_S.  The set-up time (interpreter start and import) is
rescaled the same way by the samples taken during the import.  On the host
this benchmark was written on, the rescaled wall time of a run spread 1-3%
across seeds where the raw pass times spread 17-30%.  The probe costs
about 1.5% of a pass.  In traced passes its time is taken off the span it
interrupted, and span self times are rescaled by the same factors.

This module is imported before congruence_lab, so it imports nothing that
congruence_lab does not import anyway.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.025
# the probe loop's duration at the host's full speed (2-vCPU Xeon VM at
# 2.1 GHz, Python 3.11); it only fixes the unit of the rescaled times
NOMINAL_S = 0.00025

_Q = Fraction(12345, 7)


def _reference() -> None:
    for i in range(150):
        (_Q - i) // 97


class SpeedProbe:
    """Probe samples over a run of commands; start() before, stop() after."""

    def __init__(self):
        self.starts: list[float] = []  # perf_counter() at each sample
        self.samples: list[float] = []  # seconds the probe loop took

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _reference()
        self.starts.append(t0)
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, since: int, until: int) -> float:
        """Factor from raw to nominal seconds over samples[since:until]; a
        span too short to hold a sample uses all samples so far."""
        window = self.samples[since:until] or self.samples
        if not window:
            return 1.0
        return NOMINAL_S * sum(1 / s for s in window) / len(window)

    def rescale(self, seconds: float, since: int, until: int) -> tuple[float, float]:
        """(seconds minus the probe time in samples[since:until], that work
        time rescaled to nominal speed)."""
        work = seconds - sum(self.samples[since:until])
        return work, work * self.scale(since, until)
