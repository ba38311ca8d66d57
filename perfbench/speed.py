"""Host-speed probe: rescales the end-to-end timings to one reference speed.

On a few cores of a shared machine the speed of every process drifts
together, by 20-60% over tens of seconds, as neighbours come and go; a run's
median wall follows that drift more than it follows the program.  The probe
is a fixed piece of benchmark-side work run right after each set-up and each
enactment, for a small share of its wall: a loop of interpreter arithmetic
on small ints.  Nothing in ``repro`` runs in it, so a change to the program
does not move it, and it has no working set of its own.  (A dependent chain
of dict lookups over a few MB was tried first: it evicted the enactments'
caches and followed the runs' speed less well.)

A *speed factor* is ``REFERENCE_UNIT_S`` over the median time of one probe
unit in a phase of a run (the set-ups, or the measured passes); multiplying
a wall of that phase by it gives the wall the host would have read at the
reference speed.  The drift that matters lasts tens of seconds: it moves a
run's median as a whole, and the phase's factor follows it.  The probe's
speed also swings from one second to the next, more than an enactment's
does, so a factor taken next to a single enactment only adds noise.  The raw
walls and the factor are printed too (see ``run.py``).
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

#: Loop steps in one probe unit, a few milliseconds.
UNIT_STEPS = 1 << 16
#: Time of one probe unit at the reference speed every timing is rescaled to.
REFERENCE_UNIT_S = 0.004
#: Share of each timed wall spent probing right after it.
PROBE_SHARE = 0.05


def _unit() -> float:
    folded = 0
    started = perf_counter()
    for step in range(UNIT_STEPS):
        folded += step * step % 7
    return perf_counter() - started


class SpeedProbe:
    """The probe unit times measured in one phase of a run."""

    def __init__(self) -> None:
        self.units_s: list[float] = []

    def sample(self, interval_s: float) -> None:
        """Probe for ``PROBE_SHARE`` of ``interval_s`` (at least one unit),
        with the collector off so the program's heap does not weigh in."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            spent = 0.0
            while not spent or spent < PROBE_SHARE * interval_s:
                unit = _unit()
                self.units_s.append(unit)
                spent += unit
        finally:
            if enabled:
                gc.enable()

    def factor(self) -> float:
        """Reference unit time over the median unit time (< 1 on a host
        slower than the reference)."""
        return REFERENCE_UNIT_S / statistics.median(self.units_s)
