"""Machine-speed probe, for timing on a shared host.

A virtual CPU shared with other tenants runs the same Python code up to
twice as slowly at some moments as at others, and a slow spell can last
longer than a whole benchmark run, so neither repeating a call nor taking
medians removes it.  The probe measures the momentary speed alongside each
call instead: a SIGALRM every ``INTERVAL`` seconds times one of two fixed
probes in turn, a pure-Python arithmetic loop and a networkx planarity test
of an 8-cycle.  Since the work a call gets done is its duration integrated
against speed, its time at reference speed is

    measured seconds x geometric mean over the probes of
        (reference probe seconds x mean(1 / probe seconds))

over the samples taken during the call.  A sample stretched by the
virtual CPU being descheduled has a large time and so hardly moves the
mean.  Sampling costs about 1.5% of a call and runs on both sides of any
comparison alike; the probes are benchmark code and a library the package
cannot change.
"""

from __future__ import annotations

import math
import signal
import time

INTERVAL = 0.02


def _arithmetic() -> int:
    s = 0
    for i in range(2000):
        s += i * i % 7
    return s


def _planarity() -> bool:
    # imported here so that a set-up timing under the arithmetic probe
    # alone still pays for the first networkx import
    import networkx as nx

    return nx.check_planarity(nx.cycle_graph(8))[0]


#: (probe, its time at the usual full speed of a 2-core Xeon (Sapphire
#: Rapids) KVM guest with Python 3.11.7 and networkx 3.6.1); the reference
#: times only set the unit.
ARITHMETIC = (_arithmetic, 1.4e-4)
PLANARITY = (_planarity, 4.0e-4)


class SpeedProbe:
    """Context manager sampling the probes' durations while it is open."""

    def __init__(self, probes=(ARITHMETIC, PLANARITY)):
        self.probes = probes
        self.samples: list[list[float]] = [[] for _ in probes]
        self._turn = 0

    def _sample(self, signum, frame) -> None:
        k = self._turn
        self._turn = (k + 1) % len(self.probes)
        t0 = time.perf_counter()
        self.probes[k][0]()
        self.samples[k].append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> tuple[int, ...]:
        """Position to pass to ``factor`` for the samples taken after now."""
        return tuple(len(s) for s in self.samples)

    def factor(self, since: tuple[int, ...] | None = None) -> float:
        """Reference speed over the speed the probes saw since ``since``
        (over all samples of a probe that took none since)."""
        logs = []
        for k, (_, ref) in enumerate(self.probes):
            taken = self.samples[k][since[k] if since else 0 :] or self.samples[k]
            if taken:
                logs.append(math.log(ref * math.fsum(1 / s for s in taken) / len(taken)))
        return math.exp(math.fsum(logs) / len(logs)) if logs else 1.0
