"""Deterministic discrete-event simulation substrate.

The paper evaluates DECAF on a Java prototype with *artificially induced
network delays* (section 5.2.2).  This package is our substitute substrate:
a deterministic discrete-event kernel (:mod:`repro.sim.scheduler`) plus a
simulated point-to-point network (:mod:`repro.sim.network`) that models the
paper's channel and nothing else: configurable latency, FIFO and reliable
per ordered site pair, fail-stop failures with failure notification (the
ISIS-style assumption of paper section 3.4), and partitions that stop new
sends only.

Simulated time is a ``float`` in milliseconds; all randomness flows through
a seeded RNG so every run is exactly reproducible.
"""

from repro.sim.scheduler import Scheduler, ScheduledEvent
from repro.sim.network import (
    Network,
    LatencyModel,
    FixedLatency,
    UniformLatency,
    NormalLatency,
    NetworkStats,
)

__all__ = [
    "Scheduler",
    "ScheduledEvent",
    "Network",
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "NormalLatency",
    "NetworkStats",
]
