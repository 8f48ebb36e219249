"""The host-speed probe that steadies the benchmark's time metrics.

The benchmark runs on shared virtual CPUs whose speed changes by up to
2x in phases of one to tens of seconds, as other tenants come and go.
The slowdown is even over interpreter work and leaves no gaps in the
clock, so neither wall nor CPU time can tell it from a slower program.
So each measurement also times a fixed piece of interpreter work, the
probe, while it runs, and the benchmark reports the measured time at
the reference speed, the one at which the probe takes REFERENCE_S:

    scaled = (measured - time spent probing) * REFERENCE_S / mean probe time

A program that gets faster or slower moves the measured time and not
the probe, so the scaled time moves with it.

This module imports nothing else, so the set-up snippet can probe
before it imports the package.
"""
import time

REFERENCE_S = 1e-3
LOOPS = 4000  # about 1 ms on an uncontended 2-vCPU Xeon VM


def probe() -> float:
    """CPU seconds the probe work takes now. Thread CPU time leaves out
    the time another process of this machine holds the vCPU."""
    t0 = time.thread_time()
    d = {}
    for i in range(LOOPS):
        k = "k%d" % (i % 50)
        d[k] = d.get(k, 0) + i
    return time.thread_time() - t0


def scale(measured_s: float, probes) -> float:
    """`measured_s`, which includes the probes, at the reference speed."""
    if not probes:
        raise ValueError("no probe was taken during the measurement")
    spent = sum(probes)
    return (measured_s - spent) * REFERENCE_S * len(probes) / spent
