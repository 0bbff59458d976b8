"""Times at nominal host speed, from a fixed reference task sampled alongside.

On a shared host the same CPU-bound work can take twice as long from one
second to the next, and a slow phase can outlast a whole run.  ``timed``
runs an operation while a timer signal interrupts it every
``SAMPLE_INTERVAL_S`` to run a fixed reference task of about 1.5 ms; the
task also runs right before and right after.  The operation's own time
(the handler's time taken out) divided by the mean reference time, times
``REFERENCE_S``, is its time at the nominal speed at which the task takes
``REFERENCE_S``.  That ratio stays steady while the host's speed drifts.

The task imitates the program's mix (dict updates, float arithmetic) and
uses no code of the program, so a change to the program does not change it.
"""

from __future__ import annotations

import signal
from time import perf_counter
from typing import Callable

# Nominal time of reference(): about its time on an otherwise idle
# 2 GHz Xeon vCPU under CPython 3.11.
REFERENCE_S = 0.0015
SAMPLE_INTERVAL_S = 0.05


def reference() -> float:
    """Run the fixed task once; returns its wall time in seconds."""
    t0 = perf_counter()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(6_000):
        k = i & 255
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += i * 1.0001
    return perf_counter() - t0


def timed(op: Callable[[], object], sample: bool = True) -> tuple[object, dict]:
    """Run ``op()``; returns its result and its raw and normalized times.

    ``seconds`` excludes the time spent in the sampling handler.  Pass
    ``sample=False`` when ``op`` waits on a child process on the same CPU:
    a reference sample taken while the child is runnable shares the CPU
    with it and reads about half speed, so only the reference runs right
    before and right after count.
    """
    samples = [reference()]

    def handler(signum, frame) -> None:
        samples.append(reference())

    previous = None
    if sample:
        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    try:
        t0 = perf_counter()
        result = op()
        elapsed = perf_counter() - t0
    finally:
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
    seconds = elapsed - sum(samples[1:])
    samples.append(reference())
    mean_ref = sum(samples) / len(samples)
    return result, {
        "seconds": seconds,
        "normalized": seconds / mean_ref * REFERENCE_S,
        "samples": len(samples),
    }
