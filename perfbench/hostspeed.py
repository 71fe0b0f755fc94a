"""Host-speed reference: a fixed computation that never touches dwfnet.

On a shared host the CPU runs slower or faster by up to 1.5x in phases that
last longer than a benchmark run, so raw wall times of the same code spread
past any useful bound from run to run.  The benchmark therefore samples this
reference beside every timed pass (interleaved with its items, or just before
and after a child process) and reports times at the nominal host speed, the
speed at which one reference sample takes ``NOMINAL_S`` seconds:

    scaled time = measured time * NOMINAL_S / median(reference samples)

The reference mixes interpreted Python (a loop over ints and a dict) with
small numpy calls and a complex matrix product, the two kinds of work
dwfnet's layers do.  Work dominated by process start-up (a CLI call) takes
the process reference instead: a fresh interpreter that runs this file,
which imports numpy and takes ten samples, timed from spawn to exit, with
its own nominal time ``PROCESS_NOMINAL_S``.  No dwfnet code runs inside
either, so a change to the program moves the scaled times exactly as it
moves the raw ones.

    python3 perfbench/hostspeed.py   # prints ten reference samples
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

NOMINAL_S = 0.0025  # a sample takes 1.7-2.8 ms on a 2-core Xeon KVM guest
PROCESS_NOMINAL_S = 0.2  # a process sample takes 0.15-0.25 s there
PROCESS_SAMPLES = 10
_A = np.random.default_rng(0).standard_normal((96, 96)) + 0j


def _reference() -> None:
    acc, table = 0, {}
    for i in range(6000):
        acc += (i * 7) % 13
        table[i % 97] = acc
    m = _A
    for _ in range(6):
        m = (m @ _A) * 0.01
    v = np.arange(64.0)
    for _ in range(300):
        v = np.abs(v - 1.0)


def sample(count: int = 1) -> list:
    """Durations of `count` runs of the reference, in seconds."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        _reference()
        out.append(time.perf_counter() - t0)
    return out


def sample_process(count: int = 1) -> list:
    """Spawn-to-exit durations of `count` fresh interpreters running this file."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls for the exit in steps of up to 50 ms
        subprocess.run([sys.executable, __file__], stdout=subprocess.DEVNULL, check=True)
        out.append(time.perf_counter() - t0)
    return out


def scale(samples, nominal: float = NOMINAL_S) -> float:
    """Factor from times measured beside `samples` to the nominal host speed."""
    return nominal / statistics.median(samples)


if __name__ == "__main__":
    print(sample(PROCESS_SAMPLES))
