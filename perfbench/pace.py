"""The host's pace, sampled while a run measures.

On a shared host the speed of one core swings by up to 2x over minutes as
other tenants load the machine, and a run of a few dozen seconds cannot
average that out: ten runs of the same code spread by 0.15-0.3 of their
median.  While a run measures, a SIGALRM handler times a fixed kernel every
INTERVAL seconds, so the kernel is sampled at the same moments as the
program, long queries included.  The kernel uses only the standard library,
so a change to the package cannot move it: products and gcds of 400-bit
integers, which is where Fraction arithmetic spends its time.  Of four
kernels tried on a 2-vCPU shared host (this one, Fraction products into a
small dict, Fraction lookups in a dict of 45k entries, interpreter-bound
method calls) it tracked the workloads' swings best: over 36 s windows of
verify_grid and hodge_queries the spread fell from 0.23-0.27 to 0.07-0.08.

A run reports its times scaled to the reference pace: raw seconds times
REFERENCE_S over the run's median kernel time.  :func:`clock` leaves out the
time the handler takes, so timings of the program do not include it.
"""

from __future__ import annotations

import random
import signal
import statistics
from math import gcd
from time import perf_counter

INTERVAL = 0.5
# the kernel's median time on a 2.1 GHz Xeon vCPU under CPython 3.11
REFERENCE_S = 0.0053

_rng = random.Random(5)
_INTS = [_rng.getrandbits(400) | 1 for _ in range(60)]
del _rng

samples: list = []
spent = 0.0


def kernel():
    total = 0
    for a in _INTS:
        for b in _INTS[:20]:
            total += gcd(a * b + 1, a - b)
    return total


def _sample(signum=None, frame=None):
    global spent
    start = perf_counter()
    kernel()
    end = perf_counter()
    samples.append(end - start)
    spent += perf_counter() - start


def clock() -> float:
    """perf_counter() less the time spent sampling the pace."""
    while True:
        before = spent
        now = perf_counter()
        if spent == before:
            return now - before


def start():
    """Sample once now, then every INTERVAL seconds until :func:`stop`."""
    samples.clear()
    _sample()
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)


def stop():
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scale() -> float:
    """Factor taking this run's seconds to seconds at the reference pace."""
    return REFERENCE_S / statistics.median(samples)
