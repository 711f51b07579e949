"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's host is a shared VM whose cores slow down by up to 1.6x
for seconds to minutes at a time, whatever runs on them. The train worker
runs this kernel on its own core before the first iteration and after
each one, so every iteration has a reading of the host's speed taken on
both sides of it. Dividing a measured time by the kernel's slowdown
against REF_S gives the time the same work takes at the reference speed
(see README.md, Host-adjusted metrics).

The kernel mixes what haarlab spends its time on: interpreted Python,
per-step numpy calls on small vectors, and matrix products on a batch.
It uses no haarlab code, so a change to the program cannot move it.
"""

from __future__ import annotations

import functools
import gc
import time

import numpy as np

# A typical reading on a 2-vCPU Xeon (Python 3.11, numpy 2.4, one OpenBLAS
# thread); readings there ranged over 4.4-7.3 ms. It is only a scale, fixed
# so that adjusted times read as seconds on that host at that speed.
REF_S = 0.0065
PASSES = 2  # a reading is the fastest of this many passes, so that one
            # interruption by another process does not count as a slow host


@functools.cache
def _operands() -> tuple[np.ndarray, ...]:
    """Made at the first pass, so importing this module costs a process's
    set-up nothing. The batch product writes into a buffer made here: a
    fresh 1 MB result each time would time the allocator, which ran 2x
    slower early in a process than after an iteration of haarlab."""
    rng = np.random.default_rng(0)
    return (rng.standard_normal((64, 26)) / 8.0, rng.standard_normal((64, 64)) / 8.0,
            rng.standard_normal((64, 2000)), np.empty((64, 2000)))


def reading() -> tuple[float, float, float]:
    """The host's speed now: (the fastest pass's wall seconds, and the wall
    and CPU seconds all passes took together)."""
    passes = [run() for _ in range(PASSES)]
    return (min(w for w, _ in passes), sum(w for w, _ in passes),
            sum(c for _, c in passes))


def run() -> tuple[float, float]:
    """One pass of the kernel: (wall seconds, CPU seconds)."""
    w_in, w_hid, batch, out = _operands()
    collecting = gc.isenabled()
    gc.disable()
    wall, cpu = time.perf_counter(), time.process_time()
    acc = 0.0
    for i in range(12000):
        acc += i * 0.5
    x = np.ones(26)
    for _ in range(200):
        h = np.tanh(w_hid @ np.tanh(w_in @ x))
        x[0] = h[0]
    for _ in range(4):
        np.tanh(np.matmul(w_hid, batch, out=out), out=out)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    if collecting:
        gc.enable()
    return wall, cpu
