"""A fixed reference kernel, timed next to every measured call.

The benchmark's machine shares its CPUs with other tenants, whose load slows
all work on it by up to 1.8x for minutes at a time. A timing divided by the
kernel's time, taken just before and after it, cancels that slowdown, while
a change in momalign moves only the numerator. The kernel uses no momalign
code and the kinds of work momalign does: interpreted Python loops,
numpy operations on small arrays and a BLAS product at C=128.

Timings scaled this way are reported for a CPU on which one kernel run
takes ``KERNEL_MS``: ``scaled_ms = wall_ms * KERNEL_MS / kernel_ms``.
"""

from __future__ import annotations

import time

import numpy as np

#: The kernel's time, in ms, on the CPU the scaled timings describe: about
#: its fastest time on the reference machine (2 vCPUs, x86_64) when quiet.
KERNEL_MS = 20.0

_rng = np.random.default_rng(12345)
_SMALL = _rng.standard_normal((24, 16, 16))
_LARGE = _rng.standard_normal((128, 128)) / 16.0
_EXPECTED: float | None = None


def _work() -> float:
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(60000):
        acc += (i % 7) * 0.5
        table[i & 255] = acc
    for _ in range(48):
        for m in _SMALL:
            acc += float(np.trace(m @ m.T)) * 1e-6
        acc += float(np.einsum("kij,kij->", _SMALL, _SMALL)) * 1e-6
    y = _LARGE
    for _ in range(30):
        y = 1.5 * _LARGE - 0.5 * (y @ y @ _LARGE)
        y /= np.abs(y).max()
    return acc + float(y.sum())


def kernel_ms() -> float:
    """Wall time of one kernel run, in ms. Raises if its result changes."""
    global _EXPECTED
    t0 = time.perf_counter()
    value = _work()
    ms = (time.perf_counter() - t0) * 1e3
    if _EXPECTED is None:
        _EXPECTED = value
    elif value != _EXPECTED:
        raise RuntimeError(f"reference kernel gave {value!r}, expected {_EXPECTED!r}")
    return ms
