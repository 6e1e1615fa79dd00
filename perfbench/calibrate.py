"""A fixed CPU kernel, timed beside the measured work, that factors out the VM's speed.

On a shared VM the CPU runs at a speed that drifts by a third within
minutes, and process CPU time drifts with wall time (on the VM this was
tuned on they agreed to 0.1%), so neither reading alone compares two runs.  Each benchmark
phase therefore times this kernel between its frames, outside their
timed windows, and reports its times at the reference speed:

    time at reference speed = measured time * REF_NS / median kernel time

The kernel mixes the interpreter loop, DEFLATE and numpy passes that sfix
itself spends its time in.  It depends on no sfix code, so a change to the
program moves a scaled time by the same share as the measured one.
"""

from __future__ import annotations

import ctypes
import zlib
from statistics import median

import numpy as np

from spans import NullTracer, Tracer, now_ns

REF_NS = 4_000_000  # the kernel's time on the reference CPU: a round figure, within the 2.5-6 ms
# it took on the 2-vCPU VM it was tuned on

_RNG = np.random.default_rng(20240430)
_BLOB = _RNG.integers(0, 64, 48_000, dtype=np.uint8).tobytes()  # compressible, like a diff
_A = _RNG.integers(0, 256, 1 << 19, dtype=np.uint8)
_B = _A.copy()


def kernel_ns() -> int:
    """Time one run of the kernel."""
    started = now_ns()
    total = 0
    for i in range(25_000):
        total += i & 7
    zlib.compress(_BLOB, 6)
    for _ in range(4):
        np.copyto(_B, _A)
        bool((_A != _B).any())
    return now_ns() - started


class Speed:
    """Kernel samples of one phase, and the scale that maps its times to REF_NS."""

    def __init__(self, tracer: Tracer | NullTracer = NullTracer()) -> None:
        self.samples: list[int] = []
        self._tracer = tracer

    def sample(self, times: int = 1) -> None:
        with self._tracer.span("harness.calibrate"):  # kept out of the layer it interrupts
            self.samples += [kernel_ns() for _ in range(times)]

    def scale(self) -> float:
        """REF_NS / median kernel time: below 1 on a CPU faster than the reference."""
        return REF_NS / median(self.samples)


def pin_allocator() -> None:
    """Fix glibc malloc's thresholds for this process and its threads.

    By default glibc moves its mmap and trim thresholds with the allocation
    history, so runs of the same code settle either on fresh pages for
    every frame-sized buffer or on a reused heap, which differ by up to 2x
    in the short phases.  Pinned, frame-sized buffers always come from one
    heap that is never trimmed: the steady state of a long-running process.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc: nothing to pin
        return
    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, M_ARENA_MAX = -1, -3, -8
    mallopt(M_ARENA_MAX, 1)
    mallopt(M_MMAP_THRESHOLD, 32 << 20)  # glibc's largest; the 50 MB clip buffers stay mmapped
    mallopt(M_TRIM_THRESHOLD, 1 << 30)
