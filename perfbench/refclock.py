"""Fixed loops that measure how fast the host runs now.

The 2-vCPU VM that defined the benchmark changes speed by up to 1.8x, for
stretches of a second to several minutes, and CPU time tracks wall time
(it is not preemption). The change hits interpreter-bound work much more
than numpy's array loops. A job's median time in a run therefore depends
on the stretch the run fell in. The benchmark measures the host's
slowness just before and just after every job (and around every set-up
import) and divides the job's time by the mean of the two: the quotient
is the job's time in reference seconds, what it takes where the loops
take their reference times.

Slowness is a weighted mean of two loop times, each over its reference
time: a pure-Python loop and a numpy loop. The weight of the Python loop
is the workload's share of interpreter-bound work (`workloads.
PYTHON_SHARE`). The Python loop uses the stdlib only and nothing that
`stratalg` imports, so timing it before an import does not preload part
of the import; numpy is imported only when its loop is used.
"""

import time

REF_S = 0.001  # about the Python loop's time on an unloaded core of that VM
NUMPY_REF_S = 0.001  # the same for the numpy loop
REPEATS = 3

_ARRAY = []


def loop():
    """Integer arithmetic, tuple keys and dict stores: the interpreter
    work of exact scalar code, with no dependence on `stratalg`."""
    table = {}
    x = 1
    for i in range(1, 3600):
        x = x * 48271 % 2147483647
        table[(i & 63, x & 7)] = x
    return sum(table.values())


def numpy_loop():
    """Elementwise int64 arithmetic, a comparison and bit packing over a
    1.5 MB array: the kind of work of the commutation kernel."""
    import numpy as np
    if not _ARRAY:
        _ARRAY.append(np.arange(192 * 1024, dtype=np.int64)
                      .reshape(192, 1024))
    a = _ARRAY[0]
    return np.packbits((a * 7 + 3) % 13 == 0, axis=1)


def fastest_s(fn):
    """Fastest of REPEATS timings of `fn`, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t)
    return best


def slowness(python_share=1.0):
    """The host's slowness now: 1 where both loops take their reference
    times, 2 where the weighted mean of their times is twice that."""
    value = python_share * fastest_s(loop) / REF_S
    if python_share < 1:
        value += (1 - python_share) * fastest_s(numpy_loop) / NUMPY_REF_S
    return value


def ref_seconds(seconds, before, after):
    """`seconds` measured between two slowness samples, in reference
    seconds."""
    return seconds * 2 / (before + after)
