"""A fixed CPU-speed reference that shares no code with aplattice.

The benchmark's times are scaled by how fast this kernel runs next to them.
On a shared virtual machine the speed of the CPU drifts by 5-15 % over
minutes and at times by a factor 1.8, and every operation of a pass slows
by about the same factor; the kernel, timed in the same process right
before and after the pass, slows with it.  A time `t` measured while the
kernel took `k` seconds per call is reported as `t * REFERENCE_S / k`: the
time it would take on a CPU that runs the kernel in REFERENCE_S.

The kernel is pure standard-library Python (frozensets, tuples, dicts,
small and big integers), so no change to aplattice or numpy moves it: a
slower program shows in full, only the machine's drift is divided out.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.025  # seconds per kernel call that define a reference second
CALLS = 10  # kernel calls per measurement
REPS = 4000  # loop iterations per kernel call


def kernel() -> int:
    acc = 0
    seen: dict[tuple[int, int], int] = {}
    big = 3**200
    for i in range(REPS):
        s = frozenset(range(i % 17, i % 17 + 12, (i % 3) + 1))
        t = frozenset(range(i % 5, i % 5 + 20, 2))
        u = s | t
        acc += len(u & t) + (s <= u)
        key = (i % 97, len(u))
        seen[key] = seen.get(key, 0) + 1
        acc += sum(x * x % 7 for x in u)
        acc ^= hash(tuple(sorted(u))) & 0xFFFF
        acc += (big * (i + 1)) % 1000003
    return acc + len(seen)


def measure() -> float:
    """Mean seconds per kernel call over CALLS calls."""
    t0 = time.perf_counter()
    for _ in range(CALLS):
        kernel()
    return (time.perf_counter() - t0) / CALLS
