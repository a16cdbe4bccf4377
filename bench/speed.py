"""Machine-speed references for the benchmark's times.

On a shared machine, neighbours slow this process down by up to half
for stretches of seconds to minutes, on either core.  A wol operation
slows down like a fixed kernel of the same kind of work timed next to
it.  Measured 5 s at a time, raw class-query and dim-120 module-chain
times varied by 40-55 %, and their ratio to such a kernel varied by
4-10 %.  So the benchmark times a kernel next to its operations and
reports each time at reference speed: the measured time, times the
kernel's nominal time over its time at that moment.  The kernels use no
wol code, so a change to wol moves scaled times exactly as it moves raw
ones.

Two kernels, because interpreted Python and numpy's integer matmul
slow down differently: ``python`` (tuples and dicts, like the
combinatorics) and ``numpy`` (an int64 matmul, like the Hecke
generator products).

Import time has a reference of its own, ``IMPORT_MODULES``: neither
kernel tracks it (in a slow phase the Python kernel took twice its
quiet time while wol's import took one and a half times).
"""

from __future__ import annotations

from itertools import permutations
from time import perf_counter

import numpy as np

_PERMS = tuple(permutations(range(1, 7)))[:200]
# 160 x 160 int64, the size of the module generators' products: a 64 x 64
# kernel fits in cache and tracked dim-240 chains half as well.
_MATRIX = np.arange(160 * 160, dtype=np.int64).reshape(160, 160) % 3


def _python_kernel() -> int:
    counts: dict[tuple, int] = {}
    for u in _PERMS:
        v = tuple(u[x - 1] for x in u)
        counts[v] = counts.get(v, 0) + 1
    return len(counts)


def _numpy_kernel() -> int:
    return int((_MATRIX @ _MATRIX)[0, 0])


# kernel, and its best time in a quiet phase on a shared 2-core Intel
# Xeon (Python 3.11.7, numpy 2.4.6): scaled times are times on that machine.
KERNELS = {
    "python": (_python_kernel, 150e-6),
    "numpy": (_numpy_kernel, 2.2e-3),
}


# Standard-library modules, nearly all pure Python, imported after numpy
# and wol in a fresh interpreter: loading them is the same kind of work
# as loading wol.  None of them, nor any module they load, is loaded by numpy, wol
# or the workloads, so the two imports do not share work.  Should wol
# come to import one, this import gets faster and scaled set-up times
# read higher, never lower.  Over eight sets of 20 probes, the set
# medians of wol's raw import time varied by 42 %, those of its ratio to
# this import by 7 %.
IMPORT_MODULES = (
    "logging", "statistics", "fractions", "difflib", "concurrent.futures",
    "plistlib", "html.parser", "configparser", "sqlite3", "csv", "shlex", "uuid",
)
IMPORT_NOMINAL_S = 16e-3  # their import in a quiet phase, on the machine of KERNELS


def reference_seconds(kind: str, repeats: int = 3) -> float:
    """The kernel's fastest time over ``repeats`` back-to-back runs."""
    kernel = KERNELS[kind][0]
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


def nominal_seconds(kind: str) -> float:
    return KERNELS[kind][1]
