"""Runtime performance knobs.

The model's matrices are small (tens by hundreds), so OpenBLAS threading
adds synchronization without saving time: on a 2-core host, a train step
took the same wall time with one thread or two, but twice the CPU time
with two.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

# thread setter/getter symbols of numpy's bundled OpenBLAS, newest first
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def limit_blas_threads(n: int = 1) -> bool:
    """Pin BLAS to n threads; returns whether a BLAS thread pool was found and pinned.

    Calls the thread setter of the OpenBLAS bundled in numpy's wheel
    (`numpy.libs`) and reads the count back; a numpy with another BLAS is
    left as it is. Environment variables such as OPENBLAS_NUM_THREADS are
    no use here: OpenBLAS reads them once, when numpy is imported.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "lib*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for setter, getter in _OPENBLAS_SYMBOLS:
            if hasattr(lib, setter) and hasattr(lib, getter):
                set_threads, get_threads = getattr(lib, setter), getattr(lib, getter)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                set_threads(n)
                return get_threads() == n
    return False
