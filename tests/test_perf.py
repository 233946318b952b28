"""BLAS thread pinning."""

import ctypes
import glob
import os

import numpy as np
import pytest

from insgen import perf


def openblas_thread_getter():
    """The thread-count getter of numpy's bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter
    return None


def test_limit_blas_threads_pins_openblas():
    getter = openblas_thread_getter()
    if getter is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    before = getter()
    try:
        assert perf.limit_blas_threads(1) is True
        assert getter() == 1
    finally:
        perf.limit_blas_threads(before)
