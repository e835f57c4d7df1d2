import ctypes
import glob
import os

import numpy as np
import pytest


@pytest.fixture
def one_blas_thread():
    """numpy's OpenBLAS on one thread for the test, as the bitwise block
    claims assume; a BLAS whose thread count cannot be set runs as it is."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for get, put in (
            ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"),
        ):
            if hasattr(lib, get) and hasattr(lib, put):
                getattr(lib, get).restype = ctypes.c_int
                getattr(lib, put).argtypes = [ctypes.c_int]
                threads = getattr(lib, get)()
                getattr(lib, put)(1)
                try:
                    yield
                finally:
                    getattr(lib, put)(threads)
                return
    yield
