"""numpy's bundled OpenBLAS held at one thread.

A multi-threaded gemm splits its work by the thread count, and the split
changes the order of its sums, so the network weights, predictions and
attributions would depend on the cores of the machine. The network stages
run under ``one_thread`` and put the other cores to work themselves
(``explain.explain_frames``, ``mlp.mlp_train``), in ways that change no bit.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np


@lru_cache(maxsize=None)
def _openblas():
    """(get, set) of the thread count of the OpenBLAS in numpy's wheel, or None."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        lib = ctypes.CDLL(str(path))
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def one_thread():
    """Hold numpy's BLAS at one thread, restoring the count on exit.

    Yields whether it could: another BLAS build keeps its own thread count.
    Also usable as a function decorator.
    """
    lib = _openblas()
    if lib is None:
        yield False
        return
    get, set_ = lib
    before = get()
    set_(1)
    try:
        yield True
    finally:
        set_(before)
