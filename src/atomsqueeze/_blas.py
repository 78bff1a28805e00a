"""numpy's bundled OpenBLAS, reached through ctypes: its kernel name and a
one-thread pin for dense algebra whose bits must not depend on the BLAS
thread count.

numpy's Linux wheels ship OpenBLAS as ``numpy.libs/libscipy_openblas64_-*``
and load it with numpy itself; opening that file again returns the loaded
library, so a thread count set here is the one numpy's products and
``numpy.linalg`` use. Where no such library is found (another BLAS, a
numpy built from source, other platforms) the handle is None: the pin
does nothing and the kernel name is not known. The handle is opened on
first use, never at ``import atomsqueeze``.
"""

from __future__ import annotations

import contextlib
import functools
from pathlib import Path

import numpy as np


@functools.cache
def openblas():
    """ctypes handle of numpy's bundled OpenBLAS, or None if there is none
    with the thread and kernel-name entry points."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(str(path))
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
            corename = lib.scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        get_threads.restype = ctypes.c_int
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        corename.restype = ctypes.c_char_p
        return get_threads, set_threads, corename
    return None


@contextlib.contextmanager
def one_thread():
    """Run the body at one OpenBLAS thread, then restore the caller's count,
    also when the body raises. The count is process-wide, so BLAS calls
    of other Python threads meanwhile run at one thread too. Does nothing
    where ``openblas`` finds no library."""
    lib = openblas()
    if lib is None:
        yield
        return
    get_threads, set_threads, _ = lib
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def describe() -> dict:
    """The OpenBLAS kernel set in use (None if unknown) and whether
    ``one_thread`` can pin the thread count."""
    lib = openblas()
    if lib is None:
        return {"corename": None, "one_thread_pin": False}
    return {"corename": lib[2]().decode("ascii"), "one_thread_pin": True}
