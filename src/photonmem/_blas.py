"""Run photonmem's numerics on one OpenBLAS thread.

The stack's BLAS calls are small (``x.T @ x`` on 1024-row blocks, gemv on
one mode, the MLE's 6 x 6 Newton systems), so a second thread barely speeds
them up, while a woken OpenBLAS pool spins its workers through the
einsum-only code that follows: on a 2-core host ``estimate_frames`` used
about twice its wall time in CPU.  photonmem needs numpy alone, so the one
pool to pin is the OpenBLAS that numpy calls.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager

from numpy.linalg import _umath_linalg

#: thread-count symbols, ``{}`` standing for get/set: plain OpenBLAS, and the
#: scipy-openblas builds that numpy wheels ship (ILP64, suffix ``64_``)
_SYMBOLS = (
    "openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "scipy_openblas_{}_num_threads64_",
)

# The thread count is process-global, so the scope is too: the first entry
# saves and pins the pool, the last exit restores it, whatever thread they
# run on.
_lock = threading.Lock()
_depth = 0
_saved = 0


def _thread_functions(path: str):
    """``(get_num_threads, set_num_threads)`` of the OpenBLAS that the shared
    library at ``path`` links (dlsym searches its dependencies), or None."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for name in _SYMBOLS:
        get = getattr(lib, name.format("get"), None)
        put = getattr(lib, name.format("set"), None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@functools.cache
def _pool():
    """The thread functions of numpy's OpenBLAS, or None for another BLAS."""
    return _thread_functions(_umath_linalg.__file__)


@contextmanager
def single_blas_thread():
    """Pin numpy's OpenBLAS pool to one thread; restore its count on exit.

    Nested entries share the outermost one's saved count.  Usable as a
    decorator.  A no-op where numpy calls no OpenBLAS.
    """
    global _depth, _saved
    pool = _pool()
    with _lock:
        if pool is not None and _depth == 0:
            _saved = pool[0]()
            pool[1](1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if pool is not None and _depth == 0:
                pool[1](_saved)
