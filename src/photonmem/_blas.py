"""Run photonmem's numerics on one OpenBLAS thread.

The stack's BLAS calls are small (``x.T @ x`` on 1024-row blocks, gemv on
one mode, the MLE's 6 x 6 Newton systems), so a second thread barely speeds
them up, while a woken OpenBLAS pool spins its workers through the
einsum-only code that follows: on a 2-core host ``estimate_frames`` used
about twice its wall time in CPU.  numpy and scipy each map their own
OpenBLAS, scipy's only at the first import of a scipy module that needs it
(in photonmem, at the first decay fit), so every entry pins every library
mapped so far.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager

#: thread-count symbols, ``{}`` standing for get/set: plain OpenBLAS, and the
#: scipy-openblas builds that numpy (ILP64, suffix ``64_``) and scipy ship
_SYMBOLS = (
    "openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "scipy_openblas_{}_num_threads64_",
)

# The thread count is process-global, so the scope is too: every entry saves
# and pins the pools not yet saved, the last exit restores them all, whatever
# thread they run on.
_lock = threading.Lock()
_depth = 0
#: library path -> (set_num_threads, the count to restore)
_saved: dict[str, tuple[object, int]] = {}


def _openblas_paths() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process (Linux)."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    paths = {f[5].strip() for f in fields if len(f) == 6}
    return sorted(p for p in paths if "openblas" in p.rsplit("/", 1)[-1])


def _pools() -> dict[str, tuple[object, object]]:
    """``{path: (get_num_threads, set_num_threads)}`` of every mapped OpenBLAS."""
    pools = {}
    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _SYMBOLS:
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools[path] = (get, put)
                break
    return pools


@contextmanager
def single_blas_thread():
    """Pin every OpenBLAS pool to one thread; restore the counts on exit.

    A nested entry pins the pools mapped since the outer ones, so code that
    loads a BLAS library inside an open scope opens a nested scope after the
    import.  Usable as a decorator.  A no-op where no OpenBLAS is found.
    """
    global _depth
    with _lock:
        for path, (get, put) in _pools().items():
            if path not in _saved:
                _saved[path] = (put, get())
                put(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for put, n in _saved.values():
                    put(n)
                _saved.clear()
