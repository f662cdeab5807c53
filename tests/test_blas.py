import numpy as np
import pytest

from photonmem import _blas
from photonmem._blas import single_blas_thread


@pytest.fixture
def pools():
    """numpy's OpenBLAS pool, set to 2 threads for the test."""
    pool = _blas._pool()
    if pool is None:
        pytest.skip("numpy calls no OpenBLAS")
    get, put = pool
    saved = get()
    put(2)
    yield [pool]
    put(saved)


def _counts(pools):
    return [get() for get, _ in pools]


def test_pins_every_pool_and_restores(pools):
    before = _counts(pools)
    with single_blas_thread():
        assert _counts(pools) == [1] * len(pools)
    assert _counts(pools) == before


def test_restores_after_exception(pools):
    before = _counts(pools)
    with pytest.raises(RuntimeError):
        with single_blas_thread():
            raise RuntimeError("boom")
    assert _counts(pools) == before


def test_nested_scopes(pools):
    before = _counts(pools)
    with single_blas_thread():
        with single_blas_thread():
            assert _counts(pools) == [1] * len(pools)
        assert _counts(pools) == [1] * len(pools)
    assert _counts(pools) == before


def test_decorator_pins_and_keeps_name(pools):
    @single_blas_thread()
    def inside():
        return _counts(pools)

    before = _counts(pools)
    assert inside() == [1] * len(pools)
    assert inside.__name__ == "inside"
    assert _counts(pools) == before


def test_numpy_pool_found():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pytest.skip("numpy does not report its BLAS")
    if "openblas" not in blas:
        pytest.skip("numpy is not built against OpenBLAS")
    assert _blas._pool() is not None


def test_no_openblas_is_a_no_op(monkeypatch):
    monkeypatch.setattr(_blas, "_pool", lambda: None)
    with single_blas_thread():
        pass

    @single_blas_thread()
    def f():
        return 3

    assert f() == 3


def test_library_without_thread_symbols_is_skipped():
    import ctypes.util

    libm = ctypes.util.find_library("m")
    if libm is None:
        pytest.skip("no libm to stand in for a BLAS without the symbols")
    assert _blas._thread_functions(libm) is None
