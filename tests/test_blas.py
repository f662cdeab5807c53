import textwrap

import pytest

from photonmem import _blas
from photonmem._blas import single_blas_thread

from conftest import run_fresh_python


@pytest.fixture
def pools():
    """Every OpenBLAS pool in the process, set to 2 threads for the test."""
    found = list(_blas._pools().values())
    if not found:
        pytest.skip("no OpenBLAS mapped into this process")
    saved = [get() for get, _ in found]
    for _, put in found:
        put(2)
    yield found
    for (_, put), n in zip(found, saved):
        put(n)


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


def test_numpy_and_scipy_pools_found():
    # numpy and scipy wheels each map their own OpenBLAS
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401

    paths = _blas._openblas_paths()
    if not paths:
        pytest.skip("no OpenBLAS mapped into this process")
    assert len(_blas._pools()) == len(paths)


def test_no_openblas_is_a_no_op(monkeypatch):
    monkeypatch.setattr(_blas, "_openblas_paths", lambda: [])
    with single_blas_thread():
        pass

    @single_blas_thread()
    def f():
        return 3

    assert f() == 3


def test_library_without_thread_symbols_is_skipped(monkeypatch):
    import ctypes.util

    libm = ctypes.util.find_library("m")
    if libm is None:
        pytest.skip("no libm to stand in for a BLAS without the symbols")
    monkeypatch.setattr(_blas, "_openblas_paths", lambda: [libm])
    assert _blas._pools() == {}
    with single_blas_thread():
        pass


def test_library_mapped_inside_an_open_scope_is_pinned_and_restored():
    # a fresh interpreter, so that scipy's OpenBLAS is first mapped inside
    # the outer scope, as it is at the deferred scipy.optimize import of a
    # sweep's first decay fit
    code = textwrap.dedent(
        """
        import numpy
        from photonmem import _blas
        from photonmem._blas import single_blas_thread

        before = set(_blas._openblas_paths())
        with single_blas_thread():
            import scipy.linalg
            new = [p for p in _blas._openblas_paths() if p not in before]
            if not new:
                raise SystemExit(77)
            get, put = _blas._pools()[new[0]]
            put(2)  # the pool's default count on a multi-core host
            with single_blas_thread():
                inside = get()
            still = get()
        print(inside, still, get())
        """
    )
    run = run_fresh_python(code)
    if run.returncode == 77:
        pytest.skip("importing scipy.linalg mapped no new OpenBLAS")
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["1", "1", "2"]
