"""Synthetic homodyne frames: one excited temporal mode inside multimode vacuum.

Each frame is a length-N record of instantaneous quadratures on the 1 ns
acquisition grid, the grid every mode lies on (see :mod:`photonmem.modes`).
In the sqrt(1 ns) sample convention the vacuum contributes i.i.d. Gaussian noise
of variance 1/2 per bin; the excited mode's quadrature is drawn from the
photon-number mixture and swapped in along the mode direction, and optional
electronic noise ``e ~ N(0, sigma_e^2)^N`` adds to every sample::

    frame = w - (psi . w) psi + x_psi psi + e,   w ~ N(0, 1/2)^N

so a weighted integral with psi recovers ``x_psi + psi . e`` and any
orthogonal mode stays Gaussian of variance ``1/2 + sigma_e^2``.  Every frame
is digitised by an ADC and stored as the binary file format holds it, as
integer codes, which keeps file-mediated pipelines bit-identical to in-process
ones; a 16-bit ADC (quantisation noise ~4e-9 against the vacuum's 1/2) stands
in for an ideal detector.
"""

from __future__ import annotations

import math
import os
import shutil
import struct
from collections import deque
from collections.abc import Callable, Iterator
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import BinaryIO

import numpy as np

from . import seeds
from .fock import FockDiagonalState, apply_loss, hermite_functions
from .modes import ModeFunction, detuned_effective_mode, whole_ns

VACUUM_SIGMA = float(np.sqrt(0.5))
#: oscilloscope range: 10 vacuum standard deviations keeps the saturation
#: probability below 1e-12 for the states in scope
DEFAULT_FULL_SCALE = float(10 * VACUUM_SIGMA)

_MAGIC = b"HMFR"
_VERSION = 2
_HEADER = struct.Struct("<4sIQQddBBdQ")
#: the header's sample-interval slot: frames lie on the 1 ns grid, so
#: writers put 1.0 there and :func:`load_frames` reads no other value
_HEADER_DT_NS = 1.0
#: frames per random stream in :func:`synth_condition`, and the row block of
#: every pass over a frame matrix; part of the seeded output format, not a
#: tuning knob
FRAME_BLOCK = 1024
#: rows of a synthesis block drawn and finished while they are in cache; no
#: output byte depends on it
_SUB_BLOCK = 64


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    has one, else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


@dataclass(frozen=True)
class AdcSpec:
    """Mid-rise quantizer, 2^bits levels over +-full_scale: code k is level (k + 1/2) step."""

    bits: int = 8
    full_scale: float = DEFAULT_FULL_SCALE

    def __post_init__(self):
        if not 2 <= self.bits <= 16:
            raise ValueError(f"bits must lie in [2, 16], got {self.bits}")
        if not 0 < self.full_scale < float("inf"):
            raise ValueError("full_scale must be positive and finite")

    @property
    def step(self) -> float:
        return self.full_scale / (1 << (self.bits - 1))

    @property
    def code_range(self) -> tuple[int, int]:
        return -(1 << (self.bits - 1)), (1 << (self.bits - 1)) - 1

    @property
    def code_dtype(self) -> np.dtype:  # int8 up to 8 bits, int16 above
        return np.dtype("<i1" if self.bits <= 8 else "<i2")

    @cached_property
    def levels(self) -> np.ndarray:
        """float32 level of code k at index ``k mod 2^bits``."""
        k = np.fft.ifftshift(np.arange(self.code_range[0], self.code_range[1] + 1))
        return ((k + 0.5) * self.step).astype(np.float32)

    def encode(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Saturating codes floor(x / step) as float64, in a new array or in
        the float64 ``out``, which may be ``values`` itself: a code is an
        integer of magnitude at most 2^15, exact in float64."""
        k = np.divide(values, self.step, out=out, dtype=np.float64)
        np.floor(k, out=k)
        return np.clip(k, *self.code_range, out=k)

    def decode(self, codes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """float32 levels of integer codes, through :attr:`levels`."""
        return np.take(self.levels, codes, mode="wrap", out=out)


@dataclass(frozen=True)
class ImperfectionConfig:
    """Measurement imperfections, one field per ``[imperfections]`` key; the
    defaults switch each one off.

    displacement_re: real coherent amplitude alpha contaminating the excited
        mode (adds sqrt(2) alpha to its quadrature).
    detuning_rad_s, detuning_phase_rad: rotation of the excited mode relative
        to the LO frame; the embedded mode becomes its normalised in-phase
        projection, which carries only its weight of the photon (a loss,
        composed with extra_loss).
    extra_loss: transmission in [0, 1] applied to the photon statistics.
    electronic_noise_std: additive Gaussian detector noise per sample, in
        quadrature units (off by default: shot noise dominates by ~20 dB).
    """

    displacement_re: float = 0.0
    detuning_rad_s: float = 0.0
    detuning_phase_rad: float = 0.0
    extra_loss: float = 1.0
    electronic_noise_std: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.extra_loss <= 1.0:
            raise ValueError(f"extra_loss must lie in [0, 1], got {self.extra_loss}")
        if not 0.0 <= self.electronic_noise_std < float("inf"):
            raise ValueError(
                f"electronic_noise_std must be finite and non-negative, got {self.electronic_noise_std}"
            )
        for name in ("displacement_re", "detuning_rad_s", "detuning_phase_rad"):
            value = getattr(self, name)
            if isinstance(value, complex) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite real number, got {value}")


def _check_block(block: np.ndarray, adc: AdcSpec, what: str = "frame codes") -> None:
    """Raise ``ValueError``, naming ``what``, unless ``block`` holds codes in
    the ADC's range."""
    if block.min() < adc.code_range[0] or block.max() > adc.code_range[1]:
        raise ValueError(f"{what} outside the {adc.bits}-bit ADC's range")


def _array_blocks(data: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """``(lo, rows)`` for the ``FRAME_BLOCK`` row blocks of ``data``, as views."""
    for lo in range(0, len(data), FRAME_BLOCK):
        yield lo, data[lo : lo + FRAME_BLOCK]


class _FrameFile:
    """The data section of an open frame file, read one ``FRAME_BLOCK`` row
    block at a time.

    Holding the file open pins its contents: a file renamed over ``path``
    later is not read."""

    def __init__(self, fh: BinaryIO, path: str | Path, shape: tuple[int, int], dtype: np.dtype):
        self.fh, self.path, self.shape, self.dtype = fh, path, shape, dtype

    def row_blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """``(lo, rows)`` for each row block, read with ``readinto`` into a
        buffer that this pass owns and each next block overwrites; a file
        that ends before the block raises ``ValueError`` naming it."""
        m, n = self.shape
        buf = np.empty((min(FRAME_BLOCK, m), n), self.dtype)
        for lo in range(0, m, FRAME_BLOCK):
            rows = buf[: min(FRAME_BLOCK, m - lo)]
            self.fh.seek(_HEADER.size + lo * n * self.dtype.itemsize)
            # a buffered reader fills the whole buffer unless the file ends
            if self.fh.readinto(rows) != rows.nbytes:
                raise ValueError(f"{self.path}: the data section ends inside frames {lo}-{lo + len(rows) - 1}")
            yield lo, rows


@dataclass(frozen=True)
class FrameSet:
    """M x N frames of ADC codes on the 1 ns grid from ``t0``, plus ADC and
    seed metadata.

    The codes come from one of two sources: ``data``, an in-memory integer
    matrix of codes in the ADC's range, stored in :attr:`AdcSpec.code_dtype`,
    or the open frame file of a set that :func:`load_frames` returns, whose
    ``data`` is None.  Every pass reads them through :meth:`blocks`.
    Construction makes one pass that refuses codes outside the ADC's range
    and counts the saturated ones."""

    data: np.ndarray | None
    t0: float
    adc: AdcSpec
    master_seed: int
    file: _FrameFile | None = field(default=None, repr=False)
    #: share of samples at the ADC's two outermost codes
    adc_saturated_fraction: float = field(init=False)

    def __post_init__(self):
        # a file-backed set names its file in every error
        where = "" if self.file is None else f"{self.file.path}: "
        if not math.isfinite(self.t0):
            raise ValueError(f"{where}t0 must be finite, got {self.t0}")
        if self.file is None:
            arr = np.asarray(self.data)
            if arr.dtype.kind not in "iu":
                raise ValueError(f"frames must be integer codes, got {arr.dtype}")
            shape, source = arr.shape, _array_blocks(arr)
        else:
            shape, source = self.file.shape, self.file.row_blocks()
        if len(shape) != 2 or 0 in shape:
            raise ValueError(f"{where}frames must be a non-empty M x N matrix")
        # the codes as given: a cast first would wrap a code outside the
        # range into it
        lo, hi = self.adc.code_range
        saturated = 0
        for _, rows in source:
            _check_block(rows, self.adc, f"{where}frame codes")
            saturated += np.count_nonzero(rows == lo) + np.count_nonzero(rows == hi)
        object.__setattr__(self, "adc_saturated_fraction", saturated / (shape[0] * shape[1]))
        if self.file is None:
            data = np.ascontiguousarray(arr, dtype=self.adc.code_dtype)
            data.flags.writeable = False
            object.__setattr__(self, "data", data)

    def blocks(self, cols: slice = slice(None)) -> Iterator[tuple[int, np.ndarray]]:
        """``(lo, rows)``: the codes in columns ``cols`` of the frames from
        ``lo``, a ``FRAME_BLOCK`` of them or the rest.  In memory ``rows`` is
        a view of ``data``; from a file it lies in a buffer of this pass,
        which the next block overwrites."""
        source = _array_blocks(self.data) if self.file is None else self.file.row_blocks()
        for lo, rows in source:
            yield lo, rows[:, cols]

    @cached_property
    def frames(self) -> np.ndarray:
        """float32 quadratures: the ADC levels of the codes, decoded once."""
        out = np.empty((self.n_frames, self.n_samples), np.float32)
        for lo, rows in self.blocks():
            self.adc.decode(rows, out=out[lo : lo + len(rows)])
        out.flags.writeable = False
        return out

    @property
    def n_frames(self) -> int:
        return self._shape[0]

    @property
    def n_samples(self) -> int:
        return self._shape[1]

    @property
    def _shape(self) -> tuple[int, int]:
        return self.data.shape if self.file is None else self.file.shape

    def close(self) -> None:
        """Close the frame file of a loaded set; an in-memory set has none."""
        if self.file is not None:
            self.file.fh.close()

    def __enter__(self) -> FrameSet:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@lru_cache(maxsize=64)
def _fock_inverse_cdf(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tabulated inverse CDF of the n-photon quadrature density."""
    x_max = np.sqrt(2.0 * n + 1.0) + 6.0
    x = np.linspace(-x_max, x_max, 60001)
    pdf = hermite_functions(n, x)[n] ** 2
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(x))))
    cdf /= cdf[-1]
    return cdf, x


def _mode_indices(psi: ModeFunction, t0: float, n_samples: int) -> slice:
    """Column slice of the frame grid covered by psi; error on misalignment."""
    i0 = whole_ns(psi.t0 - t0, "mode offset from the frame start")
    i1 = i0 + psi.n_samples
    if i0 < 0 or i1 > n_samples:
        raise ValueError(
            f"mode support [{psi.t0}, {psi.t_end}] ns exceeds the frame window"
        )
    return slice(i0, i1)


def _gaussian_rows(rng: np.random.Generator, rows: np.ndarray, sigma: float) -> None:
    """Fill the float64 ``rows`` (r x N) with N(0, sigma^2) samples by a
    Box-Muller transform of ``r * ceil(N/2)`` raw 64-bit words, drawn row
    after row.

    Word ``w`` of a row gives the pair ``rad cos(theta)`` to column ``j`` and
    ``rad sin(theta)`` to column ``j + ceil(N/2)``; an odd N drops the last
    sine.  Its top 40 bits give the radius ``sigma sqrt(-2 ln u)`` with
    ``u = ((w >> 24) + 1/2) 2^-40`` in float64, so no sample exceeds
    ``sqrt(82 ln 2) sigma = 7.54 sigma``; its low 24 bits give the float32
    angle ``theta = float32(w & 0xFFFFFF) * float32(2 pi / 2^24)``, as
    float64 sines would cost several times the rest of the draw.
    """
    n_rows, n = rows.shape
    half = (n + 1) // 2
    words = rng.bit_generator.random_raw(n_rows * half).reshape(n_rows, half)
    theta = (words & 0xFFFFFF).astype(np.float32)
    theta *= np.float32(2.0 * math.pi / 2**24)
    np.right_shift(words, 24, out=words)
    rad = words.astype(np.float64)
    rad += 0.5
    rad *= 2.0**-40
    np.log(rad, out=rad)
    rad *= -2.0 * sigma**2
    np.sqrt(rad, out=rad)
    np.multiply(rad, np.cos(theta), out=rows[:, :half])
    np.multiply(rad[:, : n - half], np.sin(theta[:, : n - half]), out=rows[:, half:])


def _block_filler(
    state: FockDiagonalState,
    psi: ModeFunction,
    n_frames: int,
    master_seed: int,
    *,
    t0: float,
    n_samples: int,
    imperfections: ImperfectionConfig,
    adc: AdcSpec,
) -> Callable[[int, np.ndarray], None]:
    """Check the arguments of :func:`synth_condition`, make its set-up once
    and return ``fill(lo, dest)``, which writes the block of frames from
    ``lo`` (a multiple of ``FRAME_BLOCK``) into ``dest``, an array of that
    block's rows in the ADC's code dtype.  ``fill`` may run on several threads
    at once."""
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    # both detuning values 0 (either sign) is no detuning
    delta, phase = imperfections.detuning_rad_s, imperfections.detuning_phase_rad
    eff_psi, eta = detuned_effective_mode(psi, delta, phase) if delta or phase else (psi, 1.0)
    eta *= imperfections.extra_loss
    eff_state = apply_loss(state, eta) if eta < 1.0 else state
    cols = _mode_indices(eff_psi, t0, n_samples)
    mode = eff_psi.samples
    n_cdf = np.cumsum(eff_state.c)
    # the photon numbers a block can draw: those of nonzero weight, and
    # n_max, where a uniform above the rounded sum of c lands; tabulated
    # here, as two threads that miss the cache together would both build one
    drawn = {*np.flatnonzero(eff_state.c).tolist(), eff_state.n_max}
    tables = {k: _fock_inverse_cdf(k) for k in drawn}
    shift = np.sqrt(2.0) * imperfections.displacement_re
    noise = imperfections.electronic_noise_std
    sigma = math.sqrt(0.5 + noise**2)

    def fill(lo: int, dest: np.ndarray) -> None:
        m = min(FRAME_BLOCK, n_frames - lo)
        rng = seeds.stream(master_seed, seeds.DOMAIN_FRAME, lo // FRAME_BLOCK)
        n = np.searchsorted(n_cdf, rng.random(FRAME_BLOCK)[:m], side="right")
        n = np.minimum(n, eff_state.n_max)
        u = rng.random(FRAME_BLOCK)[:m]
        x = np.empty(m)
        for k in np.unique(n):
            sel = n == k
            x[sel] = np.interp(u[sel], *tables[int(k)])
        x += shift
        if noise > 0.0:
            x += noise * rng.standard_normal(FRAME_BLOCK)[:m]
        g = np.empty((min(_SUB_BLOCK, m), n_samples))
        swap = np.empty((len(g), len(mode)))
        for s in range(0, m, _SUB_BLOCK):
            rows = g[: min(_SUB_BLOCK, m - s)]
            _gaussian_rows(rng, rows, sigma)
            # rank-1 swap along psi; einsum keeps it off the threaded BLAS
            # and forms the outer product faster than np.multiply.outer
            band = rows[:, cols]
            coef = x[s : s + len(rows)] - np.einsum("ij,j->i", band, mode)
            band += np.einsum("i,j->ij", coef, mode, out=swap[: len(rows)])
            adc.encode(rows, out=rows)
            dest[s : s + len(rows)] = rows

    return fill


def _pool_size(threads: int | None, n_frames: int) -> int:
    """Threads for ``n_frames`` frames: ``threads`` (None:
    :func:`usable_cores`), at most one per block."""
    return min(usable_cores() if threads is None else threads, -(-n_frames // FRAME_BLOCK))


def synth_condition(
    state: FockDiagonalState,
    psi: ModeFunction,
    n_frames: int,
    master_seed: int,
    *,
    t0: float = 0.0,
    n_samples: int = 1000,
    imperfections: ImperfectionConfig = ImperfectionConfig(),
    adc: AdcSpec = AdcSpec(),
    threads: int | None = None,
) -> FrameSet:
    """Generate ``n_frames`` independent frames on the 1 ns grid for one
    experimental condition.

    Frames are drawn in blocks of ``FRAME_BLOCK``; block ``b`` (frames
    ``b * FRAME_BLOCK`` onwards) uses the single stream
    ``(master_seed, DOMAIN_FRAME, b)`` with a fixed draw order:

    1. ``FRAME_BLOCK`` photon-number uniforms;
    2. ``FRAME_BLOCK`` quadrature uniforms, each mapped through the inverse
       CDF of its photon number (``n = 0`` included);
    3. ``FRAME_BLOCK`` electronic-noise normals along psi, only if
       ``sigma_e > 0``;
    4. ``ceil(n_samples / 2)`` raw words per frame, row after row, each the
       Box-Muller pair of two ``N(0, 1/2 + sigma_e^2)`` samples (see
       :func:`_gaussian_rows`).

    The electronic noise is folded into the Gaussian draw: along psi the
    frame carries ``x_psi + sigma_e * zeta``, orthogonal to it the isotropic
    noise, which is the distribution of the frame in the module docstring.
    Each row is built in float64, the mode swapped in place, and rounded
    once, to the ADC codes :meth:`AdcSpec.encode` gives for the float64
    values.  Each row sub-block is drawn and finished while it is in cache;
    the draws do not depend on the sub-block size.  A partial
    last block draws its uniforms for the whole block and words for its own
    rows only, so frame ``i`` depends only on ``(master_seed, i)``.  The
    blocks are filled on a pool of ``threads`` threads (None:
    :func:`usable_cores`), at most one per block; each writes only its own
    rows, so no byte depends on the count.  The bytes do depend on numpy's
    float32 ``sin``/``cos`` and float64 ``log``, which are SIMD code chosen
    for the CPU: they repeat on one machine but are not promised across CPU
    families.
    """
    fill = _block_filler(
        state, psi, n_frames, master_seed, t0=t0, n_samples=n_samples, imperfections=imperfections, adc=adc
    )
    out = np.empty((n_frames, n_samples), dtype=adc.code_dtype)
    with ThreadPoolExecutor(max_workers=_pool_size(threads, n_frames)) as pool:
        list(pool.map(lambda lo: fill(lo, out[lo : lo + FRAME_BLOCK]), range(0, n_frames, FRAME_BLOCK)))
    return FrameSet(out, t0=t0, adc=adc, master_seed=master_seed)


def synth_to_file(
    path: str | Path,
    state: FockDiagonalState,
    psi: ModeFunction,
    n_frames: int,
    master_seed: int,
    *,
    t0: float = 0.0,
    n_samples: int = 1000,
    imperfections: ImperfectionConfig = ImperfectionConfig(),
    adc: AdcSpec = AdcSpec(),
) -> None:
    """Write the frames :func:`synth_condition` returns for these arguments
    to ``path``, byte for byte as :func:`save_frames` writes them, without
    holding the frame matrix.

    The header goes first; each block is filled on a pool of
    :func:`usable_cores` threads into an array of its own, checked as
    :class:`FrameSet` checks its data, and written in row order.  At most
    two blocks per thread are in flight, so memory stays near
    ``2 * threads`` blocks whatever ``n_frames`` is.  A failed
    block or write cancels the blocks not yet started and, as in
    :func:`save_frames`, keeps an earlier file and removes the temporary
    one.
    """
    fill = _block_filler(
        state, psi, n_frames, master_seed, t0=t0, n_samples=n_samples, imperfections=imperfections, adc=adc
    )

    def block(lo: int) -> np.ndarray:
        rows = np.empty((min(FRAME_BLOCK, n_frames - lo), n_samples), adc.code_dtype)
        fill(lo, rows)
        _check_block(rows, adc)
        return rows

    def write_blocks(fh) -> None:
        workers = _pool_size(None, n_frames)
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            window: deque[Future] = deque()
            for lo in range(0, n_frames, FRAME_BLOCK):
                if len(window) == 2 * workers:
                    fh.write(window.popleft().result())
                window.append(pool.submit(block, lo))
            while window:
                fh.write(window.popleft().result())
        finally:
            pool.shutdown(cancel_futures=True)

    _write_frame_file(path, n_frames, n_samples, t0, adc, master_seed, write_blocks)


def extract_quadratures(fs: FrameSet, psi0: ModeFunction) -> np.ndarray:
    """Mode quadrature of every frame in the set (float64).

    One float64 gemv per ``FRAME_BLOCK`` row block, so no M x N float64 copy
    of the frames is made; codes count at their exact ADC levels.
    """
    quads = np.empty(fs.n_frames)
    for lo, rows in fs.blocks(_mode_indices(psi0, fs.t0, fs.n_samples)):
        np.matmul(rows.astype(np.float64), psi0.samples, out=quads[lo : lo + len(rows)])
    # code k stands for the level (k + 1/2) step
    return (quads + 0.5 * psi0.samples.sum()) * fs.adc.step


def _write_frame_file(
    path: str | Path,
    n_frames: int,
    n_samples: int,
    t0: float,
    adc: AdcSpec,
    master_seed: int,
    write_data: Callable[[BinaryIO], None],
) -> None:
    """Write the frame format's header for this geometry and then
    ``write_data(fh)``, which writes the ``n_frames x n_samples`` codes in
    :attr:`AdcSpec.code_dtype`, under ``<path>.tmp``, and rename it over
    ``path``.

    A seed outside [0, 2**64) raises ``ValueError``, and a file that the
    free space of its directory (or of the nearest existing ancestor)
    cannot hold raises ``OSError``, both before any directory or file is
    made.  Then the missing directories are made; any exception after that
    removes the temporary file and leaves an earlier ``path`` intact."""
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"master seed {master_seed} does not fit the header's 64 bits")
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        n_frames,
        n_samples,
        t0,
        _HEADER_DT_NS,
        1,
        adc.bits,
        adc.full_scale,
        master_seed,
    )
    path = Path(path)
    need = len(header) + n_frames * n_samples * adc.code_dtype.itemsize
    existing = next(d for d in (path.parent, *path.parent.parents) if d.exists())
    free = shutil.disk_usage(existing).free
    if need > free:
        raise OSError(f"{path.name} needs {need} bytes, {free} free in {path.parent}")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            write_data(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_frames(fs: FrameSet, path: str | Path) -> None:
    """Write the in-memory frame set ``fs`` in the frame format (version 2):
    fixed header, ``dt`` 1 ns, ADC flag 1, then the row-major data as
    little-endian ADC codes.

    The file is written by :func:`_write_frame_file`: under a temporary
    name, renamed over ``path``, and refused before anything is written when
    the seed does not fit the header or the directory has no room for it."""
    _write_frame_file(
        path,
        fs.n_frames,
        fs.n_samples,
        fs.t0,
        fs.adc,
        fs.master_seed,
        fs.data.tofile,
    )


def load_frames(path: str | Path) -> FrameSet:
    """Open a file written by :func:`save_frames` as a frame set that reads
    its codes from the file, block by block (see :meth:`FrameSet.blocks`).

    Only version 2 with ADC flag 1 and ``dt`` = 1 ns is read; any other
    version, such as the float32 version 1, a version-2 file of float32
    frames (ADC flag 0) or one of another sample interval raises
    ``ValueError``.  The size the header implies must equal the
    file size, so a truncated file, trailing bytes or a corrupt header
    raise (naming the file) first.  Then one pass refuses codes outside the
    ADC's range and counts the saturated ones, as for any frame set.

    The set holds the file open until :meth:`FrameSet.close` (or the end of
    a ``with`` block); a pass that finds the file shorter than at load
    raises ``ValueError`` naming it.
    """
    fh = open(path, "rb")
    try:
        try:
            raw = fh.read(_HEADER.size)
            if len(raw) != _HEADER.size:
                raise ValueError("truncated header")
            magic, version, m, n, t0, dt, flag, bits, full_scale, seed = _HEADER.unpack(raw)
            if magic != _MAGIC:
                raise ValueError(f"not a frame file (bad magic {magic!r})")
            if version != _VERSION:
                raise ValueError(f"unsupported version {version}")
            if flag != 1:
                raise ValueError(f"ADC flag {flag}: only files of ADC codes (flag 1) are read")
            if dt != _HEADER_DT_NS:
                raise ValueError(f"dt {dt} ns: only frames on the 1 ns grid (dt 1) are read")
            adc = AdcSpec(bits, full_scale)
            expected = _HEADER.size + adc.code_dtype.itemsize * m * n
            size = os.fstat(fh.fileno()).st_size
            if size < expected:
                raise ValueError(f"truncated data section ({size} of {expected} bytes)")
            if size > expected:
                raise ValueError(f"{size - expected} trailing bytes after the data section")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        return FrameSet(None, t0, adc, seed, file=_FrameFile(fh, path, (m, n), adc.code_dtype))
    except BaseException:
        fh.close()
        raise
