"""Discretized temporal mode functions and their inner-product algebra.

Every mode lies on the 1 ns acquisition grid of the homodyne frames.  It is
stored as ``psi_i = psi(t_i) * sqrt(1 ns)`` so that normalization and inner
products are plain dot products, directly comparable with eigenvectors of a
sampled auto-covariance matrix.  Sample ``i`` sits at ``t_i = t0 + i``
(nanoseconds); values outside the stored window are exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError

NORM_TOL = 1e-9
#: ns by which times may miss the 1 ns grid before we reject them
GRID_TOL = 1e-6


@dataclass(frozen=True)
class ModeFunction:
    """Real temporal envelope on the 1 ns grid, unit norm in the
    sqrt(1 ns) convention."""

    samples: np.ndarray
    t0: float

    def __post_init__(self):
        samples = np.array(self.samples, dtype=float, copy=True)
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("mode samples must be finite")
        norm = float(np.sum(self.samples**2))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"mode is not normalized: sum(psi^2) = {norm!r}")

    @property
    def n_samples(self) -> int:
        return self.samples.size

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.samples.size)

    @property
    def t_end(self) -> float:
        """Time of the last stored sample."""
        return self.t0 + (self.samples.size - 1)


def whole_ns(delta_t: float, what: str) -> int:
    """``delta_t`` (ns) as a whole number of 1 ns samples; ``ValueError``,
    naming ``what``, when it misses one by more than ``GRID_TOL``."""
    steps = round(delta_t)
    if abs(delta_t - steps) > GRID_TOL:
        raise ValueError(
            f"{what} of {delta_t} ns is not a multiple of 1 ns: misaligned by {delta_t - steps} ns"
        )
    return int(steps)


def inner_product(a: ModeFunction, b: ModeFunction) -> float:
    """Discrete inner product ``sum_i a_i b_i`` on the common grid.

    Supports may differ; non-overlapping parts contribute zero.
    """
    off = whole_ns(b.t0 - a.t0, "grid offset")
    # b's sample j lies at a-grid index j + off
    lo = max(0, off)
    hi = min(a.n_samples, off + b.n_samples)
    if hi <= lo:
        return 0.0
    return float(np.dot(a.samples[lo:hi], b.samples[lo - off : hi - off]))


def overlap_sq(a: ModeFunction, b: ModeFunction) -> float:
    """Squared overlap |(a, b)|^2; equals 1 for identical normalized modes."""
    return inner_product(a, b) ** 2


def time_shift(m: ModeFunction, delta_t: float) -> ModeFunction:
    """Shift a mode by a whole number of ns."""
    return ModeFunction(m.samples, m.t0 + whole_ns(delta_t, "shift"))


def clip_and_renormalize(m: ModeFunction, window: tuple[float, float]) -> ModeFunction:
    """Restrict a mode to samples with ``t_lo <= t_i <= t_hi`` and renormalize."""
    t_lo, t_hi = window
    if not t_lo < t_hi:
        raise ValueError(f"empty window {window}")
    times = m.times
    keep = np.nonzero((times >= t_lo - GRID_TOL) & (times <= t_hi + GRID_TOL))[0]
    if keep.size == 0:
        raise DegenerateInputError("window does not overlap the mode support")
    seg = m.samples[keep[0] : keep[-1] + 1]
    norm = float(np.sum(seg**2))
    if norm <= 1e-12:
        raise DegenerateInputError(f"energy inside window is {norm!r}")
    if abs(norm - 1.0) > 1e-15:  # keep repeated clips bitwise stable
        seg = seg / np.sqrt(norm)
    return ModeFunction(seg, float(times[keep[0]]))


def _centroid_time(m: ModeFunction) -> float:
    """Intensity-weighted mean arrival time (ns)."""
    return float(np.sum(m.samples**2 * m.times))


def detuned_effective_mode(
    m: ModeFunction, delta_rad_s: float, phase: float
) -> tuple[ModeFunction, float]:
    """Normalized in-phase component of a rotating mode, as seen by the LO,
    and its weight ``sum_i (m_i cos(...))^2``: the share of the photon that
    the in-phase part carries.

    The mode rotates as ``m(t) e^{i(delta (t - t_c) + phase)}`` with the
    phase referenced to the pulse centroid ``t_c`` (the absolute phase
    accumulated before the pulse is folded into ``phase``); only the
    in-phase part couples to a quadrature measurement.
    """
    rel_t_s = (m.times - _centroid_time(m)) * 1e-9
    raw = m.samples * np.cos(delta_rad_s * rel_t_s + phase)
    norm = float(np.sum(raw**2))
    if norm < 1e-12:
        raise DegenerateInputError("detuned mode has no in-phase component")
    return ModeFunction(raw / np.sqrt(norm), m.t0), norm
