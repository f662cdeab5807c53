"""Phase-insensitive single-mode states as photon-number distributions.

Quadrature convention: vacuum variance 1/2, so the vacuum quadrature density
is ``exp(-x^2)/sqrt(pi)`` and the n-photon density is
``H_n(x)^2 exp(-x^2) / (2^n n! sqrt(pi))``.  Hermite and Laguerre values are
evaluated by stable recurrences rather than factorial closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedCorrelationError

PROB_TOL = 1e-9
#: default Fock-space cutoff used by estimators and reports
DEFAULT_N_MAX = 5


@dataclass(frozen=True)
class FockDiagonalState:
    """Diagonal density operator: probabilities ``c[n]`` for n = 0..n_max."""

    c: np.ndarray

    def __post_init__(self):
        arr = np.array(self.c, dtype=float, copy=True)
        arr.flags.writeable = False
        object.__setattr__(self, "c", arr)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("c must be a non-empty 1-D probability array")
        if not np.all(np.isfinite(arr)) or np.any(arr < -PROB_TOL):
            raise ValueError("probabilities must be finite and non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")

    @property
    def n_max(self) -> int:
        return self.c.size - 1

    @classmethod
    def vacuum(cls) -> "FockDiagonalState":
        return cls(np.array([1.0]))

    @classmethod
    def fock(cls, n: int) -> "FockDiagonalState":
        c = np.zeros(n + 1)
        c[n] = 1.0
        return cls(c)

    @classmethod
    def two_level(cls, p: float) -> "FockDiagonalState":
        """Mixture of vacuum and one photon with single-photon weight p."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
        return cls(np.array([1.0 - p, p]))

    @classmethod
    def from_weights(cls, weights) -> "FockDiagonalState":
        w = np.asarray(weights, dtype=float)
        total = w.sum()
        if not np.isfinite(total) or total <= 0 or np.any(w < 0):
            raise ValueError("weights must be non-negative with positive sum")
        return cls(w / total)


@dataclass(frozen=True)
class WignerSection:
    """Cross-section of a rotationally symmetric Wigner function through the origin."""

    r: np.ndarray
    w: np.ndarray


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Oscillator eigenfunctions phi_n(x) for n = 0..n_max, shape (n_max+1, len(x)).

    phi_n(x)^2 is the quadrature density of the n-photon state.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    phi = np.empty((n_max + 1, x.size))
    phi[0] = np.pi ** (-0.25) * np.exp(-0.5 * x**2)
    if n_max >= 1:
        phi[1] = np.sqrt(2.0) * x * phi[0]
    for n in range(2, n_max + 1):
        phi[n] = np.sqrt(2.0 / n) * x * phi[n - 1] - np.sqrt((n - 1) / n) * phi[n - 2]
    return phi


def quadrature_pdf(state: FockDiagonalState, x) -> np.ndarray | float:
    """Quadrature probability density ``sum_n c_n P_n(x)``."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x_arr)):
        raise ValueError("x must be finite")
    phi = hermite_functions(state.n_max, x_arr)
    pdf = state.c @ (phi**2)
    return pdf if np.ndim(x) else float(pdf[0])


def _laguerre(n_max: int, z: np.ndarray) -> np.ndarray:
    """Laguerre polynomials L_n(z) for n = 0..n_max by the three-term recurrence."""
    out = np.empty((n_max + 1,) + z.shape)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = 1.0 - z
    for n in range(1, n_max):
        out[n + 1] = ((2 * n + 1 - z) * out[n] - n * out[n - 1]) / (n + 1)
    return out


def wigner(state: FockDiagonalState, x, p) -> np.ndarray | float:
    """Wigner function ``sum_n c_n (-1)^n L_n(2 r^2) exp(-r^2) / pi``, r^2 = x^2 + p^2."""
    x_arr, p_arr = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(p, dtype=float))
    r2 = x_arr**2 + p_arr**2
    lag = _laguerre(state.n_max, 2.0 * r2)
    signs = (-1.0) ** np.arange(state.n_max + 1)
    value = np.einsum("n,n...->...", state.c * signs, lag) * np.exp(-r2) / np.pi
    return value if value.ndim else float(value)


def wigner_origin(state: FockDiagonalState) -> float:
    """Wigner value at the phase-space origin: parity expectation over pi."""
    signs = (-1.0) ** np.arange(state.n_max + 1)
    return float(np.dot(signs, state.c)) / np.pi


def apply_loss(state: FockDiagonalState, eta: float) -> FockDiagonalState:
    """Propagate the distribution through a beamsplitter of transmission eta.

    Each of n photons survives independently with probability eta, so
    ``c'_m = sum_{n>=m} c_n C(n, m) eta^m (1-eta)^(n-m)``.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {eta}")
    n_max = state.n_max
    out = np.zeros(n_max + 1)
    for n in range(n_max + 1):
        cn = state.c[n]
        if cn == 0.0:
            continue
        for m in range(n + 1):
            out[m] += cn * math.comb(n, m) * eta**m * (1.0 - eta) ** (n - m)
    return FockDiagonalState(out / out.sum())


def mean_photon(state: FockDiagonalState) -> float:
    """Mean photon number ``sum_n n c_n``."""
    return float(np.dot(np.arange(state.n_max + 1), state.c))


def g2_zero(state: FockDiagonalState) -> float:
    """Zero-delay intensity correlation ``<n(n-1)> / <n>^2``.

    Equals 0 for a single photon, 1 for Poissonian statistics, 2 for thermal
    light, and is invariant under linear loss.
    """
    nbar = mean_photon(state)
    if nbar <= 0.0:
        raise UndefinedCorrelationError("g2(0) is undefined for the vacuum")
    n = np.arange(state.n_max + 1)
    return float(np.dot(n * (n - 1), state.c)) / nbar**2


#: the section in each condition's ``wigner_section.csv``: this many points
#: on ``[-WIGNER_SECTION_R_MAX, WIGNER_SECTION_R_MAX]``
WIGNER_SECTION_R_MAX = 4.0
WIGNER_SECTION_POINTS = 161


def wigner_section(state: FockDiagonalState) -> WignerSection:
    """Sectional side view through the origin, sampled at
    ``WIGNER_SECTION_POINTS`` points on
    ``[-WIGNER_SECTION_R_MAX, WIGNER_SECTION_R_MAX]``."""
    r = np.linspace(-WIGNER_SECTION_R_MAX, WIGNER_SECTION_R_MAX, WIGNER_SECTION_POINTS)
    return WignerSection(r, np.asarray(wigner(state, r, 0.0)))
