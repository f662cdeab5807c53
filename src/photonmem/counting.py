"""Photon-detection-side formulas: detection densities, temporal-jitter
decoherence, and the second-order correlation g2.

These functionals see only |psi(t)|^2, which is exactly why they cannot
certify coherence: a pure photon and a jitter-decohered mixture with the same
averaged intensity produce identical click densities while their
homodyne-side purity differs.  :func:`jitter_decohered` exposes both numbers
for one configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeds
from .errors import InsufficientDataError
from .modes import GRID_TOL, ModeFunction, overlap_sq, time_shift

KERNEL_NORM_TOL = 1e-9


@dataclass(frozen=True)
class TimeDensity:
    """Probability density over time, per nanosecond, on a uniform grid."""

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, copy=True)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("density values must be finite and non-negative")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.values.size)

    def integral(self) -> float:
        return float(self.values.sum() * self.dt)


@dataclass(frozen=True)
class JitterKernel:
    """Distribution of emission-time delays on a uniform grid.

    ``weights`` is a probability density per ns; it integrates to one over
    the stored delays (a single-entry kernel is an exact delta).
    """

    delays_ns: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        d = np.array(self.delays_ns, dtype=float, copy=True)
        w = np.array(self.weights, dtype=float, copy=True)
        d.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "delays_ns", d)
        object.__setattr__(self, "weights", w)
        if d.shape != w.shape or d.ndim != 1 or d.size == 0:
            raise ValueError("delays and weights must be matching 1-D arrays")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and non-negative")
        if d.size > 1:
            steps = np.diff(d)
            if np.max(np.abs(steps - steps[0])) > GRID_TOL * abs(steps[0]):
                raise ValueError("delays must form a uniform grid")
        total = float(self.probabilities.sum())
        if abs(total - 1.0) > KERNEL_NORM_TOL:
            raise ValueError(f"kernel must integrate to 1, got {total!r}")

    @property
    def spacing(self) -> float:
        return float(self.delays_ns[1] - self.delays_ns[0]) if self.delays_ns.size > 1 else 1.0

    @property
    def probabilities(self) -> np.ndarray:
        return self.weights * self.spacing

    @classmethod
    def delta(cls, tau_ns: float = 0.0) -> "JitterKernel":
        return cls(np.array([tau_ns]), np.array([1.0]))

    @classmethod
    def gaussian(cls, sigma_ns: float, dt: float = 1.0, half_width_sigmas: float = 5.0) -> "JitterKernel":
        """Discretized, renormalized Gaussian delay distribution."""
        if sigma_ns <= 0:
            return cls.delta(0.0)
        half = dt * np.ceil(half_width_sigmas * sigma_ns / dt)
        delays = np.arange(-half, half + dt / 2, dt)
        w = np.exp(-0.5 * (delays / sigma_ns) ** 2)
        return cls(delays, w / (w.sum() * dt))


@dataclass(frozen=True)
class JitterOutcome:
    density: TimeDensity
    purity: float


@dataclass(frozen=True)
class G2Estimate:
    tau_ns: np.ndarray
    g2: np.ndarray
    err: np.ndarray


def detection_density(p: float, eta: float, psi: ModeFunction) -> TimeDensity:
    """Click probability density ``p eta |psi(t)|^2`` (per ns); integrates to p*eta."""
    for name, v in (("p", p), ("eta", eta)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    return TimeDensity(psi.t0, psi.dt, p * eta * psi.samples**2 / psi.dt)


def jitter_decohered(
    phi: ModeFunction, kernel: JitterKernel, psi_ref: ModeFunction
) -> JitterOutcome:
    """Averaged click density and mode-matched purity of a jittered emitter.

    The emitted photon occupies ``phi`` delayed by tau with probability
    ``p(tau)``.  The click density is the intensity average, while the purity
    observed in ``psi_ref`` is ``sum_tau p(tau) |(phi_tau, psi_ref)|^2``.
    """
    steps = kernel.delays_ns / phi.dt
    if np.max(np.abs(steps - np.round(steps))) > GRID_TOL:
        raise ValueError("kernel delays must be multiples of the mode sample interval")
    offsets = np.round(steps).astype(int)
    probs = kernel.probabilities

    lo = int(offsets.min())
    hi = int(offsets.max())
    values = np.zeros(phi.n_samples + hi - lo)
    purity = 0.0
    for off, prob, delay in zip(offsets, probs, kernel.delays_ns):
        values[off - lo : off - lo + phi.n_samples] += prob * phi.samples**2
        purity += prob * overlap_sq(time_shift(phi, float(delay)), psi_ref)
    density = TimeDensity(phi.t0 + lo * phi.dt, phi.dt, values / phi.dt)
    return JitterOutcome(density=density, purity=float(purity))


def g2_from_counts(
    times_a: np.ndarray,
    times_b: np.ndarray,
    tau_edges: np.ndarray,
    total_time_ns: float,
) -> G2Estimate:
    """Normalized two-detector coincidence histogram g2(tau).

    Pairs (t_b - t_a) are binned over ``tau_edges``; each bin is normalized
    by the expected pair count ``N_a N_b dtau / T`` of two uncorrelated
    streams, so g2 -> 1 at large delays for independent detectors.  The error
    is the Poisson counting error of each bin.
    """
    a = np.sort(np.asarray(times_a, dtype=float))
    b = np.sort(np.asarray(times_b, dtype=float))
    if a.size < 100 or b.size < 100:
        raise InsufficientDataError(
            f"need >= 100 events per detector, got {a.size} and {b.size}"
        )
    edges = np.asarray(tau_edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("tau_edges must be an increasing array of bin edges")
    if total_time_ns <= 0:
        raise ValueError("total_time_ns must be positive")

    counts = np.zeros(edges.size - 1)
    for t in a:
        lo = np.searchsorted(b, t + edges[0], side="left")
        hi = np.searchsorted(b, t + edges[-1], side="right")
        if hi > lo:
            counts += np.histogram(b[lo:hi] - t, bins=edges)[0]

    widths = np.diff(edges)
    expected = a.size * b.size * widths / total_time_ns
    g2 = counts / expected
    err = np.sqrt(np.maximum(counts, 1.0)) / expected
    centers = (edges[:-1] + edges[1:]) / 2.0
    return G2Estimate(tau_ns=centers, g2=g2, err=err)


def simulate_heralded_clicks(
    p: float,
    eta: float,
    psi: ModeFunction,
    n_trials: int,
    trial_period_ns: float,
    master_seed: int,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Monte-Carlo click record of a heralded emitter behind a 50/50 splitter.

    Each trial holds at most one photon (present with probability p, detected
    with probability eta); the click time is drawn from |psi(t)|^2 within the
    trial and routed to one of two detectors.  Returns (times_a, times_b,
    total_time_ns).
    """
    if trial_period_ns < psi.t_end - psi.t0 + psi.dt:
        raise ValueError("trial period is shorter than the mode support")
    rng = seeds.stream(master_seed, seeds.DOMAIN_CLICKS, 0)
    detected = rng.random(n_trials) < p * eta
    # draw per-trial times even for undetected trials to keep draws aligned
    probs = psi.samples**2
    bin_idx = rng.choice(psi.n_samples, size=n_trials, p=probs / probs.sum())
    within = rng.random(n_trials) * psi.dt
    to_a = rng.random(n_trials) < 0.5

    t_click = np.arange(n_trials) * trial_period_ns + bin_idx * psi.dt + within
    times_a = t_click[detected & to_a]
    times_b = t_click[detected & ~to_a]
    return times_a, times_b, float(n_trials * trial_period_ns)

