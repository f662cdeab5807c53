"""Photon-counting check of the released photon: a Monte-Carlo click record
of a heralded emitter behind a 50/50 splitter, and the normalized
two-detector coincidence histogram g2(tau) estimated from it.

Click statistics see only |psi(t)|^2, so they certify single-photon
character (g2(0) = 0, invariant under loss) but not the coherence that
homodyne tomography measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeds
from .errors import InsufficientDataError
from .modes import ModeFunction


@dataclass(frozen=True)
class G2Estimate:
    tau_ns: np.ndarray
    g2: np.ndarray
    err: np.ndarray


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
    if trial_period_ns < psi.n_samples:
        raise ValueError("trial period is shorter than the mode support")
    rng = seeds.stream(master_seed, seeds.DOMAIN_CLICKS, 0)
    detected = rng.random(n_trials) < p * eta
    # draw per-trial times even for undetected trials to keep draws aligned
    probs = psi.samples**2
    bin_idx = rng.choice(psi.n_samples, size=n_trials, p=probs / probs.sum())
    within = rng.random(n_trials)
    to_a = rng.random(n_trials) < 0.5

    t_click = np.arange(n_trials) * trial_period_ns + bin_idx + within
    times_a = t_click[detected & to_a]
    times_b = t_click[detected & ~to_a]
    return times_a, times_b, float(n_trials * trial_period_ns)

