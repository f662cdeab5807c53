import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import photonmem
from photonmem import CavityParams, ShutterSchedule, simulate_release
from photonmem.estimation import QUAD_BIN, _kkt_of_gradient, _objective
from photonmem.fock import hermite_functions
from photonmem.modes import ModeFunction
from photonmem.synth import AdcSpec

#: the ideal detector of the statistical tests: a 16-bit ADC, whose
#: quantisation noise step²/12 ≈ 4e-9 is far below the vacuum's 1/2
IDEAL_ADC = AdcSpec(16)


@pytest.fixture(scope="session")
def params():
    return CavityParams()


@pytest.fixture(scope="session")
def base_release(params):
    """Stock release simulation (opens at 150 ns), shared across tests."""
    return simulate_release(params, ShutterSchedule(t_release_ns=150.0))


def unit_mode(samples, t0: float) -> ModeFunction:
    """The mode of ``samples`` scaled to unit norm."""
    arr = np.asarray(samples, dtype=float)
    return ModeFunction(arr / np.sqrt(np.sum(arr**2)), t0)


def boxcar(t0: float, width_ns: float) -> ModeFunction:
    return unit_mode(np.ones(int(round(width_ns))), t0)


def gaussian_mode(center: float, sigma: float, t0: float, n: int) -> ModeFunction:
    t = t0 + np.arange(n)
    return unit_mode(np.exp(-0.5 * ((t - center) / sigma) ** 2), t0)


def detuning_overlap_penalty(m: ModeFunction, delta_rad_s: float, phase: float) -> float:
    """Oracle for the single-photon weight a detuned mode keeps along ``m``
    in a fixed LO frame.

    The mode rotates as ``m(t) e^{i(delta (t - t_c) + phase)}`` with the phase
    referenced to the pulse centroid ``t_c``.  Only the in-phase part couples
    to a quadrature measurement weighted by ``m`` itself, so the weight
    scales by ``(sum_i m_i^2 cos(...))^2``: 1 when the rotation is negligible
    across the pulse, 0 for a pure quadrature rotation."""
    centroid = float(np.sum(m.samples**2 * m.times))
    rel_t_s = (m.times - centroid) * 1e-9
    return float(np.sum(m.samples**2 * np.cos(delta_rad_s * rel_t_s + phase))) ** 2


def run_fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this photonmem; for
    checks of what an import maps or loads, which this process already has."""
    src = str(Path(photonmem.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env)


def kkt_residual(c: np.ndarray, pdf_matrix: np.ndarray, w: np.ndarray) -> float:
    """Oracle for the KKT residual a fit reports: the worst violation of the
    optimality conditions of ``estimation._objective`` on ``c >= 0``,
    evaluated afresh at ``c``.  Columns of zero weight add exact zeros to the
    gradient; they are left out, as ``estimation._fit_weighted`` leaves
    them out."""
    keep = np.flatnonzero(w > 0)
    return _kkt_of_gradient(c, _objective(c, pdf_matrix.take(keep, axis=1), w.take(keep))[1])


def _density_ratios(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``f_n(x_j) = P_n(x_j) / sum_m c_m P_m(x_j)``, shape (c.size, x.size)."""
    pdf = hermite_functions(c.size - 1, x) ** 2
    return pdf / (c @ pdf)


def frame_gradient(c: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Oracle: the gradient in ``c`` of the per-frame objective
    ``-mean_j log(c . P(x_j)) + sum_n c_n``, one term per sample, which the
    fit on the binned samples approximates."""
    return 1.0 - _density_ratios(c, np.asarray(samples, dtype=float)).mean(axis=1)


def binning_bound(c: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Per n, a bound on how far the per-frame gradient :func:`frame_gradient`
    lies from the gradient on the bins of width ``h = QUAD_BIN`` at ``c``:
    ``4 (h / sqrt(12)) rms_j |f_n'(x_j)| / sqrt(N) + (h^2 / 24) mean_j |f_n''(x_j)|``
    with ``f_n = P_n / mix``.

    Moving a sample to its bin's midpoint moves ``f_n`` by
    ``f_n' u + f_n'' u^2 / 2`` for an offset ``u`` that is close to uniform
    on ``[-h/2, h/2)``: the first term averages out with a standard error of
    ``(h / sqrt(12)) rms |f_n'| / sqrt(N)``, taken 4 times, and the second
    leaves ``(h^2 / 24) f_n''``.  The derivatives are central differences of
    step 1e-3."""
    x = np.asarray(samples, dtype=float)
    h, d = QUAD_BIN, 1e-3
    f0, fp, fm = (_density_ratios(c, x + s) for s in (0.0, d, -d))
    d1 = (fp - fm) / (2.0 * d)
    d2 = (fp - 2.0 * f0 + fm) / d**2
    return (
        4.0 * h / np.sqrt(12.0) * np.sqrt(np.mean(d1**2, axis=1) / x.size)
        + h**2 / 24.0 * np.mean(np.abs(d2), axis=1)
    )
