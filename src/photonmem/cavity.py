"""Linear two-mode model of the memory cavity (MC) + shutter cavity (SC).

The stored photon amplitude ``a_M`` couples to the shutter-cavity amplitude
``a_S`` which leaks to the output::

    da_M/dt = -(gamma_M/2) a_M - i g a_S
    da_S/dt = -i g a_M - (kappa_out/2 + gamma_S/2 + i Delta(t)) a_S

with ``Delta(t) = Delta_closed`` before the release time and 0 afterwards.
Rates derive from the cavity geometry: for round-trip time ``tau = L/c`` the
intensity loss rate is ``loss/tau``, the output rate ``t_out/tau``, and the
inter-cavity coupling ``g = sqrt(t_c/(tau_M tau_S))``.

The system is piecewise linear and time-invariant, so each shutter segment is
propagated exactly by the closed-form exponential of its 2 x 2 drift matrix,
critical damping included.  This is unconditionally stable for arbitrarily
large closed-shutter detunings and reproducible to the last bit.  The state
is sampled on the 1 ns grid that every mode and frame set uses, and the
release's energy fractions are integrated over it by the trapezoid rule.  The
storage lifetime is read off the closed drift matrix's slower eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, FitFailureError, NumericFailureError
from .modes import ModeFunction, whole_ns

SPEED_OF_LIGHT = 299792458.0
NS = 1e-9
#: shutter detuning (rad/s) calibrated so that ~3% of the photon pre-leaks
#: through the closed shutter over the longest stock release time (450 ns)
DEFAULT_SHUTTER_DETUNING_RAD_S = 1.6388e9


@dataclass(frozen=True)
class CavityParams:
    """Cavity geometry and losses.  Defaults: 1.4 m memory ring with 0.25%
    round-trip loss, 0.7 m shutter ring with 3% loss, 3% inter-cavity coupler
    transmission and 17% output coupler transmission."""

    mc_round_trip_m: float = 1.4
    mc_loss: float = 0.0025
    sc_round_trip_m: float = 0.7
    sc_loss: float = 0.03
    t_mc_sc: float = 0.03
    t_sc_out: float = 0.17

    def __post_init__(self):
        if not (0 < self.mc_round_trip_m < np.inf and 0 < self.sc_round_trip_m < np.inf):
            raise ValueError(
                f"round-trip lengths must be positive and finite, got "
                f"{self.mc_round_trip_m}, {self.sc_round_trip_m}"
            )
        for name in ("mc_loss", "sc_loss", "t_mc_sc", "t_sc_out"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {v}")


@dataclass(frozen=True)
class CavityRates:
    """Rate-equation picture of a CavityParams instance (all 1/s)."""

    gamma_m: float
    gamma_s: float
    kappa_out: float
    g: float


@dataclass(frozen=True)
class ShutterSchedule:
    """Release time, closed-shutter detuning and the window ``[t_start,
    t_end)`` of the release, on the 1 ns grid: the window's length and the
    release's offset from its start are whole numbers of ns."""

    t_release_ns: float
    delta_closed_rad_s: float = DEFAULT_SHUTTER_DETUNING_RAD_S
    t_start_ns: float = 0.0
    t_end_ns: float = 1000.0

    def __post_init__(self):
        for name in ("t_start_ns", "t_end_ns"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.t_start_ns < self.t_release_ns < self.t_end_ns:
            raise ValueError(
                f"need t_start < t_release < t_end, got "
                f"{self.t_start_ns}, {self.t_release_ns}, {self.t_end_ns}"
            )
        whole_ns(self.t_release_ns - self.t_start_ns, "the release offset")
        whole_ns(self.t_end_ns - self.t_start_ns, "the window length")


@dataclass(frozen=True)
class ReleaseResult:
    """Released envelope plus stored-population trace and pulse metrics."""

    envelope: ModeFunction
    mc_population: np.ndarray
    metrics: dict = field(default_factory=dict)


def derive_rates(params: CavityParams) -> CavityRates:
    """Map cavity geometry onto the rate-equation coefficients."""
    tau_m = params.mc_round_trip_m / SPEED_OF_LIGHT
    tau_s = params.sc_round_trip_m / SPEED_OF_LIGHT
    return CavityRates(
        gamma_m=params.mc_loss / tau_m,
        gamma_s=params.sc_loss / tau_s,
        kappa_out=params.t_sc_out / tau_s,
        g=np.sqrt(params.t_mc_sc / (tau_m * tau_s)),
    )


def _drift_matrix(rates: CavityRates, delta: float) -> np.ndarray:
    return np.array(
        [
            [-0.5 * rates.gamma_m, -1j * rates.g],
            [-1j * rates.g, -(0.5 * rates.kappa_out + 0.5 * rates.gamma_s + 1j * delta)],
        ],
        dtype=complex,
    )


def _mu_nu(a_matrix: np.ndarray) -> tuple[complex, complex]:
    """``mu = tr A / 2`` and ``nu = sqrt(mu^2 - det A)`` of a 2 x 2 matrix,
    whose eigenvalues are ``mu +- nu``."""
    if not np.all(np.isfinite(a_matrix.view(float))):
        raise NumericFailureError("drift matrix contains non-finite entries")
    mu = 0.5 * (a_matrix[0, 0] + a_matrix[1, 1])
    half_diff = 0.5 * (a_matrix[0, 0] - a_matrix[1, 1])
    # mu^2 - det A, without the cancellation of forming both terms
    return mu, np.sqrt(half_diff * half_diff + a_matrix[0, 1] * a_matrix[1, 0])


#: below this |nu t| the 2 x 2 exponential takes cosh and sinh(z)/z from
#: their series through z^8, whose first omitted term is below 3e-17 there
_SERIES_LIMIT = 0.1


def _propagate_segment(a_matrix: np.ndarray, a0: np.ndarray, seg_times_s: np.ndarray) -> np.ndarray:
    """States ``exp(A t) a0`` at the given times (measured from the segment
    start), from the closed form of a 2 x 2 exponential (Moler & Van Loan,
    SIAM Rev. 45, 3 (2003))::

        exp(A t) = e^{mu t} [cosh(nu t) I + t shc(nu t) (A - mu I)]

    with ``mu``, ``nu`` from :func:`_mu_nu` and ``shc(z) = sinh z / z``.
    Both are even in ``nu``, so either square root serves, and the form is
    exact at critical damping (``nu = 0``), where ``A`` has no eigenbasis.
    ``e^{mu t} cosh(nu t)`` is evaluated as the mean of the two modal
    exponentials ``e^{(mu +- nu) t}``, which cannot overflow for a damped
    ``A``, and ``shc`` by its series where ``|nu t|`` is small.
    """
    mu, nu = _mu_nu(a_matrix)
    t = np.asarray(seg_times_s, dtype=float)
    z = nu * t
    series = np.abs(z) < _SERIES_LIMIT
    cosh_part = np.empty(t.shape, dtype=complex)  # e^{mu t} cosh(nu t)
    sinh_part = np.empty(t.shape, dtype=complex)  # e^{mu t} t shc(nu t)
    zs2, ts = z[series] ** 2, t[series]
    growth = np.exp(mu * ts)
    cosh_part[series] = growth * (1 + zs2 / 2 * (1 + zs2 / 12 * (1 + zs2 / 30 * (1 + zs2 / 56))))
    sinh_part[series] = growth * ts * (1 + zs2 / 6 * (1 + zs2 / 20 * (1 + zs2 / 42 * (1 + zs2 / 72))))
    tl = t[~series]
    up, down = np.exp((mu + nu) * tl), np.exp((mu - nu) * tl)
    cosh_part[~series] = 0.5 * (up + down)
    sinh_part[~series] = (up - down) / (2 * nu)
    shifted = a_matrix @ a0 - mu * a0  # (A - mu I) a0
    return cosh_part[:, None] * a0[None, :] + sinh_part[:, None] * shifted[None, :]


def trapezoid(y: np.ndarray, dx: float) -> np.ndarray | float:
    """Trapezoid-rule integral of ``y`` over its last axis, sampled every
    ``dx``."""
    return dx * (np.sum(y, axis=-1) - 0.5 * (y[..., 0] + y[..., -1]))


def _fwhm_ns(times: np.ndarray, intensity: np.ndarray) -> float:
    """Full width at half maximum of the lobe around the global peak."""
    peak = int(np.argmax(intensity))
    half = 0.5 * intensity[peak]

    def _cross(i_out, i_in):
        # linear interpolation between the last sub-half and first super-half sample
        f = (half - intensity[i_out]) / (intensity[i_in] - intensity[i_out])
        return times[i_out] + f * (times[i_in] - times[i_out])

    below_left = np.nonzero(intensity[:peak] < half)[0]
    t_left = _cross(below_left[-1], below_left[-1] + 1) if below_left.size else times[0]
    below_right = np.nonzero(intensity[peak:] < half)[0]
    t_right = (
        _cross(peak + below_right[0], peak + below_right[0] - 1)
        if below_right.size
        else times[-1]
    )
    return float(t_right - t_left)


def _real_mode(values: np.ndarray, t0: float) -> ModeFunction:
    """Real mode of complex field samples on the envelope grid from ``t0``.

    Normalizes the samples, rotates them by the global phase that maximizes
    ``sum(Re part)^2``, takes the real part, renormalizes, and fixes the sign
    so the largest-|value| entry is positive.
    """
    norm = float(np.sum(np.abs(values) ** 2))
    if norm < 1e-24:
        raise DegenerateInputError("cannot normalize: zero-energy samples")
    z = values / np.sqrt(norm)
    # sum(Re(z e^{i theta})^2) = |z|^2/2 + Re(e^{2i theta} sum z^2)/2
    s = np.sum(z**2)
    theta = -0.5 * np.angle(s) if s != 0 else 0.0
    real_part = np.real(z * np.exp(1j * theta))
    # that phase keeps (1 + |sum z^2|) / 2 >= 1/2 of the energy
    psi = real_part / np.sqrt(float(np.sum(real_part**2)))
    if psi[np.argmax(np.abs(psi))] < 0:
        psi = -psi
    return ModeFunction(psi, t0)


def simulate_release(params: CavityParams, schedule: ShutterSchedule) -> ReleaseResult:
    """Propagate the release dynamics on the 1 ns grid and return the emitted
    temporal mode.

    The output field is ``sqrt(kappa_out) a_S(t)``; its samples over the
    half-open window ``[t_start, t_end)`` are projected onto a real mode by a
    global phase (see :func:`_real_mode`).  Metrics are energy fractions of
    the initially stored photon, integrated by the trapezoid rule over the
    closed window: ``preleak_fraction`` escaped before the release time,
    ``emitted_fraction`` in total, ``loss_fraction`` absorbed inside the
    cavities, ``residual_fraction`` still stored at the window end.
    """
    rates = derive_rates(params)
    # whole numbers of ns, as ShutterSchedule checks
    n = round(schedule.t_end_ns - schedule.t_start_ns)
    k_rel = round(schedule.t_release_ns - schedule.t_start_ns)
    a = np.empty((n + 1, 2), dtype=complex)
    a[: k_rel + 1] = _propagate_segment(
        _drift_matrix(rates, schedule.delta_closed_rad_s),
        np.array([1.0, 0.0], dtype=complex),
        np.arange(k_rel + 1) * NS,
    )
    a[k_rel:] = _propagate_segment(_drift_matrix(rates, 0.0), a[k_rel], np.arange(n - k_rel + 1) * NS)
    if not np.all(np.isfinite(a.view(float))):
        raise NumericFailureError("cavity state became non-finite during propagation")
    pop_m = np.abs(a[:, 0]) ** 2
    pop_s = np.abs(a[:, 1]) ** 2

    out_rate = rates.kappa_out * pop_s  # per second
    emitted = float(trapezoid(out_rate, NS))
    preleak = float(trapezoid(out_rate[: k_rel + 1], NS))
    loss = float(trapezoid(rates.gamma_m * pop_m + rates.gamma_s * pop_s, NS))
    residual = float(pop_m[-1] + pop_s[-1])

    if emitted < 1e-15:
        raise DegenerateInputError(
            "no field leaves the shutter cavity (decoupled or permanently closed)"
        )
    mode = _real_mode(np.sqrt(rates.kappa_out) * a[:n, 1], schedule.t_start_ns)

    intensity = mode.samples**2
    peak_idx = int(np.argmax(intensity))
    metrics = {
        "fwhm_ns": _fwhm_ns(mode.times, intensity),
        "peak_time_ns": float(mode.times[peak_idx]),
        "preleak_fraction": preleak,
        "emitted_fraction": emitted,
        "loss_fraction": loss,
        "residual_fraction": residual,
    }
    return ReleaseResult(envelope=mode, mc_population=pop_m[:n], metrics=metrics)


def storage_lifetime(
    params: CavityParams, delta_closed_rad_s: float = DEFAULT_SHUTTER_DETUNING_RAD_S
) -> float:
    """1/e decay time (ns) of the stored population with the shutter held
    closed at detuning ``delta_closed_rad_s``.

    The closed drift matrix has eigenvalues ``mu +- nu`` (:func:`_mu_nu`).
    Once the faster mode has rung down, the stored population decays as
    ``exp(2 Re(lambda) t)`` with ``lambda`` the eigenvalue of larger real
    part, so the lifetime is ``1 / (-2 max Re lambda)``.  Raises
    :class:`FitFailureError` where that rate is not positive, as for a
    lossless memory decoupled from its shutter (rate exactly -0).
    """
    mu, nu = _mu_nu(_drift_matrix(derive_rates(params), delta_closed_rad_s))
    rate = -2.0 * float(max((mu + nu).real, (mu - nu).real))  # per second
    if not rate > 0.0:
        raise FitFailureError(f"stored population does not decay (rate {rate:.3e}/s)")
    return 1.0 / rate / NS
