import json

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.linalg import expm

from photonmem.cavity import (
    DEFAULT_SHUTTER_DETUNING_RAD_S,
    NS,
    SPEED_OF_LIGHT,
    CavityParams,
    ShutterSchedule,
    _drift_matrix,
    _propagate_segment,
    _real_mode,
    derive_rates,
    simulate_release,
    storage_lifetime,
    trapezoid,
)
from photonmem.config import ExperimentConfig
from photonmem.errors import DegenerateInputError, FitFailureError, NumericFailureError
from photonmem.fock import FockDiagonalState, wigner
from photonmem.modes import clip_and_renormalize, overlap_sq, time_shift
from photonmem.pipeline import release_files, write_files


class TestDeriveRates:
    def test_memory_ring_rates(self, params):
        # analytic oracle: intensity loss rate = loss / (L / c)
        rates = derive_rates(params)
        tau_m = 1.4 / SPEED_OF_LIGHT
        assert rates.gamma_m == pytest.approx(0.0025 / tau_m, rel=1e-12)
        assert rates.gamma_m == pytest.approx(5.4e5, rel=0.02)
        # closed-shutter ring-down lifetime ~ 1.9 us
        assert 1.0 / rates.gamma_m == pytest.approx(1.9e-6, rel=0.03)

    def test_decoupled_when_coupler_closed(self):
        rates = derive_rates(CavityParams(t_mc_sc=0.0))
        assert rates.g == 0.0

    def test_fsr(self, params):
        # the free spectral range c / L is the inverse round-trip time that
        # turns the round-trip loss into a rate
        fsr = derive_rates(params).gamma_m / params.mc_loss
        assert fsr == pytest.approx(2.141e8, rel=1e-3)
        # agrees with the hardware's two-digit 2.2e2 MHz nameplate figure
        assert abs(fsr - 2.2e8) < 1e7

    def test_param_validation(self):
        with pytest.raises(ValueError):
            CavityParams(mc_loss=1.0)
        with pytest.raises(ValueError):
            CavityParams(mc_round_trip_m=0.0)


class TestSimulateRelease:
    def test_large_detuning_suppresses_preleak(self, params):
        rates = derive_rates(params)
        sched = ShutterSchedule(t_release_ns=150.0, delta_closed_rad_s=1e5 * rates.g)
        res = simulate_release(params, sched)
        assert res.metrics["preleak_fraction"] < 1e-6
        mask = res.envelope.times < 150.0
        assert float(np.sum(res.envelope.samples[mask] ** 2)) < 1e-9

    def test_pulse_width(self, base_release):
        assert base_release.metrics["fwhm_ns"] == pytest.approx(50.0, abs=25.0)

    def test_underdamped_overshoot(self, base_release):
        psi = base_release.envelope.samples
        peak = int(np.argmax(psi**2))
        assert psi[peak] > 0
        assert float(np.min(psi[peak:])) < -0.01 * psi[peak]

    def test_preleak_visible_at_default_detuning(self, base_release):
        assert base_release.metrics["preleak_fraction"] > 0.005
        mask = base_release.envelope.times < 150.0
        assert float(np.sum(base_release.envelope.samples[mask] ** 2)) > 1e-5

    def test_energy_bookkeeping(self, base_release):
        m = base_release.metrics
        total = m["emitted_fraction"] + m["loss_fraction"] + m["residual_fraction"]
        assert total == pytest.approx(1.0, abs=1e-6)
        assert m["preleak_fraction"] + (m["emitted_fraction"] - m["preleak_fraction"]) <= 1.0

    def test_envelope_normalized(self, base_release):
        assert float(np.sum(base_release.envelope.samples**2)) == pytest.approx(1.0, abs=1e-9)

    def test_decoupled_cavity_has_no_output(self):
        with pytest.raises(DegenerateInputError):
            simulate_release(CavityParams(t_mc_sc=0.0), ShutterSchedule(t_release_ns=150.0))

    def test_non_finite_detuning_raises(self, params):
        with pytest.raises(NumericFailureError):
            simulate_release(params, ShutterSchedule(t_release_ns=150.0, delta_closed_rad_s=np.inf))

    def test_deterministic(self, params, base_release):
        again = simulate_release(params, ShutterSchedule(t_release_ns=150.0))
        np.testing.assert_array_equal(again.envelope.samples, base_release.envelope.samples)
        np.testing.assert_array_equal(again.mc_population, base_release.mc_population)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            ShutterSchedule(t_release_ns=0.0)  # not inside the window

    @pytest.mark.parametrize("t_release_ns", [150.5, 150.05])
    def test_release_off_the_1ns_grid_rejected(self, t_release_ns):
        # the release is propagated on the 1 ns grid of the modes and frames
        with pytest.raises(ValueError, match=rf"^the release offset of {t_release_ns} ns is not a multiple of 1 ns"):
            ShutterSchedule(t_release_ns=t_release_ns)
        # an offset within GRID_TOL of whole ns is on the grid
        assert ShutterSchedule(t_release_ns=150.0000001).t_release_ns == 150.0000001

    def test_window_length_follows_the_whole_ns_rule(self, params):
        # the one whole-ns rule of modes.whole_ns: a window 1e-7 ns off a
        # whole length lies on the grid, as every offset within GRID_TOL does
        sched = ShutterSchedule(t_release_ns=150.0, t_end_ns=1000.0000001)
        assert simulate_release(params, sched).envelope.n_samples == 1000
        assert ExperimentConfig(window_end_ns=1000.0000001).n_samples == 1000
        with pytest.raises(ValueError, match=r"^the window length of 1000\.01 ns is not a multiple of 1 ns"):
            ShutterSchedule(t_release_ns=150.0, t_end_ns=1000.01)


class TestRealMode:
    """The projection of the complex output field onto the real release mode."""

    def test_constant_phase_keeps_all_energy(self):
        rng = np.random.default_rng(13)
        amplitude = rng.normal(size=32)
        mode = _real_mode(amplitude * np.exp(1j * 0.7), 5.0)
        # the rotation undoes the phase: the mode is the whole field
        expected = amplitude / np.linalg.norm(amplitude)
        np.testing.assert_allclose(np.abs(mode.samples), np.abs(expected), atol=1e-12)
        assert abs(float(mode.samples @ expected)) == pytest.approx(1.0, abs=1e-12)
        assert mode.samples[np.argmax(np.abs(mode.samples))] > 0
        assert mode.t0 == 5.0

    def test_mixed_phase_splits_energy(self):
        # half the energy is in phase, half in quadrature: the mode keeps
        # the in-phase half and drops the other
        mode = _real_mode(np.array([1.0, 1.0j, 1.0, 1.0j]), 0.0)
        np.testing.assert_allclose(mode.samples, [np.sqrt(0.5), 0.0, np.sqrt(0.5), 0.0], atol=1e-15)

    def test_zero_energy_rejected(self):
        with pytest.raises(DegenerateInputError, match="zero-energy"):
            _real_mode(np.zeros(4, dtype=complex), 0.0)


def _held_closed_slope_lifetime(params: CavityParams) -> float:
    """1/e time (ns) of the stored population from a log-linear fit over
    1000 ns held closed at the default detuning, on a 0.1 ns grid."""
    t_ns = np.linspace(0.0, 1000.0, 10001)
    a_matrix = _drift_matrix(derive_rates(params), DEFAULT_SHUTTER_DETUNING_RAD_S)
    a = _propagate_segment(a_matrix, np.array([1.0, 0.0], dtype=complex), t_ns * NS)
    return -1.0 / float(np.polyfit(t_ns, np.log(np.abs(a[:, 0]) ** 2), 1)[0])


class TestStorageLifetime:
    def test_stock_hardware_lifetime(self, params):
        tau_ns = storage_lifetime(params)
        assert 1500.0 <= tau_ns <= 2500.0

    def test_doubling_loss_halves_lifetime(self, params):
        # single-cavity analytic oracle: tau ~ 1/gamma_M when leakage is small
        tau_1 = storage_lifetime(params)
        tau_2 = storage_lifetime(CavityParams(mc_loss=2 * params.mc_loss))
        assert tau_2 == pytest.approx(tau_1 / 2.0, rel=0.10)

    @pytest.mark.parametrize("loss_factor", [1.0, 2.0])
    def test_matches_held_closed_population_slope(self, params, loss_factor):
        # the slower eigenvalue sets the decay that the held-closed
        # population shows over the window
        lossy = CavityParams(mc_loss=loss_factor * params.mc_loss)
        assert storage_lifetime(lossy) == pytest.approx(_held_closed_slope_lifetime(lossy), rel=1e-5)

    def test_lossless_high_detuning_flagged(self):
        lossless = CavityParams(mc_loss=0.0)
        assert storage_lifetime(lossless, 1e12) > 100 * 1000.0

    def test_non_decaying_population_rejected(self):
        frozen = CavityParams(mc_loss=0.0, t_mc_sc=0.0)
        with pytest.raises(FitFailureError):
            storage_lifetime(frozen)


class TestEnvelopeFamily:
    def test_identical_schedules_identical_envelopes(self, params):
        a, b = (simulate_release(params, ShutterSchedule(t_release_ns=250.0)) for _ in range(2))
        np.testing.assert_array_equal(a.envelope.samples, b.envelope.samples)

    def test_peak_times_shift_with_release(self, params):
        releases = [simulate_release(params, ShutterSchedule(t_release_ns=t)) for t in (150.0, 250.0, 350.0, 450.0)]
        peaks = [r.metrics["peak_time_ns"] for r in releases]
        np.testing.assert_allclose(np.diff(peaks), 100.0, atol=2.0)

    def test_shape_invariant_under_storage_time(self, params, base_release):
        base_post = clip_and_renormalize(base_release.envelope, (150.0, 990.0))
        for t_rel in (250.0, 350.0, 450.0):
            res = simulate_release(params, ShutterSchedule(t_release_ns=t_rel))
            post = clip_and_renormalize(res.envelope, (t_rel, 999.0))
            assert overlap_sq(time_shift(base_post, t_rel - 150.0), post) >= 0.99


class TestCalibration:
    def test_default_detuning_hits_preleak_target(self, params):
        sched = ShutterSchedule(t_release_ns=450.0, delta_closed_rad_s=DEFAULT_SHUTTER_DETUNING_RAD_S)
        res = simulate_release(params, sched)
        assert res.metrics["preleak_fraction"] == pytest.approx(0.03, abs=0.005)


class TestReleaseIo:
    def test_csv_and_metrics_round_trip(self, tmp_path, base_release):
        # the files `photonmem simulate` and each sweep condition emit
        write_files(tmp_path, release_files(base_release))
        rows = (tmp_path / "envelope.csv").read_text().strip().splitlines()
        assert rows[0] == "t_ns,psi,mc_pop"
        assert len(rows) == base_release.envelope.n_samples + 1
        t, psi, pop = rows[1].split(",")
        assert float(t) == base_release.envelope.t0
        assert float(psi) == pytest.approx(base_release.envelope.samples[0], rel=1e-9)
        assert float(pop) == pytest.approx(base_release.mc_population[0], rel=1e-9)

        loaded = json.loads((tmp_path / "release_metrics.json").read_text())
        assert loaded["fwhm_ns"] == pytest.approx(base_release.metrics["fwhm_ns"])


class TestSimpson:
    """The trapezoid integrals of the release and of criterion 7 against
    ``scipy.integrate.simpson``."""

    @pytest.mark.parametrize("t_release_ns", [150.0, 250.0, 350.0, 450.0])
    def test_release_grids(self, params, t_release_ns):
        # the three integrals of simulate_release on the 1 ns grid, against
        # Simpson's rule on a 0.01 ns grid of the same trajectory
        rates = derive_rates(params)
        closed_t = np.linspace(0.0, t_release_ns, round(100 * t_release_ns) + 1)
        open_t = np.linspace(0.0, 1000.0 - t_release_ns, round(100 * (1000.0 - t_release_ns)) + 1)
        closed = _propagate_segment(
            _drift_matrix(rates, DEFAULT_SHUTTER_DETUNING_RAD_S), np.array([1.0, 0.0], dtype=complex), closed_t * NS
        )
        opened = _propagate_segment(_drift_matrix(rates, 0.0), closed[-1], open_t * NS)
        a = np.concatenate([closed, opened[1:]])
        t_s = np.concatenate([closed_t, t_release_ns + open_t[1:]]) * NS
        pop_m, pop_s = np.abs(a[:, 0]) ** 2, np.abs(a[:, 1]) ** 2
        out_rate = rates.kappa_out * pop_s
        k_rel = closed_t.size - 1
        expected = {
            "emitted_fraction": simpson(out_rate, x=t_s),
            "preleak_fraction": simpson(out_rate[: k_rel + 1], x=t_s[: k_rel + 1]),
            "loss_fraction": simpson(rates.gamma_m * pop_m + rates.gamma_s * pop_s, x=t_s),
        }
        metrics = simulate_release(params, ShutterSchedule(t_release_ns)).metrics
        for name, value in expected.items():
            assert metrics[name] == pytest.approx(value, abs=2e-7), name

    def test_wigner_marginal_grid(self):
        # criterion 7's grid: W(x, p) integrated over p, one row per x
        x = np.linspace(-3.5, 3.5, 29)
        p_grid, dp = np.linspace(-8.0, 8.0, 3201, retstep=True)
        state = FockDiagonalState.from_weights(np.random.default_rng(3).random(6))
        w = wigner(state, x[:, None], p_grid[None, :])
        np.testing.assert_allclose(trapezoid(w, dp), simpson(w, x=p_grid, axis=-1), rtol=0.0, atol=1e-12)


def _expm_states(a_matrix, a0, times):
    return np.array([expm(a_matrix * t) @ a0 for t in times])


class TestPropagateSegment:
    """The closed-form 2 x 2 exponential against ``scipy.linalg.expm``: to
    1e-13 of the largest state entry, where both round at about 1e-15."""

    @staticmethod
    def _check(a_matrix, a0, times):
        ours = _propagate_segment(a_matrix, a0, times)
        ref = _expm_states(a_matrix, a0, times)
        assert np.max(np.abs(ours - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_random_stable_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            # shift the spectrum into the left half-plane: a damped system
            a -= (np.linalg.eigvals(a).real.max() + rng.uniform(0.01, 2.0)) * np.eye(2)
            a0 = rng.normal(size=2) + 1j * rng.normal(size=2)
            self._check(a, a0, np.linspace(0.0, rng.uniform(0.1, 20.0), 40))

    def test_critical_damping(self):
        # one repeated eigenvalue and no eigenbasis: nu = 0 exactly
        for a in (
            np.array([[-1.0, 1.0], [0.0, -1.0]], dtype=complex),
            np.array([[-2.0, 1.0], [-1.0, 0.0]], dtype=complex),
            np.array([[-1.0 - 1j, 2j], [0.0, -1.0 - 1j]]),
        ):
            self._check(a, np.array([0.3 - 1j, 1.0 + 0.5j]), np.linspace(0.0, 30.0, 301))

    @pytest.mark.parametrize("nu_sq", [1e-30, 1e-12, 1e-4, 8e-3, 1.2e-2, 1.0])
    def test_near_critical_damping(self, nu_sq):
        # nu^2 = nu_sq; t up to 1 keeps |nu t| under the series limit 0.1
        # for the first four values and crosses it for the last two
        a = np.array([[-1.0, 1.0], [nu_sq, -1.0]], dtype=complex)
        self._check(a, np.array([1.0, -0.5j]), np.linspace(0.0, 1.0, 101))

    def test_stock_segments(self, params):
        rates = derive_rates(params)
        times = np.arange(0.0, 1001.0, 50.0) * NS
        for delta in (DEFAULT_SHUTTER_DETUNING_RAD_S, 0.0):
            a = np.array(
                [
                    [-0.5 * rates.gamma_m, -1j * rates.g],
                    [-1j * rates.g, -(0.5 * rates.kappa_out + 0.5 * rates.gamma_s + 1j * delta)],
                ]
            )
            self._check(a, np.array([1.0, 0.0], dtype=complex), times)

    def test_long_overdamped_segment_stays_finite(self):
        # nu t reaches 2.5e11: e^{mu t} cosh(nu t) as a product would
        # overflow, the two modal exponentials do not
        a = np.array([[-1e10, 1e9], [-1e9, -1.0]], dtype=complex)
        times = np.linspace(0.0, 50.0, 11)
        with np.errstate(over="raise", invalid="raise"):
            ours = _propagate_segment(a, np.array([1.0, 1.0], dtype=complex), times)
        assert np.all(np.isfinite(ours))
        ref = _expm_states(a, np.array([1.0, 1.0]), times)
        assert np.max(np.abs(ours - ref)) <= 1e-13 * np.max(np.abs(ref))
