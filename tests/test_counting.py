import numpy as np
import pytest

from photonmem.counting import (
    JitterKernel,
    detection_density,
    g2_from_counts,
    jitter_decohered,
    simulate_heralded_clicks,
)
from photonmem.errors import InsufficientDataError
from photonmem.modes import normalized_mode, overlap_sq, time_shift

from conftest import gaussian_mode


@pytest.fixture(scope="module")
def pulse():
    return gaussian_mode(center=100.0, sigma=21.0, t0=0.0, n=256)


class TestDetectionDensity:
    def test_unit_efficiency_integrates_to_one(self, pulse):
        d = detection_density(1.0, 1.0, pulse)
        assert d.integral() == pytest.approx(1.0, abs=1e-9)

    def test_partial_efficiency(self, pulse):
        # Riemann-sum oracle: integral = p * eta
        d = detection_density(0.582, 0.5, pulse)
        oracle = 0.582 * 0.5 * float(np.sum(pulse.samples**2))
        assert d.integral() == pytest.approx(oracle, abs=1e-12)
        assert d.integral() == pytest.approx(0.291, abs=1e-9)

    def test_density_tracks_envelope_intensity(self, base_release):
        d = detection_density(1.0, 1.0, base_release.envelope)
        expected = base_release.envelope.samples**2 / base_release.envelope.dt
        np.testing.assert_allclose(d.values, expected, atol=1e-15)

    def test_range_validated(self, pulse):
        with pytest.raises(ValueError):
            detection_density(1.2, 1.0, pulse)


class TestJitterKernel:
    def test_delta_kernel(self):
        k = JitterKernel.delta(5.0)
        np.testing.assert_allclose(k.probabilities, [1.0])

    def test_gaussian_kernel_normalized(self):
        k = JitterKernel.gaussian(sigma_ns=25.0, dt=1.0)
        assert float(k.probabilities.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(ValueError, match="uniform"):
            JitterKernel(np.array([0.0, 1.0, 3.0]), np.array([0.3, 0.4, 0.3]))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="integrate"):
            JitterKernel(np.array([0.0, 1.0]), np.array([0.3, 0.3]))


class TestJitterDecohered:
    def test_delta_kernel_is_identity(self, pulse):
        out = jitter_decohered(pulse, JitterKernel.delta(0.0), pulse)
        assert out.purity == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(out.density.values, pulse.samples**2 / pulse.dt, atol=1e-15)

    def test_gaussian_jitter_decoheres(self, pulse):
        kernel = JitterKernel.gaussian(sigma_ns=25.0, dt=1.0)
        out = jitter_decohered(pulse, kernel, pulse)
        assert out.density.integral() == pytest.approx(1.0, abs=1e-6)
        assert out.purity < 1.0
        # independent double-integral oracle for the purity
        oracle = 0.0
        for tau, prob in zip(kernel.delays_ns, kernel.probabilities):
            oracle += prob * overlap_sq(time_shift(pulse, float(tau)), pulse)
        assert out.purity == pytest.approx(oracle, abs=1e-12)

    def test_wider_kernels_decohere_more(self, pulse):
        purities = []
        for sigma in (0.0, 10.0, 25.0, 50.0):
            kernel = JitterKernel.gaussian(sigma_ns=sigma, dt=1.0)
            purities.append(jitter_decohered(pulse, kernel, pulse).purity)
        assert all(a > b for a, b in zip(purities, purities[1:]))

    def test_subsample_delays_rejected(self, pulse):
        with pytest.raises(ValueError, match="multiples"):
            jitter_decohered(pulse, JitterKernel.delta(0.5), pulse)

    def test_click_density_cannot_see_decoherence(self, pulse):
        # the module's central contrast: a mixture of shifted pulses and the
        # single pure mode with the same averaged intensity give identical
        # click densities, but only homodyne-side purity drops
        kernel = JitterKernel(
            np.array([-20.0, 0.0, 20.0]), np.array([0.25, 0.5, 0.25]) / 1.0 / 20.0
        )
        out = jitter_decohered(pulse, kernel, pulse)
        matched = normalized_mode(
            np.sqrt(np.maximum(out.density.values * out.density.dt, 0.0)),
            out.density.t0,
            out.density.dt,
        )
        pure = detection_density(1.0, 1.0, matched)
        np.testing.assert_allclose(pure.values, out.density.values, atol=1e-12)
        assert out.purity < 0.9


class TestG2FromCounts:
    def test_independent_poisson_streams_are_flat(self):
        rng = np.random.default_rng(60)
        total = 2_000_000.0
        rate = 0.002  # per ns
        times_a = np.cumsum(rng.exponential(1.0 / rate, size=int(rate * total * 1.2)))
        times_b = np.cumsum(rng.exponential(1.0 / rate, size=int(rate * total * 1.2)))
        times_a = times_a[times_a < total]
        times_b = times_b[times_b < total]
        edges = np.linspace(-400.0, 400.0, 9)
        est = g2_from_counts(times_a, times_b, edges, total)
        assert np.all(np.abs(est.g2 - 1.0) < 4.0 * est.err)

    def test_heralded_source_is_antibunched(self, pulse):
        times_a, times_b, total = simulate_heralded_clicks(
            p=0.6, eta=0.5, psi=pulse, n_trials=120_000, trial_period_ns=1000.0, master_seed=61
        )
        # the cross-trial bin spans one full clock period so the comb of
        # adjacent-trial coincidences averages to the uncorrelated level
        edges = np.array([-250.0, 250.0, 500.0, 1500.0])
        est = g2_from_counts(times_a, times_b, edges, total)
        assert est.g2[0] == pytest.approx(0.0, abs=3.0 * est.err[0] + 1e-9)
        assert est.g2[2] == pytest.approx(1.0, abs=4.0 * est.err[2])

    def test_loss_invariance_of_g2(self, pulse):
        times_a, times_b, total = simulate_heralded_clicks(
            p=0.6, eta=0.5, psi=pulse, n_trials=200_000, trial_period_ns=1000.0, master_seed=62
        )
        edges = np.array([-250.0, 250.0, 750.0, 1250.0])
        full = g2_from_counts(times_a, times_b, edges, total)
        rng = np.random.default_rng(63)
        thin_a = times_a[rng.random(times_a.size) < 0.3]
        thin_b = times_b[rng.random(times_b.size) < 0.3]
        thinned = g2_from_counts(thin_a, thin_b, edges, total)
        band = 4.0 * np.sqrt(full.err**2 + thinned.err**2) + 1e-9
        assert np.all(np.abs(full.g2 - thinned.g2) <= band)

    def test_insufficient_events_rejected(self):
        with pytest.raises(InsufficientDataError):
            g2_from_counts(np.arange(10.0), np.arange(200.0), np.array([-1.0, 1.0]), 1e6)


class TestHeraldedClickSimulation:
    def test_click_rate_matches_p_eta(self, pulse):
        times_a, times_b, total = simulate_heralded_clicks(
            p=0.4, eta=0.5, psi=pulse, n_trials=100_000, trial_period_ns=1000.0, master_seed=65
        )
        n_clicks = times_a.size + times_b.size
        assert n_clicks == pytest.approx(0.2 * 100_000, rel=0.03)

    def test_click_times_follow_intensity(self, pulse):
        times_a, times_b, _ = simulate_heralded_clicks(
            p=1.0, eta=1.0, psi=pulse, n_trials=50_000, trial_period_ns=1000.0, master_seed=66
        )
        within = np.concatenate([times_a, times_b]) % 1000.0
        assert float(np.mean(within)) == pytest.approx(100.0 + 0.5, abs=1.0)
        # clicks follow |psi|^2, whose spread is sigma/sqrt(2)
        assert float(np.std(within)) == pytest.approx(21.0 / np.sqrt(2.0), rel=0.05)

    def test_trial_period_must_fit_mode(self, pulse):
        with pytest.raises(ValueError, match="trial period"):
            simulate_heralded_clicks(0.5, 0.5, pulse, 100, 100.0, 67)
