import numpy as np
import pytest

from photonmem.counting import g2_from_counts, simulate_heralded_clicks
from photonmem.errors import InsufficientDataError

from conftest import gaussian_mode


@pytest.fixture(scope="module")
def pulse():
    return gaussian_mode(center=100.0, sigma=21.0, t0=0.0, n=256)


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
