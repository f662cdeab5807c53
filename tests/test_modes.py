import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonmem.errors import DegenerateInputError
from photonmem.modes import (
    ModeFunction,
    clip_and_renormalize,
    detuned_effective_mode,
    inner_product,
    overlap_sq,
    time_shift,
)

from conftest import boxcar, detuning_overlap_penalty, gaussian_mode, unit_mode


def random_mode(seed: int, n: int = 64, t0: float = 0.0) -> ModeFunction:
    rng = np.random.default_rng(seed)
    return unit_mode(rng.normal(size=n), t0)


class TestInnerProduct:
    def test_self_overlap_is_one(self):
        m = random_mode(0)
        assert inner_product(m, m) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_boxcars_are_orthogonal(self):
        assert inner_product(boxcar(0.0, 100.0), boxcar(200.0, 100.0)) == 0.0

    def test_half_shifted_boxcar(self):
        # brute-force Riemann oracle: unit boxcars of width 100 ns shifted by
        # 50 ns share half their support, so the overlap integral is 1/2
        a = boxcar(0.0, 100.0)
        b = boxcar(50.0, 100.0)
        t = np.arange(-50.0, 200.0, 1.0)
        fa = np.where((t >= 0) & (t < 100), 1.0 / 10.0, 0.0)  # psi(t)*sqrt(1 ns)
        fb = np.where((t >= 50) & (t < 150), 1.0 / 10.0, 0.0)
        oracle = float(np.sum(fa * fb))
        assert oracle == pytest.approx(0.5, abs=1e-12)
        assert inner_product(a, b) == pytest.approx(oracle, abs=1e-12)

    def test_misaligned_grid_rejected(self):
        a = boxcar(0.0, 100.0)
        b = boxcar(0.25, 100.0)
        with pytest.raises(ValueError, match="misaligned"):
            inner_product(a, b)

    def test_symmetry(self):
        a, b = random_mode(1), random_mode(2, t0=10.0)
        assert inner_product(a, b) == pytest.approx(inner_product(b, a), abs=1e-15)

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_cauchy_schwarz(self, seed_a, seed_b):
        a, b = random_mode(seed_a), random_mode(seed_b)
        assert abs(inner_product(a, b)) <= 1.0 + 1e-12


class TestOverlapSq:
    def test_identical(self):
        m = random_mode(3)
        assert overlap_sq(m, m) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert overlap_sq(boxcar(0.0, 50.0), boxcar(500.0, 50.0)) == 0.0


class TestTimeShift:
    def test_zero_shift_identity(self):
        m = random_mode(4)
        shifted = time_shift(m, 0.0)
        assert shifted.t0 == m.t0
        np.testing.assert_array_equal(shifted.samples, m.samples)

    def test_round_trip(self):
        m = random_mode(5)
        back = time_shift(time_shift(m, 100.0), -100.0)
        assert back.t0 == m.t0
        np.testing.assert_array_equal(back.samples, m.samples)

    def test_non_multiple_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            time_shift(random_mode(6), 0.4)

    def test_preserves_norm_and_pairwise_products(self):
        a, b = random_mode(7), random_mode(8, t0=5.0)
        ip = inner_product(a, b)
        a2, b2 = time_shift(a, 37.0), time_shift(b, 37.0)
        assert np.sum(a2.samples**2) == pytest.approx(1.0, abs=1e-12)
        assert inner_product(a2, b2) == pytest.approx(ip, abs=1e-15)

    def test_shifted_release_mode_matches_simulated(self, params, base_release):
        # the wavepacket shape is storage-time independent: shifting the base
        # release envelope by 300 ns reproduces the 450 ns-release envelope
        from photonmem import ShutterSchedule, simulate_release

        late = simulate_release(params, ShutterSchedule(t_release_ns=450.0))
        base_post = clip_and_renormalize(base_release.envelope, (150.0, 990.0))
        late_post = clip_and_renormalize(late.envelope, (450.0, 999.0))
        assert overlap_sq(time_shift(base_post, 300.0), late_post) >= 0.99


class TestClipAndRenormalize:
    def test_full_window_is_identity(self):
        m = random_mode(9)
        clipped = clip_and_renormalize(m, (m.t0 - 1, m.t_end + 1))
        np.testing.assert_allclose(clipped.samples, m.samples, atol=1e-15)

    def test_half_energy_boxcar_scales_by_sqrt2(self):
        # analytic renormalization: keeping half of a boxcar's energy scales
        # every surviving sample by sqrt(2)
        m = boxcar(0.0, 100.0)
        clipped = clip_and_renormalize(m, (0.0, 49.5))
        assert clipped.n_samples == 50
        np.testing.assert_allclose(clipped.samples, m.samples[0] * np.sqrt(2.0), rtol=1e-12)

    def test_release_window_clip(self, base_release):
        clipped = clip_and_renormalize(base_release.envelope, (-150.0, 450.0))
        assert clipped.t_end <= 450.0
        assert np.sum(clipped.samples**2) == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        m = random_mode(10)
        window = (10.0, 40.0)
        once = clip_and_renormalize(m, window)
        twice = clip_and_renormalize(once, window)
        np.testing.assert_array_equal(once.samples, twice.samples)

    def test_disjoint_window_rejected(self):
        with pytest.raises(DegenerateInputError):
            clip_and_renormalize(boxcar(0.0, 50.0), (500.0, 600.0))


class TestDetuningPenalty:
    @staticmethod
    def penalty(m, delta_rad_s, phase):
        """The single-photon weight the program's detuned mode keeps along
        ``m``: its in-phase weight times the squared overlap with ``m``."""
        eff, weight = detuned_effective_mode(m, delta_rad_s, phase)
        return weight * inner_product(eff, m) ** 2

    def test_no_detuning_no_phase(self):
        m = gaussian_mode(100.0, 20.0, 0.0, 200)
        value = self.penalty(m, 0.0, 0.0)
        assert value == pytest.approx(detuning_overlap_penalty(m, 0.0, 0.0), abs=1e-12)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_quadrature_phase_kills_overlap(self):
        # just short of pi/2 (where the mode is degenerate) the weight is
        # cos^2(phase) ~ 1e-8
        m = gaussian_mode(100.0, 20.0, 0.0, 200)
        phase = np.pi / 2 - 1e-4
        value = self.penalty(m, 0.0, phase)
        assert value == pytest.approx(detuning_overlap_penalty(m, 0.0, phase), rel=1e-9)
        assert value < 1.1e-8

    def test_small_detuning_is_harmless(self):
        # 500 kHz rotation across a ~50 ns pulse barely moves the phase
        m = gaussian_mode(100.0, 21.0, 0.0, 200)  # FWHM ~ 50 ns
        delta = 2 * np.pi * 500e3
        value = self.penalty(m, delta, 0.0)
        assert value == pytest.approx(detuning_overlap_penalty(m, delta, 0.0), abs=1e-12)
        assert value >= 0.99

    def test_effective_mode_normalized(self):
        m = gaussian_mode(100.0, 20.0, 0.0, 200)
        eff, weight = detuned_effective_mode(m, 2 * np.pi * 5e6, 0.3)
        assert np.sum(eff.samples**2) == pytest.approx(1.0, abs=1e-12)
        # the in-phase weight times its overlap with m is the penalty along m
        penalty = detuning_overlap_penalty(m, 2 * np.pi * 5e6, 0.3)
        assert weight * np.dot(eff.samples, m.samples) ** 2 == pytest.approx(penalty, abs=1e-12)
        assert penalty < weight < 1.0

    def test_effective_mode_degenerate(self):
        m = gaussian_mode(100.0, 20.0, 0.0, 200)
        with pytest.raises(DegenerateInputError):
            detuned_effective_mode(m, 0.0, np.pi / 2)


class TestModeFunctionValidation:
    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            ModeFunction(np.ones(4), 0.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ModeFunction(np.array([np.nan, 1.0]), 0.0)
