import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

from photonmem.errors import UndefinedCorrelationError
from photonmem.fock import (
    FockDiagonalState,
    apply_loss,
    g2_zero,
    mean_photon,
    quadrature_pdf,
    wigner,
    wigner_origin,
    wigner_section,
)


def random_state(seed: int, n_max: int = 6) -> FockDiagonalState:
    rng = np.random.default_rng(seed)
    return FockDiagonalState.from_weights(rng.random(n_max + 1) + 1e-4)


states = st.integers(0, 10_000).map(random_state)


class TestQuadraturePdf:
    def test_vacuum_at_origin(self):
        assert quadrature_pdf(FockDiagonalState.vacuum(), 0.0) == pytest.approx(
            1.0 / math.sqrt(math.pi), abs=1e-15
        )

    def test_single_photon_at_origin(self):
        assert quadrature_pdf(FockDiagonalState.fock(1), 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_two_photon_point_value(self):
        # oracle: P_2(x) = H_2(x)^2 exp(-x^2) / (2^2 2! sqrt(pi)), H_2 = 4x^2-2,
        # cross-checked by normalizing the brute-force quadrature integral
        h2 = lambda x: 4.0 * x**2 - 2.0
        unnorm = lambda x: h2(x) ** 2 * np.exp(-(x**2))
        norm, _ = quad(unnorm, -12, 12)
        assert norm == pytest.approx(8.0 * math.sqrt(math.pi), rel=1e-10)
        oracle = unnorm(1.0) / norm
        assert oracle == pytest.approx(0.1037768743551487, abs=1e-12)
        assert quadrature_pdf(FockDiagonalState.fock(2), 1.0) == pytest.approx(oracle, abs=1e-12)

    def test_single_photon_matches_closed_form(self):
        x = np.linspace(-4, 4, 81)
        expected = 2.0 * x**2 * np.exp(-(x**2)) / math.sqrt(math.pi)
        np.testing.assert_allclose(quadrature_pdf(FockDiagonalState.fock(1), x), expected, atol=1e-14)

    @given(states)
    @settings(max_examples=30, deadline=None)
    def test_normalization(self, state):
        x = np.linspace(-10, 10, 4001)
        total = simpson(quadrature_pdf(state, x), x=x)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            quadrature_pdf(FockDiagonalState.vacuum(), np.inf)


class TestWigner:
    def test_single_photon_origin(self):
        assert wigner_origin(FockDiagonalState.fock(1)) == pytest.approx(-1.0 / math.pi, abs=1e-15)
        assert wigner(FockDiagonalState.fock(1), 0.0, 0.0) == pytest.approx(-1.0 / math.pi, abs=1e-15)

    def test_vacuum_origin(self):
        assert wigner_origin(FockDiagonalState.vacuum()) == pytest.approx(1.0 / math.pi, abs=1e-15)

    def test_even_odd_parity_values(self):
        for n in range(6):
            expected = (1.0 if n % 2 == 0 else -1.0) / math.pi
            assert wigner_origin(FockDiagonalState.fock(n)) == pytest.approx(expected, abs=1e-12)

    def test_two_level_mixture_origin(self):
        # linearity of the Wigner map: p W_1(0,0) + (1-p) W_0(0,0)
        p = 0.582
        value = wigner_origin(FockDiagonalState.two_level(p))
        assert value == pytest.approx((1.0 - 2.0 * p) / math.pi, abs=1e-12)
        # brute-force oracle: numeric evaluation of the defining sum
        oracle = p * (-1 / math.pi) + (1 - p) * (1 / math.pi)
        assert value == pytest.approx(oracle, abs=1e-15)

    def test_parity_balance(self):
        assert wigner_origin(FockDiagonalState(np.array([0.5, 0.5]))) == pytest.approx(0.0, abs=1e-15)
        assert wigner_origin(FockDiagonalState(np.array([0.3, 0.5, 0.2]))) == pytest.approx(0.0, abs=1e-12)

    def test_vacuum_is_gaussian(self):
        x = np.linspace(-3, 3, 31)
        expected = np.exp(-(x**2)) / math.pi
        np.testing.assert_allclose(wigner(FockDiagonalState.vacuum(), x, 0.0), expected, atol=1e-14)

    def test_single_photon_closed_form(self):
        x, p = 0.7, -0.4
        r2 = x**2 + p**2
        expected = (2.0 * r2 - 1.0) * np.exp(-r2) / math.pi
        assert wigner(FockDiagonalState.fock(1), x, p) == pytest.approx(expected, abs=1e-14)

    @given(states)
    @settings(max_examples=50, deadline=None)
    def test_origin_consistency(self, state):
        assert wigner_origin(state) == pytest.approx(wigner(state, 0.0, 0.0), abs=1e-12)

    @given(states)
    @settings(max_examples=15, deadline=None)
    def test_marginal_gives_quadrature_pdf(self, state):
        x = np.linspace(-3, 3, 13)
        p_grid = np.linspace(-8, 8, 1601)
        w = wigner(state, x[:, None], p_grid[None, :])
        marginal = simpson(w, x=p_grid, axis=1)
        np.testing.assert_allclose(marginal, quadrature_pdf(state, x), atol=1e-5)

    def test_section_dips_negative_for_bright_mixture(self):
        section = wigner_section(FockDiagonalState.two_level(0.582))
        mid = np.argmin(np.abs(section.r))
        assert section.w[mid] < 0
        assert section.w[mid] == np.min(section.w)


class TestApplyLoss:
    def test_identity_at_unit_transmission(self):
        s = random_state(1)
        np.testing.assert_allclose(apply_loss(s, 1.0).c, s.c, atol=1e-15)

    def test_single_photon_binomial(self):
        # binomial enumeration oracle: one photon survives with prob eta
        out = apply_loss(FockDiagonalState.fock(1), 0.6)
        np.testing.assert_allclose(out.c, [0.4, 0.6], atol=1e-15)

    def test_full_loss_gives_vacuum(self):
        out = apply_loss(random_state(2), 0.0)
        assert out.c[0] == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(out.c[1:], 0.0, atol=1e-15)

    def test_matches_binomial_enumeration(self):
        # independent oracle: explicit survival enumeration
        s = random_state(3, n_max=5)
        eta = 0.37
        oracle = np.zeros(6)
        for n in range(6):
            for m in range(n + 1):
                oracle[m] += s.c[n] * math.comb(n, m) * eta**m * (1 - eta) ** (n - m)
        np.testing.assert_allclose(apply_loss(s, eta).c, oracle, atol=1e-14)

    @given(states, st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_semigroup(self, state, eta1, eta2):
        two_step = apply_loss(apply_loss(state, eta1), eta2)
        one_step = apply_loss(state, eta1 * eta2)
        np.testing.assert_allclose(two_step.c, one_step.c, atol=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            apply_loss(random_state(4), 1.5)


class TestG2:
    def test_single_photon(self):
        assert g2_zero(FockDiagonalState.fock(1)) == 0.0

    def test_poisson_is_one(self):
        n = np.arange(31)
        mean = 1.0
        weights = np.exp(-mean) * mean**n / np.array([math.factorial(k) for k in n])
        state = FockDiagonalState.from_weights(weights)
        assert g2_zero(state) == pytest.approx(1.0, abs=1e-9)

    def test_thermal_is_two(self):
        # brute-force sum oracle for a truncated geometric distribution
        nbar = 0.5
        n = np.arange(21)
        weights = (nbar / (1 + nbar)) ** n / (1 + nbar)
        state = FockDiagonalState.from_weights(weights)
        num = float(np.sum(n * (n - 1) * weights) / weights.sum())
        den = float(np.sum(n * weights) / weights.sum()) ** 2
        assert g2_zero(state) == pytest.approx(num / den, abs=1e-12)
        assert g2_zero(state) == pytest.approx(2.0, abs=1e-3)

    def test_vacuum_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            g2_zero(FockDiagonalState.vacuum())

    @given(states, st.floats(0.05, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_loss_invariance(self, state, eta):
        assert g2_zero(apply_loss(state, eta)) == pytest.approx(g2_zero(state), abs=1e-9)


class TestMeanPhoton:
    def test_values(self):
        assert mean_photon(FockDiagonalState.vacuum()) == 0.0
        assert mean_photon(FockDiagonalState(np.array([0.418, 0.582]))) == pytest.approx(0.582)
        assert mean_photon(FockDiagonalState(np.array([0.25, 0.5, 0.25]))) == pytest.approx(1.0)


class TestStateValidation:
    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            FockDiagonalState(np.array([1.1, -0.1]))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            FockDiagonalState(np.array([0.5, 0.4]))

    def test_from_weights_normalizes(self):
        s = FockDiagonalState.from_weights([2.0, 2.0])
        np.testing.assert_allclose(s.c, [0.5, 0.5])
