import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import curve_fit

from photonmem import estimation, seeds

from photonmem.errors import (
    FitFailureError,
    InsufficientDataError,
)
from photonmem.estimation import (
    MLE_KKT_TOL,
    QuadratureBins,
    _fit_weighted,
    _kkt_of_gradient,
    _objective,
    autocovariance,
    bootstrap_purity,
    fit_exponential_decay,
    histogram_with_overlay,
    matched_window_pca,
    mle_photon_distribution,
    pca_from_frames,
    pca_leading_mode,
)
from photonmem.fock import FockDiagonalState, hermite_functions, quadrature_pdf
from photonmem.modes import overlap_sq
from photonmem.pipeline import estimate_frames
from photonmem.synth import (
    VACUUM_SIGMA,
    AdcSpec,
    FrameSet,
    _fock_inverse_cdf,
    extract_quadratures,
    synth_condition,
)

from conftest import IDEAL_ADC, binning_bound, frame_gradient, gaussian_mode, kkt_residual, unit_mode


@pytest.fixture(scope="module")
def mode64():
    return gaussian_mode(center=30.0, sigma=8.0, t0=0.0, n=64)


@pytest.fixture(scope="module")
def mode128():
    return gaussian_mode(center=60.0, sigma=12.0, t0=0.0, n=128)


def sample_mixture(state: FockDiagonalState, size: int, seed: int) -> np.ndarray:
    """Direct quadrature sampler (independent of the frame synthesizer)."""
    rng = np.random.default_rng(seed)
    ns = rng.choice(state.n_max + 1, size=size, p=state.c)
    out = np.empty(size)
    for n in range(state.n_max + 1):
        mask = ns == n
        count = int(mask.sum())
        if n == 0:
            out[mask] = rng.normal(0.0, VACUUM_SIGMA, count)
        else:
            out[mask] = np.interp(rng.random(count), *_fock_inverse_cdf(n))
    return out


class TestAutocovariance:
    def test_mixture_second_moment(self, mode64):
        # analytic oracle: V = I/2 + p psi psi^T for single-photon weight p
        p = 0.6
        m_frames = 30_000
        fs = synth_condition(FockDiagonalState.two_level(p), mode64, m_frames, 31, n_samples=64, adc=IDEAL_ADC)
        v = autocovariance(fs)
        target = np.eye(64) / 2.0 + p * np.outer(mode64.samples, mode64.samples)
        assert np.max(np.abs(v - target)) < 6.0 / np.sqrt(m_frames)

    def test_matches_float64_reference(self, mode64):
        # the block sums reorder the float64 reference's sums of M products;
        # each entry of either lies within gamma_M sum_k |x_ki x_kj| / M of
        # the exact value (Higham, Accuracy and Stability of Numerical
        # Algorithms, 2002, eq. 3.5), so they differ by at most twice that
        # ADC codes k count at their exact levels (k + 1/2) step
        for adc in (IDEAL_ADC, AdcSpec()):
            fs = synth_condition(
                FockDiagonalState.two_level(0.5), mode64, 5_000, 37, n_samples=64, adc=adc
            )
            m = fs.n_frames
            x = (fs.data + 0.5) * adc.step
            x -= x.mean(axis=0)
            ref = (x.T @ x) / m
            ref = (ref + ref.T) / 2.0
            u = np.finfo(np.float64).eps / 2.0
            gamma = m * u / (1.0 - m * u)
            bound = 2.0 * gamma * (np.abs(x).T @ np.abs(x)) / m
            assert np.all(np.abs(autocovariance(fs) - ref) <= bound)

    def test_single_frame_rejected(self, mode64):
        fs = synth_condition(FockDiagonalState.vacuum(), mode64, 1, 32, n_samples=64)
        with pytest.raises(InsufficientDataError):
            autocovariance(fs)

    def test_duplicated_frame_is_rank_deficient_but_valid(self, mode64):
        one = synth_condition(FockDiagonalState.vacuum(), mode64, 1, 33, n_samples=64)
        fs = FrameSet(np.repeat(one.data, 10, axis=0), one.t0, one.adc, 33)
        v = autocovariance(fs)
        # mean subtraction removes the only component entirely
        assert np.max(np.abs(v)) < 1e-9


class TestBinnedAutocovariance:
    """``autocovariance(fs, b=b, cols=...)``: the covariance of sums of ``b``
    samples over sqrt(b), taken in one uncentred pass."""

    @pytest.mark.parametrize("b", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("window", [None, (13.0, 101.0)], ids=["full", "window"])
    @pytest.mark.parametrize("adc", [AdcSpec(8, 2.5), AdcSpec(16, 2.5)], ids=["8-bit", "16-bit"])
    def test_matches_float64_reference(self, mode128, b, window, adc):
        # 2049 frames: two full row blocks and a partial third; full scale
        # 2.5 clips, so the outermost codes are in use.  The uncentred sums
        # of M products round within gamma_M sum_k |y_ki y_kj| of the exact
        # value (Higham 2002, eq. 3.5), and the reference's centred ones
        # within that of the centred bins; the column means here are
        # ~sigma/sqrt(M), so both lie inside the bound of
        # TestAutocovariance.test_matches_float64_reference, which leaves
        # room for the final few roundings of either
        fs = synth_condition(
            FockDiagonalState.two_level(0.5), mode128, 2049, 42, n_samples=128, adc=adc
        )
        i0, i1 = (0, 128) if window is None else (13, 101)
        n_bins = (i1 - i0) // b
        # exact levels: code k's level (k + 1/2) step
        x = (fs.data + 0.5) * adc.step
        x = x[:, i0 : i0 + n_bins * b]
        y = x.reshape(-1, b).sum(axis=1).reshape(fs.n_frames, n_bins) / np.sqrt(b)
        y -= y.mean(axis=0)
        m = fs.n_frames
        ref = (y.T @ y) / m
        ref = (ref + ref.T) / 2.0
        u = np.finfo(np.float64).eps / 2.0
        gamma = m * u / (1.0 - m * u)
        bound = 2.0 * gamma * (np.abs(y).T @ np.abs(y)) / m
        v = autocovariance(fs, b=b, cols=slice(i0, i1))
        assert v.shape == (n_bins, n_bins)
        assert np.all(np.abs(v - ref) <= bound)

    def test_codes_do_not_depend_on_row_order(self, mode128):
        # code sums and their products are exact integers in float64 (for
        # 16-bit codes at b = 8 while M < 131 072), so no reordering of the
        # rows, and no blocking, moves a bit
        for adc in (AdcSpec(), AdcSpec(16)):
            fs = synth_condition(
                FockDiagonalState.two_level(0.5), mode128, 2049, 43, n_samples=128, adc=adc
            )
            perm = np.random.default_rng(43).permutation(fs.n_frames)
            shuffled = FrameSet(fs.data[perm], fs.t0, fs.adc, fs.master_seed)
            np.testing.assert_array_equal(autocovariance(shuffled), autocovariance(fs))
            np.testing.assert_array_equal(
                autocovariance(shuffled, b=8, cols=slice(13, 101)),
                autocovariance(fs, b=8, cols=slice(13, 101)),
            )

    def test_vacuum_variance_preserved(self, mode128):
        fs = synth_condition(FockDiagonalState.vacuum(), mode128, 8_000, 27, n_samples=128, adc=IDEAL_ADC)
        var = np.diag(autocovariance(fs, b=4))
        assert var.size == 32
        assert np.all(np.abs(var - 0.5) < 0.05)

    def test_extraction_commutes_with_binning(self, mode128):
        # the upsampled mode on fine frames equals the coarse mode on the
        # binned frames
        fs = synth_condition(FockDiagonalState.two_level(0.6), mode128, 4_000, 28, n_samples=128, adc=IDEAL_ADC)
        pca = pca_from_frames(fs, bin_size=4)
        assert pca.mode.t0 == fs.t0 and pca.mode.samples.size == 128
        fine = extract_quadratures(fs, pca.mode)
        levels = (fs.data + 0.5) * fs.adc.step
        binned = levels.reshape(-1, 4).sum(axis=1).reshape(fs.n_frames, -1) / 2.0
        coarse = binned @ (pca.mode.samples.reshape(-1, 4).sum(axis=1) / 2.0)
        np.testing.assert_allclose(fine, coarse, atol=1e-5)

    def test_bad_bin_rejected(self, mode128):
        fs = synth_condition(FockDiagonalState.vacuum(), mode128, 2, 29, n_samples=128)
        for bin_size in (0, -4):
            with pytest.raises(ValueError, match="bin size"):
                pca_from_frames(fs, bin_size=bin_size)
        # fewer than 2 bins: 7 samples of 4 ns, and a window before the frame
        for window in ((10.0, 17.0), (-50.0, -10.0)):
            with pytest.raises(ValueError, match="window too short"):
                pca_from_frames(fs, window=window, bin_size=4)


class TestPcaLeadingMode:
    def test_exact_rank_one_update(self, mode64):
        # exact eigenstructure: I/2 + p psi psi^T has top pair (1/2 + p, psi)
        v = np.eye(64) / 2.0 + 0.582 * np.outer(mode64.samples, mode64.samples)
        pca = pca_leading_mode(v)
        assert pca.eigenvalue == pytest.approx(1.082, abs=1e-12)
        assert overlap_sq(pca.mode, unit_mode(mode64.samples, 0.0)) == pytest.approx(1.0, abs=1e-12)
        # the photon number the eigenvalue implies: lambda - 1/2
        assert pca.eigenvalue - 0.5 == pytest.approx(0.582, abs=1e-12)

    def test_degenerate_vacuum_spectrum(self):
        pca = pca_leading_mode(np.eye(32) / 2.0)
        assert pca.eigenvalue == pytest.approx(0.5, abs=1e-12)
        assert pca.spectrum[0] == pytest.approx(pca.spectrum[-1], abs=1e-12)

    def test_sign_convention(self):
        v = np.eye(8) / 2.0 + np.outer(-np.ones(8) / np.sqrt(8), -np.ones(8) / np.sqrt(8))
        pca = pca_leading_mode(v)
        assert pca.mode.samples[np.argmax(np.abs(pca.mode.samples))] > 0

    def test_non_symmetric_rejected(self):
        v = np.eye(4)
        v[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            pca_leading_mode(v)

    def test_spectrum_descending(self, mode64):
        fs = synth_condition(FockDiagonalState.two_level(0.5), mode64, 2_000, 34, n_samples=64)
        pca = pca_from_frames(fs)
        assert np.all(np.diff(pca.spectrum) <= 1e-12)


class TestMle:
    def test_vacuum_recovery(self):
        samples = sample_mixture(FockDiagonalState.vacuum(), 20_000, 35)
        result = mle_photon_distribution(QuadratureBins.of(samples), 5)
        assert result.state.c[0] >= 0.99

    def test_full_scale_mixture(self):
        # synthetic-sampling oracle at full acquisition scale and target weight
        truth = FockDiagonalState(np.array([0.418, 0.582]))
        samples = sample_mixture(truth, 43_000, 51)
        result = mle_photon_distribution(QuadratureBins.of(samples), 5)
        assert float(result.state.c[1]) == pytest.approx(0.582, abs=0.01)

    def test_two_photon_recovery(self):
        samples = sample_mixture(FockDiagonalState.fock(2), 43_000, 37)
        result = mle_photon_distribution(QuadratureBins.of(samples), 5)
        assert float(result.state.c[2]) >= 0.95

    def test_output_on_simplex(self):
        samples = sample_mixture(FockDiagonalState.two_level(0.3), 5_000, 38)
        c = mle_photon_distribution(QuadratureBins.of(samples), 7).state.c
        assert np.all(c >= 0)
        assert float(c.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_consistency_error_shrinks_with_samples(self):
        truth = FockDiagonalState(np.array([0.418, 0.582]))
        errs = {}
        for size in (4_000, 64_000):
            errors = []
            for rep in range(4):
                samples = sample_mixture(truth, size, 1000 + rep)
                c1 = float(mle_photon_distribution(QuadratureBins.of(samples), 5).state.c[1])
                errors.append(abs(c1 - 0.582))
            errs[size] = np.mean(errors)
        # 16x the data should cut the error ~4x; require at least 2x
        assert errs[64_000] < errs[4_000] / 2.0

    def test_too_few_samples_rejected(self):
        with pytest.raises(InsufficientDataError):
            QuadratureBins.of(np.zeros(100))

    def test_degenerate_samples_rejected(self):
        with pytest.raises(FitFailureError):
            QuadratureBins.of(np.full(2000, 1.3))

    def test_samples_beyond_the_grid_rejected(self):
        # one sample in the wrong units would make the bin count's grid
        # 1e7 bins long
        samples = sample_mixture(FockDiagonalState.vacuum(), 2_000, 64)
        samples[7] = 1e5
        with pytest.raises(ValueError, match="more than 1048576 bins"):
            QuadratureBins.of(samples)

    def test_kkt_conditions_hold_on_stock_like_data(self):
        # optimality checked directly, not against another optimizer, on the
        # bins the fit solves: the log-likelihood gradient is zero on the
        # support and <= 0 off it.  Per frame, the gradient at that optimum
        # lies within the binning bound of the bins' one
        truth = FockDiagonalState(np.array([0.418, 0.582]))
        samples = sample_mixture(truth, 15_000, 52)
        bins = QuadratureBins.of(samples)
        result = mle_photon_distribution(bins, 5)
        c = result.state.c
        pdf = bins.pdf[:6]
        grad = pdf @ (bins.counts / (c @ pdf)) / samples.size - 1.0
        assert np.all(np.abs(grad[c > 0]) <= 1e-6)
        assert np.all(grad[c == 0] <= 1e-6)
        assert np.any(c == 0)  # the optimum sits on the simplex boundary
        assert result.converged
        assert result.kkt_residual <= MLE_KKT_TOL
        assert result.loglik == pytest.approx(float(bins.counts @ np.log(c @ pdf)), rel=1e-12)
        frame_grad = -frame_gradient(c, samples)
        bound = binning_bound(c, samples)
        assert np.all(np.abs(frame_grad[c > 0]) <= 1e-6 + bound[c > 0])
        assert np.all(frame_grad[c == 0] <= 1e-6 + bound[c == 0])

    @pytest.mark.parametrize(
        "state",
        [
            FockDiagonalState.vacuum(),
            FockDiagonalState(np.array([0.418, 0.582])),
            FockDiagonalState(np.array([0.3, 0.5, 0.2])),
        ],
        ids=["vacuum", "stock", "two-photon"],
    )
    def test_binned_fit_is_within_the_binning_bound_of_the_frame_likelihood(self, state):
        # at the binned optimum, the per-frame gradient of each c_n lies
        # within binning_bound of the bins' gradient (1e-12: rounding, for
        # the vacuum's f_0 = 1, whose bound is 0)
        for size, seed in ((3_000, 70), (10_000, 71), (43_000, 72)):
            samples = sample_mixture(state, size, seed)
            bins = QuadratureBins.of(samples)
            c = mle_photon_distribution(bins, 5).state.c
            bins_grad = _objective(c, bins.pdf[:6], bins.counts / size)[1]
            bound = binning_bound(c, samples)
            assert np.all(np.abs(frame_gradient(c, samples) - bins_grad) <= bound + 1e-12)

    def test_kkt_residual_flags_a_non_optimal_point(self):
        samples = sample_mixture(FockDiagonalState.two_level(0.582), 5_000, 53)
        pdf = hermite_functions(5, samples) ** 2
        w = np.full(samples.size, 1.0 / samples.size)
        assert kkt_residual(np.full(6, 1.0 / 6.0), pdf, w) > 1e-2

    def test_abnormal_line_search_end_is_judged_by_kkt(self):
        # regression: on this bootstrap weight vector the former L-BFGS-B
        # solver ended its line search "ABNORMAL" at a point optimal to
        # rounding; the Newton fit must reach the KKT tolerance on it, and
        # the bootstrap must not count such refits as failures
        truth = FockDiagonalState(np.array([0.418, 0.582]))
        samples = sample_mixture(truth, 5_000, 904)
        pdf = hermite_functions(5, samples) ** 2
        bins = QuadratureBins.of(samples)
        point = mle_photon_distribution(bins, 5).state
        idx = seeds.stream(4, seeds.DOMAIN_BOOTSTRAP, 25).integers(0, samples.size, size=samples.size)
        w = np.bincount(idx, minlength=samples.size) / samples.size
        c, _, kkt = _fit_weighted(pdf, w, point.c)
        assert kkt <= MLE_KKT_TOL
        assert kkt == kkt_residual(c, pdf, w)
        boot = bootstrap_purity(bins, point, 40, n_max=5, master_seed=4)
        assert boot.std > 0.0
        assert boot.failures == 0

    def test_residual_comes_from_the_last_gradient(self, monkeypatch):
        # the fit reports the residual of the gradient it already holds: a
        # point fit evaluates the objective n_evals times, not once more,
        # and its residual is the whole-data one bit for bit; a refit's
        # gradient leaves out zero-weight columns, which moves only rounding
        samples = sample_mixture(FockDiagonalState(np.array([0.418, 0.582])), 5_000, 63)
        pdf = hermite_functions(5, samples) ** 2
        calls = []

        def counted(*args):
            calls.append(None)
            return _objective(*args)

        monkeypatch.setattr(estimation, "_objective", counted)
        w = np.full(samples.size, 1.0 / samples.size)
        c, n_evals, kkt = _fit_weighted(pdf, w, np.full(6, 1.0 / 6.0))
        assert len(calls) == n_evals
        assert kkt == kkt_residual(c, pdf, w) == _kkt_of_gradient(c, _objective(c, pdf, w)[1])
        w = self._resample_weights(samples.size, 63, 0)
        assert np.count_nonzero(w == 0) > 1000
        c, _, kkt = _fit_weighted(pdf, w, c)
        assert kkt == kkt_residual(c, pdf, w) <= MLE_KKT_TOL
        assert abs(kkt - _kkt_of_gradient(c, _objective(c, pdf, w)[1])) <= 1e-12

    @pytest.mark.parametrize(
        "state, n_max, n",
        [
            (FockDiagonalState.vacuum(), 5, 0),
            (FockDiagonalState.fock(2), 5, 2),
            (FockDiagonalState.two_level(0.582), 10, 1),
        ],
        ids=["vacuum", "fock-2", "n_max-10"],
    )
    def test_point_fit_from_uniform(self, state, n_max, n):
        samples = sample_mixture(state, 20_000, 60)
        result = mle_photon_distribution(QuadratureBins.of(samples), n_max)
        assert result.converged
        assert result.kkt_residual <= MLE_KKT_TOL
        assert result.state.c.size == n_max + 1
        assert float(result.state.c[n]) == pytest.approx(float(state.c[n]), abs=0.02)
        assert result.n_evals <= 30

    @staticmethod
    def _resample_weights(size: int, seed: int, b: int) -> np.ndarray:
        idx = seeds.stream(seed, seeds.DOMAIN_BOOTSTRAP, b).integers(0, size, size=size)
        return np.bincount(idx, minlength=size) / size

    def test_warm_refit_adds_a_zero_component(self):
        # the start lacks the |2> weight the data carry: it must enter
        samples = sample_mixture(FockDiagonalState(np.array([0.3, 0.5, 0.2])), 10_000, 61)
        pdf = hermite_functions(5, samples) ** 2
        w = self._resample_weights(samples.size, 61, 0)
        c, _, kkt = _fit_weighted(pdf, w, np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0]))
        assert kkt <= MLE_KKT_TOL
        assert c[2] > 0.1
        cold, _, _ = _fit_weighted(pdf, w, np.full(6, 1.0 / 6.0))
        np.testing.assert_allclose(c, cold, atol=1e-6)

    def test_warm_refit_drops_a_free_component(self):
        # the start carries |3> weight the data lack: it must leave
        samples = sample_mixture(FockDiagonalState(np.array([0.418, 0.582])), 10_000, 62)
        pdf = hermite_functions(5, samples) ** 2
        w = self._resample_weights(samples.size, 62, 0)
        c, _, kkt = _fit_weighted(pdf, w, np.array([0.4, 0.4, 0.0, 0.2, 0.0, 0.0]))
        assert kkt <= MLE_KKT_TOL
        assert c[3] == 0.0
        cold, _, _ = _fit_weighted(pdf, w, np.full(6, 1.0 / 6.0))
        np.testing.assert_allclose(c, cold, atol=1e-6)

    def test_refit_evaluation_count(self):
        # warm refits of stock-like data take a handful of evaluations; the
        # Armijo rounding allowance keeps the last steps from backtracking
        # on rounding noise (without it this data set reads a mean of 6.0
        # and a worst refit of 40)
        samples = sample_mixture(FockDiagonalState(np.array([0.418, 0.582])), 10_000, 1)
        pdf = hermite_functions(5, samples) ** 2
        point = mle_photon_distribution(QuadratureBins.of(samples), 5).state
        evals = []
        for b in range(40):
            _, n_evals, kkt = _fit_weighted(pdf, self._resample_weights(samples.size, 1, b), point.c)
            assert kkt <= MLE_KKT_TOL
            evals.append(n_evals)
        assert np.mean(evals) <= 10
        assert max(evals) <= 12

    def test_n_max_validated(self):
        samples = sample_mixture(FockDiagonalState.vacuum(), 2_000, 39)
        with pytest.raises(ValueError):
            mle_photon_distribution(QuadratureBins.of(samples), 0)


class TestBootstrap:
    def test_resample_count_consistency(self, mode64):
        fs = synth_condition(FockDiagonalState.two_level(0.582), mode64, 6_000, 40, n_samples=64, adc=IDEAL_ADC)
        bins = QuadratureBins.of(extract_quadratures(fs, mode64))
        point = mle_photon_distribution(bins, 5).state
        std_small = bootstrap_purity(bins, point, 20, n_max=5, master_seed=40).std
        std_large = bootstrap_purity(bins, point, 100, n_max=5, master_seed=40).std
        assert std_small == pytest.approx(std_large, rel=0.5)

    def test_identical_frames_unstable(self, mode64):
        one = synth_condition(FockDiagonalState.vacuum(), mode64, 1, 41, n_samples=64)
        fs = FrameSet(np.repeat(one.data, 2_000, axis=0), one.t0, one.adc, 41)
        quads = extract_quadratures(fs, mode64)
        # identical quadratures have no spread to resample: they are refused
        # when binned, so the estimation path never returns a number
        with pytest.raises(FitFailureError):
            QuadratureBins.of(quads)
        with pytest.raises(FitFailureError):
            estimate_frames(fs, n_max=5, bootstrap_resamples=20)

    def test_minimum_resamples(self, mode64):
        fs = synth_condition(FockDiagonalState.vacuum(), mode64, 1_500, 42, n_samples=64)
        bins = QuadratureBins.of(extract_quadratures(fs, mode64))
        with pytest.raises(ValueError):
            bootstrap_purity(bins, FockDiagonalState.vacuum(), 10, master_seed=42)

    def test_fits_hold_no_per_frame_matrix(self):
        # the fits run on the quadratures' bins: at 43 000 samples, binning
        # plus the point fit, and 40 refits, each peak below 5 float64
        # arrays of one value per sample (the samples, their bin indices and
        # one resample's frame draws), where a likelihood matrix of one
        # column per sample alone is 6 of them
        samples = sample_mixture(FockDiagonalState(np.array([0.418, 0.582])), 43_000, 906)
        limit = 5 * 8 * samples.size
        tracemalloc.start()
        try:
            bins = QuadratureBins.of(samples)
            point = mle_photon_distribution(bins, 5).state
            point_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            bootstrap_purity(bins, point, 40, n_max=5, master_seed=906)
            boot_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert point_peak < limit
        assert boot_peak < limit


    def test_wigner_origin_spread_over_the_same_refits(self):
        # with n_max = 1, W(0,0) = (1 - 2 c_1) / pi on every refit, so its
        # spread is 2/pi that of c_1
        samples = sample_mixture(FockDiagonalState(np.array([0.418, 0.582])), 5_000, 905)
        bins = QuadratureBins.of(samples)
        point = mle_photon_distribution(bins, 1).state
        boot = bootstrap_purity(bins, point, 20, n_max=1, master_seed=5)
        assert boot.std > 0.0
        assert boot.wigner_origin_std == pytest.approx(2.0 / np.pi * boot.std, rel=1e-9)


class TestDecayFit:
    def test_reference_raw_points(self):
        fit = fit_exponential_decay(
            [(150.0, 0.582), (250.0, 0.546), (350.0, 0.531), (450.0, 0.497)]
        )
        assert fit.p0 == pytest.approx(0.626, abs=0.02)
        assert fit.tau_us == pytest.approx(1.98, rel=0.10)
        assert fit.warning is None

    def test_reference_shifted_points(self):
        fit = fit_exponential_decay(
            [(150.0, 0.582), (250.0, 0.529), (350.0, 0.499), (450.0, 0.448)]
        )
        assert fit.p0 == pytest.approx(0.659, abs=0.02)
        assert fit.tau_us == pytest.approx(1.19, rel=0.10)

    def test_two_exact_points_recovered_exactly(self):
        p0, tau_us = 0.8, 1.5
        pts = [(t, p0 * np.exp(-t / (1000 * tau_us))) for t in (200.0, 700.0)]
        fit = fit_exponential_decay(pts)
        assert fit.p0 == pytest.approx(p0, rel=1e-6)
        assert fit.tau_us == pytest.approx(tau_us, rel=1e-6)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-9)
        # no degrees of freedom are left for an error estimate
        assert fit.p0_err is None and fit.tau_err is None

    def test_non_decreasing_points_flagged(self):
        fit = fit_exponential_decay([(0.0, 0.4), (100.0, 0.45), (200.0, 0.5)])
        assert fit.warning is not None

    def test_flat_points_capped(self):
        fit = fit_exponential_decay([(0.0, 0.5), (100.0, 0.5), (200.0, 0.49999999)])
        assert fit.tau_us <= 100.0 * 0.2 + 1e-9
        assert fit.warning is not None and "capped" in fit.warning
        assert fit.p0_err is None and fit.tau_err is None

    def test_increasing_points_capped_at_their_mean(self):
        # tau = infinity is the best positive fit: P0 is the mean purity
        fit = fit_exponential_decay([(0.0, 0.4), (100.0, 0.45), (200.0, 0.5)])
        assert fit.tau_us == pytest.approx(100.0 * 0.2)
        assert fit.p0 == pytest.approx(0.45, rel=1e-9)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(estimation, "_LM_MAX_ITER", 1)
        with pytest.raises(FitFailureError):
            fit_exponential_decay([(150.0, 0.582), (250.0, 0.546), (350.0, 0.531), (450.0, 0.497)])

    @pytest.mark.parametrize(
        "points",
        [
            # gate criterion 4's reference point sets, raw and shifted
            [(150.0, 0.582), (250.0, 0.546), (350.0, 0.531), (450.0, 0.497)],
            [(150.0, 0.582), (250.0, 0.529), (350.0, 0.499), (450.0, 0.448)],
            # the seed-7 stock sweep (4 x 43 000 frames), raw and shifted
            [(150.0, 0.579058749389), (250.0, 0.542009964606), (350.0, 0.52986788459), (450.0, 0.490771429516)],
            [(150.0, 0.579058749389), (250.0, 0.54284738966), (350.0, 0.529608304343), (450.0, 0.489658838403)],
            # a steep decay, three points
            [(150.0, 0.5), (250.0, 0.3), (350.0, 0.1)],
        ],
    )
    def test_agrees_with_curve_fit(self, points):
        # scipy's bounded trust-region fit stops at its default tolerances
        # (1e-8), so the parameters and their standard errors agree to 1e-6
        # relative, and this fit's RSS is no larger than scipy's
        t = np.array([p[0] for p in points]) / 1000.0
        y = np.array([p[1] for p in points])

        def model(t, p0, tau):
            return p0 * np.exp(-t / tau)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            popt, pcov = curve_fit(
                model, t, y, p0=(y[0], 1.0), bounds=((1e-12, 1e-12), (np.inf, np.inf))
            )
        fit = fit_exponential_decay(points)
        assert fit.p0 == pytest.approx(popt[0], rel=1e-6)
        assert fit.tau_us == pytest.approx(popt[1], rel=1e-6)
        assert fit.p0_err == pytest.approx(np.sqrt(pcov[0, 0]), rel=1e-6)
        assert fit.tau_err == pytest.approx(np.sqrt(pcov[1, 1]), rel=1e-6)
        rss = float(np.sum(fit.residuals**2))
        assert rss <= float(np.sum((y - model(t, *popt)) ** 2)) * (1.0 + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_exponential_decay([(0.0, 0.5)])
        with pytest.raises(ValueError):
            fit_exponential_decay([(0.0, 0.5), (0.0, 0.4)])
        with pytest.raises(ValueError):
            fit_exponential_decay([(0.0, 1.2), (100.0, 0.5)])

    def test_deterministic(self):
        pts = [(150.0, 0.582), (250.0, 0.546), (350.0, 0.531), (450.0, 0.497)]
        a = fit_exponential_decay(pts)
        b = fit_exponential_decay(pts)
        assert (a.p0, a.tau_us) == (b.p0, b.tau_us)


class TestHistogram:
    def test_vacuum_histogram_matches_gaussian(self):
        samples = sample_mixture(FockDiagonalState.vacuum(), 40_000, 43)
        overlay = histogram_with_overlay(samples, FockDiagonalState.vacuum())
        widths = np.diff(overlay.edges)
        # chi^2 against the model at the 1% level
        expected = overlay.model * widths * samples.size
        counts = overlay.density * widths * samples.size
        mask = expected > 5
        chi2 = float(np.sum((counts[mask] - expected[mask]) ** 2 / expected[mask]))
        from scipy.stats import chi2 as chi2_dist

        assert chi2 < chi2_dist.ppf(0.99, df=int(mask.sum()) - 1)

    def test_bright_mixture_has_central_dip(self):
        state = FockDiagonalState.two_level(0.582)
        samples = sample_mixture(state, 43_000, 44)
        overlay = histogram_with_overlay(samples, state)
        at = lambda x: overlay.density[np.argmin(np.abs(overlay.centers - x))]
        assert at(0.0) < at(1.0)
        assert at(0.0) < at(-1.0)

    def test_overlay_is_normalized_density(self):
        # the fitted curve is the state's quadrature density, which integrates to 1
        from scipy.integrate import quad

        state = FockDiagonalState.two_level(0.45)
        total, _ = quad(lambda x: quadrature_pdf(state, x), -12, 12, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestSplitHalfReproducibility:
    def test_split_half_mode_match_at_full_scale(self, base_release):
        # two independent halves of a full-scale set agree on the mode to
        # better than 99% when the analysis runs at ~50 effective dimensions
        fs = synth_condition(
            FockDiagonalState.two_level(0.582), base_release.envelope,
            43_000, 45, n_samples=1000, adc=IDEAL_ADC,
        )
        half = fs.n_frames // 2
        a = FrameSet(fs.data[:half], fs.t0, fs.adc, fs.master_seed)
        b = FrameSet(fs.data[half:], fs.t0, fs.adc, fs.master_seed)
        window = (102.0, 102.0 + 336.0)
        mode_a = pca_from_frames(a, window=window, bin_size=8).mode
        mode_b = pca_from_frames(b, window=window, bin_size=8).mode
        assert overlap_sq(mode_a, mode_b) >= 0.99

    def test_matched_window_pca_recovers_truth(self, base_release):
        fs = synth_condition(
            FockDiagonalState.two_level(0.582), base_release.envelope,
            30_000, 46, n_samples=1000, adc=IDEAL_ADC,
        )
        pca = matched_window_pca(fs)
        assert overlap_sq(pca.mode, base_release.envelope) >= 0.985
        assert pca.eigenvalue == pytest.approx(1.082, abs=0.03)
