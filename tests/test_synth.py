import errno
import math
import os
import struct
import sys
import textwrap
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest, norm

from photonmem import seeds, synth
from photonmem.cli import cli_entry
from photonmem.estimation import QuadratureBins, mle_photon_distribution
from photonmem.fock import FockDiagonalState
from photonmem.modes import ModeFunction
from photonmem.synth import (
    FRAME_BLOCK,
    AdcSpec,
    FrameSet,
    ImperfectionConfig,
    _fock_inverse_cdf,
    _gaussian_rows,
    extract_quadratures,
    load_frames,
    save_frames,
    synth_condition,
    synth_to_file,
)

from conftest import IDEAL_ADC, boxcar, detuning_overlap_penalty, gaussian_mode, run_fresh_python, unit_mode


def _mle(fs, mode):
    """The Fock cutoff 5 fit of ``fs``'s quadratures along ``mode``."""
    return mle_photon_distribution(QuadratureBins.of(extract_quadratures(fs, mode)), 5)


def p1_cdf(x):
    # exact CDF of the single-photon quadrature density 2x^2 e^{-x^2}/sqrt(pi)
    from scipy.special import erf

    return 0.5 * (1.0 + erf(x)) - x * np.exp(-(x**2)) / math.sqrt(math.pi)


@pytest.fixture(scope="module")
def mode():
    return gaussian_mode(center=60.0, sigma=12.0, t0=0.0, n=128)


@pytest.fixture(scope="module")
def narrow():
    """A mode that fits an odd, 127-sample frame as well as a 128-sample one."""
    return gaussian_mode(center=50.0, sigma=10.0, t0=0.0, n=100)


@pytest.fixture(scope="module")
def ortho(mode):
    """A mode orthogonal to ``mode`` on the same grid."""
    # antisymmetric partner about the pulse center is nearly orthogonal
    partner = unit_mode(mode.samples * np.sign(mode.times - 60.0 + 0.25), 0.0)
    assert abs(np.dot(partner.samples, mode.samples)) < 0.05
    return unit_mode(partner.samples - np.dot(partner.samples, mode.samples) * mode.samples, 0.0)


class TestSynthFrame:
    def test_vacuum_per_bin_variance(self, mode):
        fs = synth_condition(FockDiagonalState.vacuum(), mode, 10_000, 11, n_samples=128, adc=IDEAL_ADC)
        var = fs.frames.astype(float).var(axis=0)
        # variance of a variance estimate: ~ 0.5 sqrt(2/M); allow 3 sigma + binomial band
        band = 3.0 * 0.5 * math.sqrt(2.0 / 10_000)
        assert np.all(np.abs(var - 0.5) < band + 0.01)

    def test_vacuum_column_is_normal(self, mode):
        # one sample of every frame: a Box-Muller sine, scale sqrt(1/2)
        fs = synth_condition(FockDiagonalState.vacuum(), mode, 20_000, 43, n_samples=128, adc=IDEAL_ADC)
        assert kstest(fs.frames[:, 100], norm(scale=math.sqrt(0.5)).cdf).pvalue > 0.01

    def test_single_photon_quadratures_match_p1(self, mode):
        fs = synth_condition(FockDiagonalState.fock(1), mode, 43_000, 12, n_samples=128, adc=IDEAL_ADC)
        quads = extract_quadratures(fs, mode)
        assert kstest(quads, p1_cdf).pvalue > 0.01

    def test_orthogonal_mode_stays_vacuum(self, mode, ortho):
        fs = synth_condition(FockDiagonalState.fock(1), mode, 20_000, 13, n_samples=128, adc=IDEAL_ADC)
        quads = extract_quadratures(fs, ortho)
        cdf = lambda x: 0.5 * (1.0 + np.vectorize(math.erf)(x))
        assert kstest(quads, cdf).pvalue > 0.01

    def test_mode_must_fit_frame(self, mode):
        with pytest.raises(ValueError, match="exceeds the frame window"):
            synth_condition(FockDiagonalState.vacuum(), mode, 1, 0, n_samples=64)


class TestExtract:
    def test_projection_recovers_coefficient(self):
        # a step of 1/8: code 7 is the level 15/16 = 3.75 x 1/4, so a boxcar
        # of height 1/4 and the coefficient 3.75 are exact
        adc = AdcSpec(16, 4096.0)
        box = boxcar(40.0, 16.0)
        codes = np.zeros((1, 128), np.int16)
        codes[0, 40:56] = 7
        assert (7 + 0.5) * adc.step == 3.75 * box.samples[0]
        fs = FrameSet(codes, t0=0.0, adc=adc, master_seed=0)
        assert extract_quadratures(fs, box)[0] == pytest.approx(3.75, abs=1e-12)

    def test_orthogonal_frame_projects_to_zero(self, mode):
        # a 5.0 spike at the first sample, where the mode has negligible
        # weight, moves the projection of a frame of code 0 by nearly nothing
        codes = np.zeros((2, 128), np.int16)
        codes[1, 0] = IDEAL_ADC.encode(np.array([5.0]))[0]
        fs = FrameSet(codes, t0=0.0, adc=IDEAL_ADC, master_seed=0)
        quads = extract_quadratures(fs, mode)
        assert abs(quads[1] - quads[0]) < 1e-5

    def test_vacuum_ensemble_variance(self, mode):
        fs = synth_condition(FockDiagonalState.vacuum(), mode, 10_000, 14, n_samples=128, adc=IDEAL_ADC)
        var = float(np.var(extract_quadratures(fs, mode)))
        assert var == pytest.approx(0.5, abs=0.03)

    def test_matches_per_row_dot_products(self, mode):
        fs = synth_condition(
            FockDiagonalState.two_level(0.5), mode, 2049, 37, n_samples=160, adc=AdcSpec()
        )
        cols = slice(0, 128)  # the mode starts at t0 = 0 on the frame grid
        # codes count at their exact levels (k + 1/2) step
        exact = (fs.data.astype(np.float64) + 0.5) * fs.adc.step
        ref = np.array([np.dot(row[cols], mode.samples) for row in exact])
        quads = extract_quadratures(fs, mode)
        np.testing.assert_allclose(quads, ref, rtol=0, atol=1e-12)
        # the float32 levels of .frames are within their rounding of those
        bound = np.abs(mode.samples).sum() * np.abs(fs.frames - exact).max()
        decoded = np.array([np.dot(row[cols].astype(np.float64), mode.samples) for row in fs.frames])
        assert np.abs(quads - decoded).max() <= bound

    def test_grid_mismatch_rejected(self, mode):
        fs = synth_condition(FockDiagonalState.vacuum(), mode, 2, 15, n_samples=128)
        shifted = ModeFunction(mode.samples, 0.5)
        with pytest.raises(ValueError, match="misaligned"):
            extract_quadratures(fs, shifted)


class TestFockSampler:
    @pytest.mark.parametrize("n,var", [(0, 0.5), (1, 1.5), (2, 2.5), (3, 3.5)])
    def test_moments(self, n, var):
        # the inverse-CDF table synthesis maps its quadrature uniforms through
        u = np.random.default_rng(16).random(400_000)
        x = np.interp(u, *_fock_inverse_cdf(n))
        assert float(np.mean(x)) == pytest.approx(0.0, abs=0.02)
        assert float(np.var(x)) == pytest.approx(var, rel=0.02)


def _quantize(spec, values):
    """ADC levels of ``values``: the encoder, then the level table."""
    return spec.decode(spec.encode(values).astype(spec.code_dtype))


class TestQuantizeAdc:
    def test_values_on_levels_unchanged(self):
        spec = AdcSpec(bits=3, full_scale=1.0)
        step = 2.0 / 8
        levels = (np.arange(-4, 4) + 0.5) * step
        np.testing.assert_array_equal(spec.encode(levels), np.arange(-4, 4))
        np.testing.assert_allclose(_quantize(spec, levels), levels, atol=1e-15)
        np.testing.assert_array_equal(np.sort(spec.levels), levels)

    def test_saturation(self):
        spec = AdcSpec(bits=3, full_scale=1.0)
        step = 2.0 / 8
        top = 3.5 * step  # mid-rise rails are symmetric: +-(2^bits/2 - 1/2) steps
        assert spec.encode(np.array([10.0, -10.0])).tolist() == [3, -4]
        assert _quantize(spec, np.array([10.0]))[0] == pytest.approx(top)
        assert _quantize(spec, np.array([-10.0]))[0] == pytest.approx(-top)

    def test_monotone(self):
        x = np.linspace(-2, 2, 1001)
        q = _quantize(AdcSpec(8, 1.5), x)
        assert np.all(np.diff(q) >= 0)

    def test_quantization_barely_moves_mle(self, mode):
        # same seed with the ideal 16-bit and the 8-bit ADC: the c1 estimate
        # moves by far less than the 0.01 budget
        state = FockDiagonalState.two_level(0.582)
        raw = synth_condition(state, mode, 15_000, 17, n_samples=128, adc=IDEAL_ADC)
        q = synth_condition(state, mode, 15_000, 17, n_samples=128, adc=AdcSpec())
        c1_raw = float(_mle(raw, mode).state.c[1])
        c1_q = float(_mle(q, mode).state.c[1])
        assert abs(c1_raw - c1_q) <= 0.01

    def test_bits_validated(self):
        with pytest.raises(ValueError):
            AdcSpec(1, 1.0)

    @pytest.mark.parametrize("full_scale", [0.0, -1.0, math.inf, math.nan])
    def test_full_scale_validated(self, full_scale):
        # an infinite full scale would store every sample as code 0 or -1
        # at an infinite level
        with pytest.raises(ValueError, match="positive and finite"):
            AdcSpec(8, full_scale)

    @pytest.mark.parametrize("bits, full_scale", [(3, 1.0), (8, 7.0710678118654755), (16, 0.5)])
    def test_in_place_matches_out_of_place(self, bits, full_scale):
        spec = AdcSpec(bits, full_scale)
        rng = np.random.default_rng(bits)
        values = rng.normal(0.0, full_scale, (64, 33))
        values[0, :4] = [10 * full_scale, -10 * full_scale, full_scale, -full_scale]  # saturated
        expected = spec.encode(values)
        buf = values.copy()
        got = spec.encode(buf, out=buf)
        assert got is buf
        assert got.tobytes() == expected.tobytes()
        assert np.all(np.abs(spec.decode(expected.astype(spec.code_dtype))) < full_scale)


class TestSeeds:
    def test_streams_are_pcg64dxsm(self):
        assert isinstance(seeds.stream(7, seeds.DOMAIN_FRAME, 0).bit_generator, np.random.PCG64DXSM)

    def test_distinct_paths_give_distinct_draws(self):
        paths = [
            (7, seeds.DOMAIN_FRAME, 0),
            (7, seeds.DOMAIN_FRAME, 1),
            (7, seeds.DOMAIN_BOOTSTRAP, 0),
            (7, seeds.DOMAIN_FRAME, 0, 0),
            (8, seeds.DOMAIN_FRAME, 0),
        ]
        draws = [seeds.stream(*path).random(4).tobytes() for path in paths]
        assert len(set(draws)) == len(paths)
        assert seeds.stream(*paths[0]).random(4).tobytes() == draws[0]  # a path repeats


class TestGaussianDraw:
    """The Box-Muller draw under every frame: one raw word per sample pair."""

    #: largest radius, in units of sigma: the word whose top 40 bits are 0
    RADIUS_CAP = math.sqrt(82.0 * math.log(2.0))

    @pytest.fixture(scope="class")
    def vacuum_noise(self, mode):
        # 8192 frames x 128 samples: over 10^6 samples, i.i.d. N(0, 1/2 + 0.3^2)
        # since a vacuum frame with electronic noise is isotropic
        imp = ImperfectionConfig(electronic_noise_std=0.3)
        fs = synth_condition(
            FockDiagonalState.vacuum(), mode, 8 * FRAME_BLOCK, 51, n_samples=128, imperfections=imp, adc=IDEAL_ADC
        )
        return fs.frames.astype(np.float64), math.sqrt(0.5 + 0.3**2)

    def test_pooled_samples_are_normal(self, vacuum_noise):
        frames, sigma = vacuum_noise
        pooled = frames.ravel()
        assert pooled.size >= 10**6
        assert kstest(pooled, norm(scale=sigma).cdf).pvalue > 0.01

    @pytest.mark.parametrize("k", [3.0, 4.0])
    def test_tail_fractions(self, vacuum_noise, k):
        # counts beyond k sigma inside 4 binomial standard deviations
        frames, sigma = vacuum_noise
        n, p = frames.size, 2.0 * norm.sf(k)
        count = np.count_nonzero(np.abs(frames) > k * sigma)
        assert abs(count - n * p) < 4.0 * math.sqrt(n * p * (1.0 - p))

    def test_partner_columns_uncorrelated(self, vacuum_noise):
        # column j and j + N/2 share a word's radius: neither the samples
        # nor their squares may correlate
        frames, _ = vacuum_noise
        m, half = frames.shape[0], frames.shape[1] // 2
        for a, b in ((frames[:, :half], frames[:, half:]), (frames[:, :half] ** 2, frames[:, half:] ** 2)):
            a, b = a - a.mean(axis=0), b - b.mean(axis=0)
            corr = (a * b).sum(axis=0) / np.sqrt((a * a).sum(axis=0) * (b * b).sum(axis=0))
            assert np.abs(corr).max() < 5.0 / math.sqrt(m)

    @staticmethod
    def words_rng(words):
        """A stand-in generator whose raw words are ``words``."""
        return SimpleNamespace(bit_generator=SimpleNamespace(random_raw=lambda size: words[:size]))

    def test_word_bits_give_radius_and_angle(self):
        # top 40 bits k: radius sigma sqrt(-2 ln((k + 1/2) 2^-40)); low 24
        # bits a: angle a 2 pi 2^-24, cosine to column j, sine to j + 2
        ks = np.array([0, 1, 2**39, 2**40 - 1], np.uint64)
        angles = np.array([2**22, 0, 3 * 2**22, 2**23], np.uint64)  # pi/2, 0, 3 pi/2, pi
        rows = np.empty((2, 3))  # odd: each row's second word drops its sine
        _gaussian_rows(self.words_rng((ks << np.uint64(24)) | angles), rows, 0.5)
        radius = 0.5 * np.sqrt(-2.0 * np.log((ks.astype(np.float64) + 0.5) * 2.0**-40))
        assert radius[0] == pytest.approx(0.5 * self.RADIUS_CAP, rel=1e-15)
        theta = angles.astype(np.float32) * np.float32(2.0 * math.pi / 2**24)
        cos, sin = np.cos(theta, dtype=np.float64), np.sin(theta, dtype=np.float64)
        np.testing.assert_allclose(rows[:, :2].ravel(), radius * cos, rtol=1e-6, atol=1e-7)
        np.testing.assert_allclose(rows[:, 2], (radius * sin)[::2], rtol=1e-6, atol=1e-7)

    def test_no_sample_exceeds_radius_cap(self):
        # the largest radius (top 40 bits 0) at 65 536 angles around the circle
        angles = np.arange(0, 2**24, 2**8, dtype=np.uint64)
        rows = np.empty((1, 2 * angles.size))
        _gaussian_rows(self.words_rng(angles), rows, 1.0)
        assert np.abs(rows).max() <= self.RADIUS_CAP * (1.0 + 1e-15)


class TestImperfections:
    def test_displacement_shifts_mode_quadrature(self, mode):
        alpha = 0.5
        imp = ImperfectionConfig(displacement=alpha)
        fs = synth_condition(
            FockDiagonalState.vacuum(), mode, 20_000, 18, n_samples=128, imperfections=imp, adc=IDEAL_ADC
        )
        mean = float(np.mean(extract_quadratures(fs, mode)))
        assert mean == pytest.approx(math.sqrt(2.0) * alpha, abs=3.0 * math.sqrt(0.5 / 20_000) + 0.01)

    def test_extra_loss_degrades_purity(self, mode):
        state = FockDiagonalState.two_level(0.8)
        imp = ImperfectionConfig(extra_loss=0.5)
        fs = synth_condition(state, mode, 30_000, 19, n_samples=128, imperfections=imp, adc=IDEAL_ADC)
        c1 = float(_mle(fs, mode).state.c[1])
        assert c1 == pytest.approx(0.4, abs=0.02)

    @pytest.mark.parametrize(
        "p, phase, seed", [(1.0, 0.0, 20), (1.0, 0.0, 21), (1.0, 0.0, 22), (0.8, 0.3, 20)]
    )
    def test_detuning_attenuates_purity(self, mode, p, phase, seed):
        # the in-phase part carries only its weight of the photon, so along
        # the undetuned mode the single-photon weight is p times the penalty
        delta = 2 * math.pi * 3e6
        imp = ImperfectionConfig(detuning=(delta, phase))
        state = FockDiagonalState.two_level(p)
        fs = synth_condition(state, mode, 30_000, seed, n_samples=128, imperfections=imp, adc=IDEAL_ADC)
        c1 = float(_mle(fs, mode).state.c[1])
        penalty = detuning_overlap_penalty(mode, delta, phase)
        assert penalty < 0.99  # 3 MHz over a wide pulse is no longer harmless
        assert c1 == pytest.approx(p * penalty, abs=0.025)

    @pytest.mark.parametrize("which", ["mode", "ortho"])
    def test_electronic_noise_along_and_across_mode(self, mode, ortho, which):
        # the noise is folded into the block draw: the mode itself must carry
        # sigma_e^2 of it, not only the samples orthogonal to it
        m_frames, expected = 20_000, 0.5 + 0.3**2
        noisy = ImperfectionConfig(electronic_noise_std=0.3)
        fs = synth_condition(
            FockDiagonalState.vacuum(), mode, m_frames, 31, n_samples=128, imperfections=noisy, adc=IDEAL_ADC
        )
        quads = extract_quadratures(fs, {"mode": mode, "ortho": ortho}[which])
        # standard error of a Gaussian sample variance: var sqrt(2 / (M - 1))
        assert float(np.var(quads)) == pytest.approx(
            expected, abs=3.0 * expected * math.sqrt(2.0 / (m_frames - 1))
        )

    def test_electronic_noise_adds_variance(self, mode):
        noisy = ImperfectionConfig(electronic_noise_std=0.3)
        fs = synth_condition(
            FockDiagonalState.vacuum(), mode, 8_000, 30, n_samples=128, imperfections=noisy, adc=IDEAL_ADC
        )
        var = float(fs.frames.astype(float).var())
        assert var == pytest.approx(0.5 + 0.09, abs=0.02)

    def test_complex_displacement_rejected(self):
        # the displacement is real: a complex one used to construct and then
        # fail inside the synthesis threads with a numpy casting error
        with pytest.raises(ValueError, match=r"real amplitude, got 0\.5j"):
            ImperfectionConfig(displacement=0.5j)

    def test_loss_range_validated(self):
        with pytest.raises(ValueError):
            ImperfectionConfig(extra_loss=1.2)
        with pytest.raises(ValueError):
            ImperfectionConfig(electronic_noise_std=-0.1)


class TestDeterminism:
    def test_same_seed_bit_identical(self, mode):
        a = synth_condition(FockDiagonalState.two_level(0.5), mode, 500, 21, n_samples=128)
        b = synth_condition(FockDiagonalState.two_level(0.5), mode, 500, 21, n_samples=128)
        np.testing.assert_array_equal(a.frames, b.frames)

    def test_workers_do_not_change_bytes(self, mode):
        # 2049 frames are three blocks, the last one partial
        assert 2 * FRAME_BLOCK < 2049 < 3 * FRAME_BLOCK
        kw = dict(n_samples=128, adc=AdcSpec())
        a = synth_condition(FockDiagonalState.two_level(0.5), mode, 2049, 22, threads=1, **kw)
        b = synth_condition(FockDiagonalState.two_level(0.5), mode, 2049, 22, threads=3, **kw)
        assert a.frames.tobytes() == b.frames.tobytes()

    def test_frame_depends_only_on_seed_and_index(self, mode):
        # a block's uniforms come first and its normals row by row: a shorter
        # run is a prefix
        state = FockDiagonalState.two_level(0.5)
        imp = ImperfectionConfig(displacement=0.2, electronic_noise_std=0.1)
        short = synth_condition(state, mode, 1500, 35, n_samples=128, imperfections=imp)
        long = synth_condition(state, mode, 2049, 35, n_samples=128, imperfections=imp)
        np.testing.assert_array_equal(short.frames, long.frames[:1500])

    @pytest.mark.parametrize("adc", [AdcSpec(), AdcSpec(16)], ids=["adc", "16-bit"])
    def test_sub_block_does_not_change_bytes(self, monkeypatch, mode, adc):
        state = FockDiagonalState.two_level(0.5)
        imp = ImperfectionConfig(
            displacement=0.2, detuning=(2e7, 0.3), extra_loss=0.9, electronic_noise_std=0.1
        )
        kw = dict(n_samples=128, imperfections=imp, adc=adc)
        ref = synth_condition(state, mode, 2049, 44, **kw).data.tobytes()
        for rows in (1, 7, FRAME_BLOCK):
            monkeypatch.setattr(synth, "_SUB_BLOCK", rows)
            assert synth_condition(state, mode, 2049, 44, **kw).data.tobytes() == ref

    def test_odd_sample_count(self, monkeypatch, narrow):
        # 127 samples: each row's last word drops its sine; a shorter run is
        # still a prefix, and no sub-block size or thread count moves a byte
        state = FockDiagonalState.two_level(0.5)
        imp = ImperfectionConfig(displacement=0.2, detuning=(2e7, 0.3), electronic_noise_std=0.1)
        kw = dict(n_samples=127, imperfections=imp, adc=AdcSpec())
        ref = synth_condition(state, narrow, 2049, 45, threads=1, **kw).data
        short = synth_condition(state, narrow, 1500, 45, **kw).data
        assert short.tobytes() == ref[:1500].tobytes()
        for rows in (1, 7, FRAME_BLOCK):
            monkeypatch.setattr(synth, "_SUB_BLOCK", rows)
            assert synth_condition(state, narrow, 2049, 45, threads=3, **kw).data.tobytes() == ref.tobytes()

    def test_zero_frames_rejected(self, mode):
        with pytest.raises(ValueError):
            synth_condition(FockDiagonalState.vacuum(), mode, 0, 23, n_samples=128)


class TestSynthThreads:
    def test_block_error_propagates(self, monkeypatch, mode):
        stream = seeds.stream

        def fail_block_1(seed, domain, index):
            if index == 1:
                raise ValueError("block 1 failed")
            return stream(seed, domain, index)

        monkeypatch.setattr(seeds, "stream", fail_block_1)
        with pytest.raises(ValueError, match="block 1 failed"):
            synth_condition(FockDiagonalState.vacuum(), mode, 3 * FRAME_BLOCK, 24, n_samples=128, threads=2)

    def test_inverse_cdf_tables_built_once(self, monkeypatch, mode):
        # a slow tabulation holds a first block's miss open while the second
        # block starts: tables built on the pool would be built twice
        calls, hermite_functions = [], synth.hermite_functions

        def slow_hermite(n_max, x):
            calls.append(n_max)
            time.sleep(0.05)
            return hermite_functions(n_max, x)

        monkeypatch.setattr(synth, "hermite_functions", slow_hermite)
        _fock_inverse_cdf.cache_clear()
        synth_condition(FockDiagonalState.two_level(0.5), mode, 3 * FRAME_BLOCK, 25, n_samples=128, threads=2)
        assert sorted(calls) == [0, 1]

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity API")
    def test_usable_cores_follow_affinity(self):
        assert synth.usable_cores() == len(os.sched_getaffinity(0))


class TestAutocovarianceContract:
    def test_vacuum_autocovariance_is_isotropic(self, mode):
        from photonmem.estimation import autocovariance

        m_frames = 20_000
        small = gaussian_mode(center=30.0, sigma=8.0, t0=0.0, n=64)
        fs = synth_condition(FockDiagonalState.vacuum(), small, m_frames, 24, n_samples=64, adc=IDEAL_ADC)
        v = autocovariance(fs)
        off = v - np.diag(np.diag(v))
        assert np.max(np.abs(np.diag(v) - 0.5)) < 5.0 / math.sqrt(m_frames)
        assert np.max(np.abs(off)) < 5.0 / math.sqrt(m_frames)


class TestFrameSet:
    def test_float_input_with_adc_rejected(self, mode):
        # a frame set holds codes only: float levels are not re-encoded
        fs = synth_condition(FockDiagonalState.vacuum(), mode, 50, 41, n_samples=128, adc=AdcSpec())
        assert fs.data.dtype == np.int8
        assert fs.frames is fs.frames  # decoded once
        with pytest.raises(ValueError, match="integer codes, got float32"):
            FrameSet(fs.frames, fs.t0, fs.adc, fs.master_seed)

    def test_codes_outside_the_adc_range_rejected(self):
        codes = np.zeros((3, 4), np.int64)
        codes[1, 2] = 128
        with pytest.raises(ValueError, match="outside the 8-bit ADC's range"):
            FrameSet(codes, 0.0, AdcSpec(), 0)
        codes[1, 2] = 127
        assert FrameSet(codes, 0.0, AdcSpec(), 0).data.dtype == np.int8


class TestFrameIo:
    def test_binary_round_trip(self, tmp_path, mode):
        fs = synth_condition(
            FockDiagonalState.two_level(0.5), mode, 50, 25, n_samples=128, adc=AdcSpec()
        )
        path = tmp_path / "frames.bin"
        save_frames(fs, path)
        with load_frames(path) as back:
            np.testing.assert_array_equal(back.frames, fs.frames)
        assert back.t0 == fs.t0
        assert back.master_seed == fs.master_seed
        assert back.adc == fs.adc

    @pytest.mark.parametrize("seed", [-1, 2**64 + 7])
    def test_seed_outside_64_bits_rejected(self, tmp_path, seed):
        # the header used to keep the low 64 bits, so 2**64 + 7 read back as 7
        fs = FrameSet(np.zeros((2, 4), np.int8), 0.0, AdcSpec(), seed)
        path = tmp_path / "frames.bin"
        with pytest.raises(ValueError, match="64 bits"):
            save_frames(fs, path)
        assert list(tmp_path.iterdir()) == []

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(ValueError, match="magic"):
            load_frames(path)

    @pytest.fixture
    def saved(self, tmp_path, mode):
        fs = synth_condition(FockDiagonalState.vacuum(), mode, 20, 36, n_samples=128)
        path = tmp_path / "frames.bin"
        save_frames(fs, path)
        return path

    def test_failed_write_keeps_earlier_file(self, saved, mode):
        before = saved.read_bytes()
        fs = synth_condition(FockDiagonalState.vacuum(), mode, 20, 37, n_samples=128)
        codes = fs.data

        class DiskFull:
            """Frame data whose write stops half way with a full disk."""

            shape = codes.shape

            def tofile(self, fh):
                fh.write(codes.tobytes()[: codes.nbytes // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        object.__setattr__(fs, "data", DiskFull())
        with pytest.raises(OSError, match="No space left"):
            save_frames(fs, saved)
        assert saved.read_bytes() == before
        assert not saved.with_name("frames.bin.tmp").exists()

    def test_save_writes_header_and_raw_codes(self, saved, tmp_path, mode):
        # version 2: fixed 58-byte header, then the row-major little-endian
        # codes: one int8 per sample with the 8-bit ADC ...
        raw = saved.read_bytes()
        fs = synth_condition(FockDiagonalState.vacuum(), mode, 20, 36, n_samples=128)
        assert struct.unpack_from("<4sI", raw) == (b"HMFR", 2)
        assert len(raw) == 58 + 20 * 128
        assert raw[58:] == fs.data.astype("<i1").tobytes()
        assert raw[40] == 1 and raw[41] == 8  # ADC flag and bits
        # ... and one int16 with the 16-bit ADC
        fs = synth_condition(FockDiagonalState.vacuum(), mode, 20, 36, n_samples=128, adc=AdcSpec(16))
        path = tmp_path / "codes.bin"
        save_frames(fs, path)
        raw = path.read_bytes()
        assert len(raw) == 58 + 2 * 20 * 128
        assert raw[58:] == fs.data.astype("<i2").tobytes()
        assert raw[40] == 1 and raw[41] == 16

    @given(
        bits=st.integers(2, 16),
        m=st.sampled_from([1, 7, FRAME_BLOCK, FRAME_BLOCK + 1, 2 * FRAME_BLOCK + 3]),
        n=st.integers(1, 5),
        full_scale=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, bits, m, n, full_scale, seed):
        rng = np.random.default_rng(seed % 2**32)
        adc = AdcSpec(bits, full_scale)
        data = rng.integers(*adc.code_range, endpoint=True, size=(m, n))
        fs = FrameSet(data, t0=-3.5, adc=adc, master_seed=seed)
        path = tmp_path_factory.getbasetemp() / "round_trip.bin"
        save_frames(fs, path)
        assert path.stat().st_size == 58 + adc.code_dtype.itemsize * m * n
        with load_frames(path) as back:
            # each block is read when the pass reaches it, into one buffer
            blocks = [(lo, rows.dtype, rows.tobytes()) for lo, rows in back.blocks()]
            assert [lo for lo, _, _ in blocks] == list(range(0, m, FRAME_BLOCK))
            assert {dtype for _, dtype, _ in blocks} == {fs.data.dtype}
            assert b"".join(raw for _, _, raw in blocks) == fs.data.tobytes()
            assert back.frames.tobytes() == fs.frames.tobytes()
        assert (back.t0, back.adc, back.master_seed) == (-3.5, adc, seed)

    @staticmethod
    def _write(path, fs, *, version=2, adc_flag=1, bits=None, full_scale=None, data=None):
        """A hand-written frame file: header fields in the documented order."""
        header = struct.pack(
            "<4sIQQddBBdQ", b"HMFR", version, fs.n_frames, fs.n_samples, fs.t0, 1.0, adc_flag,
            fs.adc.bits if bits is None else bits,
            fs.adc.full_scale if full_scale is None else full_scale, fs.master_seed,
        )
        path.write_bytes(header + (fs.data if data is None else data).tobytes())

    def test_version_1_file_rejected(self, tmp_path, mode, capsys):
        # version 1 held float32 levels whatever the ADC flag
        fs = synth_condition(FockDiagonalState.vacuum(), mode, 20, 39, n_samples=128, adc=AdcSpec())
        path = tmp_path / "v1.bin"
        self._write(path, fs, version=1, data=fs.frames.astype("<f4"))
        with pytest.raises(ValueError, match=r"v1\.bin: unsupported version 1$"):
            load_frames(path)
        assert cli_entry(["estimate", str(path), "--out", str(tmp_path / "est")]) == 1
        assert "unsupported version 1" in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    def test_float32_file_rejected(self, tmp_path, mode, capsys):
        # ADC flag 0 marked a file of float32 frames without an ADC, a frame
        # form that no longer exists
        fs = synth_condition(FockDiagonalState.vacuum(), mode, 20, 39, n_samples=128, adc=AdcSpec())
        path = tmp_path / "f32.bin"
        self._write(path, fs, adc_flag=0, bits=0, full_scale=0.0, data=fs.frames.astype("<f4"))
        with pytest.raises(ValueError, match=r"f32\.bin: ADC flag 0: only files of ADC codes \(flag 1\) are read"):
            load_frames(path)
        assert cli_entry(["estimate", str(path), "--out", str(tmp_path / "est")]) == 1
        assert "ADC flag 0" in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    @pytest.mark.parametrize("flag", [2, 255])
    def test_adc_flag_other_than_0_or_1_rejected(self, tmp_path, mode, flag):
        fs = synth_condition(FockDiagonalState.vacuum(), mode, 20, 40, n_samples=128, adc=AdcSpec())
        path = tmp_path / "flag.bin"
        self._write(path, fs, adc_flag=flag)
        with pytest.raises(ValueError, match=rf"flag\.bin: ADC flag {flag}: only files of ADC codes"):
            load_frames(path)

    @pytest.mark.parametrize(
        "bits, dtype, code", [(3, "<i1", 4), (3, "<i1", -5), (12, "<i2", 2048), (12, "<i2", -2049)]
    )
    def test_codes_outside_the_adc_range_rejected(self, tmp_path, bits, dtype, code):
        # fewer bits than the storage type holds: a corrupt code can exceed them
        fs = FrameSet(np.zeros((FRAME_BLOCK + 1, 8), dtype), 0.0, AdcSpec(bits, 1.0), 0)
        data = fs.data.copy()
        data[-1, 3] = code  # in the partial last block
        path = tmp_path / "range.bin"
        self._write(path, fs, data=data)
        with pytest.raises(ValueError, match=rf"range\.bin: frame codes outside the {bits}-bit ADC's range"):
            load_frames(path)

    def test_truncated_file_rejected(self, saved):
        saved.write_bytes(saved.read_bytes()[:-1])
        with pytest.raises(ValueError, match="truncated data section"):
            load_frames(saved)

    def test_trailing_bytes_rejected(self, saved):
        saved.write_bytes(saved.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="1 trailing bytes"):
            load_frames(saved)

    @pytest.mark.parametrize("field, offset, value", [("t0", 24, math.nan), ("t0", 24, -math.inf)])
    def test_non_finite_grid_rejected(self, saved, field, offset, value):
        # a NaN t0 used to load, and estimate then failed with "cannot
        # convert float NaN to integer", naming neither file nor field
        raw = bytearray(saved.read_bytes())
        struct.pack_into("<d", raw, offset, value)
        saved.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=rf"frames\.bin: {field} must be .*finite, got {value}"):
            load_frames(saved)

    def test_dt_other_than_1_rejected(self, saved, tmp_path, capsys):
        # frames lie on the 1 ns grid: a file of another sample interval is
        # refused, not read as if its samples were 1 ns apart
        raw = bytearray(saved.read_bytes())
        struct.pack_into("<d", raw, 32, 0.5)
        saved.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=r"frames\.bin: dt 0\.5 ns: only frames on the 1 ns grid"):
            load_frames(saved)
        assert cli_entry(["estimate", str(saved), "--out", str(tmp_path / "est")]) == 1
        assert "dt 0.5 ns" in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    def test_huge_header_rejected_before_reading(self, saved):
        # m = n = 2^31 claims 2^64 data bytes; the size check must catch it
        raw = bytearray(saved.read_bytes())
        struct.pack_into("<QQ", raw, 8, 2**31, 2**31)
        saved.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="truncated data section"):
            load_frames(saved)


class TestSynthToFile:
    """The streamed frame file: the bytes of ``save_frames(synth_condition(...))``
    without the frame matrix in memory."""

    STATE = FockDiagonalState.two_level(0.5)
    ALL_IMPERFECTIONS = ImperfectionConfig(
        displacement=0.2, detuning=(2e7, 0.3), extra_loss=0.9, electronic_noise_std=0.1
    )

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("adc", [AdcSpec(), AdcSpec(12), AdcSpec(16)], ids=["8-bit", "12-bit", "16-bit"])
    def test_bytes_match_save_frames(self, monkeypatch, tmp_path, mode, adc, threads):
        # 999 samples: each row's last Box-Muller word drops its sine;
        # 2 FRAME_BLOCK + 1 frames: two full blocks and a one-row block
        kw = dict(t0=0.0, n_samples=999, imperfections=self.ALL_IMPERFECTIONS, adc=adc)
        n_frames = 2 * FRAME_BLOCK + 1
        fs = synth_condition(self.STATE, mode, n_frames, 46, threads=threads, **kw)
        save_frames(fs, tmp_path / "in-memory.bin")
        monkeypatch.setattr(synth, "usable_cores", lambda: threads)
        synth_to_file(tmp_path / "frames.bin", self.STATE, mode, n_frames, 46, **kw)
        assert (tmp_path / "frames.bin").read_bytes() == (tmp_path / "in-memory.bin").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["frames.bin", "in-memory.bin"]

    @pytest.mark.parametrize(
        "fault, error, message",
        [("block", ValueError, "block 1 failed"), ("disk-full", OSError, "No space left")],
        ids=["block", "disk-full"],
    )
    def test_failure_keeps_earlier_file(self, monkeypatch, tmp_path, mode, fault, error, message):
        path = tmp_path / "frames.bin"
        synth_to_file(path, self.STATE, mode, 20, 47, n_samples=128)
        before = path.read_bytes()
        blocks, stream = [], seeds.stream

        def counted_stream(seed, domain, index):
            blocks.append(index)
            if fault == "block" and index == 1:
                raise ValueError("block 1 failed")
            return stream(seed, domain, index)

        class FillsUp:
            """A file whose third data write finds the disk full half way."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def write(self, data):
                self.writes += 1
                if self.writes == 4:  # the header, then blocks 0, 1 and 2
                    self.fh.write(bytes(data)[: len(data) // 2])
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(data)

        monkeypatch.setattr(seeds, "stream", counted_stream)
        monkeypatch.setattr(synth, "usable_cores", lambda: 1)
        if fault == "disk-full":
            monkeypatch.setattr(synth, "open", lambda *a: FillsUp(open(*a)), raising=False)
        with pytest.raises(error, match=message):
            synth_to_file(path, self.STATE, mode, 20 * FRAME_BLOCK, 48, n_samples=128)
        assert path.read_bytes() == before
        assert not path.with_name("frames.bin.tmp").exists()
        # at most two blocks in flight on one thread: of the 20 blocks, none
        # after the one being written when the fault hit has started
        assert max(blocks) <= 3

    def test_file_that_cannot_fit_refused_before_synthesis(self, monkeypatch, tmp_path, capsys):
        # 10^11 frames: the in-memory path raised a traceback allocating
        # the matrix, and a streamed one would write until the disk filled
        free, blocks = 10**9, []
        monkeypatch.setattr(synth.shutil, "disk_usage", lambda path: SimpleNamespace(free=free))
        monkeypatch.setattr(seeds, "stream", lambda *args: blocks.append(args))
        out = tmp_path / "out" / "new"
        assert cli_entry(["synth", "--frames", "100000000000", "--out", str(out)]) == 1
        need = 58 + 10**11 * 1000
        assert capsys.readouterr().err == f"error: frames.bin needs {need} bytes, {free} free in {out}\n"
        assert list(tmp_path.iterdir()) == []
        assert blocks == []

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts KiB on Linux")
    def test_peak_rss_does_not_grow_with_frames(self, tmp_path):
        # each size in a fresh interpreter, 8-bit codes of 1000 samples:
        # 32 768 frames are 30 MiB more data than 2 048, which the in-memory
        # path held whole; on one CPU both sizes fill the same window of two
        # blocks, which more threads would widen for the larger size only
        code = textwrap.dedent(
            """
            import os, resource, sys
            from photonmem.cli import cli_entry

            os.sched_setaffinity(0, [min(os.sched_getaffinity(0))])
            assert cli_entry(["synth", "--frames", sys.argv[1], "--out", sys.argv[2]]) == 0
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            """
        )
        peak = {}
        for n in (2048, 32768):
            run = run_fresh_python(code, str(n), str(tmp_path / str(n)))
            assert run.returncode == 0, run.stderr
            assert (tmp_path / str(n) / "frames.bin").stat().st_size == 58 + n * 1000
            peak[n] = int(run.stdout.splitlines()[-1]) / 1024
        assert peak[32768] - peak[2048] < 8.0, peak
