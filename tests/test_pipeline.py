import errno
import hashlib
import json
import os
import re
import shutil
import sys
import textwrap
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonmem import estimation, pipeline
from photonmem.cavity import CavityParams, simulate_release
from photonmem.cli import cli_entry
from photonmem.config import ExperimentConfig, load_config
from photonmem.errors import InsufficientDataError, PhotonMemError
from photonmem.estimation import (
    MAX_N_MAX,
    MIN_BOOTSTRAP_RESAMPLES,
    MIN_MLE_SAMPLES,
    MLE_KKT_TOL,
    MleResult,
    fit_exponential_decay,
)
from photonmem.pipeline import (
    emit_figure_data,
    estimate_frames,
    report_as_dict,
    run_sweep,
)
from photonmem.fock import FockDiagonalState
from photonmem.synth import (
    FRAME_BLOCK,
    AdcSpec,
    ImperfectionConfig,
    extract_quadratures,
    load_frames,
    save_frames,
    synth_condition,
)

from conftest import gaussian_mode, kkt_residual, run_fresh_python

#: the stock config's canonical dump: every digest and report.json's
#: config_text are built from these bytes
STOCK_TEXT = """\
[cavity]
mc_round_trip_m = 1.4
mc_loss = 0.0025
sc_round_trip_m = 0.7
sc_loss = 0.03
t_mc_sc = 0.03
t_sc_out = 0.17

[schedule]
delta_closed_rad_s = 1638800000.0
window_start_ns = 0.0
window_end_ns = 1000.0

[sweep]
storage_times_ns = 0.0, 100.0, 200.0, 300.0
intrinsic_delay_ns = 150.0
frames_per_condition = 43000
purity_model = explicit
purities = 0.582, 0.546, 0.531, 0.497
release_purity_p0 = 0.626

[imperfections]
displacement_re = 0.0
detuning_rad_s = 0.0
detuning_phase_rad = 0.0
extra_loss = 1.0
electronic_noise_std = 0.0

[adc]
bits = 8
full_scale = 7.0710678118654755

[estimation]
n_max = 5
bootstrap_resamples = 40

[run]
master_seed = 20140523

"""

#: one release at 150 ns in a 400 ns window, for quick CLI runs
_SHORT_WINDOW = "[sweep]\nstorage_times_ns = 0\npurities = 0.582\n[schedule]\nwindow_end_ns = 400.0\n"

_finite = st.floats(-1e12, 1e12, allow_nan=False)
_unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def valid_configs(draw):
    # storage times and the intrinsic delay are whole ns, so every release
    # sits on the 1 ns grid strictly inside a window of whole nanoseconds
    start = draw(st.integers(-10**4, 10**4))
    times = sorted(draw(st.lists(st.integers(-10**4, 10**4), min_size=1, max_size=4, unique=True)))
    # the first release, times[0] + delay, lies after start
    first = start - times[0] + 1
    delay = draw(st.integers(first, first + 10**4))
    end = times[-1] + delay + draw(st.integers(1, 1000))
    model = draw(st.sampled_from(["explicit", "lifetime"]))
    n_purities = len(times) if model == "explicit" else draw(st.integers(0, 4))
    imperfections = ImperfectionConfig(
        displacement_re=draw(st.just(0.0) | st.floats(-10.0, 10.0)),
        detuning_rad_s=draw(st.just(0.0) | _finite),
        detuning_phase_rad=draw(st.just(0.0) | _finite),
        extra_loss=draw(_unit),
        electronic_noise_std=draw(st.floats(0.0, 10.0)),
    )
    adc = draw(st.builds(AdcSpec, st.integers(2, 16), st.floats(1e-3, 1e3)))
    loss = st.floats(0.0, 0.999)
    length = st.floats(0.01, 100.0)
    cavity = CavityParams(*draw(st.tuples(length, loss, length, loss, loss, loss)))
    return ExperimentConfig(
        cavity=cavity,
        storage_times_ns=tuple(float(t) for t in times),
        intrinsic_delay_ns=float(delay),
        frames_per_condition=draw(st.integers(MIN_MLE_SAMPLES, 10**6)),
        purity_model=model,
        purities=tuple(draw(st.lists(_unit, min_size=n_purities, max_size=n_purities))),
        release_purity_p0=draw(st.floats(1e-6, 1.0)),
        delta_closed_rad_s=draw(_finite),
        window_start_ns=float(start),
        window_end_ns=float(end),
        imperfections=imperfections,
        adc=adc,
        n_max=draw(st.integers(1, MAX_N_MAX)),
        bootstrap_resamples=draw(st.integers(MIN_BOOTSTRAP_RESAMPLES, 1000)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
    )


@pytest.fixture(scope="module")
def smoke_config():
    return ExperimentConfig(
        storage_times_ns=(0.0, 100.0),
        purities=(0.582, 0.546),
        frames_per_condition=6000,
        bootstrap_resamples=20,
        window_end_ns=500.0,
        master_seed=77,
    )


@pytest.fixture(scope="module")
def smoke_report(smoke_config):
    return run_sweep(smoke_config)


class TestConfig:
    def test_round_trip(self, tmp_path, smoke_config):
        path = tmp_path / "exp.cfg"
        path.write_text(smoke_config.to_text())
        back = load_config(path)
        assert back == smoke_config

    def test_phase_only_detuning_round_trip(self, tmp_path, smoke_config):
        cfg = replace(smoke_config, imperfections=ImperfectionConfig(detuning_phase_rad=0.7))
        path = tmp_path / "phase.cfg"
        path.write_text(cfg.to_text())
        back = load_config(path)
        assert (back.imperfections.detuning_rad_s, back.imperfections.detuning_phase_rad) == (0.0, 0.7)
        assert back == cfg
        assert back.digest() == cfg.digest()

    def test_partial_file_uses_defaults(self, tmp_path):
        path = tmp_path / "partial.cfg"
        path.write_text("[sweep]\nframes_per_condition = 2500\n")
        cfg = load_config(path)
        assert cfg.frames_per_condition == 2500
        assert cfg.storage_times_ns == ExperimentConfig().storage_times_ns

    @given(valid_configs())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, cfg):
        path = tmp_path_factory.getbasetemp() / "round_trip.cfg"
        path.write_text(cfg.to_text())
        back = load_config(path)
        assert back == cfg
        assert back.digest() == cfg.digest()

    def test_zero_imperfections_round_trip(self, tmp_path):
        # a zero displacement or detuning is stock: same digest, same config
        cfg = ExperimentConfig(
            imperfections=ImperfectionConfig(displacement_re=0.0, detuning_rad_s=0.0, detuning_phase_rad=0.0)
        )
        path = tmp_path / "zero.cfg"
        path.write_text(cfg.to_text())
        assert load_config(path) == cfg == ExperimentConfig()
        assert cfg.digest() == ExperimentConfig().digest()

    def test_stock_dump_is_pinned(self):
        assert ExperimentConfig().to_text() == STOCK_TEXT

    def test_readme_example_loads_as_stock(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        (example,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
        path = tmp_path / "readme.cfg"
        path.write_text(example)
        assert load_config(path) == ExperimentConfig()

    @pytest.mark.parametrize(
        "text, where",
        [
            ("[sweep]\nframes_per_condtion = 500\n", r"\[sweep\] frames_per_condtion"),
            ("[sweeps]\nframes_per_condition = 500\n", r"\[sweeps\]"),
            ("[DEFAULT]\nn_max = 3\n", r"\[DEFAULT\] n_max"),
            ("[sweep]\nframes_per_condition = many\n", r"\[sweep\] frames_per_condition"),
            ("frames_per_condition = 500\n", r"no section headers"),
        ],
        ids=["typo-key", "unknown-section", "default-section", "bad-int", "no-header"],
    )
    def test_bad_file_rejected(self, tmp_path, text, where):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match=where):
            load_config(path)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(storage_times_ns=())
        with pytest.raises(ValueError):
            ExperimentConfig(storage_times_ns=(100.0, 50.0))
        with pytest.raises(ValueError):
            ExperimentConfig(frames_per_condition=10)
        with pytest.raises(ValueError):
            ExperimentConfig(purities=(0.5,))

    def test_worker_count(self, tmp_path):
        # synthesis threads follow the CPU affinity: the config holds only
        # what fixes the output bytes
        path = tmp_path / "workers.cfg"
        path.write_text("[run]\nn_workers = 2\n")
        with pytest.raises(ValueError, match=r"unknown section or key: \[run\] n_workers"):
            load_config(path)

    def test_frame_floor_is_the_mle_floor(self):
        # fewer frames used to pass here and then fail every condition's MLE
        ExperimentConfig(frames_per_condition=MIN_MLE_SAMPLES)
        with pytest.raises(ValueError, match=f"frames_per_condition must be >= {MIN_MLE_SAMPLES}"):
            ExperimentConfig(frames_per_condition=MIN_MLE_SAMPLES - 1)

    def test_release_outside_window_names_keys(self):
        with pytest.raises(ValueError) as info:
            ExperimentConfig(window_end_ns=400.0)
        message = str(info.value)
        for part in (
            "release at 450.0 ns",
            "[sweep] storage_times_ns 300.0",
            "intrinsic_delay_ns 150.0",
            "[schedule] window_start_ns 0.0, window_end_ns 400.0",
        ):
            assert part in message

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"bootstrap_resamples": 19}, "bootstrap_resamples must be >= 20"),
            ({"n_max": 0}, r"n_max must lie in \[1, 10\]"),
            ({"n_max": 30}, r"n_max must lie in \[1, 10\]"),
            ({"window_end_ns": 400.0}, "t_release < t_end"),
            ({"window_start_ns": 200.0}, "t_start < t_release"),
            ({"intrinsic_delay_ns": 150.5}, "the release offset of 150.5 ns is not a multiple of 1 ns"),
            ({"purities": (0.582, 0.546, -0.1, 0.497)}, r"\[sweep\] purities must lie in \[0, 1\]"),
            # used to fail the 0.4 ns condition at its shifted reanalysis,
            # after its raw estimate had succeeded
            (
                {"storage_times_ns": (0.0, 0.4), "purities": (0.582, 0.546)},
                r"\[sweep\] storage_times_ns must be whole numbers of ns, got \(0.0, 0.4\)",
            ),
            # within the tolerance of one whole ns: both conditions used to
            # write condition_0ns
            ({"storage_times_ns": (0.0, 5e-8), "purities": (0.582, 0.546)}, "strictly increasing"),
        ],
        ids=[
            "few-resamples", "n_max-0", "n_max-30", "release-after-end", "release-before-start", "off-grid",
            "negative-purity", "fractional-storage", "storage-same-ns",
        ],
    )
    def test_rejects_configs_that_fail_later(self, fields, message):
        # each of these used to construct and then fail every condition
        # (resamples, n_max) or the whole sweep (the shutter schedule)
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**fields)

    def test_digest_hashes_canonical_text(self, smoke_config):
        assert smoke_config.digest() == hashlib.sha256(smoke_config.to_text().encode()).hexdigest()
        assert smoke_config.digest() != replace(smoke_config, master_seed=1).digest()


class TestRunSweep:
    def test_all_conditions_succeed(self, smoke_report):
        assert not smoke_report.failed
        assert len(smoke_report.conditions) == 2

    def test_recovers_configured_purities(self, smoke_config, smoke_report):
        # estimator noise floor at this scale is a few percent of p
        for cond in smoke_report.conditions:
            assert cond.tomography.purity == pytest.approx(cond.configured_purity, abs=0.04)

    def test_purity_monotonicity(self, smoke_report):
        purities = [c.tomography.purity for c in smoke_report.conditions]
        errs = [c.tomography.bootstrap.std for c in smoke_report.conditions]
        assert purities[1] <= purities[0] + 3.0 * max(errs)

    def test_decay_fits_present(self, smoke_report):
        assert smoke_report.decay_raw is not None
        assert smoke_report.decay_shifted is not None
        assert smoke_report.decay_raw.tau_us > 0

    def test_deterministic_reports(self, smoke_config, smoke_report):
        again = run_sweep(smoke_config)
        assert report_as_dict(again) == report_as_dict(smoke_report)

    def test_provenance_block(self, smoke_config, smoke_report):
        prov = smoke_report.provenance
        assert prov["config_sha256"] == smoke_config.digest()
        assert prov["master_seed"] == smoke_config.master_seed
        assert "config_text" in prov

    def test_failed_condition_recorded_not_raised(self, monkeypatch):
        # fault injection: a condition whose MLE cannot run is recorded (the
        # config's frame floor keeps a real sweep above the MLE's)
        def fail(quads, n_max):
            raise InsufficientDataError("injected failure")

        monkeypatch.setattr(pipeline, "mle_photon_distribution", fail)
        cfg = ExperimentConfig(
            storage_times_ns=(0.0,),
            purities=(0.582,),
            frames_per_condition=MIN_MLE_SAMPLES,
            bootstrap_resamples=20,
            window_end_ns=500.0,
            master_seed=78,
        )
        report = run_sweep(cfg)
        assert report.failed
        assert report.conditions[0].error is not None
        assert report.decay_raw is None
        assert report.decay_raw_error == "0 point(s) to fit, need at least two"
        payload = report_as_dict(report)
        assert payload["decay_raw_error"] == report.decay_raw_error
        assert payload["decay_shifted_error"] == report.decay_shifted_error

    def test_failed_base_condition_skips_shifted_branch(self, monkeypatch, smoke_config):
        # fault injection: only condition 0's cavity simulation fails.  Without
        # a base mode the shifted reanalysis must not run on condition k's
        # own mode (that shifts it off the pulse and reads a near-zero purity)
        real = pipeline.simulate_release
        t0 = smoke_config.release_times_ns[0]

        def fail_first(params, schedule):
            if schedule.t_release_ns == t0:
                raise PhotonMemError("injected failure")
            return real(params, schedule)

        monkeypatch.setattr(pipeline, "simulate_release", fail_first)
        report = run_sweep(smoke_config)
        first, second = report.conditions
        assert "injected failure" in first.error
        assert second.error is None
        assert second.tomography.purity == pytest.approx(0.546, abs=0.04)
        assert second.shifted_purity is None
        assert "condition 0" in second.shifted_error
        assert report.decay_shifted is None
        entry = report_as_dict(report)["conditions"][1]
        assert entry["shifted_purity"] is None
        assert entry["shifted_error"] == second.shifted_error

    def test_mle_health_in_report(self, smoke_report):
        for entry in report_as_dict(smoke_report)["conditions"]:
            assert entry["mle_converged"] is True
            assert 0.0 <= entry["mle_kkt_residual"] <= MLE_KKT_TOL
            assert 1 <= entry["mle_n_evals"] <= 30
            assert entry["bootstrap_failures"] == 0
            assert entry["shifted_error"] is None
            assert entry["shifted_mle_converged"] is True
            assert 0.0 <= entry["shifted_mle_kkt_residual"] <= MLE_KKT_TOL
            assert entry["wigner_origin_err"] > 0.0
            # the stock ADC range keeps every sample off its outermost codes
            assert entry["adc_saturated_fraction"] == 0.0

    def test_decay_fits_report_no_error(self, smoke_report):
        payload = report_as_dict(smoke_report)
        for name in ("raw", "shifted"):
            assert payload[f"decay_{name}_error"] is None
            assert payload[f"decay_{name}_excluded"] == []
            # two points: the fit is exact and has no error bars
            assert payload[f"decay_{name}"]["P0_err"] is None
            assert payload[f"decay_{name}"]["tau_err"] is None

    def test_adc_saturation_counted(self, base_release):
        # a full scale of 1.5 vacuum standard deviations clips often
        state = FockDiagonalState.two_level(0.582)
        kw = dict(t0=0.0, n_samples=1000)
        adc = AdcSpec(8, 1.5 * np.sqrt(0.5))
        fs = synth_condition(state, base_release.envelope, MIN_MLE_SAMPLES, 5, adc=adc, **kw)
        report = estimate_frames(fs, n_max=5, bootstrap_resamples=20)
        rails = ((-128 + 0.5) * adc.step, (127 + 0.5) * adc.step)
        expected = float(np.isin(fs.frames, np.float32(rails)).mean())
        assert report.adc_saturated_fraction == expected
        assert 0.02 < expected < 0.5

    def test_pipeline_never_decodes_codes(self, monkeypatch, base_release):
        # the passes read the codes: no float32 frame matrix is built
        fs = synth_condition(
            FockDiagonalState.two_level(0.582), base_release.envelope, 3000, 6,
            t0=0.0, n_samples=1000, adc=AdcSpec(),
        )

        def fail(self, codes, out=None):
            raise AssertionError("ADC codes decoded")

        monkeypatch.setattr(AdcSpec, "decode", fail)
        report = estimate_frames(fs, n_max=5, bootstrap_resamples=20)
        assert report.bootstrap.std > 0
        sweep = run_sweep(ExperimentConfig(frames_per_condition=3000, master_seed=7, bootstrap_resamples=20))
        assert not sweep.failed, [c.error for c in sweep.conditions]

    def test_lifetime_purity_model(self):
        cfg = ExperimentConfig(
            storage_times_ns=(0.0, 100.0),
            purity_model="lifetime",
            release_purity_p0=0.626,
            frames_per_condition=3000,
            bootstrap_resamples=20,
            window_end_ns=500.0,
            master_seed=79,
        )
        report = run_sweep(cfg)
        assert "simulated_lifetime_ns" in report.provenance
        p0, p1 = [c.configured_purity for c in report.conditions]
        tau = report.provenance["simulated_lifetime_ns"]
        assert p0 == pytest.approx(0.626 * np.exp(-150.0 / tau), abs=1e-9)
        assert p1 < p0


def _stop_early(monkeypatch, stopped: set[int]) -> None:
    """Fault injection: the point fits (uniform start) numbered in
    ``stopped``, counted from 1 in run order, return their start unfitted;
    a sweep runs condition k's point fit as number 2k+1 and its shifted
    fit as 2k+2.  The numbering holds up to the first stopped fit: a
    stopped point fit's bootstrap refits start from its uniform start too
    and count on."""
    real = estimation._fit_weighted
    count = []

    def fit(pdf_matrix, w, c0):
        if np.all(c0 == c0[0]):  # bootstrap refits warm-start at the point fit
            count.append(None)
            if len(count) in stopped:
                c = np.array(c0, dtype=float)
                return c, 1, kkt_residual(c, pdf_matrix, w)
        return real(pdf_matrix, w, c0)

    monkeypatch.setattr(estimation, "_fit_weighted", fit)


class TestUnconvergedMle:
    """A point fit that misses MLE_KKT_TOL is kept out of its decay fit,
    with the reason recorded, so it cannot move the lifetime."""

    @pytest.fixture
    def cfg(self):
        return ExperimentConfig(
            storage_times_ns=(0.0, 100.0, 200.0),
            purities=(0.582, 0.546, 0.531),
            frames_per_condition=2_000,
            bootstrap_resamples=20,
            window_end_ns=500.0,
            master_seed=81,
        )

    @staticmethod
    def _fit_of(records, purity):
        return fit_exponential_decay([(c.t_release_ns, purity(c)) for c in records])

    def test_raw_point_fit_kept_out(self, monkeypatch, cfg):
        _stop_early(monkeypatch, {3})
        report = run_sweep(cfg)
        first, second, third = report.conditions
        assert not second.tomography.mle.converged
        assert second.tomography.mle.kkt_residual > MLE_KKT_TOL
        (reason,) = report.decay_raw_excluded
        assert reason.startswith("250 ns: MLE did not converge")
        expected = self._fit_of([first, third], lambda c: c.tomography.purity)
        assert (report.decay_raw.p0, report.decay_raw.tau_us) == (expected.p0, expected.tau_us)
        # the shifted fit of that condition converged and stays in
        assert report.decay_shifted_excluded == ()
        payload = report_as_dict(report)
        assert payload["conditions"][1]["mle_converged"] is False
        assert payload["decay_raw_excluded"] == [reason]

    def test_raw_point_fit_reports_no_purity(self, monkeypatch, cfg, tmp_path, capsys):
        # the unfitted start of condition 1 would read as purity 1/6
        _stop_early(monkeypatch, {3})
        (tmp_path / "sweep.cfg").write_text(cfg.to_text())
        assert cli_entry(["sweep", "--config", str(tmp_path / "sweep.cfg"), "--out", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"storage  100\.0 ns: MLE did not converge \(KKT residual \S+ > \S+\)", lines[1])
        for line, storage in ((lines[0], "  0"), (lines[2], "200")):
            assert re.fullmatch(
                rf"storage  {storage}\.0 ns: purity 0\.\d{{4}} \+- 0\.\d{{4}}, shifted 0\.\d{{4}}, "
                r"W\(0,0\) = [+-]0\.\d{4} \+- 0\.\d{4} \([+-]\d+\.\d sigma\)",
                line,
            )
        entry = json.loads((tmp_path / "out" / "report.json").read_text())["conditions"][1]
        assert entry["mle_converged"] is False
        for key in ("purity", "purity_err", "wigner_origin", "wigner_origin_err"):
            assert entry[key] is None
        rows = (tmp_path / "out" / "decay_points.csv").read_text().splitlines()
        assert rows[0] == "t_release_ns,purity,purity_err,shifted_purity"
        assert rows[2].split(",")[:3] == ["250", "", ""]
        assert all(cell for cell in rows[1].split(",") + rows[3].split(","))

    def test_shifted_point_fit_kept_out_and_recorded(self, monkeypatch, cfg, tmp_path):
        _stop_early(monkeypatch, {6})
        report = run_sweep(cfg)
        first, second, third = report.conditions
        assert third.tomography.mle.converged
        assert not third.shifted_mle.converged
        (reason,) = report.decay_shifted_excluded
        assert reason.startswith("350 ns: MLE did not converge")
        expected = self._fit_of([first, second], lambda c: c.shifted_purity)
        assert (report.decay_shifted.p0, report.decay_shifted.tau_us) == (expected.p0, expected.tau_us)
        assert report.decay_raw_excluded == ()
        entry = report_as_dict(report)["conditions"][2]
        assert entry["shifted_mle_converged"] is False
        assert entry["shifted_mle_kkt_residual"] == third.shifted_mle.kkt_residual > MLE_KKT_TOL
        # the unfitted start would read as a shifted purity
        emit_figure_data(report, tmp_path)
        entries = json.loads((tmp_path / "report.json").read_text())["conditions"]
        assert entries[2]["shifted_purity"] is None
        assert entries[0]["shifted_purity"] is not None
        rows = (tmp_path / "decay_points.csv").read_text().splitlines()
        assert rows[3].split(",")[3] == ""
        assert rows[1].split(",")[3] and rows[2].split(",")[3]


def _mle(purity: float, converged: bool = True) -> MleResult:
    return MleResult(
        state=FockDiagonalState.two_level(purity),
        loglik=0.0,
        n_evals=1,
        converged=converged,
        kkt_residual=0.0 if converged else 1.0,
    )


class TestDecayFitErrors:
    def test_too_few_points(self):
        fit, error, excluded = pipeline._decay_fit([(150.0, _mle(0.58)), (250.0, _mle(0.55, False))])
        assert fit is None
        assert error == "1 point(s) to fit, need at least two"
        assert excluded == ("250 ns: MLE did not converge (KKT residual 1 > 1e-06)",)

    def test_invalid_points(self):
        fit, error, _ = pipeline._decay_fit([(150.0, _mle(0.58)), (250.0, _mle(0.0))])
        assert fit is None
        assert error == "ValueError: purities must lie in (0, 1]"

    def test_fit_failure(self, monkeypatch):
        monkeypatch.setattr(estimation, "_LM_MAX_ITER", 1)
        points = [(150.0, _mle(0.582)), (250.0, _mle(0.546)), (350.0, _mle(0.531))]
        fit, error, excluded = pipeline._decay_fit(points)
        assert fit is None and excluded == ()
        assert error.startswith("FitFailureError: decay fit did not converge")


class TestEmitFigureData:
    def test_inventory(self, tmp_path, smoke_report):
        files = emit_figure_data(smoke_report, tmp_path / "out")
        rel = sorted(str(f.relative_to(tmp_path / "out")) for f in files)
        for cond in ("condition_0ns", "condition_100ns"):
            for name in (
                "envelope.csv",
                "release_metrics.json",
                "quadratures.csv",
                "histogram.csv",
                "wigner_section.csv",
                "photon_number.csv",
            ):
                assert f"{cond}/{name}" in rel
        for name in (
            "intensity_family.csv",
            "decay_points.csv",
            "decay_fit_raw.json",
            "decay_fit_shifted.json",
            "report.json",
        ):
            assert name in rel

    def test_reemission_is_byte_identical(self, tmp_path, smoke_report):
        out = tmp_path / "twice"
        first = {f: f.read_bytes() for f in emit_figure_data(smoke_report, out)}
        second = {f: f.read_bytes() for f in emit_figure_data(smoke_report, out)}
        assert first == second

    def test_wigner_section_dips_negative(self, tmp_path, smoke_report):
        out = tmp_path / "wig"
        emit_figure_data(smoke_report, out)
        rows = (out / "condition_0ns" / "wigner_section.csv").read_text().strip().splitlines()[1:]
        x = np.array([float(r.split(",")[0]) for r in rows])
        w = np.array([float(r.split(",")[1]) for r in rows])
        mid = np.argmin(np.abs(x))
        assert w[mid] == np.min(w)
        assert w[mid] < 0  # p ~ 0.57 recovered: negative at the origin

    def test_failed_write_leaves_no_temp_file(self, monkeypatch, tmp_path):
        pipeline.write_files(tmp_path, {"report.json": "before\n"})

        def disk_full(path, text):
            with open(path, "w") as fh:
                fh.write(text[: len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", disk_full)
        with pytest.raises(OSError, match="No space left"):
            pipeline.write_files(tmp_path, {"report.json": "after, and longer\n"})
        assert (tmp_path / "report.json").read_text() == "before\n"
        assert not (tmp_path / "report.json.tmp").exists()

    def test_report_json_parses(self, tmp_path, smoke_report):
        out = tmp_path / "rep"
        emit_figure_data(smoke_report, out)
        payload = json.loads((out / "report.json").read_text())
        assert len(payload["conditions"]) == 2
        assert payload["decay_raw"]["tau_us"] > 0


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        assert cli_entry(["definitely-not-a-command"]) == 2
        capsys.readouterr()

    def test_unknown_flag_exit_code(self, capsys):
        assert cli_entry(["simulate", "--bogus"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli_entry(["--help"]) == 0
        out = capsys.readouterr().out
        for word in ("simulate", "synth", "estimate", "sweep", "gate"):
            assert word in out

    def test_simulate(self, tmp_path, capsys):
        code = cli_entry(["simulate", "--out", str(tmp_path), "--release", "150"])
        assert code == 0
        assert (tmp_path / "envelope.csv").exists()
        metrics = json.loads((tmp_path / "release_metrics.json").read_text())
        assert 25.0 <= metrics["fwhm_ns"] <= 75.0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--config", "{typo}"], "frames_per_condtion"),
            (["simulate", "--config", "{missing}"], "missing.cfg"),
            (["sweep", "--frames", "50"], "frames_per_condition must be >= 100"),
            (["sweep", "--config", "{few}"], "bootstrap_resamples must be >= 20"),
            (["sweep", "--config", "{short}"], "t_release < t_end"),
            (["sweep", "--frames", "200"], f"frames_per_condition must be >= {MIN_MLE_SAMPLES}"),
            (["sweep", "--config", "{short}"], "([sweep] storage_times_ns 0.0 + intrinsic_delay_ns 150.0)"),
            (["synth", "--frames", "0"], "argument --frames: must be positive, got 0"),
            (["synth", "--frames", "-5"], "argument --frames: must be positive, got -5"),
            # flags are built into inputs before any stage runs
            (["synth", "--adc-bits", "20"], "bits must lie in [2, 16], got 20"),
            # 0 used to write float32 frames without an ADC
            (["synth", "--adc-bits", "0"], "bits must lie in [2, 16], got 0"),
            (["synth", "--config", "{adc_enabled}"], "unknown section or key: [adc] enabled"),
            (["synth", "--full-scale", "-1"], "full_scale must be positive and finite"),
            (["synth", "--purity", "1.5"], "p must lie in [0, 1], got 1.5"),
            (["simulate", "--release", "1e9"], "need t_start < t_release < t_end"),
            (["simulate", "--release", "-5"], "need t_start < t_release < t_end"),
            # the release is propagated on the 1 ns grid: 150.5 ns used to
            # run on the 0.1 ns integration grid
            (["simulate", "--release", "150.5"], "the release offset of 150.5 ns is not a multiple of 1 ns"),
            (["sweep", "--config", "{delay_off_grid}"], "the release offset of 150.5 ns is not a multiple of 1 ns"),
            (["simulate", "--config", "{dt_int}"], "unknown section or key: [schedule] dt_int_ns"),
            (["synth", "--release", "1e9"], "need t_start < t_release < t_end"),
            (["sweep", "--seed", "-1"], "master_seed ([run] master_seed, --seed) must be >= 0, got -1"),
            (["synth", "--seed", "-1"], "must be >= 0, got -1"),
            (["synth", "--config", "{negative_seed}"], "must be >= 0, got -1"),
            # the frame header used to keep the seed's low 64 bits: this
            # file said seed 7, whose frames differ
            (["synth", "--seed", str(2**64 + 7)], f"must be < 2**64, got {2**64 + 7}"),
            (["sweep", "--config", "{big_seed}"], f"must be < 2**64, got {2**64}"),
            # used to run, record the 0.4 ns condition as failed and exit 1
            (["sweep", "--config", "{fractional}"], "[sweep] storage_times_ns must be whole numbers of ns"),
            # used to run every stage, record the 100 ns condition as
            # failed, fit both decays on the other three points and exit 1
            (["sweep", "--config", "{purity}"], "[sweep] purities must lie in [0, 1], got (0.582, 1.5, 0.531, 0.497)"),
            # non-finite imperfections used to make synth write all-zero
            # codes and exit 0; the cavity and schedule ones failed at run
            # time with exit 1
            (["synth", "--config", "{noise_nan}"], "electronic_noise_std must be finite and non-negative, got nan"),
            (["synth", "--config", "{noise_inf}"], "electronic_noise_std must be finite and non-negative, got inf"),
            (["synth", "--config", "{displacement_nan}"], "displacement_re must be a finite real number, got nan"),
            # the imaginary part of the displacement used to be read and
            # then left out of every frame
            (["synth", "--config", "{displacement_im_inf}"], "unknown section or key: [imperfections] displacement_im"),
            (["synth", "--config", "{displacement_im}"], "unknown section or key: [imperfections] displacement_im"),
            (["synth", "--config", "{detuning_nan}"], "detuning_rad_s must be a finite real number, got nan"),
            (["synth", "--config", "{round_trip_nan}"], "round-trip lengths must be positive and finite, got nan"),
            (["synth", "--config", "{delta_nan}"], "[schedule] delta_closed_rad_s must be finite, got nan"),
            (["sweep", "--config", "{delta_nan}"], "[schedule] delta_closed_rad_s must be finite, got nan"),
            # an infinite window bound used to escape as an OverflowError
            # traceback with exit 1
            (["simulate", "--config", "{window_end_inf}"], "window_end_ns inf: t_end_ns must be finite"),
            (["sweep", "--config", "{window_start_inf}"], "t_start_ns must be finite, got -inf"),
            (["sweep", "--config", "{workers}"], "unknown section or key: [run] n_workers"),
            # flags that were accepted and changed no output byte: estimate
            # reads its seed from the frame file
            (["estimate", "frames.bin", "--seed", "7"], "unrecognized arguments: --seed 7"),
            (["simulate", "--seed", "7"], "unrecognized arguments: --seed 7"),
            (["gate", "--config", "x.cfg"], "unrecognized arguments: --config x.cfg"),
        ],
        ids=[
            "unknown-key",
            "missing-file",
            "too-few-frames",
            "too-few-resamples",
            "release-after-window",
            "below-mle-floor",
            "release-names-keys",
            "synth-zero-frames",
            "synth-negative-frames",
            "synth-adc-bits",
            "synth-adc-bits-zero",
            "synth-adc-enabled-key",
            "synth-full-scale",
            "synth-purity",
            "simulate-release-late",
            "simulate-release-negative",
            "simulate-release-off-grid",
            "sweep-delay-off-grid",
            "simulate-dt-int-key",
            "synth-release-late",
            "sweep-negative-seed",
            "synth-negative-seed",
            "config-negative-seed",
            "synth-seed-over-64-bits",
            "config-seed-over-64-bits",
            "sweep-fractional-storage",
            "sweep-purity-range",
            "synth-noise-nan",
            "synth-noise-inf",
            "synth-displacement-nan",
            "synth-displacement-im-inf",
            "synth-displacement-im-key",
            "synth-detuning-nan",
            "synth-round-trip-nan",
            "synth-delta-closed-nan",
            "sweep-delta-closed-nan",
            "simulate-window-end-inf",
            "sweep-window-start-inf",
            "sweep-worker-count-key",
            "estimate-seed",
            "simulate-seed",
            "gate-config",
        ],
    )
    def test_config_error_exit_code(self, tmp_path, capsys, argv, message):
        texts = {
            "typo": "[sweep]\nframes_per_condtion = 500\n",
            "few": "[sweep]\nframes_per_condition = 200\n[estimation]\nbootstrap_resamples = 5\n",
            "short": "[sweep]\nframes_per_condition = 200\n[schedule]\nwindow_end_ns = 100.0\n",
            "negative_seed": "[run]\nmaster_seed = -1\n",
            "big_seed": f"[run]\nmaster_seed = {2**64}\n",
            "fractional": "[sweep]\nstorage_times_ns = 0, 0.4\npurities = 0.582, 0.546\n",
            "purity": "[sweep]\npurities = 0.582, 1.5, 0.531, 0.497\nframes_per_condition = 1200\n",
            "noise_nan": "[imperfections]\nelectronic_noise_std = nan\n",
            "noise_inf": "[imperfections]\nelectronic_noise_std = inf\n",
            "displacement_nan": "[imperfections]\ndisplacement_re = nan\n",
            "displacement_im_inf": "[imperfections]\ndisplacement_im = inf\n",
            "displacement_im": "[imperfections]\ndisplacement_im = 0.5\n",
            "adc_enabled": "[adc]\nenabled = false\n",
            "detuning_nan": "[imperfections]\ndetuning_rad_s = nan\n",
            "round_trip_nan": "[cavity]\nmc_round_trip_m = nan\n",
            "delta_nan": "[schedule]\ndelta_closed_rad_s = nan\n",
            "window_end_inf": "[schedule]\nwindow_end_ns = inf\n",
            "window_start_inf": "[schedule]\nwindow_start_ns = -inf\n",
            "workers": "[run]\nn_workers = 2\n",
            "delay_off_grid": "[sweep]\nintrinsic_delay_ns = 150.5\n",
            "dt_int": "[schedule]\ndt_int_ns = 0.1\n",
        }
        paths = {"missing": tmp_path / "missing.cfg"}
        for name, text in texts.items():
            paths[name] = tmp_path / f"{name}.cfg"
            paths[name].write_text(text)
        argv = [a.format(**paths) for a in argv] + ["--out", str(tmp_path / "out")]
        assert cli_entry(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # no frames.bin, no tree

    def test_unknown_gate_criterion_is_usage_error(self, tmp_path, capsys):
        # an unknown index used to run nothing and record "all_passed": true
        assert cli_entry(["gate", "--criteria", "99", "--out", str(tmp_path / "out")]) == 2
        assert "invalid choice: 99" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("adc_section, expected", [("bits = 12", AdcSpec(12))], ids=["12-bit"])
    def test_synth_follows_config_adc(self, tmp_path, capsys, adc_section, expected):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(f"{_SHORT_WINDOW}[adc]\n{adc_section}\n")
        assert cli_entry(["synth", "--config", str(cfg_path), "--frames", "200", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        with load_frames(tmp_path / "frames.bin") as fs:
            assert fs.adc == expected

    def test_synth_adc_flags_override_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(f"{_SHORT_WINDOW}[adc]\nbits = 12\n")
        argv = ["synth", "--config", str(cfg_path), "--frames", "200", "--out", str(tmp_path)]
        assert cli_entry(argv + ["--adc-bits", "10"]) == 0
        with load_frames(tmp_path / "frames.bin") as fs:
            assert fs.adc == AdcSpec(10)
        assert cli_entry(argv + ["--full-scale", "3.0"]) == 0
        with load_frames(tmp_path / "frames.bin") as fs:
            assert fs.adc == AdcSpec(12, 3.0)
        capsys.readouterr()

    def test_missing_frames_file_fails(self, tmp_path, capsys):
        code = cli_entry(["estimate", str(tmp_path / "nope.bin"), "--out", str(tmp_path)])
        assert code == 1
        capsys.readouterr()

    def test_synth_then_estimate_matches_in_process(self, tmp_path, capsys):
        # two code paths, one result: the CLI streams its estimate from the
        # synth file, the sweep estimates the code matrix that
        # synth_condition builds in memory for the same arguments; 8-bit
        # codes are read as int8, 16-bit ones as little-endian int16
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            "[sweep]\nframes_per_condition = 3000\n"
            "[schedule]\nwindow_end_ns = 500.0\n"
            "[estimation]\nbootstrap_resamples = 20\n"
            "[run]\nmaster_seed = 123\n"
        )
        cfg = load_config(cfg_path)
        release = simulate_release(cfg.cavity, cfg.schedule(150.0))
        for bits in (8, 16):
            synth_dir, est_dir = tmp_path / f"synth{bits}", tmp_path / f"est{bits}"
            assert cli_entry([
                "synth", "--config", str(cfg_path), "--out", str(synth_dir), "--purity", "0.582",
                "--adc-bits", str(bits),
            ]) == 0
            argv = ["estimate", str(synth_dir / "frames.bin"), "--config", str(cfg_path), "--out"]
            assert cli_entry(argv + [str(est_dir)]) == 0
            capsys.readouterr()

            fs = synth_condition(
                FockDiagonalState.two_level(0.582), release.envelope, 3000, 123,
                t0=cfg.window_start_ns, n_samples=cfg.n_samples, adc=AdcSpec(bits),
            )
            report = estimate_frames(fs, n_max=cfg.n_max, bootstrap_resamples=20)
            text = pipeline.json_text({**pipeline.tomography_fields(report), "n_frames": 3000})
            mem_dir = tmp_path / f"in-memory{bits}"
            pipeline.write_files(mem_dir, {"tomography.json": text, **pipeline.tomography_files(report)})
            assert {p.name: p.read_bytes() for p in est_dir.iterdir()} == {
                p.name: p.read_bytes() for p in mem_dir.iterdir()
            }
            with load_frames(synth_dir / "frames.bin") as loaded:
                streamed = extract_quadratures(loaded, report.pca.mode)
            assert streamed.tobytes() == report.quadratures.tobytes()
            payload = json.loads(text)
            assert payload["mle_converged"] is True
            assert payload["bootstrap_failures"] == 0
            assert payload["adc_saturated_fraction"] == 0.0

            # a rerun writes the same bytes
            again = tmp_path / f"again{bits}"
            assert cli_entry(argv + [str(again)]) == 0
            capsys.readouterr()
            assert (again / "tomography.json").read_bytes() == (est_dir / "tomography.json").read_bytes()

    def test_simulate_synth_estimate_load_no_scipy_submodule(self, tmp_path):
        # a fresh interpreter: this one has imported scipy for other tests
        code = textwrap.dedent(
            """
            import json, sys
            from photonmem.cli import cli_entry

            SCIPY = ("integrate", "optimize", "linalg", "special", "sparse")
            out = sys.argv[1]
            runs = [
                ("import", None),
                ("simulate", ["simulate", "--out", out + "/sim"]),
                ("synth", ["synth", "--frames", "1024", "--seed", "7", "--out", out + "/synth"]),
                ("estimate", ["estimate", out + "/synth/frames.bin", "--out", out + "/est"]),
            ]
            seen = {}
            for name, argv in runs:
                status = 0 if argv is None else cli_entry(argv)
                seen[name] = [status, [m for m in SCIPY if "scipy." + m in sys.modules]]
            print(json.dumps(seen))
            """
        )
        run = run_fresh_python(code, str(tmp_path))
        assert run.returncode == 0, run.stderr
        seen = json.loads(run.stdout.splitlines()[-1])
        assert seen == {name: [0, []] for name in ("import", "simulate", "synth", "estimate")}

    def test_decay_fit_and_release_need_no_scipy(self):
        # a fresh interpreter in which every scipy import fails
        code = textwrap.dedent(
            """
            import sys
            sys.modules["scipy"] = None
            import numpy as np
            from photonmem.cavity import CavityParams, ShutterSchedule, _propagate_segment, simulate_release
            from photonmem.estimation import fit_exponential_decay

            fit = fit_exponential_decay([(150.0, 0.582), (250.0, 0.546), (350.0, 0.531), (450.0, 0.497)])
            release = simulate_release(CavityParams(), ShutterSchedule(t_release_ns=150.0))
            # critical damping: exp(A t) [0, 1] = e^-t [t, 1]
            a = np.array([[-1.0, 1.0], [0.0, -1.0]], dtype=complex)
            states = _propagate_segment(a, np.array([0.0, 1.0], dtype=complex), np.array([0.0, 1.0]))
            print(fit.p0, fit.tau_us, release.metrics["fwhm_ns"], states[1, 0].real)
            """
        )
        run = run_fresh_python(code)
        assert run.returncode == 0, run.stderr
        p0, tau_us, fwhm_ns, state = map(float, run.stdout.split())
        assert p0 == pytest.approx(0.6255, abs=1e-4)
        assert tau_us == pytest.approx(1.995, abs=1e-3)
        assert 25.0 <= fwhm_ns <= 75.0
        assert state == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_sweep_fixed_seed_reproducible(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            "[sweep]\nstorage_times_ns = 0\npurities = 0.582\nframes_per_condition = 1500\n"
            "[schedule]\nwindow_end_ns = 400.0\n"
            "[estimation]\nbootstrap_resamples = 20\n"
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert cli_entry([
                "sweep", "--config", str(cfg_path), "--seed", "7", "--out", str(out),
            ]) == 0
        capsys.readouterr()
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        # the estimator-health fields are among those bytes
        entry = json.loads((out_a / "report.json").read_text())["conditions"][0]
        assert entry["mle_n_evals"] >= 1 and entry["bootstrap_failures"] == 0

    def test_sweep_tree_equals_emit_figure_data(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            "[sweep]\nstorage_times_ns = 0\npurities = 0.582\nframes_per_condition = 1500\n"
            "[schedule]\nwindow_end_ns = 400.0\n"
            "[estimation]\nbootstrap_resamples = 20\n"
        )
        cli_dir, lib_dir = tmp_path / "cli", tmp_path / "lib"
        assert cli_entry(["sweep", "--config", str(cfg_path), "--seed", "7", "--out", str(cli_dir)]) == 0
        capsys.readouterr()
        emit_figure_data(run_sweep(replace(load_config(cfg_path), master_seed=7)), lib_dir)

        def tree(root):
            return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

        assert tree(cli_dir) == tree(lib_dir)

        # `simulate` and `estimate` write through the sweep's writers: the
        # release files are byte-identical, and every tomography.json field
        # but the frame count is also a report.json condition field
        sim_dir, synth_dir, est_dir = tmp_path / "sim", tmp_path / "synth", tmp_path / "est"
        common = ["--config", str(cfg_path)]
        assert cli_entry(["simulate", *common, "--out", str(sim_dir)]) == 0
        assert cli_entry(["synth", *common, "--seed", "7", "--out", str(synth_dir)]) == 0
        assert cli_entry(["estimate", str(synth_dir / "frames.bin"), *common, "--out", str(est_dir)]) == 0
        capsys.readouterr()
        for name in ("envelope.csv", "release_metrics.json"):
            assert (sim_dir / name).read_bytes() == (cli_dir / "condition_0ns" / name).read_bytes()
        tomo_keys = set(json.loads((est_dir / "tomography.json").read_text())) - {"n_frames"}
        entry = json.loads((cli_dir / "report.json").read_text())["conditions"][0]
        assert tomo_keys <= set(entry)


class TestEstimateFramesWindowing:
    def test_matched_window_follows_release_time(self, smoke_report):
        # the per-condition PCA window tracks the pulse, so the estimated
        # mode support starts near the release time for every condition
        for cond, t_rel in zip(smoke_report.conditions, (150.0, 250.0)):
            assert cond.tomography.pca.mode.t0 == pytest.approx(t_rel - 50.0, abs=30.0)


class TestStreamedEstimate:
    """``photonmem estimate`` reads its frame file block by block: the file
    stays open from load to the last pass, and no pass holds the matrix."""

    @pytest.fixture
    def frame_files(self, tmp_path, capsys):
        """Two frame files of 1500 frames, seeds 7 and 8."""
        cfg_path = tmp_path / "short.cfg"
        cfg_path.write_text(_SHORT_WINDOW)
        paths = []
        for seed in (7, 8):
            out = tmp_path / f"synth{seed}"
            argv = ["synth", "--config", str(cfg_path), "--frames", "1500", "--seed", str(seed), "--out", str(out)]
            assert cli_entry(argv) == 0
            paths.append(out / "frames.bin")
        capsys.readouterr()
        return paths

    @staticmethod
    def _before_pass(monkeypatch, name, action):
        """Run ``action()`` when ``estimate_frames`` starts its pass ``name``."""
        original = getattr(pipeline, name)

        def wrapped(*args, **kwargs):
            action()
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, wrapped)

    def test_file_truncated_after_load_raises_naming_it(self, monkeypatch, frame_files, tmp_path, capsys):
        path = frame_files[0]
        size = path.stat().st_size
        self._before_pass(monkeypatch, "matched_window_pca", lambda: os.truncate(path, size // 2))
        with load_frames(path) as fs:
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: the data section ends inside"):
                estimate_frames(fs, n_max=5, bootstrap_resamples=20)
        # the command fails the same way, and writes no --out
        shutil.copyfile(frame_files[1], path)
        assert cli_entry(["estimate", str(path), "--out", str(tmp_path / "est")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: the data section ends inside")
        assert not (tmp_path / "est").exists()

    def test_file_renamed_over_the_path_mid_estimate_is_not_read(self, monkeypatch, frame_files):
        path, other = frame_files
        with load_frames(path) as fs:
            expected = pipeline.tomography_fields(estimate_frames(fs, n_max=5, bootstrap_resamples=20))
        with load_frames(other) as fs:
            replacement = pipeline.tomography_fields(estimate_frames(fs, n_max=5, bootstrap_resamples=20))
        assert replacement != expected
        # after both PCA passes, before extraction
        self._before_pass(monkeypatch, "extract_quadratures", lambda: os.replace(other, path))
        with load_frames(path) as fs:
            report = estimate_frames(fs, n_max=5, bootstrap_resamples=20)
        assert not other.exists()
        assert pipeline.tomography_fields(report) == expected

    @staticmethod
    def _outcome(fs):
        """``estimate_frames`` of ``fs`` as nested fields, or the error it raised."""
        try:
            return asdict(estimate_frames(fs, n_max=5, bootstrap_resamples=MIN_BOOTSTRAP_RESAMPLES))
        except (PhotonMemError, ValueError, ArithmeticError) as exc:
            return type(exc), str(exc)

    @given(
        m=st.integers(MIN_MLE_SAMPLES, 3 * FRAME_BLOCK).filter(lambda m: m % FRAME_BLOCK),
        n=st.integers(24, 81),
        bits=st.integers(2, 16),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=12, deadline=None)
    def test_streamed_estimate_equals_the_in_memory_one(self, tmp_path_factory, m, n, bits, seed):
        # frame counts with a partial last row block, odd and even sample
        # counts (below 32 the PCA runs on the whole frame), every ADC width
        mode = gaussian_mode(center=n / 2, sigma=n / 8, t0=0.0, n=n)
        fs = synth_condition(
            FockDiagonalState.two_level(0.582), mode, m, seed, n_samples=n, adc=AdcSpec(bits), threads=1
        )
        path = tmp_path_factory.getbasetemp() / "streamed.bin"
        save_frames(fs, path)
        with load_frames(path) as loaded:
            streamed = self._outcome(loaded)
        np.testing.assert_equal(streamed, self._outcome(fs))

    @pytest.mark.skipif(sys.platform != "linux", reason="counts /proc/self/fd")
    def test_estimate_leaks_no_file_descriptor(self, frame_files, tmp_path, capsys):
        before = len(os.listdir("/proc/self/fd"))
        for k in range(3):
            assert cli_entry(["estimate", str(frame_files[0]), "--out", str(tmp_path / f"est{k}")]) == 0
        capsys.readouterr()
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts KiB on Linux")
    def test_peak_rss_does_not_grow_with_frames(self, tmp_path, capsys):
        # each size in a fresh interpreter on one CPU, 8-bit codes of 1000
        # samples: 32 768 frames are 30 MiB more codes than 2 048, which
        # load_frames used to read whole; what still grows is the state of
        # one value per frame (quadratures, bin indices, a resample's
        # frame draws)
        code = textwrap.dedent(
            """
            import os, resource, sys
            from photonmem.cli import cli_entry

            os.sched_setaffinity(0, [min(os.sched_getaffinity(0))])
            assert cli_entry(["estimate", sys.argv[1], "--out", sys.argv[2]]) == 0
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            """
        )
        peak = {}
        for n in (2048, 32768):
            synth_dir = tmp_path / f"synth{n}"
            assert cli_entry(["synth", "--frames", str(n), "--seed", "7", "--out", str(synth_dir)]) == 0
            run = run_fresh_python(code, str(synth_dir / "frames.bin"), str(tmp_path / f"est{n}"))
            assert run.returncode == 0, run.stderr
            peak[n] = int(run.stdout.splitlines()[-1]) / 1024
        capsys.readouterr()
        assert peak[32768] - peak[2048] < 8.0, peak
