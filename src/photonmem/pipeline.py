"""Full reproduction pipeline: per-condition simulation + synthesis +
estimation, sweep-level decay fits, and figure-data emission.

Every output byte is a pure function of (config, master seed): conditions use
independent derived seeds and run one after another, synthesis fills fixed
row blocks on one thread per usable core (see :func:`synth.synth_condition`)
while the estimation passes run on the calling thread, and all files are
written atomically (temp + rename) from deterministically formatted text.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import seeds
from ._blas import single_blas_thread
from ._version import __version__
from .cavity import ReleaseResult, simulate_release, storage_lifetime
from .config import ExperimentConfig
from .errors import PhotonMemError
from .estimation import (
    MLE_KKT_TOL,
    DecayFit,
    MleResult,
    QuadratureBins,
    TomographyReport,
    bootstrap_purity,
    fit_exponential_decay,
    histogram_with_overlay,
    matched_window_pca,
    mle_photon_distribution,
)
from .fock import FockDiagonalState, wigner_section
from .modes import ModeFunction, clip_and_renormalize, time_shift
from .synth import FrameSet, extract_quadratures, synth_condition

#: half-width (ns) of the clip window around the base release used by the
#: time-shifted reanalysis branch
SHIFT_CLIP_HALF_WIDTH_NS = 300.0


@dataclass(frozen=True)
class ConditionRecord:
    storage_time_ns: float
    t_release_ns: float
    configured_purity: float
    release: ReleaseResult | None = None
    tomography: TomographyReport | None = None
    #: point fit of the time-shifted reanalysis
    shifted_mle: MleResult | None = None
    #: why the shifted reanalysis did not run, when it did not
    shifted_error: str | None = None
    error: str | None = None

    @property
    def shifted_purity(self) -> float | None:
        """c_1 of the shifted point fit; None where it did not run or converge."""
        if self.shifted_mle is None or not self.shifted_mle.converged:
            return None
        return float(self.shifted_mle.state.c[1])


@dataclass(frozen=True)
class SweepReport:
    conditions: list[ConditionRecord]
    decay_raw: DecayFit | None
    decay_shifted: DecayFit | None
    provenance: dict
    #: why each decay fit is None, when it is
    decay_raw_error: str | None = None
    decay_shifted_error: str | None = None
    #: ``"<t_release> ns: <reason>"`` for each point kept out of each fit
    decay_raw_excluded: tuple[str, ...] = ()
    decay_shifted_excluded: tuple[str, ...] = ()

    @property
    def failed(self) -> bool:
        return any(c.error is not None for c in self.conditions)


@single_blas_thread()
def estimate_frames(
    fs: FrameSet,
    *,
    n_max: int,
    bootstrap_resamples: int,
) -> TomographyReport:
    """PCA mode + quadrature extraction + MLE + bootstrap for one frame set.

    The quadratures are binned once (:class:`QuadratureBins`); the point fit
    and the bootstrap refits both run on those bins.  This is the single
    estimation path used in-process by :func:`run_sweep` and the acceptance
    gate and by the file-mediated CLI, so staged runs reproduce in-process
    results exactly.  Its passes run on the calling thread.
    """
    pca = matched_window_pca(fs)
    quads = extract_quadratures(fs, pca.mode)
    bins = QuadratureBins.of(quads)
    mle = mle_photon_distribution(bins, n_max)
    boot = bootstrap_purity(
        bins,
        mle.state,
        bootstrap_resamples,
        n_max=n_max,
        master_seed=fs.master_seed,
    )
    return TomographyReport(pca, quads, mle, boot, fs.adc_saturated_fraction)


def _target_purities(cfg: ExperimentConfig) -> tuple[list[float], dict]:
    if cfg.purity_model == "explicit":
        return list(cfg.purities), {}
    tau_ns = storage_lifetime(cfg.cavity, cfg.delta_closed_rad_s)
    p = [
        min(1.0, cfg.release_purity_p0 * float(np.exp(-t / tau_ns)))
        for t in cfg.release_times_ns
    ]
    return p, {"simulated_lifetime_ns": tau_ns}


@single_blas_thread()
def run_sweep(cfg: ExperimentConfig, *, threads: int | None = None) -> SweepReport:
    """Run the full per-condition pipeline and both decay fits; ``threads``
    is the synthesis pool size (None: one per usable core)."""
    schedules = [cfg.schedule(t) for t in cfg.release_times_ns]
    purities, extra_prov = _target_purities(cfg)

    def process(
        k: int, base_mode: ModeFunction | None
    ) -> tuple[ConditionRecord, ModeFunction | None]:
        """Condition k's record, and the base mode of the shifted reanalysis
        (condition 0 clips its own estimated mode)."""
        storage = cfg.storage_times_ns[k]
        t_release = cfg.release_times_ns[k]
        try:
            release = simulate_release(cfg.cavity, schedules[k])
            state = FockDiagonalState.two_level(purities[k])
            cond_seed = seeds.derive_seed(cfg.master_seed, seeds.DOMAIN_CONDITION, k)
            frames = synth_condition(
                state,
                release.envelope,
                cfg.frames_per_condition,
                cond_seed,
                t0=cfg.window_start_ns,
                n_samples=cfg.n_samples,
                imperfections=cfg.imperfections,
                adc=cfg.adc,
                threads=threads,
            )
            tomo = estimate_frames(
                fs=frames,
                n_max=cfg.n_max,
                bootstrap_resamples=cfg.bootstrap_resamples,
            )
            if k == 0:
                base_mode = _clip_base_mode(tomo.pca.mode, t_release)
            shifted, shifted_error = None, None
            if base_mode is None:
                # shifting condition k's own mode by t_k - t_0 would move it
                # off the pulse and report a near-zero purity
                shifted_error = "condition 0 failed: no base mode to shift"
            else:
                shifted_mode = time_shift(base_mode, t_release - cfg.release_times_ns[0])
                # late releases in short windows: the shifted mode may poke
                # past the recorded frame, so restrict it to the measured span
                shifted_mode = clip_and_renormalize(
                    shifted_mode,
                    (cfg.window_start_ns, cfg.window_start_ns + cfg.n_samples - 1),
                )
                shifted_quads = extract_quadratures(frames, shifted_mode)
                shifted = mle_photon_distribution(QuadratureBins.of(shifted_quads), cfg.n_max)
            return ConditionRecord(
                storage_time_ns=storage,
                t_release_ns=t_release,
                configured_purity=purities[k],
                release=release,
                tomography=tomo,
                shifted_mle=shifted,
                shifted_error=shifted_error,
            ), base_mode
        except (PhotonMemError, ValueError, ArithmeticError) as exc:
            return ConditionRecord(
                storage_time_ns=storage,
                t_release_ns=t_release,
                configured_purity=purities[k],
                error=f"{type(exc).__name__}: {exc}",
            ), None

    # conditions run one at a time, so one frame matrix is alive at once;
    # condition 0 runs first: its estimated mode seeds the shifted reanalysis
    first, base_mode = process(0, None)
    records = [first] + [process(k, base_mode)[0] for k in range(1, len(schedules))]

    decay_raw, raw_error, raw_excluded = _decay_fit(
        [(c.t_release_ns, c.tomography.mle) for c in records if c.tomography]
    )
    decay_shifted, shifted_error, shifted_excluded = _decay_fit(
        [(c.t_release_ns, c.shifted_mle) for c in records if c.shifted_mle is not None]
    )
    provenance = {
        "package_version": __version__,
        "config_sha256": cfg.digest(),
        "master_seed": cfg.master_seed,
        "purity_model": cfg.purity_model,
        "config_text": cfg.to_text(),
        **extra_prov,
    }
    return SweepReport(
        conditions=records,
        decay_raw=decay_raw,
        decay_shifted=decay_shifted,
        provenance=provenance,
        decay_raw_error=raw_error,
        decay_shifted_error=shifted_error,
        decay_raw_excluded=raw_excluded,
        decay_shifted_excluded=shifted_excluded,
    )


def _clip_base_mode(mode: ModeFunction, t_release: float) -> ModeFunction:
    window = (t_release - SHIFT_CLIP_HALF_WIDTH_NS, t_release + SHIFT_CLIP_HALF_WIDTH_NS)
    return clip_and_renormalize(mode, window)


def unconverged_reason(mle: MleResult) -> str:
    """Why a point fit's purity is not reported or fitted."""
    return f"MLE did not converge (KKT residual {mle.kkt_residual:.3g} > {MLE_KKT_TOL:g})"


def _decay_fit(
    fits: list[tuple[float, MleResult]],
) -> tuple[DecayFit | None, str | None, tuple[str, ...]]:
    """Decay fit of ``(t_release, point fit)`` pairs: the fit, or the reason
    there is none, and the points kept out of it.

    A point fit that did not converge (KKT residual above ``MLE_KKT_TOL``)
    is kept out, so that it cannot move the lifetime.
    """
    points, excluded = [], []
    for t, mle in fits:
        if mle.converged:
            points.append((t, float(mle.state.c[1])))
        else:
            excluded.append(f"{t:g} ns: {unconverged_reason(mle)}")
    if len(points) < 2:
        return None, f"{len(points)} point(s) to fit, need at least two", tuple(excluded)
    try:
        return fit_exponential_decay(points), None, tuple(excluded)
    except (PhotonMemError, ValueError) as exc:
        return None, f"{type(exc).__name__}: {exc}", tuple(excluded)


def _pm(value: float, err: float | None, fmt: str) -> str:
    return f"{value:{fmt}}" + ("" if err is None else f" +- {err:{fmt}}")


def condition_lines(report: SweepReport) -> list[str]:
    """Per condition: its error, why its point fit reports no purity, or its
    purity, shifted purity and W(0,0) in units of its bootstrap error."""
    lines = []
    for c in report.conditions:
        t = c.tomography
        if c.error:
            status = c.error
        elif not t.mle.converged:
            status = unconverged_reason(t.mle)
        else:
            shifted = c.shifted_error or (
                f"{c.shifted_purity:.4f}" if c.shifted_mle.converged else unconverged_reason(c.shifted_mle)
            )
            w_err = t.bootstrap.wigner_origin_std
            status = (
                f"purity {_pm(t.purity, t.bootstrap.std, '.4f')}, shifted {shifted}, "
                f"W(0,0) = {t.wigner_origin:+.4f} +- {w_err:.4f} ({t.wigner_origin / w_err:+.1f} sigma)"
            )
        lines.append(f"storage {c.storage_time_ns:6.1f} ns: {status}")
    return lines


def decay_lines(report: SweepReport) -> list[str]:
    """Both decay fits, with their error bars, or why each one is missing;
    and the points each one kept out."""
    lines = []
    for label, fit, error, excluded in (
        ("raw", report.decay_raw, report.decay_raw_error, report.decay_raw_excluded),
        ("shifted", report.decay_shifted, report.decay_shifted_error, report.decay_shifted_excluded),
    ):
        head = f"{label} decay fit:".ljust(19)
        if fit is None:
            lines.append(f"{head}none ({error})")
        else:
            lines.append(
                f"{head}P0 = {_pm(fit.p0, fit.p0_err, '.4f')}, "
                f"tau = {_pm(fit.tau_us, fit.tau_err, '.3f')} us"
            )
        lines += [f"  kept out {point}" for point in excluded]
    return lines


def write_files(out_dir: str | Path, files: dict[str, str]) -> list[Path]:
    """Write ``{file name: text}`` into ``out_dir``, creating it, each file
    atomically (temp + rename, the temp file removed if the write fails);
    returns the written paths.  Every output file goes through here."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in files.items():
        path = out / name
        tmp = path.with_name(name + ".tmp")
        try:
            tmp.write_text(text)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        written.append(path)
    return written


def json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\r\n")
    for row in rows:
        buf.write(",".join(row) + "\r\n")
    return buf.getvalue()


def _g(*values) -> list[str]:
    return [f"{v:.12g}" for v in values]


def release_files(release: ReleaseResult) -> dict[str, str]:
    """The released envelope with the stored population, and its metrics."""
    mode = release.envelope
    rows = (_g(t, v, pop) for t, v, pop in zip(mode.times, mode.samples, release.mc_population))
    return {
        "envelope.csv": _csv_text(["t_ns", "psi", "mc_pop"], rows),
        "release_metrics.json": json_text(release.metrics),
    }


def tomography_files(report: TomographyReport) -> dict[str, str]:
    """Histogram with the fitted overlay, Wigner cross-section through the
    origin, and photon-number distribution of one tomography report."""
    hist = histogram_with_overlay(report.quadratures, report.mle.state)
    section = wigner_section(report.mle.state)
    return {
        "histogram.csv": _csv_text(
            ["x", "density", "model"], map(_g, hist.centers, hist.density, hist.model)
        ),
        "wigner_section.csv": _csv_text(["x", "w"], map(_g, section.r, section.w)),
        "photon_number.csv": _csv_text(
            ["n", "c_n"], ([str(n), *_g(cn)] for n, cn in enumerate(report.mle.state.c))
        ),
    }


def tomography_fields(report: TomographyReport) -> dict:
    """The estimate and its health numbers, shared by ``tomography.json`` and
    each ``report.json`` condition entry.

    A point fit that did not converge reports no purity or W(0,0): ``null``
    for both and their errors, with ``mle_converged`` false.
    """
    ok = report.mle.converged
    return {
        "photon_number_distribution": [float(v) for v in report.mle.state.c],
        "loglik": report.mle.loglik,
        "purity": report.purity if ok else None,
        "purity_err": report.bootstrap.std if ok else None,
        "wigner_origin": report.wigner_origin if ok else None,
        "wigner_origin_err": report.bootstrap.wigner_origin_std if ok else None,
        "pca_eigenvalue": report.pca.eigenvalue,
        "mle_converged": report.mle.converged,
        "mle_kkt_residual": report.mle.kkt_residual,
        "mle_n_evals": report.mle.n_evals,
        "bootstrap_failures": report.bootstrap.failures,
        "adc_saturated_fraction": report.adc_saturated_fraction,
    }


def _decay_dict(fit: DecayFit | None) -> dict | None:
    if fit is None:
        return None
    return {
        "P0": fit.p0,
        "P0_err": fit.p0_err,
        "tau_us": fit.tau_us,
        "tau_err": fit.tau_err,
        "residuals": [float(r) for r in fit.residuals],
        "warning": fit.warning,
    }


def report_as_dict(report: SweepReport) -> dict:
    conditions = []
    for c in report.conditions:
        entry: dict = {
            "storage_time_ns": c.storage_time_ns,
            "t_release_ns": c.t_release_ns,
            "configured_purity": c.configured_purity,
            "error": c.error,
        }
        if c.tomography is not None:
            shifted = c.shifted_mle
            entry.update(tomography_fields(c.tomography))
            entry.update(
                {
                    "shifted_purity": c.shifted_purity,
                    "shifted_mle_converged": None if shifted is None else shifted.converged,
                    "shifted_mle_kkt_residual": None if shifted is None else shifted.kkt_residual,
                    "shifted_error": c.shifted_error,
                    "release_metrics": c.release.metrics,
                }
            )
        conditions.append(entry)
    return {
        "provenance": report.provenance,
        "conditions": conditions,
        "decay_raw": _decay_dict(report.decay_raw),
        "decay_shifted": _decay_dict(report.decay_shifted),
        "decay_raw_error": report.decay_raw_error,
        "decay_shifted_error": report.decay_shifted_error,
        "decay_raw_excluded": list(report.decay_raw_excluded),
        "decay_shifted_excluded": list(report.decay_shifted_excluded),
    }


def emit_figure_data(report: SweepReport, out_dir: str | Path) -> list[Path]:
    """Serialize all figure panels as CSV/JSON files; returns written paths.

    Per condition: wavepacket envelope, quadrature samples, histogram +
    fitted overlay, Wigner cross-section, photon-number distribution.  Sweep
    level: |psi(t)|^2 family, decay points and both exponential fits, and the
    top-level report.
    """
    written: list[Path] = []
    for c in report.conditions:
        files: dict[str, str] = {}
        if c.release is not None:
            files.update(release_files(c.release))
        if c.tomography is not None:
            # one f-string per row: _csv_text's lists cost twice as much on
            # a file of one row per frame
            files["quadratures.csv"] = "index,x\r\n" + "".join(
                f"{i},{x:.12g}\r\n" for i, x in enumerate(c.tomography.quadratures.tolist())
            )
            files.update(tomography_files(c.tomography))
        written += write_files(Path(out_dir) / f"condition_{int(round(c.storage_time_ns))}ns", files)

    files = {}
    with_release = [c for c in report.conditions if c.release is not None]
    if with_release:
        times = with_release[0].release.envelope.times
        headers = ["t_ns"] + [
            f"psisq_{int(round(c.storage_time_ns))}ns" for c in with_release
        ]
        rows = (
            _g(times[i], *(c.release.envelope.samples[i] ** 2 for c in with_release))
            for i in range(times.size)
        )
        files["intensity_family.csv"] = _csv_text(headers, rows)

    decay_rows = []
    for c in report.conditions:
        t = c.tomography if c.tomography and c.tomography.mle.converged else None
        decay_rows.append(
            [
                f"{c.t_release_ns:.12g}",
                f"{t.purity:.12g}" if t else "",
                f"{t.bootstrap.std:.12g}" if t else "",
                f"{c.shifted_purity:.12g}" if c.shifted_purity is not None else "",
            ]
        )
    files["decay_points.csv"] = _csv_text(
        ["t_release_ns", "purity", "purity_err", "shifted_purity"], decay_rows
    )
    files["decay_fit_raw.json"] = json_text(_decay_dict(report.decay_raw))
    files["decay_fit_shifted.json"] = json_text(_decay_dict(report.decay_shifted))
    files["report.json"] = json_text(report_as_dict(report))
    return written + write_files(out_dir, files)
