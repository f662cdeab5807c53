"""Acceptance gate: the eight release criteria as callable checks.

Each criterion returns pass/fail plus a detail string; :func:`run_gate`
prints one line per criterion and can write a machine-readable JSON summary.
The heavyweight shared artifacts (the full-scale synthetic data set and its
estimate) are cached so the whole gate stays within its runtime budget.
"""

from __future__ import annotations

import math
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .cavity import CavityParams, ShutterSchedule, simpson, simulate_release, storage_lifetime
from .config import (
    STOCK_FRAMES_PER_CONDITION,
    STOCK_PURITIES,
    ExperimentConfig,
)
from .counting import g2_from_counts, simulate_heralded_clicks
from .estimation import (
    QuadratureBins,
    fit_exponential_decay,
    mle_photon_distribution,
    pca_from_frames,
)
from .fock import (
    FockDiagonalState,
    apply_loss,
    g2_zero,
    quadrature_pdf,
    wigner,
    wigner_origin,
)
from .modes import (
    ModeFunction,
    clip_and_renormalize,
    overlap_sq,
    time_shift,
)
from .pipeline import emit_figure_data, estimate_frames, json_text, run_sweep, write_files
from .synth import AdcSpec, FrameSet, extract_quadratures, synth_condition

GATE_SEED = 7043
_STOCK_PURITY = STOCK_PURITIES[0]  # 0.582


@dataclass(frozen=True)
class GateResult:
    index: int
    name: str
    passed: bool
    seconds: float
    details: str


# --------------------------------------------------------------------------
# shared artifacts

@lru_cache(maxsize=1)
def _release_base():
    """Stock release simulation (release at 150 ns, calibrated shutter)."""
    return simulate_release(CavityParams(), ShutterSchedule(t_release_ns=150.0))


@lru_cache(maxsize=1)
def _full_scale_frames():
    """Full-scale frame set: 4.3e4 frames, p = 0.582, 8-bit ADC."""
    return synth_condition(
        FockDiagonalState.two_level(_STOCK_PURITY),
        _release_base().envelope,
        STOCK_FRAMES_PER_CONDITION,
        GATE_SEED,
        t0=0.0,
        n_samples=1000,
        adc=AdcSpec(),
    )


@lru_cache(maxsize=1)
def _full_scale_estimate():
    """The sweep's estimate of the full-scale frame set, fitted once for
    criteria 2 and 6."""
    return estimate_frames(_full_scale_frames(), n_max=5, bootstrap_resamples=40)


def _short_mode(n_samples: int = 128, t0: float = 140.0) -> ModeFunction:
    """Release envelope clipped to a compact window (used by criterion 5)."""
    return clip_and_renormalize(
        _release_base().envelope, (t0, t0 + (n_samples - 1))
    )


# --------------------------------------------------------------------------
# criteria

def criterion_wigner_anchors() -> tuple[bool, str]:
    """W(0,0) anchors for |1>, vacuum, and the p = 0.582 two-level mixture."""
    one = wigner_origin(FockDiagonalState.fock(1))
    vac = wigner_origin(FockDiagonalState.vacuum())
    mix = wigner_origin(FockDiagonalState.two_level(_STOCK_PURITY))
    expected_mix = (1.0 - 2.0 * _STOCK_PURITY) / math.pi
    checks = [
        abs(one + 1.0 / math.pi) <= 1e-12,
        abs(vac - 1.0 / math.pi) <= 1e-12,
        abs(mix - expected_mix) <= 1e-9,
        # quoted 4-decimal rendering of the same number
        abs(mix - (-0.0522)) <= 5e-5,
    ]
    details = (
        f"W(0,0): |1> = {one:.12f} (target {-1/math.pi:.12f}), "
        f"vacuum = {vac:.12f}, p=0.582 mixture = {mix:.9f} "
        f"(formula {(expected_mix):.9f})"
    )
    return all(checks), details


def criterion_tomography_round_trip() -> tuple[bool, str]:
    """Full-scale synthesis -> PCA -> MLE recovers p and the mode."""
    report = _full_scale_estimate()
    overlap = overlap_sq(report.pca.mode, _release_base().envelope)
    c1 = report.purity
    ok = abs(c1 - _STOCK_PURITY) <= 0.01 and overlap >= 0.99
    details = (
        f"recovered c1 = {c1:.4f} (target {_STOCK_PURITY} +- 0.01), "
        f"mode overlap^2 = {overlap:.5f} (>= 0.99)"
    )
    return ok, details


def criterion_cavity_physics() -> tuple[bool, str]:
    """Lifetime, pulse width, under-damped overshoot, shape invariance."""
    params = CavityParams()
    tau_us = storage_lifetime(params, ShutterSchedule(t_release_ns=500.0)) / 1000.0

    base = _release_base()
    fwhm = base.metrics["fwhm_ns"]
    psi = base.envelope.samples
    peak = int(np.argmax(psi**2))
    overshoot = float(np.min(psi[peak:])) < -0.01 * float(psi[peak])

    base_post = clip_and_renormalize(base.envelope, (150.0, base.envelope.t_end))
    overlaps = []
    for t_rel in (250.0, 350.0, 450.0):
        res = simulate_release(params, ShutterSchedule(t_release_ns=t_rel))
        post = clip_and_renormalize(res.envelope, (t_rel, res.envelope.t_end))
        overlaps.append(overlap_sq(time_shift(base_post, t_rel - 150.0), post))

    ok = (
        1.5 <= tau_us <= 2.5
        and 25.0 <= fwhm <= 75.0
        and overshoot
        and min(overlaps) >= 0.99
    )
    details = (
        f"storage lifetime = {tau_us:.3f} us (in [1.5, 2.5]), "
        f"FWHM = {fwhm:.1f} ns (in [25, 75]), overshoot = {overshoot}, "
        f"aligned overlap^2 >= {min(overlaps):.5f}"
    )
    return ok, details


def criterion_decay_round_trips() -> tuple[bool, str]:
    """Both reference decay fits are reproduced from their four points."""
    raw = fit_exponential_decay(
        [(150.0, 0.582), (250.0, 0.546), (350.0, 0.531), (450.0, 0.497)]
    )
    shifted = fit_exponential_decay(
        [(150.0, 0.582), (250.0, 0.529), (350.0, 0.499), (450.0, 0.448)]
    )
    ok = (
        abs(raw.p0 - 0.626) <= 0.02
        and abs(raw.tau_us - 1.98) <= 0.198
        and abs(shifted.p0 - 0.659) <= 0.02
        and abs(shifted.tau_us - 1.19) <= 0.119
    )
    details = (
        f"raw fit P0 = {raw.p0:.4f}, tau = {raw.tau_us:.3f} us "
        f"(targets 0.626 +- 0.02, 1.98 us +- 10%); "
        f"shifted fit P0 = {shifted.p0:.4f}, tau = {shifted.tau_us:.3f} us "
        f"(targets 0.659 +- 0.02, 1.19 us +- 10%)"
    )
    return ok, details


def _cross_validated_eigenvalue(p: float, seed: int) -> tuple[float, float]:
    """Split-sample estimate of the top quadrature variance and its MC error.

    PCA carries an O(sqrt(N/M)) upward bias in its raw top eigenvalue, so the
    relation lambda = 1/2 + p is tested with held-out data: the mode is
    estimated on one half and the variance measured on the other, with the
    attenuation from imperfect mode estimates corrected by the overlap of the
    two half-sample modes.  The frames are 16-bit codes, an ideal detector to
    within step²/12 ≈ 4e-9 of variance.
    """
    psi = _short_mode()
    n = psi.n_samples
    m = 30000
    fs = synth_condition(
        FockDiagonalState.two_level(p), psi, m, seed, t0=psi.t0, n_samples=n, adc=AdcSpec(16)
    )
    half = m // 2
    halves = [
        FrameSet(fs.data[:half], fs.t0, fs.adc, fs.master_seed),
        FrameSet(fs.data[half:], fs.t0, fs.adc, fs.master_seed),
    ]
    modes = [pca_from_frames(h).mode for h in halves]

    batch_vars = []
    for eval_half, mode in ((halves[1], modes[0]), (halves[0], modes[1])):
        quads = extract_quadratures(eval_half, mode)
        for chunk in np.array_split(quads, 5):
            batch_vars.append(float(np.var(chunk)))
    lam = float(np.mean(batch_vars))
    se = float(np.std(batch_vars, ddof=1) / np.sqrt(len(batch_vars)))

    attenuation = overlap_sq(modes[0], modes[1])
    if attenuation >= 0.5:
        scale = np.sqrt(attenuation)
        return 0.5 + (lam - 0.5) / scale, se / scale
    return lam, se  # no excited mode resolved (p ~ 0): variance is unbiased


def mode_mismatch_purities(
    p: float, n_frames: int, seed: int, overlaps: tuple[float, ...]
) -> list[float]:
    """Recovered single-photon weight per analysis-mode overlap^2, for the
    mode-mismatch law c1 = p |(psi0, psi)|^2.

    ``n_frames`` frames of the two-level state of weight ``p`` in the stock
    release mode clipped to 140-267 ns (``psi``) are analysed in the mode
    ``sqrt(ov) psi + sqrt(1 - ov) phi`` for each ``ov`` in ``overlaps``,
    with ``phi`` the 160-240 ns boxcar orthonormalised against ``psi``, by
    an n_max = 5 MLE.  The frames are 16-bit codes, as in criterion 5's
    eigenvalue test.
    """
    psi = _short_mode()
    fs = synth_condition(
        FockDiagonalState.two_level(p), psi, n_frames, seed,
        t0=psi.t0, n_samples=psi.n_samples, adc=AdcSpec(16),
    )
    boxcar = np.where((psi.times >= 160.0) & (psi.times < 240.0), 1.0, 0.0)
    # Gram-Schmidt on (psi, boxcar): psi is renormalised before the projection
    unit = psi.samples / np.sqrt(np.sum(psi.samples**2))
    phi = boxcar / np.sqrt(boxcar.sum())
    phi -= np.dot(unit, phi) * unit
    phi /= np.sqrt(np.sum(phi**2))
    purities = []
    for ov in overlaps:
        mixed = ModeFunction(np.sqrt(ov) * psi.samples + np.sqrt(1.0 - ov) * phi, psi.t0)
        bins = QuadratureBins.of(extract_quadratures(fs, mixed))
        purities.append(float(mle_photon_distribution(bins, n_max=5).state.c[1]))
    return purities


def criterion_statistical_laws() -> tuple[bool, str]:
    """Eigenvalue relation across p, and the mode-mismatch purity law."""
    lines = []
    ok = True
    for i, p in enumerate((0.0, 0.25, 0.5, _STOCK_PURITY, 1.0)):
        lam, se = _cross_validated_eigenvalue(p, GATE_SEED + 100 + i)
        dev = abs(lam - (0.5 + p))
        ok &= dev <= 3.0 * se
        lines.append(f"p={p}: lambda={lam:.4f} dev={dev:.4f} (3SE={3*se:.4f})")

    overlaps = (1.0, 0.9, 0.5)
    for ov, c1 in zip(overlaps, mode_mismatch_purities(_STOCK_PURITY, 30000, GATE_SEED + 200, overlaps)):
        target = _STOCK_PURITY * ov
        ok &= abs(c1 - target) <= 0.02
        lines.append(f"overlap^2={ov}: c1={c1:.4f} target={target:.4f} (+-0.02)")
    return ok, "; ".join(lines)


def criterion_loss_and_correlations() -> tuple[bool, str]:
    """g2 loss invariance, loss semigroup, click-level invariance, bootstrap."""
    rng = np.random.default_rng(GATE_SEED)
    g2_dev = 0.0
    semigroup_dev = 0.0
    for _ in range(25):
        state = FockDiagonalState.from_weights(rng.random(7) ** 2 + 1e-3)
        base = g2_zero(state)
        for eta in (0.2, 0.5, 0.9, 1.0):
            g2_dev = max(g2_dev, abs(g2_zero(apply_loss(state, eta)) - base))
        for eta1, eta2 in ((0.3, 0.7), (0.9, 0.5), (1.0, 0.4)):
            two_step = apply_loss(apply_loss(state, eta1), eta2)
            one_step = apply_loss(state, eta1 * eta2)
            semigroup_dev = max(semigroup_dev, float(np.max(np.abs(two_step.c - one_step.c))))

    psi = _short_mode()
    times_a, times_b, total = simulate_heralded_clicks(
        p=0.6, eta=0.5, psi=psi, n_trials=200_000, trial_period_ns=1000.0,
        master_seed=GATE_SEED + 300,
    )
    edges = np.array([-250.0, 250.0, 750.0, 1250.0])
    full = g2_from_counts(times_a, times_b, edges, total)
    thin_rng = np.random.default_rng(GATE_SEED + 301)
    thin_a = times_a[thin_rng.random(times_a.size) < 0.3]
    thin_b = times_b[thin_rng.random(times_b.size) < 0.3]
    thinned = g2_from_counts(thin_a, thin_b, edges, total)
    bands = 3.0 * np.sqrt(full.err**2 + thinned.err**2) + 1e-9
    mc_invariant = bool(np.all(np.abs(full.g2 - thinned.g2) <= bands))
    antibunched = full.g2[0] <= 3.0 * full.err[0]

    boot_std = _full_scale_estimate().bootstrap.std
    boot_ok = 0.0025 <= boot_std <= 0.01

    ok = (
        g2_dev <= 1e-9
        and semigroup_dev <= 1e-12
        and mc_invariant
        and antibunched
        and boot_ok
    )
    details = (
        f"max |g2 shift under loss| = {g2_dev:.2e} (<= 1e-9), "
        f"semigroup deviation = {semigroup_dev:.2e} (<= 1e-12), "
        f"g2(0) = {full.g2[0]:.4f} and thinning-invariant = {mc_invariant}, "
        f"bootstrap std = {boot_std:.4f} (in [0.0025, 0.01])"
    )
    return ok, details


def criterion_marginal_consistency() -> tuple[bool, str]:
    """Integrating W over p reproduces the quadrature density to 1e-5."""
    rng = np.random.default_rng(GATE_SEED + 400)
    x = np.linspace(-3.5, 3.5, 29)
    p_grid = np.linspace(-8.0, 8.0, 3201)
    worst = 0.0
    for _ in range(10):
        state = FockDiagonalState.from_weights(rng.random(6))
        w = wigner(state, x[:, None], p_grid[None, :])
        marginal = simpson(w, p_grid)
        worst = max(worst, float(np.max(np.abs(marginal - quadrature_pdf(state, x)))))
    return worst <= 1e-5, f"max |integral W dp - pdf| = {worst:.2e} (<= 1e-5)"


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def criterion_determinism() -> tuple[bool, str]:
    """Sweep output is byte-identical across runs and synthesis thread counts."""
    cfg = ExperimentConfig(
        storage_times_ns=(0.0, 100.0),
        purities=(0.582, 0.546),
        frames_per_condition=1200,
        bootstrap_resamples=20,
        master_seed=GATE_SEED + 500,
    )
    tmp = Path(tempfile.mkdtemp(prefix="photonmem-gate-"))
    try:
        trees = []
        for label, threads in (("a", 1), ("b", 1), ("c", 3)):
            report = run_sweep(cfg, threads=threads)
            out = tmp / label
            emit_figure_data(report, out)
            trees.append(_tree_bytes(out))
        same_rerun = trees[0] == trees[1]
        same_threads = trees[0] == trees[2]
        n_files = len(trees[0])
        ok = same_rerun and same_threads and n_files > 0
        details = (
            f"{n_files} files compared; rerun identical = {same_rerun}, "
            f"1 vs 3 workers identical = {same_threads}"
        )
        return ok, details
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


CRITERIA: list[tuple[int, str, callable]] = [
    (1, "wigner-anchors", criterion_wigner_anchors),
    (2, "tomography-round-trip", criterion_tomography_round_trip),
    (3, "cavity-physics", criterion_cavity_physics),
    (4, "decay-fit-round-trips", criterion_decay_round_trips),
    (5, "statistical-laws", criterion_statistical_laws),
    (6, "loss-and-correlations", criterion_loss_and_correlations),
    (7, "wigner-marginal-consistency", criterion_marginal_consistency),
    (8, "determinism", criterion_determinism),
]


def run_gate(
    indices: list[int] | None = None,
    out_json: str | Path | None = None,
    echo=print,
) -> list[GateResult]:
    """Run the acceptance criteria, print a table, optionally dump JSON."""
    results = []
    for index, name, fn in CRITERIA:
        if indices and index not in indices:
            continue
        start = time.perf_counter()
        try:
            passed, details = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, details = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        result = GateResult(index, name, bool(passed), elapsed, details)
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        echo(f"[{index}] {name:<28s} {status}  ({elapsed:7.2f} s)  {details}")

    if out_json is not None:
        payload = {
            "all_passed": all(r.passed for r in results),
            "criteria": [asdict(r) for r in results],
        }
        write_files(Path(out_json).parent, {Path(out_json).name: json_text(payload)})
    return results
