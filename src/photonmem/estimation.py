"""The verification stack: PCA mode extraction, maximum-likelihood photon-number
tomography, histogram overlays, bootstrap errors, and exponential lifetime fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeds
from .errors import (
    FitFailureError,
    InsufficientDataError,
    UnstableEstimateError,
)
from .fock import DEFAULT_N_MAX, FockDiagonalState, hermite_functions, wigner_origin
from .modes import GRID_TOL, ModeFunction
from .synth import FrameSet

MIN_MLE_SAMPLES = 1000
#: the MLE's Fock cutoff range is [1, MAX_N_MAX]
MAX_N_MAX = 10
#: fewest resamples :func:`bootstrap_purity` accepts
MIN_BOOTSTRAP_RESAMPLES = 20
#: lifetimes longer than this multiple of the data span are capped and flagged
DECAY_TAU_CAP_FACTOR = 100.0


@dataclass(frozen=True)
class PcaResult:
    """Leading auto-covariance eigenpair: estimated mode and its variance."""

    mode: ModeFunction
    eigenvalue: float
    spectrum: np.ndarray


@dataclass(frozen=True)
class MleResult:
    state: FockDiagonalState
    loglik: float
    #: objective evaluations the optimizer spent
    n_evals: int
    #: ``kkt_residual <= MLE_KKT_TOL``
    converged: bool
    kkt_residual: float


@dataclass(frozen=True)
class BootstrapResult:
    """Bootstrap spread of the single-photon weight c_1 and of W(0,0)."""

    std: float
    #: spread of the Wigner value at the origin over the same refits
    wigner_origin_std: float
    #: refits whose KKT residual exceeded MLE_KKT_TOL; left out of ``std``
    failures: int


@dataclass(frozen=True)
class HistogramOverlay:
    """Density-normalized histogram plus the fitted model on bin centers."""

    edges: np.ndarray
    density: np.ndarray
    centers: np.ndarray
    model: np.ndarray


@dataclass(frozen=True)
class TomographyReport:
    """One frame set's estimate: its PCA mode, the quadratures along it, the
    ML point fit to them and that fit's bootstrap spread."""

    pca: PcaResult
    quadratures: np.ndarray
    mle: MleResult
    bootstrap: BootstrapResult
    #: share of ADC samples at the two outermost codes
    adc_saturated_fraction: float

    @property
    def purity(self) -> float:
        """Single-photon weight c_1 of the point fit."""
        return float(self.mle.state.c[1])

    @property
    def wigner_origin(self) -> float:
        """W(0,0) of the point fit."""
        return wigner_origin(self.mle.state)


@dataclass(frozen=True)
class DecayFit:
    """P(t) = P0 exp(-t/tau) fit of purity against storage time.

    ``p0_err`` and ``tau_err`` are the standard errors
    ``sqrt(diag((J^T J)^-1 s^2))``, ``s^2 = RSS/(n-2)``; None for two points
    and where tau was capped.
    """

    p0: float
    tau_us: float
    residuals: np.ndarray
    warning: str | None = None
    p0_err: float | None = None
    tau_err: float | None = None


def autocovariance(fs: FrameSet, *, b: int = 1, cols: slice = slice(None)) -> np.ndarray:
    """Covariance (normalization 1/M) of the frames' columns ``cols``, a
    slice of unit step, binned to sums of ``b`` samples over sqrt(b): an
    isometry onto the coarse subspace, so vacuum bins stay at variance 1/2.
    A partial last bin is dropped.  Centring keeps coherent contamination
    (e.g. scattered LO light) out of the mode estimate.

    One uncentred pass over the row blocks of :meth:`FrameSet.blocks`:
    each block's bin sums of codes, exact integers, are cast to float64 and
    add their column sums to ``total`` and their Gram matrix to ``v``; the
    result is ``(v - total total^T / M) / (M b)`` times step².  A bin sum has
    magnitude at most ``b 2^(bits-1)``, so every product and partial sum is
    an integer below 2^53 while ``M b² 4^(bits-1) < 2^53``: ``M b² < 2^39``
    for 8-bit codes, ``M b² < 2^23`` for 16-bit ones (131 072 frames at
    b = 8).  Then ``v`` and ``total`` are exact, the result does not depend
    on the row order, and the code offset of 1/2 step drops out with the
    mean.
    """
    if b < 1:
        raise ValueError(f"bin size must be a positive whole number of samples, got {b}")
    start, stop, _ = cols.indices(fs.n_samples)
    m, n = fs.n_frames, max(stop - start, 0) // b
    if m < 2:
        raise InsufficientDataError("need at least 2 frames for an auto-covariance")
    if n < 2:
        raise ValueError("window too short for the requested binning")
    # codes sum exactly in the narrowest integer type that holds b of them
    acc_type = np.min_scalar_type(-(b << (fs.adc.bits - 1)))
    v, gram, total = np.zeros((n, n)), np.empty((n, n)), np.zeros(n)
    for _, rows in fs.blocks(slice(start, start + n * b)):
        # b strided column passes: a reduction over a short last axis
        # (reshape + sum(axis=2)) is several times slower
        acc = rows[:, 0::b].astype(acc_type)
        for k in range(1, b):
            acc += rows[:, k::b]
        x = acc.astype(np.float64, copy=False)
        total += x.sum(axis=0)
        v += np.matmul(x.T, x, out=gram)
    v -= np.outer(total, total / m)
    v /= m * b
    v *= fs.adc.step**2
    return (v + v.T) / 2.0


def pca_leading_mode(v: np.ndarray) -> PcaResult:
    """Leading eigenpair of a symmetric auto-covariance matrix; its mode
    starts at t0 = 0.

    The eigenvector sign is fixed so its largest-|value| entry is positive.
    For a phase-insensitive mixture with single-photon weight p in one mode,
    the top eigenvalue is 1/2 + p.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError("auto-covariance must be a square matrix")
    scale = float(np.max(np.abs(v))) or 1.0
    if float(np.max(np.abs(v - v.T))) > 1e-8 * scale:
        raise ValueError("auto-covariance must be symmetric")
    eigvals, eigvecs = np.linalg.eigh(v)
    vec = eigvecs[:, -1]
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    return PcaResult(
        mode=ModeFunction(vec, 0.0),
        eigenvalue=float(eigvals[-1]),
        spectrum=eigvals[::-1].copy(),
    )


def pca_from_frames(
    fs: FrameSet, *, window: tuple[float, float] | None = None, bin_size: int = 1
) -> PcaResult:
    """Auto-covariance + leading mode on the frames' half-open time
    ``window`` ``[lo, hi)`` (the whole frame without one), binned to
    ``bin_size`` samples (see :func:`autocovariance`).

    The eigenproblem runs in the coarse space but the returned mode is
    upsampled back to the frame grid (piecewise constant, exactly norm
    preserving) so downstream extraction needs no changes.  Raises
    ``ValueError`` for a bin size below 1 and a window of fewer than 2 bins.
    """
    i0, i1 = 0, fs.n_samples
    if window is not None:
        lo, hi = window
        i0 = max(i0, int(np.ceil(lo - fs.t0 - GRID_TOL)))
        i1 = min(i1, int(np.floor(hi - fs.t0 + GRID_TOL)))
    # a window wholly before the frame has i1 < 0, which a slice would
    # count from the end
    coarse = pca_leading_mode(autocovariance(fs, b=bin_size, cols=slice(i0, max(i0, i1))))
    fine = np.repeat(coarse.mode.samples, bin_size) / np.sqrt(bin_size)
    return PcaResult(
        mode=ModeFunction(fine, fs.t0 + i0),
        eigenvalue=coarse.eigenvalue,
        spectrum=coarse.spectrum,
    )


#: matched-analysis defaults: the estimator noise floor removes ~1.6 N/M of
#: the mode energy, so the leading mode is found in a window around the pulse
#: on a coarse grid rather than over the raw 1 GS/s record
PCA_COARSE_BIN = 8
PCA_BIN = 4
PCA_WINDOW_BEFORE_PEAK_NS = 74.0
PCA_WINDOW_AFTER_PEAK_NS = 276.0


def matched_window_pca(fs: FrameSet) -> PcaResult:
    """Two-pass PCA: coarse pass locates the pulse, fine pass runs on a
    matched window (4 ns bins) around it.  Deterministic given the frames."""
    if fs.n_samples < 4 * PCA_COARSE_BIN:
        return pca_from_frames(fs)
    coarse = pca_from_frames(fs, bin_size=PCA_COARSE_BIN)
    peak_t = float(coarse.mode.times[int(np.argmax(np.abs(coarse.mode.samples)))])
    lo = max(fs.t0, peak_t - PCA_WINDOW_BEFORE_PEAK_NS)
    hi = min(fs.t0 + fs.n_samples, peak_t + PCA_WINDOW_AFTER_PEAK_NS)
    return pca_from_frames(fs, window=(lo, hi), bin_size=PCA_BIN)


#: a fit whose KKT residual (see :func:`_kkt_of_gradient`) is at most this
#: counts as converged
MLE_KKT_TOL = 1e-6
#: :func:`_fit_weighted` stops at this KKT residual, well inside MLE_KKT_TOL
_NEWTON_TOL = 1e-9
#: Armijo sufficient-decrease fraction
_ARMIJO = 1e-4
#: rounding allowance in the Armijo test, relative to |f|: next to the
#: optimum the decrease a step earns is below the rounding of f, and without
#: it the backtracking halves the step on rounding noise down to _MIN_STEP
#: (single refits then took up to 175 evaluations instead of at most 8)
_ROUNDING = 4e-16
#: a step this short ends the line search (and the fit)
_MIN_STEP = 1e-12
#: cap on Newton iterations per fit; fits take 3-20 evaluations
_MAX_ITER = 100

#: width of the quadrature grid every fit runs on (the vacuum's standard
#: deviation is 0.71): bin k holds the samples x with floor(x / QUAD_BIN) = k
QUAD_BIN = 0.01
#: a quadrature set spanning more bins than this is refused rather than
#: counted on a grid of that length
_MAX_GRID_BINS = 1 << 20


@dataclass(frozen=True)
class QuadratureBins:
    """One quadrature set on the fixed grid of width :data:`QUAD_BIN`,
    anchored at 0: each sample's bin, the occupied bins' sample counts and
    the Fock densities ``P_n`` at those bins' midpoints.  Built once per set
    by :meth:`of`; every fit reads it."""

    #: index into ``counts`` of each sample's bin (intp)
    bin_of: np.ndarray
    #: samples per occupied bin, in grid order
    counts: np.ndarray
    #: ``P_n(x) = phi_n(x)^2`` at the occupied bins' midpoints, for
    #: n = 0..MAX_N_MAX, shape (MAX_N_MAX + 1, bins)
    pdf: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.bin_of.size

    @classmethod
    def of(cls, samples) -> "QuadratureBins":
        """Bin ``samples`` (at least :data:`MIN_MLE_SAMPLES`, finite, not all
        equal): one ``bincount`` over the grid range between the lowest and
        highest sample's bin, of which the occupied bins are kept."""
        x = np.asarray(samples, dtype=float).ravel()
        if x.size < MIN_MLE_SAMPLES:
            raise InsufficientDataError(f"need >= {MIN_MLE_SAMPLES} samples, got {x.size}")
        if not np.all(np.isfinite(x)):
            raise ValueError("samples must be finite")
        if float(np.var(x)) < 1e-12:
            raise FitFailureError("degenerate samples: zero variance")
        k = x / QUAD_BIN
        np.floor(k, out=k)
        lo, hi = k.min(), k.max()
        if hi - lo >= _MAX_GRID_BINS:
            raise ValueError(
                f"samples span [{x.min():.6g}, {x.max():.6g}], more than "
                f"{_MAX_GRID_BINS} bins of {QUAD_BIN}"
            )
        k -= lo
        bin_of = k.astype(np.intp)
        counts = np.bincount(bin_of)
        occupied = np.flatnonzero(counts)
        # grid bin -> its index among the occupied bins
        rank = np.cumsum(counts > 0) - 1
        np.take(rank, bin_of, out=bin_of)
        midpoints = (lo + occupied + 0.5) * QUAD_BIN
        return cls(bin_of, counts[occupied], hermite_functions(MAX_N_MAX, midpoints) ** 2)


def _objective(
    c: np.ndarray, pdf_matrix: np.ndarray, w: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """``-sum_j w_j log(c . P_j) + sum_n c_n``, its gradient in ``c`` and
    the mixture density ``c . P_j``; column j is a quadrature bin.

    Built from einsum, which calls no BLAS, so a fit's bytes do not depend
    on the BLAS library or its thread count.  ``@`` would save little: on
    the ~600 bins of a 15 000-sample set, a 40-resample bootstrap took
    19-29 ms either way on a 2-core host, and one call 13 us with einsum
    against 9.4 us with ``@``.  The value's sum is numpy's pairwise one,
    whose rounding (~1e-16 relative; einsum's running sum reached 2e-15
    over 15 000 terms) stays inside the Armijo allowance ``_ROUNDING`` of
    :func:`_fit_weighted`.
    """
    mix = np.maximum(np.einsum("n,nj->j", c, pdf_matrix), 1e-300)
    value = float(c.sum() - (w * np.log(mix)).sum())
    grad = 1.0 - np.einsum("nj,j->n", pdf_matrix, w / mix)
    return value, grad, mix


def _kkt_of_gradient(c: np.ndarray, grad: np.ndarray) -> float:
    """Worst violation of the optimality conditions of :func:`_objective`
    on ``c >= 0``, from its gradient ``grad`` at ``c``: ``max |grad|`` where
    ``c_n > 0`` and ``max(-grad, 0)`` where ``c_n = 0``."""
    support = c > 0
    return float(max(
        np.max(np.abs(grad[support]), initial=0.0),
        np.max(-grad[~support], initial=0.0),
    ))


def _fit_weighted(
    pdf_matrix: np.ndarray, w: np.ndarray, c0: np.ndarray
) -> tuple[np.ndarray, int, float]:
    """Minimize :func:`_objective` over ``c >= 0`` from ``c0`` by an
    active-set Newton method (Lawson & Hanson, *Solving Least Squares
    Problems*, 1974).

    Returns the minimizer, the objective evaluation count and its KKT
    residual (:func:`_kkt_of_gradient`), taken from the last gradient,
    which leaves out the columns of zero weight.  The log term is
    homogeneous of degree 1 and ``sum w = 1``, so the minimizer already
    satisfies ``sum c = 1``.

    Only the columns with ``w_j > 0`` enter the fit.  The free set starts as
    the support of ``c0``.  Each iteration takes a Newton step on the free
    set with the exact Hessian ``A A^T``, ``A = P_free * sqrt(w) / mix``,
    stopped by a ratio test where a component reaches zero (it then leaves
    the free set) and backtracked to an Armijo decrease with a rounding
    allowance.  The zero component with the most negative gradient joins
    the free set when the Newton step on the enlarged set raises it, as it
    always does once the free set is stationary.  The fit stops at a KKT
    residual of ``_NEWTON_TOL``, or where no step makes progress;
    convergence is judged by the KKT residual alone.
    """
    keep = np.flatnonzero(w > 0)  # a bool mask: 7x faster than on floats
    p, wk = pdf_matrix.take(keep, axis=1), w.take(keep)
    root_w = np.sqrt(wk)
    c = np.array(c0, dtype=float)
    free = c > 0
    f, grad, mix = _objective(c, p, wk)
    n_evals = 1
    for _ in range(_MAX_ITER):
        idx, zero = np.flatnonzero(free), np.flatnonzero(~free)
        g_free = np.max(np.abs(grad[idx]), initial=0.0)
        g_zero = np.max(-grad[zero], initial=0.0)
        if max(g_free, g_zero) <= _NEWTON_TOL:
            break
        enter = zero[np.argmin(grad[zero])] if g_zero > _NEWTON_TOL else -1
        if enter >= 0:
            idx = np.sort(np.append(idx, enter))
        a = p[idx]
        a *= root_w / mix
        h = np.einsum("nj,mj->nm", a, a)
        try:
            d = np.linalg.solve(h, -grad[idx])
            if g_free > _NEWTON_TOL and np.any(d[idx == enter] <= 0.0):
                # the step would push the entering component negative: the
                # free set moves toward its own stationary point first,
                # where the step on the enlarged set raises it
                stay = idx != enter
                idx = idx[stay]
                d = np.linalg.solve(h[np.ix_(stay, stay)], -grad[idx])
        except np.linalg.LinAlgError:
            break
        # ratio test: the longest step (at most 1) that keeps c >= 0
        ratios = np.full(idx.size, np.inf)
        shrink = d < 0
        ratios[shrink] = -c[idx[shrink]] / d[shrink]
        t_max = min(1.0, float(ratios.min()))
        slope = float(grad[idx] @ d)
        t = t_max
        while t >= _MIN_STEP:
            trial = c.copy()
            trial[idx] = np.maximum(c[idx] + t * d, 0.0)
            if t == t_max:
                trial[idx[ratios <= t_max]] = 0.0
            f_new, grad_new, mix_new = _objective(trial, p, wk)
            n_evals += 1
            if f_new <= f + _ARMIJO * t * slope + _ROUNDING * abs(f):
                break
            t /= 2.0
        else:
            break
        c, f, grad, mix = trial, f_new, grad_new, mix_new
        free = c > 0
    return c, n_evals, _kkt_of_gradient(c, grad)


def _check_n_max(n_max: int) -> None:
    if not 1 <= n_max <= MAX_N_MAX:
        raise ValueError(f"n_max must lie in [1, {MAX_N_MAX}], got {n_max}")


def mle_photon_distribution(bins: QuadratureBins, n_max: int = DEFAULT_N_MAX) -> MleResult:
    """Maximum-likelihood photon-number distribution from quadrature samples.

    Maximizes the grouped-data likelihood of the samples' bins on the
    :data:`QUAD_BIN` grid, ``sum_k N_k log sum_n c_n P_n(m_k)`` with ``N_k``
    samples in bin k of midpoint ``m_k``, over the probability simplex; it
    is concave in ``c``.  It is solved as one minimization of
    ``-sum_k (N_k / N) log(c . P_k) + sum_n c_n`` over ``c >= 0`` by the
    active-set Newton method of :func:`_fit_weighted` (exact gradient and
    Hessian), started from the uniform distribution; the optimum of that
    problem lies on the simplex.  ``loglik`` is the binned sum, ``n_evals``
    counts the objective evaluations, and ``converged`` means the KKT
    residual on the bins is at most :data:`MLE_KKT_TOL`.

    Parameters
    ----------
    bins:
        The quadrature samples' bins, from :meth:`QuadratureBins.of`.
    n_max:
        Fock cutoff in [1, MAX_N_MAX].
    """
    _check_n_max(n_max)
    pdf_matrix = bins.pdf[: n_max + 1]
    w = bins.counts / bins.n_samples
    c, n_evals, kkt = _fit_weighted(pdf_matrix, w, np.full(n_max + 1, 1.0 / (n_max + 1)))
    state = FockDiagonalState(c / c.sum())
    mix = np.maximum(np.einsum("n,nj->j", state.c, pdf_matrix), 1e-300)
    return MleResult(
        state=state,
        loglik=float(bins.counts @ np.log(mix)),
        n_evals=n_evals,
        converged=kkt <= MLE_KKT_TOL,
        kkt_residual=kkt,
    )


def bootstrap_purity(
    bins: QuadratureBins,
    point: FockDiagonalState,
    n_resamples: int = 40,
    *,
    n_max: int = DEFAULT_N_MAX,
    master_seed: int,
) -> BootstrapResult:
    """Bootstrap standard deviations of the single-photon weight c_1 and of
    the Wigner value at the origin, ``W(0,0) = sum_n (-1)^n c_n / pi``.

    Frames are resampled with replacement; extraction commutes with the
    resampling, so resample ``b`` draws frame indices ``idx`` from stream
    ``(master_seed, DOMAIN_BOOTSTRAP, b)`` and weighs the ``bins`` of the
    extracted quadratures by ``bincount(bin_of[idx]) / N``.  Each refit is
    the active-set Newton fit of :func:`_fit_weighted` on the bins the
    resample occupies, warm-started at the full-data estimate ``point``.  A
    refit fails when its KKT residual exceeds :data:`MLE_KKT_TOL`; failed
    refits are counted and left out of the spread.  More than 10% failed
    refits raise :class:`UnstableEstimateError`.
    """
    if n_resamples < MIN_BOOTSTRAP_RESAMPLES:
        raise ValueError(f"need >= {MIN_BOOTSTRAP_RESAMPLES} resamples, got {n_resamples}")
    _check_n_max(n_max)
    pdf_matrix = bins.pdf[: n_max + 1]
    n = bins.n_samples
    c0 = np.zeros(n_max + 1)
    take = min(point.c.size, n_max + 1)
    c0[:take] = point.c[:take]
    values, origins = [], []
    failures = 0
    for b in range(n_resamples):
        rng = seeds.stream(master_seed, seeds.DOMAIN_BOOTSTRAP, b)
        idx = rng.integers(0, n, size=n)
        w = np.bincount(bins.bin_of[idx], minlength=bins.counts.size) / n
        c, _, kkt = _fit_weighted(pdf_matrix, w, c0)
        if kkt > MLE_KKT_TOL:
            failures += 1
            continue
        values.append(c[1] / c.sum())
        origins.append(wigner_origin(FockDiagonalState(c / c.sum())))
    if failures > 0.1 * n_resamples:
        raise UnstableEstimateError(
            f"{failures}/{n_resamples} bootstrap refits failed"
        )
    return BootstrapResult(
        std=float(np.std(values, ddof=1)),
        wigner_origin_std=float(np.std(origins, ddof=1)),
        failures=failures,
    )


#: Levenberg-Marquardt settings of :func:`fit_exponential_decay`: the
#: iteration cap, the relative parameter step and the relative RSS decrease
#: at which the fit stops, and the damping that ends it where no step
#: lowers the RSS any more (a minimum to rounding)
_LM_MAX_ITER = 200
_LM_XTOL = 1e-12
_LM_FTOL = 1e-14
_LM_MAX_DAMPING = 1e20


def _decay_model(t: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``P0 exp(-k t)`` at ``x = (P0, k)`` and its exact Jacobian in x."""
    e = np.exp(-x[1] * t)
    model = x[0] * e
    return model, np.column_stack((e, -t * model))


def _levenberg_marquardt(
    t: np.ndarray, p: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Least squares of ``P0 exp(-k t)`` to ``p`` over ``P0 > 0, k >= 0``
    from the start ``x = (P0, k)`` (Moré, LNM 630, 1978, with Marquardt's
    diagonal scaling); returns the fit, its Jacobian and RSS.

    The decay rate ``k = 1/tau`` rather than tau is fitted, so that data
    that do not decay drive it to its bound 0 (tau infinite) instead of
    sending tau off to infinity.  A step that would make k negative is
    replaced by the step on P0 alone with k on its bound.  A trial that
    makes P0 non-positive or raises the RSS is retried with ten times the
    damping.  The fit stops after an accepted step shorter than ``_LM_XTOL``
    of each parameter or one that lowered the RSS by at most ``_LM_FTOL`` of
    it, and where no step lowers the RSS at all.
    """
    model, jac = _decay_model(t, x)
    r = p - model
    rss = float(r @ r)
    damping = 1e-3
    for _ in range(_LM_MAX_ITER):
        jtj, g = jac.T @ jac, jac.T @ r
        while True:
            scaled = jtj + damping * np.diag(np.diag(jtj))
            step = np.linalg.solve(scaled, g)
            if x[1] + step[1] < 0.0:
                step = np.array([g[0] / scaled[0, 0], -x[1]])
            trial = x + step
            if trial[0] > 0.0:
                model, trial_jac = _decay_model(t, trial)
                trial_r = p - model
                trial_rss = float(trial_r @ trial_r)
                if trial_rss <= rss:
                    break
            damping *= 10.0
            if damping > _LM_MAX_DAMPING:
                return x, jac, rss
        done = np.all(np.abs(step) <= _LM_XTOL * trial) or rss - trial_rss <= _LM_FTOL * rss
        x, jac, r, rss = trial, trial_jac, trial_r, trial_rss
        if done or rss == 0.0:
            return x, jac, rss
        damping = max(damping / 10.0, 1e-12)
    raise FitFailureError(f"decay fit did not converge in {_LM_MAX_ITER} iterations")


def fit_exponential_decay(points) -> DecayFit:
    """Nonlinear least squares of ``P(t) = P0 exp(-t/tau)`` (t in ns, tau in us).

    Levenberg-Marquardt (:func:`_levenberg_marquardt`) from the log-linear
    regression, with ``P0 > 0`` and ``tau > 0``; unweighted, deterministic,
    and exact through two points.  Non-decreasing purity sequences are
    fitted anyway but flagged; tau beyond 100x the time span (an infinite
    one included) is capped at that bound and flagged, and then carries no
    error bars.  Raises :class:`FitFailureError` when the fit does not
    converge.
    """
    pts = [(float(t), float(p)) for t, p in points]
    if len(pts) < 2:
        raise ValueError("need at least two points")
    t_ns = np.array([p[0] for p in pts])
    purity = np.array([p[1] for p in pts])
    if np.unique(t_ns).size != t_ns.size:
        raise ValueError("times must be distinct")
    if np.any((purity <= 0.0) | (purity > 1.0)):
        raise ValueError("purities must lie in (0, 1]")

    order = np.argsort(t_ns)
    t_us = t_ns[order] / 1000.0
    p_sorted = purity[order]
    warning = None
    if len(pts) >= 3 and np.all(np.diff(p_sorted) >= 0.0):
        warning = "purities are non-decreasing with storage time"

    span_us = float(t_us[-1] - t_us[0])
    cap = DECAY_TAU_CAP_FACTOR * span_us
    slope, intercept = np.polyfit(t_us, np.log(p_sorted), 1)
    tau0 = min(cap, -1.0 / slope) if slope < 0 else cap
    p00 = min(1.0, float(np.exp(intercept)))

    x, jac, rss = _levenberg_marquardt(t_us, p_sorted, np.array([p00, 1.0 / tau0]))
    p0_fit, rate = float(x[0]), float(x[1])
    p0_err = tau_err = None
    if rate * cap < 1.0:  # tau = 1/rate exceeds the cap
        tau_fit = cap
        warning = (warning + "; " if warning else "") + "tau exceeds 100x the data span (capped)"
    else:
        tau_fit = 1.0 / rate
        if len(pts) > 2:
            var = np.diag(np.linalg.inv(jac.T @ jac)) * (rss / (len(pts) - 2))
            # sigma_tau = sigma_k / k^2 for tau = 1/k
            p0_err, tau_err = float(np.sqrt(var[0])), float(np.sqrt(var[1])) / rate**2
    model, _ = _decay_model(t_us, np.array([p0_fit, 1.0 / tau_fit]))
    return DecayFit(
        p0=p0_fit, tau_us=tau_fit, residuals=p_sorted - model, warning=warning,
        p0_err=p0_err, tau_err=tau_err,
    )


#: bins of the quadrature histogram in each condition's ``histogram.csv``
HISTOGRAM_BINS = 60


def histogram_with_overlay(samples: np.ndarray, state: FockDiagonalState) -> HistogramOverlay:
    """Density-normalized histogram of ``HISTOGRAM_BINS`` bins with the
    fitted mixture on the same grid."""
    x = np.asarray(samples, dtype=float).ravel()
    density, edges = np.histogram(x, bins=HISTOGRAM_BINS, density=True)
    centers = (edges[:-1] + edges[1:]) / 2.0
    model = state.c @ (hermite_functions(state.n_max, centers) ** 2)
    return HistogramOverlay(edges=edges, density=density, centers=centers, model=model)
