#!/usr/bin/env python3
"""Run the stock storage-time sweep at full acquisition scale.

Reproduces the headline numbers of the demonstration this package models:
four storage times (0/100/200/300 ns on top of the 150 ns intrinsic delay),
4.3e4 homodyne frames per condition, 8-bit ADC, and both memory-lifetime
fits (raw modes vs clip/shift/renormalize reanalysis).  Prints the sweep's
wall and CPU time, the process's max RSS and the resolved worker count, so the
stock-scale numbers quoted in README.md come from this script.

Usage:
    python scripts/run_stock_sweep.py [--out OUT_DIR] [--seed N] [--frames M] [--workers W]
"""

import argparse
import os
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

from photonmem.config import ExperimentConfig
from photonmem.pipeline import emit_figure_data, run_sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("out/stock_sweep"))
    ap.add_argument("--seed", type=int, default=20140523)
    ap.add_argument("--frames", type=int, default=None)
    ap.add_argument(
        "--workers",
        type=int,
        default=ExperimentConfig.n_workers,
        help="threads per frame-matrix pass (default: the config's, 0 = one per usable core)",
    )
    args = ap.parse_args()

    cfg = ExperimentConfig(master_seed=args.seed, n_workers=args.workers)
    if args.frames:
        cfg = replace(cfg, frames_per_condition=args.frames)

    workers = cfg.n_workers
    if workers == 0:  # one per usable core, as the frame-matrix passes resolve it
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    start, cpu = time.perf_counter(), time.process_time()
    report = run_sweep(cfg)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    # ru_maxrss is in KiB on Linux
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"sweep: {wall:.1f} s wall, {cpu:.1f} s CPU, {rss_mb:.0f} MB max RSS, {workers} worker(s)")
    for c in report.conditions:
        if c.error:
            print(f"  storage {c.storage_time_ns:5.0f} ns: FAILED ({c.error})")
            continue
        shifted = c.shifted_error or f"{c.shifted_purity:.4f}"
        print(
            f"  storage {c.storage_time_ns:5.0f} ns: "
            f"purity {c.tomography.purity:.4f} +- {c.tomography.purity_err:.4f}  "
            f"shifted {shifted}  W(0,0) = {c.tomography.wigner_origin:+.4f}"
        )
    if report.decay_raw:
        print(f"raw decay fit:     P0 = {report.decay_raw.p0:.4f}, tau = {report.decay_raw.tau_us:.3f} us")
    if report.decay_shifted:
        print(f"shifted decay fit: P0 = {report.decay_shifted.p0:.4f}, tau = {report.decay_shifted.tau_us:.3f} us")

    files = emit_figure_data(report, args.out)
    print(f"wrote {len(files)} files under {args.out}")
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
