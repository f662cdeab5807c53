#!/usr/bin/env python3
"""Run the stock storage-time sweep at full acquisition scale.

Reproduces the headline numbers of the demonstration this package models:
four storage times (0/100/200/300 ns on top of the 150 ns intrinsic delay),
4.3e4 homodyne frames per condition, 8-bit ADC, and both memory-lifetime
fits (raw modes vs clip/shift/renormalize reanalysis) with their error bars.
Prints the sweep's wall and CPU time, the process's max RSS and the
synthesis thread count, and per storage time the purity and W(0,0) in units
of its bootstrap error.  Synthesis runs one thread per core of the CPU
affinity, so ``taskset -c 0`` runs it on one thread.  ``--json FILE`` also
writes those run numbers with the host's core count and library versions,
so the stock-scale numbers quoted in README.md, and the committed
``BENCH_*.json`` files, come from this script.

Usage:
    python scripts/run_stock_sweep.py [--out OUT_DIR] [--seed N] [--frames M]
                                      [--json FILE]
"""

import argparse
import json
import platform
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from photonmem.config import ExperimentConfig
from photonmem.pipeline import condition_lines, decay_lines, emit_figure_data, run_sweep
from photonmem.synth import usable_cores


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", type=Path, default=Path("out/stock_sweep"))
    ap.add_argument("--seed", type=int, default=20140523)
    ap.add_argument("--frames", type=int, default=None)
    ap.add_argument("--json", type=Path, default=None, help="also write the run numbers to this file")
    args = ap.parse_args()

    cfg = ExperimentConfig(master_seed=args.seed)
    if args.frames:
        cfg = replace(cfg, frames_per_condition=args.frames)

    threads = usable_cores()
    start, cpu = time.perf_counter(), time.process_time()
    report = run_sweep(cfg)
    files = emit_figure_data(report, args.out)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    # ru_maxrss is in KiB on Linux
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"sweep + emit: {wall:.1f} s wall, {cpu:.1f} s CPU, {rss_mb:.0f} MB max RSS, "
        f"{threads} synthesis thread(s)"
    )
    print("\n".join(condition_lines(report) + decay_lines(report)))
    print(f"wrote {len(files)} files under {args.out}")

    if args.json:
        record = {
            "command": " ".join(["python", *sys.argv]),
            "frames_per_condition": cfg.frames_per_condition,
            "conditions": len(report.conditions),
            "master_seed": cfg.master_seed,
            "wall_s": round(wall, 3),
            "cpu_s": round(cpu, 3),
            "max_rss_mb": round(rss_mb, 1),
            "nproc": threads,
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
        scipy = sys.modules.get("scipy")
        if scipy is not None:  # photonmem imports none; name it if something did
            record["scipy"] = scipy.__version__
        args.json.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
