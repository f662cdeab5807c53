#!/usr/bin/env python3
"""Scan the closed-shutter detuning against pre-leakage and storage lifetime.

The closed shutter is modeled as a detuned shutter cavity, so the detuning
sets how much of the stored photon leaks out before the release.  This scan
shows the trade-off that fixes the package default (~3% pre-leak over a
450 ns hold, lifetime ~1.6 us) and writes a CSV for plotting.

Usage:
    python scripts/shutter_detuning_scan.py [--out detuning_scan.csv]
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from photonmem import CavityParams, ShutterSchedule, simulate_release, storage_lifetime


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("detuning_scan.csv"))
    ap.add_argument("--release", type=float, default=450.0, help="hold time probed (ns)")
    args = ap.parse_args()

    params = CavityParams()
    rows = []
    for delta in np.geomspace(2e8, 2e10, 25):
        sched = ShutterSchedule(t_release_ns=args.release, delta_closed_rad_s=float(delta))
        res = simulate_release(params, sched)
        tau_ns = storage_lifetime(params, sched)
        rows.append(
            {
                "delta_rad_s": f"{delta:.6g}",
                "preleak_fraction": f"{res.metrics['preleak_fraction']:.6g}",
                "emitted_fraction": f"{res.metrics['emitted_fraction']:.6g}",
                "fwhm_ns": f"{res.metrics['fwhm_ns']:.6g}",
                "lifetime_us": f"{tau_ns / 1000.0:.6g}",
            }
        )
        print(
            f"delta = {delta:9.3e} rad/s   preleak = {float(rows[-1]['preleak_fraction']):.4f}   "
            f"lifetime = {float(rows[-1]['lifetime_us']):.3f} us"
        )

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
