#!/usr/bin/env python3
"""Measure how mode mismatch in the analysis degrades the recovered purity.

Synthesizes one condition, then re-extracts quadratures with deliberately
rotated analysis modes; the recovered single-photon weight should follow
p * |(psi0, psi)|^2.  Prints a small table and the worst deviation.

Usage:
    python scripts/mode_mismatch_study.py [--frames M] [--seed N]
"""

import argparse
import sys

from photonmem.gate import mode_mismatch_purities


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--frames", type=int, default=30000)
    ap.add_argument("--seed", type=int, default=99)
    ap.add_argument("--purity", type=float, default=0.582)
    args = ap.parse_args()

    overlaps = (1.0, 0.95, 0.9, 0.75, 0.5, 0.25)
    purities = mode_mismatch_purities(args.purity, args.frames, args.seed, overlaps)
    worst = 0.0
    print("overlap^2   recovered c1   p * overlap^2")
    for ov, c1 in zip(overlaps, purities):
        target = args.purity * ov
        worst = max(worst, abs(c1 - target))
        print(f"  {ov:5.2f}       {c1:.4f}         {target:.4f}")
    print(f"worst |deviation| = {worst:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
