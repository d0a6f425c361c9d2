#!/usr/bin/env python3
"""Staircase refinement study: how the outage values move as the step count
M and truncation depth L grow, per scheme and grid point.

The reference configuration (M = 50, L = 15 gamma) carries an intrinsic
approximation error that varies strongly across the grid (rectangles
overshoot the hyperbola near the corner; the fixed depth truncates tail
mass at high SNR).  This table quantifies both effects so a user can pick
M and L for a target accuracy.
"""

import argparse
import sys

from satrelay import outage
from satrelay.channel import CONDITIONS, LinkSNR
from satrelay.outage import HopPair, StaircaseConfig, Threshold

LADDER = [(50, 15.0), (200, 30.0), (800, 45.0), (3200, 60.0)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--condition", choices=sorted(CONDITIONS), default="HH")
    parser.add_argument("--scheme", choices=("SS", "SC", "MRC"), default="MRC")
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--snr-db", type=float, nargs="*", default=[0.0, 5.0, 10.0, 15.0, 20.0])
    args = parser.parse_args()

    ns, sg = CONDITIONS[args.condition]
    thr = Threshold(gamma_th=1.0)
    header = "snr_db  " + "  ".join(f"M={m:<5d}L={l:<4.0f}" for m, l in LADDER)
    print(f"{args.scheme} under {args.condition}, K={args.k}")
    print(header)
    for db in args.snr_db:
        link = LinkSNR.from_db(db)
        # SS is selection combining over one satellite.
        hops = [HopPair(ns=(ns, link), sg=(sg, link))] * (1 if args.scheme == "SS" else args.k)
        op = outage.op_mrc if args.scheme == "MRC" else outage.op_sc
        row = [op(hops, thr, StaircaseConfig(steps_m=m, depth_l=l)) for m, l in LADDER]
        drift = " ".join(f"{v:.6e}" for v in row)
        rel = abs(row[0] - row[-1]) / row[-1] if row[-1] else 0.0
        print(f"{db:6.1f}  {drift}   (M=50 vs finest: {rel:.2%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
