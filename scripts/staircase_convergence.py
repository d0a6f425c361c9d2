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

from satrelay import cli
from satrelay.channel import CONDITIONS

LADDER = [(50, 15.0), (200, 30.0), (800, 45.0), (3200, 60.0)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--condition", choices=sorted(CONDITIONS), default="HH")
    parser.add_argument("--scheme", choices=("SS", "SC", "MRC"), default="MRC")
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--snr-db", type=float, nargs="+", default=[0.0, 5.0, 10.0, 15.0, 20.0])
    args = parser.parse_args()

    # One run table without Monte Carlo per (M, L) rung, rows in --snr-db order.
    table = {
        "schemes": args.scheme, "conditions": args.condition, "k_values": str(args.k),
        "snr_db": ", ".join(map(repr, args.snr_db)), "gamma_th": "1.0", "mc": "false",
    }
    columns = []
    for m, l in LADDER:
        spec, _ = cli._spec_from_table({**table, "steps_m": str(m), "depth_l": repr(l)})
        columns.append([row.op_analytic for row in cli.run(spec)])
    print(f"{args.scheme} under {args.condition}, K={args.k}")
    print("snr_db  " + "  ".join(f"M={m:<5d}L={l:<4.0f}" for m, l in LADDER))
    for db, row in zip(args.snr_db, zip(*columns)):
        drift = " ".join(f"{v:.6e}" for v in row)
        rel = abs(row[0] - row[-1]) / row[-1] if row[-1] else 0.0
        print(f"{db:6.1f}  {drift}   (M=50 vs finest: {rel:.2%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
