#!/usr/bin/env python3
"""Run the three reference presets end to end and drop CSV + SVG into
results/ (analytic, asymptotic, and Monte Carlo columns)."""

import argparse
import pathlib
import sys

from satrelay import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="output directory")
    parser.add_argument("--trials", type=int, default=cli.DEFAULT_TRIALS)
    parser.add_argument("--seed", type=int, default=cli.DEFAULT_SEED)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for preset in cli.PRESETS:
        rc = cli.main(
            [
                "run",
                "--preset", preset,
                "--trials", str(args.trials),
                "--seed", str(args.seed),
                "--workers", str(args.workers),
                "--csv", str(outdir / f"{preset}.csv"),
                "--svg", str(outdir / f"{preset}.svg"),
            ]
        )
        if rc != 0:
            return rc
    print(f"all presets written to {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
