#!/usr/bin/env python3
"""Time the layers of `satrelay run` on the three reference presets.

For each preset, prints one JSON line with the median wall time, in ms,
of the analytic column alone, the Monte Carlo curves alone, the whole
`cli.run`, and `emit_csv` plus `emit_svg` of its rows.  Each round times
the four in that order, in this process, on the preset at the given
--trials and --workers.
"""

import argparse
import json
import pathlib
import statistics
import sys
import tempfile
import time

from satrelay import cli


def _ms(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1e3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=cli.DEFAULT_SEED)
    parser.add_argument("--rounds", type=int, default=21)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        for preset in cli.PRESETS:
            table = {"preset": preset, "trials": str(args.trials), "seed": str(args.seed)}
            spec, _ = cli._spec_from_table(table)
            points = list(cli._row_points(spec))
            csv, svg = str(pathlib.Path(tmp, "t.csv")), str(pathlib.Path(tmp, "t.svg"))
            times = {"analytic_ms": [], "mc_ms": [], "run_ms": [], "emit_ms": []}
            for _ in range(args.rounds):
                times["analytic_ms"].append(_ms(lambda: cli._analytic_rows(spec, points)))
                times["mc_ms"].append(_ms(lambda: cli._mc_column(spec, points, args.workers)))
                rows = []
                times["run_ms"].append(_ms(lambda: rows.extend(cli.run(spec, args.workers))))
                times["emit_ms"].append(
                    _ms(lambda: (cli.emit_csv(rows, csv), cli.emit_svg(rows, svg)))
                )
            record = {
                "preset": preset, "rows": len(points), "trials": args.trials,
                "workers": args.workers, "rounds": args.rounds,
            }
            record.update((k, round(statistics.median(v), 2)) for k, v in times.items())
            print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
