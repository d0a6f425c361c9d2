#!/usr/bin/env python3
"""Time the layers of `satrelay run` on the three reference presets.

For each preset, prints one JSON line with the median wall time, in ms,
of the analytic column alone, the Monte Carlo curves alone, the whole
`cli.run`, and `emit_csv` plus `emit_svg` of its rows.  Each round times
the four in that order, in this process, on the preset at the given
--trials and --workers.  After those rounds, `cold_ms` is the median over
--rounds fresh interpreters of importing `satrelay.cli` plus
`run --preset P --no-mc` through `cli.main`, timed the way the
benchmark's set-up probe times its first row.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

from satrelay import cli

# Run in a fresh interpreter: argv is the package's parent directory, then
# the `cli.main` arguments.  Prints the seconds taken, or -1 on failure.
COLD_PROBE = """
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from satrelay import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[2:])
print(time.perf_counter() - t0 if rc == 0 else -1.0)
"""


def _ms(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1e3


def _cold_ms(argv: list[str]) -> float:
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", COLD_PROBE, src, *argv],
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds = float(proc.stdout.strip().splitlines()[-1])
    if seconds < 0.0:
        raise RuntimeError(f"cold-start probe failed: {proc.stderr.strip()}")
    return seconds * 1e3


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
            plan = cli._plan(spec)
            csv, svg = str(pathlib.Path(tmp, "t.csv")), str(pathlib.Path(tmp, "t.svg"))
            times = {"analytic_ms": [], "mc_ms": [], "run_ms": [], "emit_ms": []}
            for _ in range(args.rounds):
                times["analytic_ms"].append(_ms(lambda: cli._analytic_rows(spec, plan)))
                times["mc_ms"].append(_ms(lambda: cli._mc_column(spec, plan, args.workers)))
                rows = []
                times["run_ms"].append(_ms(lambda: rows.extend(cli.run(spec, args.workers))))
                times["emit_ms"].append(
                    _ms(lambda: (cli.emit_csv(rows, csv), cli.emit_svg(rows, svg)))
                )
            cold_argv = ["run", "--preset", preset, "--no-mc", "--csv", csv, "--svg", svg]
            times["cold_ms"] = [_cold_ms(cold_argv) for _ in range(args.rounds)]
            record = {
                "preset": preset, "rows": len(plan.points), "trials": args.trials,
                "workers": args.workers, "rounds": args.rounds,
            }
            record.update((k, round(statistics.median(v), 2)) for k, v in times.items())
            print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
