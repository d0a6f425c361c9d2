#!/usr/bin/env python3
"""satrelay benchmark: run one workload through `satrelay run` for a fixed
time, check every output row, and print the metrics as one JSON line.

    python3 perfbench/run.py --workload figures-analytic --seed 1 --seconds 30 --trace 0

With --trace 0 it prints the end-to-end metrics; with --trace 1 it wraps the
package's layer functions (tracing.py) and prints the per-layer metrics.
Run it from the root of a source checkout: it imports `satrelay` from
`src/` there and writes its outputs under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 7
TRACE_SPANS_KEPT = 20_000

# Times the import of satrelay plus one row, in a fresh interpreter.
PROBE = """
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from satrelay import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[2:])
print(time.perf_counter() - t0 if rc == 0 else -1.0)
"""


def _table_argv(table, out: Path) -> list[str]:
    argv = list(table.argv)
    if table.config is not None:
        cfg = out / f"{table.name}.cfg"
        cfg.write_text(table.config, encoding="utf-8")
        argv += ["--config", str(cfg)]
    return argv + ["--csv", str(out / f"{table.name}.csv"), "--svg", str(out / f"{table.name}.svg")]


def setup_seconds(first_row, out: Path) -> float:
    """Median over fresh interpreters of importing satrelay plus the first row."""
    argv = _table_argv(first_row, out)
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC), *argv],
            capture_output=True, text=True, timeout=120, check=True,
        )
        value = float(proc.stdout.strip().splitlines()[-1])
        if value < 0.0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(value)
    return statistics.median(times)


def identity_check(cli, config: str, out: Path) -> bool:
    """A small Monte Carlo table gives the same CSV bytes at 1 and 2 workers."""
    cfg = out / "identity.cfg"
    cfg.write_text(config, encoding="utf-8")
    blobs = []
    for workers in ("1", "2"):
        csv_path = out / f"identity-w{workers}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["run", "--config", str(cfg), "--workers", workers, "--csv", str(csv_path)])
        blobs.append(csv_path.read_bytes() if rc == 0 else None)
    return blobs[0] is not None and blobs[0] == blobs[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "satrelay" / "__init__.py").is_file():
        print(f"no satrelay sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import satrelay
    from satrelay import cli

    import checks
    import workloads

    if Path(satrelay.__file__).resolve().parent != SRC / "satrelay":
        print(f"imported satrelay from {satrelay.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out = HERE / "out" / workload.name
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)

    setup_s = setup_seconds(workloads.first_row(workload), out)
    argvs = {t.name: _table_argv(t, out) for t in workload.tables}

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(satrelay)
    sweeps = []  # per sweep: [(table, return code, rows, file problems)]
    table_times = []  # per sweep: {table name: seconds}
    started = time.perf_counter()
    try:
        while not sweeps or time.perf_counter() - started < args.seconds:
            order = workload.order(rng)
            results, times = [], {}
            with contextlib.redirect_stdout(io.StringIO()):
                for table in order:
                    t0 = time.perf_counter()
                    results.append((table, cli.main(argvs[table.name])))
                    times[table.name] = time.perf_counter() - t0
            table_times.append(times)
            # Reading the files back is not timed.
            done = []
            for table, rc in results:
                rows, problems = ([], []) if rc else checks.read_table(
                    out / f"{table.name}.csv", out / f"{table.name}.svg", table.points
                )
                done.append((table, rc, rows, problems))
            sweeps.append(done)
            if tracer is not None and len(sweeps) == 1:
                first_sweep_spans = min(len(tracer.spans), TRACE_SPANS_KEPT)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    faults = []
    errors = {"SS": 0.0, "SC": 0.0, "MRC": 0.0}
    for done in sweeps:
        tables = []
        for table, rc, rows, problems in done:
            attempted += len(table.points)
            if rc:
                failed += len(table.points)
                continue
            faults += problems
            tables.append((rows, table.envelope))
        sweep_faults, sweep_errors = checks.check_sweep(tables, workload.mc_trials)
        faults += sweep_faults
        for scheme, error in sweep_errors.items():
            errors[scheme] = max(errors[scheme], error)
    if workload.mc_trials:
        attempted += 1
        if not identity_check(cli, workloads.identity_config(rng), out):
            faults.append("workers = 1 and workers = 2 CSVs differ")
    for fault in faults[:20]:
        print(f"FAIL {fault}", file=sys.stderr)

    # A sweep of median table times: each table's median over the sweeps,
    # so a burst of machine noise inside one sweep does not move the rate.
    rows_per_sweep = sum(len(t.points) for t in workload.tables)
    median_sweep_s = sum(statistics.median(times[t.name] for times in table_times) for t in workload.tables)
    rows_per_s = rows_per_sweep / median_sweep_s
    by_sweep = " ".join(f"{rows_per_sweep / sum(times.values()):.4g}" for times in table_times)
    print(f"rows/s by sweep: {by_sweep}", file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "rows_per_s": (rows_per_s, "rows/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "op_err_ss": (errors["SS"], "relative"),
            "op_err_sc": (errors["SC"], "relative"),
            "op_err_mrc": (errors["MRC"], "relative"),
        }
    else:
        tracer.write(out / f"trace-seed{args.seed}.jsonl", first_sweep_spans)
        print(f"traced rows_per_s {rows_per_s:.2f} over {len(sweeps)} sweeps", file=sys.stderr)
        for pair, n in tracer.nesting().items():
            print(f"span {pair}: {n}", file=sys.stderr)
        units = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
        values = tracer.layer_metrics(len(sweeps))
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in units}
    print(
        json.dumps(
            {
                "correct": not faults,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
