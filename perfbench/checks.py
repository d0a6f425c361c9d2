"""Checks on the tables `satrelay run` writes, against computations made
apart from the program (reference.py) and properties the method must have."""

from __future__ import annotations

import csv
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass

CSV_HEADER = [
    "scheme", "condition", "K", "snr_db", "op_analytic", "op_asymptotic",
    "op_mc", "mc_ci_low", "mc_ci_high", "mc_trials", "low_confidence",
]
FAMILY_LEVEL = 0.99  # Monte Carlo intervals cover every row of a sweep at once
ASYMPTOTE_RTOL = 1e-11


@dataclass(frozen=True)
class Row:
    point: tuple[str, str, int, float]
    op: float
    asymptote: float | None
    mc: tuple[float, int] | None  # (p_hat, trials)


def read_table(csv_path, svg_path, points) -> tuple[list[Row], list[str]]:
    """Parse one run's CSV; report what is wrong with the files as a whole."""
    problems = []
    with open(csv_path, encoding="utf-8", newline="") as fh:
        lines = list(csv.reader(fh))
    if not lines or lines[0] != CSV_HEADER:
        problems.append(f"{csv_path}: header {lines[:1]}")
    rows = [
        Row(
            (r[0], r[1], int(r[2]), float(r[3])),
            float(r[4]),
            float(r[5]) if r[5] else None,
            (float(r[6]), int(r[9])) if r[6] else None,
        )
        for r in lines[1:]
    ]
    if [r.point for r in rows] != list(points):
        problems.append(f"{csv_path}: {len(rows)} rows, not the {len(points)} expected in order")
    try:
        root = ET.parse(svg_path).getroot()
        if root.tag != "{http://www.w3.org/2000/svg}svg" or root.find("{*}polyline") is None:
            problems.append(f"{svg_path}: not an SVG chart")
    except (ET.ParseError, OSError) as exc:
        problems.append(f"{svg_path}: {exc}")
    return rows, problems


def exact_interval(hits: int, trials: int, level: float) -> tuple[float, float]:
    """Clopper-Pearson interval: covers at least `level` for every p, also
    where a Wilson interval does not (expected hits well below 1)."""
    from scipy.stats import beta

    tail = (1.0 - level) / 2.0
    lo = beta.ppf(tail, hits, trials - hits + 1) if hits > 0 else 0.0
    hi = beta.ppf(1.0 - tail, hits + 1, trials - hits) if hits < trials else 1.0
    return float(lo), float(hi)


def check_sweep(tables: list[tuple[list[Row], dict[str, float]]], mc_trials: int | None):
    """The faults in the rows of one sweep's tables, each given with its
    error envelope, and the largest relative error of op_analytic per scheme."""
    # Imported here, after the timed loop, so scipy stays out of peak_rss_mb.
    import reference

    faults, errors = [], {}
    mc_level = 1.0 - (1.0 - FAMILY_LEVEL) / max(1, sum(len(rows) for rows, _ in tables))
    for rows, envelope in tables:
        by_point = {row.point: row for row in rows}
        for row in rows:
            scheme, cond, k, db = row.point
            found = []
            exact = reference.outage(*row.point)
            error = abs(row.op - exact) / exact
            errors[scheme] = max(errors.get(scheme, 0.0), error)
            if not (math.isfinite(row.op) and 0.0 <= row.op <= 1.0):
                found.append(f"op_analytic {row.op} outside [0, 1]")
            elif error > envelope[scheme]:
                found.append(f"op_analytic {row.op:.6e} vs exact {exact:.6e}")
            asym = reference.asymptote(*row.point)
            if (asym is None) != (row.asymptote is None) or (
                asym is not None and not abs(row.asymptote - asym) <= ASYMPTOTE_RTOL * asym
            ):
                found.append(f"op_asymptotic {row.asymptote} vs closed form {asym}")
            if (row.mc is None) != (mc_trials is None):
                found.append("Monte Carlo columns present where not asked for, or missing")
            elif row.mc is not None:
                p_hat, trials = row.mc
                hits = round(p_hat * trials)
                lo, hi = exact_interval(hits, trials, mc_level)
                if trials != mc_trials or hits / trials != p_hat:
                    found.append(f"Monte Carlo p_hat {p_hat} is not hits/{mc_trials}")
                elif not lo <= exact <= hi:
                    found.append(f"exact {exact:.6e} outside family-wise interval [{lo:.6e}, {hi:.6e}]")
            # op_mrc < op_sc <= op_ss wherever the table holds the schemes side by side.
            sc, ss = by_point.get(("SC", cond, k, db)), by_point.get(("SS", cond, k, db))
            if scheme == "MRC" and sc is not None and not row.op < sc.op:
                found.append(f"op_mrc {row.op} not below op_sc {sc.op}")
            if scheme == "SC" and ss is not None and not row.op <= ss.op:
                found.append(f"op_sc {row.op} above op_ss {ss.op}")
            faults += [f"{row.point}: {msg}" for msg in found]
    return faults, errors
