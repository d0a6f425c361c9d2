"""Experiment runner: reproduces the reference figure sweeps and custom
grids, emitting CSV tables and SVG log-scale charts.

Subcommands:
  run        compute outage tables for a preset or a custom config
  linkbudget print the feasible received-SNR range for the reference uplink
  validate   run the built-in oracle cross-check suite
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import linkbudget, mcsim, outage
from .channel import CONDITIONS, LinkSNR
from .mcsim import MCConfig, OutageEstimate
from .outage import HopPair, StaircaseConfig, Threshold

__all__ = ["ExperimentSpec", "RunRow", "run", "emit_csv", "emit_svg", "main"]

SCHEMES = ("SS", "SC", "MRC")

CSV_HEADER = (
    "scheme,condition,K,snr_db,op_analytic,op_asymptotic,"
    "op_mc,mc_ci_low,mc_ci_high,mc_trials,low_confidence"
)

DEFAULT_TRIALS = 1_000_000
DEFAULT_SEED = 20240915

# The paper's three figure sets as run tables: `run --preset figN` is a
# config holding `preset = figN` over exactly these keys.
PRESETS: dict[str, dict[str, str]] = {
    "fig1": {
        "schemes": "SS, SC, MRC",
        "conditions": "HH, HA",
        "k_values": "5",
        "snr_db": "0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20",
    },
    "fig2": {
        "schemes": "SS, SC, MRC",
        "conditions": "AH, AA",
        "k_values": "5",
        "snr_db": "-6, -4.5, -3, -1.5, 0, 1.5, 3, 4.5, 6, 7.5, 9",
    },
    "fig3": {
        "schemes": "SC, MRC",
        "conditions": "HH, HA, AH, AA",
        "k_values": "2, 3, 4, 5, 6",
        "snr_db_hh": "13.5",
        "snr_db_ha": "13.5",
        "snr_db_ah": "7.5",
        "snr_db_aa": "7.5",
    },
}

# Every key a run table may hold; any other key is an error.
CONFIG_KEYS = (
    "preset", "schemes", "conditions", "k_values", "snr_db",
    *(f"snr_db_{c.lower()}" for c in CONDITIONS),
    "rate_r", "gamma_th", "steps_m", "depth_l",
    "mc", "trials", "seed", "ci_level", "csv", "svg", "workers",
)

_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: grids, schemes, approximation knobs, outputs."""

    schemes: tuple[str, ...]
    conditions: tuple[str, ...]
    k_values: tuple[int, ...]
    snr_db: dict[str, tuple[float, ...]]  # transmit SNR grid per condition
    staircase: StaircaseConfig
    threshold: Threshold
    mc: MCConfig | None
    csv_path: str
    svg_path: str | None = None

    def __post_init__(self) -> None:
        if not self.schemes:
            raise ValueError("schemes must be nonempty")
        if not self.conditions:
            raise ValueError("conditions must be nonempty")
        if not self.k_values or any(k < 1 for k in self.k_values):
            raise ValueError("k_values must be nonempty positive integers")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r} (expected SS, SC, MRC)")
        for c in self.conditions:
            if c not in CONDITIONS:
                raise ValueError(f"unknown condition {c!r} (expected HH, HA, AH, AA)")
            if not self.snr_db.get(c):
                raise ValueError(f"no SNR grid for condition {c}")
            for db in self.snr_db[c]:
                try:
                    LinkSNR.from_db(db)
                except ValueError as exc:
                    raise ValueError(f"snr_db of condition {c}: {exc}") from None


@dataclass(frozen=True)
class RunRow:
    scheme: str
    condition: str
    k: int
    snr_db: float
    op_analytic: float
    op_asymptotic: float | None
    mc: OutageEstimate | None


def _row_seed(base_seed: int, row_index: int) -> int:
    seq = np.random.SeedSequence(
        entropy=base_seed & 0xFFFFFFFFFFFFFFFF, spawn_key=(row_index,)
    )
    return int(seq.generate_state(1, np.uint64)[0])


def _row_points(spec: ExperimentSpec):
    for scheme in spec.schemes:
        for cond in spec.conditions:
            for k in spec.k_values:
                for db in spec.snr_db[cond]:
                    yield scheme, cond, k, float(db)


def _compute_curve(
    spec: ExperimentSpec, points, first_index: int, sim_workers: int
) -> list[RunRow]:
    """The rows of one (scheme, condition) curve; their Monte Carlo
    columns come from one draw set seeded by the curve's first row index.

    SS is selection combining over one satellite: an SS row runs the SC
    analytic and Monte Carlo paths on a one-hop list, keeps the table's K
    and has no asymptote.
    """
    scheme, cond, *_ = points[0]
    ns_params, sg_params = CONDITIONS[cond]
    thr, stair = spec.threshold, spec.staircase
    curve, rows = [], []
    for *_, k, db in points:
        link = LinkSNR.from_db(db)
        satellites = 1 if scheme == "SS" else k
        hops = [HopPair(ns=(ns_params, link), sg=(sg_params, link))] * satellites
        if scheme == "MRC":
            analytic = outage.op_mrc(hops, thr, stair)
            asymptotic = outage.asymp_op_mrc(hops, thr)
        else:
            analytic = outage.op_sc(hops, thr, stair)
            asymptotic = outage.asymp_op_sc(hops, thr) if scheme == "SC" else None
        curve.append(hops)
        rows.append(RunRow(scheme, cond, k, db, analytic, asymptotic, None))

    if spec.mc is None:
        return rows
    cfg = replace(spec.mc, seed=_row_seed(spec.mc.seed, first_index))
    # Looked up at call time, so a replaced module attribute is the one called.
    simulate = mcsim.simulate_mrc_curve if scheme == "MRC" else mcsim.simulate_sc_curve
    ests = simulate(curve, thr, cfg, workers=sim_workers)
    return [replace(row, mc=est) for row, est in zip(rows, ests)]


def run(spec: ExperimentSpec, workers: int = 1) -> list[RunRow]:
    """Compute all grid rows, returned in spec order.

    Rows are keyed (scheme, condition, K, snr_db).  Rows that share
    (scheme, condition) form one curve over K and SNR, the unit of work
    (fig3 has one per scheme and condition, spanning K = 2..6): its Monte
    Carlo columns come from one draw set whose seed derives from
    (spec.mc.seed, index of the curve's first row), so results do not
    depend on the worker count.  Each row keeps its own K for its analytic
    and asymptotic columns.  Curves are spread over `workers` threads; a
    table with fewer curves than workers gives each curve's simulator
    workers // curves Monte Carlo block threads.
    """
    points = list(_row_points(spec))
    curves: dict[tuple[str, str], list[int]] = {}
    for i, (scheme, cond, *_) in enumerate(points):
        curves.setdefault((scheme, cond), []).append(i)
    sim_workers = max(1, workers // len(curves))

    def one(index: list[int]) -> list[RunRow]:
        return _compute_curve(spec, [points[i] for i in index], index[0], sim_workers)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(one, curves.values()))
    else:
        done = [one(index) for index in curves.values()]
    placed = {
        i: row
        for index, curve_rows in zip(curves.values(), done)
        for i, row in zip(index, curve_rows)
    }
    return [placed[i] for i in range(len(points))]


def _fmt(value: float | None) -> str:
    return "" if value is None else format(value, ".17e")


def emit_csv(rows: list[RunRow], path: str) -> None:
    """Write the run table; full-precision scientific floats, LF endings."""
    lines = [CSV_HEADER]
    for r in rows:
        if r.mc is None:
            mc_cols = ["", "", "", "", ""]
        else:
            mc_cols = [
                _fmt(r.mc.p_hat),
                _fmt(r.mc.ci_low),
                _fmt(r.mc.ci_high),
                str(r.mc.trials),
                "1" if r.mc.low_confidence else "0",
            ]
        lines.append(
            ",".join(
                [
                    r.scheme,
                    r.condition,
                    str(r.k),
                    _fmt(r.snr_db),
                    _fmt(r.op_analytic),
                    _fmt(r.op_asymptotic),
                    *mc_cols,
                ]
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# SVG chart
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H = 880, 540
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 230, 40, 60
_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e",
    "#9467bd", "#8c564b", "#17becf", "#7f7f7f",
)
_KIND_DASH = {"analytic": "", "asymptotic": "7,4", "mc": "2,3"}


def _series_from_rows(rows: list[RunRow], x_axis: str):
    """Group rows into ((scheme, condition, kind) -> [(x, op)]) series."""
    series: dict[tuple[str, str, str], list[tuple[float, float]]] = {}

    def push(key, x, op):
        if op is not None and op > 0.0 and math.isfinite(op):
            series.setdefault(key, []).append((x, op))

    for r in rows:
        x = float(r.k) if x_axis == "K" else r.snr_db
        push((r.scheme, r.condition, "analytic"), x, r.op_analytic)
        push((r.scheme, r.condition, "asymptotic"), x, r.op_asymptotic)
        if r.mc is not None:
            push((r.scheme, r.condition, "mc"), x, r.mc.p_hat)
    return {k: sorted(v) for k, v in series.items()}


def emit_svg(rows: list[RunRow], path: str) -> None:
    """Standalone log-y chart: one polyline per (scheme, condition, kind).

    The x axis is the satellite count when the table sweeps K more than
    SNR, otherwise transmit SNR in dB.  Points with zero probability are
    skipped (off the log scale).
    """
    if not rows:
        raise ValueError("cannot plot an empty table")
    n_k = len({r.k for r in rows})
    n_db = len({r.snr_db for r in rows})
    x_axis = "K" if n_k > n_db else "snr_db"
    series = _series_from_rows(rows, x_axis)
    if not series:
        raise ValueError("no positive outage values to plot")

    xs = [x for pts in series.values() for x, _ in pts]
    ops = [op for pts in series.values() for _, op in pts]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_lo = math.floor(math.log10(min(ops)))
    y_hi = math.ceil(math.log10(max(ops)))
    if y_hi == y_lo:
        y_hi += 1
    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return round(_MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w, 2)

    def sy(op: float) -> float:
        # Log scale: smaller outage sits lower on the chart.
        frac = (y_hi - math.log10(op)) / (y_hi - y_lo)
        return round(_MARGIN_T + frac * plot_h, 2)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
    ]
    # Axes and decade gridlines.
    x0, y0 = _MARGIN_L, _MARGIN_T + plot_h
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black"/>')
    out.append(f'<line x1="{x0}" y1="{_MARGIN_T}" x2="{x0}" y2="{y0}" stroke="black"/>')
    for dec in range(y_lo, y_hi + 1):
        y = sy(10.0**dec)
        out.append(
            f'<line x1="{x0}" y1="{y}" x2="{x0 + plot_w}" y2="{y}" '
            f'stroke="#dddddd" stroke-width="0.7"/>'
        )
        out.append(
            f'<text x="{x0 - 8}" y="{y + 4}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{dec}</text>'
        )
    x_ticks = sorted({x for x in xs}) if len(set(xs)) <= 13 else list(
        np.linspace(x_lo, x_hi, 6)
    )
    for xt in x_ticks:
        px = sx(xt)
        out.append(f'<line x1="{px}" y1="{y0}" x2="{px}" y2="{y0 + 5}" stroke="black"/>')
        label = f"{xt:g}"
        out.append(
            f'<text x="{px}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    x_label = "satellites in LoS (K)" if x_axis == "K" else "transmit SNR (dB)"
    out.append(
        f'<text x="{x0 + plot_w / 2}" y="{_SVG_H - 15}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>'
    )
    out.append(
        f'<text x="20" y="{_MARGIN_T + plot_h / 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20,{_MARGIN_T + plot_h / 2})">outage probability</text>'
    )

    group_color: dict[tuple[str, str], str] = {}
    legend_y = _MARGIN_T + 10
    for key, pts in series.items():
        scheme, cond, kind = key
        color = group_color.setdefault(
            (scheme, cond), _PALETTE[len(group_color) % len(_PALETTE)]
        )
        coords = " ".join(f"{sx(x)},{sy(op)}" for x, op in pts)
        dash = _KIND_DASH[kind]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.6"{dash_attr}/>'
        )
        for x, op in pts:
            px, py = sx(x), sy(op)
            if kind == "analytic":
                out.append(f'<circle cx="{px}" cy="{py}" r="3" fill="{color}"/>')
            elif kind == "mc":
                out.append(
                    f'<rect x="{round(px - 3, 2)}" y="{round(py - 3, 2)}" width="6" '
                    f'height="6" fill="none" stroke="{color}"/>'
                )
            else:
                out.append(
                    f'<path d="M {px} {round(py - 3.5, 2)} L {round(px - 3, 2)} '
                    f'{round(py + 2.5, 2)} L {round(px + 3, 2)} {round(py + 2.5, 2)} Z" '
                    f'fill="none" stroke="{color}"/>'
                )
        sx0 = _SVG_W - _MARGIN_R + 12
        out.append(
            f'<line x1="{sx0}" y1="{legend_y}" x2="{sx0 + 26}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="1.6"{dash_attr}/>'
        )
        out.append(
            f'<text x="{sx0 + 32}" y="{legend_y + 4}" font-family="sans-serif" '
            f'font-size="11">{scheme} {cond} {kind}</text>'
        )
        legend_y += 17
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# Config files: flat "key = value" lines, lists comma-separated.
# ---------------------------------------------------------------------------


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {ln}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key in out:
            raise ValueError(f"config key {key!r} is set twice, on lines {line_of[key]} and {ln}")
        out[key], line_of[key] = value.strip(), ln
    return out


def _split_list(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _spec_from_table(table: dict[str, str]) -> tuple[ExperimentSpec, int]:
    """The spec and worker count of a run table (config key -> text value).

    A table naming a preset lies over that preset's table, key by key.
    """
    unknown = [key for key in table if key not in CONFIG_KEYS]
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    preset = table.get("preset", "custom")
    if preset != "custom":
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r} (expected {', '.join(PRESETS)}, custom)")
        table = {**PRESETS[preset], **table}
    needed = [k for k in ("schemes", "conditions", "k_values") if k not in table]
    if needed:
        raise ValueError(f"custom run needs a --config defining {', '.join(needed)}")
    if "gamma_th" in table and "rate_r" in table:
        raise ValueError("give gamma_th or rate_r, not both")
    mc = table.get("mc", "true").lower()
    if mc not in _BOOLEANS:
        raise ValueError(f"mc must be one of {', '.join(_BOOLEANS)}, got {table['mc']!r}")
    workers = int(table.get("workers", 1))
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    thr = (
        Threshold(gamma_th=float(table["gamma_th"]))
        if "gamma_th" in table
        else Threshold.from_rate(float(table.get("rate_r", 0.5)))
    )
    stairs = StaircaseConfig.for_threshold(thr)
    conditions = tuple(c.upper() for c in _split_list(table["conditions"]))
    spec = ExperimentSpec(
        schemes=tuple(s.upper() for s in _split_list(table["schemes"])),
        conditions=conditions,
        k_values=tuple(int(k) for k in _split_list(table["k_values"])),
        snr_db={
            c: tuple(
                float(v)
                for v in _split_list(table.get(f"snr_db_{c.lower()}", table.get("snr_db", "")))
            )
            for c in conditions
        },
        staircase=StaircaseConfig(
            steps_m=int(table.get("steps_m", stairs.steps_m)),
            depth_l=float(table.get("depth_l", stairs.depth_l)),
        ),
        threshold=thr,
        mc=MCConfig(
            trials=int(table.get("trials", DEFAULT_TRIALS)),
            seed=int(table.get("seed", DEFAULT_SEED)),
            ci_level=float(table.get("ci_level", 0.99)),
        )
        if _BOOLEANS[mc]
        else None,
        csv_path=table.get("csv", f"{preset}.csv"),
        svg_path=table.get("svg"),
    )
    return spec, workers


def _cmd_run(args) -> int:
    table: dict[str, str] = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            table = parse_config_text(fh.read())
    # Each run flag stores into its own config key: flags > config > preset.
    table.update((k, str(v)) for k, v in vars(args).items() if k in CONFIG_KEYS and v is not None)
    spec, workers = _spec_from_table(table)
    rows = run(spec, workers=workers)
    emit_csv(rows, spec.csv_path)
    print(f"wrote {spec.csv_path} ({len(rows)} rows)")
    if spec.svg_path:
        emit_svg(rows, spec.svg_path)
        print(f"wrote {spec.svg_path}")
    return 0


def _cmd_linkbudget(args) -> int:
    grid = linkbudget.reference_grid(
        altitude_km=args.altitude_km,
        frequency_hz=args.frequency_hz,
        elevation_deg=args.elevation_deg,
        eirp_dbm=args.eirp_dbm,
        extra_losses_db=args.extra_losses_db,
    )
    lo, hi = linkbudget.feasible_range(grid)
    rng_km = linkbudget.slant_range_km(args.altitude_km, args.elevation_deg)
    print(f"slant_range_km={rng_km:.2f}")
    print(f"snr_db_min={lo:.2f}")
    print(f"snr_db_max={hi:.2f}")
    print(
        f"feasible SNR range: {lo:.1f} dB to {hi:.1f} dB "
        f"(G/T -25..-6 dB/K, bandwidth 3.75..180 kHz)"
    )
    return 0


def _cmd_validate(args) -> int:
    from .validate import run_checks

    failures = run_checks(verbose=True)
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satrelay",
        description="Outage analysis of LEO-satellite direct-access IoT uplinks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment grid")
    p_run.add_argument("--preset", choices=(*PRESETS, "custom"))
    p_run.add_argument("--config", help="flat key=value config file")
    p_run.add_argument("--seed", type=int, help="Monte Carlo base seed")
    p_run.add_argument("--trials", type=int, help="Monte Carlo trials per row")
    p_run.add_argument("--csv", help="output CSV path")
    p_run.add_argument("--svg", help="output SVG chart path")
    p_run.add_argument(
        "--no-mc", dest="mc", action="store_const", const="false", help="skip Monte Carlo columns"
    )
    p_run.add_argument("--workers", type=int, help="row worker pool size")
    p_run.set_defaults(func=_cmd_run)

    p_lb = sub.add_parser("linkbudget", help="feasible SNR range for the reference uplink")
    p_lb.add_argument("--altitude-km", type=float, default=800.0)
    p_lb.add_argument("--frequency-hz", type=float, default=950e6)
    p_lb.add_argument("--elevation-deg", type=float, default=30.0)
    p_lb.add_argument("--eirp-dbm", type=float, default=23.0)
    p_lb.add_argument("--extra-losses-db", type=float, default=3.0)
    p_lb.set_defaults(func=_cmd_linkbudget)

    p_val = sub.add_parser("validate", help="run the oracle cross-check suite")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # argparse errors exit(2) on their own
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
