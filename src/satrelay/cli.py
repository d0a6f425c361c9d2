"""Experiment runner: reproduces the reference figure sweeps and custom
grids, emitting CSV tables and SVG log-scale charts.

Subcommands:
  run        compute outage tables for a preset or a custom config
  linkbudget print the feasible received-SNR range for the reference uplink
  validate   run the built-in oracle cross-check suite
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import outage
from .channel import CONDITIONS, LinkSNR, _count
from .outage import HopPair, MCConfig, StaircaseConfig, Threshold

if TYPE_CHECKING:
    from .mcsim import OutageEstimate

# A table without Monte Carlo never imports `mcsim`, `linkbudget` or
# `json`: each is imported inside the function that uses it.

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
        if not self.k_values:
            raise ValueError("k_values must be nonempty")
        object.__setattr__(self, "k_values", tuple(_count(k, "k_values") for k in self.k_values))
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


class _Plan(NamedTuple):
    """A run table, compiled once by `_plan`."""

    points: list[tuple[str, str, int, float]]  # each row's (scheme, condition, K, snr_db)
    pairs: list[HopPair]  # one per distinct (condition, SNR)
    rows: list[tuple[int, ...]]  # each row's satellites, as indices into pairs
    # each Monte Carlo curve's (kind, hops, ks, factors, first row)
    curves: list[tuple[str, list[HopPair], list[int], list[float], int]]
    cells: list[tuple[int, int]]  # each row's (curve, cell); cells are K-major


def _plan(spec: ExperimentSpec) -> _Plan:
    """The spec's rows, in spec order, over one hop pair per (condition,
    SNR).  An SS row is selection combining over one satellite, whatever
    its K.  The rows of one (kernel, condition) form one Monte Carlo curve:
    the largest-K hop list at its lowest SNR, and its Ks and SNR factors
    eta / eta_lowest, ascending.  A repeated SNR or K shares its cell."""
    points = [
        (scheme, cond, k, float(db))
        for scheme in spec.schemes
        for cond in spec.conditions
        for k in spec.k_values
        for db in spec.snr_db[cond]
    ]
    pair_of = {key: i for i, key in enumerate(dict.fromkeys((c, db) for _, c, _, db in points))}
    links = [(CONDITIONS[cond], LinkSNR.from_db(db)) for cond, db in pair_of]
    pairs = [HopPair(ns=(ns, link), sg=(sg, link)) for (ns, sg), link in links]
    rows = [(pair_of[c, db],) * (1 if s == "SS" else k) for s, c, k, db in points]
    groups: dict[tuple[str, str], list[int]] = {}
    for i, (scheme, cond, *_) in enumerate(points):
        groups.setdefault(("MRC" if scheme == "MRC" else "SC", cond), []).append(i)
    curves, cells = [], [(0, 0)] * len(points)
    for c, ((kind, _), index) in enumerate(groups.items()):
        ks = sorted({len(rows[i]) for i in index})
        snrs = sorted({rows[i][0] for i in index}, key=lambda j: pairs[j].ns[1].eta)
        for i in index:
            cells[i] = c, ks.index(len(rows[i])) * len(snrs) + snrs.index(rows[i][0])
        etas = [pairs[j].ns[1].eta for j in snrs]
        factors = [eta / etas[0] for eta in etas]
        curves.append((kind, [pairs[snrs[0]]] * ks[-1], ks, factors, index[0]))
    return _Plan(points, pairs, rows, curves, cells)


def _analytic_rows(spec: ExperimentSpec, plan: _Plan) -> list[RunRow]:
    """Every row's analytic and asymptotic columns (SS has no asymptote).
    The SS and SC rows go to one `op_sc_rows` call and the MRC rows to one
    `op_mrc_rows` call, so each single-hop law and uplink axis of the table
    is read once; the SC asymptotes come from one `asymp_op_sc_rows` call
    and the MRC asymptotes row by row."""
    thr, stair, pairs = spec.threshold, spec.staircase, plan.pairs

    def rows_of(*schemes):
        return [row for row, point in zip(plan.rows, plan.points) if point[0] in schemes]

    sc = iter(outage.op_sc_rows(pairs, rows_of("SS", "SC"), thr, stair))
    mrc = iter(outage.op_mrc_rows(pairs, rows_of("MRC"), thr, stair))
    sc_asymp = iter(outage.asymp_op_sc_rows(pairs, rows_of("SC"), thr))
    out = []
    for point, row in zip(plan.points, plan.rows):
        if point[0] == "MRC":
            analytic, asymptotic = next(mrc), outage.asymp_op_mrc([pairs[i] for i in row], thr)
        else:
            analytic = next(sc)
            asymptotic = next(sc_asymp) if point[0] == "SC" else None
        out.append(RunRow(*point, analytic, asymptotic, None))
    return out


def _mc_column(spec: ExperimentSpec, plan: _Plan, workers: int) -> list[OutageEstimate]:
    """Every row's Monte Carlo estimate, in row order.  Each of the plan's
    curves is drawn from one set seeded by (spec.mc.seed, index of its first
    row), so results do not depend on the worker count; one
    `mcsim.simulate_curves` call runs every (curve, block) pair as a task on
    one pool of `workers` threads."""
    from . import mcsim

    runs = [
        (kind, hops, ks, factors, replace(spec.mc, seed=_row_seed(spec.mc.seed, first)))
        for kind, hops, ks, factors, first in plan.curves
    ]
    estimates = mcsim.simulate_curves(runs, spec.threshold, workers)
    return [estimates[c][cell] for c, cell in plan.cells]


def run(spec: ExperimentSpec, workers: int = 1) -> list[RunRow]:
    """Compute all grid rows, returned in spec order.

    Rows are keyed (scheme, condition, K, snr_db).  `_plan` compiles the
    spec once: one hop pair per (condition, SNR), each row as indices into
    them, and each Monte Carlo curve as its hops, Ks and SNR factors.  The
    calling thread first computes the analytic and asymptotic columns: one
    `outage.op_sc_rows` call for the SS and SC rows and one
    `outage.op_mrc_rows` call for the MRC rows, each reading every
    distinct single-hop law or uplink axis once, with nothing kept after
    it returns.  A table without Monte Carlo returns those rows and makes
    no pool.

    Only then does the Monte Carlo column start (`_mc_column`): every
    (curve, block) task on one pool of `workers` threads.  The analytic
    column does not run beside the pool: it is mostly Python holding the
    GIL, and each GIL-releasing numpy call of a curve would wait up to the
    interpreter's switch interval to get it back.  An analytic error raises
    before any curve starts.
    """
    plan = _plan(spec)
    rows = _analytic_rows(spec, plan)
    if spec.mc is None:
        return rows
    return [replace(r, mc=est) for r, est in zip(rows, _mc_column(spec, plan, workers))]


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


def _parse(key: str, text, convert):
    """convert(text); a value that does not parse raises a ValueError naming its key."""
    try:
        return convert(text)
    except ValueError:
        raise ValueError(f"config key {key!r}: {text!r} is not a valid {convert.__name__}") from None


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
    workers = _count(_parse("workers", table.get("workers", 1), int), "workers")
    # The Monte Carlo keys are checked whether or not the table runs it.
    mc_config = MCConfig(
        trials=_parse("trials", table.get("trials", DEFAULT_TRIALS), int),
        seed=_parse("seed", table.get("seed", DEFAULT_SEED), int),
        ci_level=_parse("ci_level", table.get("ci_level", 0.99), float),
    )

    thr = (
        Threshold(gamma_th=_parse("gamma_th", table["gamma_th"], float))
        if "gamma_th" in table
        else Threshold.from_rate(_parse("rate_r", table.get("rate_r", 0.5), float))
    )
    stairs = StaircaseConfig.for_threshold(thr)
    conditions = tuple(c.upper() for c in _split_list(table["conditions"]))
    # Each condition reads its own SNR key if the table has one, else snr_db.
    snr_keys = {c: f"snr_db_{c.lower()}" for c in conditions}
    snr_keys = {c: key if key in table else "snr_db" for c, key in snr_keys.items()}
    spec = ExperimentSpec(
        schemes=tuple(s.upper() for s in _split_list(table["schemes"])),
        conditions=conditions,
        k_values=tuple(_parse("k_values", k, int) for k in _split_list(table["k_values"])),
        snr_db={
            c: tuple(_parse(key, v, float) for v in _split_list(table.get(key, "")))
            for c, key in snr_keys.items()
        },
        staircase=StaircaseConfig(
            steps_m=_parse("steps_m", table.get("steps_m", stairs.steps_m), int),
            depth_l=_parse("depth_l", table.get("depth_l", stairs.depth_l), float),
        ),
        threshold=thr,
        mc=mc_config if _BOOLEANS[mc] else None,
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
    from . import linkbudget

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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
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
    p_run.add_argument("--workers", type=int, help="Monte Carlo thread pool size")
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
        import json

        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
