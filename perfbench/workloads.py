"""The benchmark's workloads: which `satrelay run` tables each one computes,
the rows each table must contain, and the error envelope its rows must meet.

The expected rows are written out here from the paper's figure grids rather
than read from the program, so the row checks compare the CSV against them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Point = tuple[str, str, int, float]  # (scheme, condition, K, snr_db)

COND_ORDER = ("HH", "HA", "AH", "AA")
MC_TRIALS = 100_000
MC_SEED = 20240915


def _grid(schemes, conds, ks, snr_for) -> tuple[Point, ...]:
    """Rows in the CLI's order: scheme, then condition, then K, then SNR."""
    return tuple(
        (s, c, k, float(db)) for s in schemes for c in conds for k in ks for db in snr_for(c)
    )


FIGURE_POINTS: dict[str, tuple[Point, ...]] = {
    "fig1": _grid(("SS", "SC", "MRC"), ("HH", "HA"), (5,), lambda c: [2.0 * i for i in range(11)]),
    "fig2": _grid(("SS", "SC", "MRC"), ("AH", "AA"), (5,), lambda c: [-6.0 + 1.5 * i for i in range(11)]),
    "fig3": _grid(
        ("SC", "MRC"), COND_ORDER, (2, 3, 4, 5, 6), lambda c: [13.5] if c[0] == "H" else [7.5]
    ),
}

FIGURE_ENVELOPE = {"SS": 0.035, "SC": 0.16, "MRC": 0.45}

# Staircase refinement ladder: (M, L / gamma_th, envelope) with gamma_th = 1
# at R = 1/2.
LADDER_STEPS = (
    (50, 15.0, {"SS": 0.011, "SC": 0.17, "MRC": 2.1}),
    (200, 30.0, {"SS": 0.005, "SC": 0.083, "MRC": 0.73}),
    (800, 45.0, {"SS": 0.0019, "SC": 0.031, "MRC": 0.2}),
)
LADDER_K = (2, 8, 16)
LADDER_SNR_DB = (-6.0, 3.0, 12.0)
LADDER_POINTS = _grid(("SS", "SC", "MRC"), COND_ORDER, LADDER_K, lambda c: LADDER_SNR_DB)


@dataclass(frozen=True)
class Table:
    """One `satrelay run` invocation and the rows its CSV must hold."""

    name: str
    argv: tuple[str, ...]  # without --csv/--svg, which the runner adds
    points: tuple[Point, ...]
    # Largest |op_analytic - exact| / exact per scheme: about 1.5x the paper
    # rule's measured worst row, so a more exact rule also passes.
    envelope: dict[str, float]
    config: str | None = None  # text of the --config file, if any


@dataclass(frozen=True)
class Workload:
    name: str
    tables: tuple[Table, ...]
    mc_trials: int | None = None

    def points(self):
        return {p for t in self.tables for p in t.points}

    def order(self, rng: random.Random) -> list[Table]:
        """The tables of one sweep, in a seed-drawn order."""
        return rng.sample(list(self.tables), len(self.tables))


def _ladder_config(steps_m: int, depth: float) -> str:
    return "\n".join(
        [
            "schemes = SS, SC, MRC",
            "conditions = " + ", ".join(COND_ORDER),
            "k_values = " + ", ".join(map(str, LADDER_K)),
            "snr_db = " + ", ".join(map(str, LADDER_SNR_DB)),
            "rate_r = 0.5",
            f"steps_m = {steps_m}",
            f"depth_l = {depth}",
        ]
    ) + "\n"


_MC_ARGS = ("--trials", str(MC_TRIALS), "--seed", str(MC_SEED), "--workers", "2")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "figures-analytic",
            tuple(
                Table(p, ("run", "--preset", p, "--no-mc"), pts, FIGURE_ENVELOPE)
                for p, pts in FIGURE_POINTS.items()
            ),
        ),
        Workload(
            "figures-mc",
            tuple(
                Table(p, ("run", "--preset", p, *_MC_ARGS), pts, FIGURE_ENVELOPE)
                for p, pts in FIGURE_POINTS.items()
            ),
            mc_trials=MC_TRIALS,
        ),
        Workload(
            "staircase-ladder",
            tuple(
                Table(f"ladder-m{m}", ("run", "--no-mc"), LADDER_POINTS, env, _ladder_config(m, d))
                for m, d, env in LADDER_STEPS
            ),
        ),
    )
}


def first_row(workload: Workload) -> Table:
    """A one-row table holding the workload's first row, for the set-up probe."""
    table = workload.tables[0]
    scheme, cond, k, db = table.points[0]
    lines = [f"schemes = {scheme}", f"conditions = {cond}", f"k_values = {k}", f"snr_db = {db}"]
    if table.config:
        lines += [ln for ln in table.config.splitlines() if ln.startswith(("steps_m", "depth_l"))]
    argv = ("run", *(_MC_ARGS if workload.mc_trials else ("--no-mc",)))
    return Table("first-row", argv, (table.points[0],), table.envelope, "\n".join(lines) + "\n")


def identity_config(rng: random.Random) -> str:
    """A small seed-drawn table for the workers = 1 / workers = 2 byte check."""
    cond = rng.choice(COND_ORDER)
    grid = FIGURE_POINTS["fig1" if cond[0] == "H" else "fig2"]
    dbs = sorted(rng.sample(sorted({p[3] for p in grid}), 2))
    return "\n".join(
        [
            "schemes = SS, SC, MRC",
            f"conditions = {cond}",
            f"k_values = {rng.randint(2, 6)}",
            "snr_db = " + ", ".join(map(str, dbs)),
            "trials = 20000",
            f"seed = {MC_SEED}",
        ]
    ) + "\n"
