"""Outage probabilities for the single-satellite, selection-combining, and
maximal-ratio-combining schemes.

Every outage here is one staircase sum over Pr[(X - a)(Y - b) <= c] for
independent nonnegative X, Y: the exact event for variable-gain AF relaying
(per-hop SNRs) and for fixed-gain MRC (sums of per-hop SNRs).  The region
is covered exactly near the origin and by M rectangles along each wing, out
to depth L.  Each axis is read on one `_grid` of 2M + 2 abscissae:
`_outage_pieces` sums the covered mass from CDF values there, and
`_success_pieces` the uncovered mass from survival values, which stays
representable where 1 - OP would not.

`op_sc_rows`, `op_mrc_rows` and `asymp_op_sc_rows` take a table as
`(pairs, rows)`: hop pairs, and each row as indices into them, one per
satellite.  The first two reduce one staircase table (`_staircases`), in
which each distinct single-hop law and each distinct axis (law, K, offset,
rhs) is keyed and evaluated once: an SS staircase is a pair's sg and ns
axes, read by `channel.sf`; an MRC row's is its K-fold uplink and downlink
axes, read by `channel.sum_cdf`.  Groups of at most `channel._CELLS` cells
keep working memory from growing with rows times M, and nothing is kept
after the call.  `op_ss`, `op_sc`, `op_mrc` and `asymp_op_sc` are one-row
tables.  Call counts, memory peaks and timings are in `BENCH_*.json` and
CHANGES.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from . import channel
from .channel import LinkSNR, SRParams, SumSRContext

__all__ = [
    "StaircaseConfig",
    "MCConfig",
    "Threshold",
    "HopPair",
    "staircase_probability",
    "staircase_success_probability",
    "staircase_truncation_bound",
    "op_ss",
    "op_sc",
    "op_sc_rows",
    "ps_ss",
    "ps_sc",
    "c_mrc",
    "op_mrc",
    "op_mrc_rows",
    "asymp_op_sc",
    "asymp_op_sc_rows",
    "asymp_op_mrc",
    "coding_gains",
]


@dataclass(frozen=True)
class StaircaseConfig:
    """Staircase approximation knobs: M steps, truncation depth L.

    depth_l is an absolute depth in linear-SNR units; the reference
    default is 15 * gamma_th with M = 50.  steps_m is capped at MAX_STEPS_M,
    far above any M a refinement needs (the convergence script's finest is
    3200), so a mistyped M fails here rather than in a huge allocation.
    """

    MAX_STEPS_M: ClassVar[int] = 100_000

    steps_m: int = 50
    depth_l: float = 15.0

    def __post_init__(self) -> None:
        steps_m = channel._count(self.steps_m, "steps_m", 1, self.MAX_STEPS_M)
        object.__setattr__(self, "steps_m", steps_m)
        if not (math.isfinite(self.depth_l) and self.depth_l > 0.0):
            raise ValueError(f"depth_l must be finite and > 0, got {self.depth_l}")

    @classmethod
    def for_threshold(cls, thr: "Threshold") -> "StaircaseConfig":
        """The reference configuration: M = 50, L = 15 * gamma_th."""
        return cls(depth_l=15.0 * thr.gamma_th)


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo trial budget, stream seed, and interval confidence level;
    `mcsim` runs it, and `cli` checks every run table's keys with it."""

    trials: int
    seed: int
    ci_level: float = 0.99

    def __post_init__(self) -> None:
        object.__setattr__(self, "trials", channel._count(self.trials, "trials"))
        object.__setattr__(self, "seed", channel._count(self.seed, "seed", None))
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must be in (0, 1)")


@dataclass(frozen=True)
class Threshold:
    """Outage threshold gamma_th on linear SNR; from rate R, gamma_th = 2^(2R) - 1."""

    gamma_th: float

    def __post_init__(self) -> None:
        # upsilon = gamma_th^2 + gamma_th must be finite too.
        if not (self.gamma_th > 0.0 and math.isfinite(self.gamma_th * (self.gamma_th + 1.0))):
            raise ValueError(
                f"gamma_th must be > 0 with gamma_th^2 + gamma_th finite, got {self.gamma_th}"
            )

    @classmethod
    def from_rate(cls, rate_r: float) -> "Threshold":
        try:
            return cls(gamma_th=2.0 ** (2.0 * rate_r) - 1.0)
        except (OverflowError, ValueError):
            raise ValueError(
                f"rate_r must give a finite gamma_th = 2^(2R) - 1 > 0, got {rate_r}"
            ) from None

    @property
    def upsilon(self) -> float:
        """gamma_th^2 + gamma_th, the RHS of the variable-gain outage event."""
        return self.gamma_th**2 + self.gamma_th


@dataclass(frozen=True)
class HopPair:
    """Fading parameters and transmit SNR for one satellite's two hops."""

    ns: tuple[SRParams, LinkSNR]
    sg: tuple[SRParams, LinkSNR]


def _grid(offset: float, rhs: float, cfg: StaircaseConfig) -> np.ndarray:
    """One axis's abscissae, each shifted by offset: 0, the M + 1 block edges
    from sqrt(rhs) to depth_l beyond it, and the heights rhs / lower edge."""
    edges = math.sqrt(rhs) + np.arange(cfg.steps_m + 1) * (cfg.depth_l / cfg.steps_m)
    return offset + np.concatenate(([0.0], edges, rhs / edges[:-1]))


def _outage_pieces(fx: np.ndarray, fy: np.ndarray, m: int) -> np.ndarray:
    """The covered mass from each axis's CDF on its `_grid`: the two strips
    below the offsets, the corner square and the 2M wing rectangles.  Each
    row of the last axis is one staircase, so one call sums a stack."""
    fx_off, fy_off = fx[..., 0], fy[..., 0]
    strips = fx_off + fy_off * (1.0 - fx_off)
    corner = (fx[..., 1] - fx_off) * (fy[..., 1] - fy_off)
    x_wing = np.sum((fx[..., m + 2 :] - fx[..., :1]) * np.diff(fy[..., 1 : m + 2]), axis=-1)
    y_wing = np.sum((fy[..., m + 2 :] - fy[..., :1]) * np.diff(fx[..., 1 : m + 2]), axis=-1)
    return np.clip(strips + corner + x_wing + y_wing, 0.0, 1.0)


def _success_pieces(sx: np.ndarray, sy: np.ndarray, m: int) -> np.ndarray:
    """The uncovered mass from each axis's survival function on its `_grid`
    (0: offset, 1: corner edge, m + 1: far edge, m + 2 ...: heights), one
    staircase per row of the last axis."""
    corner_x, corner_y = sx[..., 1], sy[..., 1]
    beyond_corner = corner_x * corner_y
    x_wing = np.sum((sx[..., m + 2 :] - sx[..., 1:2]) * -np.diff(sy[..., 1 : m + 2]), axis=-1)
    y_wing = np.sum((sy[..., m + 2 :] - sy[..., 1:2]) * -np.diff(sx[..., 1 : m + 2]), axis=-1)
    far_x, far_y = sx[..., m + 1], sy[..., m + 1]
    beyond_depth = (sx[..., 0] - corner_x) * far_y + (sy[..., 0] - corner_y) * far_x
    return np.clip(beyond_corner + (x_wing + y_wing) + beyond_depth, 0.0, 1.0)


def _validate_staircase(x_offset: float, y_offset: float, rhs: float) -> None:
    if not rhs > 0.0:
        raise ValueError("rhs must be > 0")
    if x_offset < 0.0 or y_offset < 0.0:
        raise ValueError("offsets must be >= 0")


def staircase_probability(
    cdf_x,
    cdf_y,
    x_offset: float,
    y_offset: float,
    rhs: float,
    cfg: StaircaseConfig,
) -> float:
    """Approximate Pr[(X - x_offset)(Y - y_offset) <= rhs] for independent X, Y >= 0.

    cdf_x and cdf_y must be vectorized CDF evaluators (ndarray in, ndarray
    out); each is called once per axis on the O(M) distinct abscissae.
    Exact pieces: the strip X <= x_offset, the strip Y <= y_offset, and
    the corner square of side sqrt(rhs); the two hyperbola wings are
    covered by M rectangles each out to depth_l beyond the corner.
    Degenerate strips (zero offset) contribute their exact zero limits.

    The decomposition counts the whole rectangle below both offsets, so it
    approximates the stated event when x_offset * y_offset <= rhs (true
    for both relaying reformulations, where the offsets' product never
    exceeds the right-hand side).
    """
    _validate_staircase(x_offset, y_offset, rhs)
    fx = np.asarray(cdf_x(_grid(x_offset, rhs, cfg)))
    fy = np.asarray(cdf_y(_grid(y_offset, rhs, cfg)))
    return float(_outage_pieces(fx, fy, cfg.steps_m))


def staircase_success_probability(
    sf_x,
    sf_y,
    x_offset: float,
    y_offset: float,
    rhs: float,
    cfg: StaircaseConfig,
) -> float:
    """1 - staircase_probability(cdf_x, cdf_y, ...), summed directly.

    With u = X - x_offset, v = Y - y_offset and corner side r = sqrt(rhs),
    the same rectangles leave five nonnegative pieces of the quadrant
    u, v > 0 uncovered: the quadrant beyond the corner (u, v > r); in each
    wing block, the slab between the hyperbola height and r; and the two
    strips beyond depth_l.  Their sum never forms 1 - (value near 1), so
    it keeps relative precision down to the smallest representable
    success probability.  sf_x and sf_y are the vectorized survival
    functions of X and Y; every interval mass is a survival difference.
    """
    _validate_staircase(x_offset, y_offset, rhs)
    sx = np.asarray(sf_x(_grid(x_offset, rhs, cfg)))
    sy = np.asarray(sf_y(_grid(y_offset, rhs, cfg)))
    return float(_success_pieces(sx, sy, cfg.steps_m))


def staircase_truncation_bound(
    cdf_x,
    cdf_y,
    x_offset: float,
    y_offset: float,
    rhs: float,
    cfg: StaircaseConfig,
) -> float:
    """Upper bound on the event mass dropped beyond depth_l on both wings;
    each CDF is called once, on three abscissae."""
    _validate_staircase(x_offset, y_offset, rhs)
    far = math.sqrt(rhs) + cfg.depth_l
    fx = np.asarray(cdf_x(x_offset + np.array([0.0, far, rhs / far])))
    fy = np.asarray(cdf_y(y_offset + np.array([0.0, far, rhs / far])))
    return float((1.0 - fx[1]) * (fy[2] - fy[0]) + (1.0 - fy[1]) * (fx[2] - fx[0]))


def _staircases(pairs, stairs, cfg, evaluate, pieces) -> list[np.ndarray]:
    """The staircase table: pieces' arrays, one value per stair, in order.

    A stair is two axes, each (pair index, "sg" or "ns", K, offset, rhs):
    that hop's law, summed K-fold, on `_grid(offset, rhs, cfg)`.  Each
    distinct single-hop law of pairs is keyed once, and each axis then as
    (law index, K, offset, rhs).  The stairs are reduced in groups of at
    most `channel._CELLS` cells: each distinct axis is evaluated once, by
    evaluate(params, link, K, abscissae) in the order the stairs first name
    it, for the first group that reads it, and dropped after the last;
    pieces(first axes, second axes, M) reduces a group's stacked values
    row-wise, so each stair has the bits of one pass.
    """
    laws: dict[tuple[SRParams, LinkSNR], int] = {}
    law_ids = [
        {hop: laws.setdefault(getattr(h, hop), len(laws)) for hop in ("sg", "ns")} for h in pairs
    ]
    law_list = list(laws)
    stairs = [[(law_ids[i][hop], *axis) for i, hop, *axis in stair] for stair in stairs]
    step = max(1, channel._CELLS // (2 * cfg.steps_m + 2))
    starts = range(0, len(stairs), step)
    last = {axis: i for i in starts for stair in stairs[i : i + step] for axis in stair}
    values: dict[tuple, np.ndarray] = {}
    parts = []
    for i in starts:
        group = stairs[i : i + step]
        for law, k, offset, rhs in dict.fromkeys(a for s in group for a in s if a not in values):
            values[law, k, offset, rhs] = evaluate(*law_list[law], k, _grid(offset, rhs, cfg))
        parts.append(pieces(*(np.stack([values[a] for a in c]) for c in zip(*group)), cfg.steps_m))
        values = {axis: v for axis, v in values.items() if last[axis] > i}
    return [np.concatenate(column) for column in zip(*parts)]


def _ss_pieces(hops: list[HopPair], thr: Threshold, cfg: StaircaseConfig) -> list[np.ndarray]:
    """[outage-form sum, success] of each hop pair, in list order: the stair
    of its sg and ns axes, each read by `channel.sf` on the one grid all SS
    axes share, with the CDF there 1 - sf."""
    axes = [(hop, 1, thr.gamma_th, thr.upsilon) for hop in ("sg", "ns")]
    stairs = [[(i, *axis) for axis in axes] for i in range(len(hops))]
    sf = lambda p, link, k, x: channel.sf(p, link, x)
    pieces = lambda sx, sy, m: (_outage_pieces(1.0 - sx, 1.0 - sy, m), _success_pieces(sx, sy, m))
    return _staircases(hops, stairs, cfg, sf, pieces)


def _checked_rows(pairs: list[HopPair], rows: list[Sequence[int]]) -> list[tuple[int, ...]]:
    """Each row as Python ints, once every row is nonempty and every index
    names one of pairs (0..len(pairs) - 1, not a bool); otherwise a
    ValueError, which names the row of a bad index."""
    if not all(rows):
        raise ValueError("need at least one satellite")
    top = len(pairs) - 1
    return [
        tuple(channel._count(i, f"index of row {r}", 0, top) for i in row)
        for r, row in enumerate(rows)
    ]


def op_ss(hops: HopPair, thr: Threshold, cfg: StaircaseConfig) -> float:
    """Single-satellite outage under variable-gain relaying:
    Pr[(Lambda_sg - gamma)(Lambda_ns - gamma) <= gamma^2 + gamma];
    the one-row case of `op_sc_rows`."""
    return op_sc_rows([hops], [range(1)], thr, cfg)[0]


def ps_ss(hops: HopPair, thr: Threshold, cfg: StaircaseConfig) -> float:
    """Single-satellite success probability 1 - op_ss, summed directly."""
    return float(_ss_pieces([hops], thr, cfg)[1][0])


def op_sc(hops_per_sat: list[HopPair], thr: Threshold, cfg: StaircaseConfig) -> float:
    """Selection combining: product of the per-satellite outage probabilities,
    each distinct hop law read once and the factors multiplied in list order."""
    return op_sc_rows(hops_per_sat, [range(len(hops_per_sat))], thr, cfg)[0]


def op_sc_rows(
    pairs: list[HopPair], rows: list[Sequence[int]], thr: Threshold, cfg: StaircaseConfig
) -> list[float]:
    """`op_sc` at every row, one outage per row; a row lists the indices of
    its satellites' hop pairs, each pair's SS outage read off one
    `_ss_pieces` table.  An SS outage at or above 1/2 is 1 - success, so one
    within an ulp of 1 is not clipped to exactly 1.0; below 1/2 the
    outage-form sum keeps its own relative precision."""
    rows = _checked_rows(pairs, rows)
    if not rows:
        return []
    out, success = _ss_pieces(pairs, thr, cfg)
    per_hop = np.where(out >= 0.5, 1.0 - success, out).tolist()
    return [math.prod(per_hop[i] for i in row) for row in rows]


def ps_sc(hops_per_sat: list[HopPair], thr: Threshold, cfg: StaircaseConfig) -> float:
    """Selection-combining success probability 1 - prod_k (1 - ps_ss_k),
    via log1p/expm1 so it stays representable when every branch is near
    outage."""
    if not hops_per_sat:
        raise ValueError("need at least one satellite")
    ps = _ss_pieces(hops_per_sat, thr, cfg)[1]
    with np.errstate(divide="ignore"):
        return float(-np.expm1(np.sum(np.log1p(-ps))))


def c_mrc(ns_links: list[tuple[SRParams, LinkSNR]]) -> float:
    """Fixed-gain constant C_m = [sum_k 1/(1 + E[Lambda_ns_k])]^{-1}."""
    if not ns_links:
        raise ValueError("need at least one node->satellite link")
    return 1.0 / sum(1.0 / (1.0 + channel.mean_snr(p, lk)) for p, lk in ns_links)


def op_mrc(hops_per_sat: list[HopPair], thr: Threshold, cfg: StaircaseConfig) -> float:
    """Fixed-gain MRC outage: Pr[(Delta_sg)(Delta_ns - gamma) <= C_m gamma],
    with Delta_* the K-fold sums of per-hop SNRs (i.i.d. satellites only)."""
    return op_mrc_rows(hops_per_sat, [range(len(hops_per_sat))], thr, cfg)[0]


def op_mrc_rows(
    pairs: list[HopPair], rows: list[Sequence[int]], thr: Threshold, cfg: StaircaseConfig
) -> list[float]:
    """`op_mrc` at every row, one outage per row; a row lists the indices of
    its satellites' hop pairs, which must be equal.  A row of K satellites
    is the stair of its K-fold uplink axis (offset gamma) and downlink axis
    (offset 0), rhs = C_m gamma, each read by `channel.sum_cdf`."""
    rows = _checked_rows(pairs, rows)
    if not rows:
        return []
    g, stairs = thr.gamma_th, []
    for row in rows:
        hop, k = pairs[row[0]], len(row)
        if any(pairs[j] != hop for j in row):
            raise ValueError(
                "MRC closed form requires i.i.d. satellites: all hop pairs "
                "must share fading parameters and transmit SNR"
            )
        rhs = c_mrc([hop.ns] * k) * g
        stairs.append(((row[0], "ns", k, g, rhs), (row[0], "sg", k, 0.0, rhs)))
    sum_cdf = lambda p, link, k, x: channel.sum_cdf(p, link, SumSRContext(k), x)
    pieces = lambda ns, sg, m: (_outage_pieces(sg, ns, m),)
    [out] = _staircases(pairs, stairs, cfg, sum_cdf, pieces)
    return out.tolist()


def _equal_power_eta(hops_per_sat: list[HopPair]) -> float:
    if not hops_per_sat:
        raise ValueError("need at least one satellite")
    etas = {h.ns[1].eta for h in hops_per_sat} | {h.sg[1].eta for h in hops_per_sat}
    if len(etas) != 1:
        raise ValueError("asymptotic forms assume equal power allocation on every hop")
    return etas.pop()


def asymp_op_sc(hops_per_sat: list[HopPair], thr: Threshold) -> float:
    """Leading-order SC outage prod_k [F_sg_k(gamma) + F_ns_k(gamma)], each F
    a linearized hop CDF `channel.asymptotic_cdf`; equal power on every hop.
    The one-row case of `asymp_op_sc_rows`."""
    return asymp_op_sc_rows(hops_per_sat, [range(len(hops_per_sat))], thr)[0]


def asymp_op_sc_rows(
    pairs: list[HopPair], rows: list[Sequence[int]], thr: Threshold
) -> list[float]:
    """`asymp_op_sc` at every row, a row listing the indices of its
    satellites' hop pairs: each pair's factor is computed once per call,
    and each row multiplies its factors in list order."""
    rows = _checked_rows(pairs, rows)
    for row in rows:
        _equal_power_eta([pairs[i] for i in row])
    g = thr.gamma_th
    per_hop = [channel.asymptotic_cdf(*h.sg, g) + channel.asymptotic_cdf(*h.ns, g) for h in pairs]
    return [math.prod(per_hop[i] for i in row) for row in rows]


def asymp_op_mrc(hops_per_sat: list[HopPair], thr: Threshold) -> float:
    """Leading-order MRC outage, the paper's form: the linearized K-fold
    uplink-sum CDF `channel.asymptotic_sum_cdf` at gamma (equal power,
    identical uplink fading).

    It is not the model's high-SNR limit.  C_m grows like eta, so the
    fixed-gain factor Delta_sg / (Delta_sg + C_m) stays O(1) and the exact
    outage keeps a factor E[(1 + C_m / Delta_sg)^K] over this form.  The
    measured exact-to-asymptote ratio is 1.287 at H-H, K = 5, which puts
    the K = 5 MRC coding gain off by 0.22 dB; at K = 1 the K-th moment
    diverges and the ratio grows by about ln 10 per decade of SNR.
    """
    _equal_power_eta(hops_per_sat)
    uplink = hops_per_sat[0].ns
    if any(h.ns != uplink for h in hops_per_sat):
        raise ValueError("MRC asymptote assumes identical node->satellite fading")
    return channel.asymptotic_sum_cdf(*uplink, len(hops_per_sat), thr.gamma_th)


def coding_gains(hops_per_sat: list[HopPair], thr: Threshold) -> tuple[float, float, int]:
    """(G_c^SC, G_c^MRC, diversity order K) of the high-SNR law (G_c eta)^(-K).

    Read off the two asymptotes as G_c = 1 / (eta OP_inf^(1/K)), so they
    share their guards: equal power on every hop, and identical uplink
    fading for MRC.
    """
    eta = _equal_power_eta(hops_per_sat)
    k = len(hops_per_sat)
    gc_sc = 1.0 / (eta * asymp_op_sc(hops_per_sat, thr) ** (1.0 / k))
    gc_mrc = 1.0 / (eta * asymp_op_mrc(hops_per_sat, thr) ** (1.0 / k))
    return gc_sc, gc_mrc, k
