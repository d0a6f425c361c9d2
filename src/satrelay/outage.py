"""Outage probabilities for the single-satellite, selection-combining, and
maximal-ratio-combining schemes.

The central quantity is Pr[(X - a)(Y - b) <= c] for independent
nonnegative X, Y: the exact event for variable-gain AF relaying (per-hop
SNRs) and for fixed-gain MRC (sums of per-hop SNRs).  The hyperbolic
region is covered exactly near the origin and by an M-step staircase of
rectangles along both wings, truncated at depth L.  Where the outage is
near 1, the single-satellite and selection-combining success
probabilities 1 - OP are also summed directly from the uncovered pieces
of the same rectangles, so they stay representable where 1 - OP would not.

A run table evaluates the same hop pairs and uplink sums many times over
(SS and SC at every K, HH beside HA, AH beside AA), so `op_sc_rows` and
`op_mrc_rows` take a list of rows, each a list of hop pairs, and compute
each distinct hop-pair outage or uplink axis once per call; nothing is
kept after the call returns.  `op_sc` and `op_mrc` are their one-row
cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import channel
from .channel import LinkSNR, SRParams, SumSRContext

__all__ = [
    "StaircaseConfig",
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
        if not 1 <= self.steps_m <= self.MAX_STEPS_M:
            raise ValueError(f"steps_m must be in 1..{self.MAX_STEPS_M}, got {self.steps_m}")
        if not (math.isfinite(self.depth_l) and self.depth_l > 0.0):
            raise ValueError(f"depth_l must be finite and > 0, got {self.depth_l}")

    @classmethod
    def for_threshold(cls, thr: "Threshold") -> "StaircaseConfig":
        """The reference configuration: M = 50, L = 15 * gamma_th."""
        return cls(depth_l=15.0 * thr.gamma_th)


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


def _staircase_grids(x_offset: float, y_offset: float, rhs: float, cfg: StaircaseConfig):
    """Abscissae needed by the staircase on each axis."""
    root = math.sqrt(rhs)
    step = cfg.depth_l / cfg.steps_m
    edges = root + np.arange(cfg.steps_m + 1) * step
    # Hyperbola evaluated at each block's lower edge, where the rectangle
    # touches the true boundary.
    hyp = rhs / edges[:-1]
    return root, x_offset + edges, x_offset + hyp, y_offset + edges, y_offset + hyp


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
    _, x_edges, x_hyp, y_edges, y_hyp = _staircase_grids(x_offset, y_offset, rhs, cfg)

    fx = np.asarray(cdf_x(np.concatenate(([x_offset], x_edges, x_hyp))))
    fy = np.asarray(cdf_y(np.concatenate(([y_offset], y_edges, y_hyp))))
    m = cfg.steps_m
    fx_off, fx_edges, fx_hyp = fx[0], fx[1 : m + 2], fx[m + 2 :]
    fy_off, fy_edges, fy_hyp = fy[0], fy[1 : m + 2], fy[m + 2 :]

    r1 = fx_off
    r2 = fy_off * (1.0 - fx_off)
    r3 = (fx_edges[0] - fx_off) * (fy_edges[0] - fy_off)
    r4 = np.sum((fx_hyp - fx_off) * np.diff(fy_edges))
    r5 = np.sum((fy_hyp - fy_off) * np.diff(fx_edges))
    return float(np.clip(r1 + r2 + r3 + r4 + r5, 0.0, 1.0))


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
    _, x_edges, x_hyp, y_edges, y_hyp = _staircase_grids(x_offset, y_offset, rhs, cfg)
    sx = np.asarray(sf_x(np.concatenate(([x_offset], x_edges, x_hyp))))
    sy = np.asarray(sf_y(np.concatenate(([y_offset], y_edges, y_hyp))))
    m = cfg.steps_m
    # index 0: offset, 1: corner edge, m + 1: far edge, m + 2 ...: hyperbola heights
    beyond_corner = sx[1] * sy[1]
    x_slabs = sx[m + 2 :] - sx[1]
    y_slabs = sy[m + 2 :] - sy[1]
    x_blocks = -np.diff(sx[1 : m + 2])
    y_blocks = -np.diff(sy[1 : m + 2])
    wings = np.sum(x_slabs * y_blocks) + np.sum(y_slabs * x_blocks)
    beyond_depth = (sx[0] - sx[1]) * sy[m + 1] + (sy[0] - sy[1]) * sx[m + 1]
    return float(np.clip(beyond_corner + wings + beyond_depth, 0.0, 1.0))


def staircase_truncation_bound(
    cdf_x,
    cdf_y,
    x_offset: float,
    y_offset: float,
    rhs: float,
    cfg: StaircaseConfig,
) -> float:
    """Upper bound on the event mass dropped beyond depth_l on both wings."""
    root = math.sqrt(rhs)
    far = root + cfg.depth_l
    x_tail = (1.0 - float(cdf_x(np.asarray([x_offset + far]))[0])) * (
        float(cdf_y(np.asarray([y_offset + rhs / far]))[0])
        - float(cdf_y(np.asarray([y_offset]))[0])
    )
    y_tail = (1.0 - float(cdf_y(np.asarray([y_offset + far]))[0])) * (
        float(cdf_x(np.asarray([x_offset + rhs / far]))[0])
        - float(cdf_x(np.asarray([x_offset]))[0])
    )
    return x_tail + y_tail


def _sr_cdf(pair: tuple[SRParams, LinkSNR]):
    params, link = pair
    return lambda x: channel.cdf(params, link, x)


def _sr_sf(pair: tuple[SRParams, LinkSNR]):
    params, link = pair
    return lambda x: channel.sf(params, link, x)


def _sum_cdf(pair: tuple[SRParams, LinkSNR], K: int):
    params, link = pair
    ctx = SumSRContext.for_fading(params, K)
    return lambda x: channel.sum_cdf(params, link, ctx, x)


def op_ss(hops: HopPair, thr: Threshold, cfg: StaircaseConfig) -> float:
    """Single-satellite outage under variable-gain relaying:
    Pr[(Lambda_sg - gamma)(Lambda_ns - gamma) <= gamma^2 + gamma].

    At or above 1/2 this is 1 - ps_ss, so an outage within an ulp of 1 is
    not clipped to exactly 1.0; below 1/2 the outage-form sum keeps its
    own relative precision.
    """
    g = thr.gamma_th
    out = staircase_probability(
        _sr_cdf(hops.sg), _sr_cdf(hops.ns), g, g, thr.upsilon, cfg
    )
    return 1.0 - ps_ss(hops, thr, cfg) if out >= 0.5 else out


def ps_ss(hops: HopPair, thr: Threshold, cfg: StaircaseConfig) -> float:
    """Single-satellite success probability 1 - op_ss, summed directly."""
    g = thr.gamma_th
    return staircase_success_probability(
        _sr_sf(hops.sg), _sr_sf(hops.ns), g, g, thr.upsilon, cfg
    )


def op_sc(hops_per_sat: list[HopPair], thr: Threshold, cfg: StaircaseConfig) -> float:
    """Selection combining: product of the per-satellite outage probabilities,
    each distinct hop pair evaluated once and multiplied in list order."""
    return op_sc_rows([hops_per_sat], thr, cfg)[0]


def op_sc_rows(rows: list[list[HopPair]], thr: Threshold, cfg: StaircaseConfig) -> list[float]:
    """`op_sc` at every row, one outage per row; each distinct hop pair's
    `op_ss` is evaluated once per call."""
    if not all(rows):
        raise ValueError("need at least one satellite")
    per_hop = {hop: op_ss(hop, thr, cfg) for hop in dict.fromkeys(h for row in rows for h in row)}
    return [math.prod(per_hop[hop] for hop in row) for row in rows]


def ps_sc(hops_per_sat: list[HopPair], thr: Threshold, cfg: StaircaseConfig) -> float:
    """Selection-combining success probability 1 - prod_k (1 - ps_ss_k),
    via log1p/expm1 so it stays representable when every branch is near
    outage."""
    if not hops_per_sat:
        raise ValueError("need at least one satellite")
    per_hop = {hop: ps_ss(hop, thr, cfg) for hop in dict.fromkeys(hops_per_sat)}
    ps = np.array([per_hop[hop] for hop in hops_per_sat])
    with np.errstate(divide="ignore"):
        return float(-np.expm1(np.sum(np.log1p(-ps))))


def c_mrc(ns_links: list[tuple[SRParams, LinkSNR]]) -> float:
    """Fixed-gain constant C_m = [sum_k 1/(1 + E[Lambda_ns_k])]^{-1}."""
    if not ns_links:
        raise ValueError("need at least one node->satellite link")
    return 1.0 / sum(1.0 / (1.0 + channel.mean_snr(p, lk)) for p, lk in ns_links)


def _require_iid(hops_per_sat: list[HopPair]) -> HopPair:
    first = hops_per_sat[0]
    for hop in hops_per_sat[1:]:
        if hop != first:
            raise ValueError(
                "MRC closed form requires i.i.d. satellites: all hop pairs "
                "must share fading parameters and transmit SNR"
            )
    return first


def op_mrc(hops_per_sat: list[HopPair], thr: Threshold, cfg: StaircaseConfig) -> float:
    """Fixed-gain MRC outage: Pr[(Delta_sg)(Delta_ns - gamma) <= C_m gamma],
    with Delta_* the K-fold sums of per-hop SNRs (i.i.d. satellites only)."""
    return op_mrc_rows([hops_per_sat], thr, cfg)[0]


def op_mrc_rows(rows: list[list[HopPair]], thr: Threshold, cfg: StaircaseConfig) -> list[float]:
    """`op_mrc` at every row, one outage per row.

    The uplink axis, the K-fold ns-sum CDF on gamma + {0, corner edges,
    hyperbola heights} with rhs = C_m gamma, depends only on (hop.ns, K)
    within a call, so it is computed once per call and shared by every
    row with that uplink and K.
    """
    if not all(rows):
        raise ValueError("need at least one satellite")
    g = thr.gamma_th
    axes: dict[tuple, np.ndarray] = {}
    out = []
    for hops_per_sat in rows:
        hop, k = _require_iid(hops_per_sat), len(hops_per_sat)

        def uplink_cdf(y, uplink=(hop.ns, k)):
            if uplink not in axes:
                axes[uplink] = _sum_cdf(*uplink)(y)
            return axes[uplink]

        cm = c_mrc([h.ns for h in hops_per_sat])
        out.append(staircase_probability(_sum_cdf(hop.sg, k), uplink_cdf, 0.0, g, cm * g, cfg))
    return out


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
    Each distinct hop pair is evaluated once, multiplied in list order."""
    _equal_power_eta(hops_per_sat)
    g = thr.gamma_th
    per_hop = {
        hop: channel.asymptotic_cdf(*hop.sg, g) + channel.asymptotic_cdf(*hop.ns, g)
        for hop in dict.fromkeys(hops_per_sat)
    }
    return math.prod(per_hop[hop] for hop in hops_per_sat)


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
    uplinks = {h.ns for h in hops_per_sat}
    if len(uplinks) != 1:
        raise ValueError("MRC asymptote assumes identical node->satellite fading")
    return channel.asymptotic_sum_cdf(*uplinks.pop(), len(hops_per_sat), thr.gamma_th)


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
