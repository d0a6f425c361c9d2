"""Seeded Monte Carlo oracle for the three combining schemes.

The unit of simulation is a *curve*: a list of rows with the same fading
parameters and satellite count whose links differ only by a common SNR
factor, such as one (scheme, condition, K) swept over transmit SNR.  Each
scheme has one curve kernel (`simulate_ss_curve`, `simulate_sc_curve`,
`simulate_mrc_curve`) that returns one estimate per row from one draw set.
Every SNR is drawn once at the curve's lowest-SNR links and scaled by
eta_row / eta_lowest for each row; the factor is exactly 1.0 for a one-row
curve.  Each row's outage event is tested on the unscaled draws in an
equivalent form divided by the factor, so the lowest row, and a one-row
curve, use the single-row arithmetic bit for bit.  A transmit SNR only
scales the drawn variates, so every row's hit count keeps its exact
Binomial(n, p(eta)) law.  Every end-to-end SNR here grows with that
factor, so a trial out of outage at one row stays out at every higher-SNR
row: each trial keeps the number of leading rows (in ascending SNR) at
which it is in outage, row j counts the trials with more than j, and at
one seed the hit count never rises with SNR within a curve.
`simulate_ss`, `simulate_sc` and `simulate_mrc` are the one-row curves.

Trials are partitioned into fixed-size blocks; block i draws from an
independent substream keyed by (seed, i) via SeedSequence spawn keys over
a Philox counter-based generator.  Because the block layout never depends
on the worker count, sequential and parallel runs produce bit-identical
estimates.

Every SNR is drawn with `channel.sample_sum`, the exact Erlang-mixture
sampler (one binomial and one gamma draw per sample, no trigonometry).
A block draws only the variates that can still change one of its rows'
outage counts, in a fixed order:

- SS: n ns draws, then n sg draws.
- SC: the first branch draws exactly like SS (so SC with one satellite is
  SS, bit for bit).  Branch k >= 2 draws ns only for the trials still in
  outage at the lowest SNR after branches 1..k-1, then sg only for those
  with Lambda_ns > gamma at the highest SNR, since Lambda_ns <= gamma
  already forces Lambda_GS < gamma at every row.  Which draw goes to which
  trial depends only on earlier draws, and branches are independent, so
  every row's count keeps its exact law.  The first K branches are shared
  across K, so at one seed the count never rises with K.
- MRC: one K-fold sum per distinct (SRParams, LinkSNR) pair on each side,
  each in first-appearance order: the ns sums for all n trials, then the
  sg sums only where the ns sum at the highest SNR exceeds gamma, since
  Lambda_GS < sum(ns) whenever C_m > 0.  Each row uses its own C_m.  An
  i.i.d. list costs one binomial and one gamma draw per side; a non-i.i.d.
  list stays exact.

`channel.sample` keeps the physical construction (LoS amplitude, phase and
complex Gaussian), so the CDF checks and the mixture sampler are checked
against an independent draw.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from statistics import NormalDist

import numpy as np

from . import channel
from .outage import HopPair, Threshold, c_mrc

__all__ = [
    "MCConfig",
    "OutageEstimate",
    "simulate_ss",
    "simulate_sc",
    "simulate_mrc",
    "simulate_ss_curve",
    "simulate_sc_curve",
    "simulate_mrc_curve",
]

# Fixed substream granularity; must not vary with worker count.
_BLOCK = 1 << 19

# Rows are evaluated over slices of this many trials, so a curve's
# per-row temporaries stay small whatever the block size.
_SLICE = 1 << 14

# Estimates with fewer hits than this cannot resolve the tail reliably.
_MIN_HITS = 20


@dataclass(frozen=True)
class MCConfig:
    """Trial budget, stream seed, and confidence level for the interval."""

    trials: int
    seed: int
    ci_level: float = 0.99

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must be in (0, 1)")


@dataclass(frozen=True)
class OutageEstimate:
    """Outage estimate with a Wilson-score confidence interval."""

    p_hat: float
    ci_low: float
    ci_high: float
    trials: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.ci_low <= self.p_hat <= self.ci_high <= 1.0:
            raise ValueError("need 0 <= ci_low <= p_hat <= ci_high <= 1")

    @property
    def low_confidence(self) -> bool:
        """True when too few outage events were seen to trust the estimate."""
        return self.p_hat * self.trials < _MIN_HITS


def _wilson(successes: int, trials: int, ci_level: float) -> OutageEstimate:
    # Wilson over Wald: stays valid for the ~1e-4 tail probabilities where
    # Wald intervals collapse or go negative.
    z = NormalDist().inv_cdf(0.5 + ci_level / 2.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    # The interval contains the point estimate analytically; the min/max
    # guards keep that true against roundoff at successes = 0 or trials.
    return OutageEstimate(
        p_hat=p,
        ci_low=min(max(0.0, center - half), p),
        ci_high=max(min(1.0, center + half), p),
        trials=trials,
    )


def _block_rng(seed: int, block: int) -> np.random.Generator:
    entropy = seed & 0xFFFFFFFFFFFFFFFF
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=entropy, spawn_key=(block,)))
    )


def _run_blocks(kernel, cfg: MCConfig, workers: int) -> list[OutageEstimate]:
    """kernel(rng, n) -> outage counts, one per distinct SNR, for one block
    of n trials."""
    sizes = [_BLOCK] * (cfg.trials // _BLOCK)
    if cfg.trials % _BLOCK:
        sizes.append(cfg.trials % _BLOCK)

    def one(block: int) -> np.ndarray:
        return kernel(_block_rng(cfg.seed, block), sizes[block])

    if workers > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            hits = sum(pool.map(one, range(len(sizes))))
    else:
        hits = sum(one(i) for i in range(len(sizes)))
    return [_wilson(int(h), cfg.trials, cfg.ci_level) for h in hits]


def _snr_axis(links_per_row: list[list[tuple[channel.SRParams, channel.LinkSNR]]]):
    """Where a curve's rows sit on its SNR axis: (factors, first, pos).

    factors are the distinct eta_row / eta_lowest in ascending order
    (factors[0] == 1.0 exactly), first[j] is the first row at factors[j],
    and pos[i] is the index of row i's factor.
    """
    if not links_per_row:
        raise ValueError("a curve needs at least one row")
    shape = [p for p, _ in links_per_row[0]]
    if any([p for p, _ in links] != shape for links in links_per_row):
        raise ValueError("rows of a curve must share fading parameters and satellite count")
    etas = np.array([[link.eta for _, link in links] for links in links_per_row])
    ratios = etas / etas[np.argmin(etas[:, 0])]
    if not np.allclose(ratios, ratios[:, :1], rtol=1e-9, atol=0.0):
        raise ValueError("the links of a curve's rows must differ by one SNR factor")
    return np.unique(ratios[:, 0], return_index=True, return_inverse=True)


def _leading_outages(num: np.ndarray, den: np.ndarray, offsets, limits) -> np.ndarray:
    """Per trial, the number of leading rows j = 0, 1, ... at which
    num / (den + offsets[j]) <= limits[j].

    Row 0 compares num / den itself, so it is the one-row arithmetic bit
    for bit.  A trial out of outage at one row stays out at every later
    (higher-SNR) row, which `live` keeps exact under roundoff too.  Rows
    are evaluated one slice of trials at a time, so the temporaries stay
    small, and a slice stops once none of its trials is in outage.
    """
    count = np.zeros(num.size, np.min_scalar_type(len(limits)))
    for lo in range(0, num.size, _SLICE):
        n, d, c = num[lo : lo + _SLICE], den[lo : lo + _SLICE], count[lo : lo + _SLICE]
        live = n / d <= limits[0]
        c += live
        for off, limit in zip(offsets[1:], limits[1:]):
            if not live.any():
                break
            live &= n / (d + off) <= limit
            c += live
    return count


def _row_hits(count: np.ndarray, rows: int) -> np.ndarray:
    """Row j's outage count: the trials in outage at more than j leading rows."""
    return np.array([np.count_nonzero(count > j) for j in range(rows)], dtype=np.int64)


def _hop_snr(hop: HopPair, rng: np.random.Generator, n: int):
    """(Lambda_ns, Lambda_sg) for n trials of one satellite, ns first."""
    lam_ns = channel.sample_sum(*hop.ns, 1, rng, size=n)
    lam_sg = channel.sample_sum(*hop.sg, 1, rng, size=n)
    return lam_ns, lam_sg


def _relayed(lam_ns: np.ndarray, lam_sg: np.ndarray):
    """Numerator and denominator of the variable-gain end-to-end SNR
    sg*ns / (sg + 1 + ns)."""
    return lam_sg * lam_ns, lam_sg + 1.0 + lam_ns


def _relayed_rows(factors: np.ndarray, g: float):
    """(offsets, limits) of `_leading_outages` for relayed SNRs whose hops
    are scaled by f: (f sg)(f ns) / (f sg + 1 + f ns) <= g is the event
    sg*ns / ((sg + 1 + ns) + (1/f - 1)) <= g / f."""
    return 1.0 / factors - 1.0, g / factors


def _side_sum(links, rng: np.random.Generator, n: int) -> np.ndarray:
    """Sum of one side's hop SNRs: one k-fold draw per distinct
    (SRParams, LinkSNR) pair, in first-appearance order."""
    # reduce, not sum: sum would copy the first draw into 0 + draw.
    return reduce(
        operator.add,
        (channel.sample_sum(p, link, k, rng, size=n) for (p, link), k in Counter(links).items()),
    )


def _hop_links(hops_per_sat: list[HopPair]) -> list[tuple[channel.SRParams, channel.LinkSNR]]:
    if not hops_per_sat:
        raise ValueError("need at least one satellite")
    return [h.ns for h in hops_per_sat] + [h.sg for h in hops_per_sat]


def simulate_ss_curve(
    curve: list[HopPair], thr: Threshold, cfg: MCConfig, workers: int = 1
) -> list[OutageEstimate]:
    """Single satellite at every row of a curve, one estimate per row."""
    factors, first, pos = _snr_axis([[hop.ns, hop.sg] for hop in curve])
    hop = curve[first[0]]
    rows = _relayed_rows(factors, thr.gamma_th)

    def kernel(rng: np.random.Generator, n: int) -> np.ndarray:
        count = _leading_outages(*_relayed(*_hop_snr(hop, rng, n)), *rows)
        return _row_hits(count, factors.size)

    estimates = _run_blocks(kernel, cfg, workers)
    return [estimates[j] for j in pos]


def simulate_sc_curve(
    curve: list[list[HopPair]], thr: Threshold, cfg: MCConfig, workers: int = 1
) -> list[OutageEstimate]:
    """Selection combining at every row of a curve, one estimate per row."""
    factors, first, pos = _snr_axis([_hop_links(hops) for hops in curve])
    head, *rest = curve[first[0]]
    g = thr.gamma_th
    # Lambda_ns <= g at the highest SNR: in outage at every row.
    floor = g / factors[-1]
    rows = _relayed_rows(factors, g)

    def kernel(rng: np.random.Generator, n: int) -> np.ndarray:
        count = _leading_outages(*_relayed(*_hop_snr(head, rng, n)), *rows)
        # A trial out of outage at the lowest SNR counts at no row, so only
        # the counts of the trials still in outage are kept, in trial order.
        # Counters move through index arrays (several times faster than
        # boolean masks), built only after a branch's draws, so they never
        # sit beside a sampler call; the draws are thinned by boolean masks.
        count = count[np.flatnonzero(count)]
        for hop in rest:
            if not count.size:
                break
            lam_ns = channel.sample_sum(*hop.ns, 1, rng, size=count.size)
            over = lam_ns > floor
            lam_ns = lam_ns[over]
            lam_sg = channel.sample_sum(*hop.sg, 1, rng, size=lam_ns.size)
            branch = _leading_outages(*_relayed(lam_ns, lam_sg), *rows)
            at = np.flatnonzero(over)
            count[at] = np.minimum(count[at], branch)
            count = count[np.flatnonzero(count)]
            # Free this branch's arrays before the next branch draws its own.
            del lam_ns, lam_sg, over, at, branch
        return _row_hits(count, factors.size)

    estimates = _run_blocks(kernel, cfg, workers)
    return [estimates[j] for j in pos]


def simulate_mrc_curve(
    curve: list[list[HopPair]], thr: Threshold, cfg: MCConfig, workers: int = 1
) -> list[OutageEstimate]:
    """Maximal ratio combining at every row of a curve, one estimate per row,
    each row with its own fixed-gain constant C_m."""
    factors, first, pos = _snr_axis([_hop_links(hops) for hops in curve])
    hops = curve[first[0]]
    g = thr.gamma_th
    # sum(ns) <= g at the highest SNR: in outage at every row.
    floor = g / factors[-1]
    cms = np.array([c_mrc([h.ns for h in curve[i]]) for i in first])
    # (f sg)(f ns) / (f sg + C_m) <= g is the event
    # sg*ns / ((sg + C_m0) + (C_m / f - C_m0)) <= g / f.
    offsets, limits = cms / factors - cms[0], g / factors

    def kernel(rng: np.random.Generator, n: int) -> np.ndarray:
        sum_ns = _side_sum([h.ns for h in hops], rng, n)
        sum_ns = sum_ns[sum_ns > floor]
        sum_sg = _side_sum([h.sg for h in hops], rng, sum_ns.size)
        count = _leading_outages(sum_sg * sum_ns, sum_sg + cms[0], offsets, limits)
        return n - sum_ns.size + _row_hits(count, factors.size)

    estimates = _run_blocks(kernel, cfg, workers)
    return [estimates[j] for j in pos]


def simulate_ss(hops: HopPair, thr: Threshold, cfg: MCConfig, workers: int = 1) -> OutageEstimate:
    """Single satellite, variable gain: Lambda_GS = sg*ns / (sg + 1 + ns)."""
    return simulate_ss_curve([hops], thr, cfg, workers)[0]


def simulate_sc(
    hops_per_sat: list[HopPair], thr: Threshold, cfg: MCConfig, workers: int = 1
) -> OutageEstimate:
    """Selection combining: outage iff the best branch SNR is at or below gamma."""
    return simulate_sc_curve([hops_per_sat], thr, cfg, workers)[0]


def simulate_mrc(
    hops_per_sat: list[HopPair], thr: Threshold, cfg: MCConfig, workers: int = 1
) -> OutageEstimate:
    """Maximal ratio combining with the fixed gain constant C_m:
    Lambda_GS = sum(sg) * sum(ns) / (sum(sg) + C_m)."""
    return simulate_mrc_curve([hops_per_sat], thr, cfg, workers)[0]
