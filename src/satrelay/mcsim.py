"""Seeded Monte Carlo oracle for the three combining schemes.

The unit of simulation is a *curve*: a (K x SNR) grid of rows of one
scheme and one pair of fading conditions, such as fig3's K = 2..6 at one
SNR or fig1's one K over eleven SNRs.  Every row's hop list is a prefix of
the curve's longest list, and the rows' links differ by one SNR factor;
every (K, SNR) pair of the grid must be present.  Selection combining
over one satellite is the single-satellite scheme (SS), so there are two
curve kernels, `simulate_sc_curve` (SS rows are its one-satellite rows)
and `simulate_mrc_curve`, each returning one estimate per row from one
draw set.
Every SNR is drawn once, at the links of the longest list at the lowest
SNR, and scaled by eta_row / eta_lowest for each row; the factor is
exactly 1.0 for a one-row curve.  Each row's outage event is tested on the
unscaled draws in an equivalent form divided by the factor, so the lowest
row, and a one-row curve, use the single-row arithmetic bit for bit.  A
transmit SNR only scales the drawn variates, so every row's hit count
keeps its exact Binomial(n, p(eta)) law.  Every end-to-end SNR here grows
with that factor, so a trial out of outage at one row stays out at every
higher-SNR row: each trial keeps the number of leading rows (in ascending
SNR) at which it is in outage, row j counts the trials with more than j,
and at one seed the hit count never rises with SNR within a curve.  It
grows with K too, so a trial out of outage at the lowest SNR needs no more
draws at larger K, and at one seed the hit count never rises with K.
A curve of one K draws exactly as it did before curves spanned K, and in
a curve of several K the smallest K's rows draw as that K's curve alone.
`simulate_ss`, `simulate_sc` and `simulate_mrc` are the one-row curves;
`simulate_ss(hop)` is `simulate_sc([hop])`.

Trials are partitioned into fixed-size blocks; block i draws from an
independent substream keyed by (seed, i) via SeedSequence spawn keys over
a Philox counter-based generator.  Because the block layout never depends
on the worker count, sequential and parallel runs produce bit-identical
estimates.

Every SNR is drawn with `channel.sample_sum`, the exact Erlang-mixture
sampler (one binomial and one gamma draw per sample, no trigonometry).
A block draws only the variates that can still change one of its rows'
outage counts, in a fixed order:

- SC (and SS, its one-satellite case): the first branch draws n ns, then
  n sg.  Branch k >= 2 draws ns only for the trials still in outage at
  the lowest SNR after branches 1..k-1, then sg only for those
  with Lambda_ns > gamma at the highest SNR, since Lambda_ns <= gamma
  already forces Lambda_GS < gamma at every row.  Which draw goes to which
  trial depends only on earlier draws, and branches are independent, so
  every row's count keeps its exact law.  Row K reads its counts right
  after branch K, so a branch is drawn once for every K of the curve.
- MRC: running sums over the curve's satellite counts K_1 < K_2 < ...
  Each side's sum draws one k-fold sum per distinct (SRParams, LinkSNR)
  pair of the links it adds, in first-appearance order.  At K_1: the ns
  sums for all n trials, then the sg sums only where the ns sum at the
  highest SNR exceeds gamma, since Lambda_GS < sum(ns) whenever C_m > 0.
  At each later K, for the trials still in outage at the lowest SNR: the
  ns sums grow by the next links, the sg sums drawn before grow by the
  next links, and a trial whose ns sum passes gamma for the first time
  draws its whole K-fold sg sum.  Each (K, SNR) row uses its own C_m.  An
  i.i.d. list costs one binomial and one gamma draw per side and K; a
  non-i.i.d. list stays exact.

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
    """kernel(rng, n) -> outage counts, one per cell of the curve's
    (K x SNR) grid, for one block of n trials."""
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


def _grid(curve: list[list[HopPair]]):
    """Where a curve's rows sit on its (K, SNR) grid: (hops, ks, factors, first, cells).

    ks are the distinct satellite counts and factors the distinct
    eta_row / eta_lowest (factors[0] == 1.0 exactly), both ascending.
    first[a, b] is the first row at (ks[a], factors[b]), and row i sits at
    the flat cell cells[i] = a * factors.size + b.  hops is the hop list of
    the first row at the largest K and the lowest SNR, whose links every
    draw is made at.
    """
    if not curve:
        raise ValueError("a curve needs at least one row")
    if not all(curve):
        raise ValueError("need at least one satellite")
    longest = max(curve, key=len)
    shape = [(h.ns[0], h.sg[0]) for h in longest]
    if any([(h.ns[0], h.sg[0]) for h in hops] != shape[: len(hops)] for hops in curve):
        raise ValueError("the hop lists of a curve must be prefixes of one list of fading parameters")
    etas = [np.array([[h.ns[1].eta, h.sg[1].eta] for h in hops]) for hops in curve]
    base = np.array([[h.ns[1].eta, h.sg[1].eta] for h in longest])
    for row in etas:
        ratios = row / base[: len(row)]
        if not np.allclose(ratios, ratios[0, 0], rtol=1e-9, atol=0.0):
            raise ValueError("the links of a curve's rows must differ by one SNR factor")
    lead = np.array([row[0, 0] for row in etas])
    factors, fpos = np.unique(lead / lead.min(), return_inverse=True)
    ks, kpos = np.unique([len(hops) for hops in curve], return_inverse=True)
    cells = kpos * factors.size + fpos
    found, first = np.unique(cells, return_index=True)
    if found.size != ks.size * factors.size:
        raise ValueError("a curve's rows must cover every pair of its satellite counts and SNRs")
    first = first.reshape(ks.size, factors.size)
    return curve[first[-1, 0]], ks, factors, first, cells


def _leading_outages(num: np.ndarray, den: np.ndarray, offsets, limits, shift=0.0) -> np.ndarray:
    """Per trial, the number of leading rows j = 0, 1, ... at which
    num / ((den + shift) + offsets[j]) <= limits[j].

    Row 0 compares num / (den + shift) itself, so it is the one-row
    arithmetic bit for bit; den + shift is formed one slice at a time.  A trial out of outage at one row stays out at every later
    (higher-SNR) row, which `live` keeps exact under roundoff too.  Rows
    are evaluated one slice of trials at a time, so the temporaries stay
    small, and a slice stops once none of its trials is in outage.
    """
    count = np.zeros(num.size, np.min_scalar_type(len(limits)))
    for lo in range(0, num.size, _SLICE):
        n, d, c = num[lo : lo + _SLICE], den[lo : lo + _SLICE], count[lo : lo + _SLICE]
        if shift:
            d = d + shift
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


def _relayed(lam_ns: np.ndarray, lam_sg: np.ndarray):
    """Numerator and denominator of the variable-gain end-to-end SNR
    sg*ns / (sg + 1 + ns); the numerator overwrites lam_sg."""
    den = lam_sg + 1.0
    den += lam_ns
    lam_sg *= lam_ns
    return lam_sg, den


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


def simulate_sc_curve(
    curve: list[list[HopPair]], thr: Threshold, cfg: MCConfig, workers: int = 1
) -> list[OutageEstimate]:
    """Selection combining at every row of a curve, one estimate per row;
    SS rows are its rows of one satellite."""
    hops, ks, factors, _, cells = _grid(curve)
    at = {int(k): a for a, k in enumerate(ks)}
    g = thr.gamma_th
    # Lambda_ns <= g at the highest SNR: in outage at every row.
    floor = g / factors[-1]
    rows = _relayed_rows(factors, g)

    def kernel(rng: np.random.Generator, n: int) -> np.ndarray:
        hits = np.zeros((ks.size, factors.size), np.int64)
        for k, hop in enumerate(hops, 1):
            if k == 1:
                lam_ns = channel.sample_sum(*hop.ns, 1, rng, size=n)
                lam_sg = channel.sample_sum(*hop.sg, 1, rng, size=n)
                count = _leading_outages(*_relayed(lam_ns, lam_sg), *rows)
                del lam_ns, lam_sg
            elif count.size:
                # Counters move through index arrays (several times faster
                # than boolean masks), built only after a branch's draws, so
                # they never sit beside a sampler call; the draws are
                # thinned by boolean masks.
                lam_ns = channel.sample_sum(*hop.ns, 1, rng, size=count.size)
                over = lam_ns > floor
                lam_ns = lam_ns[over]
                lam_sg = channel.sample_sum(*hop.sg, 1, rng, size=lam_ns.size)
                branch = _leading_outages(*_relayed(lam_ns, lam_sg), *rows)
                idx = np.flatnonzero(over)
                count[idx] = np.minimum(count[idx], branch)
                # Free this branch's arrays before the next branch draws its own.
                del lam_ns, lam_sg, over, idx, branch
            # A trial out of outage at the lowest SNR counts at no row, so
            # only the counts of the trials still in outage are kept, in
            # trial order; row K reads them right after branch K.
            count = count[np.flatnonzero(count)]
            if k in at:
                hits[at[k]] = _row_hits(count, factors.size)
        return hits.ravel()

    estimates = _run_blocks(kernel, cfg, workers)
    return [estimates[c] for c in cells]


def simulate_mrc_curve(
    curve: list[list[HopPair]], thr: Threshold, cfg: MCConfig, workers: int = 1
) -> list[OutageEstimate]:
    """Maximal ratio combining at every row of a curve, one estimate per row,
    each row with its own fixed-gain constant C_m."""
    hops, ks, factors, first, cells = _grid(curve)
    ns_links, sg_links = [h.ns for h in hops], [h.sg for h in hops]
    g = thr.gamma_th
    # sum(ns) <= g at the highest SNR: in outage at every row.
    floor = g / factors[-1]
    cms = np.array([[c_mrc([h.ns for h in curve[i]]) for i in row] for row in first])
    # Per satellite count, (f sg)(f ns) / (f sg + C_m) <= g is the event
    # sg*ns / ((sg + C_m0) + (C_m / f - C_m0)) <= g / f.
    offsets, limits = cms / factors - cms[:, :1], g / factors

    def kernel(rng: np.random.Generator, n: int) -> np.ndarray:
        hits = np.zeros((ks.size, factors.size), np.int64)
        prev = 0
        for a, k in enumerate(ks):
            # Running sums: a trial's ns sum grows by the next links' draws;
            # its sg sum is drawn whole when the ns sum first passes the
            # floor and grows by the next links' draws after that.
            if a == 0:
                sum_ns = _side_sum(ns_links[:k], rng, n)
                over = sum_ns > floor
                sum_sg = _side_sum(sg_links[:k], rng, np.count_nonzero(over))
            elif not sum_ns.size:
                break
            else:
                sum_ns += _side_sum(ns_links[prev:k], rng, sum_ns.size)
                sum_sg += _side_sum(sg_links[prev:k], rng, sum_sg.size)
                now = sum_ns > floor
                kept = over[now]
                grown = np.empty(kept.size)
                grown[kept] = sum_sg
                del sum_sg
                grown[~kept] = _side_sum(sg_links[:k], rng, kept.size - np.count_nonzero(kept))
                sum_sg, over = grown, now
            num = sum_ns[over]
            under = sum_ns.size - num.size
            if a + 1 == ks.size:
                del sum_ns  # not needed after the largest K
            num *= sum_sg
            lead = _leading_outages(num, sum_sg, offsets[a], limits, cms[a, 0])
            del num
            if a:
                # Lambda_GS rises with K at every trial; the minimum keeps
                # that exact under roundoff.
                lead[kept] = np.minimum(lead[kept], count)
            hits[a] = under + _row_hits(lead, factors.size)
            if a + 1 < ks.size:
                # A trial out of outage at the lowest SNR stays out at every
                # larger K, so only the trials still in outage are kept.
                live = lead > 0
                keep = ~over
                keep[over] = live
                sum_ns, over = sum_ns[keep], over[keep]
                sum_sg, count = sum_sg[live], lead[live]
            prev = k
        return hits.ravel()

    estimates = _run_blocks(kernel, cfg, workers)
    return [estimates[c] for c in cells]


def simulate_ss(hops: HopPair, thr: Threshold, cfg: MCConfig, workers: int = 1) -> OutageEstimate:
    """Single satellite, variable gain: Lambda_GS = sg*ns / (sg + 1 + ns),
    simulated as selection combining over that one satellite."""
    return simulate_sc_curve([[hops]], thr, cfg, workers)[0]


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
