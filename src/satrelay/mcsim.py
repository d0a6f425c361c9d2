"""Seeded Monte Carlo oracle for the three combining schemes.

The unit of simulation is a *curve*: the (K x SNR) grid of one kernel and
one pair of fading conditions, such as fig3's K = 2..6 at one SNR or
fig1's MRC curve, one K over eleven SNRs.  A curve comes as (hops, ks,
factors): hops is the largest K's hop list at the lowest SNR, ks are the
ascending satellite counts, ending at len(hops), and factors are the
ascending SNR factors over that lowest SNR, starting at exactly 1.0.
Cell (a, b), a row, is the first ks[a] satellites with both hops' SNRs
scaled by factors[b].  Selection combining over one satellite is the
single-satellite scheme (SS), so there are two curve kinds, "SC" (SS rows
are its one-satellite rows) and "MRC", and `simulate_curves` returns one
estimate per cell of each curve, K-major, from one draw set: every SNR is
drawn once, at the links of `hops`.  Each row's outage event is tested on
these draws in an equivalent form divided by its factor, so the first
factor, and a one-row curve, use the single-row arithmetic bit for bit.  A
transmit SNR only scales the drawn variates, so every row's hit count
keeps its exact Binomial(n, p(eta)) law.  Every end-to-end SNR here grows
with that factor, so a trial out of outage at one row stays out at every
higher-SNR row: each trial keeps the number of leading rows (in ascending
SNR) at which it is in outage, row j counts the trials with more than j,
and at one seed the hit count never rises with SNR within a curve.  It
grows with K too, so a trial out of outage at the lowest SNR needs no more
draws at larger K, and at one seed the hit count never rises with K.  In
a curve of several K, the smallest K's rows draw as that K's curve alone.
`simulate_ss`, `simulate_sc` and `simulate_mrc` are the one-cell curves;
`simulate_ss(hop)` is `simulate_sc([hop])`.

Trials are partitioned into fixed-size blocks; block i draws from an
independent substream keyed by (seed, i) via SeedSequence spawn keys over
an SFC64 generator.  Every call runs through `simulate_curves`, where each
(curve, block) pair of its curves is one task on one pool of `workers`
threads, the package's only threads.  The block layout never depends on
the worker count, so sequential and parallel runs give identical estimates.

Every SNR is drawn with `channel.sample_sum`, the exact Erlang-mixture
sampler (per sample, Gamma(K) plus Gamma(J) where the mixture index J is
not 0, or one binomial and one gamma draw where J = 0 is the rarer case;
no trigonometry).  A block draws only the variates that can still change
one of its rows' outage counts, in a fixed order:

- SC (and SS, its one-satellite case): every trial starts in outage at
  every row, and every branch draws alike.  Branch k draws the hop of the
  smaller mean SNR (ns on a tie; the event is symmetric in the two hops)
  for the trials still in outage at the lowest SNR after branches
  1..k-1, all n at k = 1.  It draws the other hop only where the first
  exceeds gamma / f, f the SNR factor of the trial's own last row still in
  outage: a first hop at or below that forces Lambda_GS < gamma at every
  row up to it, so the branch cannot lower the trial's count.  Which draw
  goes to which trial depends only on earlier draws, and branches are
  independent, so every row's count keeps its exact law.  Row K reads its
  counts right after branch K, so a branch is drawn once for every K of
  the curve.
- MRC: running sums over the curve's satellite counts K_1 < K_2 < ...
  Each side's sum draws one k-fold sum per distinct (SRParams, LinkSNR)
  pair of the links it adds, in first-appearance order.  At K_1: the ns
  sums for all n trials, then the sg sums only where the ns sum at the
  highest SNR exceeds gamma, since Lambda_GS < sum(ns) whenever C_m > 0.
  At each later K, for the trials still in outage at the lowest SNR: the
  ns sums grow by the next links, the sg sums drawn before grow by the
  next links, and a trial whose ns sum passes gamma for the first time
  draws its whole K-fold sg sum.  Each (K, SNR) row uses its own C_m.  An
  i.i.d. list costs one k-fold `sample_sum` draw per side and K; a
  non-i.i.d. list stays exact.

`channel.sample` keeps the physical construction (LoS amplitude, phase and
complex Gaussian), so the CDF checks and the mixture sampler are checked
against an independent draw.
"""

from __future__ import annotations

import math
import operator
import threading
from collections import Counter
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import channel
from .outage import HopPair, MCConfig, Threshold, c_mrc

__all__ = [
    "MCConfig",
    "OutageEstimate",
    "simulate_ss",
    "simulate_sc",
    "simulate_mrc",
    "simulate_curves",
]

# Fixed substream granularity; must not vary with worker count.
_BLOCK = 1 << 19

# Rows are evaluated over slices of this many trials, so a curve's
# per-row temporaries stay small whatever the block size.
_SLICE = 1 << 14

# Estimates with fewer hits than this cannot resolve the tail reliably.
_MIN_HITS = 20


@dataclass(frozen=True)
class OutageEstimate:
    """Outage estimate with a Wilson-score confidence interval."""

    p_hat: float
    ci_low: float
    ci_high: float
    trials: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "trials", channel._count(self.trials, "trials"))
        if not 0.0 <= self.ci_low <= self.p_hat <= self.ci_high <= 1.0:
            raise ValueError("need 0 <= ci_low <= p_hat <= ci_high <= 1")

    @property
    def low_confidence(self) -> bool:
        """True when too few outage events were seen to trust the estimate."""
        return self.p_hat * self.trials < _MIN_HITS


def _wilson(successes: int, trials: int, ci_level: float) -> OutageEstimate:
    # Wilson over Wald: stays valid for the ~1e-4 tail probabilities where
    # Wald intervals collapse or go negative.
    from statistics import NormalDist

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
        np.random.SFC64(np.random.SeedSequence(entropy=entropy, spawn_key=(block,)))
    )


def _run_curves(curves, workers: int) -> list[list[OutageEstimate]]:
    """One list of estimates per (kernel, cfg) curve, one per cell:
    kernel(rng, n) counts one block's outages per cell.  Every (curve,
    block) pair is one task, in curve-then-block order, on one pool of
    `workers` threads, or inline at one worker or one task.  Once a task
    raises, no further task starts, and the caller gets that error."""
    tasks = [
        (c, kernel, cfg.seed, block, min(_BLOCK, cfg.trials - start))
        for c, (kernel, cfg) in enumerate(curves)
        for block, start in enumerate(range(0, cfg.trials, _BLOCK))
    ]
    failed = threading.Event()

    def one(task) -> np.ndarray:
        # A worker takes the next task as soon as its own raises, before
        # Executor.map cancels the queue, so each task checks for an earlier
        # failure; tasks start in queue order, so the caller reads it first.
        if failed.is_set():
            raise CancelledError
        _, kernel, seed, block, n = task
        try:
            return kernel(_block_rng(seed, block), n)
        except BaseException:
            failed.set()
            raise

    if workers <= 1 or len(tasks) == 1:
        hits = list(map(one, tasks))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            hits = list(pool.map(one, tasks))
    out = []
    for c, (_, cfg) in enumerate(curves):
        total = sum(h for (owner, *_), h in zip(tasks, hits) if owner == c)
        out.append([_wilson(int(t), cfg.trials, cfg.ci_level) for t in total])
    return out


def _grid(hops: list[HopPair], ks, factors) -> tuple[list[int], np.ndarray]:
    """A curve's (ks, factors), once checked: each K passes the count rule
    and the ks ascend to len(hops); the factors are finite and ascend from
    exactly 1.0, and every link scaled by the last is a `LinkSNR`."""
    ks = [channel._count(k, "ks") for k in ks]
    if not (ks and ks[-1] == len(hops) and all(a < b for a, b in zip(ks, ks[1:]))):
        raise ValueError("a curve's satellite counts must ascend to its number of hop pairs")
    factors = np.asarray(factors, dtype=float)
    starts = factors.ndim == 1 and factors.size and factors[0] == 1.0
    if not (starts and np.all(np.isfinite(factors)) and np.all(np.diff(factors) >= 0.0)):
        raise ValueError("a curve's SNR factors must be finite and ascend from 1.0")
    for h in hops:
        channel.LinkSNR(max(h.ns[1].eta, h.sg[1].eta) * float(factors[-1]))
    return ks, factors


def _leading_outages(num: np.ndarray, den: np.ndarray, offsets, limits, shift=0.0) -> np.ndarray:
    """Per trial, the number of leading rows j = 0, 1, ... at which
    num / ((den + shift) + offsets[j]) <= limits[j].

    Row 0 compares num / (den + shift) itself, so it is the one-row
    arithmetic bit for bit; den + shift is formed one slice at a time.  A
    trial out of outage at one row stays out at every later (higher-SNR)
    row, which `live` keeps exact under roundoff too.  Rows are evaluated
    one slice of trials at a time, so the temporaries stay small, and a
    slice stops once none of its trials is in outage.
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


def _relayed(first: np.ndarray, second: np.ndarray):
    """Numerator and denominator of the variable-gain end-to-end SNR
    sg*ns / (sg + 1 + ns) of two hops drawn in either order (the SNR is
    symmetric in them), as second*first / (second + 1 + first); the
    numerator overwrites second."""
    den = second + 1.0
    den += first
    second *= first
    return second, den


def _side_sum(links, rng: np.random.Generator, n: int) -> np.ndarray:
    """Sum of one side's hop SNRs: one k-fold draw per distinct
    (SRParams, LinkSNR) pair, in first-appearance order."""
    # reduce, not sum: sum would copy the first draw into 0 + draw.
    return reduce(
        operator.add,
        (channel.sample_sum(p, link, k, rng, size=n) for (p, link), k in Counter(links).items()),
    )


def _sc_kernel(hops: list[HopPair], ks, factors, thr: Threshold):
    """The block kernel of an "SC" curve of `simulate_curves`."""
    ks, factors = _grid(hops, ks, factors)
    at = {k: a for a, k in enumerate(ks)}
    # (f sg)(f ns) / (f sg + 1 + f ns) <= g is the event
    # sg*ns / ((sg + 1 + ns) + (1/f - 1)) <= g / f.
    offsets, limits = 1.0 / factors - 1.0, thr.gamma_th / factors
    # lim_at[c] = limits[c - 1]: the limit of the last of c leading rows.
    lim_at = np.concatenate(([np.inf], limits))
    # The event is symmetric in the two hops, so each branch draws the hop
    # of the smaller mean SNR first (ns on a tie): fewer trials draw both.
    order = [
        (h.ns, h.sg) if channel.mean_snr(*h.ns) <= channel.mean_snr(*h.sg) else (h.sg, h.ns)
        for h in hops
    ]

    def kernel(rng: np.random.Generator, n: int) -> np.ndarray:
        hits = np.zeros((len(ks), factors.size), np.int64)
        # Before the first branch, every trial is in outage at every row.
        count = np.full(n, factors.size, np.min_scalar_type(factors.size))
        for k, (weak, strong) in enumerate(order, 1):
            if count.size:
                # A first hop at or below g / f, f the factor of the trial's
                # last row still in outage, keeps this branch in outage at
                # all of the trial's rows, so only the other trials draw the
                # second hop.  The draws are thinned through an index array:
                # at 10^5 trials, flatnonzero plus a gather takes about a
                # quarter of the time of compressing by the boolean mask.
                # The index costs 8 bytes a kept trial against the mask's
                # one byte a trial, and lives only until the branch's counts
                # are merged.
                first = channel.sample_sum(*weak, 1, rng, size=count.size)
                idx = np.flatnonzero(first > lim_at[count])
                first = first[idx]
                second = channel.sample_sum(*strong, 1, rng, size=idx.size)
                branch = _leading_outages(*_relayed(first, second), offsets, limits)
                count[idx] = np.minimum(count[idx], branch)
                # Free this branch's arrays before the next branch draws its own.
                del first, second, idx, branch
                # A trial out of outage at the lowest SNR counts at no row,
                # so only the counts of the trials still in outage are kept,
                # in trial order; row K reads them right after branch K.
                # Most of them are, and there a mask compacts the one-byte
                # counters faster than an index does.
                count = count[count > 0]
            if k in at:
                hits[at[k]] = _row_hits(count, factors.size)
        return hits.ravel()

    return kernel


def _mrc_kernel(hops: list[HopPair], ks, factors, thr: Threshold):
    """The block kernel of an "MRC" curve of `simulate_curves`."""
    ks, factors = _grid(hops, ks, factors)
    ns_links, sg_links = [h.ns for h in hops], [h.sg for h in hops]
    g = thr.gamma_th
    # sum(ns) <= g at the highest SNR: in outage at every row.
    floor = g / factors[-1]
    # Each cell's C_m from its own links: the first k ns links, scaled by f.
    scaled = [[(p, channel.LinkSNR(lk.eta * f)) for p, lk in ns_links] for f in factors.tolist()]
    cms = np.array([[c_mrc(links[:k]) for links in scaled] for k in ks])
    # Per satellite count, (f sg)(f ns) / (f sg + C_m) <= g is the event
    # sg*ns / ((sg + C_m0) + (C_m / f - C_m0)) <= g / f.
    offsets, limits = cms / factors - cms[:, :1], g / factors

    def kernel(rng: np.random.Generator, n: int) -> np.ndarray:
        hits = np.zeros((len(ks), factors.size), np.int64)
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
                # Among the trials over the floor now, the indices of those
                # over it before (their sg sums grow) and of the new ones.
                was = over[now]
                kept, fresh = np.flatnonzero(was), np.flatnonzero(~was)
                grown = np.empty(kept.size + fresh.size)
                grown[kept] = sum_sg
                del sum_sg
                grown[fresh] = _side_sum(sg_links[:k], rng, fresh.size)
                sum_sg, over = grown, now
            num = sum_ns[over]
            under = sum_ns.size - num.size
            if a + 1 == len(ks):
                del sum_ns  # not needed after the largest K
            num *= sum_sg
            lead = _leading_outages(num, sum_sg, offsets[a], limits, cms[a, 0])
            del num
            if a:
                # Lambda_GS rises with K at every trial; the minimum keeps
                # that exact under roundoff.
                lead[kept] = np.minimum(lead[kept], count)
            hits[a] = under + _row_hits(lead, factors.size)
            if a + 1 < len(ks):
                # A trial out of outage at the lowest SNR stays out at every
                # larger K, so only the trials still in outage are kept.
                # Index arrays gather these faster than boolean masks do.
                # `sum_ns[over]` above keeps its mask: most trials pass the
                # floor, and there the compress is the faster gather.
                live = lead > 0
                keep = ~over
                keep[over] = live
                keep, live = np.flatnonzero(keep), np.flatnonzero(live)
                sum_ns, over = sum_ns[keep], over[keep]
                sum_sg, count = sum_sg[live], lead[live]
            prev = k
        return hits.ravel()

    return kernel


def simulate_curves(curves, thr: Threshold, workers: int = 1) -> list[list[OutageEstimate]]:
    """One list of estimates per (kind, hops, ks, factors, cfg), kind "SC"
    or "MRC": hops is the largest K's hop list at the lowest SNR, ks the
    ascending satellite counts ending at len(hops), and factors the
    ascending SNR factors from exactly 1.0.  One estimate per (K, factor)
    cell, K-major; every curve's blocks share one pool (`_run_curves`) of
    `workers` threads, an integer >= 1 (a bool is refused)."""
    workers = channel._count(workers, "workers")
    kernels = {"SC": _sc_kernel, "MRC": _mrc_kernel}
    if any(kind not in kernels for kind, *_ in curves):
        raise ValueError("a curve's kind must be SC or MRC")
    runs = [(kernels[kind](hops, ks, factors, thr), cfg) for kind, hops, ks, factors, cfg in curves]
    return _run_curves(runs, workers)


def simulate_ss(hops: HopPair, thr: Threshold, cfg: MCConfig, workers: int = 1) -> OutageEstimate:
    """Single satellite, variable gain: Lambda_GS = sg*ns / (sg + 1 + ns),
    simulated as selection combining over that one satellite."""
    return simulate_curves([("SC", [hops], [1], [1.0], cfg)], thr, workers)[0][0]


def simulate_sc(
    hops_per_sat: list[HopPair], thr: Threshold, cfg: MCConfig, workers: int = 1
) -> OutageEstimate:
    """Selection combining: outage iff the best branch SNR is at or below gamma."""
    k = len(hops_per_sat)
    return simulate_curves([("SC", hops_per_sat, [k], [1.0], cfg)], thr, workers)[0][0]


def simulate_mrc(
    hops_per_sat: list[HopPair], thr: Threshold, cfg: MCConfig, workers: int = 1
) -> OutageEstimate:
    """Maximal ratio combining with the fixed gain constant C_m:
    Lambda_GS = sum(sg) * sum(ns) / (sum(sg) + C_m)."""
    k = len(hops_per_sat)
    return simulate_curves([("MRC", hops_per_sat, [k], [1.0], cfg)], thr, workers)[0][0]
