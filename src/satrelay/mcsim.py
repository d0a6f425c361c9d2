"""Seeded Monte Carlo oracle for the three combining schemes.

Trials are partitioned into fixed-size blocks; block i draws from an
independent substream keyed by (seed, i) via SeedSequence spawn keys over
a Philox counter-based generator.  Because the block layout never depends
on the worker count, sequential and parallel runs produce bit-identical
estimates.

Every SNR is drawn with `channel.sample_sum`, the exact Erlang-mixture
sampler (one binomial and one gamma draw per sample, no trigonometry).
A block draws only the variates that can still change its outage count,
in a fixed order:

- SS: n ns draws, then n sg draws.
- SC: the first branch draws exactly like SS (so SC with one satellite is
  SS, bit for bit).  Branch k >= 2 draws ns only for the trials still in
  outage after branches 1..k-1, then sg only for those with
  Lambda_ns > gamma, since Lambda_ns <= gamma already forces
  Lambda_GS < gamma.  Branches are independent, so given the previous
  count the trials left in outage are Binomial(count, p_k) and the count
  keeps its exact law.  The first K branches are shared across K, so at
  one seed the count never rises with K.
- MRC: one K-fold sum per distinct (SRParams, LinkSNR) pair on each side,
  each in first-appearance order: the ns sums for all n trials, then the
  sg sums only where the ns sum exceeds gamma, since
  Lambda_GS < sum(ns) whenever C_m > 0.  An i.i.d. list costs one binomial
  and one gamma draw per side; a non-i.i.d. list stays exact.

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

__all__ = ["MCConfig", "OutageEstimate", "simulate_ss", "simulate_sc", "simulate_mrc"]

# Fixed substream granularity; must not vary with worker count.
_BLOCK = 1 << 19

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


def _run_blocks(kernel, cfg: MCConfig, workers: int) -> OutageEstimate:
    """kernel(rng, n) -> outage count for one block of n trials."""
    sizes = [_BLOCK] * (cfg.trials // _BLOCK)
    if cfg.trials % _BLOCK:
        sizes.append(cfg.trials % _BLOCK)

    def one(block: int) -> int:
        return kernel(_block_rng(cfg.seed, block), sizes[block])

    if workers > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            hits = sum(pool.map(one, range(len(sizes))))
    else:
        hits = sum(one(i) for i in range(len(sizes)))
    return _wilson(hits, cfg.trials, cfg.ci_level)


def _hop_snr(hop: HopPair, rng: np.random.Generator, n: int):
    """(Lambda_ns, Lambda_sg) for n trials of one satellite, ns first."""
    lam_ns = channel.sample_sum(*hop.ns, 1, rng, size=n)
    lam_sg = channel.sample_sum(*hop.sg, 1, rng, size=n)
    return lam_ns, lam_sg


def _relayed(lam_ns: np.ndarray, lam_sg: np.ndarray) -> np.ndarray:
    """Variable-gain end-to-end SNR sg*ns / (sg + 1 + ns)."""
    return lam_sg * lam_ns / (lam_sg + 1.0 + lam_ns)


def _side_sum(links, rng: np.random.Generator, n: int) -> np.ndarray:
    """Sum of one side's hop SNRs: one k-fold draw per distinct
    (SRParams, LinkSNR) pair, in first-appearance order."""
    # reduce, not sum: sum would copy the first draw into 0 + draw.
    return reduce(
        operator.add,
        (channel.sample_sum(p, link, k, rng, size=n) for (p, link), k in Counter(links).items()),
    )


def simulate_ss(hops: HopPair, thr: Threshold, cfg: MCConfig, workers: int = 1) -> OutageEstimate:
    """Single satellite, variable gain: Lambda_GS = sg*ns / (sg + 1 + ns)."""
    g = thr.gamma_th

    def kernel(rng: np.random.Generator, n: int) -> int:
        return int(np.count_nonzero(_relayed(*_hop_snr(hops, rng, n)) <= g))

    return _run_blocks(kernel, cfg, workers)


def simulate_sc(
    hops_per_sat: list[HopPair], thr: Threshold, cfg: MCConfig, workers: int = 1
) -> OutageEstimate:
    """Selection combining: outage iff the best branch SNR is at or below gamma."""
    if not hops_per_sat:
        raise ValueError("need at least one satellite")
    g = thr.gamma_th
    first, *rest = hops_per_sat

    def kernel(rng: np.random.Generator, n: int) -> int:
        alive = int(np.count_nonzero(_relayed(*_hop_snr(first, rng, n)) <= g))
        for hop in rest:
            if not alive:
                break
            lam_ns = channel.sample_sum(*hop.ns, 1, rng, size=alive)
            lam_ns = lam_ns[lam_ns > g]
            lam_sg = channel.sample_sum(*hop.sg, 1, rng, size=lam_ns.size)
            alive += int(np.count_nonzero(_relayed(lam_ns, lam_sg) <= g)) - lam_ns.size
        return alive

    return _run_blocks(kernel, cfg, workers)


def simulate_mrc(
    hops_per_sat: list[HopPair], thr: Threshold, cfg: MCConfig, workers: int = 1
) -> OutageEstimate:
    """Maximal ratio combining with the fixed gain constant C_m:
    Lambda_GS = sum(sg) * sum(ns) / (sum(sg) + C_m)."""
    if not hops_per_sat:
        raise ValueError("need at least one satellite")
    g = thr.gamma_th
    cm = c_mrc([h.ns for h in hops_per_sat])

    def kernel(rng: np.random.Generator, n: int) -> int:
        sum_ns = _side_sum([h.ns for h in hops_per_sat], rng, n)
        sum_ns = sum_ns[sum_ns > g]
        sum_sg = _side_sum([h.sg for h in hops_per_sat], rng, sum_ns.size)
        snr = sum_sg * sum_ns / (sum_sg + cm)
        return n - sum_ns.size + int(np.count_nonzero(snr <= g))

    return _run_blocks(kernel, cfg, workers)
