"""Seeded Monte Carlo oracle for the three combining schemes.

Trials are partitioned into fixed-size blocks; block i draws from an
independent substream keyed by (seed, i) via SeedSequence spawn keys over
a Philox counter-based generator.  Because the block layout never depends
on the worker count, sequential and parallel runs produce bit-identical
estimates.

Every SNR is drawn with `channel.sample_sum`, the exact Erlang-mixture
sampler (one binomial and one gamma draw per sample, no trigonometry).
Within a block the draw order is fixed:

- SS and SC: one single-hop draw per hop, ns then sg, satellite by
  satellite, so SC with one satellite draws exactly like SS and the SC
  branches of K satellites are the first K of any larger set.
- MRC: one K-fold sum per distinct (SRParams, LinkSNR) pair on each side,
  the ns sums first, then the sg sums, each in first-appearance order.  An
  i.i.d. list costs one binomial and one gamma draw per side; a non-i.i.d.
  list stays exact.

`channel.sample` keeps the physical construction (LoS amplitude, phase and
complex Gaussian), so the CDF checks and the mixture sampler are checked
against an independent draw.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
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


def _branch_snrs(hops: list[HopPair], rng: np.random.Generator, n: int):
    """Per-branch (Lambda_ns, Lambda_sg) draws in fixed satellite order."""
    for hop in hops:
        lam_ns = channel.sample_sum(hop.ns[0], hop.ns[1], 1, rng, size=n)
        lam_sg = channel.sample_sum(hop.sg[0], hop.sg[1], 1, rng, size=n)
        yield lam_ns, lam_sg


def _side_sum(links, rng: np.random.Generator, n: int) -> np.ndarray:
    """Sum of one side's hop SNRs: one k-fold draw per distinct
    (SRParams, LinkSNR) pair, in first-appearance order."""
    return sum(
        channel.sample_sum(p, link, k, rng, size=n) for (p, link), k in Counter(links).items()
    )


def simulate_ss(hops: HopPair, thr: Threshold, cfg: MCConfig, workers: int = 1) -> OutageEstimate:
    """Single satellite, variable gain: Lambda_GS = sg*ns / (sg + 1 + ns)."""
    g = thr.gamma_th

    def kernel(rng: np.random.Generator, n: int) -> int:
        lam_ns, lam_sg = next(_branch_snrs([hops], rng, n))
        snr = lam_sg * lam_ns / (lam_sg + 1.0 + lam_ns)
        return int(np.count_nonzero(snr <= g))

    return _run_blocks(kernel, cfg, workers)


def simulate_sc(
    hops_per_sat: list[HopPair], thr: Threshold, cfg: MCConfig, workers: int = 1
) -> OutageEstimate:
    """Selection combining: outage iff the best branch SNR is at or below gamma."""
    if not hops_per_sat:
        raise ValueError("need at least one satellite")
    g = thr.gamma_th

    def kernel(rng: np.random.Generator, n: int) -> int:
        best = None
        for lam_ns, lam_sg in _branch_snrs(hops_per_sat, rng, n):
            snr = lam_sg * lam_ns / (lam_sg + 1.0 + lam_ns)
            best = snr if best is None else np.maximum(best, snr)
        return int(np.count_nonzero(best <= g))

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
        sum_sg = _side_sum([h.sg for h in hops_per_sat], rng, n)
        snr = sum_sg * sum_ns / (sum_sg + cm)
        return int(np.count_nonzero(snr <= g))

    return _run_blocks(kernel, cfg, workers)
