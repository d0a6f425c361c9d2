"""Shadowed-Rician instantaneous-SNR distribution.

The model: a Rician link whose line-of-sight amplitude is itself
Nakagami-m distributed.  All computations happen on the instantaneous
SNR Lambda = eta * |h|^2; the severity integer m, half multipath power b,
and LoS power omega fully describe |h|^2.

For integer m, Lambda is an exact finite Erlang mixture: a
Gamma(j + 1, scale eta/theta) law with theta = beta - delta, taken with the
Binomial(m - 1, delta/beta) probability of j.  The PDF / CDF / survival
function / mean and the K-fold sum sampler all read that mixture.  The
sampler draws a K-fold sum as Gamma(K) plus Gamma(J), the second part only
where the mixture index J is not 0, or as one Gamma(K + J) where J = 0 is
the rarer case.  Also provided: a constructive (physical) sampler, the CDF
of a K-fold i.i.d. sum (via log-scaled Whittaker functions: one batched
1F1 series table per chunk of at most `_CELLS` cells), and the
linearized high-SNR approximations of both CDFs.  A K-fold sum law is named by its `SRParams`
and K alone: `sum_cdf` takes its constants from the params, and its
`SumSRContext` carries only K.  `_count` is the package's one check of
an integer input (m, K, M, trials, seed, workers, row indices, a Monte
Carlo curve's ks and `OutageEstimate.trials`).

Each law's constants are computed once and shared read-only: alpha, beta,
delta and the mixture once per `SRParams` object (`_Law`, kept on it as
`_law`), and each K-fold sum's 1F1 rows, log-constant columns and sampler
table once per (params object, K), so `sum_cdf` computes only z, ln(x/eta),
the series table and the assembly.  Their arrays are not writeable.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .specfun import _MAX_TERMS, SeriesConvergenceError, _kummer_1f1_ln_grid

__all__ = [
    "SRParams",
    "LinkSNR",
    "SumSRContext",
    "HEAVY_SHADOWING",
    "AVERAGE_SHADOWING",
    "CONDITIONS",
    "pdf",
    "cdf",
    "sf",
    "mean_snr",
    "sample",
    "sample_sum",
    "sum_cdf",
    "asymptotic_cdf",
    "asymptotic_sum_cdf",
]


def _count(value, name: str, low: int | None = 1, high: int | None = None) -> int:
    """`value` as a Python int: any integral value, numpy integers too, but
    not a bool, within low..high (no bound where None); anything else
    raises a ValueError naming `name`."""
    try:
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None or (low is not None and count < low) or (high is not None and count > high):
        span = "" if low is None else f" >= {low}" if high is None else f" in {low}..{high}"
        raise ValueError(f"{name} must be an integer{span}, got {value!r}")
    return count


@dataclass(frozen=True)
class SRParams:
    """Shadowed-Rician fading parameters (m, b, omega).

    m is the Nakagami shadowing severity (integer, so the SNR law is a
    finite Erlang mixture), 2b the average multipath power, omega
    the average LoS power.
    """

    m: int
    b: float
    omega: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _count(self.m, "m"))
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise ValueError(f"b must be finite and > 0, got {self.b}")
        if not (math.isfinite(self.omega) and self.omega >= 0.0):
            raise ValueError(f"omega must be finite and >= 0, got {self.omega}")

    @cached_property
    def _law(self) -> "_Law":
        """The law's constants, computed on first use and kept on this object
        (a frozen dataclass still has an instance dict, which is where
        `cached_property` stores them); fields, equality and hash ignore it."""
        return _law_of(self)


# Land-mobile-satellite reference conditions (Abdi et al. parameterization).
HEAVY_SHADOWING = SRParams(m=2, b=0.063, omega=0.0005)
AVERAGE_SHADOWING = SRParams(m=5, b=0.251, omega=0.279)

# Condition code -> (node->satellite params, satellite->GS params); the
# first letter names the uplink hop's shadowing.
CONDITIONS: dict[str, tuple[SRParams, SRParams]] = {
    "HH": (HEAVY_SHADOWING, HEAVY_SHADOWING),
    "HA": (HEAVY_SHADOWING, AVERAGE_SHADOWING),
    "AH": (AVERAGE_SHADOWING, HEAVY_SHADOWING),
    "AA": (AVERAGE_SHADOWING, AVERAGE_SHADOWING),
}


@dataclass(frozen=True)
class LinkSNR:
    """Per-hop transmit SNR eta = P / sigma^2 (linear scale)."""

    eta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError(f"eta must be finite and > 0, got {self.eta}")

    @classmethod
    def from_db(cls, eta_db: float) -> "LinkSNR":
        try:
            return cls(eta=10.0 ** (eta_db / 10.0))
        except (OverflowError, ValueError):
            raise ValueError(
                f"eta_db must give a finite linear SNR > 0, got {eta_db} dB"
            ) from None


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class _Law:
    """One SR law's constants, shared read-only by every reader of its params.

    alpha = ((2bm)/(2bm+omega))^m / 2b, beta = 1/2b, delta =
    omega/(2b(2bm+omega)) (Abdi et al.); alpha is Lambda / eta's density at
    0.  Lambda / eta is Gamma(j + 1, scale 1/theta) with probability w[j]: w
    is the Binomial(m - 1, q = delta/beta) pmf, j = 0..m-1, divided by its
    float sum so roundoff leaves no mass defect, and theta = beta - delta is
    the common rate.  mean_shape = sum_j w[j] (j + 1) is the mixture's mean
    in units of eta/theta.  `sums` holds each met K's `_SumLaw` (`_sum_law`).
    """

    alpha: float
    beta: float
    delta: float
    w: np.ndarray
    q: float
    theta: float
    mean_shape: float
    sums: dict[int, "_SumLaw"] = field(default_factory=dict)


def _law_of(p: SRParams) -> _Law:
    """Compute p's constants; `SRParams._law` keeps them, so this runs once per params object."""
    two_b = 2.0 * p.b
    denom = two_b * p.m + p.omega
    alpha = (two_b * p.m / denom) ** p.m / two_b
    beta = 1.0 / two_b
    delta = p.omega / (two_b * denom)
    q = delta / beta
    n = p.m - 1
    w = np.array([math.comb(n, j) * q**j * (1.0 - q) ** (n - j) for j in range(p.m)])
    w = _read_only(w / w.sum())
    return _Law(alpha, beta, delta, w, q, beta - delta, float(np.dot(w, np.arange(1, p.m + 1))))


def _as_nonneg_array(x, name: str = "x") -> tuple[np.ndarray | np.float64, bool]:
    """(x as a float array, whether x was a scalar), refusing non-finite or
    negative values.  A Python float is checked with `math` and returned as
    a numpy float64, on which every reader computes what it computes on a
    0-d array: the same bits, and the same warnings where a power overflows."""
    if type(x) is float:
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite")
        if x < 0.0:
            raise ValueError(f"{name} must be >= 0")
        return np.float64(x), True
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    if (arr < 0.0).any():
        raise ValueError(f"{name} must be >= 0")
    return arr, arr.ndim == 0


def pdf(p: SRParams, link: LinkSNR, x):
    """Density of Lambda at x >= 0 (accepts scalars or arrays):
    (theta/eta) e^{-t} sum_j w_j t^j / j!, with t = theta x / eta."""
    arr, scalar = _as_nonneg_array(x)
    law = p._law
    t = (law.theta / link.eta) * arr
    poly = np.zeros_like(arr)
    for j in range(p.m - 1, -1, -1):
        poly = poly * t + law.w[j] / math.factorial(j)
    out = (law.theta / link.eta) * poly * np.exp(-t)
    return float(out) if scalar else out


def _survival_terms(p: SRParams, link: LinkSNR, arr: np.ndarray) -> np.ndarray:
    """Unclamped Pr[Lambda > x] = e^{-t} sum_j w_j sum_{i<=j} t^i / i!.

    Every term is nonnegative, so the sum keeps full relative precision
    in the far tail where 1 - cdf would round to 0.
    """
    law = p._law
    t = (law.theta / link.eta) * arr
    # pois accumulates sum_{i<=j} t^i/i! across j.
    pois_term = np.ones_like(arr)
    pois_sum = np.ones_like(arr)
    tail = np.zeros_like(arr)
    for j in range(p.m):
        if j > 0:
            pois_term = pois_term * t / j
            pois_sum = pois_sum + pois_term
        tail = tail + law.w[j] * pois_sum
    return np.exp(-t) * tail


def cdf(p: SRParams, link: LinkSNR, x):
    """CDF of Lambda at x >= 0: 1 - sf, clamped to [0, 1] against roundoff drift."""
    arr, scalar = _as_nonneg_array(x)
    out = np.clip(1.0 - _survival_terms(p, link, arr), 0.0, 1.0)
    return float(out) if scalar else out


def sf(p: SRParams, link: LinkSNR, x):
    """Survival function Pr[Lambda > x] at x >= 0, clamped to [0, 1].

    Summed directly from the nonnegative mixture terms (no `1 - cdf`),
    so it stays relatively accurate in the far tail where cdf rounds to 1.
    """
    arr, scalar = _as_nonneg_array(x)
    out = np.clip(_survival_terms(p, link, arr), 0.0, 1.0)
    return float(out) if scalar else out


def mean_snr(p: SRParams, link: LinkSNR) -> float:
    """E[Lambda] = (eta/theta) sum_j w_j (j + 1), the mixture's mean."""
    law = p._law
    return link.eta * law.mean_shape / law.theta


def sample(p: SRParams, link: LinkSNR, rng: np.random.Generator, size=None):
    """Draw Lambda = eta * |A e^{j phi} + Z|^2 from a caller-owned generator.

    A^2 ~ Gamma(shape m, scale omega/m) gives the Nakagami-m LoS amplitude,
    phi is uniform on [0, 2pi), and Z is circularly-symmetric complex
    Gaussian with total variance 2b.  Draw order is fixed (A^2, phi, Re Z,
    Im Z) so a seeded generator reproduces the same sequence exactly.
    """
    a2 = rng.gamma(shape=p.m, scale=p.omega / p.m, size=size)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=size)
    zre = rng.normal(0.0, math.sqrt(p.b), size=size)
    zim = rng.normal(0.0, math.sqrt(p.b), size=size)
    a = np.sqrt(a2)
    lam = link.eta * ((a * np.cos(phi) + zre) ** 2 + (a * np.sin(phi) + zim) ** 2)
    return float(lam) if size is None else lam


def sample_sum(p: SRParams, link: LinkSNR, k: int, rng: np.random.Generator, size=None):
    """Draw the sum of k i.i.d. Lambda from its exact Erlang mixture.

    Lambda is Gamma(J + 1, scale eta/theta) with J ~ Binomial(m-1, q),
    q = delta/beta (`_Law`), so a k-fold sum is
    eta * Gamma(k + J) / theta with J ~ Binomial(k(m-1), q).  k = 1 draws
    one Lambda.  Same law as `sample` (and as summing k `sample` draws), but
    a different stream.  One of two exact paths draws it, chosen by
    P(J = 0) = (1 - q)^(k(m-1)):

    - P(J = 0) >= 1/2 (heavy shadowing at every k, average at k = 1):
      Gamma(k + J) is Gamma(k) + Gamma(J) for independent parts.  One
      uniform per sample is inverted against J's Binomial CDF (`_SumLaw.j_cdf`), then
      every sample draws Gamma(k) with one scalar shape (an exponential at
      k = 1), and only the samples with J > 0 add Gamma(J), drawn as a sum
      of J exponentials.
    - Otherwise (average shadowing at k >= 2): one binomial draw for J and
      one Gamma(k + J) draw per sample.

    The rule P(J = 0) >= 1/2 selects the split path; the per-draw timings
    of both paths behind it are in `BENCH_pr19.json` under
    `sampler_ns_per_draw`.  A tuple size is drawn flat, then reshaped.
    """
    k = _count(k, "K")
    law, cdf = p._law, _sum_law(p, k).j_cdf
    n = 1 if size is None else int(np.prod(size))
    if cdf[0] >= 0.5:
        # The uniforms' array takes the gamma draws and the scaling, so a
        # large draw holds no whole-array temporaries.
        lam = rng.random(n)
        idx = np.flatnonzero(lam >= cdf[0])
        u = lam[idx]
        # At k = 1 the exponential is numpy's Gamma(1) stream, drawn faster.
        if k == 1:
            rng.standard_exponential(out=lam)
        else:
            rng.standard_gamma(k, out=lam)
        # J >= i where the uniform is at or above P(J <= i - 1): each such
        # sample adds one exponential at level i, so Gamma(J) is the sum of
        # J exponentials and the samples with J = 0 draw none.
        for c in cdf[1:]:
            if not idx.size:
                break
            lam[idx] += rng.standard_exponential(idx.size)
            deeper = u >= c
            idx, u = idx[deeper], u[deeper]
    else:
        lam = rng.binomial(k * (p.m - 1), law.q, size=n).astype(float)
        lam += k
        rng.standard_gamma(lam, out=lam)
    lam *= link.eta / law.theta
    return float(lam[0]) if size is None else lam.reshape(size)


@dataclass(frozen=True)
class SumSRContext:
    """The K of a K-fold i.i.d. SR sum; `sum_cdf` takes the law's other
    constants from the SRParams it is given."""

    K: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "K", _count(self.K, "K"))

    @classmethod
    def for_fading(cls, p: SRParams, K: int) -> "SumSRContext":
        """The context of the sum of K SNRs of fading p; it holds K alone."""
        return cls(K)


def _ln_binomial(c: int, l: int) -> float:
    if c == 0:
        return 0.0
    return math.lgamma(c + 1.0) - math.lgamma(l + 1.0) - math.lgamma(c - l + 1.0)


@dataclass(frozen=True, eq=False)
class _SumLaw:
    """The constants of the K-fold sum law's (c+1)-term Whittaker sum,
    l = 0..c with d = mK and c = (m - 1)K, one row per l: the 1F1
    parameters a = 1 - l and b = 1 + d - l, the powers d - l of x/eta, and
    the columns lnGamma(d - l + 1) and ln_base, each term's log-constant
    K ln alpha + ln C(c, l) + (c - l) ln beta; and j_cdf, the unnormalized
    cumulative Binomial(c, q) pmf that `sample_sum` inverts.  All read-only."""

    a: np.ndarray
    b: np.ndarray
    powers: np.ndarray
    ln_gammas: np.ndarray
    ln_base: np.ndarray
    j_cdf: np.ndarray


# Each law keeps the `_SumLaw` of at most this many K at once.
_SUM_LAWS_KEPT = 64


def _sum_law_of(p: SRParams, K: int) -> _SumLaw:
    """Compute the constants of the sum of K SNRs of law p; `_sum_law` keeps them."""
    law = p._law
    d, c, q = p.m * K, (p.m - 1) * K, law.q
    ls = range(c + 1)
    ln_alpha_k = K * math.log(law.alpha)
    ln_base = np.array(
        [ln_alpha_k + _ln_binomial(c, l) + (c - l) * math.log(law.beta) for l in ls]
    )
    return _SumLaw(
        a=_read_only(np.array([1.0 - l for l in ls])),
        b=_read_only(np.array([1.0 + d - l for l in ls])),
        powers=_read_only(np.array([d - l for l in ls], dtype=float)),
        ln_gammas=_read_only(np.array([math.lgamma(d - l + 1.0) for l in ls])[:, None]),
        ln_base=_read_only(ln_base[:, None]),
        j_cdf=_read_only(np.cumsum([math.comb(c, j) * q**j * (1.0 - q) ** (c - j) for j in ls])),
    )


def _sum_law(p: SRParams, K: int) -> _SumLaw:
    """The sum law's constants, computed once per (params object, K).  Two
    threads that miss the same K at once both compute it; either result
    serves, since both hold the same values."""
    sums = p._law.sums
    law = sums.get(K)
    if law is None:
        if len(sums) >= _SUM_LAWS_KEPT:
            sums.clear()
        law = sums[K] = _sum_law_of(p, K)
    return law


# Working cells of every analytic table: `sum_cdf` evaluates its abscissae,
# and the outage rows are gathered and reduced, in chunks of at most this
# many (row x abscissa) cells, so working memory stays bounded whatever the
# number of abscissae, the depth M or K.  Every figure table is one chunk;
# the ladder's largest axis (A, K = 16, M = 800: 65 rows x 1602 abscissae)
# is two, which lowers the ladder's peak.  Smaller chunks cost time: a
# ladder table at M = 20000 ran about 20% longer at 2^15 cells, 75% at 2^13.
_CELLS = 1 << 16
# The largest series term budget `sum_cdf` starts: far above the ~2e3 that
# the figure and ladder grids reach, and enough for a -40 dB MRC row (~1.3e6);
# an HH MRC row passes it below about -48.8 dB on the default staircase.
_MAX_SERIES_TERMS = 10**7


def _sum_cdf_chunk(p: SRParams, eta: float, sum_law: _SumLaw, x: np.ndarray, max_terms: int):
    """Signed log-space assembly of the sum CDF over a 1-D array of x >= 0."""
    z = p._law.theta * x / eta
    with np.errstate(divide="ignore"):
        ln_x_over_eta = np.log(x / eta)

    # One (c+1, x) table of 1F1(1 - l; 1 + d - l; z) series, l = 0..c.
    signs, ln_f = _kummer_1f1_ln_grid(sum_law.a, sum_law.b, z, max_terms)
    # ln G(x, l, d, eta) = (d-l) ln(x/eta) - z - lnGamma(d-l+1) + ln 1F1,
    # the (beta-delta) powers cancel between the prefactor and M's z^(nu+1/2);
    # each term's log is ln_base + ln G.
    mags = np.multiply.outer(sum_law.powers, ln_x_over_eta)
    mags -= z
    mags -= sum_law.ln_gammas
    mags += ln_f
    mags += sum_law.ln_base
    del ln_f
    peak = np.max(mags, axis=0)
    finite = np.isfinite(peak)
    peak_safe = np.where(finite, peak, 0.0)
    mags -= peak_safe
    np.exp(mags, out=mags)
    mags *= signs
    # Each column's terms add in row order, whatever the chunk's width, so
    # an abscissa gets the same bits in a chunk of one as in a wider one.
    total = mags[0].copy()
    for row in mags[1:]:
        total += row
    return np.where(finite, total * np.exp(peak_safe), 0.0)


def _sum_cdf_terms(p: SRParams, eta: float, K: int, x: np.ndarray) -> np.ndarray:
    """The sum CDF, unclipped, over a 1-D array of x >= 0, in consecutive
    chunks of at most _CELLS // (c + 1) abscissae (at least one).  Every
    step is per element or per column, so each value has the bits of a
    single call; the term budget is the whole array's."""
    sum_law = _sum_law(p, K)
    # The ascending 1F1 needs roughly z + O(sqrt(z)) terms at its largest z,
    # which is the z of the largest x: rounding is monotone.
    x_max = float(x.max(initial=0.0))
    z_max = p._law.theta * x_max / eta
    budget = z_max + 10.0 * math.sqrt(z_max) + 60.0
    if not budget <= _MAX_SERIES_TERMS:
        raise SeriesConvergenceError(
            f"sum_cdf at x = {x_max:g}, eta = {eta:g} needs a 1F1 series of about "
            f"{budget:.3g} terms, over the cap of {_MAX_SERIES_TERMS:g}"
        )
    max_terms = max(_MAX_TERMS, int(budget))
    step = max(1, _CELLS // sum_law.a.size)
    out = np.empty(x.size)
    for i in range(0, x.size, step):
        out[i : i + step] = _sum_cdf_chunk(p, eta, sum_law, x[i : i + step], max_terms)
    return out


def sum_cdf(p: SRParams, link: LinkSNR, ctx: SumSRContext, x):
    """CDF of the sum of ctx.K i.i.d. SR SNRs with parameters p, at x >= 0.

    The law's constants (d = mK, c = (m - 1)K and the derived alpha, beta,
    delta) come from p; ctx names only K.  Assembled in log space from
    Whittaker-function terms (integer m, so no epsilon correction term),
    with a series term budget sized to the largest x.  A budget over 10^7
    terms raises SeriesConvergenceError before any series starts; a budget
    just under it runs ~10^7 terms, a few seconds a call.  An MRC row
    reaches the cap below about -48.8 dB at HH, K = 2 on the default
    staircase (M = 50, L = 15; -44.3 dB at M = 800, L = 45), and the error
    fails the whole analytic table it is in, SS and SC rows included.  The
    abscissae run in consecutive chunks of at most 2^16 // (c + 1), so
    each (c + 1)-row table holds at most 2^16 cells: over 10^5 abscissae
    at K = 16, m = 5 a call peaks near 2.5 MB.  Each value has the same
    bits whatever the chunk, size or shape of x it came in.  Accepts
    scalars or arrays; x = 0 returns exactly 0.
    """
    arr, scalar = _as_nonneg_array(x)
    out = np.clip(_sum_cdf_terms(p, link.eta, ctx.K, np.reshape(arr, -1)), 0.0, 1.0)
    return float(out[0]) if scalar else out.reshape(arr.shape)


def asymptotic_cdf(p: SRParams, link: LinkSNR, x):
    """High-SNR linearization F(x) ~ alpha x / eta (unclamped): the K = 1 sum's."""
    return asymptotic_sum_cdf(p, link, 1, x)


def asymptotic_sum_cdf(p: SRParams, link: LinkSNR, K: int, x):
    """High-SNR K-fold-sum CDF F(x) ~ (alpha x / eta)^K / Gamma(K+1) (unclamped)."""
    K = _count(K, "K")
    arr, scalar = _as_nonneg_array(x)
    out = (p._law.alpha * arr / link.eta) ** K / math.gamma(K + 1)
    return float(out) if scalar else out
