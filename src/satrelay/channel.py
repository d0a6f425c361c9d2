"""Shadowed-Rician instantaneous-SNR distribution.

The model: a Rician link whose line-of-sight amplitude is itself
Nakagami-m distributed.  All computations happen on the instantaneous
SNR Lambda = eta * |h|^2; the severity integer m, half multipath power b,
and LoS power omega fully describe |h|^2.

For integer m, Lambda is an exact finite Erlang mixture: a
Gamma(j + 1, scale eta/theta) law with theta = beta - delta, taken with the
Binomial(m - 1, delta/beta) probability of j.  One helper returns that
mixture, and the PDF / CDF / survival function / mean and the K-fold
sum sampler all read it.  Also provided: a constructive (physical)
sampler, the CDF of a K-fold i.i.d. sum (via log-scaled Whittaker
functions), and the linearized high-SNR approximations of both CDFs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import _MAX_TERMS, _kummer_1f1_ln_grid, ln_gamma

__all__ = [
    "SRParams",
    "SRDerived",
    "LinkSNR",
    "SumSRContext",
    "HEAVY_SHADOWING",
    "AVERAGE_SHADOWING",
    "CONDITIONS",
    "derive",
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
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise ValueError(f"b must be finite and > 0, got {self.b}")
        if not (math.isfinite(self.omega) and self.omega >= 0.0):
            raise ValueError(f"omega must be finite and >= 0, got {self.omega}")


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
class SRDerived:
    """Constants derived from SRParams: alpha, beta, delta."""

    alpha: float
    beta: float
    delta: float

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise ValueError("alpha must be > 0")
        if not self.beta > self.delta >= 0.0:
            raise ValueError("need beta > delta >= 0 for an integrable tail")


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


def derive(p: SRParams) -> SRDerived:
    """alpha = ((2bm)/(2bm+omega))^m / 2b, beta = 1/2b, delta = omega/(2b(2bm+omega))."""
    two_b = 2.0 * p.b
    denom = two_b * p.m + p.omega
    return SRDerived(
        alpha=(two_b * p.m / denom) ** p.m / two_b,
        beta=1.0 / two_b,
        delta=p.omega / (two_b * denom),
    )


def _erlang_mixture(p: SRParams) -> tuple[np.ndarray, float, float]:
    """(w, q, theta): Lambda / eta is Gamma(j + 1, scale 1/theta) with probability w[j].

    w is the Binomial(m - 1, q = delta/beta) pmf, j = 0..m-1, divided by its
    float sum so roundoff leaves no mass defect; theta = beta - delta is the
    common rate.
    """
    drv = derive(p)
    q = drv.delta / drv.beta
    n = p.m - 1
    w = np.array([math.comb(n, j) * q**j * (1.0 - q) ** (n - j) for j in range(p.m)])
    return w / w.sum(), q, drv.beta - drv.delta


def _as_nonneg_array(x, name: str = "x") -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if np.any(arr < 0.0):
        raise ValueError(f"{name} must be >= 0")
    return arr, arr.ndim == 0


def pdf(p: SRParams, link: LinkSNR, x):
    """Density of Lambda at x >= 0 (accepts scalars or arrays):
    (theta/eta) e^{-t} sum_j w_j t^j / j!, with t = theta x / eta."""
    arr, scalar = _as_nonneg_array(x)
    w, _, theta = _erlang_mixture(p)
    t = (theta / link.eta) * arr
    poly = np.zeros_like(arr)
    for j in range(p.m - 1, -1, -1):
        poly = poly * t + w[j] / math.factorial(j)
    out = (theta / link.eta) * poly * np.exp(-t)
    return float(out) if scalar else out


def _survival_terms(p: SRParams, link: LinkSNR, arr: np.ndarray) -> np.ndarray:
    """Unclamped Pr[Lambda > x] = e^{-t} sum_j w_j sum_{i<=j} t^i / i!.

    Every term is nonnegative, so the sum keeps full relative precision
    in the far tail where 1 - cdf would round to 0.
    """
    w, _, theta = _erlang_mixture(p)
    t = (theta / link.eta) * arr
    # pois accumulates sum_{i<=j} t^i/i! across j.
    pois_term = np.ones_like(arr)
    pois_sum = np.ones_like(arr)
    tail = np.zeros_like(arr)
    for j in range(p.m):
        if j > 0:
            pois_term = pois_term * t / j
            pois_sum = pois_sum + pois_term
        tail = tail + w[j] * pois_sum
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
    w, _, theta = _erlang_mixture(p)
    return link.eta * float(np.dot(w, np.arange(1, p.m + 1))) / theta


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
    q = delta/beta (`_erlang_mixture`), so a k-fold sum is
    eta * Gamma(k + J) / theta with J ~ Binomial(k(m-1), q): two
    draws per sample (J, then the gamma), whatever k is.  k = 1 draws one
    Lambda.  Same law as `sample` (and as summing k `sample` draws), but a
    different stream.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    _, q, theta = _erlang_mixture(p)
    j = rng.binomial(k * (p.m - 1), q, size=size)
    if size is None:
        return float(rng.standard_gamma(k + j) * (link.eta / theta))
    # One float array, reused for the shape, the gamma draws and the scaling,
    # so a large draw holds no whole-array temporaries.
    lam = j.astype(float)
    del j
    lam += k
    rng.standard_gamma(lam, out=lam)
    lam *= link.eta / theta
    return lam


@dataclass(frozen=True)
class SumSRContext:
    """Combinatorial constants for the CDF of a K-fold i.i.d. SR sum.

    d = max{K, floor(mK)}, c = (d-K)^+, epsilon = mK - d.  For integer m
    these reduce to d = mK, c = (m-1)K, epsilon = 0; `SRParams` admits only
    integer m, so a nonzero epsilon is rejected.
    """

    K: int
    d: int
    c: int
    epsilon: float

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.c != max(self.d - self.K, 0):
            raise ValueError("c must equal (d - K)^+")
        if self.epsilon != 0.0:
            raise ValueError("epsilon must be 0: only integer m is supported")

    @classmethod
    def for_fading(cls, p: SRParams, K: int) -> "SumSRContext":
        if K < 1:
            raise ValueError(f"K must be >= 1, got {K}")
        d = max(K, math.floor(p.m * K))
        return cls(K=K, d=d, c=max(d - K, 0), epsilon=float(p.m * K - d))


def _ln_binomial(c: int, l: int) -> float:
    if c == 0:
        return 0.0
    return ln_gamma(c + 1.0) - ln_gamma(l + 1.0) - ln_gamma(c - l + 1.0)


def _sum_cdf_terms(drv: SRDerived, eta: float, ctx: SumSRContext, x: np.ndarray) -> np.ndarray:
    """Signed log-space assembly of the sum CDF over an array of x > 0."""
    bd = drv.beta - drv.delta
    z = bd * x / eta
    # The ascending 1F1 needs roughly z + O(sqrt(z)) terms at its largest z.
    z_max = float(z.max(initial=0.0))
    max_terms = max(_MAX_TERMS, int(z_max + 10.0 * math.sqrt(z_max) + 60.0))
    with np.errstate(divide="ignore"):
        ln_x_over_eta = np.log(x / eta)

    ln_signs: list[np.ndarray] = []
    ln_mags: list[np.ndarray] = []

    ln_alpha_k = ctx.K * math.log(drv.alpha)
    for l in range(ctx.c + 1):
        ln_base = ln_alpha_k + _ln_binomial(ctx.c, l) + (ctx.c - l) * math.log(drv.beta)
        # ln G(x, l, d, eta) = (d-l) ln(x/eta) - z - lnGamma(d-l+1) + ln 1F1,
        # the (beta-delta) powers cancel between the prefactor and M's z^(nu+1/2).
        sign_f, ln_f = _kummer_1f1_ln_grid(1.0 - l, 1.0 + ctx.d - l, z, max_terms)
        ln_g = (ctx.d - l) * ln_x_over_eta - z - ln_gamma(ctx.d - l + 1.0) + ln_f
        ln_mags.append(ln_base + ln_g)
        ln_signs.append(sign_f)

    mags = np.stack(ln_mags)
    signs = np.stack(ln_signs)
    peak = np.max(mags, axis=0)
    peak_safe = np.where(np.isfinite(peak), peak, 0.0)
    total = np.sum(signs * np.exp(mags - peak_safe), axis=0)
    return np.where(np.isfinite(peak), total * np.exp(peak_safe), 0.0)


def sum_cdf(p: SRParams, link: LinkSNR, ctx: SumSRContext, x):
    """CDF of the sum of ctx.K i.i.d. SR SNRs with parameters p, at x >= 0.

    Assembled in log space from Whittaker-function terms (integer m, so
    no epsilon correction term), with a series term budget sized to the
    largest x.  Accepts scalars or arrays; x = 0 returns exactly 0.
    """
    arr, scalar = _as_nonneg_array(x)
    drv = derive(p)
    out = np.clip(_sum_cdf_terms(drv, link.eta, ctx, np.atleast_1d(arr)), 0.0, 1.0)
    out = out.reshape(arr.shape)
    return float(out) if scalar else out


def asymptotic_cdf(p: SRParams, link: LinkSNR, x):
    """High-SNR linearization F(x) ~ alpha x / eta (unclamped)."""
    arr, scalar = _as_nonneg_array(x)
    out = derive(p).alpha * arr / link.eta
    return float(out) if scalar else out


def asymptotic_sum_cdf(p: SRParams, link: LinkSNR, K: int, x):
    """High-SNR K-fold-sum CDF F(x) ~ (alpha x / eta)^K / Gamma(K+1) (unclamped)."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    arr, scalar = _as_nonneg_array(x)
    out = (derive(p).alpha * arr / link.eta) ** K / math.gamma(K + 1)
    return float(out) if scalar else out
