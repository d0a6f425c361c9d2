"""Independent reference outages for the satrelay benchmark.

Nothing here imports satrelay.  For integer shadowing severity m, the
shadowed-Rician power |h|^2 (Abdi et al., IEEE TWC 2003) has the moment
generating function

    E[e^{s|h|^2}] = (1 - c1 s)^(m-1) / (1 - c2 s)^m,  c1 = 2b,  c2 = 2b + omega/m,

obtained by averaging the noncentral-exponential MGF of a Rician power over a
Gamma(m, omega/m) line-of-sight power.  Expanding (1 - c1 s) around
(1 - c2 s) with r = c1/c2 makes it a finite Gamma mixture: shape k + 1, scale
c2, weight C(m-1, k) (1-r)^k r^(m-1-k), k = 0..m-1 (the integer-parameter
kappa-mu shadowed reduction of Lopez-Martinez, Paris & Romero-Jerez, IEEE TVT
2017).  The sum of K i.i.d. copies is the K-fold convolution of the weights
on the same scale.  The outages are scipy quadratures of the exact events:

    SS   Pr[(X - g)(Y - g) <= g^2 + g],  X, Y the two hop SNRs
    SC   SS to the power K (i.i.d. branches)
    MRC  Pr[X (Y - g) <= C_m g],  X, Y the K-fold sums of the ground and the
         uplink hop SNRs, C_m = [sum_k 1/(1 + E[uplink SNR])]^-1

Recompute the values with ``python3 perfbench/reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate, special

# Abdi et al.'s land-mobile-satellite conditions, as (m, b, omega).
HEAVY = (2, 0.063, 0.0005)
AVERAGE = (5, 0.251, 0.279)
# Condition code -> (node->satellite, satellite->ground); the first letter
# names the uplink hop.
CONDITIONS = {
    "HH": (HEAVY, HEAVY),
    "HA": (HEAVY, AVERAGE),
    "AH": (AVERAGE, HEAVY),
    "AA": (AVERAGE, AVERAGE),
}
GAMMA_TH = 2.0 ** (2 * 0.5) - 1.0  # rate R = 1/2 bit/s/Hz per hop

_QUAD = dict(epsabs=0.0, epsrel=1e-11, limit=400)


@dataclass(frozen=True)
class GammaMixture:
    """sum_j weights[j] * Gamma(shape first_shape + j, scale)."""

    weights: tuple[float, ...]
    first_shape: int
    scale: float

    @property
    def shapes(self) -> np.ndarray:
        return self.first_shape + np.arange(len(self.weights), dtype=float)

    def mean(self) -> float:
        return self.scale * float(np.dot(self.weights, self.shapes))

    def pdf(self, x: float) -> float:
        """Density at x > 0."""
        a = self.shapes
        ln = (a - 1.0) * math.log(x / self.scale) - x / self.scale - special.gammaln(a)
        return float(np.dot(self.weights, np.exp(ln))) / self.scale

    def cdf(self, x: float) -> float:
        return float(np.dot(self.weights, special.gammainc(self.shapes, x / self.scale)))

    def sf(self, x: float) -> float:
        return float(np.dot(self.weights, special.gammaincc(self.shapes, x / self.scale)))

    def density_at_zero(self) -> float:
        """alpha of the paper's high-SNR forms: the density of the law at 0."""
        return self.weights[0] / self.scale if self.first_shape == 1 else 0.0


def hop_law(m: int, b: float, omega: float, eta: float = 1.0) -> GammaMixture:
    """The law of eta * |h|^2 for shadowed-Rician (m, b, omega), integer m."""
    c1, c2 = 2.0 * b, 2.0 * b + omega / m
    r = c1 / c2
    w = [math.comb(m - 1, k) * (1.0 - r) ** k * r ** (m - 1 - k) for k in range(m)]
    return GammaMixture(tuple(w), 1, eta * c2)


def sum_law(hop: GammaMixture, k: int) -> GammaMixture:
    """The law of the sum of k i.i.d. copies of a one-hop law."""
    w = np.array([1.0])
    for _ in range(k):
        w = np.convolve(w, hop.weights)
    return GammaMixture(tuple(float(v) for v in w), k * hop.first_shape, hop.scale)


def _hyperbola(u: GammaMixture, v: GammaMixture, a_u: float, a_v: float, c: float):
    """(outage, success) of Pr[(U - a_u)(V - a_v) <= c] for a_u * a_v <= c.

    Outage is the strip U <= a_u plus, for U = a_u + t, V <= a_v + c/t;
    success is the complement integral with the survival function of V.
    Each is a sum of nonnegative terms, so whichever is small keeps its
    relative precision; the other one is taken as its complement.
    """
    corner = math.sqrt(c)
    mid = max(u.mean() - a_u, 2.0 * corner)

    def integral(tail) -> float:
        def f(t: float) -> float:
            return u.pdf(a_u + t) * tail(a_v + c / t) if t > 0.0 else 0.0

        edges = (0.0, corner, mid, np.inf)
        return sum(integrate.quad(f, lo, hi, **_QUAD)[0] for lo, hi in zip(edges, edges[1:]))

    outage = u.cdf(a_u) + integral(v.cdf)
    if outage < 0.5:
        return outage, 1.0 - outage
    success = integral(v.sf)
    return 1.0 - success, success


def _links(cond: str, snr_db: float):
    (ns, sg), eta = CONDITIONS[cond], 10.0 ** (snr_db / 10.0)
    return hop_law(*ns, eta=eta), hop_law(*sg, eta=eta)


@lru_cache(maxsize=None)
def outage(scheme: str, cond: str, k: int, snr_db: float) -> float:
    """Exact outage of one output row (scheme in SS, SC, MRC)."""
    ns, sg = _links(cond, snr_db)
    g = GAMMA_TH
    if scheme in ("SS", "SC"):
        op, ps = _hyperbola(sg, ns, g, g, g * g + g)
        if scheme == "SS":
            return op
        # (1 - ps)^K near 1, so the branch success keeps its digits.
        return op**k if op < 0.5 else math.exp(k * math.log1p(-ps))
    if scheme == "MRC":
        c_m = (1.0 + ns.mean()) / k  # [sum_k 1/(1 + E)]^-1 over K equal uplinks
        return _hyperbola(sum_law(ns, k), sum_law(sg, k), g, 0.0, c_m * g)[0]
    raise ValueError(f"unknown scheme {scheme!r}")


def asymptote(scheme: str, cond: str, k: int, snr_db: float) -> float | None:
    """The paper's high-SNR outage: SC ((g/eta)(a_sg + a_ns))^K and MRC
    (g a_ns)^K / (eta^K K!), with a the density of |h|^2 at 0."""
    (ns, sg), eta = CONDITIONS[cond], 10.0 ** (snr_db / 10.0)
    a_ns = hop_law(*ns).density_at_zero()
    a_sg = hop_law(*sg).density_at_zero()
    if scheme == "SC":
        return (GAMMA_TH / eta * (a_sg + a_ns)) ** k
    if scheme == "MRC":
        return (GAMMA_TH * a_ns / eta) ** k / math.factorial(k)
    return None


def main() -> None:
    """Print the reference outage of every benchmark row."""
    import workloads

    points = sorted({p for w in workloads.WORKLOADS.values() for p in w.points()})
    for scheme, cond, k, db in points:
        print(f"{scheme:3s} {cond} K={k:<2d} {db:6.2f} dB  {outage(scheme, cond, k, db):.17e}")


if __name__ == "__main__":
    main()
