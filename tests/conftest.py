import importlib.util
import pathlib
from typing import NamedTuple

import mpmath
import numpy as np
import pytest
from scipy import special, stats

from satrelay.channel import AVERAGE_SHADOWING, HEAVY_SHADOWING, LinkSNR


@pytest.fixture(params=["heavy", "average"], ids=["heavy", "average"])
def sr_params(request):
    return {"heavy": HEAVY_SHADOWING, "average": AVERAGE_SHADOWING}[request.param]


@pytest.fixture
def link10():
    return LinkSNR(10.0)


def ks_statistic(sorted_draws: np.ndarray, cdf_values: np.ndarray) -> float:
    """Exact two-sided KS distance between an ECDF and a continuous CDF."""
    n = len(sorted_draws)
    i = np.arange(1, n + 1)
    return max(
        float(np.max(i / n - cdf_values)),
        float(np.max(cdf_values - (i - 1) / n)),
    )


class LawConstants(NamedTuple):
    alpha: mpmath.mpf
    beta: mpmath.mpf
    delta: mpmath.mpf
    q: mpmath.mpf
    theta: mpmath.mpf


def law_constants(p) -> LawConstants:
    """The constants of SRParams p, from Abdi et al.'s formulas on (m, b,
    omega) alone, in mpmath at the caller's precision:
    alpha = (2bm / (2bm + omega))^m / 2b, beta = 1/2b,
    delta = omega / (2b (2bm + omega)), and the Erlang mixture's
    q = delta/beta and rate theta = beta - delta."""
    two_b, omega = 2 * mpmath.mpf(p.b), mpmath.mpf(p.omega)
    denom = two_b * p.m + omega
    beta, delta = 1 / two_b, omega / (two_b * denom)
    alpha = (two_b * p.m / denom) ** p.m / two_b
    return LawConstants(alpha, beta, delta, delta / beta, beta - delta)


def quad_upper(p, link) -> float:
    """Upper limit for scipy quadratures of the SNR density: 50 times the
    larger of eta and the mixture's Gamma scale eta / (beta - delta)."""
    return 50.0 * max(link.eta, link.eta / float(law_constants(p).theta))


def sum_cdf_mp(p, link, k, x):
    """Exact CDF of the sum of k i.i.d. SR SNRs at x, in mpmath at the
    caller's precision: the Binomial(k(m - 1), q) mixture of regularized
    gammainc(k + j, 0, theta x / eta), with `law_constants`' q and theta.
    k = 1 is the one-hop CDF."""
    _, _, _, q, theta = law_constants(p)
    t = theta * mpmath.mpf(x) / link.eta
    n = k * (p.m - 1)
    return mpmath.fsum(
        mpmath.binomial(n, j) * q**j * (1 - q) ** (n - j)
        * mpmath.gammainc(k + j, 0, t, regularized=True)
        for j in range(n + 1)
    )


def sum_pdf_mp(p, link, k, x):
    """Exact density of the sum of k i.i.d. SR SNRs at x >= 0, in mpmath: the
    mixture of `sum_cdf_mp`, with Gamma(k + j, rate theta / eta) densities."""
    _, _, _, q, theta = law_constants(p)
    rate = theta / link.eta
    x = mpmath.mpf(x)
    n = k * (p.m - 1)
    return mpmath.fsum(
        mpmath.binomial(n, j) * q**j * (1 - q) ** (n - j)
        * rate ** (k + j) * x ** (k + j - 1) * mpmath.exp(-rate * x) / mpmath.factorial(k + j - 1)
        for j in range(n + 1)
    )


def sum_cdf_np(p, link, k, x):
    """`sum_cdf_mp` in float64 over an array x, with scipy's binomial pmf
    and regularized lower incomplete gamma: fast enough for KS tests."""
    c = law_constants(p)
    j = np.arange(k * (p.m - 1) + 1)
    w = stats.binom.pmf(j, j[-1], float(c.q))
    t = float(c.theta) * np.asarray(x, dtype=float) / link.eta
    return special.gammainc(k + j, t[..., None]) @ w


def mrc_outage_mp(ns, sg, k, g, cm):
    """Exact fixed-gain MRC outage Pr[V U / (V + cm) <= g] over k i.i.d.
    satellites, U and V the k-fold sums of the (SRParams, LinkSNR) pairs ns
    and sg, in mpmath at the caller's precision: the event is
    V (U - g) <= cm g, so the outage is Pr[U <= g] plus the integral over
    t > 0 of f_U(g + t) F_V(cm g / t)."""
    corner = mpmath.sqrt(cm * g)
    tail = mpmath.quad(
        lambda t: sum_pdf_mp(*ns, k, g + t) * sum_cdf_mp(*sg, k, cm * g / t),
        [0, corner, 4 * corner, mpmath.inf],
    )
    return sum_cdf_mp(*ns, k, g) + tail


def _load_script(name: str):
    """scripts/<name>.py as a module."""
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The golden-output script, and its staircase-ladder run table at one (M, L).
golden = _load_script("golden")
ladder_table = golden.ladder_table
