"""Built-in oracle cross-checks, runnable as `satrelay validate`.

Each check compares an implementation path against an independent route:
trapezoid quadrature for the closed-form density, sampled draws against
the analytic CDF, the degenerate K = 1 sum against the plain CDF, Monte
Carlo and the staircase each against an exact quadrature of the
single-satellite success probability, and so on.  The checks need numpy only.
`CHECKS` is the one list of them: `satrelay validate` runs it, and the test
suite runs each entry as a test of its own.
"""

from __future__ import annotations

import math

import numpy as np

from . import channel, linkbudget, mcsim, outage
from .channel import AVERAGE_SHADOWING, HEAVY_SHADOWING, LinkSNR, SumSRContext
from .outage import HopPair, MCConfig, StaircaseConfig, Threshold
from .specfun import kummer_1f1, whittaker_m_ln

PARAM_SETS = {
    "heavy": HEAVY_SHADOWING,
    "average": AVERAGE_SHADOWING,
}


def _pdf_grid(p, link):
    upper = 50.0 * max(link.eta, link.eta / p._law.theta)
    xs = np.linspace(0.0, upper, 400_001)
    return xs, channel.pdf(p, link, xs)


def _simpson(ys: np.ndarray, xs: np.ndarray) -> float:
    # Uniform-grid composite Simpson; the trapezoid rule is not accurate
    # enough for the 1e-8 moment comparison.
    h = xs[1] - xs[0]
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()))


def _check_derived():
    d = HEAVY_SHADOWING._law
    # hand arithmetic: 2b = 0.126, 2bm = 0.252, 2bm + omega = 0.2525
    assert abs(d.alpha - 7.9051) < 5e-5, d.alpha
    assert abs(d.beta - 7.9365) < 5e-5, d.beta
    assert abs(d.delta - 0.015716) < 5e-7, d.delta
    want = (0.252 / 0.2525) ** 2 / 0.126
    assert abs(d.alpha - want) <= 1e-12 * want, (d.alpha, want)


def _check_normalization():
    for p in PARAM_SETS.values():
        for eta in (1.0, 10.0):
            link = LinkSNR(eta)
            xs, ys = _pdf_grid(p, link)
            total = float(np.trapezoid(ys, xs))
            assert abs(total - 1.0) < 1e-6, (p.m, eta, total)


def _check_cdf_quadrature():
    p = HEAVY_SHADOWING
    link = LinkSNR(1.0)
    xs, ys = _pdf_grid(p, link)
    cum = np.concatenate(([0.0], np.cumsum(np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0)))
    idx = np.searchsorted(xs, [0.5, 1.0, 2.0, 5.0])
    for i in idx:
        err = abs(channel.cdf(p, link, float(xs[i])) - float(cum[i]))
        assert err < 1e-6, err


def _check_mean():
    for p in PARAM_SETS.values():
        link = LinkSNR(3.0)
        xs, ys = _pdf_grid(p, link)
        m_quad = _simpson(xs * ys, xs)
        m_closed = channel.mean_snr(p, link)
        assert abs(m_closed - m_quad) / m_quad < 1e-8, (m_closed, m_quad)


def _check_kummer():
    for z in (0.1, 1.0, 10.0, 50.0):
        val = kummer_1f1(1.0, 2.0, z)
        assert abs(val * z + 1.0 - math.exp(z)) / math.exp(z) < 1e-10, z


def _check_whittaker():
    for z in (0.5, 2.0, 10.0, 40.0):
        sign, ln_mag = whittaker_m_ln(0.0, 0.5, z)
        want = 2.0 * math.sinh(z / 2.0)
        assert sign == 1.0 and abs(math.exp(ln_mag) - want) / want < 1e-10, z
        nu = 1.25
        sign, ln_mag = whittaker_m_ln(nu + 0.5, nu, z)
        want = z ** (nu + 0.5) * math.exp(-z / 2.0)
        assert sign == 1.0 and abs(math.exp(ln_mag) - want) / want < 1e-10, (nu, z)


def _check_sum_k1():
    for p in PARAM_SETS.values():
        ctx = SumSRContext.for_fading(p, 1)
        # eta = 0.25 out to x = 60 puts the Whittaker argument past 400
        for eta, x_max in ((10.0, 30.0), (0.25, 60.0)):
            link = LinkSNR(eta)
            xs = np.linspace(0.25, x_max, 20)
            a = channel.sum_cdf(p, link, ctx, xs)
            b = channel.cdf(p, link, xs)
            assert np.max(np.abs(a - b) / b) < 1e-6, (p.m, eta)


# One draw count and one bound for every sampler check: at 200k draws the
# KS statistic's 1-in-1000 critical value is 1.95 / sqrt(n) = 0.0044.
_KS_DRAWS = 200_000
_KS_BOUND = 0.005


def _ks(draws: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between the draws' empirical law and cdf."""
    draws = np.sort(draws)
    grid = cdf(draws)
    n = draws.size
    i = np.arange(1, n + 1)
    return max(float(np.max(i / n - grid)), float(np.max(grid - (i - 1) / n)))


def _check_sampler_ks():
    rng = np.random.default_rng(314159)
    link = LinkSNR(1.0)
    for p in PARAM_SETS.values():
        ks = _ks(channel.sample(p, link, rng, size=_KS_DRAWS), lambda x: channel.cdf(p, link, x))
        assert ks < _KS_BOUND, (p.m, ks)


def _check_sample_sum_ks():
    # Both paths of the sampler every Monte Carlo run draws from, at k = 1
    # against cdf and at k = 2 against sum_cdf.  Heavy shadowing at k = 1
    # takes the split Gamma(k) + Gamma(J) path but adds Gamma(J) to only
    # 0.2% of the draws, average shadowing at k = 1 to 34%; average at
    # k = 2 takes the binomial path.
    rng = np.random.default_rng(271828)
    link = LinkSNR(1.0)
    for p, k in ((HEAVY_SHADOWING, 1), (AVERAGE_SHADOWING, 1), (AVERAGE_SHADOWING, 2)):
        draws = channel.sample_sum(p, link, k, rng, size=_KS_DRAWS)
        if k == 1:
            ks = _ks(draws, lambda x: channel.cdf(p, link, x))
        else:
            ctx = SumSRContext.for_fading(p, k)
            ks = _ks(draws, lambda x: channel.sum_cdf(p, link, ctx, x))
        assert ks < _KS_BOUND, (p.m, k, ks)


def _check_staircase_limit():
    link = LinkSNR(10.0)
    g = 1.0
    for px, py in ((HEAVY_SHADOWING, AVERAGE_SHADOWING), (AVERAGE_SHADOWING, HEAVY_SHADOWING)):
        fx = lambda x: channel.cdf(px, link, x)
        fy = lambda y: channel.cdf(py, link, y)
        got = outage.staircase_probability(fx, fy, g, g, 1e-12, StaircaseConfig(50, 15.0))
        a, b = fx(np.asarray([g]))[0], fy(np.asarray([g]))[0]
        want = a + b - a * b
        assert abs(got - want) < 1e-6, (px.m, got, want)


def _check_sc_product():
    thr = Threshold(gamma_th=1.0)
    cfg = StaircaseConfig(50, 15.0)
    for link in (LinkSNR(8.0), LinkSNR.from_db(8.0)):
        hop = HopPair(ns=(HEAVY_SHADOWING, link), sg=(AVERAGE_SHADOWING, link))
        single = outage.op_ss(hop, thr, cfg)
        combined = outage.op_sc([hop] * 5, thr, cfg)
        assert abs(combined - single**5) / combined < 1e-12, link.eta


def _check_ordering():
    thr = Threshold(gamma_th=1.0)
    cfg = StaircaseConfig(50, 15.0)
    for db in (4.0, 8.0, 12.0):
        link = LinkSNR.from_db(db)
        hop = HopPair(ns=(HEAVY_SHADOWING, link), sg=(HEAVY_SHADOWING, link))
        hops = [hop] * 5
        ss = outage.op_ss(hop, thr, cfg)
        sc = outage.op_sc(hops, thr, cfg)
        mrc = outage.op_mrc(hops, thr, cfg)
        assert mrc < sc < ss, (db, mrc, sc, ss)


def _ss_success(hop: HopPair, g: float) -> float:
    """Exact single-satellite success Pr[(X - g)(Y - g) > g^2 + g], X and Y
    the two hop SNRs, as the integral over t > 0 of f_X(g + t) S_Y(g + c/t),
    c = g^2 + g.  It is taken by the trapezoid rule in s = ln t on [-10, 10],
    where the integrand is smooth and vanishes at both ends, so the rule
    converges geometrically: 401 and 801 points agree to 1e-15 relative at
    4 dB under heavy shadowing."""
    c = g * g + g
    t = np.exp(np.linspace(-10.0, 10.0, 801))
    y = channel.pdf(*hop.ns, g + t) * channel.sf(*hop.sg, g + c / t) * t
    return float(np.trapezoid(y, np.log(t)))


def _check_staircase_mc():
    # The outage here is within 1e-6 of 1, so Monte Carlo sees about one
    # success in 1e6 trials.  Its interval is checked against the exact
    # success probability (9.79e-7), and the staircase's (6.99e-7) against
    # that, within half a success per 1e6 trials.
    thr = Threshold(gamma_th=1.0)
    cfg = StaircaseConfig(50, 15.0)
    link = LinkSNR.from_db(4.0)
    hop = HopPair(ns=(HEAVY_SHADOWING, link), sg=(HEAVY_SHADOWING, link))
    exact = _ss_success(hop, thr.gamma_th)
    staircase = outage.ps_ss(hop, thr, cfg)
    assert abs(staircase - exact) <= 5e-7, (staircase, exact)
    est = mcsim.simulate_ss(hop, thr, MCConfig(trials=1_000_000, seed=99))
    assert est.ci_low <= 1.0 - exact <= est.ci_high, (exact, est)


def _check_linkbudget():
    base = linkbudget.LinkBudget(
        altitude_km=800.0,
        frequency_hz=950e6,
        elevation_deg=30.0,
        eirp_dbm=23.0,
        g_over_t_dbk=-10.0,
        bandwidth_hz=15e3,
    )
    from dataclasses import replace

    ref = linkbudget.snr_db(base)
    assert linkbudget.snr_db(replace(base, g_over_t_dbk=-9.0)) > ref
    assert linkbudget.snr_db(replace(base, bandwidth_hz=30e3)) < ref
    assert linkbudget.snr_db(replace(base, frequency_hz=2e9)) < ref
    assert linkbudget.slant_range_km(800.0, 90.0) == 800.0
    lo, hi = linkbudget.feasible_range(linkbudget.reference_grid())
    assert lo < hi


def _check_mc_determinism():
    thr = Threshold(gamma_th=1.0)
    link = LinkSNR(5.0)
    hop = HopPair(ns=(HEAVY_SHADOWING, link), sg=(HEAVY_SHADOWING, link))
    # Three blocks or more, so workers = 4 really spreads blocks over threads.
    cfg = MCConfig(trials=1_200_000, seed=77)
    a = mcsim.simulate_sc([hop] * 3, thr, cfg, workers=1)
    b = mcsim.simulate_sc([hop] * 3, thr, cfg, workers=4)
    assert a == b, (a, b)
    # Two curves of two blocks each on one pool: an SC curve over K = 1 and
    # 3, and an MRC curve over two SNRs, eta = 5 and 10.
    mixed = HopPair(ns=(AVERAGE_SHADOWING, link), sg=(HEAVY_SHADOWING, link))
    curves = [
        ("SC", [hop] * 3, [1, 3], [1.0], MCConfig(trials=600_000, seed=5)),
        ("MRC", [mixed] * 2, [2], [1.0, 2.0], MCConfig(trials=600_000, seed=6)),
    ]
    runs = [mcsim.simulate_curves(curves, thr, workers) for workers in (1, 2, 4)]
    assert runs[0] == runs[1] == runs[2], runs


CHECKS = [
    ("derived constants (heavy hand values)", _check_derived),
    ("pdf normalization (trapezoid)", _check_normalization),
    ("cdf matches integrated pdf", _check_cdf_quadrature),
    ("mean identity (closed form vs quadrature)", _check_mean),
    ("kummer 1F1(1;2;z) identity", _check_kummer),
    ("whittaker reductions", _check_whittaker),
    ("sum CDF K=1 degeneracy", _check_sum_k1),
    ("sampler vs CDF (KS)", _check_sampler_ks),
    ("mixture sampler vs CDF and sum CDF (KS)", _check_sample_sum_ks),
    ("staircase collapses to quadrant formula as rhs->0", _check_staircase_limit),
    ("SC factorizes into SS product", _check_sc_product),
    ("scheme ordering MRC < SC < SS", _check_ordering),
    ("Monte Carlo and staircase vs exact SS success", _check_staircase_mc),
    ("link budget monotonicity", _check_linkbudget),
    ("Monte Carlo determinism", _check_mc_determinism),
]


def run_checks(verbose: bool = False) -> list[str]:
    """Run every cross-check in CHECKS; returns the names of failing checks."""
    failures = []
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:
            failures.append(name)
            if verbose:
                print(f"FAIL {name}: {exc}")
        else:
            if verbose:
                print(f"PASS {name}")
    if verbose:
        print(f"{len(CHECKS) - len(failures)}/{len(CHECKS)} checks passed")
    return failures
