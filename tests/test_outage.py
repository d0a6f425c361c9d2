import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from satrelay import channel, mcsim, outage
from satrelay.channel import AVERAGE_SHADOWING, HEAVY_SHADOWING, LinkSNR
from satrelay.mcsim import MCConfig, _wilson
from satrelay.outage import HopPair, StaircaseConfig, Threshold

CFG = StaircaseConfig(steps_m=50, depth_l=15.0)
THR = Threshold(gamma_th=1.0)


def hop_at(db, ns=HEAVY_SHADOWING, sg=HEAVY_SHADOWING):
    link = LinkSNR.from_db(db)
    return HopPair(ns=(ns, link), sg=(sg, link))


class TestThreshold:
    def test_rate_half_gives_unit_gamma(self):
        thr = Threshold.from_rate(0.5)
        assert thr.gamma_th == 1.0
        assert thr.upsilon == 2.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            Threshold(gamma_th=0.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, 1e200])
    def test_non_finite_gamma_named(self, gamma):
        # 1e200 is finite, but gamma^2 + gamma (upsilon) is not.
        with pytest.raises(ValueError, match="gamma_th"):
            Threshold(gamma_th=gamma)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 600.0, 300.0, 0.0])
    def test_from_rate_out_of_range_named(self, rate):
        # 2^(2R) overflows at R = 600; at R = 300 gamma^2 does.
        with pytest.raises(ValueError, match="rate_r"):
            Threshold.from_rate(rate)

    def test_staircase_default_depth(self):
        cfg = StaircaseConfig.for_threshold(Threshold(gamma_th=2.0))
        assert cfg.steps_m == 50
        assert cfg.depth_l == 30.0


class TestStaircaseConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(steps_m=0), dict(depth_l=0.0), dict(depth_l=math.nan), dict(depth_l=math.inf)],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            StaircaseConfig(**{"steps_m": 50, "depth_l": 15.0, **kwargs})


class TestStaircaseProbability:
    def test_rhs_to_zero_quadrant_limit(self):
        link = LinkSNR(10.0)
        fx = lambda x: channel.cdf(AVERAGE_SHADOWING, link, x)
        fy = lambda y: channel.cdf(HEAVY_SHADOWING, link, y)
        g = 1.0
        got = outage.staircase_probability(fx, fy, g, g, 1e-12, CFG)
        a = float(fx(np.asarray([g]))[0])
        b = float(fy(np.asarray([g]))[0])
        assert got == pytest.approx(a + b - a * b, abs=1e-6)

    def test_against_2d_monte_carlo(self):
        # 99% CI bracket at a configuration where the staircase error is far
        # below the sampling noise of 1e6 draws (checked against quadrature).
        link = LinkSNR.from_db(10.0)
        rng = np.random.default_rng(4242)
        n = 1_000_000
        x = channel.sample(AVERAGE_SHADOWING, link, rng, size=n)
        y = channel.sample(HEAVY_SHADOWING, link, rng, size=n)
        hits = int(np.count_nonzero((x - 1.0) * (y - 1.0) <= 2.0))
        est = _wilson(hits, n, 0.99)
        got = outage.staircase_probability(
            lambda v: channel.cdf(AVERAGE_SHADOWING, link, v),
            lambda v: channel.cdf(HEAVY_SHADOWING, link, v),
            1.0,
            1.0,
            2.0,
            CFG,
        )
        assert est.ci_low <= got <= est.ci_high

    def test_self_convergence_at_reference_point(self):
        hop = hop_at(10.0, ns=HEAVY_SHADOWING, sg=AVERAGE_SHADOWING)
        a = outage.op_ss(hop, THR, StaircaseConfig(50, 15.0))
        b = outage.op_ss(hop, THR, StaircaseConfig(200, 15.0))
        assert abs(a - b) / a < 0.01

    def test_invalid_rhs(self):
        fx = lambda x: np.clip(x, 0.0, 1.0)
        with pytest.raises(ValueError):
            outage.staircase_probability(fx, fx, 0.0, 0.0, 0.0, CFG)

    def test_truncation_bound_small_at_moderate_snr(self):
        link = LinkSNR.from_db(10.0)
        fx = lambda x: channel.cdf(HEAVY_SHADOWING, link, x)
        bound = outage.staircase_truncation_bound(fx, fx, 1.0, 1.0, 2.0, CFG)
        assert 0.0 <= bound < 1e-4


class TestOpSS:
    def test_symmetric_in_hops(self):
        link = LinkSNR.from_db(8.0)
        a = outage.op_ss(
            HopPair(ns=(HEAVY_SHADOWING, link), sg=(AVERAGE_SHADOWING, link)), THR, CFG
        )
        b = outage.op_ss(
            HopPair(ns=(AVERAGE_SHADOWING, link), sg=(HEAVY_SHADOWING, link)), THR, CFG
        )
        assert a == pytest.approx(b, rel=1e-12)

    def test_nonincreasing_in_snr(self):
        values = [outage.op_ss(hop_at(db), THR, CFG) for db in np.arange(0.0, 20.1, 2.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_brackets_monte_carlo(self):
        # H-A at 10 dB: staircase error is ~0.34 sigma of a 1e6-trial run.
        hop = hop_at(10.0, sg=AVERAGE_SHADOWING)
        analytic = outage.op_ss(hop, THR, CFG)
        est = mcsim.simulate_ss(hop, THR, MCConfig(trials=1_000_000, seed=2718))
        assert est.ci_low <= analytic <= est.ci_high

    def test_matches_quadrature_oracle(self):
        # Event probability computed by integrating the hyperbola region
        # directly; the staircase should sit within its known small bias.
        hop = hop_at(16.0)
        p, link = HEAVY_SHADOWING, hop.ns[1]
        fx = lambda x: channel.cdf(p, link, x)
        tail, _ = integrate.quad(
            lambda y: channel.pdf(p, link, y) * (fx(1.0 + 2.0 / (y - 1.0)) - fx(1.0)),
            1.0,
            np.inf,
            epsabs=1e-13,
            limit=500,
        )
        exact = fx(1.0) + fx(1.0) * (1.0 - fx(1.0)) + tail
        got = outage.op_ss(hop, THR, CFG)
        assert got == pytest.approx(exact, rel=0.02)


class TestOpSC:
    def test_k1_equals_op_ss(self):
        hop = hop_at(6.0)
        assert outage.op_sc([hop], THR, CFG) == outage.op_ss(hop, THR, CFG)

    def test_iid_power(self):
        hop = hop_at(8.0, sg=AVERAGE_SHADOWING)
        single = outage.op_ss(hop, THR, CFG)
        combined = outage.op_sc([hop] * 5, THR, CFG)
        assert combined == pytest.approx(single**5, rel=1e-12)

    def test_brackets_monte_carlo(self):
        hops = [hop_at(10.0, sg=AVERAGE_SHADOWING)] * 5
        analytic = outage.op_sc(hops, THR, CFG)
        est = mcsim.simulate_sc(hops, THR, MCConfig(trials=1_000_000, seed=2718))
        assert est.ci_low <= analytic <= est.ci_high

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            outage.op_sc([], THR, CFG)


def _cdf_mp(pair, x):
    """Shadowed-Rician CDF in mpmath arithmetic at the current precision:
    one minus the survival function of the Gamma(k + 1, rate beta - delta)
    mixture with Binomial(m - 1, delta/beta) weights."""
    params, link = pair
    drv = channel.derive(params)
    q = mpmath.mpf(drv.delta) / drv.beta
    t = (mpmath.mpf(drv.beta) - drv.delta) * mpmath.mpf(x) / link.eta
    n = params.m - 1
    tail = mpmath.fsum(
        mpmath.binomial(n, k) * q**k * (1 - q) ** (n - k)
        * mpmath.fsum(t**i / math.factorial(i) for i in range(k + 1))
        for k in range(params.m)
    )
    return 1 - mpmath.exp(-t) * tail


def _staircase_mp(pair_x, pair_y, a, b, rhs, cfg):
    """staircase_probability's five pieces, summed in mpmath arithmetic."""
    _, x_edges, x_hyp, y_edges, y_hyp = outage._staircase_grids(a, b, rhs, cfg)
    fx = lambda v: _cdf_mp(pair_x, v)
    fy = lambda v: _cdf_mp(pair_y, v)
    fxa, fya = fx(a), fy(b)
    fxe, fye = [fx(v) for v in x_edges], [fy(v) for v in y_edges]
    m = cfg.steps_m
    return (
        fxa
        + fya * (1 - fxa)
        + (fxe[0] - fxa) * (fye[0] - fya)
        + mpmath.fsum((fx(x_hyp[i]) - fxa) * (fye[i + 1] - fye[i]) for i in range(m))
        + mpmath.fsum((fy(y_hyp[i]) - fya) * (fxe[i + 1] - fxe[i]) for i in range(m))
    )


FIG_POINTS = [
    (ns, sg, float(db))
    for ns, sg, grid in (
        (HEAVY_SHADOWING, HEAVY_SHADOWING, np.arange(0.0, 20.1, 2.0)),
        (HEAVY_SHADOWING, AVERAGE_SHADOWING, np.arange(0.0, 20.1, 2.0)),
        (AVERAGE_SHADOWING, HEAVY_SHADOWING, np.arange(-6.0, 9.1, 1.5)),
        (AVERAGE_SHADOWING, AVERAGE_SHADOWING, np.arange(-6.0, 9.1, 1.5)),
    )
    for db in grid
]


class TestNearOneOutage:
    def test_hh_0db_not_clipped_to_one(self):
        # 1 - OP_SS ~ 7e-17 here: representable, so neither outage may
        # round to exactly 1.0 and SC must stay strictly below SS.
        hop = hop_at(0.0)
        ss = outage.op_ss(hop, THR, CFG)
        sc = outage.op_sc([hop] * 5, THR, CFG)
        assert ss < 1.0
        assert sc < ss

    def test_success_representable_at_ah_minus_6db(self):
        # 1 - OP_SS ~ 1e-33, far below the ulp of 1.
        hop = hop_at(-6.0, ns=AVERAGE_SHADOWING, sg=HEAVY_SHADOWING)
        ps_ss = outage.ps_ss(hop, THR, CFG)
        ps_sc = outage.ps_sc([hop] * 5, THR, CFG)
        assert 0.0 < ps_ss < ps_sc
        assert outage.ps_sc([hop], THR, CFG) == pytest.approx(ps_ss, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("db", [-6.0, -4.5, -3.0])
    def test_success_matches_high_precision_staircase(self, db):
        # Oracle: 1 - (the outage-form staircase sum), both evaluated at
        # 60 digits on the same float abscissae.  Forming the success as
        # quadrant minus covered mass in binary64 misses it by a factor ~4.
        hop = hop_at(db, ns=AVERAGE_SHADOWING, sg=HEAVY_SHADOWING)
        with mpmath.workdps(60):
            want = 1 - _staircase_mp(hop.sg, hop.ns, 1.0, 1.0, THR.upsilon, CFG)
            assert outage.ps_ss(hop, THR, CFG) == pytest.approx(float(want), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("ns,sg,db", FIG_POINTS)
    def test_outage_and_success_complement(self, ns, sg, db):
        # op_ss is 1 - ps_ss wherever it is >= 1/2, so the outage-form sum
        # is checked against ps_ss directly at every point as well.
        hop = hop_at(db, ns=ns, sg=sg)
        g = THR.gamma_th
        outage_form = outage.staircase_probability(
            lambda x: channel.cdf(*hop.sg, x),
            lambda x: channel.cdf(*hop.ns, x),
            g,
            g,
            THR.upsilon,
            CFG,
        )
        ps = outage.ps_ss(hop, THR, CFG)
        assert abs(outage_form + ps - 1.0) <= 1e-14
        assert abs(outage.op_ss(hop, THR, CFG) + ps - 1.0) <= 1e-14


class TestCMrc:
    def test_limit_at_vanishing_mean(self):
        # Tiny multipath power and no LoS drives E[Lambda] to 0, so C_m -> 1.
        p = channel.SRParams(m=1, b=1e-9, omega=0.0)
        assert outage.c_mrc([(p, LinkSNR(1.0))]) == pytest.approx(1.0, abs=1e-6)

    def test_identical_links_formula(self):
        link = LinkSNR(10.0)
        mean = channel.mean_snr(HEAVY_SHADOWING, link)
        got = outage.c_mrc([(HEAVY_SHADOWING, link)] * 5)
        assert got == pytest.approx((1.0 + mean) / 5.0, rel=1e-12)

    def test_against_sampled_gain(self):
        # The fixed gain uses 1/(1 + E[Lambda]); the instantaneous-gain
        # average E[1/(1 + Lambda)] is larger by Jensen, so the sampled
        # constant sits below the analytic one (ratio ~1.25, frozen from a
        # quadrature evaluation of E[1/(1+Lambda)] = 0.550665 at eta = 10).
        link = LinkSNR(10.0)
        analytic = outage.c_mrc([(HEAVY_SHADOWING, link)] * 5)
        rng = np.random.default_rng(5150)
        draws = channel.sample(HEAVY_SHADOWING, link, rng, size=1_000_000)
        sampled = 1.0 / (5.0 * float(np.mean(1.0 / (1.0 + draws))))
        assert sampled < analytic
        assert analytic / sampled == pytest.approx(1.2473, abs=0.02)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            outage.c_mrc([])


class TestOpMRC:
    def test_k1_matches_direct_engine_evaluation(self):
        # Single satellite, fixed gain: the same staircase engine fed the
        # plain CDFs must agree with the sum-CDF path at K = 1.
        link = LinkSNR.from_db(12.0)
        hop = HopPair(ns=(HEAVY_SHADOWING, link), sg=(HEAVY_SHADOWING, link))
        cm = outage.c_mrc([hop.ns])
        direct = outage.staircase_probability(
            lambda x: channel.cdf(HEAVY_SHADOWING, link, x),
            lambda y: channel.cdf(HEAVY_SHADOWING, link, y),
            0.0,
            1.0,
            cm,
            CFG,
        )
        assert outage.op_mrc([hop], THR, CFG) == pytest.approx(direct, rel=1e-9)

    def test_brackets_monte_carlo(self):
        hops = [hop_at(12.0)] * 5
        analytic = outage.op_mrc(hops, THR, CFG)
        est = mcsim.simulate_mrc(hops, THR, MCConfig(trials=1_000_000, seed=2718))
        assert est.ci_low <= analytic <= est.ci_high

    def test_heterogeneous_satellites_rejected(self):
        link = LinkSNR(10.0)
        a = HopPair(ns=(HEAVY_SHADOWING, link), sg=(HEAVY_SHADOWING, link))
        b = HopPair(ns=(AVERAGE_SHADOWING, link), sg=(HEAVY_SHADOWING, link))
        with pytest.raises(ValueError):
            outage.op_mrc([a, b], THR, CFG)

    def test_scheme_ordering(self):
        for db in (4.0, 8.0, 12.0):
            hop = hop_at(db)
            hops = [hop] * 5
            ss = outage.op_ss(hop, THR, CFG)
            sc = outage.op_sc(hops, THR, CFG)
            mrc = outage.op_mrc(hops, THR, CFG)
            assert mrc <= sc <= ss

    def test_series_budget_scales_to_low_snr(self):
        # The fig2 grid's low end pushes the Whittaker argument near 500;
        # the adaptive budget must absorb it without SeriesConvergenceError.
        hops = [hop_at(-6.0, ns=AVERAGE_SHADOWING, sg=HEAVY_SHADOWING)] * 5
        value = outage.op_mrc(hops, THR, CFG)
        assert 0.9 < value <= 1.0


class TestAsymptotics:
    def test_sc_iid_closed_form(self):
        hops = [hop_at(20.0, sg=AVERAGE_SHADOWING)] * 5
        a_sg = channel.derive(AVERAGE_SHADOWING).alpha
        a_ns = channel.derive(HEAVY_SHADOWING).alpha
        want = (1.0 * (a_sg + a_ns) / 100.0) ** 5
        assert outage.asymp_op_sc(hops, THR) == pytest.approx(want, rel=1e-12)

    def test_mrc_k1_closed_form(self):
        hops = [hop_at(20.0)]
        a_ns = channel.derive(HEAVY_SHADOWING).alpha
        assert outage.asymp_op_mrc(hops, THR) == pytest.approx(a_ns / 100.0, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_loglog_slope_exactly_minus_k(self, k):
        for fn in (outage.asymp_op_sc, outage.asymp_op_mrc):
            v30 = fn([hop_at(30.0)] * k, THR)
            v40 = fn([hop_at(40.0)] * k, THR)
            slope = (math.log10(v40) - math.log10(v30)) / 1.0
            assert slope == pytest.approx(-k, abs=1e-10)

    def test_mrc_below_sc(self):
        for k in (1, 3, 5):
            hops = [hop_at(25.0)] * k
            assert outage.asymp_op_mrc(hops, THR) <= outage.asymp_op_sc(hops, THR)

    def test_ratio_to_exact_at_40db(self):
        # frozen from the exact curves: ratios 0.980 (SC) and 1.0006 (MRC)
        hops = [hop_at(40.0)] * 5
        assert 0.5 <= outage.asymp_op_sc(hops, THR) / outage.op_sc(hops, THR, CFG) <= 2.0
        assert 0.5 <= outage.asymp_op_mrc(hops, THR) / outage.op_mrc(hops, THR, CFG) <= 2.0

    def test_unequal_power_rejected(self):
        a = hop_at(10.0)
        b = hop_at(12.0)
        with pytest.raises(ValueError):
            outage.asymp_op_sc([a, b], THR)

    def test_tangency_gap_shrinks(self):
        for exact_fn, asym_fn in (
            (outage.op_sc, outage.asymp_op_sc),
            (outage.op_mrc, outage.asymp_op_mrc),
        ):
            gaps = []
            for db in (25.0, 30.0, 35.0, 40.0):
                hops = [hop_at(db)] * 5
                gaps.append(
                    abs(
                        math.log10(exact_fn(hops, THR, CFG))
                        - math.log10(asym_fn(hops, THR))
                    )
                )
            assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestCodingGains:
    def test_reproduces_asymptote(self):
        hops = [hop_at(30.0, sg=AVERAGE_SHADOWING)] * 5
        gc_sc, gc_mrc, order = outage.coding_gains(hops, THR)
        eta = hops[0].ns[1].eta
        assert order == 5
        assert (gc_sc * eta) ** -5 == pytest.approx(
            outage.asymp_op_sc(hops, THR), rel=1e-12, abs=0.0
        )
        assert (gc_mrc * eta) ** -5 == pytest.approx(
            outage.asymp_op_mrc(hops, THR), rel=1e-12, abs=0.0
        )

    def test_diversity_order_is_satellite_count(self):
        for k in (1, 2, 5):
            assert outage.coding_gains([hop_at(10.0)] * k, THR)[2] == k

    def test_gain_ratio_formula(self):
        k = 4
        hops = [hop_at(15.0, sg=AVERAGE_SHADOWING)] * k
        gc_sc, gc_mrc, _ = outage.coding_gains(hops, THR)
        a_sg = channel.derive(AVERAGE_SHADOWING).alpha
        a_ns = channel.derive(HEAVY_SHADOWING).alpha
        want = math.gamma(k + 1.0) ** (1.0 / k) * (a_sg + a_ns) / a_ns
        assert gc_mrc / gc_sc == pytest.approx(want, rel=1e-12)
