import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from satrelay import channel
from satrelay.channel import (
    AVERAGE_SHADOWING,
    HEAVY_SHADOWING,
    LinkSNR,
    SRDerived,
    SRParams,
    SumSRContext,
)

from conftest import ks_statistic


def quad_upper(p, link):
    drv = channel.derive(p)
    return 50.0 * max(link.eta, link.eta / (drv.beta - drv.delta))


class TestParams:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            SRParams(m=0, b=0.1, omega=0.1)
        with pytest.raises(ValueError):
            SRParams(m=2, b=0.0, omega=0.1)
        with pytest.raises(ValueError):
            SRParams(m=2, b=0.1, omega=-0.1)

    def test_non_integer_m_rejected(self):
        with pytest.raises(ValueError):
            SRParams(m=2.5, b=0.1, omega=0.1)

    def test_link_snr(self):
        assert LinkSNR.from_db(10.0).eta == pytest.approx(10.0)
        with pytest.raises(ValueError):
            LinkSNR(0.0)

    def test_derived_invariants(self):
        with pytest.raises(ValueError):
            SRDerived(alpha=1.0, beta=0.5, delta=0.6)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["b", "omega"])
    def test_non_finite_params_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            SRParams(**{"m": 2, "b": 0.1, "omega": 0.1, field: value})

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_non_finite_eta_named(self, eta):
        with pytest.raises(ValueError, match="eta"):
            LinkSNR(eta)

    @pytest.mark.parametrize("db", [math.nan, math.inf, -math.inf, 1e10, 3090.0, -4000.0])
    def test_from_db_out_of_range_named(self, db):
        # 10^(db/10) overflows a float (1e10, 3090), underflows to 0 (-4000)
        # or is not finite: a ValueError naming eta_db, not an OverflowError.
        with pytest.raises(ValueError, match="eta_db"):
            LinkSNR.from_db(db)


class TestDerive:
    def test_heavy_hand_values(self):
        d = channel.derive(HEAVY_SHADOWING)
        # hand arithmetic: 2b = 0.126, 2bm = 0.252, 2bm + omega = 0.2525
        assert d.alpha == pytest.approx(7.9051, abs=5e-5)
        assert d.beta == pytest.approx(7.9365, abs=5e-5)
        assert d.delta == pytest.approx(0.015716, abs=5e-7)
        assert d.alpha == pytest.approx((0.252 / 0.2525) ** 2 / 0.126, rel=1e-12)

    def test_omega_zero_degenerates_to_rayleigh_constants(self):
        p = SRParams(m=3, b=0.2, omega=0.0)
        d = channel.derive(p)
        assert d.delta == 0.0
        assert d.alpha == pytest.approx(1.0 / (2.0 * p.b), rel=1e-12)

    def test_average_tail_invariant(self):
        d = channel.derive(AVERAGE_SHADOWING)
        assert d.beta - d.delta > 0.0


class TestPdf:
    def test_value_at_zero(self, sr_params):
        for eta in (1.0, 10.0):
            link = LinkSNR(eta)
            want = channel.derive(sr_params).alpha / eta
            assert channel.pdf(sr_params, link, 0.0) == pytest.approx(want, rel=1e-12)

    def test_normalization(self, sr_params):
        for eta in (1.0, 10.0):
            link = LinkSNR(eta)
            total, _ = integrate.quad(
                lambda t: channel.pdf(sr_params, link, t),
                0.0,
                quad_upper(sr_params, link),
                epsabs=1e-10,
                limit=200,
            )
            assert abs(total - 1.0) < 1e-6

    def test_two_term_hand_expansion(self):
        # Heavy shadowing, eta = 1, x = 1: kappa runs over {0, 1} with
        # zeta(0) = 1 and zeta(1) = delta.
        p, link, x = HEAVY_SHADOWING, LinkSNR(1.0), 1.0
        d = channel.derive(p)
        lam = d.beta - d.delta
        want = d.alpha * (1.0 + d.delta * x) * math.exp(-lam * x)
        assert channel.pdf(p, link, x) == pytest.approx(want, rel=1e-12)

    def test_nonnegative_and_vectorized(self, sr_params, link10):
        xs = np.linspace(0.0, 60.0, 500)
        ys = channel.pdf(sr_params, link10, xs)
        assert ys.shape == xs.shape
        assert np.all(ys >= 0.0)

    def test_negative_x_rejected(self, sr_params, link10):
        with pytest.raises(ValueError):
            channel.pdf(sr_params, link10, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, [1.0, math.nan]])
    def test_non_finite_x_rejected(self, sr_params, link10, bad):
        ctx = SumSRContext.for_fading(sr_params, 2)
        for law in (channel.pdf, channel.cdf, channel.sf):
            with pytest.raises(ValueError, match="x must be finite"):
                law(sr_params, link10, bad)
        with pytest.raises(ValueError, match="x must be finite"):
            channel.sum_cdf(sr_params, link10, ctx, bad)


class TestCdf:
    def test_boundaries(self, sr_params, link10):
        assert channel.cdf(sr_params, link10, 0.0) == 0.0
        assert channel.cdf(sr_params, link10, 1e6 * link10.eta) == pytest.approx(1.0, abs=1e-9)

    def test_matches_quadrature(self):
        p, link = HEAVY_SHADOWING, LinkSNR(1.0)
        got = channel.cdf(p, link, 1.0)
        want, _ = integrate.quad(
            lambda t: channel.pdf(p, link, t), 0.0, 1.0, epsabs=1e-12, limit=200
        )
        assert got == pytest.approx(want, abs=1e-8)

    def test_monotone_and_bounded(self, sr_params, link10):
        xs = np.linspace(0.0, 80.0, 2000)
        ys = channel.cdf(sr_params, link10, xs)
        assert np.all((ys >= 0.0) & (ys <= 1.0))
        assert np.all(np.diff(ys) >= 0.0)

    def test_finite_difference_matches_pdf(self, sr_params, link10):
        for x in (0.5, 1.0, 3.0, 8.0):
            h = 1e-5 * x
            fd = (
                channel.cdf(sr_params, link10, x + h)
                - channel.cdf(sr_params, link10, x - h)
            ) / (2.0 * h)
            want = channel.pdf(sr_params, link10, x)
            assert fd == pytest.approx(want, rel=1e-4)

    @given(st.floats(0.05, 50.0), st.floats(0.1, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_scaling_law(self, x, s):
        # Lambda scales linearly in eta, so (eta, x) and (eta/s, x/s) match.
        p = HEAVY_SHADOWING
        a = channel.cdf(p, LinkSNR(10.0), x)
        b = channel.cdf(p, LinkSNR(10.0 / s), x / s)
        assert b == pytest.approx(a, rel=1e-9, abs=1e-12)


class TestSf:
    def test_complements_cdf_in_body(self, sr_params, link10):
        xs = np.linspace(0.0, 5.0 * link10.eta, 500)
        total = channel.sf(sr_params, link10, xs) + channel.cdf(sr_params, link10, xs)
        assert np.max(np.abs(total - 1.0)) <= 1e-15

    @pytest.mark.parametrize("eta", [1.0, 10.0])
    def test_far_tail_matches_quadrature(self, sr_params, eta):
        # 60 decay lengths out: the CDF has rounded to 1.0, the tail is ~1e-25.
        link = LinkSNR(eta)
        drv = channel.derive(sr_params)
        x = 60.0 * eta / (drv.beta - drv.delta)
        assert channel.cdf(sr_params, link, x) == 1.0
        want, _ = integrate.quad(
            lambda t: channel.pdf(sr_params, link, t),
            x,
            np.inf,
            epsabs=0.0,
            epsrel=1e-12,
            limit=200,
        )
        assert channel.sf(sr_params, link, x) == pytest.approx(want, rel=1e-9, abs=0.0)


class TestMeanSnr:
    def test_against_quadrature(self, sr_params):
        for eta in (1.0, 10.0):
            link = LinkSNR(eta)
            want, _ = integrate.quad(
                lambda t: t * channel.pdf(sr_params, link, t),
                0.0,
                quad_upper(sr_params, link),
                epsabs=1e-10,
                limit=200,
            )
            got = channel.mean_snr(sr_params, link)
            assert abs(got - want) / want < 1e-8

    def test_equals_total_power_times_eta(self, sr_params):
        # E[|h|^2] = 2b + omega for the shadowed-Rician construction.
        want = (2.0 * sr_params.b + sr_params.omega) * 7.5
        assert channel.mean_snr(sr_params, LinkSNR(7.5)) == pytest.approx(want, rel=1e-10)

    def test_linear_in_eta_exactly(self, sr_params):
        a = channel.mean_snr(sr_params, LinkSNR(3.7))
        b = channel.mean_snr(sr_params, LinkSNR(7.4))
        assert b == 2.0 * a

    def test_against_sample_mean(self, sr_params):
        link = LinkSNR(10.0)
        rng = np.random.default_rng(8675309)
        draws = channel.sample(sr_params, link, rng, size=1_000_000)
        assert float(draws.mean()) == pytest.approx(
            channel.mean_snr(sr_params, link), rel=0.01
        )


class TestSample:
    def test_rayleigh_limit(self):
        # omega = 0 collapses to |Z|^2: exponential with mean 2 b eta.
        p = SRParams(m=1, b=0.2, omega=0.0)
        link = LinkSNR(5.0)
        rng = np.random.default_rng(424242)
        draws = channel.sample(p, link, rng, size=1_000_000)
        assert float(draws.mean()) == pytest.approx(2.0 * p.b * link.eta, rel=0.01)

    def test_ks_against_cdf(self, sr_params):
        link = LinkSNR(1.0)
        rng = np.random.default_rng(20240101)
        draws = np.sort(channel.sample(sr_params, link, rng, size=1_000_000))
        ks = ks_statistic(draws, channel.cdf(sr_params, link, draws))
        assert ks < 0.005

    def test_seed_determinism(self, sr_params, link10):
        a = channel.sample(sr_params, link10, np.random.default_rng(99), size=1000)
        b = channel.sample(sr_params, link10, np.random.default_rng(99), size=1000)
        assert np.array_equal(a, b)

    def test_scalar_draw(self, sr_params, link10):
        value = channel.sample(sr_params, link10, np.random.default_rng(1))
        assert isinstance(value, float) and value >= 0.0


class TestSampleSum:
    @pytest.mark.parametrize("k", [1, 2, 5, 16])
    def test_two_sample_ks_against_physical_sum(self, sr_params, k):
        # The mixture sampler against k summed physical draws: two
        # independent constructions of the same law.
        link = LinkSNR(10.0)
        rng = np.random.default_rng(31_000 + k)
        n = 1_000_000
        mixture = channel.sample_sum(sr_params, link, k, rng, size=n)
        physical = sum(channel.sample(sr_params, link, rng, size=n) for _ in range(k))
        assert stats.ks_2samp(mixture, physical, method="asymp").statistic < 0.005

    def test_scalar_draw(self, sr_params, link10):
        value = channel.sample_sum(sr_params, link10, 3, np.random.default_rng(1))
        assert isinstance(value, float) and value > 0.0

    @pytest.mark.parametrize("k", [0, -1, 2.0, True])
    def test_bad_k_rejected(self, link10, k):
        with pytest.raises(ValueError):
            channel.sample_sum(HEAVY_SHADOWING, link10, k, np.random.default_rng(1), size=4)


class TestSumContext:
    def test_integer_m_constants(self):
        ctx = SumSRContext.for_fading(HEAVY_SHADOWING, 5)
        assert (ctx.d, ctx.c, ctx.epsilon) == (10, 5, 0.0)
        ctx = SumSRContext.for_fading(AVERAGE_SHADOWING, 5)
        assert (ctx.d, ctx.c, ctx.epsilon) == (25, 20, 0.0)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            SumSRContext(K=2, d=5, c=1, epsilon=0.0)
        with pytest.raises(ValueError):
            SumSRContext.for_fading(HEAVY_SHADOWING, 0)

    def test_nonzero_epsilon_rejected(self):
        # sum_cdf has no epsilon correction term: only integer m exists.
        with pytest.raises(ValueError):
            SumSRContext(K=2, d=5, c=3, epsilon=0.5)


class TestSumCdf:
    def test_k1_reduces_to_cdf(self, sr_params, link10):
        ctx = SumSRContext.for_fading(sr_params, 1)
        # eta = 0.25 out to x = 60 puts the Whittaker argument past 400
        for link, x_max in ((link10, 30.0), (LinkSNR(0.25), 60.0)):
            xs = np.linspace(0.25, x_max, 20)
            got = channel.sum_cdf(sr_params, link, ctx, xs)
            want = channel.cdf(sr_params, link, xs)
            assert np.max(np.abs(got - want) / want) < 1e-6

    def test_k5_against_monte_carlo(self):
        p, link = HEAVY_SHADOWING, LinkSNR(10.0)
        ctx = SumSRContext.for_fading(p, 5)
        rng = np.random.default_rng(777)
        n = 300_000
        draws = np.zeros(n)
        for _ in range(5):
            draws += channel.sample(p, link, rng, size=n)
        draws.sort()
        ks = ks_statistic(draws, channel.sum_cdf(p, link, ctx, draws))
        assert ks < 0.01

    def test_monotone_nondecreasing(self, sr_params, link10):
        ctx = SumSRContext.for_fading(sr_params, 3)
        xs = np.linspace(0.0, 120.0, 400)
        ys = channel.sum_cdf(sr_params, link10, ctx, xs)
        # nondecreasing up to the ~1e-13 jitter of the signed log-space
        # assembly where the CDF saturates at 1
        assert np.all(np.diff(ys) >= -1e-12)
        assert np.all((ys >= 0.0) & (ys <= 1.0))

    def test_zero_is_zero(self, sr_params, link10):
        ctx = SumSRContext.for_fading(sr_params, 4)
        assert channel.sum_cdf(sr_params, link10, ctx, 0.0) == 0.0


class TestAsymptoticCdf:
    def test_zero(self, sr_params, link10):
        assert channel.asymptotic_cdf(sr_params, link10, 0.0) == 0.0

    def test_k1_consistency(self, sr_params, link10):
        x = 2.5
        assert channel.asymptotic_sum_cdf(sr_params, link10, 1, x) == channel.asymptotic_cdf(
            sr_params, link10, x
        )

    def test_unclamped_at_low_eta(self):
        # Intentionally exceeds 1 at low SNR; callers use it only inside
        # asymptotic formulas.
        assert channel.asymptotic_cdf(HEAVY_SHADOWING, LinkSNR(1.0), 1.0) > 1.0

    @pytest.mark.parametrize("eta", [1e3, 1e4, 1e5])
    def test_relative_error_at_high_snr(self, eta):
        p, x = HEAVY_SHADOWING, 1.0
        link = LinkSNR(eta)
        exact = channel.cdf(p, link, x)
        approx = channel.asymptotic_cdf(p, link, x)
        assert abs(approx - exact) / exact < 0.05
