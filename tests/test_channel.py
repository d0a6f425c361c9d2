import dataclasses
import math
import re
import tracemalloc
import warnings

import mpmath
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
    SRParams,
    SumSRContext,
)
from satrelay.specfun import SeriesConvergenceError

from conftest import (
    ks_statistic,
    law_constants,
    quad_upper,
    sum_cdf_mp,
    sum_cdf_np,
    sum_pdf_mp,
)


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
    # alpha, beta and delta as the law record `SRParams._law` holds them.
    def test_omega_zero_degenerates_to_rayleigh_constants(self):
        p = SRParams(m=3, b=0.2, omega=0.0)
        d = p._law
        assert d.delta == 0.0
        assert d.alpha == pytest.approx(1.0 / (2.0 * p.b), rel=1e-12)

    def test_average_tail_invariant(self):
        d = AVERAGE_SHADOWING._law
        assert d.beta - d.delta > 0.0


class TestPdf:
    def test_value_at_zero(self, sr_params):
        for eta in (1.0, 10.0):
            link = LinkSNR(eta)
            want = float(law_constants(sr_params).alpha) / eta
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
        # Heavy shadowing (m = 2), eta = 1, x = 1: the mixture's two Gamma
        # terms, Gamma(1) with weight theta/beta and Gamma(2) with weight
        # delta/beta (theta = beta - delta), give theta^2/beta e^{-theta x}
        # and delta theta^2/beta x e^{-theta x}; alpha = theta^2/beta at m = 2.
        p, link, x = HEAVY_SHADOWING, LinkSNR(1.0), 1.0
        d = law_constants(p)
        want = float(d.alpha * (1.0 + d.delta * x) * mpmath.exp(-d.theta * x))
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
        x = 60.0 * eta / float(law_constants(sr_params).theta)
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

    @pytest.mark.parametrize("k", [1, 2, 5, 16])
    def test_mixture_index_law(self, sr_params, k):
        # The sampler draws eta/theta * Gamma(k + J).  With every gamma and
        # exponential draw replaced by its mean (its shape), a sample reads
        # eta/theta * (k + J), so J can be read off each sample; its counts
        # must follow Binomial(k(m - 1), q).
        rng = np.random.default_rng(41_000 + k)

        class MeanDraws:
            def __getattr__(self, name):
                return getattr(rng, name)

            def standard_gamma(self, shape, size=None, out=None):
                return self.fill(np.broadcast_to(np.asarray(shape, float), size or np.shape(shape)), out)

            def standard_exponential(self, size=None, out=None):
                return self.fill(np.ones(size or out.shape), out)

            @staticmethod
            def fill(values, out):
                if out is None:
                    return np.array(values)
                out[...] = values
                return out

        n = 400_000
        c = law_constants(sr_params)
        scale = LinkSNR(10.0).eta / float(c.theta)
        lam = channel.sample_sum(sr_params, LinkSNR(10.0), k, MeanDraws(), size=n)
        j = np.rint(lam / scale).astype(int) - k
        assert np.allclose(lam / scale, j + k, rtol=1e-12, atol=0.0)
        trials, q = k * (sr_params.m - 1), float(c.q)
        counts = np.bincount(j, minlength=trials + 1)
        assert counts.size == trials + 1 and j.min() >= 0
        pmf = stats.binom.pmf(np.arange(trials + 1), trials, q)
        sigma = np.sqrt(n * pmf * (1.0 - pmf))
        assert np.all(np.abs(counts - n * pmf) <= 5.0 * sigma + 1.0)

    def test_scalar_draw(self, sr_params, link10):
        value = channel.sample_sum(sr_params, link10, 3, np.random.default_rng(1))
        assert isinstance(value, float) and value > 0.0

    @pytest.mark.parametrize(
        "p, k, split",
        [(HEAVY_SHADOWING, 2, True), (AVERAGE_SHADOWING, 1, True), (AVERAGE_SHADOWING, 3, False)],
        ids=["H-K2-split", "A-K1-split", "A-K3-binomial"],
    )
    def test_tuple_size_is_the_flat_draw_reshaped(self, link10, p, k, split):
        # A 2-D size on each of the two paths, named by the law's P(J = 0).
        assert (channel._sum_law(p, k).j_cdf[0] >= 0.5) == split
        got = channel.sample_sum(p, link10, k, np.random.default_rng(9), size=(300, 300))
        flat = channel.sample_sum(p, link10, k, np.random.default_rng(9), size=90_000)
        assert got.shape == (300, 300)
        assert got.tobytes() == flat.tobytes()

    @pytest.mark.parametrize("k", [0, -1, 2.0, 2.5, True])
    def test_bad_k_rejected(self, link10, k):
        # One check serves every K-fold function, and its error names K.
        p = HEAVY_SHADOWING
        with pytest.raises(ValueError, match="K must be"):
            channel.sample_sum(p, link10, k, np.random.default_rng(1), size=4)
        with pytest.raises(ValueError, match="K must be"):
            SumSRContext.for_fading(p, k)
        with pytest.raises(ValueError, match="K must be"):
            channel.asymptotic_sum_cdf(p, link10, k, 1.0)


class TestSumContext:
    def test_names_k_alone(self, link10):
        # The sum law's constants come from the params sum_cdf is given,
        # so contexts built for different fading are one and the same.
        ctx = SumSRContext.for_fading(HEAVY_SHADOWING, 2)
        other = SumSRContext.for_fading(AVERAGE_SHADOWING, 2)
        assert [f.name for f in dataclasses.fields(SumSRContext)] == ["K"]
        assert ctx == other == SumSRContext(2)
        xs = np.array([0.5, 5.0, 50.0])
        got = channel.sum_cdf(HEAVY_SHADOWING, link10, other, xs)
        assert np.array_equal(got, channel.sum_cdf(HEAVY_SHADOWING, link10, ctx, xs))

    def test_invariant_enforced(self):
        # K is the context's one invariant, held by direct construction too.
        with pytest.raises(ValueError, match="K must be"):
            SumSRContext(K=0)
        with pytest.raises(ValueError, match="K must be"):
            SumSRContext(K=2.5)
        with pytest.raises(ValueError, match="K must be"):
            SumSRContext.for_fading(HEAVY_SHADOWING, 0)


class TestSumCdf:
    # Bounds are 2-3x the worst error measured at each case (A-K16 takes
    # H-K16's): relative where the exact CDF is at most 1/2, absolute above.
    @pytest.mark.parametrize(
        "p, k, rel, abs_",
        [
            pytest.param(HEAVY_SHADOWING, 2, 1.5e-14, 6e-12, id="H-K2"),
            pytest.param(HEAVY_SHADOWING, 5, 3e-14, 6e-12, id="H-K5"),
            pytest.param(HEAVY_SHADOWING, 16, 9e-13, 3e-11, id="H-K16"),
            pytest.param(AVERAGE_SHADOWING, 2, 8e-15, 4e-12, id="A-K2"),
            pytest.param(AVERAGE_SHADOWING, 5, 6e-12, 6e-10, id="A-K5"),
            pytest.param(
                AVERAGE_SHADOWING,
                16,
                9e-13,
                3e-11,
                id="A-K16",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="the Whittaker sum cancels: 0.22-0.39 relative, 1.0 absolute "
                    "(ROADMAP item 3, the Erlang-mixture sum law)",
                ),
            ),
        ],
    )
    def test_against_exact_mixture(self, p, k, rel, abs_):
        ctx = SumSRContext.for_fading(p, k)
        for eta_db in (-6.0, 0.0, 9.0, 20.0):
            link = LinkSNR.from_db(eta_db)
            xs = np.concatenate(
                [np.geomspace(1e-3 * link.eta, 50.0 * link.eta, 25), [1.0, 5.0, 16.0]]
            )
            got = channel.sum_cdf(p, link, ctx, xs)
            with mpmath.workdps(40):
                want = np.array([float(sum_cdf_mp(p, link, k, x)) for x in xs])
            low = want <= 0.5
            assert np.all(np.abs(got[low] - want[low]) <= rel * want[low]), eta_db
            assert np.all(np.abs(got[~low] - want[~low]) <= abs_), eta_db

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


# The integer-m law grid: the package's H and A, and Abdi et al.'s
# land-mobile-satellite (b, omega) with m rounded to an integer (frequent
# heavy shadowing at m = 1, average shadowing at m = 3 and 10, infrequent
# light shadowing at m = 19 and 30).
LAW_GRID = {
    "H": HEAVY_SHADOWING,
    "A": AVERAGE_SHADOWING,
    "m1": SRParams(m=1, b=0.063, omega=8.97e-4),
    "m3": SRParams(m=3, b=0.126, omega=0.835),
    "m10": SRParams(m=10, b=0.126, omega=0.835),
    "m19": SRParams(m=19, b=0.158, omega=1.29),
    "m30": SRParams(m=30, b=0.158, omega=1.29),
}
# (law, K) -> the worst error `test_sum_cdf_law_grid` measures on the
# Whittaker-series `sum_cdf`, wherever it exceeds the test's bound.
SUM_CDF_DEFECTS = {
    ("A", 16): 0.94,
    ("m10", 5): 0.20,
    ("m10", 16): 3.5e7,
    ("m19", 2): 1.2e-5,
    ("m19", 5): 1.06,
    ("m19", 16): 3.9e10,
    ("m30", 1): 2.8e-8,
    ("m30", 2): 1.95,
    ("m30", 5): 7.1e3,
    ("m30", 16): 7.7e10,
}


def _law_grid_cases():
    for name, p in LAW_GRID.items():
        for k in (1, 2, 5, 16):
            marks = []
            if (name, k) in SUM_CDF_DEFECTS:
                reason = (
                    f"sum_cdf's Whittaker-series evaluation errs by {SUM_CDF_DEFECTS[name, k]:g} "
                    "here, with no error or warning (ROADMAP items 2 and 12)"
                )
                marks.append(pytest.mark.xfail(strict=True, reason=reason))
            yield pytest.param(p, k, id=f"{name}-K{k}", marks=marks)


@pytest.mark.parametrize("p, k", _law_grid_cases())
def test_sum_cdf_law_grid(p, k):
    # At eta = 1, at 1/4, 1/2, 1, 3/2 and 2 times the sum's mean, the error
    # relative to min(F, 1/2): relative below the median, twice the
    # absolute error above it.  Every passing case errs by at most 5e-10.
    link = LinkSNR(1.0)
    xs = k * channel.mean_snr(p, link) * np.array([0.25, 0.5, 1.0, 1.5, 2.0])
    got = channel.sum_cdf(p, link, SumSRContext(k), xs)
    with mpmath.workdps(40):
        want = np.array([float(sum_cdf_mp(p, link, k, x)) for x in xs])
    assert np.all(np.abs(got - want) <= 1e-9 * np.minimum(want, 0.5))


CHUNK_LAWS = {"H": HEAVY_SHADOWING, "A": AVERAGE_SHADOWING, "m10": LAW_GRID["m10"]}


class TestSumCdfChunks:
    """`sum_cdf` runs its abscissae in consecutive chunks of at most
    `channel._CELLS` (term row x abscissa) cells, and caps its term budget."""

    @given(
        name=st.sampled_from(sorted(CHUNK_LAWS)),
        k=st.sampled_from([1, 2, 5, 16]),
        eta_db=st.floats(-6.0, 20.0),
        chunks=st.floats(0.0, 2.5),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_pieces_concatenate_to_the_whole(self, name, k, eta_db, chunks, cuts, seed):
        # From one abscissa to two and a half chunks, cut anywhere, pieces
        # of one abscissa included: each value has the bits of one call on
        # the whole array, whatever its chunk, size or shape.
        p, link, ctx = CHUNK_LAWS[name], LinkSNR.from_db(eta_db), SumSRContext(k)
        n = int(chunks * channel._CELLS // ((p.m - 1) * k + 1)) + 1
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 3.0 * k * channel.mean_snr(p, link), n)
        x[rng.random(n) < 0.05] = 0.0
        whole = channel.sum_cdf(p, link, ctx, x)
        assert whole.shape == x.shape
        bounds = sorted({0, n, *(int(c * n) for c in cuts)})
        pieces = [channel.sum_cdf(p, link, ctx, x[i:j]) for i, j in zip(bounds, bounds[1:])]
        assert np.concatenate(pieces).tobytes() == whole.tobytes()
        i = int(rng.integers(n))
        for scalar in (float(x[i]), np.asarray(x[i])):
            got = channel.sum_cdf(p, link, ctx, scalar)
            assert type(got) is float and _bits(got) == _bits(whole[i])
        even = n - n % 2
        got = channel.sum_cdf(p, link, ctx, x[:even].reshape(2, -1))
        assert got.shape == (2, even // 2) and got.tobytes() == whole[:even].tobytes()

    def test_empty_input_gives_an_empty_array(self):
        got = channel.sum_cdf(AVERAGE_SHADOWING, LinkSNR(1.0), SumSRContext(16), np.empty((0, 3)))
        assert got.shape == (0, 3)

    def test_working_memory_is_bounded(self):
        # 10^5 abscissae at A, K = 16: 65 term rows, 100 chunks.  One call
        # on the whole array held about 150 MB of tables.
        x = np.linspace(0.0, 40.0, 10**5)
        tracemalloc.start()
        try:
            channel.sum_cdf(AVERAGE_SHADOWING, LinkSNR(1.0), SumSRContext(16), x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5e6

    @pytest.mark.parametrize(
        "eta, x, shown",
        [(1.0, 1e300, "x = 1e+300, eta = 1"), (1.0, [1.0, 2e6], "x = 2e+06, eta = 1"),
         (1e-300, 1e10, "x = 1e+10, eta = 1e-300")],
        ids=["far", "far-among-near", "z-overflows"],
    )
    def test_term_cap_raises_before_any_series(self, monkeypatch, eta, x, shown):
        # A budget of z + 10 sqrt(z) + 60 terms over 10^7 used to run that
        # many steps (at x = 1e300, for ever); now no series starts.
        def no_series(*args):
            raise AssertionError("a series started")

        monkeypatch.setattr(channel, "_kummer_1f1_ln_grid", no_series)
        message = rf"^sum_cdf at {re.escape(shown)} needs .* terms, over the cap of 1e\+07$"
        with pytest.raises(SeriesConvergenceError, match=message):
            channel.sum_cdf(HEAVY_SHADOWING, LinkSNR(eta), SumSRContext(2), x)

    def test_budget_just_under_the_cap_runs_to_the_end(self):
        # z + 10 sqrt(z) + 60 = 10^7 - 1 at z ~ 9.97e6: the series runs its
        # ~10^7 terms (a few seconds) and returns 1 to within the signed
        # sum's cancellation (~z * 1e-16); one term more is over the cap.
        p, link, ctx = HEAVY_SHADOWING, LinkSNR(1.0), SumSRContext(2)
        root_z = -5.0 + math.sqrt(25.0 + channel._MAX_SERIES_TERMS - 61.0)
        x = root_z**2 / p._law.theta
        assert abs(channel.sum_cdf(p, link, ctx, x) - 1.0) < 1e-7
        with pytest.raises(SeriesConvergenceError, match="over the cap"):
            channel.sum_cdf(p, link, ctx, x + 2.0 / p._law.theta)


# The single-hop and sampler layers on the same grid.  Value checks: every
# law errs by at most 3.4e-15 (m30's cdf), against one bound of 1e-13.  KS
# checks: bounds at which an exact sampler fails about once in 10^6 seeds.
@pytest.mark.parametrize("p", LAW_GRID.values(), ids=LAW_GRID)
def test_hop_law_grid(p):
    # pdf, cdf and sf at test_sum_cdf_law_grid's K = 1 abscissae against
    # the K = 1 mixture; cdf and sf errors relative to min(value, 1/2).
    link = LinkSNR(1.0)
    xs = channel.mean_snr(p, link) * np.array([0.25, 0.5, 1.0, 1.5, 2.0])
    with mpmath.workdps(40):
        cdfs = [sum_cdf_mp(p, link, 1, x) for x in xs]
        want = {
            channel.cdf: np.array([float(f) for f in cdfs]),
            channel.sf: np.array([float(1 - f) for f in cdfs]),
            channel.pdf: np.array([float(sum_pdf_mp(p, link, 1, x)) for x in xs]),
        }
    for law, values in want.items():
        scale = values if law is channel.pdf else np.minimum(values, 0.5)
        assert np.all(np.abs(law(p, link, xs) - values) <= 1e-13 * scale), law.__name__


@pytest.mark.parametrize("p", LAW_GRID.values(), ids=LAW_GRID)
def test_asymptote_law_grid(p):
    # The linearized CDF's slope alpha / eta is the mixture's density at 0.
    link = LinkSNR(4.0)
    with mpmath.workdps(40):
        want = float(sum_pdf_mp(p, link, 1, 0))
    assert abs(channel.asymptotic_cdf(p, link, 1.0) - want) <= 1e-13 * want


@pytest.mark.parametrize("p", LAW_GRID.values(), ids=LAW_GRID)
def test_sample_law_grid(p):
    link = LinkSNR(1.0)
    draws = np.sort(channel.sample(p, link, np.random.default_rng(12_000), size=200_000))
    assert ks_statistic(draws, sum_cdf_np(p, link, 1, draws)) < 0.006


@pytest.mark.parametrize(
    "p, k",
    [pytest.param(p, k, id=f"{name}-K{k}") for name, p in LAW_GRID.items() for k in (1, 2, 5, 16)],
)
def test_sample_sum_law_grid(p, k):
    # As TestSampleSum's physical-sum test, at every law of the grid.
    link, n = LinkSNR(1.0), 100_000
    rng = np.random.default_rng(13_000)
    mixture = channel.sample_sum(p, link, k, rng, size=n)
    physical = sum(channel.sample(p, link, rng, size=n) for _ in range(k))
    assert stats.ks_2samp(mixture, physical, method="asymp").statistic < 0.012


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


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


# Every reader of a scalar x, called as reader(p, link, x).
SCALAR_READERS = {
    "pdf": channel.pdf,
    "cdf": channel.cdf,
    "sf": channel.sf,
    "asymptotic_cdf": channel.asymptotic_cdf,
    "asymptotic_sum_cdf": lambda p, link, x: channel.asymptotic_sum_cdf(p, link, 3, x),
}


class TestLawConstants:
    def test_shared_arrays_are_read_only(self):
        w = AVERAGE_SHADOWING._law.w
        law = channel._sum_law(AVERAGE_SHADOWING, 3)
        for arr in (w, law.a, law.b, law.powers, law.ln_gammas, law.ln_base, law.j_cdf):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                arr += 1.0

    def test_constants_are_computed_once_per_params_object(self, monkeypatch):
        p = SRParams(m=3, b=0.1, omega=0.2)
        laws, sums = [], []
        law_of, sum_law_of = channel._law_of, channel._sum_law_of
        monkeypatch.setattr(channel, "_law_of", lambda q: laws.append(q) or law_of(q))
        monkeypatch.setattr(
            channel, "_sum_law_of", lambda q, k: sums.append((q, k)) or sum_law_of(q, k)
        )
        link, xs = LinkSNR(4.0), np.linspace(0.0, 20.0, 9)
        rng = np.random.default_rng(5)
        for k in (2, 3, 2, 3):
            channel.sum_cdf(p, link, SumSRContext(k), xs)
        # sample_sum reads the same (params object, K) record, sum_cdf's
        # K first or its own, and builds no table of its own per call.
        for k in (3, 5, 5, 2, 5):
            channel.sample_sum(p, link, k, rng, size=4)
        channel.sum_cdf(p, link, SumSRContext(5), xs)
        channel.pdf(p, link, xs)
        channel.sf(p, link, xs)
        channel.mean_snr(p, link)
        assert p._law is p._law
        assert laws == [p]
        assert sums == [(p, 2), (p, 3), (p, 5)]

    def test_fresh_params_read_the_module_constants_bits(self):
        fresh = SRParams(m=2, b=0.063, omega=0.0005)
        assert fresh == HEAVY_SHADOWING and fresh is not HEAVY_SHADOWING
        xs = np.geomspace(1e-3, 400.0, 64)
        for db in (-6.0, 9.0, 30.0):
            link = LinkSNR.from_db(db)
            for k in (1, 2, 5, 16):
                ctx = SumSRContext(k)
                want = channel.sum_cdf(HEAVY_SHADOWING, link, ctx, xs)
                assert channel.sum_cdf(fresh, link, ctx, xs).tobytes() == want.tobytes()
        law, want = fresh._law, HEAVY_SHADOWING._law
        for name in ("alpha", "beta", "delta", "q", "theta", "mean_shape"):
            assert _bits(getattr(law, name)) == _bits(getattr(want, name)), name
        assert law.w.tobytes() == want.w.tobytes()

    @given(
        x=st.floats(0.0, 1e4) | st.sampled_from([0.0, 5e-324, 1e-300, 1e300]),
        eta_db=st.floats(-20.0, 80.0),
        p=st.sampled_from([HEAVY_SHADOWING, AVERAGE_SHADOWING]),
    )
    @settings(max_examples=150, deadline=None)
    def test_python_float_reads_as_0d_array(self, x, eta_db, p):
        # A Python float takes the `math` check; the value, its type and
        # any overflow warning match a 0-d array's.
        link = LinkSNR.from_db(eta_db)
        for name, reader in SCALAR_READERS.items():
            with warnings.catch_warnings(record=True) as from_array:
                warnings.simplefilter("always")
                want = reader(p, link, np.asarray(x))
            with warnings.catch_warnings(record=True) as from_float:
                warnings.simplefilter("always")
                got = reader(p, link, x)
            assert type(got) is type(want) is float, name
            assert _bits(got) == _bits(want), (name, got, want)
            assert [str(w.message) for w in from_float] == [str(w.message) for w in from_array]

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, -1.0, -0.5e-300])
    @pytest.mark.parametrize("name", sorted(SCALAR_READERS))
    def test_python_float_refused_as_0d_array(self, name, x):
        reader, link = SCALAR_READERS[name], LinkSNR(10.0)
        with pytest.raises(ValueError) as from_array:
            reader(HEAVY_SHADOWING, link, np.asarray(x))
        with pytest.raises(ValueError) as from_float:
            reader(HEAVY_SHADOWING, link, x)
        finite = math.isfinite(x)
        assert str(from_float.value) == str(from_array.value)
        assert str(from_float.value) == ("x must be >= 0" if finite else "x must be finite")
