import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satrelay import mcsim, outage
from satrelay.channel import AVERAGE_SHADOWING, HEAVY_SHADOWING, LinkSNR
from satrelay.mcsim import MCConfig, OutageEstimate, _wilson
from satrelay.outage import HopPair, StaircaseConfig, Threshold

THR = Threshold(gamma_th=1.0)


def hop_at(db, ns=HEAVY_SHADOWING, sg=HEAVY_SHADOWING):
    link = LinkSNR.from_db(db)
    return HopPair(ns=(ns, link), sg=(sg, link))


class TestConfigs:
    def test_mc_config_validation(self):
        with pytest.raises(ValueError):
            MCConfig(trials=0, seed=1)
        with pytest.raises(ValueError):
            MCConfig(trials=10, seed=1, ci_level=1.0)

    def test_estimate_invariants(self):
        with pytest.raises(ValueError):
            OutageEstimate(p_hat=0.5, ci_low=0.6, ci_high=0.7, trials=10)

    def test_low_confidence_flag(self):
        assert OutageEstimate(p_hat=1e-6, ci_low=0.0, ci_high=1e-5, trials=1_000_000).low_confidence
        assert not OutageEstimate(p_hat=0.1, ci_low=0.09, ci_high=0.11, trials=1000).low_confidence


class TestWilson:
    @given(st.integers(0, 500), st.integers(1, 500))
    @settings(max_examples=200, deadline=None)
    def test_interval_brackets_estimate(self, successes, trials):
        successes = min(successes, trials)
        est = _wilson(successes, trials, 0.99)
        assert 0.0 <= est.ci_low <= est.p_hat <= est.ci_high <= 1.0

    def test_extremes(self):
        zero = _wilson(0, 1000, 0.99)
        assert zero.ci_low == 0.0 and zero.p_hat == 0.0 and zero.ci_high > 0.0
        full = _wilson(1000, 1000, 0.99)
        assert full.ci_high == 1.0 and full.ci_low < 1.0


class TestDeterminism:
    def test_same_seed_same_estimate(self):
        hop = hop_at(10.0)
        cfg = MCConfig(trials=200_000, seed=123)
        assert mcsim.simulate_ss(hop, THR, cfg) == mcsim.simulate_ss(hop, THR, cfg)

    def test_worker_count_invariance(self):
        hops = [hop_at(10.0)] * 3
        cfg = MCConfig(trials=1_200_000, seed=55)
        a = mcsim.simulate_sc(hops, THR, cfg, workers=1)
        b = mcsim.simulate_sc(hops, THR, cfg, workers=4)
        assert a == b

    def test_distinct_seeds_differ(self):
        hop = hop_at(10.0)
        a = mcsim.simulate_ss(hop, THR, MCConfig(trials=200_000, seed=1))
        b = mcsim.simulate_ss(hop, THR, MCConfig(trials=200_000, seed=2))
        assert a != b


class TestSimulateSS:
    def test_tiny_threshold_never_fails(self):
        est = mcsim.simulate_ss(
            hop_at(10.0), Threshold(gamma_th=1e-9), MCConfig(trials=50_000, seed=9)
        )
        assert est.p_hat == 0.0

    def test_brackets_exact_event_probability(self):
        # Exact single-satellite outage from the quadrature-validated
        # staircase at a configuration with negligible approximation error.
        hop = hop_at(10.0, sg=AVERAGE_SHADOWING)
        analytic = outage.op_ss(hop, THR, StaircaseConfig(800, 30.0))
        est = mcsim.simulate_ss(hop, THR, MCConfig(trials=1_000_000, seed=71))
        assert est.ci_low <= analytic <= est.ci_high


class TestSimulateSC:
    def test_k1_identical_to_ss(self):
        # With one satellite the draw sequence and event coincide exactly.
        hop = hop_at(10.0)
        cfg = MCConfig(trials=100_000, seed=3)
        assert mcsim.simulate_sc([hop], THR, cfg) == mcsim.simulate_ss(hop, THR, cfg)

    def test_more_satellites_help(self):
        cfg = MCConfig(trials=200_000, seed=17)
        p2 = mcsim.simulate_sc([hop_at(10.0)] * 2, THR, cfg).p_hat
        p5 = mcsim.simulate_sc([hop_at(10.0)] * 5, THR, cfg).p_hat
        assert p5 <= p2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mcsim.simulate_sc([], THR, MCConfig(trials=10, seed=0))


class TestSimulateMRC:
    def test_k1_brackets_fine_fixed_gain_staircase(self):
        from satrelay import channel

        link = LinkSNR.from_db(16.0)
        hop = HopPair(ns=(HEAVY_SHADOWING, link), sg=(HEAVY_SHADOWING, link))
        cm = outage.c_mrc([hop.ns])
        analytic = outage.staircase_probability(
            lambda x: channel.cdf(HEAVY_SHADOWING, link, x),
            lambda y: channel.cdf(HEAVY_SHADOWING, link, y),
            0.0,
            1.0,
            cm,
            StaircaseConfig(1600, 40.0),
        )
        est = mcsim.simulate_mrc([hop], THR, MCConfig(trials=1_000_000, seed=31337))
        assert est.ci_low <= analytic <= est.ci_high

    def test_non_iid_against_physical_sum(self):
        # Two distinct ns pairs (one repeated) and a shared sg pair: the
        # per-pair k-fold draws must match summing physical per-hop draws.
        from satrelay import channel

        sg = (AVERAGE_SHADOWING, LinkSNR.from_db(6.0))
        low = (HEAVY_SHADOWING, LinkSNR.from_db(6.0))
        high = (HEAVY_SHADOWING, LinkSNR.from_db(12.0))
        hops = [HopPair(ns=low, sg=sg), HopPair(ns=high, sg=sg), HopPair(ns=low, sg=sg)]
        n = 1_000_000
        est = mcsim.simulate_mrc(hops, THR, MCConfig(trials=n, seed=808))
        rng = np.random.default_rng(909)
        sum_ns = sum(channel.sample(*h.ns, rng, size=n) for h in hops)
        sum_sg = sum(channel.sample(*h.sg, rng, size=n) for h in hops)
        cm = outage.c_mrc([h.ns for h in hops])
        ref = float(np.mean(sum_sg * sum_ns / (sum_sg + cm) <= THR.gamma_th))
        # Two independent estimates of ~0.14 at 1e6 trials each: 5 sigma.
        sigma = math.sqrt(2.0 * ref * (1.0 - ref) / n)
        assert abs(est.p_hat - ref) < 5.0 * sigma

    def test_mrc_beats_sc(self):
        cfg = MCConfig(trials=200_000, seed=29)
        for cond_ns, cond_sg in (
            (HEAVY_SHADOWING, HEAVY_SHADOWING),
            (HEAVY_SHADOWING, AVERAGE_SHADOWING),
            (AVERAGE_SHADOWING, HEAVY_SHADOWING),
            (AVERAGE_SHADOWING, AVERAGE_SHADOWING),
        ):
            hops = [hop_at(7.0, ns=cond_ns, sg=cond_sg)] * 5
            sc = mcsim.simulate_sc(hops, THR, cfg).p_hat
            mrc = mcsim.simulate_mrc(hops, THR, cfg).p_hat
            assert mrc <= sc


class TestCIQuality:
    def test_calibration_over_seeds(self):
        # Truth from a fine staircase; 99% Wilson intervals at 2000 trials
        # should cover it nearly always across 100 independent seeds.
        hop = hop_at(10.0, sg=AVERAGE_SHADOWING)
        truth = outage.op_ss(hop, THR, StaircaseConfig(3200, 40.0))
        hits = sum(
            mcsim.simulate_ss(hop, THR, MCConfig(trials=2000, seed=seed)).ci_low
            <= truth
            <= mcsim.simulate_ss(hop, THR, MCConfig(trials=2000, seed=seed)).ci_high
            for seed in range(100)
        )
        assert hits >= 95

    def test_width_scales_as_inverse_sqrt_trials(self):
        hop = hop_at(10.0, sg=AVERAGE_SHADOWING)
        w = {}
        for trials in (10_000, 1_000_000):
            est = mcsim.simulate_ss(hop, THR, MCConfig(trials=trials, seed=11))
            w[trials] = est.ci_high - est.ci_low
        ratio = w[10_000] / w[1_000_000]
        assert 8.0 <= ratio <= 12.0
