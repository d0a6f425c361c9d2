import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satrelay import channel, mcsim, outage
from satrelay.channel import AVERAGE_SHADOWING, HEAVY_SHADOWING, LinkSNR
from satrelay.mcsim import MCConfig, OutageEstimate, _wilson
from satrelay.outage import HopPair, StaircaseConfig, Threshold

THR = Threshold(gamma_th=1.0)


def ss_curve(rows, thr, cfg, workers=1):
    """SS rows (one hop each) as one-satellite SC rows."""
    return mcsim.simulate_sc_curve([[hop] for hop in rows], thr, cfg, workers)


CURVE = {
    "SS": ss_curve,
    "SC": mcsim.simulate_sc_curve,
    "MRC": mcsim.simulate_mrc_curve,
}
SINGLE = {"SS": mcsim.simulate_ss, "SC": mcsim.simulate_sc, "MRC": mcsim.simulate_mrc}
# Bound on the traced allocation peak of one fig3 MRC K-curve at 10^5
# trials: measured 2.69-2.74 MiB (numpy 2.4), where each one-K kernel of
# the previous sampler peaked at 3.83 MiB.
MRC_K_CURVE_PEAK = 3.0 * 2**20


def hop_at(db, ns=HEAVY_SHADOWING, sg=HEAVY_SHADOWING):
    link = LinkSNR.from_db(db)
    return HopPair(ns=(ns, link), sg=(sg, link))


def physical_outage(scheme, rows, n, seed):
    """Full-draw outage estimates from the physical per-hop sampler, one per
    row (a list of hops; every row's fading parameters are a prefix of the
    longest row's): every ns and sg of every trial is drawn at unit SNR, on
    a stream of its own, and each row scales its first satellites' draws by
    its own links' eta (Lambda = eta |h|^2)."""
    rng = np.random.default_rng(seed)
    unit = LinkSNR(1.0)
    longest = max(rows, key=len)
    ns = [channel.sample(h.ns[0], unit, rng, size=n) for h in longest]
    sg = [channel.sample(h.sg[0], unit, rng, size=n) for h in longest]
    estimates = []
    for hops in rows:
        lam_ns = [h.ns[1].eta * x for h, x in zip(hops, ns)]
        lam_sg = [h.sg[1].eta * s for h, s in zip(hops, sg)]
        if scheme == "SC":
            snr = np.max([s * x / (s + 1.0 + x) for x, s in zip(lam_ns, lam_sg)], axis=0)
        else:
            cm = outage.c_mrc([h.ns for h in hops])
            snr = sum(lam_sg) * sum(lam_ns) / (sum(lam_sg) + cm)
        estimates.append(float(np.mean(snr <= THR.gamma_th)))
    return estimates


def one_block_hits(scheme, hops, n, seed):
    """The single-row kernels' draw order and event, written out for one
    block: SS draws n ns then n sg; SC's first branch draws like SS and
    branch k >= 2 draws ns for the trials still in outage, then sg where
    Lambda_ns > gamma; MRC draws the ns sums for all n trials, then the sg
    sums where the ns sum exceeds gamma."""
    rng = mcsim._block_rng(seed, 0)
    g = THR.gamma_th
    if scheme == "MRC":
        ns_pairs, sg_pairs = Counter(h.ns for h in hops), Counter(h.sg for h in hops)
        sum_ns = sum(channel.sample_sum(*link, k, rng, size=n) for link, k in ns_pairs.items())
        sum_ns = sum_ns[sum_ns > g]
        sum_sg = sum(
            channel.sample_sum(*link, k, rng, size=sum_ns.size) for link, k in sg_pairs.items()
        )
        cm = outage.c_mrc([h.ns for h in hops])
        return n - sum_ns.size + int(np.count_nonzero(sum_sg * sum_ns / (sum_sg + cm) <= g))
    alive = n
    for k, hop in enumerate(hops):
        lam_ns = channel.sample_sum(*hop.ns, 1, rng, size=alive)
        if k:
            lam_ns = lam_ns[lam_ns > g]
        lam_sg = channel.sample_sum(*hop.sg, 1, rng, size=lam_ns.size)
        hits = int(np.count_nonzero(lam_sg * lam_ns / (lam_sg + 1.0 + lam_ns) <= g))
        alive = hits if k == 0 else alive - lam_ns.size + hits
        if not alive:
            break
    return alive


class SampleSpy:
    """Records the parameters and the draws of every channel.sample_sum call.

    The draws are copied, because the kernels may overwrite the arrays the
    sampler returns."""

    def __init__(self, monkeypatch):
        self.calls = []
        real = channel.sample_sum

        def spy(p, link, k, rng, size=None):
            out = real(p, link, k, rng, size=size)
            self.calls.append(((p, link), k, size, np.copy(out)))
            return out

        monkeypatch.setattr(channel, "sample_sum", spy)


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
        # The first K branches are shared across K, so at one seed the hit
        # count never rises as satellites are added.
        cfg = MCConfig(trials=200_000, seed=17)
        hits = [mcsim.simulate_sc([hop_at(10.0)] * k, THR, cfg).p_hat for k in range(1, 7)]
        assert all(later <= earlier for earlier, later in zip(hits, hits[1:]))
        assert hits[-1] < hits[0]

    def test_draws_only_trials_still_in_outage(self, monkeypatch):
        # Branch 1 draws all n ns then all n sg; branch k >= 2 draws ns for
        # the trials still in outage, then sg where Lambda_ns > gamma.
        hops = [hop_at(12.0), hop_at(9.0, sg=AVERAGE_SHADOWING), hop_at(12.0), hop_at(6.0)]
        n = 100_000
        spy = SampleSpy(monkeypatch)
        est = mcsim.simulate_sc(hops, THR, MCConfig(trials=n, seed=4))
        assert len(spy.calls) == 2 * len(hops)
        g = THR.gamma_th
        alive = n
        for k, hop in enumerate(hops):
            ns_link, ns_k, ns_size, lam_ns = spy.calls[2 * k]
            sg_link, sg_k, sg_size, lam_sg = spy.calls[2 * k + 1]
            assert (ns_link, sg_link, ns_k, sg_k) == (hop.ns, hop.sg, 1, 1)
            assert ns_size == alive
            if k == 0:
                assert sg_size == n
                alive = int(np.count_nonzero(lam_sg * lam_ns / (lam_sg + 1.0 + lam_ns) <= g))
            else:
                over = lam_ns[lam_ns > g]
                assert sg_size == over.size < ns_size
                snr = lam_sg * over / (lam_sg + 1.0 + over)
                alive += int(np.count_nonzero(snr <= g)) - over.size
        assert 0 < alive < n
        assert est.p_hat == alive / n

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
        sg = (AVERAGE_SHADOWING, LinkSNR.from_db(6.0))
        low = (HEAVY_SHADOWING, LinkSNR.from_db(6.0))
        high = (HEAVY_SHADOWING, LinkSNR.from_db(12.0))
        hops = [HopPair(ns=low, sg=sg), HopPair(ns=high, sg=sg), HopPair(ns=low, sg=sg)]
        n = 1_000_000
        est = mcsim.simulate_mrc(hops, THR, MCConfig(trials=n, seed=808))
        ref = physical_outage("MRC", [hops], n, seed=909)[0]
        # Two independent estimates of ~0.14 at 1e6 trials each: 5 sigma.
        sigma = math.sqrt(2.0 * ref * (1.0 - ref) / n)
        assert abs(est.p_hat - ref) < 5.0 * sigma

    def test_draws_sg_only_above_gamma(self, monkeypatch):
        # ns sums for every trial, one per distinct pair; sg sums only where
        # the ns sum exceeds gamma, since Lambda_GS < sum(ns) there.
        sg = (HEAVY_SHADOWING, LinkSNR.from_db(3.0))
        low = (AVERAGE_SHADOWING, LinkSNR.from_db(0.0))
        hops = [HopPair(ns=sg, sg=sg), HopPair(ns=low, sg=sg), HopPair(ns=sg, sg=sg)]
        n = 100_000
        spy = SampleSpy(monkeypatch)
        est = mcsim.simulate_mrc(hops, THR, MCConfig(trials=n, seed=6))
        ns_calls, sg_calls = spy.calls[:2], spy.calls[2:]
        assert [(c[0], c[1], c[2]) for c in ns_calls] == [(hops[0].ns, 2, n), (hops[1].ns, 1, n)]
        sum_ns = sum(c[3] for c in ns_calls)
        over = sum_ns[sum_ns > THR.gamma_th]
        assert [(c[0], c[1], c[2]) for c in sg_calls] == [(hops[0].sg, 3, over.size)]
        assert 0 < over.size < n
        cm = outage.c_mrc([h.ns for h in hops])
        sum_sg = sg_calls[0][3]
        hits = n - over.size + int(np.count_nonzero(sum_sg * over / (sum_sg + cm) <= THR.gamma_th))
        assert est.p_hat == hits / n

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


class TestShortcutExactness:
    """The kernels skip the draws that cannot change a trial's outcome; at
    low SNR, where they skip most draws, the estimate must still match a
    full-draw estimate from the physical sampler on another stream."""

    @pytest.mark.parametrize(
        "scheme, hops",
        [
            ("SC", [hop_at(12.0)] * 5),
            (
                "SC",
                [
                    hop_at(12.0),
                    hop_at(9.0, sg=AVERAGE_SHADOWING),
                    hop_at(6.0, ns=AVERAGE_SHADOWING),
                    hop_at(12.0),
                    hop_at(15.0, sg=AVERAGE_SHADOWING),
                ],
            ),
            ("MRC", [hop_at(3.0)] * 5),
        ],
        ids=["sc-iid", "sc-non-iid", "mrc-iid"],
    )
    def test_against_full_physical_draw(self, scheme, hops):
        n = 1_000_000
        simulate = mcsim.simulate_sc if scheme == "SC" else mcsim.simulate_mrc
        est = simulate(hops, THR, MCConfig(trials=n, seed=2024))
        ref = physical_outage(scheme, [hops], n, seed=4202)[0]
        # Two independent estimates (0.17 to 0.54) at 1e6 trials each: 5 sigma.
        sigma = math.sqrt(2.0 * ref * (1.0 - ref) / n)
        assert abs(est.p_hat - ref) < 5.0 * sigma


class TestCurves:
    """A curve's rows share one draw set made at its lowest-SNR links."""

    @staticmethod
    def row(scheme, hops):
        return hops[0] if scheme == "SS" else hops

    @pytest.mark.parametrize(
        "scheme, hops",
        [
            ("SS", [hop_at(10.0, sg=AVERAGE_SHADOWING)]),
            ("SC", [hop_at(10.0), hop_at(7.0, sg=AVERAGE_SHADOWING), hop_at(10.0)]),
            ("MRC", [hop_at(3.0), hop_at(6.0, ns=AVERAGE_SHADOWING), hop_at(3.0)]),
        ],
    )
    def test_one_row_curve_draws_as_single_row_kernels(self, scheme, hops):
        # One block, so the whole estimate is the written-out kernel's count.
        n, seed = 200_000, 41
        row = self.row(scheme, hops)
        cfg = MCConfig(trials=n, seed=seed)
        [est] = CURVE[scheme]([row], THR, cfg)
        assert est == SINGLE[scheme](row, THR, cfg)
        assert est.p_hat == one_block_hits(scheme, hops, n, seed) / n

    @pytest.mark.parametrize("scheme", ["SS", "SC", "MRC"])
    def test_hits_never_rise_with_snr(self, scheme):
        dbs = [-6.0 + 1.5 * i for i in range(11)]
        rows = [self.row(scheme, [hop_at(db, ns=AVERAGE_SHADOWING)] * 5) for db in dbs]
        est = CURVE[scheme](rows, THR, MCConfig(trials=300_000, seed=77))
        p = [e.p_hat for e in est]
        assert all(later <= earlier for earlier, later in zip(p, p[1:]))
        assert p[-1] < p[0]

    def test_rows_in_any_order(self):
        # Rows come back in the order given; a repeated SNR repeats its row.
        dbs = [9.0, 0.0, 4.5, 0.0, -3.0]
        rows = [[hop_at(db)] * 4 for db in dbs]
        cfg = MCConfig(trials=50_000, seed=5)
        est = mcsim.simulate_sc_curve(rows, THR, cfg)
        order = sorted(range(len(dbs)), key=dbs.__getitem__)
        ascending = mcsim.simulate_sc_curve([rows[i] for i in order], THR, cfg)
        assert est == [ascending[order.index(i)] for i in range(len(dbs))]
        assert est[1] == est[3]
        assert est[4].p_hat >= est[1].p_hat >= est[2].p_hat >= est[0].p_hat

    def test_malformed_curves_rejected(self):
        cfg = MCConfig(trials=10, seed=0)
        with pytest.raises(ValueError):
            mcsim.simulate_sc_curve([], THR, cfg)
        with pytest.raises(ValueError):  # fading parameters differ
            mcsim.simulate_sc_curve([[hop_at(3.0)], [hop_at(6.0, sg=AVERAGE_SHADOWING)]], THR, cfg)
        with pytest.raises(ValueError):  # hop lists that are not prefixes of one list
            mcsim.simulate_mrc_curve([[hop_at(3.0)] * 2, [hop_at(3.0, sg=AVERAGE_SHADOWING)]], THR, cfg)
        with pytest.raises(ValueError):  # a (K, SNR) pair of the grid is missing
            mcsim.simulate_sc_curve([[hop_at(3.0)], [hop_at(6.0)] * 2], THR, cfg)
        with pytest.raises(ValueError):  # the two hops move by different factors
            odd = HopPair(ns=hop_at(6.0).ns, sg=hop_at(7.0).sg)
            mcsim.simulate_sc_curve([[hop_at(3.0)], [odd]], THR, cfg)

    @pytest.mark.parametrize("scheme", ["SC", "MRC"])
    def test_every_row_against_full_physical_draw(self, scheme):
        # Fig. 2's AH K=5 sweep: SC keeps only the trials in outage at -6 dB
        # for branches 2..5 and MRC skips the sg sums where the ns sum is
        # below gamma at 9 dB; each row must still match a full draw.
        rows = [[hop_at(-6.0 + 1.5 * i, ns=AVERAGE_SHADOWING)] * 5 for i in range(11)]
        n = 1_000_000
        est = CURVE[scheme](rows, THR, MCConfig(trials=n, seed=2025))
        ref = physical_outage(scheme, rows, n, seed=5202)
        for e, r in zip(est, ref):
            # Two independent estimates at 1e6 trials each: 5 sigma, and no
            # less than five hits where the reference saw next to none.
            sigma = math.sqrt(2.0 * r * (1.0 - r) / n)
            assert abs(e.p_hat - r) < max(5.0 * sigma, 5.0 / n)


class TestKCurves:
    """A curve's rows may also differ in K: their hop lists are prefixes of
    the longest list, and every satellite is drawn once."""

    @staticmethod
    def grid(ks, dbs, **fading):
        return [[hop_at(db, **fading)] * k for k in ks for db in dbs]

    @pytest.mark.parametrize("scheme", ["SC", "MRC"])
    def test_smallest_k_rows_draw_as_one_k_curve(self, scheme):
        # Over three SNRs, the K = 2 rows are the K = 2 SNR curve; at one
        # SNR, as in fig3, the K = 2 row is the one-row call.
        cfg = MCConfig(trials=200_000, seed=43)
        rows = self.grid([2, 3, 4, 5, 6], [0.0, 3.0, 6.0], ns=AVERAGE_SHADOWING)
        assert CURVE[scheme](rows, THR, cfg)[:3] == CURVE[scheme](rows[:3], THR, cfg)
        rows = self.grid([2, 3, 4, 5, 6], [3.0], ns=AVERAGE_SHADOWING)
        assert CURVE[scheme](rows, THR, cfg)[0] == SINGLE[scheme](rows[0], THR, cfg)

    def test_sc_rows_equal_single_row_calls(self):
        # SC draws branch k alike whatever K follows, so every row of a
        # one-SNR K-curve, K_max's included, is its own one-row call.
        rows = self.grid([1, 2, 3, 4, 5, 6], [6.0], sg=AVERAGE_SHADOWING)
        cfg = MCConfig(trials=200_000, seed=44)
        est = mcsim.simulate_sc_curve(rows, THR, cfg)
        assert est == [mcsim.simulate_sc(hops, THR, cfg) for hops in rows]

    @pytest.mark.parametrize("scheme", ["SC", "MRC"])
    def test_hits_never_rise_with_k_or_snr(self, scheme):
        ks, dbs = [1, 2, 3, 4, 5, 6], [-3.0, 0.0, 3.0, 6.0]
        rows = self.grid(ks, dbs, ns=AVERAGE_SHADOWING, sg=AVERAGE_SHADOWING)
        est = CURVE[scheme](rows, THR, MCConfig(trials=300_000, seed=78))
        p = np.array([e.p_hat for e in est]).reshape(len(ks), len(dbs))
        assert np.all(np.diff(p, axis=0) <= 0.0) and np.all(np.diff(p, axis=1) <= 0.0)
        assert p[-1, 0] < p[0, 0] and p[0, -1] < p[0, 0]

    def test_rows_in_any_order(self):
        # Rows come back in the order given, whatever order their K and SNR
        # come in; the curve draws the same set.
        rows = [[hop_at(db)] * k for k, db in ((4, 3.0), (2, 0.0), (4, 0.0), (2, 3.0))]
        cfg = MCConfig(trials=50_000, seed=6)
        est = mcsim.simulate_mrc_curve(rows, THR, cfg)
        ordered = mcsim.simulate_mrc_curve([rows[i] for i in (1, 3, 2, 0)], THR, cfg)
        assert est == [ordered[i] for i in (3, 0, 2, 1)]

    @pytest.mark.parametrize("cond", ["HH", "HA", "AH", "AA"])
    def test_fig3_rows_against_full_physical_draw(self, cond):
        # Fig. 3's K = 2..6 rows at their condition's SNR: SC draws branch
        # k >= 3 only for the trials still in outage, and MRC grows running
        # sums only for them; each row must still match a full draw.
        ns, sg = channel.CONDITIONS[cond]
        rows = self.grid([2, 3, 4, 5, 6], [13.5 if cond[0] == "H" else 7.5], ns=ns, sg=sg)
        n = 1_000_000
        for scheme in ("SC", "MRC"):
            est = CURVE[scheme](rows, THR, MCConfig(trials=n, seed=2026))
            ref = physical_outage(scheme, rows, n, seed=6202)
            for e, r in zip(est, ref):
                # Two independent estimates at 1e6 trials each: 5 sigma, and
                # no less than five hits where the reference saw next to none.
                sigma = math.sqrt(2.0 * r * (1.0 - r) / n)
                assert abs(e.p_hat - r) < max(5.0 * sigma, 5.0 / n), (scheme, len(rows))

    @pytest.mark.parametrize("cond", ["HH", "HA", "AH", "AA"])
    def test_mrc_k_curve_memory(self, cond):
        # Running sums keep a few trial-length arrays whatever the number of
        # satellite counts; one more 10^5-trial float array per K (0.76 MiB
        # each, five K here) would pass the bound.
        ns, sg = channel.CONDITIONS[cond]
        rows = self.grid([2, 3, 4, 5, 6], [13.5 if cond[0] == "H" else 7.5], ns=ns, sg=sg)
        # A first small call keeps one-time allocations out of the trace.
        mcsim.simulate_mrc_curve(rows, THR, MCConfig(trials=1000, seed=9))
        tracemalloc.start()
        try:
            mcsim.simulate_mrc_curve(rows, THR, MCConfig(trials=100_000, seed=9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= MRC_K_CURVE_PEAK


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
