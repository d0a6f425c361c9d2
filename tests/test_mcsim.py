import math
import threading
import tracemalloc
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satrelay import channel, mcsim, outage
from satrelay.channel import AVERAGE_SHADOWING, HEAVY_SHADOWING, LinkSNR
from satrelay.mcsim import MCConfig, OutageEstimate, _wilson
from satrelay.outage import HopPair, StaircaseConfig, Threshold

from conftest import mrc_outage_mp

THR = Threshold(gamma_th=1.0)


def curve(kind, hops, ks, factors, thr, cfg, workers=1):
    """The estimates of one curve of `simulate_curves`, one per cell, K-major."""
    return mcsim.simulate_curves([(kind, hops, ks, factors, cfg)], thr, workers)[0]


def snr_curve(scheme, hops, factors, thr, cfg, workers=1):
    """One estimate per SNR factor of a one-K curve over `hops`; an SS curve
    is one hop pair, simulated as a one-satellite SC curve."""
    if scheme == "SS":
        return curve("SC", [hops], [1], factors, thr, cfg, workers)
    return curve(scheme, hops, [len(hops)], factors, thr, cfg, workers)


SINGLE = {"SS": mcsim.simulate_ss, "SC": mcsim.simulate_sc, "MRC": mcsim.simulate_mrc}
# Bound on the traced allocation peak of one fig3 MRC K-curve at 10^5
# trials: measured 2.69-2.74 MiB (numpy 2.4), where each one-K kernel of
# the previous sampler peaked at 3.83 MiB.
MRC_K_CURVE_PEAK = 3.0 * 2**20


def hop_at(db, ns=HEAVY_SHADOWING, sg=HEAVY_SHADOWING):
    link = LinkSNR.from_db(db)
    return HopPair(ns=(ns, link), sg=(sg, link))


def grid(ks, dbs, **fading):
    """(hops, factors, rows) of a curve over ascending ks and dbs: the
    largest K's hop list at dbs[0], each SNR's factor eta / eta(dbs[0]),
    and each cell's own hop list, K-major."""
    etas = [LinkSNR.from_db(db).eta for db in dbs]
    rows = [[hop_at(db, **fading)] * k for k in ks for db in dbs]
    return [hop_at(dbs[0], **fading)] * max(ks), [eta / etas[0] for eta in etas], rows


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


def weak_first(hop):
    """A hop pair's two (SRParams, LinkSNR) pairs, the one of the smaller
    mean SNR first (ns on a tie)."""
    if channel.mean_snr(*hop.ns) <= channel.mean_snr(*hop.sg):
        return hop.ns, hop.sg
    return hop.sg, hop.ns


def one_block_hits(scheme, hops, n, seed):
    """The single-row kernels' draw order and event, written out for one
    block: SS and SC branch k draw the hop of the smaller mean SNR for the
    trials still in outage (all n at k = 1), then the other hop where the
    first exceeds gamma; MRC draws the ns sums for all n trials, then the
    sg sums where the ns sum exceeds gamma."""
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
    for hop in hops:
        weak, strong = weak_first(hop)
        first = channel.sample_sum(*weak, 1, rng, size=alive)
        first = first[first > g]
        second = channel.sample_sum(*strong, 1, rng, size=first.size)
        hits = int(np.count_nonzero(second * first / (second + 1.0 + first) <= g))
        alive += hits - first.size
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

    @pytest.mark.parametrize(
        "field, value", [("trials", 1000.0), ("trials", True), ("seed", 1.5), ("seed", False)]
    )
    def test_non_int_trials_and_seed_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            MCConfig(**{"trials": 10, "seed": 1, field: value})

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

    def test_distinct_seeds_differ(self):
        hop = hop_at(10.0)
        a = mcsim.simulate_ss(hop, THR, MCConfig(trials=200_000, seed=1))
        b = mcsim.simulate_ss(hop, THR, MCConfig(trials=200_000, seed=2))
        assert a != b


class TestScheduler:
    def test_block_error_stops_later_blocks(self, monkeypatch):
        # One curve of four blocks on two threads: block 0's first draw
        # raises while block 1 is held at its first draw, so blocks 2 and 3
        # are still queued.  Neither may start, and the caller gets block
        # 0's error.
        class Broken(Exception):
            pass

        started, block_of = [], {}
        block_rng, sample_sum = mcsim._block_rng, channel.sample_sum
        raised = threading.Event()

        def record(seed, block):
            started.append(block)
            rng = block_rng(seed, block)
            block_of[id(rng)] = block
            return rng

        def draw(p, link, k, rng, size=None):
            if block_of[id(rng)] == 0:
                raised.set()
                raise Broken("block 0")
            raised.wait(timeout=30)
            return sample_sum(p, link, k, rng, size=size)

        monkeypatch.setattr(mcsim, "_BLOCK", 1000)
        monkeypatch.setattr(mcsim, "_block_rng", record)
        monkeypatch.setattr(channel, "sample_sum", draw)
        cfg = MCConfig(trials=4000, seed=8)
        before = threading.active_count()
        for _ in range(20):
            started.clear()
            raised.clear()
            with pytest.raises(Broken, match="^block 0$"):
                curve("SC", [hop_at(3.0)] * 2, [2], [1.0], THR, cfg, workers=2)
            assert 0 in started and set(started) <= {0, 1}
            assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [-3, 0, 2.5, True])
    def test_workers_must_be_a_positive_int(self, workers):
        # Every entry point refuses the count before drawing, as `satrelay
        # run` does; these used to return estimates.
        hop, cfg = hop_at(3.0), MCConfig(trials=1000, seed=1)
        calls = [
            lambda: mcsim.simulate_curves([("SC", [hop], [1], [1.0], cfg)], THR, workers),
            lambda: mcsim.simulate_curves([("MRC", [hop], [1], [1.0], cfg)], THR, workers),
            lambda: mcsim.simulate_ss(hop, THR, cfg, workers),
            lambda: mcsim.simulate_sc([hop] * 2, THR, cfg, workers),
            lambda: mcsim.simulate_mrc([hop] * 2, THR, cfg, workers=workers),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="workers"):
                call()

    def test_numpy_integer_workers_accepted(self):
        # An integral numpy count is a thread count like the int it equals.
        hop, cfg = hop_at(3.0), MCConfig(trials=1000, seed=1)
        want = mcsim.simulate_sc([hop] * 2, THR, cfg, workers=2)
        assert mcsim.simulate_sc([hop] * 2, THR, cfg, workers=np.int64(2)) == want
        curves = [("SC", [hop] * 2, [2], [1.0], cfg)]
        assert mcsim.simulate_curves(curves, THR, np.int32(1)) == [[want]]


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
        # Every branch draws ns (the weaker hop here) for the trials still
        # in outage, all n at branch 1, then sg where Lambda_ns > gamma.
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
            over = lam_ns[lam_ns > g]
            assert sg_size == over.size < ns_size
            snr = lam_sg * over / (lam_sg + 1.0 + over)
            alive += int(np.count_nonzero(snr <= g)) - over.size
        assert 0 < alive < n
        assert est.p_hat == alive / n

    def test_second_hop_only_above_own_last_row_limit(self, monkeypatch):
        # A K in {1, 3} curve over four SNRs: a trial draws a branch's
        # second hop only where its first hop exceeds g / f at the trial's
        # own last row still in outage, f that row's SNR factor.  Replayed
        # on the spy's draws with the event at each row written out.
        dbs = [-3.0, 0.0, 3.0, 6.0]
        hops, factors, _ = grid([1, 3], dbs, ns=AVERAGE_SHADOWING)
        n = 100_000
        spy = SampleSpy(monkeypatch)
        est = curve("SC", hops, [1, 3], factors, THR, MCConfig(trials=n, seed=8))
        factors = np.array(factors)
        g = THR.gamma_th
        assert len(spy.calls) == 6
        count = np.full(n, len(dbs))
        hits = {}
        for k in range(3):
            (_, _, size, first), (_, _, second_size, second) = spy.calls[2 * k : 2 * k + 2]
            assert size == count.size
            need = first > g / factors[count - 1]
            assert second_size == np.count_nonzero(need) < size
            a, b = first[need], second
            # Leading rows, in ascending SNR, at which this branch is in outage.
            live = np.ones(a.size, bool)
            branch = np.zeros(a.size, int)
            for f in factors:
                live &= (f * a) * (f * b) / (f * a + 1.0 + f * b) <= g
                branch += live
            count[need] = np.minimum(count[need], branch)
            count = count[count > 0]
            if k in (0, 2):
                hits[k + 1] = [int(np.count_nonzero(count > j)) for j in range(len(dbs))]
        assert [e.p_hat for e in est] == [h / n for k in (1, 3) for h in hits[k]]
        assert hits[3][-1] < hits[1][-1] < hits[1][0]

    def test_weaker_hop_drawn_first(self, monkeypatch):
        # The outage event is symmetric in the two hops, so each branch
        # draws the hop of the smaller mean SNR first, ns on a tie.
        sg_weaker = HopPair(ns=(HEAVY_SHADOWING, LinkSNR.from_db(9.0)), sg=hop_at(3.0).sg)
        hops = [
            hop_at(3.0, ns=AVERAGE_SHADOWING),
            hop_at(3.0, sg=AVERAGE_SHADOWING),
            hop_at(3.0),
            sg_weaker,
        ]
        spy = SampleSpy(monkeypatch)
        mcsim.simulate_sc(hops, THR, MCConfig(trials=20_000, seed=9))
        drawn = [c[0] for c in spy.calls]
        assert drawn == [
            hops[0].sg, hops[0].ns, hops[1].ns, hops[1].sg,
            hops[2].ns, hops[2].sg, sg_weaker.sg, sg_weaker.ns,
        ]
        assert [weak_first(h) for h in hops] == [tuple(drawn[i : i + 2]) for i in range(0, 8, 2)]
        sizes = [c[2] for c in spy.calls]
        assert all(second < first for first, second in zip(sizes[::2], sizes[1::2]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mcsim.simulate_sc([], THR, MCConfig(trials=10, seed=0))


class TestSimulateMRC:
    def test_k1_brackets_fine_fixed_gain_staircase(self):
        # The interval is checked against the exact outage (0.498061); the
        # fine staircase (0.498531, +0.94 sigma of this estimate) is checked
        # against the exact value on its own.
        link = LinkSNR.from_db(16.0)
        hop = HopPair(ns=(HEAVY_SHADOWING, link), sg=(HEAVY_SHADOWING, link))
        cm = outage.c_mrc([hop.ns])
        with mpmath.workdps(20):
            exact = float(mrc_outage_mp(hop.ns, hop.sg, 1, THR.gamma_th, cm))
        staircase = outage.staircase_probability(
            lambda x: channel.cdf(HEAVY_SHADOWING, link, x),
            lambda y: channel.cdf(HEAVY_SHADOWING, link, y),
            0.0,
            1.0,
            cm,
            StaircaseConfig(1600, 40.0),
        )
        assert abs(staircase - exact) <= 1e-3 * exact
        est = mcsim.simulate_mrc([hop], THR, MCConfig(trials=1_000_000, seed=31337))
        assert est.ci_low <= exact <= est.ci_high

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
            (
                "SC",
                [hop_at(10.0), hop_at(7.0, ns=AVERAGE_SHADOWING), hop_at(10.0, sg=AVERAGE_SHADOWING)],
            ),
            ("MRC", [hop_at(3.0), hop_at(6.0, ns=AVERAGE_SHADOWING), hop_at(3.0)]),
        ],
    )
    def test_one_row_curve_draws_as_single_row_kernels(self, scheme, hops):
        # One block, so the whole estimate is the written-out kernel's count.
        n, seed = 200_000, 41
        row = self.row(scheme, hops)
        cfg = MCConfig(trials=n, seed=seed)
        [est] = snr_curve(scheme, row, [1.0], THR, cfg)
        assert est == SINGLE[scheme](row, THR, cfg)
        assert est.p_hat == one_block_hits(scheme, hops, n, seed) / n

    @pytest.mark.parametrize("scheme", ["SS", "SC", "MRC"])
    def test_hits_never_rise_with_snr(self, scheme):
        dbs = [-6.0 + 1.5 * i for i in range(11)]
        hops, factors, _ = grid([5], dbs, ns=AVERAGE_SHADOWING)
        cfg = MCConfig(trials=300_000, seed=77)
        est = snr_curve(scheme, self.row(scheme, hops), factors, THR, cfg)
        p = [e.p_hat for e in est]
        assert all(later <= earlier for earlier, later in zip(p, p[1:]))
        assert p[-1] < p[0]

    def test_rows_in_any_order(self):
        # A curve's factors ascend, one per SNR; putting a table's rows,
        # repeated or unsorted, on their cells is `cli._plan`'s work.
        # Factors out of order are refused, not reordered.
        hops, factors, _ = grid([4], [-3.0, 0.0, 4.5, 9.0])
        cfg = MCConfig(trials=50_000, seed=5)
        est = curve("SC", hops, [4], factors, THR, cfg)
        assert est[0].p_hat >= est[1].p_hat >= est[2].p_hat >= est[3].p_hat
        with pytest.raises(ValueError, match="ascend from 1.0"):
            curve("SC", hops, [4], [factors[i] for i in (0, 2, 1, 3)], THR, cfg)

    def test_malformed_curves_rejected(self):
        cfg, hops = MCConfig(trials=10, seed=0), [hop_at(3.0)] * 2
        with pytest.raises(ValueError):
            curve("SC", [], [1], [1.0], THR, cfg)
        with pytest.raises(ValueError):  # SS curves are SC curves
            mcsim.simulate_curves([("SS", [hop_at(3.0)], [1], [1.0], cfg)], THR)
        for ks in ([1], [1, 3], [2, 1], [1, 1], []):  # not ascending to len(hops)
            for kind in ("SC", "MRC"):
                with pytest.raises(ValueError, match="ascend to its number of hop pairs"):
                    curve(kind, hops, ks, [1.0], THR, cfg)
        with pytest.raises(ValueError, match="^ks must be an integer >= 1, got 0$"):
            curve("SC", hops, [0, 2], [1.0], THR, cfg)
        bad = (
            [],  # no SNR
            [2.0],  # not starting at 1.0
            [0.5, 1.0],
            [1.0 + 1e-15, 2.0],
            [1.0, 2.0, 1.5],  # descending
            [1.0, 0.5],
            [1.0, np.inf],  # not finite
            [1.0, np.nan],
            [1.0, np.nan, 2.0],
        )
        for factors in bad:
            for kind in ("SC", "MRC"):
                with pytest.raises(ValueError, match="factors must be finite and ascend from 1.0"):
                    curve(kind, hops, [2], factors, THR, cfg)
        for kind in ("SC", "MRC"):  # a finite factor that overflows a link's SNR
            with pytest.raises(ValueError, match="^eta must be finite and > 0, got inf$"):
                curve(kind, hops, [2], [1.0, 1e308], THR, cfg)

    @pytest.mark.parametrize("scheme", ["SC", "MRC"])
    def test_every_row_against_full_physical_draw(self, scheme):
        # Fig. 2's AH K=5 sweep: SC keeps only the trials in outage at -6 dB
        # for branches 2..5 and MRC skips the sg sums where the ns sum is
        # below gamma at 9 dB; each row must still match a full draw.
        dbs = [-6.0 + 1.5 * i for i in range(11)]
        hops, factors, rows = grid([5], dbs, ns=AVERAGE_SHADOWING)
        n = 1_000_000
        est = snr_curve(scheme, hops, factors, THR, MCConfig(trials=n, seed=2025))
        ref = physical_outage(scheme, rows, n, seed=5202)
        for e, r in zip(est, ref):
            # Two independent estimates at 1e6 trials each: 5 sigma, and no
            # less than five hits where the reference saw next to none.
            sigma = math.sqrt(2.0 * r * (1.0 - r) / n)
            assert abs(e.p_hat - r) < max(5.0 * sigma, 5.0 / n)


class TestKCurves:
    """A curve's cells may also differ in K: cell (a, b) is the first ks[a]
    satellites at factor b, and every satellite is drawn once."""

    @pytest.mark.parametrize("scheme", ["SC", "MRC"])
    def test_smallest_k_rows_draw_as_one_k_curve(self, scheme):
        # Over three SNRs, the K = 2 rows are the K = 2 SNR curve; at one
        # SNR, as in fig3, the K = 2 row is the one-row call.
        cfg, ks = MCConfig(trials=200_000, seed=43), [2, 3, 4, 5, 6]
        hops, factors, _ = grid(ks, [0.0, 3.0, 6.0], ns=AVERAGE_SHADOWING)
        assert curve(scheme, hops, ks, factors, THR, cfg)[:3] == snr_curve(
            scheme, hops[:2], factors, THR, cfg
        )
        hops, factors, rows = grid(ks, [3.0], ns=AVERAGE_SHADOWING)
        est = curve(scheme, hops, ks, factors, THR, cfg)
        assert est[0] == SINGLE[scheme](rows[0], THR, cfg)

    def test_sc_rows_equal_single_row_calls(self):
        # SC draws branch k alike whatever K follows, so every row of a
        # one-SNR K-curve, K_max's included, is its own one-row call.
        ks = [1, 2, 3, 4, 5, 6]
        hops, factors, rows = grid(ks, [6.0], sg=AVERAGE_SHADOWING)
        cfg = MCConfig(trials=200_000, seed=44)
        est = curve("SC", hops, ks, factors, THR, cfg)
        assert est == [mcsim.simulate_sc(row, THR, cfg) for row in rows]

    @pytest.mark.parametrize("scheme", ["SC", "MRC"])
    def test_hits_never_rise_with_k_or_snr(self, scheme):
        ks, dbs = [1, 2, 3, 4, 5, 6], [-3.0, 0.0, 3.0, 6.0]
        hops, factors, _ = grid(ks, dbs, ns=AVERAGE_SHADOWING, sg=AVERAGE_SHADOWING)
        est = curve(scheme, hops, ks, factors, THR, MCConfig(trials=300_000, seed=78))
        p = np.array([e.p_hat for e in est]).reshape(len(ks), len(dbs))
        assert np.all(np.diff(p, axis=0) <= 0.0) and np.all(np.diff(p, axis=1) <= 0.0)
        assert p[-1, 0] < p[0, 0] and p[0, -1] < p[0, 0]

    def test_rows_in_any_order(self):
        # Cells come back K-major over ascending Ks and SNRs; putting rows
        # of any (K, SNR) order on them is `cli._plan`'s work.  Ks out of
        # order are refused, not reordered.
        hops, factors, rows = grid([2, 4], [0.0, 3.0])
        cfg = MCConfig(trials=50_000, seed=6)
        est = curve("MRC", hops, [2, 4], factors, THR, cfg)
        assert len(est) == len(rows) == 4
        assert est[0].p_hat >= est[1].p_hat and est[0].p_hat >= est[2].p_hat >= est[3].p_hat
        with pytest.raises(ValueError, match="ascend to"):
            curve("MRC", hops, [4, 2], factors, THR, cfg)

    @pytest.mark.parametrize("cond", ["HH", "HA", "AH", "AA"])
    def test_fig3_rows_against_full_physical_draw(self, cond):
        # Fig. 3's K = 2..6 rows at their condition's SNR: SC draws branch
        # k >= 3 only for the trials still in outage, and MRC grows running
        # sums only for them; each row must still match a full draw.
        ns, sg = channel.CONDITIONS[cond]
        db = 13.5 if cond[0] == "H" else 7.5
        ks = [2, 3, 4, 5, 6]
        hops, factors, rows = grid(ks, [db], ns=ns, sg=sg)
        n = 1_000_000
        for scheme in ("SC", "MRC"):
            est = curve(scheme, hops, ks, factors, THR, MCConfig(trials=n, seed=2026))
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
        ks = [2, 3, 4, 5, 6]
        hops, factors, _ = grid(ks, [13.5 if cond[0] == "H" else 7.5], ns=ns, sg=sg)
        # A first small call keeps one-time allocations out of the trace.
        curve("MRC", hops, ks, factors, THR, MCConfig(trials=1000, seed=9))
        tracemalloc.start()
        try:
            curve("MRC", hops, ks, factors, THR, MCConfig(trials=100_000, seed=9))
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
