import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from satrelay import channel, cli, mcsim, outage
from satrelay.channel import AVERAGE_SHADOWING, CONDITIONS, HEAVY_SHADOWING, LinkSNR, SumSRContext
from satrelay.mcsim import MCConfig, _wilson
from satrelay.outage import HopPair, StaircaseConfig, Threshold

from conftest import ladder_table, law_constants, sum_cdf_mp

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
        [
            dict(steps_m=0),
            dict(steps_m=10**11),
            dict(depth_l=0.0),
            dict(depth_l=math.nan),
            dict(depth_l=math.inf),
            dict(steps_m=2.5),
            dict(steps_m=True),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            StaircaseConfig(**{"steps_m": 50, "depth_l": 15.0, **kwargs})


class TestStaircaseProbability:
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

    @pytest.mark.parametrize(
        "x_offset, y_offset, rhs", [(1.0, 1.0, -1.0), (1.0, 1.0, 0.0), (-1.0, 1.0, 2.0)]
    )
    def test_truncation_bound_validates_like_its_siblings(self, x_offset, y_offset, rhs):
        fx = lambda x: np.clip(x, 0.0, 1.0)
        with pytest.raises(ValueError, match="rhs must be > 0|offsets must be >= 0"):
            outage.staircase_truncation_bound(fx, fx, x_offset, y_offset, rhs, CFG)

    def test_truncation_bound_one_call_per_axis(self):
        # Each wing's tail: the mass beyond the far edge times the CDF
        # interval below the hyperbola's height there.
        link = LinkSNR.from_db(4.0)
        calls = []

        def cdf_of(p):
            return lambda x: calls.append(len(x)) or channel.cdf(p, link, x)

        a, b, rhs = 1.0, 0.5, 2.0
        bound = outage.staircase_truncation_bound(
            cdf_of(HEAVY_SHADOWING), cdf_of(AVERAGE_SHADOWING), a, b, rhs, CFG
        )
        assert calls == [3, 3]
        fx = lambda v: channel.cdf(HEAVY_SHADOWING, link, v)
        fy = lambda v: channel.cdf(AVERAGE_SHADOWING, link, v)
        far = math.sqrt(rhs) + CFG.depth_l
        want = (1.0 - fx(a + far)) * (fy(b + rhs / far) - fy(b)) + (1.0 - fy(b + far)) * (
            fx(a + rhs / far) - fx(a)
        )
        assert bound == pytest.approx(want, rel=1e-12)


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

    @pytest.mark.parametrize("db, sg", [(-6.0, HEAVY_SHADOWING), (20.0, AVERAGE_SHADOWING)])
    def test_reads_each_hop_survival_once(self, monkeypatch, db, sg):
        # Near 1 (-6 dB, AH: two laws) and far below 1/2 (20 dB, AA: both
        # hops one law) alike: one survival evaluation per distinct hop law
        # on one shared grid, and no CDF call.
        hop = hop_at(db, ns=AVERAGE_SHADOWING, sg=sg)
        calls = []
        sf = channel.sf

        def spy_sf(p, link, x):
            calls.append((p, link, x.tobytes()))
            return sf(p, link, x)

        def no_cdf(*args):
            raise AssertionError("op_ss called channel.cdf")

        monkeypatch.setattr(channel, "sf", spy_sf)
        monkeypatch.setattr(channel, "cdf", no_cdf)
        outage.op_ss(hop, THR, CFG)
        assert [c[:2] for c in calls] == list(dict.fromkeys([hop.sg, hop.ns]))
        assert len(calls) == (1 if sg == AVERAGE_SHADOWING else 2)
        assert len({c[2] for c in calls}) == 1


class TestOpSC:
    def test_k1_equals_op_ss(self):
        hop = hop_at(6.0)
        assert outage.op_sc([hop], THR, CFG) == outage.op_ss(hop, THR, CFG)

    def test_brackets_monte_carlo(self):
        hops = [hop_at(10.0, sg=AVERAGE_SHADOWING)] * 5
        analytic = outage.op_sc(hops, THR, CFG)
        est = mcsim.simulate_sc(hops, THR, MCConfig(trials=1_000_000, seed=2718))
        assert est.ci_low <= analytic <= est.ci_high

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            outage.op_sc([], THR, CFG)


class TestRunMemo:
    """Sharing within one row-function call: each distinct hop-pair outage
    and uplink axis once, with the bits of a one-shot call."""

    def test_failure_is_raised_to_every_caller(self, monkeypatch):
        def broken(*args):
            raise ValueError("bad hop law")

        monkeypatch.setattr(channel, "sf", broken)
        for _ in range(2):
            with pytest.raises(ValueError, match="bad hop law"):
                outage.op_sc_rows([hop_at(6.0)], [(0, 0)], THR, CFG)

    def test_shared_memo_matches_one_shot_calls(self, monkeypatch):
        # HH and HA share their uplink and their ns law, so one row-function
        # call reads each of the two hop laws once and computes the shared
        # MRC uplink axis once, with the one-shot bits.
        sf_calls, sum_calls = [], []
        sf, sum_cdf = channel.sf, channel.sum_cdf
        hh, ha = hop_at(6.0), hop_at(6.0, sg=AVERAGE_SHADOWING)
        pairs, rows = [hh, ha], [(i,) * 3 for i in (0, 1, 0)]
        one_shot_sc = [outage.op_sc([pairs[i] for i in row], THR, CFG) for row in rows]
        one_shot_mrc = [outage.op_mrc([pairs[i] for i in row], THR, CFG) for row in rows]

        def spy_sf(p, link, x):
            sf_calls.append((p, link, x.tobytes()))
            return sf(p, link, x)

        monkeypatch.setattr(channel, "sf", spy_sf)
        monkeypatch.setattr(channel, "sum_cdf", lambda *a: sum_calls.append(a) or sum_cdf(*a))
        assert outage.op_sc_rows(pairs, rows, THR, CFG) == one_shot_sc
        assert outage.op_mrc_rows(pairs, rows, THR, CFG) == one_shot_mrc
        # Two distinct hop laws, H and A at 6 dB, on one grid.
        assert [c[:2] for c in sf_calls] == [hh.sg, ha.sg]
        assert len({c[2] for c in sf_calls}) == 1
        # One shared uplink axis, and one downlink axis per distinct row:
        # rows 0 and 2 are equal, so they share it.
        assert len(sum_calls) == 1 + 2

    @pytest.mark.parametrize("rows_of", [outage.op_sc_rows, outage.op_mrc_rows])
    def test_empty_row_rejected(self, rows_of):
        with pytest.raises(ValueError, match="need at least one satellite"):
            rows_of([hop_at(6.0)], [(0,), ()], THR, CFG)

    @pytest.mark.parametrize(
        "rows_of",
        [
            outage.op_sc_rows,
            outage.op_mrc_rows,
            lambda pairs, rows, thr, cfg: outage.asymp_op_sc_rows(pairs, rows, thr),
        ],
        ids=["op_sc_rows", "op_mrc_rows", "asymp_op_sc_rows"],
    )
    def test_row_indices_checked(self, rows_of):
        # An index names one of the pairs: -1 used to read the last pair, a
        # bool the pair it equals, and an index past the end raised a bare
        # IndexError.  A numpy integer is the index it equals.
        pairs = [hop_at(6.0), hop_at(6.0, sg=AVERAGE_SHADOWING)]
        want = rows_of(pairs, [(0,), (1,)], THR, CFG)
        assert rows_of(pairs, [(0,), (np.int64(1),)], THR, CFG) == want
        for bad in (-1, 2, True, 1.0, np.True_):
            with pytest.raises(ValueError, match=r"^index of row 1 must be an integer in 0\.\.1"):
                rows_of(pairs, [(0,), (bad,)], THR, CFG)

    def test_mrc_row_of_unequal_pairs_rejected(self):
        # A row's indices may name distinct but equal pairs; unequal ones
        # have no i.i.d. closed form.
        hh, ha = hop_at(6.0), hop_at(6.0, sg=AVERAGE_SHADOWING)
        pairs = [hh, hop_at(6.0), ha]
        assert outage.op_mrc_rows(pairs, [(0, 1)], THR, CFG) == [outage.op_mrc([hh] * 2, THR, CFG)]
        with pytest.raises(ValueError, match="requires i.i.d. satellites"):
            outage.op_mrc_rows(pairs, [(0, 2)], THR, CFG)
        with pytest.raises(ValueError, match="requires i.i.d. satellites"):
            outage.op_mrc([hh, ha], THR, CFG)

    @pytest.mark.parametrize("rows_of", [outage.op_sc_rows, outage.op_mrc_rows])
    def test_no_rows_no_values(self, rows_of):
        assert rows_of([], [], THR, CFG) == []
        assert rows_of([hop_at(6.0)], [], THR, CFG) == []


def _staircase_mp(pair_x, pair_y, a, b, rhs, cfg):
    """staircase_probability's five pieces, summed in mpmath arithmetic on
    the staircase's float abscissae: the M + 1 block edges from the corner
    sqrt(rhs) out to depth_l beyond it, and the hyperbola's height at each
    block's lower edge, both shifted by the axis's offset."""
    m = cfg.steps_m
    edges = math.sqrt(rhs) + np.arange(m + 1) * (cfg.depth_l / m)
    hyp = rhs / edges[:-1]
    x_edges, x_hyp, y_edges, y_hyp = a + edges, a + hyp, b + edges, b + hyp
    fx = lambda v: sum_cdf_mp(*pair_x, 1, v)
    fy = lambda v: sum_cdf_mp(*pair_y, 1, v)
    fxa, fya = fx(a), fy(b)
    fxe, fye = [fx(v) for v in x_edges], [fy(v) for v in y_edges]
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


LADDER_STEPS = {"ladder-m50": (50, 15.0), "ladder-m200": (200, 30.0), "ladder-m800": (800, 45.0)}


def _table_rows(table):
    """(scheme, hop pairs, threshold, staircase) of each row of a fig1-fig3
    preset or of one staircase-ladder rung, as `satrelay run` compiles them."""
    text = ladder_table(*LADDER_STEPS[table]) if table in LADDER_STEPS else {"preset": table}
    spec = cli._spec_from_table({**text, "mc": "false"})[0]
    plan = cli._plan(spec)
    for point, row in zip(plan.points, plan.rows):
        yield point[0], [plan.pairs[i] for i in row], spec.threshold, spec.staircase


TABLES = ["fig1", "fig2", "fig3", *LADDER_STEPS]


class TestPublicCallablePath:
    """The scheme functions give the bits of the public staircase functions
    fed `channel`'s own evaluators, at every figure and ladder point."""

    @pytest.mark.parametrize("table", TABLES)
    def test_op_ss_and_ps_ss(self, table):
        seen = set()
        for _, hops, thr, cfg in _table_rows(table):
            hop = hops[0]
            if (hop, thr, cfg) in seen:
                continue
            seen.add((hop, thr, cfg))
            g, ups = thr.gamma_th, thr.upsilon
            out = outage.staircase_probability(
                lambda x: channel.cdf(*hop.sg, x), lambda x: channel.cdf(*hop.ns, x), g, g, ups, cfg
            )
            ps = outage.staircase_success_probability(
                lambda x: channel.sf(*hop.sg, x), lambda x: channel.sf(*hop.ns, x), g, g, ups, cfg
            )
            assert outage.ps_ss(hop, thr, cfg) == ps
            assert outage.op_ss(hop, thr, cfg) == (1.0 - ps if out >= 0.5 else out)
        assert seen

    @pytest.mark.parametrize("table", TABLES)
    def test_op_mrc(self, table):
        rows = [r for r in _table_rows(table) if r[0] == "MRC"]
        for _, hops, thr, cfg in rows:
            hop, k, g = hops[0], len(hops), thr.gamma_th
            sg_ctx = SumSRContext.for_fading(hop.sg[0], k)
            ns_ctx = SumSRContext.for_fading(hop.ns[0], k)
            want = outage.staircase_probability(
                lambda x: channel.sum_cdf(*hop.sg, sg_ctx, x),
                lambda y: channel.sum_cdf(*hop.ns, ns_ctx, y),
                0.0,
                g,
                outage.c_mrc([h.ns for h in hops]) * g,
                cfg,
            )
            assert outage.op_mrc(hops, thr, cfg) == want
        assert rows


def _ss_view(hop, thr, cfg):
    """op_ss from the public one-row staircases: the outage form fed
    `channel.cdf`, or 1 - the success form fed `channel.sf` at >= 1/2."""
    g, ups = thr.gamma_th, thr.upsilon
    out = outage.staircase_probability(
        lambda x: channel.cdf(*hop.sg, x), lambda x: channel.cdf(*hop.ns, x), g, g, ups, cfg
    )
    if out < 0.5:
        return out
    return 1.0 - outage.staircase_success_probability(
        lambda x: channel.sf(*hop.sg, x), lambda x: channel.sf(*hop.ns, x), g, g, ups, cfg
    )


def _mrc_view(row, thr, cfg):
    """op_mrc from the public one-row staircase fed `channel.sum_cdf`."""
    hop, g, ctx = row[0], thr.gamma_th, SumSRContext(len(row))
    return outage.staircase_probability(
        lambda x: channel.sum_cdf(*hop.sg, ctx, x),
        lambda y: channel.sum_cdf(*hop.ns, ctx, y),
        0.0,
        g,
        outage.c_mrc([h.ns for h in row]) * g,
        cfg,
    )


def _hop(cond, db):
    ns, sg = CONDITIONS[cond]
    link = LinkSNR.from_db(db)
    return HopPair(ns=(ns, link), sg=(sg, link))


@st.composite
def mixed_tables(draw):
    """SC rows of 1-8 satellites, each of its own condition, and i.i.d. MRC
    rows of K = 1-8, at SNRs from a pool of 1-3 values in [-10, 30] dB, so
    that rows share hop pairs, single-hop laws and uplinks; (M, L) is one
    staircase-ladder rung."""
    snrs = draw(st.lists(st.floats(-10.0, 30.0), min_size=1, max_size=3))
    snr, cond = st.sampled_from(snrs), st.sampled_from(sorted(CONDITIONS))
    sats = st.lists(cond, min_size=1, max_size=8)
    sc = draw(st.lists(st.tuples(snr, sats), min_size=1, max_size=5))
    mrc = draw(st.lists(st.tuples(snr, cond, st.integers(1, 8)), min_size=1, max_size=3))
    steps_m, depth_l = draw(st.sampled_from(sorted(LADDER_STEPS.values())))
    return (
        [[_hop(c, db) for c in conds] for db, conds in sc],
        [[_hop(c, db)] * k for db, c, k in mrc],
        StaircaseConfig(steps_m, depth_l),
    )


def _indexed(rows):
    """Rows of hop pairs as the row functions take them: (the distinct pairs,
    each row as indices into them), as `cli._plan` lists one pair per
    (condition, SNR)."""
    index = {}
    rows = [tuple(index.setdefault(h, len(index)) for h in row) for row in rows]
    return list(index), rows


class TestRowGroups:
    """The row functions gather and reduce their rows, and `sum_cdf` its
    abscissae, in groups of at most `channel._CELLS` cells."""

    def test_groups_keep_the_one_pass_bits(self, monkeypatch):
        # The last pair equals the first, so its K = 2 row repeats row 1 by
        # value: it reads no axis of its own.
        pairs = [_hop(c, db) for c in ("HH", "AA") for db in (-6.0, 12.0)] + [_hop("HH", -6.0)]
        rows = [(i,) * k for i in range(len(pairs) - 1) for k in (1, 2, 16)] + [(4, 4)]
        row_functions = [outage.op_sc_rows, outage.op_mrc_rows]
        want = [rows_of(pairs, rows, THR, CFG) for rows_of in row_functions]
        want_ps = [outage.ps_sc([pairs[i] for i in row], THR, CFG) for row in rows]
        assert len(want[0]) == len(want[1]) == len(rows)
        assert want[1][-1] == want[1][1]
        g, ups = THR.gamma_th, THR.upsilon
        ss_grid = outage._grid(g, ups, CFG).tobytes()
        ss_axes = {(*law, ss_grid) for h in pairs for law in (h.sg, h.ns)}
        mrc_axes = set()
        for row in rows:
            hop, k = pairs[row[0]], len(row)
            rhs = outage.c_mrc([hop.ns] * k) * g
            mrc_axes |= {
                (*hop.ns, k, outage._grid(g, rhs, CFG).tobytes()),
                (*hop.sg, k, outage._grid(0.0, rhs, CFG).tobytes()),
            }
        sf, sum_cdf, sf_calls, sum_calls = channel.sf, channel.sum_cdf, [], []

        def spy_sf(p, link, x):
            sf_calls.append((p, link, x.tobytes()))
            return sf(p, link, x)

        def spy_sum_cdf(p, link, ctx, x):
            sum_calls.append((p, link, ctx.K, x.tobytes()))
            return sum_cdf(p, link, ctx, x)

        monkeypatch.setattr(channel, "sf", spy_sf)
        monkeypatch.setattr(channel, "sum_cdf", spy_sum_cdf)
        # A _grid row holds 2M + 2 = 102 abscissae: one row and one
        # abscissa per group, then three rows and four abscissae at K = 16.
        for cells in (channel._CELLS, 1, 3 * 102 + 1):
            monkeypatch.setattr(channel, "_CELLS", cells)
            sf_calls.clear()
            sum_calls.clear()
            assert [rows_of(pairs, rows, THR, CFG) for rows_of in row_functions] == want
            # Each distinct axis once: 4 hop laws, 12 uplink and 12 downlink axes.
            assert len(sf_calls) == len(ss_axes) == 4 and set(sf_calls) == ss_axes
            assert len(sum_calls) == len(mrc_axes) == 24 and set(sum_calls) == mrc_axes
            assert [outage.ps_sc([pairs[i] for i in row], THR, CFG) for row in rows] == want_ps

    def test_ladder_table_memory_is_bounded(self):
        # The 12 dB column of a staircase-ladder table at M = 20000 (40002
        # abscissae a row; the column keeps the series short) is one row
        # per group and one K = 16 axis in 40 chunks.  Evaluated in one
        # pass, it held 68 MB (the whole table, 80 MB).
        thr, cfg = Threshold.from_rate(0.5), StaircaseConfig(20000, 45.0)
        pairs = [_hop(c, 12.0) for c in sorted(CONDITIONS)]
        rows = [(i,) * k for i in range(len(pairs)) for k in (2, 8, 16)]
        tracemalloc.start()
        try:
            outage.op_sc_rows(pairs, [(i,) for i in range(len(pairs))] + rows, thr, cfg)
            outage.op_mrc_rows(pairs, rows, thr, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 15e6


class TestRowsProperty:
    """The row functions give, bit for bit, what the public one-row views
    give row by row; those views never stack rows."""

    @given(mixed_tables())
    @settings(max_examples=80, deadline=None)
    def test_rows_match_one_row_views(self, table):
        sc_rows, mrc_rows, cfg = table
        sc_pairs, sc_index = _indexed(sc_rows)
        assert outage.op_sc_rows(sc_pairs, sc_index, THR, cfg) == [
            math.prod(_ss_view(hop, THR, cfg) for hop in row) for row in sc_rows
        ]
        g = THR.gamma_th
        asymp = outage.asymp_op_sc_rows(sc_pairs, sc_index, THR)
        assert asymp == [outage.asymp_op_sc(row, THR) for row in sc_rows]
        factor = lambda h: channel.asymptotic_cdf(*h.sg, g) + channel.asymptotic_cdf(*h.ns, g)
        assert asymp == [math.prod(factor(h) for h in row) for row in sc_rows]
        assert outage.op_mrc_rows(*_indexed(mrc_rows), THR, cfg) == [
            _mrc_view(row, THR, cfg) for row in mrc_rows
        ]


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

    def test_series_budget_scales_to_low_snr(self):
        # The fig2 grid's low end pushes the Whittaker argument near 500;
        # the adaptive budget must absorb it without SeriesConvergenceError.
        hops = [hop_at(-6.0, ns=AVERAGE_SHADOWING, sg=HEAVY_SHADOWING)] * 5
        value = outage.op_mrc(hops, THR, CFG)
        assert 0.9 < value <= 1.0


class TestAsymptotics:
    def test_sc_iid_closed_form(self):
        hops = [hop_at(20.0, sg=AVERAGE_SHADOWING)] * 5
        a_sg = float(law_constants(AVERAGE_SHADOWING).alpha)
        a_ns = float(law_constants(HEAVY_SHADOWING).alpha)
        want = (1.0 * (a_sg + a_ns) / 100.0) ** 5
        assert outage.asymp_op_sc(hops, THR) == pytest.approx(want, rel=1e-12)

    def test_mrc_k1_closed_form(self):
        hops = [hop_at(20.0)]
        a_ns = float(law_constants(HEAVY_SHADOWING).alpha)
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
        a_sg = float(law_constants(AVERAGE_SHADOWING).alpha)
        a_ns = float(law_constants(HEAVY_SHADOWING).alpha)
        want = math.gamma(k + 1.0) ** (1.0 / k) * (a_sg + a_ns) / a_ns
        assert gc_mrc / gc_sc == pytest.approx(want, rel=1e-12)
