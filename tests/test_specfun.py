import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from satrelay import channel, cli, outage
from satrelay.channel import AVERAGE_SHADOWING, HEAVY_SHADOWING, LinkSNR
from satrelay.outage import HopPair, StaircaseConfig, Threshold
from satrelay.specfun import (
    _BLOCK,
    _SCAN_AT,
    SeriesConvergenceError,
    _kummer_1f1_ln_grid,
    kummer_1f1,
    whittaker_m_ln,
)


def rational_1f1(a: Fraction, b: Fraction, z: Fraction, terms: int = 200) -> Fraction:
    """Exact-rational ascending series, independent of the float code path."""
    total = Fraction(1)
    term = Fraction(1)
    for n in range(terms):
        term *= (a + n) * z / ((b + n) * (n + 1))
        total += term
    return total


class TestKummer1F1:
    def test_z_zero_is_one(self):
        assert kummer_1f1(2.3, 1.7, 0.0) == 1.0

    def test_a_zero_is_one(self):
        assert kummer_1f1(0.0, 3.0, 25.0) == 1.0

    @pytest.mark.parametrize("z", [0.1, 1.0, 10.0, 50.0])
    def test_exponential_identity(self, z):
        # 1F1(1; 2; z) = (e^z - 1) / z
        got = kummer_1f1(1.0, 2.0, z)
        assert got * z + 1.0 == pytest.approx(math.exp(z), rel=1e-10)

    def test_terminating_series(self):
        # a = -2 terminates after three terms: 1 - 2z/b + z^2/(b(b+1))
        b, z = 4.0, 3.0
        want = 1.0 - 2.0 * z / b + z * z / (b * (b + 1.0))
        assert kummer_1f1(-2.0, b, z) == pytest.approx(want, rel=1e-14)

    def test_matches_rational_series(self):
        got = kummer_1f1(1.0, 3.0, 4.0)
        want = float(rational_1f1(Fraction(1), Fraction(3), Fraction(4)))
        assert got == pytest.approx(want, rel=1e-12)

    def test_nonpositive_integer_b_rejected(self):
        for b in (0.0, -1.0, -3.0):
            with pytest.raises(ValueError):
                kummer_1f1(1.0, b, 1.0)

    def test_negative_z_rejected(self):
        with pytest.raises(ValueError):
            kummer_1f1(1.0, 2.0, -1.0)

    @pytest.mark.parametrize(
        "fn, args, name",
        [
            (kummer_1f1, (1.0, 2.0, math.nan), "z"),
            (kummer_1f1, (1.0, 2.0, math.inf), "z"),
            (whittaker_m_ln, (0.0, 0.5, math.inf), "z"),
            (kummer_1f1, (math.nan, 2.0, 1.0), "a"),
            (kummer_1f1, (1.0, -math.inf, 1.0), "b"),
            (whittaker_m_ln, (math.nan, 0.5, 1.0), "mu"),
            (whittaker_m_ln, (0.0, math.inf, 1.0), "nu"),
        ],
        ids=[
            "kummer-z-nan",
            "kummer-z-inf",
            "whittaker-z-inf",
            "kummer-a-nan",
            "kummer-b-inf",
            "whittaker-mu-nan",
            "whittaker-nu-inf",
        ],
    )
    def test_non_finite_argument_named(self, fn, args, name):
        with pytest.raises(ValueError, match=rf"requires finite {name}, got"):
            fn(*args)

    def test_nonconvergence_raises(self):
        # the terms of 1F1(1; 2; 1000) still grow at the 500-term budget
        with pytest.raises(SeriesConvergenceError):
            kummer_1f1(1.0, 2.0, 1000.0)


class TestWhittakerM:
    @pytest.mark.parametrize("z", [0.5, 2.0, 10.0, 40.0])
    def test_sinh_reduction(self, z):
        # M_{0, 1/2}(z) = 2 sinh(z/2)
        sign, ln_mag = whittaker_m_ln(0.0, 0.5, z)
        want = 2.0 * math.sinh(z / 2.0)
        assert sign == 1.0
        assert math.exp(ln_mag) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("z", [0.5, 2.0, 10.0, 40.0])
    @pytest.mark.parametrize("nu", [0.75, 1.0, 2.5])
    def test_pure_power_reduction(self, z, nu):
        # M_{nu+1/2, nu}(z) = z^(nu+1/2) e^(-z/2)
        sign, ln_mag = whittaker_m_ln(nu + 0.5, nu, z)
        assert sign == 1.0
        want = (nu + 0.5) * math.log(z) - z / 2.0
        assert ln_mag == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_against_rational_series_oracle(self):
        # M_{1.5, 1}(4.0): frozen from the 200-term exact-rational series
        # (and equal to 8 e^-2 through the pure-power reduction).
        sign, ln_mag = whittaker_m_ln(1.5, 1.0, 4.0)
        f = rational_1f1(Fraction(1) - Fraction(3, 2) + Fraction(1, 2), Fraction(3), Fraction(4))
        want_ln = -2.0 + 1.5 * math.log(4.0) + math.log(float(f))
        assert sign == 1.0
        assert ln_mag == pytest.approx(want_ln, rel=1e-12)
        assert sign * math.exp(ln_mag) == pytest.approx(8.0 * math.exp(-2.0), rel=1e-12)

    def test_nontrivial_point_against_rational_series(self):
        # M_{0.5, 1}(4.0) exercises a genuinely infinite series (a = 1, b = 3).
        sign, ln_mag = whittaker_m_ln(0.5, 1.0, 4.0)
        f = rational_1f1(Fraction(1), Fraction(3), Fraction(4))
        want_ln = -2.0 + 1.5 * math.log(4.0) + math.log(float(f))
        assert sign == 1.0
        assert ln_mag == pytest.approx(want_ln, rel=1e-12)

    def test_smooth_and_positive_on_fine_grid(self):
        # In the regime the sum CDF produces (nu - mu + 1/2 >= 0) every series
        # term is positive: no sign flips, and away from the z^(nu+1/2)
        # singularity at the origin ln M varies smoothly in z.
        zs = np.linspace(1.0, 60.0, 1200)
        lns = []
        for z in zs:
            sign, ln_mag = whittaker_m_ln(2.0, 2.5, float(z))
            assert sign == 1.0
            lns.append(ln_mag)
        diffs = np.diff(lns)
        assert np.all(np.abs(np.diff(diffs)) < 0.01)

    def test_z_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            whittaker_m_ln(0.0, 0.5, 0.0)


def per_row_1f1_ln(a: float, b: float, z: np.ndarray, max_terms: int):
    """The one-row series loop the batched kernel must reproduce bit for bit."""
    z = np.asarray(z, dtype=float)
    total = np.ones_like(z)
    term = np.ones_like(z)
    ln_scale = np.zeros_like(z)
    done = np.zeros(z.shape, dtype=bool)
    for n in range(max_terms):
        term = term * ((a + n) / ((b + n) * (n + 1))) * z
        total = total + np.where(done, 0.0, term)
        done |= np.abs(term) <= 1e-12 * np.abs(total)
        done |= term == 0.0
        if done.all():
            with np.errstate(divide="ignore"):
                return np.sign(total), np.log(np.abs(total)) + ln_scale
        big = np.abs(total) > 1e250
        if big.any():
            s = np.where(big, np.abs(total), 1.0)
            total = total / s
            term = term / s
            ln_scale = ln_scale + np.log(s)
    raise SeriesConvergenceError(f"1F1({a}; {b}; z) did not converge within {max_terms} terms")


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


def assert_matches_per_row(a, b, z, max_terms):
    """The batched tables equal the per-row loop's, bit for bit, row by row."""
    z = np.asarray(z, dtype=float)
    sign, ln_mag = _kummer_1f1_ln_grid(a, b, z, max_terms)
    assert sign.shape == ln_mag.shape == (len(a), z.size)
    for i, (a_i, b_i) in enumerate(zip(a, b)):
        want_sign, want_ln = per_row_1f1_ln(a_i, b_i, z, max_terms)
        assert np.array_equal(_bits(sign[i]), _bits(want_sign)), (a_i, b_i)
        assert np.array_equal(_bits(ln_mag[i]), _bits(want_ln)), (a_i, b_i)
    return sign, ln_mag


def _record_series_args(monkeypatch):
    """A list that collects the (a, b, z, max_terms) of every series table
    `channel.sum_cdf` runs from here on."""
    calls = []

    def record(a, b, z, max_terms):
        calls.append((list(a), list(b), np.array(z), max_terms))
        return _kummer_1f1_ln_grid(a, b, z, max_terms)

    monkeypatch.setattr(channel, "_kummer_1f1_ln_grid", record)
    return calls


LINK, THR, CFG = LinkSNR.from_db(-6.0), Threshold.from_rate(0.5), StaircaseConfig(800, 45.0)


def _sum_cdf_series_args(monkeypatch, p, k):
    """The (a, b, z, max_terms) of every series table `op_mrc` runs at
    -6 dB, K = k, M = 800, L = 45 (the finest staircase-ladder step)."""
    calls = _record_series_args(monkeypatch)
    outage.op_mrc([HopPair(ns=(p, LINK), sg=(p, LINK))] * k, THR, CFG)
    return calls


def _mrc_axes(p, k):
    """The abscissae of that `op_mrc`'s uplink and downlink axes, in the
    order it reads them."""
    g = THR.gamma_th
    rhs = outage.c_mrc([(p, LINK)] * k) * g
    return outage._grid(g, rhs, CFG), outage._grid(0.0, rhs, CFG)


def _axis_chunks(calls, p, k):
    """The recorded calls split by axis: for each axis of `_mrc_axes`, the
    consecutive calls whose z concatenate to the axis's z."""
    calls, axes = iter(calls), []
    for x in _mrc_axes(p, k):
        axes.append([])
        while sum(call[2].size for call in axes[-1]) < x.size:
            axes[-1].append(next(calls))
        z = np.concatenate([call[2] for call in axes[-1]])
        assert z.tobytes() == (p._law.theta * x / LINK.eta).tobytes()
    assert next(calls, None) is None
    return axes


class TestBatchedKernel:
    @pytest.mark.parametrize("k", [2, 16])
    @pytest.mark.parametrize("p", [HEAVY_SHADOWING, AVERAGE_SHADOWING], ids=["HH", "AA"])
    def test_sum_cdf_tables_match_per_row(self, monkeypatch, p, k):
        # The uplink axis, then the downlink axis, each in chunks of at most
        # channel._CELLS cells (AA at K = 16, 65 rows x 1602 abscissae, in
        # two); every chunk is the per-row loop's, bit for bit.
        calls = _sum_cdf_series_args(monkeypatch, p, k)
        for a, b, z, max_terms in calls:
            assert len(a) == (p.m - 1) * k + 1
            assert len(a) * z.size <= channel._CELLS
            _, ln_mag = assert_matches_per_row(a, b, z, max_terms)
        chunks = 2 if (p, k) == (AVERAGE_SHADOWING, 16) else 1
        assert [len(axis) for axis in _axis_chunks(calls, p, k)] == [chunks, chunks]
        if p is HEAVY_SHADOWING:
            # z ~ 1460: the a = 1 row's partial sums pass 1e250 and rescale
            assert max(z.max() for _, _, z, _ in calls) > 1400.0
            assert ln_mag.max() > math.log(1e250)

    def test_z_zero(self):
        sign, ln_mag = assert_matches_per_row(
            [1.0, 0.0, -2.0, 2.5], [2.0, 3.0, 4.0, 1.5], [0.0, 0.0, 3.0], 500
        )
        assert np.all(sign[:, :2] == 1.0) and np.all(ln_mag[:, :2] == 0.0)

    def test_terminating_rows(self):
        ls = range(8)
        z = np.concatenate([[0.0], np.geomspace(1e-3, 300.0, 40)])
        assert_matches_per_row([1.0 - l for l in ls], [18.0 - l for l in ls], z, 600)

    def test_zero_valued_rows_give_minus_inf(self):
        # 1F1(-1; 2; 2) = 1 - z/2 = 0 exactly: sign 0 and ln -inf
        sign, ln_mag = assert_matches_per_row([-1.0, 1.0], [2.0, 2.0], [2.0, 1.0], 500)
        assert sign[0, 0] == 0.0 and ln_mag[0, 0] == -math.inf

    def test_rows_spanning_several_blocks(self):
        z = np.linspace(0.0, 250.0, 3 * _BLOCK // 4 + 7)
        ls = range(5)
        assert len(ls) * z.size > 3 * _BLOCK
        assert_matches_per_row([1.0 - l for l in ls], [9.0 - l for l in ls], z, 500)

    @pytest.mark.parametrize(
        "a, b", [([-1.0, 1.0], [2.0, 2.0]), ([-1.0, 1.0, 1.0], [2.0, 2.0, 3.0])]
    )
    def test_nonconvergence_names_the_failing_row(self, a, b):
        # the first row terminates; the next still grows at 500 terms
        with pytest.raises(SeriesConvergenceError, match=r"1F1\(1\.0; 2\.0; z\).*max z = 1000"):
            _kummer_1f1_ln_grid(a, b, [1000.0], 500)

    @pytest.mark.parametrize("preset", ["fig2", "ladder-m50"])
    def test_run_tables_match_per_row(self, monkeypatch, tmp_path, preset):
        # Every table a `satrelay run` of the fig2 preset, or of the coarsest
        # staircase-ladder step (M = 50, L = 15), asks of the kernel.
        argv = ["run", "--preset", "fig2"]
        if preset == "ladder-m50":
            cfg = tmp_path / "ladder-m50.cfg"
            cfg.write_text(
                "schemes = SS, SC, MRC\nconditions = HH, HA, AH, AA\nk_values = 2, 8, 16\n"
                "snr_db = -6.0, 3.0, 12.0\nrate_r = 0.5\nsteps_m = 50\ndepth_l = 15.0\n"
            )
            argv = ["run", "--config", str(cfg)]
        calls = _record_series_args(monkeypatch)
        assert cli.main(argv + ["--no-mc", "--csv", str(tmp_path / "out.csv")]) == 0
        assert calls
        # some tables start above the scan's threshold, so both regimes run
        assert max(len(a) * z.size for a, _, z, _ in calls) > _SCAN_AT
        for a, b, z, max_terms in calls:
            assert_matches_per_row(a, b, z, max_terms)

    def test_a_one_tails_rescale_and_stop_inside_a_pass(self):
        # a = 1 rows from z = 590 to 1500 pass 1e250 (ln 1e250 = 575.6) and
        # then stop, at steps that differ by element, all under the scan.
        z = np.linspace(590.0, 1500.0, 48)
        max_terms = int(z.max() + 10.0 * math.sqrt(z.max()) + 60.0)
        assert 2 * z.size <= _SCAN_AT
        _, ln_mag = assert_matches_per_row([1.0, 1.0], [2.0, 3.0], z, max_terms)
        assert ln_mag.min() > math.log(1e250)

    @pytest.mark.parametrize("cols", [1100, 300], ids=["step-loop", "scan"])
    def test_stop_on_the_last_allowed_term(self, cols):
        # The second row needs the most terms: with exactly that many the
        # table converges; with one fewer the error names that row.  With
        # 1100 equal z the row's elements all stop together above the scan's
        # threshold; with 300 rising z the table starts under it.
        if cols > _SCAN_AT:
            z = np.full(cols, 40.0)
        else:
            z = np.linspace(1.0, 40.0, cols)
        a, b = [-1.0, 1.0, 1.0], [2.0, 2.0, 6.0]
        needed = 1
        while True:
            try:
                per_row_1f1_ln(a[1], b[1], z, needed)
                break
            except SeriesConvergenceError:
                needed += 1
        assert_matches_per_row(a, b, z, needed)
        message = rf"1F1\(1\.0; 2\.0; z\) did not converge within {needed - 1} terms"
        with pytest.raises(SeriesConvergenceError, match=message):
            _kummer_1f1_ln_grid(a, b, z, needed - 1)


def test_kernel_memory_stays_near_its_output(monkeypatch):
    """The staircase-ladder's largest axis (AA, K = 16, M = 800, L = 45, z
    up to ~330: 65 rows x 1602 abscissae) runs as series tables of at most
    channel._CELLS cells.  As one table, the kernel peaks within 1.5x the
    bytes of its two output tables; run in its chunks, one after the other
    as `sum_cdf` runs them, it peaks lower than that one table."""

    def peak_of(tables):
        tracemalloc.start()
        try:
            for a, b, z, max_terms in tables:
                out = _kummer_1f1_ln_grid(a, b, z, max_terms)
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    calls = _sum_cdf_series_args(monkeypatch, AVERAGE_SHADOWING, 16)
    axes = _axis_chunks(calls, AVERAGE_SHADOWING, 16)
    chunks = max(axes, key=lambda axis: max(call[2].max() for call in axis))
    assert max(len(a) * z.size for a, _, z, _ in chunks) <= channel._CELLS
    assert len(chunks) == 2 and max(z.max() for _, _, z, _ in chunks) > 300.0
    a, b, _, max_terms = chunks[0]
    assert all(call[3] == max_terms for call in chunks)
    table = (a, b, np.concatenate([call[2] for call in chunks]), max_terms)
    assert (len(a), table[2].size) == (65, 1602)
    peak, (sign, ln_mag) = peak_of([table])
    assert peak <= 1.5 * (sign.nbytes + ln_mag.nbytes)
    assert peak_of(chunks)[0] < peak
