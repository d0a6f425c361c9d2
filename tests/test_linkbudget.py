import json
import math
from dataclasses import replace

import pytest

from satrelay import cli
from satrelay.linkbudget import LinkBudget, feasible_range, reference_grid, slant_range_km, snr_db

BASE = LinkBudget(
    altitude_km=800.0,
    frequency_hz=950e6,
    elevation_deg=30.0,
    eirp_dbm=23.0,
    g_over_t_dbk=-10.0,
    bandwidth_hz=15e3,
)


class TestSlantRange:
    def test_zenith_equals_altitude(self):
        assert slant_range_km(800.0, 90.0) == pytest.approx(800.0, abs=1e-9)

    def test_reference_geometry(self):
        # hand evaluation: sqrt(7171^2 - (6371 cos30)^2) - 6371 sin30
        assert slant_range_km(800.0, 30.0) == pytest.approx(1395.0, abs=0.1)

    def test_monotone_decreasing_in_elevation(self):
        ranges = [slant_range_km(800.0, e) for e in (5.0, 15.0, 30.0, 60.0, 90.0)]
        assert all(a > b for a, b in zip(ranges, ranges[1:]))

    def test_invalid(self):
        with pytest.raises(ValueError):
            slant_range_km(0.0, 30.0)
        with pytest.raises(ValueError):
            slant_range_km(800.0, 0.0)

    @pytest.mark.parametrize(
        "altitude, elevation, name",
        [
            (math.inf, 30.0, "altitude_km"),
            (math.nan, 30.0, "altitude_km"),
            (800.0, math.nan, "elevation_deg"),
            (800.0, math.inf, "elevation_deg"),
        ],
    )
    def test_non_finite_rejected(self, altitude, elevation, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            slant_range_km(altitude, elevation)


class TestSnrDb:
    def test_bandwidth_doubling_costs_3db(self):
        a = snr_db(BASE)
        b = snr_db(replace(BASE, bandwidth_hz=2 * BASE.bandwidth_hz))
        assert a - b == pytest.approx(10.0 * math.log10(2.0), abs=1e-12)

    def test_gt_is_additive(self):
        a = snr_db(BASE)
        b = snr_db(replace(BASE, g_over_t_dbk=BASE.g_over_t_dbk + 1.0))
        assert b - a == pytest.approx(1.0, abs=1e-12)

    def test_eirp_is_additive(self):
        b = snr_db(replace(BASE, eirp_dbm=BASE.eirp_dbm + 2.5))
        assert b - snr_db(BASE) == pytest.approx(2.5, abs=1e-12)

    def test_strict_monotonicities(self):
        ref = snr_db(BASE)
        assert snr_db(replace(BASE, frequency_hz=2e9)) < ref
        assert snr_db(replace(BASE, altitude_km=1200.0)) < ref
        assert snr_db(replace(BASE, extra_losses_db=6.0)) < ref
        assert snr_db(replace(BASE, elevation_deg=60.0)) > ref

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkBudget(
                altitude_km=800.0,
                frequency_hz=950e6,
                elevation_deg=91.0,
                eirp_dbm=23.0,
                g_over_t_dbk=-10.0,
                bandwidth_hz=15e3,
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("frequency_hz", 0.0),
            ("frequency_hz", -950e6),
            ("frequency_hz", math.nan),
            ("altitude_km", math.inf),
            ("eirp_dbm", math.nan),
            ("g_over_t_dbk", -math.inf),
            ("extra_losses_db", math.nan),
        ],
    )
    def test_bad_input_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            replace(BASE, **{field: value})

    @pytest.mark.parametrize("frequency", ["nan", "0"])
    def test_cli_rejects_bad_frequency(self, capsys, frequency):
        rc = cli.main(["linkbudget", "--frequency-hz", frequency])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        payload = json.loads(captured.err.strip().split("\n")[-1])
        assert payload["error"] == "ValueError"
        assert "frequency_hz" in payload["message"]


class TestFeasibleRange:
    def test_reference_scenario_endpoints(self):
        lo, hi = feasible_range(reference_grid())
        assert lo <= hi
        # loose band around the nominal (-9, 20) dB window
        assert abs(lo - (-9.0)) < 6.0
        assert abs(hi - 20.0) < 6.0

    def test_extremes_at_corner_budgets(self):
        grid = reference_grid()
        lo, hi = feasible_range(grid)
        best = max(grid, key=snr_db)
        worst = min(grid, key=snr_db)
        assert best.g_over_t_dbk == -6.0 and best.bandwidth_hz == 3.75e3
        assert worst.g_over_t_dbk == -25.0 and worst.bandwidth_hz == 180e3
        assert snr_db(best) == hi and snr_db(worst) == lo

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            feasible_range([])
