import argparse
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satrelay import channel, cli, mcsim, outage, validate
from satrelay.channel import CONDITIONS, LinkSNR
from satrelay.cli import CSV_HEADER, RunRow, emit_csv, emit_svg, run
from satrelay.mcsim import MCConfig, OutageEstimate
from satrelay.outage import HopPair, StaircaseConfig, Threshold

from conftest import ladder_table

SVG_NS = "{http://www.w3.org/2000/svg}"
SMALL_TABLE = {"schemes": "SS", "conditions": "HH", "k_values": "1", "snr_db": "10"}


def preset_spec(preset):
    return cli._spec_from_table({"preset": preset})[0]


def analytic_spec(preset, csv_path, svg_path=None):
    spec = preset_spec(preset)
    return replace(spec, mc=None, csv_path=str(csv_path), svg_path=svg_path and str(svg_path))


class TestSpecValidation:
    def test_preset_fig3_cardinality(self, tmp_path):
        rows = run(analytic_spec("fig3", tmp_path / "f3.csv"))
        assert len(rows) == 40  # 2 schemes x 4 conditions x 5 K values

    def test_bad_names_rejected(self):
        base = preset_spec("fig1")
        with pytest.raises(ValueError):
            replace(base, schemes=("XX",))
        with pytest.raises(ValueError):
            replace(base, conditions=("HZ",))
        with pytest.raises(ValueError):
            replace(base, k_values=())

    @pytest.mark.parametrize("k", [True, 2.5, 0])
    def test_k_values_must_be_counts(self, k):
        # True used to run as K = 1 and write "True" in the K column, and
        # 2.5 passed the spec only to fail in `_plan` with a TypeError.
        with pytest.raises(ValueError, match="^k_values must be an integer >= 1"):
            replace(preset_spec("fig1"), k_values=(k,))

    def test_numpy_integer_k_runs_as_its_int(self, tmp_path):
        spec = replace(analytic_spec("fig1", tmp_path / "np.csv"), k_values=(np.int64(5),))
        assert spec.k_values == (5,) and type(spec.k_values[0]) is int
        emit_csv(run(spec), spec.csv_path)
        emit_csv(run(analytic_spec("fig1", tmp_path / "int.csv")), str(tmp_path / "int.csv"))
        written = (tmp_path / "np.csv").read_text()
        assert written == (tmp_path / "int.csv").read_text()
        assert {line.split(",")[2] for line in written.splitlines()[1:]} == {"5"}

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_spec("fig9")


class TestRun:
    def test_fig1_scheme_ordering(self, tmp_path):
        rows = run(analytic_spec("fig1", tmp_path / "f1.csv"))
        by_point = {}
        for r in rows:
            by_point.setdefault((r.condition, r.snr_db), {})[r.scheme] = r.op_analytic
        assert len(by_point) == 22
        for ops in by_point.values():
            # strict below saturation; at the lowest SNRs the SS/SC values
            # round to exactly 1.0 in double precision and can only tie
            assert ops["MRC"] <= ops["SC"] <= ops["SS"]
            if ops["SS"] < 1.0:
                assert ops["MRC"] < ops["SC"] < ops["SS"]

    def test_mc_columns_optional(self, tmp_path):
        rows = run(analytic_spec("fig3", tmp_path / "f3.csv"))
        assert all(r.mc is None for r in rows)
        assert all(r.op_asymptotic is not None for r in rows)

    def test_ss_rows_have_no_asymptote(self, tmp_path):
        rows = run(analytic_spec("fig1", tmp_path / "f1.csv"))
        assert all(r.op_asymptotic is None for r in rows if r.scheme == "SS")

    def test_worker_pool_matches_serial(self, tmp_path):
        spec = replace(
            analytic_spec("fig3", tmp_path / "a.csv"),
            mc=MCConfig(trials=20_000, seed=5),
        )
        assert run(spec, workers=1) == run(spec, workers=3)


class TestCsv:
    def test_header_and_shape(self, tmp_path):
        path = tmp_path / "out.csv"
        spec = replace(analytic_spec("fig3", path), mc=MCConfig(trials=10_000, seed=1))
        emit_csv(run(spec), str(path))
        data = path.read_bytes()
        lines = data.decode("utf-8").split("\n")
        assert lines[0] == CSV_HEADER
        assert len([l for l in lines if l]) == 41
        assert b"\r" not in data

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        spec = replace(analytic_spec("fig3", a), mc=MCConfig(trials=10_000, seed=77))
        emit_csv(run(spec, workers=1), str(a))
        emit_csv(run(replace(spec, csv_path=str(b)), workers=2), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_empty_fields_without_mc(self, tmp_path):
        path = tmp_path / "no_mc.csv"
        emit_csv(run(analytic_spec("fig3", path)), str(path))
        row = path.read_text().split("\n")[1].split(",")
        assert len(row) == 11
        assert row[6:] == ["", "", "", "", ""]

    def test_scientific_notation(self, tmp_path):
        path = tmp_path / "sci.csv"
        emit_csv(run(analytic_spec("fig3", path)), str(path))
        cell = path.read_text().split("\n")[1].split(",")[4]
        assert "e" in cell and len(cell.split("e")[0]) >= 18


class TestSvg:
    def _mc(self, p):
        return OutageEstimate(p_hat=p, ci_low=p * 0.9, ci_high=min(1.0, p * 1.1), trials=1000)

    def test_valid_xml_and_series_count(self, tmp_path):
        path = tmp_path / "chart.svg"
        spec = replace(analytic_spec("fig3", path), mc=MCConfig(trials=10_000, seed=3))
        rows = run(spec)
        emit_svg(rows, str(path))
        root = ET.parse(path).getroot()
        polylines = root.findall(f".//{SVG_NS}polyline")
        # 8 (scheme, condition) groups x (analytic, asymptotic, mc)
        assert len(polylines) == 24

    def test_y_mapping_tracks_log_op(self, tmp_path):
        rows = [
            RunRow("SS", "HH", 5, 0.0, 1e-1, None, None),
            RunRow("SS", "HH", 5, 5.0, 1e-2, None, None),
            RunRow("SS", "HH", 5, 10.0, 1e-3, None, None),
        ]
        path = tmp_path / "three.svg"
        emit_svg(rows, str(path))
        root = ET.parse(path).getroot()
        pts = root.find(f".//{SVG_NS}polyline").get("points").split()
        ys = [float(p.split(",")[1]) for p in pts]
        # decades span the plot height uniformly: 1e-1 at the top edge,
        # 1e-3 at the bottom, 1e-2 exactly between
        assert ys[0] == pytest.approx(40.0)
        assert ys[2] == pytest.approx(480.0)
        assert ys[1] == pytest.approx((ys[0] + ys[2]) / 2.0)
        assert ys[0] < ys[1] < ys[2]

    def test_k_axis_chosen_for_k_sweeps(self, tmp_path):
        path = tmp_path / "k.svg"
        emit_svg(run(analytic_spec("fig3", path)), str(path))
        text = path.read_text()
        assert "satellites in LoS" in text

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_svg([], str(tmp_path / "x.svg"))


class TestConfigFile:
    def test_parse(self):
        cfg = cli.parse_config_text(
            """
            # experiment
            preset = custom
            schemes = SS, SC
            k_values = 1, 5
            trials = 1000
            """
        )
        assert cfg["preset"] == "custom"
        assert cli._split_list(cfg["schemes"]) == ["SS", "SC"]

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            cli.parse_config_text("schemes: SS")

    def test_custom_run_from_config(self, tmp_path):
        conf = tmp_path / "exp.conf"
        out = tmp_path / "exp.csv"
        conf.write_text(
            "schemes = SS\nconditions = HH\nk_values = 1\n"
            "snr_db = 5, 10\nrate_r = 0.5\ntrials = 5000\nseed = 2\n"
            f"csv = {out}\n"
        )
        assert cli.main(["run", "--config", str(conf)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3

    def test_flag_overrides_config(self, tmp_path):
        conf = tmp_path / "exp.conf"
        out = tmp_path / "o.csv"
        conf.write_text(
            "schemes = SS\nconditions = HH\nk_values = 1\nsnr_db = 5\n"
            "trials = 5000\nseed = 2\n"
        )
        assert cli.main(["run", "--config", str(conf), "--no-mc", "--csv", str(out)]) == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        assert row[6] == ""  # --no-mc wins over config trials

    def test_mc_false_in_custom_config(self, tmp_path):
        conf = tmp_path / "exp.conf"
        out = tmp_path / "o.csv"
        conf.write_text(
            "schemes = SS\nconditions = HH\nk_values = 1\nsnr_db = 10\n"
            f"trials = 20000\nmc = false\ncsv = {out}\n"
        )
        assert cli.main(["run", "--config", str(conf)]) == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        assert row[6:] == ["", "", "", "", ""]

    def test_config_keys_override_preset(self, tmp_path):
        # Every config key lies over the preset's table: fig3 cut to one
        # condition and one K, at R = 1 (gamma_th = 3, default depth 45).
        conf = tmp_path / "f3.conf"
        out = tmp_path / "f3.csv"
        conf.write_text("preset = fig3\nconditions = HH\nk_values = 2\nrate_r = 1.0\n")
        assert cli.main(["run", "--config", str(conf), "--no-mc", "--csv", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        ns, sg = CONDITIONS["HH"]
        link = LinkSNR.from_db(13.5)
        hops = [HopPair(ns=(ns, link), sg=(sg, link))] * 2
        thr, stair = Threshold(gamma_th=3.0), StaircaseConfig(steps_m=50, depth_l=45.0)
        assert [(r[0], r[1], r[2], float(r[3])) for r in rows] == [
            ("SC", "HH", "2", 13.5),
            ("MRC", "HH", "2", 13.5),
        ]
        assert float(rows[0][4]) == outage.op_sc(hops, thr, stair)
        assert float(rows[1][4]) == outage.op_mrc(hops, thr, stair)

    @pytest.mark.parametrize(
        "extra, flags, named",
        [
            ("trails = 5000\nsede = 3\n", [], ["trails", "sede"]),
            ("mc = flase\n", [], ["flase"]),
            ("gamma_th = 1.0\nrate_r = 0.5\n", [], ["gamma_th", "rate_r"]),
            ("workers = 0\n", [], ["workers"]),
            ("", ["--workers", "0"], ["workers"]),
            # Not finite, or overflowing in linear form: named before any row.
            ("snr_db_hh = inf\n", [], ["snr_db"]),
            ("snr_db_hh = 1e10\n", ["--no-mc"], ["snr_db"]),
            ("rate_r = 600\n", [], ["rate_r"]),
            ("rate_r = inf\n", ["--no-mc"], ["rate_r"]),
            ("gamma_th = inf\n", [], ["gamma_th"]),
            ("depth_l = inf\n", ["--no-mc"], ["depth_l"]),
            ("trials = 3000\n", [], ["'trials'", "lines 5 and 6"]),
            # Values that do not parse name their key.
            ("steps_m = 5.5\n", ["--no-mc"], ["steps_m", "5.5"]),
            ("depth_l = deep\n", ["--no-mc"], ["depth_l", "deep"]),
            ("seed = x\n", [], ["seed"]),
            ("ci_level = high\n", [], ["ci_level"]),
            ("workers = two\n", [], ["workers"]),
            ("rate_r = half\n", [], ["rate_r"]),
            ("gamma_th = 1,0\n", [], ["gamma_th"]),
            ("snr_db_hh = 10, ten\n", [], ["snr_db_hh", "ten"]),
        ],
        ids=[
            "unknown-keys", "mc-not-boolean", "gamma-th-and-rate", "workers-key", "workers-flag",
            "snr-inf", "snr-overflow", "rate-overflow", "rate-inf", "gamma-th-inf", "depth-inf",
            "duplicate-key", "steps-m-not-int", "depth-not-float", "seed-not-int",
            "ci-level-not-float", "workers-not-int", "rate-not-float", "gamma-th-not-float",
            "snr-not-float",
        ],
    )
    def test_bad_config_rejected(self, tmp_path, capsys, extra, flags, named):
        conf = tmp_path / "bad.conf"
        out = tmp_path / "bad.csv"
        conf.write_text(
            "schemes = SS\nconditions = HH\nk_values = 1\nsnr_db = 10\ntrials = 2000\n" + extra
        )
        assert cli.main(["run", "--config", str(conf), "--csv", str(out), *flags]) == 1
        payload = json.loads(capsys.readouterr().err.strip().split("\n")[-1])
        assert payload["error"] == "ValueError"
        assert all(word in payload["message"] for word in named)
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, flags, named",
        [
            ("mc = false\ntrials = -4\n", [], "trials"),
            ("mc = false\nseed = abc\n", [], "'seed'"),
            ("mc = false\nci_level = 1.5\n", [], "ci_level must be in (0, 1)"),
            ("", ["--no-mc", "--trials", "-4"], "trials"),
        ],
        ids=["trials", "seed", "ci-level", "no-mc-flag"],
    )
    def test_monte_carlo_keys_checked_without_monte_carlo(
        self, tmp_path, capsys, extra, flags, named
    ):
        # A table that runs no Monte Carlo still holds only valid Monte
        # Carlo keys: it is refused before any row, and writes no CSV.
        conf, out = tmp_path / "bad.conf", tmp_path / "bad.csv"
        conf.write_text("schemes = SS\nconditions = HH\nk_values = 1\nsnr_db = 10\n" + extra)
        assert cli.main(["run", "--config", str(conf), "--csv", str(out), *flags]) == 1
        payload = json.loads(capsys.readouterr().err.strip().split("\n")[-1])
        assert payload["error"] == "ValueError" and named in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value", [("trials", "1e5"), ("k_values", "5, x"), ("snr_db", "10, 1O")]
    )
    def test_unparsable_value_names_key(self, key, value):
        table = {"schemes": "SS", "conditions": "HH", "k_values": "1", "snr_db": "10"}
        with pytest.raises(ValueError, match=f"'{key}'"):
            cli._spec_from_table({**table, key: value})

    @pytest.mark.parametrize("preset", sorted(cli.PRESETS))
    def test_presets_are_config_tables(self, tmp_path, preset):
        conf = tmp_path / f"{preset}.conf"
        conf.write_text("".join(f"{k} = {v}\n" for k, v in cli.PRESETS[preset].items()))
        outputs = []
        for source in (["--preset", preset], ["--config", str(conf)]):
            csv, svg = tmp_path / f"{source[0][2:]}.csv", tmp_path / f"{source[0][2:]}.svg"
            argv = ["run", *source, "--no-mc", "--csv", str(csv), "--svg", str(svg)]
            assert cli.main(argv) == 0
            outputs.append((csv.read_bytes(), svg.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_mc_false_in_config_survives_trials_flag(self, tmp_path):
        conf = tmp_path / "exp.conf"
        out = tmp_path / "o.csv"
        conf.write_text("schemes = SS\nconditions = HH\nk_values = 1\nsnr_db = 10\nmc = false\n")
        argv = ["run", "--config", str(conf), "--trials", "5000", "--seed", "3", "--csv", str(out)]
        assert cli.main(argv) == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        assert row[6:] == ["", "", "", "", ""]

    def test_spare_workers_reach_the_simulator(self, tmp_path, monkeypatch):
        # One curve at two workers: its two blocks (600k trials) run on two
        # pool threads, at one worker on the calling thread, and the bytes
        # do not change.
        threads = {}
        real = channel.sample_sum

        def spy(*args, **kwargs):
            threads.setdefault(workers, set()).add(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(channel, "sample_sum", spy)
        conf = tmp_path / "one.conf"
        conf.write_text(
            "schemes = SS\nconditions = HH\nk_values = 1\nsnr_db = 10\n"
            "trials = 600000\nseed = 4\n"
        )
        csvs = []
        for workers in ("1", "2"):
            csvs.append(tmp_path / f"w{workers}.csv")
            argv = ["run", "--config", str(conf), "--workers", workers, "--csv", str(csvs[-1])]
            assert cli.main(argv) == 0
        caller = threading.get_ident()
        assert threads["1"] == {caller}
        assert len(threads["2"]) == 2 and caller not in threads["2"]
        assert csvs[0].read_bytes() == csvs[1].read_bytes()


def _items(text):
    return [item.strip() for item in text.split(",") if item.strip()]


def _number(convert, text):
    try:
        return convert(text)
    except (ValueError, OverflowError):
        return None


def _gamma_ok(g):
    return g is not None and g > 0.0 and math.isfinite(g * (g + 1.0))


def _db_ok(text):
    db = _number(float, text)
    eta = None if db is None else _number(lambda d: 10.0 ** (d / 10.0), db)
    return eta is not None and math.isfinite(eta) and eta > 0.0


def _int_ok(text, low=None, high=None):
    n = _number(int, text)
    return n is not None and (low is None or n >= low) and (high is None or n <= high)


def _list_ok(ok, empty_ok=False):
    return lambda text: (empty_ok or bool(_items(text))) and all(map(ok, _items(text)))


# Whether one config value is valid, key by key, read off the documented
# rules rather than the parser.
VALID = {
    "preset": lambda t: t in (*cli.PRESETS, "custom"),
    "schemes": _list_ok(lambda i: i.upper() in cli.SCHEMES),
    "conditions": _list_ok(lambda i: i.upper() in CONDITIONS),
    "k_values": _list_ok(lambda i: _int_ok(i, 1)),
    # An SNR key may list nothing, unless a listed condition reads it.
    **{key: _list_ok(_db_ok, True) for key in cli.CONFIG_KEYS if key.startswith("snr_db")},
    "rate_r": lambda t: _gamma_ok(_number(lambda r: 2.0 ** (2.0 * float(r)) - 1.0, t)),
    "gamma_th": lambda t: _gamma_ok(_number(float, t)),
    "steps_m": lambda t: _int_ok(t, 1, StaircaseConfig.MAX_STEPS_M),
    "depth_l": lambda t: (v := _number(float, t)) is not None and math.isfinite(v) and v > 0.0,
    "mc": lambda t: t.lower() in ("true", "1", "yes", "false", "0", "no"),
    "trials": lambda t: _int_ok(t, 1),
    "seed": _int_ok,
    "ci_level": lambda t: (v := _number(float, t)) is not None and 0.0 < v < 1.0,
    "csv": bool,
    "svg": bool,
    "workers": lambda t: _int_ok(t, 1),
}

ITEMS = [
    "SS", "sc", "MRC", "XX", "HH", "ha", "AA", "HZ", "1", "2", "5", "0", "-1", "1.5", "13.5",
    "-6", "1e2", "nan", "inf", "-inf", "1e400", "-1e400", "1e308", "1e-320", "5e-324", "300",
    "1e10", "", " ", "true", "False", "yes", "no", "fig1", "fig9", "custom", "abc", "out.csv",
]


def _text(key):
    """Text for key: a value known to be valid, or one or more items,
    joined with commas, from a pool mixing valid text with nan, +-inf,
    huge, tiny, negative, empty and boolean values; items may repeat."""
    valid = {
        "preset": ["fig1", "fig2", "fig3", "custom"],
        "schemes": ["SS", "SC, MRC", "ss, SS"],
        "conditions": ["HH", "HA, AA", "hh, HH"],
        "k_values": ["1", "2, 5", "5, 5"],
        "rate_r": ["0.5", "1.0"],
        "gamma_th": ["1", "3"],
        "steps_m": ["1", "50"],
        "depth_l": ["15", "45"],
        "mc": ["true", "no", "0"],
        "trials": ["1000"],
        "seed": ["7", "-3"],
        "ci_level": ["0.99"],
        "csv": ["out.csv", "a/out.csv"],
        "svg": ["out.svg", "out.csv", "fig1.csv"],
        "workers": ["1", "2"],
    }.get(key, ["10", "-6, 0, 13.5", "0, 0"])
    items = st.lists(st.sampled_from(ITEMS), min_size=1, max_size=3).map(", ".join)
    return st.sampled_from(valid) | st.sampled_from(ITEMS) | items


def _problems(table):
    """(invalid, structural): the keys whose values break their own rule,
    and the key sets that break a rule across keys; an unknown preset is
    refused before the rules across keys are read."""
    invalid = {key for key, text in table.items() if key not in VALID or not VALID[key](text)}
    preset = table.get("preset", "custom")
    if "preset" in invalid:
        return invalid, []
    merged = {**cli.PRESETS.get(preset, {}), **table}
    structural = [{key} for key in ("schemes", "conditions", "k_values") if key not in merged]
    if "gamma_th" in merged and "rate_r" in merged:
        structural.append({"gamma_th", "rate_r"})
    if "conditions" in merged and "conditions" not in invalid:
        for c in {c.upper() for c in _items(merged["conditions"])}:
            own = f"snr_db_{c.lower()}"
            if not _items(merged.get(own, merged.get("snr_db", ""))):
                structural.append({own, "snr_db"})
    csv, svg = merged.get("csv", f"{preset}.csv"), merged.get("svg")
    if csv and svg and os.path.abspath(csv) == os.path.abspath(svg):
        structural.append({"csv", "svg"})
    return invalid, structural


class TestConfigProperty:
    @given(
        base=st.sampled_from([{}, {"preset": "fig1"}, {"preset": "fig3"}, SMALL_TABLE]),
        drawn=st.lists(st.sampled_from([*cli.CONFIG_KEYS, "trails"]), unique=True, max_size=5)
        .flatmap(lambda keys: st.fixed_dictionaries({key: _text(key) for key in keys})),
    )
    @example(base=SMALL_TABLE, drawn={"csv": ""})
    @example(base=SMALL_TABLE, drawn={"svg": ""})
    @settings(max_examples=400, deadline=None)
    def test_table_refused_naming_a_key_or_valid_on_every_key(self, base, drawn):
        # Every key a table holds is checked, whether or not the run reads
        # it: a table is refused with a ValueError that names a bad key, or
        # every key it holds is valid.  At the parent `csv =` (empty) was
        # accepted and failed only after the whole table was computed, and
        # `svg =` silently wrote no chart.
        table = {**base, **drawn}
        invalid, structural = _problems(table)
        bad = invalid.union(*structural)
        if not bad:
            spec, workers = cli._spec_from_table(table)
            assert spec.csv_path and spec.svg_path != "" and workers >= 1
            return
        with pytest.raises(ValueError) as refused:
            cli._spec_from_table(table)
        message = str(refused.value)
        named = {key for key in bad if re.search(rf"(?<!\w){re.escape(key)}(?!\w)", message)}
        assert named, (table, message)

    @pytest.mark.parametrize("key", ["csv", "svg"])
    def test_empty_output_refused_before_any_row(self, tmp_path, capsys, monkeypatch, key):
        called = []
        for name in ("op_sc_rows", "op_mrc_rows"):
            monkeypatch.setattr(outage, name, lambda *a, name=name: called.append(name) or [])
        conf = tmp_path / "empty.conf"
        conf.write_text("".join(f"{k} = {v}\n" for k, v in SMALL_TABLE.items()) + f"{key} =\n")
        out = [] if key == "csv" else ["--csv", str(tmp_path / "out.csv")]
        assert cli.main(["run", "--config", str(conf), "--no-mc", *out]) == 1
        payload = json.loads(capsys.readouterr().err.strip().split("\n")[-1])
        assert payload == {"error": "ValueError", "message": f"{key} must name a file"}
        assert called == []


class TestCurves:
    def test_unsorted_repeated_snr_rows_in_spec_order(self, tmp_path):
        conf = tmp_path / "curve.conf"
        conf.write_text(
            "schemes = SS, SC, MRC\nconditions = AH\nk_values = 3\n"
            "snr_db = 6, -3, 6, 0\ntrials = 20000\nseed = 7\n"
        )
        csvs = []
        for workers in ("1", "2"):
            csvs.append(tmp_path / f"w{workers}.csv")
            argv = ["run", "--config", str(conf), "--workers", workers, "--csv", str(csvs[-1])]
            assert cli.main(argv) == 0
        assert csvs[0].read_bytes() == csvs[1].read_bytes()
        rows = [line.split(",") for line in csvs[0].read_text().splitlines()[1:]]
        assert [(r[0], float(r[3])) for r in rows] == [
            (scheme, db) for scheme in ("SS", "SC", "MRC") for db in (6.0, -3.0, 6.0, 0.0)
        ]
        for i in range(0, 12, 4):
            at_6, at_m3, again_6, at_0 = rows[i : i + 4]
            assert at_6 == again_6  # one draw set per curve
            assert float(at_m3[6]) >= float(at_0[6]) >= float(at_6[6])
        # The SS and SC rows form one SC curve over K = 1 and 3 and the
        # SNRs -3, 0 and 6 dB, seeded by the index of its first row, the
        # first SS row; each row reads its (K, SNR) cell.
        ns, sg = CONDITIONS["AH"]
        links = [LinkSNR.from_db(db) for db in (-3, 0, 6)]
        hops = [HopPair(ns=(ns, links[0]), sg=(sg, links[0]))] * 3
        factors = [link.eta / links[0].eta for link in links]
        cfg = MCConfig(trials=20000, seed=mcsim._row_seed(7, 0))
        curves = [("SC", hops, [1, 3], factors, cfg)]
        est = mcsim.simulate_curves(curves, Threshold.from_rate(0.5))[0]
        dbs = (-3, 0, 6)
        want = [est[a * 3 + dbs.index(db)].p_hat for a in (0, 1) for db in (6, -3, 6, 0)]
        assert [float(r[6]) for r in rows[0:8]] == want

    def test_repeated_conditions_k_and_snrs(self, tmp_path):
        # Repeated and unsorted schemes' conditions, K values and SNRs: each
        # repeated row is its first occurrence bit for bit, at one worker
        # and at two, and every row reads its own hop pair and (K, SNR) cell.
        conf = tmp_path / "repeated.conf"
        conf.write_text(
            "schemes = MRC, SS, SC\nconditions = HA, HH, HA\nk_values = 3, 2, 3\n"
            "snr_db = 6, -3, 6, 0\ntrials = 20000\nseed = 7\n"
        )
        csvs = []
        for workers in ("1", "2"):
            csvs.append(tmp_path / f"w{workers}.csv")
            argv = ["run", "--config", str(conf), "--workers", workers, "--csv", str(csvs[-1])]
            assert cli.main(argv) == 0
        assert csvs[0].read_bytes() == csvs[1].read_bytes()
        lines = csvs[0].read_text().splitlines()[1:]
        first = {}
        for line in lines:
            assert first.setdefault(tuple(line.split(",")[:4]), line) == line
        assert (len(lines), len(first)) == (3 * 3 * 3 * 4, 3 * 2 * 2 * 3)

        spec = cli._spec_from_table(cli.parse_config_text(conf.read_text()))[0]
        rows = run(spec)
        thr, stair, dbs = spec.threshold, spec.staircase, (-3.0, 0.0, 6.0)
        curves = {
            "SC": ([1, 2, 3], outage.op_sc),
            "MRC": ([2, 3], outage.op_mrc),
        }
        for cond in ("HA", "HH"):
            ns, sg = CONDITIONS[cond]
            links = {db: LinkSNR.from_db(db) for db in dbs}
            pairs = {db: HopPair(ns=(ns, link), sg=(sg, link)) for db, link in links.items()}
            for kind, (ks, one_shot) in curves.items():
                index = [
                    i for i, r in enumerate(rows)
                    if r.condition == cond and ("MRC" if r.scheme == "MRC" else "SC") == kind
                ]
                cfg = replace(spec.mc, seed=mcsim._row_seed(7, index[0]))
                factors = [links[db].eta / links[dbs[0]].eta for db in dbs]
                hops = [pairs[dbs[0]]] * 3
                est = mcsim.simulate_curves([(kind, hops, ks, factors, cfg)], thr)[0]
                for r in (rows[i] for i in index):
                    k = 1 if r.scheme == "SS" else r.k
                    assert r.mc == est[ks.index(k) * 3 + dbs.index(r.snr_db)]
                    assert r.op_analytic == one_shot([pairs[r.snr_db]] * k, thr, stair)

    def test_ss_rows_are_the_one_satellite_rows_of_the_sc_curve(self):
        # fig1 holds one SC curve per condition: its SS rows (one hop each)
        # and its SC rows (K = 5), drawn from one set seeded by the index of
        # the condition's first SS row.
        # Its cells, K-major over K = 1, 5 and the eleven ascending SNRs, are
        # the rows in spec order.
        spec = replace(preset_spec("fig1"), mc=MCConfig(trials=4000, seed=12))
        rows = run(spec, workers=2)
        for cond in ("HH", "HA"):
            index = [i for i, r in enumerate(rows) if r.condition == cond and r.scheme != "MRC"]
            assert [rows[i].scheme for i in index] == ["SS"] * 11 + ["SC"] * 11
            ns, sg = CONDITIONS[cond]
            links = [LinkSNR.from_db(rows[i].snr_db) for i in index[:11]]
            hops = [HopPair(ns=(ns, links[0]), sg=(sg, links[0]))] * 5
            factors = [link.eta / links[0].eta for link in links]
            cfg = replace(spec.mc, seed=mcsim._row_seed(12, index[0]))
            assert [rows[i].mc for i in index] == mcsim.simulate_curves(
                [("SC", hops, [1, 5], factors, cfg)], spec.threshold
            )[0]

    def test_sc_never_above_ss_at_one_seed(self):
        # SC shares its first branch with SS, so at every SNR its hit count
        # is at most SS's.  The grids put the SS outage at 0.96-0.999, where
        # SC at K = 2 sits only a few hits lower at 300 trials: independent
        # draws for the two schemes cross at some SNR of this table for
        # about four seeds in five.
        table = {
            "schemes": "SS, SC", "conditions": "HH, HA, AH, AA", "k_values": "2",
            "snr_db_hh": "7, 7.5, 8, 8.5, 9", "snr_db_ha": "4, 4.5, 5, 5.5, 6",
            "snr_db_ah": "4, 4.5, 5, 5.5, 6", "snr_db_aa": "-1, -0.5, 0, 0.5, 1",
            "trials": "300", "seed": "5",
        }
        spec, _ = cli._spec_from_table(table)
        rows = run(spec)
        ss = {(r.condition, r.snr_db): r.mc.p_hat for r in rows if r.scheme == "SS"}
        sc = {(r.condition, r.snr_db): r.mc.p_hat for r in rows if r.scheme == "SC"}
        assert sc.keys() == ss.keys() and len(ss) == 20
        assert all(sc[key] <= ss[key] for key in ss)

    def test_k_curves_keep_first_row_seeds(self):
        # fig3 has one curve per (scheme, condition), spanning K = 2..6 and
        # seeded by the index of its first row, the K = 2 row, which keeps
        # the one-row stream it had as a curve of its own.
        spec = replace(preset_spec("fig3"), mc=MCConfig(trials=3000, seed=11))
        rows = run(spec, workers=2)
        assert len(rows) == 40
        for first in range(0, 40, 5):
            curve_rows = rows[first : first + 5]
            assert len({(r.scheme, r.condition) for r in curve_rows}) == 1
            assert [r.k for r in curve_rows] == [2, 3, 4, 5, 6]
            ns, sg = CONDITIONS[curve_rows[0].condition]
            link = LinkSNR.from_db(curve_rows[0].snr_db)
            hops = [HopPair(ns=(ns, link), sg=(sg, link))] * 6
            cfg = replace(spec.mc, seed=mcsim._row_seed(11, first))
            scheme = curve_rows[0].scheme
            assert [r.mc for r in curve_rows] == mcsim.simulate_curves(
                [(scheme, hops, [2, 3, 4, 5, 6], [1.0], cfg)], spec.threshold
            )[0]
            one_row = mcsim.simulate_sc if scheme == "SC" else mcsim.simulate_mrc
            assert curve_rows[0].mc == one_row(hops[:2], spec.threshold, cfg)

    def test_ss_rows_repeat_across_k(self):
        # SS does not depend on K, so its rows at one SNR share their draws.
        table = {"schemes": "SS", "conditions": "HA", "k_values": "2, 3", "snr_db": "0, 6"}
        spec, _ = cli._spec_from_table({**table, "trials": "5000"})
        rows = run(spec)
        assert [(r.k, r.snr_db) for r in rows] == [(2, 0.0), (2, 6.0), (3, 0.0), (3, 6.0)]
        assert rows[0].mc == rows[2].mc and rows[1].mc == rows[3].mc
        assert rows[0].mc.p_hat > rows[1].mc.p_hat


class TestRunMemo:
    @pytest.mark.parametrize(
        "table, sf_calls, sum_cdf_calls",
        [({"preset": "fig1", "mc": "false"}, 22, 33), (ladder_table(50, 15.0), 6, 54)],
        ids=["fig1", "ladder-m50"],
    )
    def test_each_hop_pair_and_uplink_axis_once(
        self, monkeypatch, table, sf_calls, sum_cdf_calls
    ):
        # fig1's 44 SS/SC rows hold 22 hop laws (H and A at 11 SNRs), and
        # its 22 MRC rows share 11 uplink axes between HH and HA; the
        # ladder's 72 rows hold 6 hop laws (H and A at 3 SNRs), and 18
        # uplink axes serve its 36 MRC rows.  Every survival call reads the
        # table's one SS grid.
        sf_args, sum_args = [], []
        sf, sum_cdf = channel.sf, channel.sum_cdf

        def spy_sf(p, link, x):
            sf_args.append((p, link, x.tobytes()))
            return sf(p, link, x)

        def spy_sum(p, link, ctx, x):
            sum_args.append((p, link, ctx.K, x.tobytes()))
            return sum_cdf(p, link, ctx, x)

        monkeypatch.setattr(channel, "sf", spy_sf)
        monkeypatch.setattr(channel, "sum_cdf", spy_sum)
        run(cli._spec_from_table(table)[0])
        assert len(sf_args) == len(set(sf_args)) == sf_calls
        assert len({x for *_, x in sf_args}) == 1
        assert len(sum_args) == len(set(sum_args)) == sum_cdf_calls

    def test_each_law_constant_computed_once(self, monkeypatch):
        # fig3 reads two laws (H and A): their mixtures are computed once
        # each and their sum-law constants once per K = 2..6, while
        # sum_cdf is still called once per axis (30 times).
        for p in (channel.HEAVY_SHADOWING, channel.AVERAGE_SHADOWING):
            vars(p).pop("_law", None)
        laws, sums, sum_calls = [], [], []
        law_of, sum_law_of, sum_cdf = channel._law_of, channel._sum_law_of, channel.sum_cdf
        monkeypatch.setattr(channel, "_law_of", lambda p: laws.append(p) or law_of(p))
        monkeypatch.setattr(
            channel, "_sum_law_of", lambda p, k: sums.append((p, k)) or sum_law_of(p, k)
        )
        monkeypatch.setattr(channel, "sum_cdf", lambda *a: sum_calls.append(a) or sum_cdf(*a))
        run(replace(preset_spec("fig3"), mc=None))
        assert sorted(laws, key=lambda p: p.m) == [
            channel.HEAVY_SHADOWING, channel.AVERAGE_SHADOWING
        ]
        assert len(sums) == len(set(sums)) == 10
        assert {k for _, k in sums} == {2, 3, 4, 5, 6}
        assert len(sum_calls) == 30

    def test_sweep_hashes_each_row_hop_pair_once(self, monkeypatch):
        # The plan hands the row functions one hop pair per (condition, SNR)
        # and each row as indices into them, so a fig1-fig3 sweep hashes no
        # HopPair at all.  Only the single-hop laws are keyed by value, both
        # of each pair's once per row-function call: 192 SRParams and 192
        # LinkSNR hashes a sweep.
        def spy(cls):
            real, seen = cls.__hash__, []
            monkeypatch.setattr(cls, "__hash__", lambda h: seen.append(1) or real(h))
            return seen

        pairs, laws, links = spy(HopPair), spy(channel.SRParams), spy(LinkSNR)
        for preset in ("fig1", "fig2", "fig3"):
            run(replace(preset_spec(preset), mc=None))
        assert len(pairs) == 0
        assert 0 < len(laws) <= 200 and 0 < len(links) <= 200
        # The HopPair spy does fire: hashing one of the plan's pairs counts.
        hash(cli._plan(preset_spec("fig1")).pairs[0])
        assert len(pairs) == 1

    def test_rows_match_one_shot_calls(self):
        spec = preset_spec("fig3")
        rows = run(replace(spec, mc=None))
        for r in rows:
            ns, sg = CONDITIONS[r.condition]
            link = LinkSNR.from_db(r.snr_db)
            hops = [HopPair(ns=(ns, link), sg=(sg, link))] * r.k
            one_shot = outage.op_mrc if r.scheme == "MRC" else outage.op_sc
            assert r.op_analytic == one_shot(hops, spec.threshold, spec.staircase)

    def test_shared_uplink_axis_across_workers(self, tmp_path):
        # HH and HA share each MRC uplink axis, and SS and SC share each
        # hop pair; the calling thread computes each once at any worker
        # count, while the pool runs the Monte Carlo curves.
        conf = tmp_path / "shared.conf"
        conf.write_text(
            "schemes = SS, SC, MRC\nconditions = HH, HA\nk_values = 2, 3\n"
            "snr_db = 0, 9\ntrials = 4000\nseed = 3\n"
        )
        csvs = []
        for workers in ("1", "2"):
            csvs.append(tmp_path / f"w{workers}.csv")
            argv = ["run", "--config", str(conf), "--workers", workers, "--csv", str(csvs[-1])]
            assert cli.main(argv) == 0
        assert csvs[0].read_bytes() == csvs[1].read_bytes()

    def test_memo_is_small_and_dropped_with_the_run(self, monkeypatch):
        # Nothing is cached across runs: a second identical run repeats
        # every sum_cdf call of the first.
        calls = []
        sum_cdf = channel.sum_cdf

        def spy_sum(p, link, ctx, x):
            calls.append((p, link, ctx.K, x.tobytes()))
            return sum_cdf(p, link, ctx, x)

        monkeypatch.setattr(channel, "sum_cdf", spy_sum)
        spec = cli._spec_from_table(ladder_table(50, 15.0))[0]
        first = [r.op_analytic for r in run(spec)]
        assert len(calls) == 54
        assert [r.op_analytic for r in run(spec)] == first
        assert calls[54:] == calls[:54]


# SS, SC and MRC over HH and HA at K = 2, 3, with Monte Carlo on two workers.
SHARED_TABLE = {
    "schemes": "SS, SC, MRC", "conditions": "HH, HA", "k_values": "2, 3",
    "snr_db": "0, 9", "trials": "4000", "seed": "3", "workers": "2",
}


class TestThreads:
    def test_analytic_on_the_calling_thread_and_mc_on_the_pool(self, monkeypatch):
        # Only the thread that called run computes analytic values; the
        # Monte Carlo draws, SC and MRC alike, run on the pool.
        threads = {}

        def spy(module, name):
            real = getattr(module, name)

            def record(*args, **kwargs):
                threads.setdefault(name, set()).add(threading.get_ident())
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, record)

        spy(channel, "sf")
        spy(channel, "sum_cdf")
        spy(mcsim, "simulate_curves")
        spy(channel, "sample_sum")
        spy(mcsim, "_side_sum")
        run(*cli._spec_from_table(SHARED_TABLE))
        caller = threading.get_ident()
        assert threads["sf"] == threads["sum_cdf"] == threads["simulate_curves"] == {caller}
        assert threads["_side_sum"] and caller not in threads["sample_sum"]

    @pytest.mark.parametrize(
        "module, name",
        [(outage, "op_mrc_rows"), (channel, "sample_sum")],
        ids=["analytic", "mc"],
    )
    def test_errors_reach_the_caller(self, monkeypatch, module, name):
        class Broken(Exception):
            pass

        def broken(*args, **kwargs):
            raise Broken(f"broken {name}")

        monkeypatch.setattr(module, name, broken)
        before = threading.active_count()
        with pytest.raises(Broken, match=f"^broken {name}$"):
            run(*cli._spec_from_table(SHARED_TABLE))
        assert threading.active_count() == before

    def test_analytic_error_cancels_the_queued_curves(self, monkeypatch):
        # The analytic column fails at once, and no curve starts after that.
        class Broken(Exception):
            pass

        started = []
        real = mcsim.simulate_curves

        def record(*args, **kwargs):
            started.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(mcsim, "simulate_curves", record)

        def broken(*args):
            raise Broken("broken op_sc_rows")

        monkeypatch.setattr(outage, "op_sc_rows", broken)
        spec, workers = cli._spec_from_table({**SHARED_TABLE, "trials": "400000", "workers": "1"})
        before = threading.active_count()
        with pytest.raises(Broken, match="^broken op_sc_rows$"):
            run(spec, workers)
        assert started == []
        assert threading.active_count() == before

    def test_analytic_column_done_before_any_curve_starts(self, monkeypatch):
        # The analytic column does not run beside the Monte Carlo pool: both
        # row functions return before the first draw, and SC and MRC curves
        # draw after them.
        events = []

        def spy(module, name):
            real = getattr(module, name)

            def record(*args, **kwargs):
                events.append(("start", name))
                out = real(*args, **kwargs)
                events.append(("end", name))
                return out

            monkeypatch.setattr(module, name, record)

        for name in ("op_sc_rows", "op_mrc_rows"):
            spy(outage, name)
        spy(channel, "sample_sum")
        spy(mcsim, "_side_sum")
        run(*cli._spec_from_table(SHARED_TABLE))
        first_draw = events.index(("start", "sample_sum"))
        assert ("start", "_side_sum") in events[first_draw:]
        assert events[:first_draw] == [
            ("start", "op_sc_rows"), ("end", "op_sc_rows"),
            ("start", "op_mrc_rows"), ("end", "op_mrc_rows"),
        ]

    def test_curve_error_cancels_the_queued_curves(self, monkeypatch):
        # One worker and four curves of one block each: the first curve's
        # first draw raises, and no later curve starts.
        class Broken(Exception):
            pass

        started = []
        block_rng = mcsim._block_rng

        def record(seed, block):
            started.append((seed, block))
            return block_rng(seed, block)

        def broken(*args, **kwargs):
            raise Broken("broken sample_sum")

        monkeypatch.setattr(mcsim, "_block_rng", record)
        monkeypatch.setattr(channel, "sample_sum", broken)
        spec, _ = cli._spec_from_table(SHARED_TABLE)
        before = threading.active_count()
        for _ in range(20):
            started.clear()
            with pytest.raises(Broken, match="^broken sample_sum$"):
                run(spec, 1)
            assert started == [(mcsim._row_seed(spec.mc.seed, 0), 0)]
            assert threading.active_count() == before


class TestMain:
    def test_run_preset_exit_zero(self, tmp_path):
        csv = tmp_path / "f3.csv"
        svg = tmp_path / "f3.svg"
        rc = cli.main(
            [
                "run",
                "--preset",
                "fig3",
                "--no-mc",
                "--csv",
                str(csv),
                "--svg",
                str(svg),
            ]
        )
        assert rc == 0
        assert csv.exists() and svg.exists()

    def test_error_is_machine_readable(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("schemes = WHAT\nconditions = HH\nk_values = 1\nsnr_db = 5\n")
        rc = cli.main(["run", "--config", str(conf), "--no-mc"])
        captured = capsys.readouterr()
        assert rc == 1
        payload = json.loads(captured.err.strip().split("\n")[-1])
        assert payload["error"] == "ValueError"
        assert "scheme" in payload["message"]

    def test_mrc_row_past_the_term_cap_fails_fast(self, tmp_path, capsys, monkeypatch):
        # At -300 dB an MRC row's sum CDF needs ~1e31 series terms: the run
        # used to loop for ever; now it fails before any series starts,
        # while the SS row there reads 1.0 at once.
        def no_series(*args):
            raise AssertionError("a series started")

        monkeypatch.setattr(channel, "_kummer_1f1_ln_grid", no_series)
        conf = tmp_path / "deep.conf"
        conf.write_text("schemes = SS, MRC\nconditions = HH\nk_values = 2\nsnr_db = -300\n")
        out = tmp_path / "deep.csv"
        assert cli.main(["run", "--config", str(conf), "--no-mc", "--csv", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err.strip().split("\n")[-1])
        assert payload["error"] == "SeriesConvergenceError"
        assert "eta = 1e-30" in payload["message"] and "cap of 1e+07" in payload["message"]
        assert not out.exists()
        ss = tmp_path / "ss.conf"
        ss.write_text("schemes = SS\nconditions = HH\nk_values = 2\nsnr_db = -300\n")
        assert cli.main(["run", "--config", str(ss), "--no-mc", "--csv", str(out)]) == 0
        assert float(out.read_text().splitlines()[1].split(",")[4]) == 1.0

    def test_linkbudget_subcommand(self, capsys):
        assert cli.main(["linkbudget"]) == 0
        out = capsys.readouterr().out
        assert "snr_db_min=" in out and "snr_db_max=" in out
        values = {
            line.split("=")[0]: float(line.split("=")[1])
            for line in out.strip().split("\n")
            if "=" in line and " " not in line.split("=")[0]
        }
        assert values["snr_db_min"] < values["snr_db_max"]
        assert abs(values["snr_db_min"] - (-9.0)) < 6.0
        assert abs(values["snr_db_max"] - 20.0) < 6.0

    def test_module_entrypoint_subprocess(self, tmp_path):
        csv = tmp_path / "cli.csv"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "satrelay",
                "run",
                "--preset",
                "fig3",
                "--no-mc",
                "--csv",
                str(csv),
            ],
            capture_output=True,
            text=True,
            # `-m` imports from the working directory: the package under test.
            cwd=pathlib.Path(cli.__file__).parents[1],
        )
        assert proc.returncode == 0, proc.stderr
        assert csv.exists()

    def test_no_mc_run_imports_only_the_analytic_stack(self, tmp_path):
        # A fresh interpreter: this process has imported everything already.
        script = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from satrelay import cli
conf, out = sys.argv[2], sys.argv[3]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["run", "--config", conf, "--no-mc", "--csv", out + "/a.csv"]) == 0
import satrelay
satrelay.MCConfig  # lives in `outage`, so it loads no Monte Carlo code
deferred = ("satrelay.mcsim", "satrelay.linkbudget", "concurrent.futures", "statistics", "json")
assert not [m for m in deferred if m in sys.modules], [m for m in deferred if m in sys.modules]

assert {"mcsim", "linkbudget", "MCConfig", "simulate_mrc", "LinkBudget"} <= set(dir(satrelay))
assert getattr(satrelay, "mcsim") is sys.modules["satrelay.mcsim"]
assert satrelay.MCConfig is satrelay.outage.MCConfig is satrelay.mcsim.MCConfig
from satrelay import LinkBudget, simulate_mrc
assert simulate_mrc is satrelay.mcsim.simulate_mrc
assert LinkBudget is sys.modules["satrelay.linkbudget"].LinkBudget
try:
    satrelay.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown name resolved")
# fig1's four Monte Carlo curves on a pool of two threads.
argv = ["run", "--preset", "fig1", "--trials", "2000", "--workers", "2", "--csv", out + "/b.csv"]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(argv) == 0
"""
        conf = tmp_path / "one.conf"
        conf.write_text("schemes = SS\nconditions = HH\nk_values = 1\nsnr_db = 10\n")
        src = pathlib.Path(cli.__file__).parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", script, str(src), str(conf), str(tmp_path)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        rows = (tmp_path / "b.csv").read_text().splitlines()[1:]
        assert len(rows) == 66 and all(r.split(",")[9] == "2000" for r in rows)

    def test_parser_built_once_per_process(self, monkeypatch, capsys):
        # Several main calls parse with one parser, built at the first.
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        cli._build_parser.cache_clear()
        for _ in range(3):
            assert cli.main(["linkbudget"]) == 0
        assert built.count("satrelay") == 1
        assert "snr_db_min=" in capsys.readouterr().out

    def test_validate_subcommand(self, capsys):
        assert cli.main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert sum(line.startswith("PASS ") for line in out.splitlines()) == len(validate.CHECKS)
        assert f"{len(validate.CHECKS)}/{len(validate.CHECKS)} checks passed" in out

    def test_validate_reports_a_failing_check(self, capsys, monkeypatch):
        def broken():
            raise AssertionError("off by one")

        monkeypatch.setattr(validate, "CHECKS", [("always fails", broken)])
        assert cli.main(["validate"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["FAIL always fails: off by one", "0/1 checks passed"]
