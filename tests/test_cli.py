import json
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

from satrelay import cli, mcsim, outage
from satrelay.channel import CONDITIONS, LinkSNR
from satrelay.cli import CSV_HEADER, RunRow, emit_csv, emit_svg, run
from satrelay.mcsim import MCConfig, OutageEstimate
from satrelay.outage import HopPair, StaircaseConfig, Threshold
SVG_NS = "{http://www.w3.org/2000/svg}"


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
        ],
        ids=[
            "unknown-keys", "mc-not-boolean", "gamma-th-and-rate", "workers-key", "workers-flag",
            "snr-inf", "snr-overflow", "rate-overflow", "rate-inf", "gamma-th-inf", "depth-inf",
            "duplicate-key",
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
        # One curve at two workers: it gets both as Monte Carlo block
        # threads (600k trials = two blocks), and the bytes do not change.
        seen = []
        simulate = mcsim.simulate_sc_curve

        def spy(*args, **kwargs):
            seen.append(kwargs["workers"])
            return simulate(*args, **kwargs)

        monkeypatch.setattr(mcsim, "simulate_sc_curve", spy)
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
        assert seen == [1, 2]
        assert csvs[0].read_bytes() == csvs[1].read_bytes()


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
        # The SC curve is seeded by the index of its first row.
        ns, sg = CONDITIONS["AH"]
        links = [LinkSNR.from_db(db) for db in (6, -3, 6, 0)]
        curve = [[HopPair(ns=(ns, link), sg=(sg, link))] * 3 for link in links]
        cfg = MCConfig(trials=20000, seed=cli._row_seed(7, 4))
        est = mcsim.simulate_sc_curve(curve, Threshold.from_rate(0.5), cfg)
        assert [float(r[6]) for r in rows[4:8]] == [e.p_hat for e in est]

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
            curve = [[HopPair(ns=(ns, link), sg=(sg, link))] * r.k for r in curve_rows]
            cfg = replace(spec.mc, seed=cli._row_seed(11, first))
            scheme = curve_rows[0].scheme
            simulate = mcsim.simulate_sc_curve if scheme == "SC" else mcsim.simulate_mrc_curve
            assert [r.mc for r in curve_rows] == simulate(curve, spec.threshold, cfg)
            one_row = mcsim.simulate_sc if scheme == "SC" else mcsim.simulate_mrc
            assert curve_rows[0].mc == one_row(curve[0], spec.threshold, cfg)

    def test_ss_rows_repeat_across_k(self):
        # SS does not depend on K, so its rows at one SNR share their draws.
        table = {"schemes": "SS", "conditions": "HA", "k_values": "2, 3", "snr_db": "0, 6"}
        spec, _ = cli._spec_from_table({**table, "trials": "5000"})
        rows = run(spec)
        assert [(r.k, r.snr_db) for r in rows] == [(2, 0.0), (2, 6.0), (3, 0.0), (3, 6.0)]
        assert rows[0].mc == rows[2].mc and rows[1].mc == rows[3].mc
        assert rows[0].mc.p_hat > rows[1].mc.p_hat


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

    def test_validate_subcommand(self, capsys):
        assert cli.main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 14
