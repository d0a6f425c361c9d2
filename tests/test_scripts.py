"""Smoke tests for the scripts under scripts/, run as a user runs them."""

import os
import pathlib
import subprocess
import sys

import pytest

from satrelay import cli, outage
from satrelay.channel import CONDITIONS, LinkSNR
from satrelay.outage import HopPair, StaircaseConfig, Threshold

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd=None):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("scheme", ["SS", "SC", "MRC"])
def test_staircase_convergence_m50_column(scheme):
    # The script's first column (M = 50, L = 15 at gamma_th = 1) is the
    # reference staircase; SS must read op_ss although the script runs SC.
    out = run_script(
        "staircase_convergence.py", "--scheme", scheme, "--condition", "HA", "--k", "3",
        "--snr-db", "3",
    )
    lines = out.splitlines()
    assert lines[0] == f"{scheme} under HA, K=3"
    ns, sg = CONDITIONS["HA"]
    link = LinkSNR.from_db(3.0)
    hop = HopPair(ns=(ns, link), sg=(sg, link))
    thr, cfg = Threshold(gamma_th=1.0), StaircaseConfig(steps_m=50, depth_l=15.0)
    want = {
        "SS": outage.op_ss(hop, thr, cfg),
        "SC": outage.op_sc([hop] * 3, thr, cfg),
        "MRC": outage.op_mrc([hop] * 3, thr, cfg),
    }[scheme]
    [row] = lines[2:]
    assert row.split()[:2] == ["3.0", f"{want:.6e}"]


def test_reproduce_figures_matches_run_presets(tmp_path):
    out = run_script(
        "reproduce_figures.py", "--outdir", str(tmp_path / "script"), "--trials", "2000",
        "--seed", "11", "--workers", "1",
    )
    assert out.strip().endswith(f"all presets written to {tmp_path / 'script'}/")
    for preset in cli.PRESETS:
        csv, svg = tmp_path / f"{preset}.csv", tmp_path / f"{preset}.svg"
        argv = [
            "run", "--preset", preset, "--trials", "2000", "--seed", "11", "--workers", "1",
            "--csv", str(csv), "--svg", str(svg),
        ]
        assert cli.main(argv) == 0
        assert (tmp_path / "script" / f"{preset}.csv").read_bytes() == csv.read_bytes()
        assert (tmp_path / "script" / f"{preset}.svg").read_bytes() == svg.read_bytes()
