"""Every table's CSV and SVG bytes and `satrelay validate`'s output against
the golden set in tests/golden/ (`scripts/golden.py --diff` prints what
moved; `--write` records a deliberate change).  The Monte Carlo tables are
compared only under the numpy version that wrote them."""

import math

import pytest

from conftest import golden


def test_outputs_match_the_golden_set():
    assert golden.differences(golden.expected(False), golden.actual(False)) == []


@pytest.mark.parametrize("workers", [1, 2])
def test_mc_outputs_match_the_golden_set(workers):
    skip = golden.mc_skip_reason()
    if skip is not None:
        pytest.skip(skip)
    assert golden.differences(golden.expected(True), golden.actual(True, workers)) == []


def test_a_moved_value_names_its_row():
    want = golden.expected(False)
    got = dict(want)
    # One ulp up on fig1's first MRC row, a new SVG digest, a lost CSV, a
    # failing `validate` check.
    lines = want["fig1.csv"].splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("MRC,"))
    cols = lines[i].split(",")
    old = cols[4]
    cols[4] = format(math.nextafter(float(old), math.inf), ".17e")
    got["fig1.csv"] = "".join([*lines[:i], ",".join(cols), *lines[i + 1 :]])
    got["fig2.svg"] = "0" * 64
    del got["fig3.csv"]
    passed = "PASS sampler vs CDF (KS)"
    failed = "FAIL sampler vs CDF (KS): p = 1e-9"
    got["validate.txt"] = want["validate.txt"].replace(passed, failed).replace("15/15", "14/15")
    line = want["validate.txt"].splitlines().index(passed) + 1
    rel = (float(cols[4]) - float(old)) / float(old)
    assert golden.differences(want, got) == [
        f"fig1.csv MRC HH K=5 snr_db={cols[3]}: op_analytic {old} -> {cols[4]} ({rel:+.3e})",
        f"fig2.svg: sha256 {want['fig2.svg']} -> {'0' * 64}",
        "fig3.csv: not written",
        f"validate.txt line {line}: {passed!r} -> {failed!r}",
        "validate.txt line 16: '15/15 checks passed' -> '14/15 checks passed'",
    ]


def test_a_moved_mc_estimate_names_its_row():
    want = golden.expected(True)
    lines = want["fig3-mc.csv"].splitlines(keepends=True)
    cols = lines[1].split(",")
    old = cols[6]
    cols[6] = format(float(old) + 1e-5, ".17e")
    got = {**want, "fig3-mc.csv": "".join([lines[0], ",".join(cols), *lines[2:]])}
    rel = (float(cols[6]) - float(old)) / float(old)
    label = f"fig3-mc.csv {cols[0]} {cols[1]} K={cols[2]} snr_db={cols[3]}"
    assert golden.differences(want, got) == [f"{label}: op_mc {old} -> {cols[6]} ({rel:+.3e})"]


def test_another_numpy_names_both_versions(monkeypatch):
    monkeypatch.setattr(golden, "mc_numpy", lambda: "0.0.0")
    reason = golden.mc_skip_reason()
    assert "numpy 0.0.0" in reason and f"numpy {golden.np.__version__}" in reason
