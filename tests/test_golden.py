"""Every analytic table's CSV and SVG bytes against the golden set in
tests/golden/ (`scripts/golden.py --diff` prints what moved; `--write`
records a deliberate change)."""

import math

from conftest import golden


def test_outputs_match_the_golden_set():
    assert golden.differences(golden.expected(), golden.actual()) == []


def test_a_moved_value_names_its_row():
    want = golden.expected()
    got = dict(want)
    # One ulp up on fig1's first MRC row, a new SVG digest, a lost CSV.
    lines = want["fig1.csv"].splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("MRC,"))
    cols = lines[i].split(",")
    old = cols[4]
    cols[4] = format(math.nextafter(float(old), math.inf), ".17e")
    got["fig1.csv"] = "".join([*lines[:i], ",".join(cols), *lines[i + 1 :]])
    got["fig2.svg"] = "0" * 64
    del got["fig3.csv"]
    rel = (float(cols[4]) - float(old)) / float(old)
    assert golden.differences(want, got) == [
        f"fig1.csv MRC HH K=5 snr_db={cols[3]}: op_analytic {old} -> {cols[4]} ({rel:+.3e})",
        f"fig2.svg: sha256 {want['fig2.svg']} -> {'0' * 64}",
        "fig3.csv: not written",
    ]
