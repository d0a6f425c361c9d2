#!/usr/bin/env python3
"""Golden outputs: the analytic tables `satrelay run` writes, kept byte for byte.

The golden set in tests/golden/ holds the CSV text of
`satrelay run --preset fig1|fig2|fig3 --no-mc` and of the staircase-ladder
tables at M = 50, 200 and 800 (`ladder_table`, which the test suite reads
too), and in `svg.sha256` the SHA-256 of each table's SVG chart.  Monte Carlo columns
are left out: numpy does not promise that a seeded Generator's stream stays
the same across its feature releases (NEP 19).

  --check  name every output that differs from the golden set (the default)
  --diff   print each moved row as old -> new with its relative change
  --write  rewrite the golden set from this tree

--check and --diff exit 1 when an output differs.  A change that means to
move digits runs --diff, records its output in CHANGES.md, then --write.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

from satrelay import cli

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"
SVG_SUMS = "svg.sha256"


def ladder_table(steps_m: int, depth_l: float) -> dict[str, str]:
    """The staircase-refinement ladder's run table at one (M, L)."""
    return {
        "schemes": "SS, SC, MRC",
        "conditions": "HH, HA, AH, AA",
        "k_values": "2, 8, 16",
        "snr_db": "-6, 3, 12",
        "rate_r": "0.5",
        "steps_m": str(steps_m),
        "depth_l": str(depth_l),
        "mc": "false",
    }


# Output name -> its run table; every table runs without Monte Carlo.
TABLES = {
    **{preset: {"preset": preset, "mc": "false"} for preset in cli.PRESETS},
    **{f"ladder-m{m}": ladder_table(m, l) for m, l in ((50, 15.0), (200, 30.0), (800, 45.0))},
}


def outputs() -> dict[str, bytes]:
    """{file name: bytes} of every table's CSV and SVG, as this tree writes them."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, table in TABLES.items():
            rows = cli.run(cli._spec_from_table(table)[0])
            for ext, emit in (("csv", cli.emit_csv), ("svg", cli.emit_svg)):
                path = Path(tmp, f"{name}.{ext}")
                emit(rows, str(path))
                out[path.name] = path.read_bytes()
    return out


def _digests(files: dict[str, bytes]) -> dict[str, str]:
    """CSV files as their text, SVG files as their SHA-256."""
    return {
        name: data.decode("utf-8") if name.endswith(".csv") else hashlib.sha256(data).hexdigest()
        for name, data in files.items()
    }


def expected() -> dict[str, str]:
    """The golden set, in `_digests`' form."""
    want = {path.name: path.read_text(encoding="utf-8") for path in sorted(GOLDEN.glob("*.csv"))}
    for line in (GOLDEN / SVG_SUMS).read_text(encoding="utf-8").splitlines():
        digest, name = line.split()
        want[name] = digest
    return want


def actual() -> dict[str, str]:
    """This tree's outputs, in `_digests`' form."""
    return _digests(outputs())


def _rel(old: str, new: str) -> str:
    try:
        a, b = float(old), float(new)
    except ValueError:
        return ""
    return f" ({(b - a) / a:+.3e})" if a else ""


def _csv_differences(name: str, old: str, new: str) -> list[str]:
    """One line per moved, added or removed row, keyed by its first four
    columns (scheme, condition, K, snr_db)."""
    (old_head, *old_lines), (new_head, *new_lines) = old.splitlines(), new.splitlines()
    if old_head != new_head:
        return [f"{name}: header {old_head!r} -> {new_head!r}"]
    header = old_head.split(",")
    rows_old = {tuple(ln.split(",")[:4]): ln.split(",") for ln in old_lines}
    rows_new = {tuple(ln.split(",")[:4]): ln.split(",") for ln in new_lines}
    out = []
    for key in dict.fromkeys([*rows_old, *rows_new]):
        label = f"{name} {key[0]} {key[1]} K={key[2]} snr_db={key[3]}"
        if key not in rows_new:
            out.append(f"{label}: removed")
        elif key not in rows_old:
            out.append(f"{label}: added")
        else:
            for col, a, b in zip(header[4:], rows_old[key][4:], rows_new[key][4:]):
                if a != b:
                    out.append(f"{label}: {col} {a or '-'} -> {b or '-'}{_rel(a, b)}")
    if not out and old != new:  # same rows, other bytes (order, line endings)
        out.append(f"{name}: same rows, different bytes")
    return out


def differences(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """Every difference between two output sets in `_digests`' form, one
    line each; a CSV reports its moved rows."""
    out = []
    for name in sorted(want.keys() | got.keys()):
        old, new = want.get(name), got.get(name)
        if old is None:
            out.append(f"{name}: not in the golden set")
        elif new is None:
            out.append(f"{name}: not written")
        elif old != new:
            if name.endswith(".csv"):
                out += _csv_differences(name, old, new)
            else:
                out.append(f"{name}: sha256 {old} -> {new}")
    return out


def write() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    sums = []
    for name, value in _digests(outputs()).items():
        if name.endswith(".csv"):
            (GOLDEN / name).write_text(value, encoding="utf-8", newline="\n")
        else:
            sums.append(f"{value}  {name}\n")
    (GOLDEN / SVG_SUMS).write_text("".join(sums), encoding="utf-8", newline="\n")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="name each output that differs")
    mode.add_argument("--diff", action="store_true", help="print each moved row, old -> new")
    mode.add_argument("--write", action="store_true", help="rewrite the golden set from this tree")
    args = parser.parse_args()

    if args.write:
        write()
        print(f"wrote {len(TABLES)} CSV files and {SVG_SUMS} to {GOLDEN}")
        return 0
    diffs = differences(expected(), actual())
    if args.diff:
        print("\n".join(diffs))
    else:
        moved = sorted({line.split(" ", 1)[0].rstrip(":") for line in diffs})
        print(f"differ: {', '.join(moved)}" if moved else f"all {2 * len(TABLES)} outputs match")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
