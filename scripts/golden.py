#!/usr/bin/env python3
"""Golden outputs: the tables `satrelay run` writes, kept byte for byte.

The golden set in tests/golden/ holds the CSV text of
`satrelay run --preset fig1|fig2|fig3 --no-mc` and of the staircase-ladder
tables at M = 50, 200 and 800 (`ladder_table`, which the test suite reads
too), in `svg.sha256` the SHA-256 of each table's SVG chart, and in
`validate.txt` what `satrelay validate` prints.  Its Monte Carlo part holds
`run --preset fig1|fig2|fig3 --trials 100000 --seed 20240915` as
figN-mc.csv and figN-mc.svg, and in `numpy.txt` the numpy version that wrote
them: numpy does not promise that a seeded Generator's stream stays the same
across its feature releases (NEP 19), so on another version that part is
not compared.

  --check  name every output that differs from the golden set (the default)
  --diff   print each moved row as old -> new with its relative change
  --write  rewrite the golden set from this tree

--check and --diff exit 1 when an output differs.  A change that means to
move digits runs --diff, records its output in CHANGES.md, then --write.
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import numpy as np

from satrelay import cli

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"
SVG_SUMS = "svg.sha256"
VALIDATE = "validate.txt"
NUMPY = "numpy.txt"


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


# Output name -> its run table; these tables run without Monte Carlo.
TABLES = {
    **{preset: {"preset": preset, "mc": "false"} for preset in cli.PRESETS},
    **{f"ladder-m{m}": ladder_table(m, l) for m, l in ((50, 15.0), (200, 30.0), (800, 45.0))},
}

# The Monte Carlo part: each preset at 10^5 trials and the default seed.
MC_TABLES = {
    f"{preset}-mc": {"preset": preset, "trials": "100000", "seed": str(cli.DEFAULT_SEED)}
    for preset in cli.PRESETS
}
MC_FILES = {f"{name}.{ext}" for name in MC_TABLES for ext in ("csv", "svg")}


def _tables(tables: dict[str, dict[str, str]], workers: int) -> dict[str, bytes]:
    """{file name: bytes} of each table's CSV and SVG, run on `workers` threads."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, table in tables.items():
            rows = cli.run(cli._spec_from_table(table)[0], workers)
            for ext, emit in (("csv", cli.emit_csv), ("svg", cli.emit_svg)):
                path = Path(tmp, f"{name}.{ext}")
                emit(rows, str(path))
                out[path.name] = path.read_bytes()
    return out


def outputs(mc: bool, workers: int = 1) -> dict[str, bytes]:
    """{file name: bytes} as this tree writes them: of the Monte Carlo
    tables on `workers` threads, or else of the analytic tables and of
    `validate`'s output."""
    if mc:
        return _tables(MC_TABLES, workers)
    out = _tables(TABLES, workers)
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        cli.main(["validate"])
    out[VALIDATE] = printed.getvalue().encode("utf-8")
    return out


def _digests(files: dict[str, bytes]) -> dict[str, str]:
    """SVG files as their SHA-256, the others as their text."""
    return {
        name: hashlib.sha256(data).hexdigest() if name.endswith(".svg") else data.decode("utf-8")
        for name, data in files.items()
    }


def expected(mc: bool) -> dict[str, str]:
    """The golden set's Monte Carlo part, or else the rest of it, in
    `_digests`' form."""
    texts = [*sorted(GOLDEN.glob("*.csv")), GOLDEN / VALIDATE]
    want = {path.name: path.read_text(encoding="utf-8") for path in texts}
    for line in (GOLDEN / SVG_SUMS).read_text(encoding="utf-8").splitlines():
        digest, name = line.split()
        want[name] = digest
    return {name: value for name, value in want.items() if (name in MC_FILES) == mc}


def actual(mc: bool, workers: int = 1) -> dict[str, str]:
    """This tree's outputs of that part, in `_digests`' form."""
    return _digests(outputs(mc, workers))


def mc_numpy() -> str:
    """The numpy version that wrote the golden Monte Carlo outputs."""
    return (GOLDEN / NUMPY).read_text(encoding="utf-8").strip()


def mc_skip_reason() -> str | None:
    """Why this numpy cannot compare the Monte Carlo part, or None if it can."""
    written = mc_numpy()
    if np.__version__ == written:
        return None
    return (
        f"Monte Carlo golden outputs were written by numpy {written}, "
        f"this is numpy {np.__version__} (NEP 19); not compared"
    )


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


def _text_differences(name: str, old: str, new: str) -> list[str]:
    """One line per changed line, by line number."""
    pairs = zip_longest(old.splitlines(), new.splitlines(), fillvalue="")
    return [f"{name} line {i}: {a!r} -> {b!r}" for i, (a, b) in enumerate(pairs, 1) if a != b]


def differences(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """Every difference between two output sets in `_digests`' form, one
    line each; a CSV reports its moved rows, `validate`'s output its
    changed lines."""
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
            elif name.endswith(".svg"):
                out.append(f"{name}: sha256 {old} -> {new}")
            else:
                out += _text_differences(name, old, new) or [f"{name}: different bytes"]
    return out


def write() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    sums = []
    for name, value in _digests({**outputs(False), **outputs(True)}).items():
        if name.endswith(".svg"):
            sums.append(f"{value}  {name}\n")
        else:
            (GOLDEN / name).write_text(value, encoding="utf-8", newline="\n")
    (GOLDEN / SVG_SUMS).write_text("".join(sums), encoding="utf-8", newline="\n")
    (GOLDEN / NUMPY).write_text(f"{np.__version__}\n", encoding="utf-8", newline="\n")


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
        count = len(TABLES) + len(MC_TABLES)
        print(f"wrote {count} CSV files, {VALIDATE}, {SVG_SUMS} and {NUMPY} to {GOLDEN}")
        return 0
    got = actual(False)
    diffs = differences(expected(False), got)
    skip = mc_skip_reason()
    if skip is None:
        mc = actual(True)
        diffs += differences(expected(True), mc)
        got.update(mc)
    if args.diff:
        print("\n".join(diffs))
    else:
        moved = sorted({line.split(" ", 1)[0].rstrip(":") for line in diffs})
        print(f"differ: {', '.join(moved)}" if moved else f"all {len(got)} outputs match")
    if skip is not None:
        print(skip)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
