"""Spans around satrelay's layer boundaries, recorded from outside the program.

Every cross-layer call in satrelay goes through a module attribute
(`channel.cdf`, `outage.op_ss`, `mcsim.simulate_mrc`, `cli.run`, ...), so
replacing those attributes with timing wrappers sees every call without
editing the package.  A span records its name, thread, parent, start, end,
a work count (abscissae, draws, trials, bytes or workers) and the time its
same-thread children took, from which its self time follows.  A span opened
on a thread with no open span (the row threads of `cli.run`) takes the open
`cli.run` span as its parent, so busy time across threads adds up there.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict

import numpy as np


def _x_points(pos: int, name: str):
    def count(args, kwargs, result):
        return int(np.size(kwargs[name] if name in kwargs else args[pos]))

    return count


def _draws(args, kwargs, result):
    size = kwargs.get("size", args[3] if len(args) > 3 else None)
    return 1 if size is None else int(np.prod(size))


def _trials(args, kwargs, result):
    return (kwargs["cfg"] if "cfg" in kwargs else args[2]).trials


def _workers(args, kwargs, result):
    return kwargs.get("workers", args[1] if len(args) > 1 else 1)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[1])


# (module, attribute, work count); a None count records 0.
TARGETS = (
    ("channel", "cdf", _x_points(2, "x")),
    ("channel", "sf", _x_points(2, "x")),
    ("channel", "sum_cdf", _x_points(3, "x")),
    ("channel", "sample", _draws),
    ("outage", "op_ss", None),
    ("outage", "op_sc", None),
    ("outage", "op_mrc", None),
    ("outage", "asymp_op_sc", None),
    ("outage", "asymp_op_mrc", None),
    ("mcsim", "simulate_ss", _trials),
    ("mcsim", "simulate_sc", _trials),
    ("mcsim", "simulate_mrc", _trials),
    ("cli", "run", _workers),
    ("cli", "emit_csv", _file_bytes),
    ("cli", "emit_svg", _file_bytes),
)


class Tracer:
    """Installs the wrappers, keeps finished spans in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, thread, name, t0, t1, count, child_s)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._run_span: int | None = None
        self._saved: list[tuple] = []

    def install(self, package) -> None:
        for mod_name, attr, count in TARGETS:
            module = getattr(package, mod_name)
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(f"{mod_name}.{attr}", orig, count))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    def _wrap(self, name: str, fn, count):
        local, is_run = self._local, name == "cli.run"

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1][0] if stack else self._run_span
            sid = next(self._ids)
            frame = [sid, 0.0]  # [id, seconds spent in same-thread children]
            stack.append(frame)
            if is_run:
                self._run_span = sid
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if is_run:
                    self._run_span = parent
                if stack:
                    stack[-1][1] += t1 - t0
            n = count(args, kwargs, result) if count else 0
            self.spans.append((sid, parent, threading.get_ident(), name, t0, t1, n, frame[1]))
            return result

        return wrapper

    def write(self, path, limit: int) -> None:
        """The first `limit` spans, one JSON object a line, in end order."""
        keys = ("id", "parent", "thread", "name", "t0", "t1", "count", "child_s")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans[:limit]:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def nesting(self) -> dict[str, int]:
        """Counts of 'parent -> child' name pairs."""
        names = {s[0]: s[3] for s in self.spans}
        pairs: dict[str, int] = defaultdict(int)
        for s in self.spans:
            pairs[f"{names.get(s[1], '-')} -> {s[3]}"] += 1
        return dict(sorted(pairs.items()))

    def layer_metrics(self, sweeps: int) -> dict[str, float]:
        """The per-layer metrics, per sweep where they are totals."""
        calls: dict[str, int] = defaultdict(int)
        work: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        names = {s[0]: s[3] for s in self.spans}
        child_names: dict[int, set] = defaultdict(set)
        busy = run_capacity = 0.0
        ss_in_sc = 0
        for sid, parent, _, name, t0, t1, n, child in self.spans:
            calls[name] += 1
            work[name] += n
            total_s[name] += t1 - t0
            self_s[name] += t1 - t0 - child
            child_names[parent].add(name)
            if names.get(parent) == "cli.run":
                busy += t1 - t0
            if name == "cli.run":
                run_capacity += (t1 - t0) * n
            if name == "outage.op_ss" and names.get(parent) == "outage.op_sc":
                ss_in_sc += 1

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        op_ss_ids = [sid for sid, name in names.items() if name == "outage.op_ss"]
        sims = ("mcsim.simulate_ss", "mcsim.simulate_sc", "mcsim.simulate_mrc")
        per = 1.0 / sweeps
        out = {}
        for layer in ("channel.cdf", "channel.sf", "channel.sum_cdf"):
            out[f"{layer}.calls"] = calls[layer] * per
            out[f"{layer}.points"] = work[layer] * per
            out[f"{layer}.self_s"] = self_s[layer] * per
        out["channel.sum_cdf.us_per_point"] = 1e6 * ratio(self_s["channel.sum_cdf"], work["channel.sum_cdf"])
        out["outage.op_ss.calls"] = calls["outage.op_ss"] * per
        out["outage.op_ss.self_s"] = self_s["outage.op_ss"] * per
        out["outage.op_ss.success_form_share"] = ratio(
            sum(1 for i in op_ss_ids if "channel.sf" in child_names[i]), len(op_ss_ids)
        )
        out["outage.op_sc.calls"] = calls["outage.op_sc"] * per
        out["outage.op_sc.self_s"] = self_s["outage.op_sc"] * per
        out["outage.op_sc.ss_calls_per_row"] = ratio(ss_in_sc, calls["outage.op_sc"])
        out["outage.op_mrc.calls"] = calls["outage.op_mrc"] * per
        out["outage.op_mrc.self_s"] = self_s["outage.op_mrc"] * per
        out["outage.asymp.self_s"] = (self_s["outage.asymp_op_sc"] + self_s["outage.asymp_op_mrc"]) * per
        for sim in sims:
            out[f"{sim}.trials_per_s"] = ratio(work[sim], total_s[sim])
        out["mcsim.trials"] = sum(work[s] for s in sims) * per
        out["mcsim.self_s"] = sum(self_s[s] for s in sims) * per
        out["channel.sample.draws"] = work["channel.sample"] * per
        out["channel.sample.self_s"] = self_s["channel.sample"] * per
        out["channel.sample.draws_per_s"] = ratio(work["channel.sample"], self_s["channel.sample"])
        out["cli.run.wall_s"] = total_s["cli.run"] * per
        out["cli.run.busy_s"] = busy * per
        out["cli.run.thread_util"] = ratio(busy, run_capacity)
        for emit in ("cli.emit_csv", "cli.emit_svg"):
            out[f"{emit}.s"] = total_s[emit] * per
            out[f"{emit}.bytes"] = work[emit] * per
        return out
