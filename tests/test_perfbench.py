"""The benchmark harness under perfbench/ wraps the program's layer functions
by name and parses the CSV that `satrelay run` writes.  These tests load its
modules by path, without changing them, so a renamed layer function or a
new CSV column fails here rather than inside a traced or benchmarked run."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

import satrelay
from satrelay import cli

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up while building the classes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
checks = _load("checks")


@pytest.mark.parametrize(
    "module, attr",
    [target[:2] for target in tracing.TARGETS],
    ids=[f"{target[0]}.{target[1]}" for target in tracing.TARGETS],
)
def test_trace_target_resolves(module, attr):
    assert callable(getattr(getattr(satrelay, module), attr))


def test_trace_targets_resolve_in_a_fresh_interpreter():
    # In this process other test modules have imported every submodule; the
    # harness's process imports only `satrelay` and `cli` before it traces.
    script = """
import importlib.util, sys
sys.path.insert(0, sys.argv[1])
import satrelay
from satrelay import cli
spec = importlib.util.spec_from_file_location("tracing", sys.argv[2])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
for module, attr, _ in tracing.TARGETS:
    assert callable(getattr(getattr(satrelay, module), attr)), (module, attr)
print(len(tracing.TARGETS))
"""
    src = pathlib.Path(satrelay.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script, str(src), str(PERFBENCH / "tracing.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(len(tracing.TARGETS))

def test_csv_header_matches_cli():
    assert checks.CSV_HEADER == cli.CSV_HEADER.split(",")
