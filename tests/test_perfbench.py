"""The benchmark harness under perfbench/ wraps the program's layer functions
by name and parses the CSV that `satrelay run` writes.  These tests load its
modules by path, without changing them, so a renamed layer function or a
new CSV column fails here rather than inside a traced or benchmarked run."""

import importlib.util
import pathlib
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


def test_csv_header_matches_cli():
    assert checks.CSV_HEADER == cli.CSV_HEADER.split(",")
