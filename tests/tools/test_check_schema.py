"""The ``simulate --json`` schema check, including the telemetry shape."""

import copy
import importlib.util
import json
import os

import pytest

from repro.cli import main

TOOLS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "tools",
)


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(TOOLS, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_schema = _load("check_schema")


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    """A real telemetry-on ``simulate --json`` document."""
    path = str(tmp_path_factory.mktemp("schema") / "out.json")
    exit_code = main([
        "simulate", "--ftl", "cube", "--workload", "OLTP",
        "--requests", "150", "--warmup", "0",
        "--blocks-per-chip", "8", "--prefill", "0.3",
        "--queue-depth", "8", "--telemetry", "--json", path,
    ])
    assert exit_code == 0
    with open(path) as handle:
        return json.load(handle)


def test_telemetry_document_passes(document):
    assert "telemetry" in document
    assert check_schema.check_stats(document) == []


@pytest.mark.parametrize("instrument", check_schema.REQUIRED_INSTRUMENTS)
def test_dropped_instrument_is_flagged(document, instrument):
    broken = copy.deepcopy(document)
    del broken["telemetry"][instrument]
    errors = check_schema.check_stats(broken)
    assert errors == [f"telemetry missing instrument {instrument!r}"]


def test_dropped_counter_is_flagged(document):
    broken = copy.deepcopy(document)
    del broken["counters"]["erases"]
    assert check_schema.check_stats(broken) == ["counters missing 'erases'"]
