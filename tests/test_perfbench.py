"""The traced benchmark reaches the package by name; these names must stay."""

import importlib
from pathlib import Path

from pianocover import model
from pianocover.model import network

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_benchmark_finds_every_name_it_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    encode = network.encode
    tracer = spans.Tracer()
    try:
        # Raises AttributeError on any wrapped name the package lost.
        workloads.instrument(tracer)
    finally:
        tracer.restore()
    assert network.encode is encode
    # The traced cover run times decode_step and the trace counts encode.
    assert callable(model.encode) and callable(model.decode_step)
