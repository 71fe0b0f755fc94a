"""The benchmark's tracer wraps dwfnet names it looks up by string; these
tests catch an API move that would break only the traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(tracer):
    targets = tracer.WORKLOAD_TARGETS + tracer.CLI_TARGETS + tracer.CONTEXT_TARGETS
    for name, module, attr, _ in targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), name


def test_context_targets_are_held_by_nets(tracer):
    # the tracer installs these into dwfnet.nets only, so net construction
    # must call them through that module's names
    nets = importlib.import_module("dwfnet.nets")
    for name, module, attr, _ in tracer.CONTEXT_TARGETS:
        assert getattr(nets, attr, None) is getattr(importlib.import_module(module), attr), name
