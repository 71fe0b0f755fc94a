"""The benchmark's tracer wraps dwfnet names it looks up by string; these
tests catch an API move that would break only the traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import dwfnet.cli  # noqa: F401  (loaded before any install, as cli_step loads it)
from dwfnet import DensityState, build_net, dwf_from_rho, jsonio, net_context

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return load("tracer")


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


def bell_docs():
    """The Bell state's density-matrix document and its DWF document on net 7."""
    psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    state = DensityState(2, np.outer(psi, psi))
    w = dwf_from_rho(state, build_net(net_context(2), 7))
    return jsonio.dumps(jsonio.state_to_doc(state)), jsonio.dumps(jsonio.dwf_to_doc(w))


RHO_DOC, DWF_DOC = bell_docs()


TRACED = [
    (["compute", "--net", "5"], RHO_DOC, ["wigner.dwf_from_rho"]),
    (["to-rho"], DWF_DOC, ["wigner.rho_from_dwf"]),
    (["stokes"], RHO_DOC, ["stokes.stokes_from_rho"]),
    (["reduce", "--keep", "1", "--net-out", "3"], DWF_DOC,
     ["reduction.reduction_map", "reduction.reduce_dwf"]),
    (["convert", "--net-out", "500"], DWF_DOC, ["reduction.convert_net"]),
    (["spinflip"], DWF_DOC, []),
    (["conjugate"], DWF_DOC, []),
    (["concurrence"], DWF_DOC, ["reduction.concurrence_from_dwf"]),
]


@pytest.mark.parametrize("argv, doc, layers", TRACED, ids=[case[0][0] for case in TRACED])
def test_traced_cli_sees_every_layer(tracer, argv, doc, layers):
    # installed as the traced cli-cold run installs it: a CLI that bound a
    # parser or library function at import would hide that layer's spans
    cli_step = load("cli_step")
    trace = tracer.Tracer()
    try:
        trace.install()
        trace.install(tracer.CLI_TARGETS)
        code, out = cli_step.run_cli(argv, doc)
    finally:
        trace.uninstall()
    assert code == 0 and out
    spans = {span[0] for span in trace.spans}
    assert {"jsonio.parse", "jsonio.dumps", *layers} <= spans
