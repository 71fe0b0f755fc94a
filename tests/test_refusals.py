"""Library refusals that no other test reaches: each raises its class with
its message, before any work on the mismatched input."""

import numpy as np
import pytest

from dwfnet import (
    build_net,
    classify_nets,
    concurrence_from_dwf,
    convert_net,
    dwf_from_rho,
    id_of,
    net_context,
    random_pure,
    shortcut_reduce,
)
from dwfnet.errors import (
    DimensionMismatchError,
    NetMismatchError,
    UnsupportedDimensionError,
    UnsupportedNetError,
    ValidationError,
)


def net(n, net_id=0):
    return build_net(net_context(n), net_id)


def dwf(n, net_id=0):
    return dwf_from_rho(random_pure(n, np.random.default_rng(n)), net(n, net_id))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: dwf_from_rho(random_pure(2, np.random.default_rng(2)), net(1)),
         ValidationError, "state has n=2 but net is for n=1"),
        (lambda: convert_net(dwf(2), net(1)),
         DimensionMismatchError, "target net size differs from the input DWF"),
        (lambda: shortcut_reduce(dwf(3), net(3), "A"),
         UnsupportedNetError, "shortcut reduction is defined for two qubits"),
        (lambda: shortcut_reduce(dwf(2, 5), net(2, 10), "A"),
         NetMismatchError, "Wigner function does not match the supplied net"),
        (lambda: concurrence_from_dwf(dwf(1), net(1)),
         ValidationError, "concurrence is defined for two-qubit DWFs and nets"),
        (lambda: id_of([0, 1], 2), ValidationError, "invalid net digits [0, 1] for N=2"),
        (lambda: classify_nets(net_context(3)),
         UnsupportedDimensionError, "classification over all 134217728 nets refused for N=8"),
    ],
    ids=[
        "dwf-from-rho-sizes",
        "convert-net-sizes",
        "shortcut-three-qubits",
        "shortcut-other-net",
        "concurrence-one-qubit",
        "id-of-digit-count",
        "classify-n3",
    ],
)
def test_refusal_raises_its_class_and_message(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message
