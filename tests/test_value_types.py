"""Value types: identity equality for array holders, and the public
constructors' screens for input the transforms cannot carry."""

import warnings

import numpy as np
import pytest

from dwfnet import (
    DensityState,
    HadamardMatrix,
    KeepSet,
    ReductionMap,
    StokesVector,
    WignerFunction,
    build_net,
    detect_product_structure,
    hadamard_matrix,
    net_context,
)
from dwfnet.errors import ValidationError

FLAT = [0.25, 0.25, 0.25, 0.25]
# the constructors' bound on the Hilbert-Schmidt norm sqrt(Tr rho^2) at n = 1
LIMIT = 1e-8 / (2**2 * np.finfo(float).eps)


def twins():
    """Pairs of equal-valued, separately built array holders."""
    net = build_net(net_context(1), 3)
    return [
        (DensityState(1, np.eye(2) / 2), DensityState(1, np.eye(2) / 2)),
        (WignerFunction(1, 0, FLAT), WignerFunction(1, 0, FLAT)),
        (StokesVector(1, [1, 0, 0, 0]), StokesVector(1, [1, 0, 0, 0])),
        (hadamard_matrix(net), HadamardMatrix(1, 3, hadamard_matrix(net).h.copy())),
    ]


@pytest.mark.parametrize("a, b", twins(), ids=lambda v: type(v).__name__)
def test_array_holders_compare_and_hash_by_identity(a, b):
    assert a == a and not a != a
    assert a != b and not a == b
    assert len({a, b, a}) == 2
    assert {a: 1}[a] == 1


def test_array_free_values_keep_value_equality():
    assert KeepSet(2, (0,)) == KeepSet(2, (0,))
    assert hash(KeepSet(2, (0,))) == hash(KeepSet(2, (0,)))
    keep = KeepSet(2, (1,))
    assert ReductionMap(keep, 5, 1) == ReductionMap(keep, 5, 1)
    assert len({ReductionMap(keep, 5, 1), ReductionMap(keep, 5, 1)}) == 1
    net = build_net(net_context(2), 0)
    assert detect_product_structure(net) == detect_product_structure(net)


REFUSED = [
    # complex input for a real field, once cast with a ComplexWarning
    ("w-complex", lambda: WignerFunction(1, 0, [0.25 + 1j, 0.25, 0.25, 0.25]), "w"),
    ("s-complex", lambda: StokesVector(1, [1, 0.5j, 0, 0]), "s"),
    # ragged or non-numeric input, once a raw ValueError or TypeError
    ("w-ragged", lambda: WignerFunction(1, 0, [[0.25, 0.25], [0.5]]), "w"),
    ("s-ragged", lambda: StokesVector(1, [[1, 0], [0]]), "s"),
    ("rho-ragged", lambda: DensityState(1, [[0.5, 0], [0.5]]), "rho"),
    ("w-object", lambda: WignerFunction(1, 0, [{}, 0.25, 0.25, 0.5]), "w"),
    ("rho-none", lambda: DensityState(1, [[0.5, None], [None, 0.5]]), "rho"),
    # numeric strings and booleans, once accepted
    ("w-strings", lambda: WignerFunction(1, 0, ["0.25"] * 4), "w"),
    ("s-strings", lambda: StokesVector(1, ["1", "0", "0", "0"]), "s"),
    ("rho-strings", lambda: DensityState(1, [["0.5", "0"], ["0", "0.5"]]), "rho"),
    ("w-bools", lambda: WignerFunction(1, 0, [True, False, False, False]), "w"),
    # finite entries whose Hilbert-Schmidt norm overflows inside the transforms
    ("w-huge", lambda: WignerFunction(1, 0, [1e308, -1e308, 0.5, 0.5]), "w"),
    ("rho-huge", lambda: DensityState(1, [[0.5, 1e308], [1e308, 0.5]]), "rho"),
    ("rho-huge-complex", lambda: DensityState(1, [[0.5, 1e200j], [-1e200j, 0.5]]), "rho"),
    # finite norms just past the bound, where rounding would break the sum rule
    ("w-past-bound", lambda: WignerFunction(1, 0, [0.51 * LIMIT, -0.51 * LIMIT, 0.5, 0.5]), "w"),
    ("rho-past-bound", lambda: DensityState(1, [[0.5, 0.71j * LIMIT], [-0.71j * LIMIT, 0.5]]),
     "rho"),
]


@pytest.mark.parametrize("make, field", [r[1:] for r in REFUSED], ids=[r[0] for r in REFUSED])
def test_public_constructor_refuses_what_the_transforms_cannot_carry(make, field):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f'field "{field}"'):
            make()


def test_screens_accept_numeric_input_of_any_width():
    assert WignerFunction(1, 0, np.array([1, 0, 0, 0], dtype=np.int8)).w.dtype == float
    assert StokesVector(1, np.array([1, 0, 0, 0], dtype=np.float32)).s.dtype == float
    state = DensityState(1, np.array([[1, 0], [0, 0]], dtype=np.uint8))
    assert state.rho.dtype == complex
    # norms just below the bound pass: sqrt(N sum w^2), sqrt(sum |rho|^2) about 0.98 LIMIT
    assert WignerFunction(1, 0, [0.49 * LIMIT, -0.49 * LIMIT, 0.5, 0.5]).w[0] == 0.49 * LIMIT
    with pytest.warns(UserWarning, match="negative eigenvalue"):
        assert DensityState(1, [[0.5, 0.69 * LIMIT], [0.69 * LIMIT, 0.5]]).rho[0, 1] == 0.69 * LIMIT
