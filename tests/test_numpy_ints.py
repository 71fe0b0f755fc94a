"""Numpy integer sizes and net ids build the values Python ints build.

Every value type stores the int its check returns, so a numpy `n` or net id
never reaches a size computation: 4**np.uint8(4) would wrap to 0.
"""

import warnings

import numpy as np
import pytest

from dwfnet import (
    DensityState, GF2m, KeepSet, ReductionMap, StokesVector, ValidationError, WignerFunction,
    build_net, dwf_from_rho, enumerate_nets, id_of, net_context, random_density, stokes_from_rho,
)
from helpers import same_bits

DTYPES = [np.int8, np.uint8, np.int16, np.uint16, np.int64, np.uint64]


def largest_id(count, dtype):
    """The largest net id below `count` that `dtype` holds."""
    return min(count - 1, int(np.iinfo(dtype).max))


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda t: t.__name__)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_numpy_sizes_and_ids_build_python_int_values(n, dtype):
    rng = np.random.default_rng(3200 + n)
    net_id = largest_id(net_context(n).net_count, dtype)
    target = largest_id(net_context(1).net_count, dtype)
    state = random_density(n, rng)
    w = dwf_from_rho(state, build_net(net_context(n), net_id))
    s = stokes_from_rho(state).s
    keep = KeepSet(n, (0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairs = [
            (DensityState(dtype(n), state.rho), DensityState(n, state.rho)),
            (WignerFunction(dtype(n), dtype(net_id), w.w), WignerFunction(n, net_id, w.w)),
            (StokesVector(dtype(n), s), StokesVector(n, s)),
            (KeepSet(dtype(n), (dtype(0),)), keep),
            (ReductionMap(KeepSet(dtype(n), (dtype(0),)), dtype(net_id), dtype(target)),
             ReductionMap(keep, net_id, target)),
        ]
        net = build_net(net_context(dtype(n)), dtype(net_id))
    for value, expected in pairs:
        assert repr(value) == repr(expected)
        for name in value.__match_args__:
            field, wanted = getattr(value, name), getattr(expected, name)
            if isinstance(wanted, np.ndarray):
                assert same_bits(field, wanted)
            elif isinstance(wanted, int):
                assert type(field) is int and field == wanted
    assert type(pairs[3][0].k) is int
    assert net.ctx is net_context(n)
    assert type(net.n_qubits) is int and type(net.net_id) is int and net.net_id == net_id
    assert all(type(d) is int for d in net.digits)
    assert net.digits == build_net(net_context(n), net_id).digits


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda t: t.__name__)
def test_numpy_size_keeps_the_norm_bound(dtype):
    # 80 times the n = 4 bound 1e-8 / (16^2 eps) on one off-diagonal pair;
    # 16**2 of a uint8 or int8 size would wrap to 0 and lift the bound
    rho = np.eye(16, dtype=complex) / 16
    rho[0, 1] = rho[1, 0] = 80 * 1e-8 / (16**2 * np.finfo(float).eps)
    with pytest.raises(ValidationError) as expected:
        DensityState(4, rho)
    assert "is too large" in str(expected.value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as refused:
            DensityState(dtype(4), rho)
    assert str(refused.value) == str(expected.value)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda t: t.__name__)
def test_numpy_digits_and_sample_counts_use_their_checked_ints(dtype):
    # a digit or sample count kept as a numpy scalar would overflow in
    # `id_of`'s mixed-radix sum or in `enumerate_nets`' stride
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ids = [id_of([dtype(d) for d in digits], 4) for digits in ([1] * 5, [3] * 5)]
        sampled = enumerate_nets(net_context(3), dtype(100))
    assert ids == [id_of([1] * 5, 4), id_of([3] * 5, 4)] and all(type(i) is int for i in ids)
    assert sampled == enumerate_nets(net_context(3), 100)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda t: t.__name__)
def test_numpy_field_elements_give_python_ints(dtype):
    # 30 ^ 29 kept as a numpy scalar would be np.uint8(3), not 3
    fld, a, b = GF2m(5), dtype(30), dtype(29)
    results = [fld.add(a, b), fld.mul(a, b), fld.pow(a, dtype(3)), fld.inv(a), fld.trace(a),
               *fld.expand(a), *fld.expand(b, dual=True)]
    assert all(type(r) is int for r in results)
    assert results[:5] == [fld.add(30, 29), fld.mul(30, 29), fld.pow(30, 3), fld.inv(30),
                           fld.trace(30)]
