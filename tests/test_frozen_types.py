"""The eight value types every CLI process imports: read-only fields, the
`Type(field=value, ...)` repr, `match` by `__match_args__`, and value hashing
for the array-free records, as they behaved as frozen dataclasses."""

import numpy as np
import pytest

from dwfnet import (
    KeepSet, ReductionMap, build_net, detect_product_structure, dwf_from_rho, hadamard_matrix,
    net_context, random_density, stokes_from_rho,
)
from dwfnet.nets import HadamardMatrix, ProductReport
from dwfnet.stokes import StokesVector
from dwfnet.translations import XZTables, xz_tables
from dwfnet.wigner import DensityState, WignerFunction


def values():
    """One seeded value of each type, at n = 1 where it holds arrays."""
    state = random_density(1, np.random.default_rng(2027))
    net = build_net(net_context(1), 3)
    keep = KeepSet(3, (0, 2))
    return [
        xz_tables(1),
        hadamard_matrix(net),
        detect_product_structure(build_net(net_context(2), 10)),
        state,
        dwf_from_rho(state, net),
        stokes_from_rho(state),
        keep,
        ReductionMap(keep, 5, 1),
    ]


VALUES = values()
RECORDS = [v for v in VALUES if isinstance(v, (KeepSet, ReductionMap, ProductReport))]


def name(value):
    return type(value).__name__


def fields(value) -> tuple:
    return tuple(getattr(value, field) for field in value.__match_args__)


@pytest.mark.parametrize("value", VALUES, ids=name)
def test_fields_are_read_only(value):
    for field in (*value.__match_args__, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(value, field)


# the reprs of VALUES at the commit before the types stopped being dataclasses
REPRS = {
    'XZTables': (
        'XZTables(wh=array([[ 1.,  1.],\n'
        '       [ 1., -1.]]), half=array([[ 0.5,  0.5],\n'
        '       [ 0.5, -0.5]]), gather=array([[0, 3],\n'
        '       [1, 2]]), scatter=array([[[ 0,  4],\n'
        '        [ 2, 10]],\n'
        '\n'
        '       [[ 2,  6],\n'
        '        [ 1,  5]]]), phase=array([[ 1.-0.j,  1.-0.j],\n'
        '       [ 1.-0.j, -0.+1.j]]), planes=array([[[ 1.,  1.],\n'
        '        [ 1., -0.]],\n'
        '\n'
        '       [[-0., -0.],\n'
        '        [-0.,  1.]]]), stokes=array([[0, 3],\n'
        '       [1, 2]]), cells=array([0, 2, 3, 1]))'
    ),
    'HadamardMatrix': (
        'HadamardMatrix(n=1, net_id=3, h=array([[ 1.,  1.,  1.,  1.],\n'
        '       [-1.,  1., -1.,  1.],\n'
        '       [ 1., -1., -1.,  1.],\n'
        '       [ 1.,  1., -1., -1.]]))'
    ),
    'ProductReport': (
        "ProductReport(is_product=True, form='eq6', factor_a_net=1, factor_b_conj_net=1)"
    ),
    'DensityState': (
        'DensityState(n=1, rho=array([[0.22008853-3.01575456e-19j, '
        '0.03589205+1.33028679e-03j],\n'
        '       [0.03589205-1.33028679e-03j, 0.77991147+5.39961204e-18j]]))'
    ),
    'WignerFunction': (
        'WignerFunction(n=1, net_id=3, w=array([0.0914331 , 0.12865544, 0.37267485, '
        '0.40723662]))'
    ),
    'StokesVector': (
        'StokesVector(n=1, s=array([ 1.        ,  0.0717841 , -0.00266057, -0.55982293]))'
    ),
    'KeepSet': 'KeepSet(n=3, keep=(0, 2))',
    'ReductionMap': 'ReductionMap(keep=KeepSet(n=3, keep=(0, 2)), source_net=5, target_net=1)',
}


@pytest.mark.parametrize("value", VALUES, ids=name)
def test_repr_is_pinned(value):
    assert repr(value) == REPRS[name(value)]


def unpack(value) -> tuple:
    """The fields a class pattern binds positionally, through `__match_args__`."""
    match value:
        case XZTables(wh, half, gather, scatter, phase, planes, stokes, cells):
            return wh, half, gather, scatter, phase, planes, stokes, cells
        case HadamardMatrix(n, net_id, h):
            return n, net_id, h
        case ProductReport(is_product, form, factor_a_net, factor_b_conj_net):
            return is_product, form, factor_a_net, factor_b_conj_net
        case DensityState(n, rho):
            return n, rho
        case WignerFunction(n, net_id, w):
            return n, net_id, w
        case StokesVector(n, s):
            return n, s
        case KeepSet(n, keep):
            return n, keep
        case ReductionMap(keep, source_net, target_net):
            return keep, source_net, target_net
    return ()


@pytest.mark.parametrize("value", VALUES, ids=name)
def test_match_binds_the_fields(value):
    bound = unpack(value)
    assert len(bound) == len(value.__match_args__)
    assert all(b is f for b, f in zip(bound, fields(value)))


@pytest.mark.parametrize("record", RECORDS, ids=name)
def test_value_records_hash_as_their_field_tuple(record):
    assert hash(record) == hash(fields(record))
    assert record == type(record)(*fields(record))
    assert record != fields(record)  # equal only to the same class
