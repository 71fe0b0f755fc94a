"""The one integer rule (`errors.check_int`) at every public entry point.

Each row of the rejection table is a bad qubit count, field element,
exponent, point index, keep set or subsystem label that an entry point once
accepted, or failed on later with a raw TypeError, AttributeError or
IndexError or another check's error.  Now each raises its entry point's own
error class up front.
"""

import numpy as np
import pytest

from dwfnet import (
    DensityState,
    GF2m,
    KeepSet,
    PhaseSpace,
    ReductionMap,
    StokesVector,
    WignerFunction,
    build_net,
    line_probability,
    net_context,
    pauli_words,
    random_density,
    random_pure,
    reduction_map,
    shortcut_reduce,
)
from dwfnet.errors import FieldDomainError, UnsupportedDimensionError, ValidationError
from dwfnet.translations import xz_tables

F4 = GF2m(2)
SPACE = PhaseSpace(F4)
W2 = WignerFunction(2, 7, np.full(16, 1 / 16))
KEEP = KeepSet(2, (0,))  # source nets are n = 2 ids, target nets n = 1 ids
RNG = np.random.default_rng(0)


def flat(size):
    return np.full(size, 1 / size)


REJECTED = [
    # qubit count of the field and of the net context
    ("GF2m-bool", lambda: GF2m(True), UnsupportedDimensionError),
    ("GF2m-float", lambda: GF2m(2.0), UnsupportedDimensionError),
    ("net_context-bool", lambda: net_context(True), UnsupportedDimensionError),
    ("net_context-float", lambda: net_context(2.0), UnsupportedDimensionError),
    # field elements and exponents
    ("add-bool", lambda: F4.add(True, 1), FieldDomainError),
    ("add-float", lambda: F4.add(1.5, 1), FieldDomainError),
    ("mul-bool", lambda: F4.mul(True, 3), FieldDomainError),
    ("mul-float", lambda: F4.mul(1.5, 1), FieldDomainError),
    ("pow-base-bool", lambda: F4.pow(True, 2), FieldDomainError),
    ("pow-base-float", lambda: F4.pow(1.5, 2), FieldDomainError),
    ("pow-exponent-bool", lambda: F4.pow(2, True), FieldDomainError),
    ("pow-exponent-float", lambda: F4.pow(2, 1.5), FieldDomainError),
    ("inv-bool", lambda: F4.inv(True), FieldDomainError),
    ("inv-float", lambda: F4.inv(1.5), FieldDomainError),
    ("trace-bool", lambda: F4.trace(True), FieldDomainError),
    ("trace-float", lambda: F4.trace(2.0), FieldDomainError),
    ("expand-bool", lambda: F4.expand(True), FieldDomainError),
    ("expand-float", lambda: F4.expand(2.0), FieldDomainError),
    # point indices
    ("lines_through-bool", lambda: SPACE.lines_through(True), ValidationError),
    ("lines_through-float", lambda: SPACE.lines_through(2.0), ValidationError),
    ("lines_through-negative", lambda: SPACE.lines_through(-1), ValidationError),
    ("lines_through-too-large", lambda: SPACE.lines_through(16), ValidationError),
    ("line_probability-bool", lambda: line_probability(W2, [True, 0]), ValidationError),
    ("line_probability-float", lambda: line_probability(W2, [0.0, 1.0]), ValidationError),
    ("line_probability-negative", lambda: line_probability(W2, [-1, 0]), ValidationError),
    ("line_probability-too-large", lambda: line_probability(W2, [16]), ValidationError),
    # qubit counts of the value types
    ("DensityState-bool", lambda: DensityState(True, np.eye(2) / 2), ValidationError),
    ("DensityState-float", lambda: DensityState(2.0, np.eye(4) / 4), ValidationError),
    ("DensityState-zero", lambda: DensityState(0, np.eye(1)), ValidationError),
    ("DensityState-six", lambda: DensityState(6, np.eye(64) / 64), ValidationError),
    ("WignerFunction-bool", lambda: WignerFunction(True, 0, flat(4)), ValidationError),
    ("WignerFunction-float", lambda: WignerFunction(2.0, 0, flat(16)), ValidationError),
    ("WignerFunction-zero", lambda: WignerFunction(0, 0, flat(1)), ValidationError),
    ("WignerFunction-six", lambda: WignerFunction(6, 0, flat(4096)), ValidationError),
    ("StokesVector-bool", lambda: StokesVector(True, flat(4)), ValidationError),
    ("StokesVector-float", lambda: StokesVector(2.0, flat(16)), ValidationError),
    ("StokesVector-zero", lambda: StokesVector(0, flat(1)), ValidationError),
    ("StokesVector-six", lambda: StokesVector(6, flat(4096)), ValidationError),
    ("KeepSet-bool", lambda: KeepSet(True, (0,)), ValidationError),
    ("KeepSet-float", lambda: KeepSet(2.0, (0,)), ValidationError),
    ("KeepSet-six", lambda: KeepSet(6, (0,)), ValidationError),
    # a keep that is not a sequence of integers, and a map's keep that is no KeepSet
    ("KeepSet-keep-int", lambda: KeepSet(2, 0), ValidationError),
    ("KeepSet-keep-none", lambda: KeepSet(2, None), ValidationError),
    ("ReductionMap-keep-tuple", lambda: ReductionMap((0,), 0, 0), ValidationError),
    ("ReductionMap-keep-none", lambda: ReductionMap(None, 0, 0), ValidationError),
    (
        "reduction_map-keep-tuple",
        lambda: reduction_map(build_net(net_context(2), 0), build_net(net_context(1), 0), (0,)),
        ValidationError,
    ),
    # the subsystem of the product shortcut, named before the net is examined
    (
        "shortcut_reduce-which-on-a-non-product-net",
        lambda: shortcut_reduce(WignerFunction(2, 1, flat(16)), build_net(net_context(2), 1), "C"),
        ValidationError,
    ),
    # net ids of a reduction map, checked against the keep set's sizes
    ("ReductionMap-source-bool", lambda: ReductionMap(KEEP, True, 0), ValidationError),
    ("ReductionMap-source-negative", lambda: ReductionMap(KEEP, -1, 0), ValidationError),
    ("ReductionMap-source-too-large", lambda: ReductionMap(KEEP, 1024, 0), ValidationError),
    (
        "ReductionMap-source-wrong-size",  # an n = 2 id on an n = 1 keep set
        lambda: ReductionMap(KeepSet(1, (0,)), 100, 0),
        ValidationError,
    ),
    ("ReductionMap-target-float", lambda: ReductionMap(KEEP, 0, 1.0), ValidationError),
    ("ReductionMap-target-negative", lambda: ReductionMap(KEEP, 0, -1), ValidationError),
    ("ReductionMap-target-too-large", lambda: ReductionMap(KEEP, 0, 8), ValidationError),
    ("ReductionMap-target-wrong-size", lambda: ReductionMap(KEEP, 0, 100), ValidationError),
    # generators
    ("random_density-bool", lambda: random_density(True, RNG), ValidationError),
    ("random_density-float", lambda: random_density(2.0, RNG), ValidationError),
    ("random_density-six", lambda: random_density(6, RNG), ValidationError),
    ("random_pure-bool", lambda: random_pure(True, RNG), ValidationError),
    ("random_pure-float", lambda: random_pure(2.0, RNG), ValidationError),
    ("random_pure-six", lambda: random_pure(6, RNG), ValidationError),
    ("pauli_words-bool", lambda: pauli_words(True), ValidationError),
    ("pauli_words-float", lambda: pauli_words(2.0), ValidationError),
    ("pauli_words-zero", lambda: pauli_words(0), ValidationError),
    ("pauli_words-six", lambda: pauli_words(6), ValidationError),
]


@pytest.mark.parametrize(
    "call, error", [row[1:] for row in REJECTED], ids=[row[0] for row in REJECTED]
)
def test_bad_integer_is_rejected_up_front(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("m", [0, 6])
def test_net_context_out_of_range_is_unsupported(m):
    with pytest.raises(UnsupportedDimensionError):
        net_context(m)


def test_numpy_integers_are_accepted():
    i = np.int64
    assert net_context(i(2)) is net_context(2)
    assert GF2m(np.uint8(2)) == F4
    assert F4.mul(i(2), np.int32(3)) == F4.mul(2, 3) == 1
    assert F4.pow(i(2), i(3)) == 1
    assert F4.trace(i(2)) == F4.trace(2)
    assert np.array_equal(SPACE.lines_through(i(5)), SPACE.lines_through(5))
    assert line_probability(W2, SPACE.lines[0, 0]) == pytest.approx(0.25)
    assert DensityState(i(1), np.eye(2) / 2).n == 1
    assert WignerFunction(i(1), 0, flat(4)).n == 1
    assert StokesVector(i(1), flat(4)).n == 1
    assert KeepSet(i(2), (i(1),)).keep == (1,)
    assert random_density(i(1), np.random.default_rng(1)).rho.shape == (2, 2)
    assert random_pure(i(1), np.random.default_rng(1)).rho.shape == (2, 2)
    assert pauli_words(i(1)) is pauli_words(1)


def test_value_types_hold_read_only_copies():
    w = np.full(16, 1 / 16)
    rho = np.eye(4, dtype=complex) / 4
    s = np.zeros(16)
    wf, state, stokes = WignerFunction(2, 7, w), DensityState(2, rho), StokesVector(2, s)
    w[:] = 5
    rho[0, 0] = 7
    s[:] = 1
    assert wf.w.sum() == pytest.approx(1.0)
    assert np.trace(state.rho).real == pytest.approx(1.0)
    assert not stokes.s.any()
    for held in (wf.w, state.rho, stokes.s):
        with pytest.raises(ValueError):
            held[0] = 0


def test_layout_tables_check_their_size():
    for bad in (True, 2.0):
        with pytest.raises(ValidationError):
            xz_tables(bad)
    assert xz_tables(np.int64(2)) is xz_tables(2)
    # cached words are shared by every caller, so none may write into them
    assert not pauli_words(1).flags.writeable
