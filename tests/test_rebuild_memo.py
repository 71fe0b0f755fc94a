"""A state's DWFs share one rebuilt state.

Every DWF that `dwf_from_rho` or `convert_net` builds from a state shares
the state's Stokes grid, so `rho_from_dwf` rebuilds that grid once and keeps
the result on the state; every later call on any of those DWFs returns the
same object, with the bits a fresh rebuild gives.  A DWF with a grid of its
own (a reduction, F, G, or one a caller builds) is rebuilt on every call, and
a rebuild that warns is never kept, so it warns at the caller on every call.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from dwfnet import (
    DensityState,
    KeepSet,
    ReductionMap,
    WignerFunction,
    build_net,
    conjugate_dwf,
    convert_net,
    dwf_from_rho,
    net_context,
    random_density,
    random_pure,
    reduce_dwf,
    reduction_map,
    rho_from_dwf,
    spinflip_dwf,
    wigner,
)
from helpers import random_net


@pytest.fixture
def rebuilds(monkeypatch):
    """The grids `rho_from_dwf` rebuilds a state from, one entry per rebuild."""
    grids, state_of = [], wigner._state_of

    def counted(s, owner=None):
        grids.append(s)
        return state_of(s, owner)

    monkeypatch.setattr(wigner, "_state_of", counted)
    return grids


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_dwfs_of_one_state_share_one_rebuild(rebuilds, n):
    rng = np.random.default_rng([7, n])
    for state in (random_pure(n, rng), random_density(n, rng)):
        nets = [random_net(n, rng) for _ in range(3)]
        dwfs = [dwf_from_rho(state, net) for net in nets]
        dwfs.append(convert_net(dwfs[0], nets[1]))
        rebuilds.clear()
        backs = [rho_from_dwf(w, net) for w, net in zip(dwfs, nets + [nets[1]])]
        backs += [rho_from_dwf(w, net) for w, net in zip(dwfs, nets + [nets[1]])]
        assert all(back is backs[0] for back in backs)
        assert len(rebuilds) == 1 and rebuilds[0] is state._stokes
        assert state._rebuilt is backs[0] and all(w._owner is state for w in dwfs)
        # the bits of a fresh rebuild of the same grid
        fresh = wigner._state_of(dwfs[2]._stokes)
        assert fresh is not backs[0] and backs[0].n == n
        assert backs[0].rho.tobytes() == fresh.rho.tobytes()
        assert not backs[0].rho.flags.writeable


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_dwfs_with_a_grid_of_their_own_rebuild_on_every_call(rebuilds, n):
    rng = np.random.default_rng([11, n])
    state, net = random_density(n, rng), random_net(n, rng)
    w = dwf_from_rho(state, net)
    target = random_net(1, rng)
    built = [
        (reduce_dwf(w, reduction_map(net, target, KeepSet(n, (0,)))), target),
        (conjugate_dwf(w), net),
        (spinflip_dwf(w), net),
        (WignerFunction(n, net.net_id, w.w.copy()), net),
    ]
    for v, on in built:
        assert v._owner is None
        rebuilds.clear()
        first, second = rho_from_dwf(v, on), rho_from_dwf(v, on)
        assert len(rebuilds) == 2 and first is not second
        assert first.rho.tobytes() == second.rho.tobytes()
    assert state._rebuilt is None  # none of them asked for the state's own rebuild


def test_a_rebuild_that_warns_is_not_kept():
    with pytest.warns(UserWarning, match="negative eigenvalue -5.000e-01"):
        state = DensityState(1, np.diag([1.5, -0.5]))
    dwfs = [(dwf_from_rho(state, net), net) for net in map(build_net, [net_context(1)] * 2, (0, 5))]
    for w, net in dwfs + dwfs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            back = rho_from_dwf(w, net)
        assert [(str(c.message), c.category, c.filename) for c in caught] == [
            (
                "rho has negative eigenvalue -5.000e-01; transforms remain well defined on Hermitian inputs",
                UserWarning,
                __file__,
            )
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fresh = wigner._state_of(w._stokes)
        assert back is not fresh and back.rho.tobytes() == fresh.rho.tobytes()
    assert state._rebuilt is None


def test_reduction_maps_are_as_small_as_constructed_ones():
    # a map from `reduction_map` stores its fields as the constructor does,
    # so neither gives its instances a dict of their own (which would cost
    # about 230 bytes more per map); tracemalloc's own bookkeeping moves a
    # count of 1,000 maps by a few bytes per map
    ctx1, ctx2 = net_context(1), net_context(2)
    source, target, keep = build_net(ctx2, 3), build_net(ctx1, 2), KeepSet(2, (1,))
    made = [reduction_map(source, target, keep), ReductionMap(keep, 3, 2)]

    def footprint(make):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [make() for _ in range(1000)]
            return tracemalloc.get_traced_memory()[0] - before, kept
        finally:
            tracemalloc.stop()

    for _ in range(2):  # each kind after the other kind was built
        built, kept = footprint(lambda: reduction_map(source, target, keep))
        constructed, kept = footprint(lambda: ReductionMap(keep, 3, 2))
        assert abs(built - constructed) < 1000 * 16
    assert made[0] == made[1] == kept[0]
