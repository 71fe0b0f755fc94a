import gc
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from dwfnet import (
    DensityState,
    KeepSet,
    build_net,
    concurrence_from_dwf,
    convert_net,
    detect_product_structure,
    dwf_from_rho,
    hadamard_matrix,
    id_of,
    shortcut_reduce,
    net_context,
    random_density,
    reduce_dwf,
    reduction_map,
    rho_from_dwf,
)
from dwfnet.errors import (
    DimensionMismatchError,
    NetMismatchError,
    PurityError,
    UnsupportedNetError,
    ValidationError,
)
from dwfnet.nets import _signs_by_id
from dwfnet.reduction import ReductionMap, _kept_cells
from dwfnet.verify import (
    dense_hadamard,
    partial_trace,
    reduction_matrix,
    selection_matrix,
    suite_reduction_oracle,
)


def dwf(rho, n, net_id):
    ctx = net_context(n)
    return dwf_from_rho(DensityState(n, rho), build_net(ctx, net_id))


def bell_rho():
    psi = np.zeros(4)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    return np.outer(psi, psi)


def test_keepset_validation():
    ks = KeepSet(3, (0, 2))
    assert ks.k == 2
    with pytest.raises(ValidationError):
        KeepSet(2, ())
    with pytest.raises(ValidationError):
        KeepSet(2, (0, 2))
    with pytest.raises(ValidationError):
        KeepSet(2, (1, 0))
    with pytest.raises(ValidationError):
        KeepSet(2, (0, 0))
    with pytest.raises(ValidationError):
        KeepSet(2, (0.5,))  # not an integer position
    with pytest.raises(ValidationError):
        KeepSet(2, (True,))  # a bool is not a qubit position
    keep = KeepSet(2, (np.int64(1),)).keep  # numpy integers become ints
    assert keep == (1,) and type(keep[0]) is int


def test_selection_matrix_keep_all_is_identity():
    t = selection_matrix(KeepSet(2, (0, 1)))
    assert np.array_equal(t, np.eye(16))


def test_selection_matrix_two_to_one():
    # keep qubit 0 of 2: column j1*4 + j2 survives iff j2 = 0
    t = selection_matrix(KeepSet(2, (0,)))
    assert t.shape == (4, 16)
    expect = np.zeros((4, 16))
    for j1 in range(4):
        expect[j1, j1 * 4] = 1.0
    assert np.array_equal(t, expect)


def test_selection_matrix_three_to_two():
    t = selection_matrix(KeepSet(3, (0, 2)))
    assert t.shape == (16, 64)
    for j1 in range(4):
        for j3 in range(4):
            row = np.zeros(64)
            row[j1 * 16 + j3] = 1.0  # j2 = 0
            assert np.array_equal(t[j1 * 4 + j3], row)


def seeded_net(n, rng):
    ctx = net_context(n)
    digits = rng.integers(0, ctx.order, ctx.order + 1).tolist()
    return build_net(ctx, id_of(digits, ctx.order))


def test_reduction_map_is_the_paper_formula():
    # P read off reduce_dwf is H_k^T T_k H_n / 4^k bit for bit, with H from
    # the point-operator oracle for every keep set at n <= 4
    rng = np.random.default_rng(47)
    for n in [1, 2, 3, 4]:
        src = seeded_net(n, rng)
        h_n = dense_hadamard(src)
        for k in range(1, n + 1):
            for kept in combinations(range(n), k):
                keep, tgt = KeepSet(n, kept), seeded_net(k, rng)
                formula = dense_hadamard(tgt).T @ selection_matrix(keep) @ h_n / 4**k
                assert np.array_equal(reduction_matrix(reduction_map(src, tgt, keep)), formula)
    src, tgt, keep = seeded_net(5, rng), seeded_net(4, rng), KeepSet(5, (0, 1, 3, 4))
    h_n, h_k = hadamard_matrix(src).h, hadamard_matrix(tgt).h
    formula = h_k.T @ selection_matrix(keep) @ h_n / 4**4
    assert np.array_equal(reduction_matrix(reduction_map(src, tgt, keep)), formula)


def test_reduction_applies_p_without_storing_it():
    # reduce_dwf equals the paper formula P = H_k^T T_k H_n / 4^k, with H
    # from the point-operator oracle, for every keep set at n <= 4, and with
    # the library H for one n = 5, k = 4 pair; the map stores no array
    rng = np.random.default_rng(53)
    cases = [
        (n, kept) for n in [1, 2, 3, 4] for k in range(1, n + 1) for kept in combinations(range(n), k)
    ]
    for n, kept in cases + [(5, (0, 2, 3, 4))]:
        src, tgt, keep = seeded_net(n, rng), seeded_net(len(kept), rng), KeepSet(n, kept)
        hadamard = dense_hadamard if n <= 4 else (lambda net: hadamard_matrix(net).h)
        formula = hadamard(tgt).T @ selection_matrix(keep) @ hadamard(src) / 4**keep.k
        w = dwf_from_rho(random_density(n, rng), src)
        rmap = reduction_map(src, tgt, keep)
        assert np.max(np.abs(reduce_dwf(w, rmap).w - formula @ w.w)) < 1e-12
        stored = [a for a in vars(rmap).values() if isinstance(a, np.ndarray)]
        assert not stored


def test_reduce_bell_state_is_uniform():
    w = dwf(bell_rho(), 2, 7)
    rmap = reduction_map(
        build_net(net_context(2), 7),
        build_net(net_context(1), 3),
        KeepSet(2, (0,)),
    )
    wa = reduce_dwf(w, rmap)
    assert wa.n == 1
    assert wa.net_id == 3
    assert np.allclose(wa.w, 0.25)


def test_reduce_product_state():
    plus = np.full((2, 2), 0.5)
    zero = np.diag([1.0, 0.0])
    rho = np.kron(zero, plus)
    w = dwf(rho, 2, 0)
    target = build_net(net_context(1), 0)
    rmap = reduction_map(build_net(net_context(2), 0), target, KeepSet(2, (1,)))
    wa = reduce_dwf(w, rmap)
    assert np.allclose(rho_from_dwf(wa, target).rho, plus, atol=1e-10)


def test_reduce_matches_partial_trace_oracle():
    rng = np.random.default_rng(21)
    ctx2 = net_context(2)
    ctx1 = net_context(1)
    for _ in range(5):
        rho = random_density(2, rng)
        src = build_net(ctx2, int(rng.integers(1024)))
        dst = build_net(ctx1, int(rng.integers(8)))
        w = dwf_from_rho(rho, src)
        for keep in [(0,), (1,)]:
            rmap = reduction_map(src, dst, KeepSet(2, keep))
            wa = reduce_dwf(w, rmap)
            back = rho_from_dwf(wa, dst).rho
            assert np.allclose(back, partial_trace(rho.rho, 2, keep), atol=1e-10)


def test_reduce_three_qubits():
    rng = np.random.default_rng(22)
    ctx3 = net_context(3)
    ctx1 = net_context(1)
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1.0 / np.sqrt(2.0)
    rho = np.outer(ghz, ghz)
    src = build_net(ctx3, 123456)
    dst = build_net(ctx1, 0)
    w = dwf_from_rho(DensityState(3, rho), src)
    rmap = reduction_map(src, dst, KeepSet(3, (0,)))
    wa = reduce_dwf(w, rmap)
    # each GHZ marginal is maximally mixed
    assert np.allclose(rho_from_dwf(wa, dst).rho, np.eye(2) / 2, atol=1e-10)
    # two-qubit marginal against the oracle
    dst2 = build_net(net_context(2), int(rng.integers(1024)))
    rmap2 = reduction_map(src, dst2, KeepSet(3, (0, 2)))
    wb = reduce_dwf(w, rmap2)
    assert np.allclose(
        rho_from_dwf(wb, dst2).rho, partial_trace(rho, 3, (0, 2)), atol=1e-10
    )


def test_reduction_oracle_suite_at_four_qubits():
    # n=4 has 16^17 nets, more than a 64-bit integer can index
    result = suite_reduction_oracle(4)
    assert result.ok, result.failures[:3]
    assert result.checks > 0


def test_reduction_composes():
    # reducing 3 -> 2 -> 1 equals reducing 3 -> 1 directly
    rng = np.random.default_rng(23)
    rho = random_density(3, rng)
    src = build_net(net_context(3), 55555)
    mid = build_net(net_context(2), 77)
    dst = build_net(net_context(1), 2)
    w = dwf_from_rho(rho, src)
    two_step = reduce_dwf(
        reduce_dwf(w, reduction_map(src, mid, KeepSet(3, (0, 1)))),
        reduction_map(mid, dst, KeepSet(2, (0,))),
    )
    one_step = reduce_dwf(w, reduction_map(src, dst, KeepSet(3, (0,))))
    assert np.allclose(two_step.w, one_step.w, atol=1e-10)


def test_convert_net_preserves_state():
    rng = np.random.default_rng(24)
    ctx = net_context(2)
    rho = random_density(2, rng)
    a, b = build_net(ctx, 10), build_net(ctx, 901)
    w = dwf_from_rho(rho, a)
    wb = convert_net(w, b)
    assert wb.net_id == 901
    assert np.allclose(wb.w, dwf_from_rho(rho, b).w, atol=1e-10)
    assert np.allclose(convert_net(wb, a).w, w.w, atol=1e-10)


def test_convert_net_matches_keep_all_map_and_direct_transform():
    # the sign-vector route against the keep-all reduction map and
    # against transforming the state on the target net directly
    rng = np.random.default_rng(41)
    for m in [1, 2, 3, 4, 5]:
        keep_all = KeepSet(m, tuple(range(m)))
        for _ in range(3 if m < 5 else 1):
            src, tgt = seeded_net(m, rng), seeded_net(m, rng)
            state = random_density(m, rng)
            w = dwf_from_rho(state, src)
            converted = convert_net(w, tgt)
            assert converted.net_id == tgt.net_id
            dense = reduce_dwf(w, reduction_map(src, tgt, keep_all))
            assert np.max(np.abs(converted.w - dense.w)) < 1e-12
            assert np.max(np.abs(converted.w - dwf_from_rho(state, tgt).w)) < 1e-12


def test_net_mismatch_in_reduce():
    ctx = net_context(2)
    w = dwf(bell_rho(), 2, 7)
    rmap = reduction_map(
        build_net(ctx, 8), build_net(net_context(1), 0), KeepSet(2, (0,))
    )
    with pytest.raises(NetMismatchError):
        reduce_dwf(w, rmap)


def test_shortcut_marginal():
    rng = np.random.default_rng(25)
    ctx = net_context(2)
    net = build_net(ctx, 10)  # product net, form eq6
    report = detect_product_structure(net)
    assert report.is_product
    for _ in range(5):
        rho = random_density(2, rng)
        w = dwf_from_rho(rho, net)
        wa = shortcut_reduce(w, net, "A")
        assert wa.net_id == report.factor_a_net
        back = rho_from_dwf(wa, build_net(net_context(1), wa.net_id)).rho
        assert np.allclose(back, partial_trace(rho.rho, 2, (0,)), atol=1e-10)


def test_shortcut_sign_kernel():
    rng = np.random.default_rng(26)
    ctx = net_context(2)
    net = build_net(ctx, 17)  # product net, form eq7
    report = detect_product_structure(net)
    for _ in range(5):
        rho = random_density(2, rng)
        w = dwf_from_rho(rho, net)
        wb = shortcut_reduce(w, net, "B")
        assert wb.net_id == report.factor_b_conj_net
        back = rho_from_dwf(wb, build_net(net_context(1), wb.net_id)).rho
        assert np.allclose(back, partial_trace(rho.rho, 2, (1,)), atol=1e-10)


def test_shortcut_rejects_non_product_net():
    ctx = net_context(2)
    net = build_net(ctx, 0)
    w = dwf(bell_rho(), 2, 0)
    with pytest.raises(UnsupportedNetError):
        shortcut_reduce(w, net, "A")


def test_shortcut_agrees_with_general_reduction():
    rng = np.random.default_rng(27)
    ctx = net_context(2)
    net = build_net(ctx, 10)
    report = detect_product_structure(net)
    rho = random_density(2, rng)
    w = dwf_from_rho(rho, net)
    wa = shortcut_reduce(w, net, "A")
    rmap = reduction_map(
        net, build_net(net_context(1), report.factor_a_net), KeepSet(2, (0,))
    )
    assert np.allclose(wa.w, reduce_dwf(w, rmap).w, atol=1e-10)


def test_concurrence_bell():
    w = dwf(bell_rho(), 2, 7)
    c = concurrence_from_dwf(w, build_net(net_context(2), 7))
    assert c == pytest.approx(1.0, abs=1e-10)


def test_concurrence_separable():
    psi = np.zeros(4)
    psi[0] = 1.0
    w = dwf(np.outer(psi, psi), 2, 7)
    c = concurrence_from_dwf(w, build_net(net_context(2), 7))
    assert c == pytest.approx(0.0, abs=1e-8)


def test_concurrence_partial_entanglement():
    theta = np.pi / 6.0
    psi = np.zeros(4)
    psi[0], psi[3] = np.cos(theta), np.sin(theta)
    w = dwf(np.outer(psi, psi), 2, 0)
    c = concurrence_from_dwf(w, build_net(net_context(2), 0))
    assert c == pytest.approx(np.sin(2 * theta), abs=1e-10)


def test_concurrence_rejects_mixed_state():
    w = dwf(np.eye(4) / 4.0, 2, 0)
    with pytest.raises(PurityError):
        concurrence_from_dwf(w, build_net(net_context(2), 0))


def test_dropped_reduction_maps_hold_no_memory():
    # a map holds its keep set and both net ids, so 2,000 cold n = 3 -> 2
    # maps built and dropped leave the traced heap as it was; the nets'
    # signs and kept cells are cached beforehand, so only the maps
    # themselves are new
    keeps, sources = [(0, 1), (0, 2), (1, 2)], range(3000, 3667)
    for keep in keeps:
        _kept_cells(3, keep)
    for net_id in sources:
        _signs_by_id(3, net_id)
    _signs_by_id(2, 5)
    ctx3 = net_context(3)
    source_nets = [build_net(ctx3, net_id) for net_id in sources]
    target, keep_sets = build_net(net_context(2), 5), [KeepSet(3, keep) for keep in keeps]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for net in source_nets:
            for keep in keep_sets:
                reduction_map(net, target, keep)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16 * 2**10


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_reduction_map_equals_the_checked_constructor(n):
    # `reduction_map` builds its map with the public constructor, so it gives
    # the map that constructor checks, field for field
    rng = np.random.default_rng(2300 + n)
    order = 2**n
    source = build_net(net_context(n), id_of([int(d) for d in rng.integers(0, order, order + 1)], order))
    for k in range(1, n + 1):
        keep = KeepSet(n, tuple(sorted(rng.choice(n, k, replace=False).tolist())))
        target = build_net(net_context(k), int(rng.integers(2**k)))
        got, want = reduction_map(source, target, keep), ReductionMap(keep, source.net_id, target.net_id)
        assert type(got) is ReductionMap and got == want and hash(got) == hash(want)
        assert repr(got) == repr(want)
        assert (got.keep, got.source_net, got.target_net) == (keep, source.net_id, target.net_id)


class DuckKeep:
    """Sizes of a keep set without being one."""

    n, k, keep = 2, 1, (0,)

    def __repr__(self):
        return "DuckKeep()"


@pytest.mark.parametrize(
    "n_source, n_target, keep, error, message",
    [
        (3, 2, KeepSet(2, (0,)), DimensionMismatchError, "source net is for n=3, keep set for n=2"),
        (2, 2, KeepSet(2, (0,)), DimensionMismatchError,
         "target net is for n=2, keep set keeps k=1"),
        (2, 1, DuckKeep(), ValidationError, "keep DuckKeep() is not a KeepSet"),
    ],
    ids=["source-size", "target-size", "not-a-keep-set"],
)
def test_reduction_map_refusals_are_unchanged(n_source, n_target, keep, error, message):
    source, target = build_net(net_context(n_source), 3), build_net(net_context(n_target), 1)
    with pytest.raises(error) as caught:
        reduction_map(source, target, keep)
    assert type(caught.value) is error and str(caught.value) == message
