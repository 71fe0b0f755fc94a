import hashlib
import sys
import threading
import weakref

import numpy as np
import pytest

from dwfnet import (
    KeepSet,
    QuantumNet,
    build_net,
    classify_nets,
    concurrence_from_dwf,
    conjugate_dwf,
    convert_net,
    detect_product_structure,
    digits_of,
    dwf_from_rho,
    enumerate_nets,
    hadamard_matrix,
    id_of,
    net_context,
    random_density,
    random_pure,
    reduce_dwf,
    reduction_map,
    rho_from_dwf,
    spinflip_dwf,
    spinflip_matrix,
    stokes_from_rho,
    translate_net_id,
)
from dwfnet import nets
from dwfnet.wigner import WignerFunction
from dwfnet.errors import UnsupportedDimensionError, ValidationError
from dwfnet.translations import xz_tables
from dwfnet.verify import dense_hadamard, dense_projectors

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
Z = np.diag([1.0, -1.0])


def test_digit_codec_roundtrip():
    for n in [2, 4]:
        width = n + 1
        for net_id in range(min(n**width, 200)):
            digits = digits_of(net_id, n)
            assert len(digits) == width
            assert all(0 <= d < n for d in digits)
            assert id_of(digits, n) == net_id


def test_digit_codec_striation_zero_most_significant():
    assert digits_of(4, 2) == (1, 0, 0)
    assert digits_of(1, 2) == (0, 0, 1)
    assert id_of((1, 2, 3, 0, 2), 4) == 1 * 256 + 2 * 64 + 3 * 16 + 0 * 4 + 2


def test_net_count():
    assert net_context(1).net_count == 8
    assert net_context(2).net_count == 1024


def test_enumeration_full_and_refusal():
    ctx = net_context(1)
    assert list(enumerate_nets(ctx)) == list(range(8))
    ctx3 = net_context(3)
    with pytest.raises(UnsupportedDimensionError) as err:
        list(enumerate_nets(ctx3))
    assert "134217728" in str(err.value)


def test_enumeration_sampled():
    ctx3 = net_context(3)
    sample = list(enumerate_nets(ctx3, sample=100))
    assert len(sample) == 100
    assert len(set(sample)) == 100
    assert all(0 <= i < ctx3.net_count for i in sample)


def test_single_qubit_phase_point_operator():
    # the net assigning |0>, |+>, |R> to the three rays has
    # A(0,0) = (I + X + Y + Z) / 2
    ctx = net_context(1)
    net = build_net(ctx, 1)
    a = net.point_ops[0]  # the origin (0, 0)
    assert np.allclose(a, 0.5 * (I2 + X + Y + Z))


def test_phase_point_operator_identities():
    for m in [1, 2]:
        ctx = net_context(m)
        n = ctx.order
        for net_id in [0, ctx.net_count // 2, ctx.net_count - 1]:
            net = build_net(ctx, net_id)
            ops = net.ops_array
            assert ops.shape == (n * n, n, n)
            assert np.allclose(ops.sum(axis=0), n * np.eye(n))
            for a in ops:
                assert np.allclose(a, a.conj().T)
                assert np.trace(a).real == pytest.approx(1.0)


def test_phase_point_operator_orthogonality():
    ctx = net_context(2)
    net = build_net(ctx, 17)
    ops = net.ops_array
    gram = np.einsum("aij,bji->ab", ops, ops).real
    assert np.allclose(gram, 4.0 * np.eye(16), atol=1e-10)


def test_line_sum_recovers_projectors():
    # summing A over a line gives back the quantum state on that line
    ctx = net_context(1)
    for net_id in range(8):
        net = build_net(ctx, net_id)
        projectors = dense_projectors(net)
        assert projectors.shape == (3, 2, 2, 2)  # [striation, c]
        for sid, c in np.ndindex(3, 2):
            line = ctx.space.lines[sid, c]
            s = sum(net.point_ops[alpha] for alpha in line) / 2.0
            assert np.allclose(s, projectors[sid, c])


def test_covariance_of_line_assignment():
    # each non-ray line's state is the ray state conjugated by the
    # representative shift translation
    ctx = net_context(2)
    projectors = dense_projectors(build_net(ctx, 123))
    for sid, lines in enumerate(ctx.space.lines):
        ray_state = projectors[sid, 0]
        for c in range(1, 4):
            t = ctx.table.matrices[lines[c, 0]]  # the line's smallest point
            moved = t @ ray_state @ t.conj().T
            assert np.allclose(moved, projectors[sid, c])


def test_bad_net_id():
    ctx = net_context(1)
    with pytest.raises(ValidationError):
        build_net(ctx, 8)
    with pytest.raises(ValidationError):
        build_net(ctx, -1)


@pytest.mark.parametrize("bad", [5.0, True, np.float64(5.0), "5", None])
def test_net_id_must_be_an_integer(bad):
    # a float or bool id used to pass the range check alone
    ctx = net_context(2)
    w = np.full(16, 1 / 16)
    for call in (
        lambda: nets.check_net_id(bad, 4),
        lambda: digits_of(bad, 4),
        lambda: build_net(ctx, bad),
        lambda: WignerFunction(2, bad, w),
        lambda: id_of([bad, 0, 0, 0, 0], 4),
    ):
        with pytest.raises(ValidationError):
            call()
    with pytest.raises(ValidationError):
        id_of([0.5, 0, 0, 0, 0], 4)
    with pytest.raises(ValidationError):
        enumerate_nets(net_context(3), sample=True)
    with pytest.raises(ValidationError):
        enumerate_nets(net_context(3), sample=10.0)


def test_numpy_integer_net_ids_pass():
    ctx = net_context(2)
    assert digits_of(np.int64(5), 4) == digits_of(5, 4)
    assert id_of(np.array([0, 0, 0, 1, 1]), 4) == 5
    assert build_net(ctx, np.int32(5)).digits == (0, 0, 0, 1, 1)
    assert WignerFunction(2, np.uint8(5), np.full(16, 1 / 16)).net_id == 5
    assert len(enumerate_nets(net_context(3), sample=np.int64(3))) == 3


def test_translate_net_id_rejects_points_outside_the_plane():
    ctx = net_context(2)
    assert translate_net_id(ctx, 0, 0) == 0
    assert translate_net_id(ctx, 0, 15) == 653
    for beta in (-1, 16, 1.0, True):
        with pytest.raises(ValidationError):
            translate_net_id(ctx, 0, beta)


def test_translate_net_id_is_group_action():
    ctx = net_context(1)
    for net_id in range(8):
        assert translate_net_id(ctx, net_id, 0) == net_id
        for b in range(4):
            moved = translate_net_id(ctx, net_id, b)
            assert translate_net_id(ctx, moved, b) == net_id


def test_classification_single_qubit():
    orbits = classify_nets(net_context(1))
    assert orbits == {0: (0, 3, 5, 6), 1: (1, 2, 4, 7)}


def test_classification_two_qubit_counts():
    orbits = classify_nets(net_context(2))
    assert len(orbits) == 64
    assert all(len(members) == 16 for members in orbits.values())
    covered = sorted(i for members in orbits.values() for i in members)
    assert covered == list(range(1024))


def test_orbit_representative():
    # each orbit is keyed by its smallest id, reached from every member
    ctx = net_context(1)
    orbits = classify_nets(ctx)
    assert orbits == {0: (0, 3, 5, 6), 1: (1, 2, 4, 7)}
    for rep, members in orbits.items():
        for net_id in members:
            assert min(translate_net_id(ctx, net_id, b) for b in range(4)) == rep


def test_net_id_contract_fingerprint():
    # net ids are a public contract: the Hadamard matrices of all n=2 nets
    # and of 64 strided n=3 ids hash to a pinned value
    digest = hashlib.sha256()
    ctx2 = net_context(2)
    for net_id in range(ctx2.net_count):
        h = hadamard_matrix(build_net(ctx2, net_id)).h
        digest.update(h.astype(np.int8).tobytes())
    ctx3 = net_context(3)
    for net_id in range(0, ctx3.net_count, ctx3.net_count // 64):
        h = hadamard_matrix(build_net(ctx3, net_id)).h
        digest.update(h.astype(np.int8).tobytes())
    assert digest.hexdigest() == (
        "8d5e4b987e8dae2c4c9c1cd1de378b37899e585906fbec997e2fe1263675e6cb"
    )


def test_sign_vector_is_dense_hadamard_origin_column():
    # c_j = Tr(Sigma_j A_0), against the point-operator oracle for all n = 2
    # nets and the fingerprint's 64 strided n = 3 ids
    ctx2, ctx3 = net_context(2), net_context(3)
    stride = ctx3.net_count // 64
    for ctx, ids in ((ctx2, range(ctx2.net_count)), (ctx3, range(0, ctx3.net_count, stride))):
        stokes = xz_tables(ctx.n_qubits).stokes
        for net_id in ids:
            c = np.empty(ctx.order**2)
            c[stokes] = nets._signs_by_id(ctx.n_qubits, net_id)
            assert np.array_equal(c, dense_hadamard(build_net(ctx, net_id))[:, 0])


def _seeded_ids(n, count, seed):
    rng = np.random.default_rng(seed)
    order = 2**n
    return [id_of(d, order) for d in rng.integers(0, order, (count, order + 1)).tolist()]


def test_sign_vector_is_the_ray_sign_gather():
    # c equals the striation sign tables indexed by (striation, digit), the
    # first formula for c, for all n = 2 nets and seeded ids at n = 3..5
    cases = [(2, range(1024))] + [(n, _seeded_ids(n, 50, 61 + n)) for n in (3, 4, 5)]
    for n, ids in cases:
        ctx = net_context(n)
        for net_id in ids:
            c = np.ones(ctx.order**2)
            digits = digits_of(net_id, ctx.order)
            c[ctx.ray_cells] = ctx.eigensystems.signs[np.arange(ctx.order + 1), digits]
            got = nets._signs_by_id(n, net_id)
            assert got.dtype == np.float64 and not got.flags.writeable
            assert np.array_equal(got, c.reshape(ctx.order, ctx.order))


def test_hadamard_is_signs_times_characters():
    # H equals the first formula for it, one 3-D broadcast of c with the
    # factors K[j, q N + p] = WH[z_j, x_q] WH[x_j, z_p], bit for bit at
    # n = 1..5, and the dense Tr(Sigma_j A_alpha) at n <= 3
    for n in [1, 2, 3, 4, 5]:
        ctx, t = net_context(n), xz_tables(n)
        xs, zs = np.divmod(t.cells, ctx.order)
        k_x = t.wh[:, ctx.table.z[: ctx.order]][xs]
        k_z = t.wh[:, ctx.table.x[:: ctx.order]][zs]
        for net_id in _seeded_ids(n, 3 if n == 5 else 8, 71 + n):
            c = nets._signs_by_id(n, net_id).ravel()[t.cells]
            formula = k_z[:, :, None] * (k_x * c[:, None])[:, None, :]
            net = build_net(ctx, net_id)
            h = hadamard_matrix(net).h
            assert h.dtype == np.float64 and not h.flags.writeable
            assert np.array_equal(h, formula.reshape(h.shape))
            if n <= 3:
                assert np.array_equal(h, dense_hadamard(net))


def test_characters_are_a_cached_int8_table():
    # K is one read-only int8 table per size, cached without a bound as
    # there are only five sizes, and outside the byte budget
    for n in [1, 2, 3]:
        k = nets._characters(n)
        assert k.dtype == np.int8 and k.shape == (4**n, 4**n) and not k.flags.writeable
        assert nets._characters(n) is k
    assert nets._characters.cache_info().maxsize is None


def test_hadamard_lives_on_its_net():
    # H is built once per net and kept on it, so it is freed with the net;
    # another net of the same id builds its own, bit for bit the same
    ctx = net_context(3)
    net, twin = build_net(ctx, 4321), build_net(ctx, 4321)
    hm = hadamard_matrix(net)
    assert hadamard_matrix(net) is hm and hadamard_matrix(twin) is not hm
    assert np.array_equal(hadamard_matrix(twin).h, hm.h)
    dropped, dropped_h = weakref.ref(hm), weakref.ref(hm.h)
    del net, hm
    assert dropped() is None and dropped_h() is None


def test_conjugated_net_matches_translated_id():
    ctx = net_context(2)
    net = build_net(ctx, 42)
    for b_index in [1, 5, 10]:
        moved_id = translate_net_id(ctx, 42, b_index)
        moved = build_net(ctx, moved_id)
        t = ctx.table.matrices[b_index]
        for idx in range(16):
            conj = t @ net.point_ops[idx] @ t.conj().T
            assert np.allclose(conj, moved.point_ops[idx], atol=1e-10)


def test_product_census():
    ctx = net_context(2)
    forms = {}
    for net_id in enumerate_nets(ctx):
        report = detect_product_structure(build_net(ctx, net_id))
        if report.is_product:
            forms.setdefault(report.form, []).append(net_id)
    assert sum(len(v) for v in forms.values()) == 32
    assert len(forms["eq6"]) == 16
    assert len(forms["eq7"]) == 16


def test_product_factors_reconstruct():
    ctx2 = net_context(2)
    ctx1 = net_context(1)
    report = detect_product_structure(build_net(ctx2, 10))
    assert report.is_product and report.form == "eq6"
    net = build_net(ctx2, 10)
    fa = build_net(ctx1, report.factor_a_net)
    fb = build_net(ctx1, report.factor_b_conj_net)
    for idx, (i1, i2) in enumerate(ctx2.table.labels):
        a1 = fa.point_ops[i1]
        a2 = fb.point_ops[i2].conj()
        assert np.allclose(np.kron(a1, a2), net.point_ops[idx], atol=1e-10)


def test_non_product_net():
    ctx = net_context(2)
    report = detect_product_structure(build_net(ctx, 0))
    assert not report.is_product
    assert report.form == "none"


def test_conjugate_of_eq6_net_is_eq7():
    ctx = net_context(2)
    report = detect_product_structure(build_net(ctx, 10))
    assert report.form == "eq6"
    # conjugating every operator realizes the partner form; find the net
    # whose operators equal the conjugates
    conj_ops = build_net(ctx, 10).ops_array.conj()
    for net_id in enumerate_nets(ctx):
        if np.allclose(build_net(ctx, net_id).ops_array, conj_ops):
            partner = detect_product_structure(build_net(ctx, net_id))
            assert partner.form == "eq7"
            break
    else:
        pytest.fail("conjugate net not found in enumeration")


def test_transforms_build_no_point_operators():
    # every transform works from the net id; point operators stay unbuilt
    ctx2, ctx1 = net_context(2), net_context(1)
    net = build_net(ctx2, 777)
    state = random_pure(2, np.random.default_rng(23))
    w = dwf_from_rho(state, net)
    rho_from_dwf(w, net)
    reduce_dwf(w, reduction_map(net, build_net(ctx1, 5), KeepSet(2, (1,))))
    convert_net(w, build_net(ctx2, 12))
    spinflip_matrix(net)
    concurrence_from_dwf(w, net)
    assert not {"ops_array", "point_ops"} & set(vars(net))
    # built on first access
    assert np.allclose(net.ops_array.sum(axis=0), 4 * np.eye(4), atol=1e-12)
    assert net.point_ops[3] is not None


def test_transforms_build_no_dense_matrix():
    # the transforms, net conversion, F, G and reduction maps read sign
    # vectors only: no net gains an H, and K, which every H is built
    # from, is not built
    nets._characters.cache_clear()
    rng = np.random.default_rng(31)
    built = []
    for m in [3, 4, 5]:
        ctx = net_context(m)
        digits = rng.integers(0, ctx.order, (2, ctx.order + 1)).tolist()
        net, other = (build_net(ctx, id_of(d, ctx.order)) for d in digits)
        state = random_density(m, rng)
        w = dwf_from_rho(state, net)
        rho_from_dwf(w, net)
        stokes_from_rho(state)
        convert_net(w, other)
        conjugate_dwf(w)
        spinflip_dwf(w)
        keep = KeepSet(m, (0, m - 1))
        target = build_net(net_context(2), int(rng.integers(1024)))
        reduce_dwf(w, reduction_map(net, target, keep))
        built += [net, other, target]
    assert all(net._hadamard is None for net in built)
    assert nets._characters.cache_info().currsize == 0


def test_byte_bounded_cache_is_thread_safe(monkeypatch):
    # four threads on a two-entry budget, so hits race evictions: every call
    # returns the right result, and the byte count stays exact, so later
    # insertions keep exactly two entries
    monkeypatch.setattr(nets, "CACHE_BYTES", 2 * 800)

    @nets.bytes_lru
    def filled(k):
        return np.full(100, float(k))  # 800 bytes

    failures = []

    def hammer(seed):
        rng = np.random.default_rng(seed)
        try:
            for k in rng.integers(0, 4, 5000).tolist():
                if not np.array_equal(filled(k), np.full(100, float(k))):
                    failures.append(k)
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often to provoke races
    try:
        threads = [threading.Thread(target=hammer, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures
    assert sum(a.nbytes for a in filled.cache.values()) <= nets.CACHE_BYTES
    for k in range(100, 110):
        filled(k)
    assert list(filled.cache) == [(108,), (109,)]


def test_byte_bounded_cache_evicts_oldest_first(monkeypatch):
    monkeypatch.setattr(nets, "CACHE_BYTES", 3 * 800)
    calls = []

    @nets.bytes_lru
    def zeros(k):
        calls.append(k)
        return np.zeros(100)  # 800 bytes

    for k in range(5):
        zeros(k)
    assert list(zeros.cache) == [(2,), (3,), (4,)]
    zeros(2)  # a hit refreshes 2, so 3 is now the oldest
    zeros(5)
    assert list(zeros.cache) == [(4,), (2,), (5,)]
    assert calls == [0, 1, 2, 3, 4, 5]
    zeros(0)  # evicted entries are recomputed
    assert calls[-1] == 0

    # the sign-vector cache holds to the same budget
    budget = 3 * 8 * 8 * 8  # three n = 3 sign vectors
    monkeypatch.setattr(nets, "CACHE_BYTES", budget)
    signs = nets._signs_by_id.cache
    fresh = [i for i in range(5000, 5100) if (3, i) not in signs][:6]
    for net_id in fresh:
        nets._signs_by_id(3, net_id)
        nets._signs_by_id(1, 0)  # refreshed each round, never the oldest
        assert sum(c.nbytes for c in signs.values()) <= budget
    # the newest two stay; the n = 1 vector holds the rest of the budget
    assert [(3, i) in signs for i in fresh] == [False] * 4 + [True] * 2
