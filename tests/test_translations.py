import numpy as np
import pytest

from dwfnet import GF2m, PhaseSpace, Point, net_context
from dwfnet.errors import NetConstructionError, NonCommutingError
from dwfnet.translations import TranslationTable, build_eigensystems, pauli_words

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.diag([1.0, -1.0])


def dagger(a):
    return a.conj().T


def test_single_qubit_operators():
    table = net_context(1).table
    assert np.array_equal(table[Point(0, 0)], I2)
    assert np.array_equal(table[Point(1, 0)], X)
    assert np.array_equal(table[Point(0, 1)], Z)
    assert np.array_equal(table[Point(1, 1)], X @ Z)


def test_two_qubit_expansion_uses_dual_basis():
    # q expands in the polynomial basis, p in the trace-dual basis;
    # for GF(4): q=1 -> bits (1,0), dual expansion of p=1 -> bits (0,1)
    table = net_context(2).table
    assert np.array_equal(table[Point(1, 1)], np.kron(X, Z))
    # q=w -> (0,1) primal; p=w^2 -> (1,0) dual
    assert np.array_equal(table[Point(2, 3)], np.kron(Z, X))


def test_labels_and_stokes_indices():
    # label 2x + z per qubit; Stokes digit [I, sigma_z, sigma_x, sigma_y][label]
    table = net_context(2).table
    assert table.labels[Point(1, 1).index(4)].tolist() == [2, 1]  # X (x) Z
    assert table.pauli[Point(1, 1).index(4)] == 1 * 4 + 3
    assert table.labels[Point(3, 2).index(4)].tolist() == [3, 3]  # XZ (x) XZ
    assert table.pauli[Point(3, 2).index(4)] == 2 * 4 + 2
    for m in [1, 2, 3]:
        table = net_context(m).table
        n = 2**m
        assert sorted(table.pauli) == list(range(n * n))
        for alpha, t in enumerate(table.matrices):
            word = pauli_words(m)[table.pauli[alpha]]
            ratio = np.trace(word @ t) / n
            assert ratio in (1, -1j, -1, 1j)
            assert np.array_equal(t, ratio * word)


def test_signs_are_ray_word_eigenvalues():
    # P_d Sigma = signs[d, k] P_d for the k-th non-identity ray word
    for m in [1, 2, 3]:
        ctx = net_context(m)
        for es in ctx.eigensystems:
            assert es.signs.shape == (ctx.order, ctx.order - 1)
            words = pauli_words(m)[ctx.table.pauli[es.ray[1:]]]
            for d, p in enumerate(es.states):
                for k, word in enumerate(words):
                    assert np.array_equal(p @ word, es.signs[d, k] * p)


def test_table_is_unitary_and_traceless():
    for m in [1, 2]:
        ps = PhaseSpace(GF2m(m))
        n = ps.order
        table = TranslationTable(ps)
        for pt in ps.points:
            t = table[pt]
            assert np.allclose(t @ dagger(t), np.eye(n))
            if (pt.q, pt.p) != (0, 0):
                assert abs(np.trace(t)) < 1e-12


def test_pairwise_orthogonal():
    ps = PhaseSpace(GF2m(2))
    fld = ps.field
    table = TranslationTable(ps)
    pts = ps.points
    for a in pts:
        for b in pts:
            overlap = np.trace(dagger(table[a]) @ table[b])
            want = fld.order if a == b else 0.0
            assert overlap == pytest.approx(want, abs=1e-12)


def test_striation_group_commutes():
    # operators along one ray commute with each other
    for m in [1, 2]:
        ps = PhaseSpace(GF2m(m))
        table = TranslationTable(ps)
        for st in ps.striations:
            ops = [table[pt] for pt in st.ray.points]
            for a in ops:
                for b in ops:
                    assert np.allclose(a @ b, b @ a)


def test_anticommutes_matches_matrices():
    ps = PhaseSpace(GF2m(2))
    table = TranslationTable(ps)
    for a, ta in enumerate(table.matrices):
        for b, tb in enumerate(table.matrices):
            sign = -1 if table.anticommutes(a, b) else 1
            assert np.array_equal(ta @ tb, sign * tb @ ta)


def test_eigensystems_are_mubs():
    # striation eigenbases are mutually unbiased: |<u|v>|^2 = 1/N
    for m in [1, 2]:
        ps = PhaseSpace(GF2m(m))
        n = ps.order
        systems = build_eigensystems(ps, TranslationTable(ps))
        assert len(systems) == n + 1
        for i, sa in enumerate(systems):
            for p in sa.states:
                assert np.trace(p) == pytest.approx(1.0)
            for sb in systems[i + 1 :]:
                for pa in sa.states:
                    for pb in sb.states:
                        ov = np.trace(pa @ pb).real
                        assert ov == pytest.approx(1.0 / n, abs=1e-10)


def test_eigenstates_invariant_under_ray_translations():
    ps = PhaseSpace(GF2m(2))
    table = TranslationTable(ps)
    for st, system in zip(ps.striations, build_eigensystems(ps, table)):
        for pt in st.ray.points:
            t = table[pt]
            for p in system.states:
                assert np.allclose(t @ p @ dagger(t), p)


# striations 0, 1, 2 of one qubit are generated by Z, X and XZ; the +1 (or,
# for XZ with eigenvalues +-i, the +i) eigenstate comes first


def test_single_qubit_z_states():
    z = net_context(1).eigensystems[0]
    assert np.array_equal(z.states, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def test_single_qubit_x_states():
    plus = np.full((2, 2), 0.5)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    x = net_context(1).eigensystems[1]
    assert np.array_equal(x.states, [plus, minus])


def test_single_qubit_xz_states():
    left = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
    right = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    xz = net_context(1).eigensystems[2]
    assert np.array_equal(xz.states, [left, right])
    for p in xz.states:
        assert np.array_equal(p @ p, p)
        assert np.array_equal(dagger(p), p)


def test_states_resolve_identity():
    # exact rank-one projectors onto a complete orthogonal basis
    for m in [1, 2, 3]:
        ctx = net_context(m)
        eye = np.eye(ctx.order)
        for es in ctx.eigensystems:
            assert np.array_equal(es.states.sum(axis=0), eye)
            for p in es.states:
                assert np.array_equal(p, dagger(p))
                assert np.array_equal(p @ p, p)
                assert np.trace(p) == 1.0
                for u in es.ops:
                    assert np.array_equal(u @ p, p @ u)


def test_states_follow_documented_eigen_order():
    # states ascend lexicographically in the generators' eigenvalue phases,
    # compared as exact quarter turns
    for m in [1, 2, 3, 4, 5]:
        ctx = net_context(m)
        gens = ctx.field.basis
        for es in ctx.eigensystems:
            keys = []
            for p in es.states:
                lams = [np.trace(es.ops[g] @ p) for g in gens]
                assert np.allclose(np.abs(lams), 1.0)
                turns = [np.angle(lam) / (np.pi / 2) for lam in lams]
                assert np.allclose(turns, np.round(turns))
                keys.append(tuple(int(round(t)) % 4 for t in turns))
            assert all(a < b for a, b in zip(keys, keys[1:])), (m, es.striation_id)


def test_flips_permute_states():
    # T_alpha P_d T_alpha^dag = P_{d ^ flips[alpha]}, exactly
    for m in [1, 2, 3]:
        ctx = net_context(m)
        for es in ctx.eigensystems:
            for t, flip in zip(ctx.table.matrices, es.flips):
                for d, p in enumerate(es.states):
                    assert np.array_equal(t @ p @ dagger(t), es.states[d ^ flip])


def test_misconfigured_duality_raises():
    fld = GF2m(3)
    fld.dual_basis = fld.basis  # break the trace-dual pairing of q and p
    ps = PhaseSpace(fld)
    with pytest.raises(NonCommutingError):
        build_eigensystems(ps, TranslationTable(ps))


def test_misassigned_ray_words_raise():
    # ray words whose traces on the states are not +-1 stop the build
    ps = PhaseSpace(GF2m(2))
    table = TranslationTable(ps)
    table.pauli = table.pauli[::-1]
    with pytest.raises(NetConstructionError):
        build_eigensystems(ps, table)


def test_composition_phase():
    # T_a T_b is T_{a+b} up to a phase of unit modulus
    ps = PhaseSpace(GF2m(2))
    fld = ps.field
    table = TranslationTable(ps)
    for a in ps.points:
        for b in ps.points:
            prod = table[a] @ table[b]
            tsum = table[ps.translate_point(a, b)]
            ratio = np.trace(dagger(tsum) @ prod) / fld.order
            assert abs(abs(ratio) - 1.0) < 1e-12
            assert np.allclose(prod, ratio * tsum)
