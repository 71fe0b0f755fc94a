import hashlib

import numpy as np
import pytest

from dwfnet import GF2m, PhaseSpace, net_context
from dwfnet.errors import NonCommutingError
from dwfnet.nets import NetContext
from dwfnet.translations import (
    TranslationTable,
    build_eigensystems,
    operator_from_grid,
    pauli_grid,
    pauli_words,
    xz_tables,
)
from dwfnet.verify import dense_ray_signs

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.diag([1.0, -1.0])


def dagger(a):
    return a.conj().T


def test_single_qubit_operators():
    # point (q, p) has index q * N + p
    mats = net_context(1).table.matrices
    assert np.array_equal(mats[0 * 2 + 0], I2)
    assert np.array_equal(mats[1 * 2 + 0], X)
    assert np.array_equal(mats[0 * 2 + 1], Z)
    assert np.array_equal(mats[1 * 2 + 1], X @ Z)


def test_two_qubit_expansion_uses_dual_basis():
    # q expands in the polynomial basis, p in the trace-dual basis;
    # for GF(4): q=1 -> bits (1,0), dual expansion of p=1 -> bits (0,1)
    mats = net_context(2).table.matrices
    assert np.array_equal(mats[1 * 4 + 1], np.kron(X, Z))
    # q=w -> (0,1) primal; p=w^2 -> (1,0) dual
    assert np.array_equal(mats[2 * 4 + 3], np.kron(Z, X))


def test_labels_and_stokes_indices():
    # label 2x + z per qubit; Stokes digit [I, sigma_z, sigma_x, sigma_y][label]
    table = net_context(2).table
    assert table.labels[1 * 4 + 1].tolist() == [2, 1]  # X (x) Z at (1, 1)
    assert table.pauli[1 * 4 + 1] == 1 * 4 + 3
    assert table.labels[3 * 4 + 2].tolist() == [3, 3]  # XZ (x) XZ at (3, 2)
    assert table.pauli[3 * 4 + 2] == 2 * 4 + 2
    for m in [1, 2, 3]:
        table = net_context(m).table
        n = 2**m
        assert sorted(table.pauli) == list(range(n * n))
        for alpha, t in enumerate(table.matrices):
            word = pauli_words(m)[table.pauli[alpha]]
            ratio = np.trace(word @ t) / n
            assert ratio in (1, -1j, -1, 1j)
            assert np.array_equal(t, ratio * word)


def test_xz_tables_match_translation_words():
    # [x, z] holds i^{|x & z|} X^x Z^z = Sigma_{stokes[x, z]}, the word of
    # the translation with masks (x, z)
    for m in [1, 2, 3]:
        table, t = net_context(m).table, xz_tables(m)
        assert np.array_equal(t.stokes[table.x, table.z], table.pauli)
        assert np.array_equal(t.stokes.ravel()[t.cells], np.arange(4**m))
        words = pauli_words(m)[table.pauli]
        assert np.array_equal(t.phase[table.x, table.z, None, None] * table.matrices, words)
        assert np.array_equal(t.wh @ t.wh, 2**m * np.eye(2**m))
        assert xz_tables(m) is t and not t.wh.flags.writeable


def test_pauli_transform_matches_word_oracle():
    # against the explicit words, on operators that are not Hermitian
    rng = np.random.default_rng(29)
    for m in [1, 2, 3, 4, 5]:
        dim = 2**m
        words = pauli_words(m)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        s = np.einsum("jab,ba->j", words, a)[xz_tables(m).stokes]
        assert np.max(np.abs(pauli_grid(a, m) - s)) < 1e-12
        c = rng.standard_normal(dim * dim) + 1j * rng.standard_normal(dim * dim)
        expected = np.einsum("j,jab->ab", c, words) / dim
        grid = c[xz_tables(m).stokes]
        assert np.max(np.abs(operator_from_grid(grid, m) - expected)) < 1e-12


def test_signs_are_ray_word_eigenvalues():
    # P_d Sigma = signs[d, k] P_d for the k-th non-identity ray word
    for m in [1, 2, 3, 4, 5]:
        ctx = net_context(m)
        es = ctx.eigensystems
        assert es.signs.shape == (ctx.order + 1, ctx.order, ctx.order - 1)
        for s in range(ctx.order + 1):
            words = pauli_words(m)[ctx.table.pauli[es.rays[s, 1:]]]
            for d, p in enumerate(es.states[s]):
                for k, word in enumerate(words):
                    assert np.array_equal(p @ word, es.signs[s, d, k] * p)


def test_table_is_unitary_and_traceless():
    for m in [1, 2]:
        ps = PhaseSpace(GF2m(m))
        n = ps.order
        table = TranslationTable(ps)
        for alpha, t in enumerate(table.matrices):
            assert np.allclose(t @ dagger(t), np.eye(n))
            if alpha != 0:  # the origin
                assert abs(np.trace(t)) < 1e-12


def test_pairwise_orthogonal():
    ps = PhaseSpace(GF2m(2))
    fld = ps.field
    mats = TranslationTable(ps).matrices
    pts = range(len(mats))
    for a in pts:
        for b in pts:
            overlap = np.trace(dagger(mats[a]) @ mats[b])
            want = fld.order if a == b else 0.0
            assert overlap == pytest.approx(want, abs=1e-12)


def test_striation_group_commutes():
    # operators along one ray commute with each other
    for m in [1, 2]:
        ps = PhaseSpace(GF2m(m))
        table = TranslationTable(ps)
        for ray in ps.rays:
            ops = table.matrices[ray]
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
        states = build_eigensystems(ps, TranslationTable(ps)).states
        assert len(states) == n + 1
        for i, sa in enumerate(states):
            for p in sa:
                assert np.trace(p) == pytest.approx(1.0)
            for sb in states[i + 1 :]:
                for pa in sa:
                    for pb in sb:
                        ov = np.trace(pa @ pb).real
                        assert ov == pytest.approx(1.0 / n, abs=1e-10)


def test_eigenstates_invariant_under_ray_translations():
    ps = PhaseSpace(GF2m(2))
    table = TranslationTable(ps)
    for ray, states in zip(ps.rays, build_eigensystems(ps, table).states):
        for t in table.matrices[ray]:
            for p in states:
                assert np.allclose(t @ p @ dagger(t), p)


# striations 0, 1, 2 of one qubit are generated by Z, X and XZ; the +1 (or,
# for XZ with eigenvalues +-i, the +i) eigenstate comes first


def test_single_qubit_z_states():
    z = net_context(1).eigensystems.states[0]
    assert np.array_equal(z, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def test_single_qubit_x_states():
    plus = np.full((2, 2), 0.5)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    x = net_context(1).eigensystems.states[1]
    assert np.array_equal(x, [plus, minus])


def test_single_qubit_xz_states():
    left = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
    right = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    xz = net_context(1).eigensystems.states[2]
    assert np.array_equal(xz, [left, right])
    for p in xz:
        assert np.array_equal(p @ p, p)
        assert np.array_equal(dagger(p), p)


def test_states_resolve_identity():
    # exact rank-one projectors onto a complete orthogonal basis
    for m in [1, 2, 3]:
        ctx = net_context(m)
        eye = np.eye(ctx.order)
        es = ctx.eigensystems
        for s in range(ctx.order + 1):
            assert np.array_equal(es.states[s].sum(axis=0), eye)
            for p in es.states[s]:
                assert np.array_equal(p, dagger(p))
                assert np.array_equal(p @ p, p)
                assert np.trace(p) == 1.0
                for u in ctx.table.matrices[es.rays[s]]:
                    assert np.array_equal(u @ p, p @ u)


def test_states_follow_documented_eigen_order():
    # states ascend lexicographically in the generators' eigenvalue phases,
    # compared as exact quarter turns
    for m in [1, 2, 3, 4, 5]:
        ctx = net_context(m)
        gens = ctx.field.basis
        es = ctx.eigensystems
        for s in range(ctx.order + 1):
            keys = []
            for p in es.states[s]:
                lams = [np.trace(ctx.table.matrices[es.rays[s, g]] @ p) for g in gens]
                assert np.allclose(np.abs(lams), 1.0)
                turns = [np.angle(lam) / (np.pi / 2) for lam in lams]
                assert np.allclose(turns, np.round(turns))
                keys.append(tuple(int(round(t)) % 4 for t in turns))
            assert all(a < b for a, b in zip(keys, keys[1:])), (m, s)


def test_flips_permute_states():
    # T_alpha P_d T_alpha^dag = P_{d ^ flips[alpha]}, exactly
    for m in [1, 2, 3]:
        ctx = net_context(m)
        es = ctx.eigensystems
        for s in range(ctx.order + 1):
            for t, flip in zip(ctx.table.matrices, es.flips[s]):
                for d, p in enumerate(es.states[s]):
                    assert np.array_equal(t @ p @ dagger(t), es.states[s, d ^ flip])


def test_striation_tables_fingerprint():
    # gens, flips and signs as int64, m = 1..5 in order; net ids and every
    # sign vector are read off these tables
    digest = hashlib.sha256()
    for m in [1, 2, 3, 4, 5]:
        es = net_context(m).eigensystems
        n = 2**m
        assert es.gens.shape == (n + 1, m)
        assert es.flips.shape == (n + 1, n * n)
        for table in (es.gens, es.flips, es.signs):
            digest.update(np.ascontiguousarray(table, dtype=np.int64).tobytes())
    assert digest.hexdigest() == (
        "69095f018476b310ae66f9d7d71179a9547fa395163687847362b3238703594f"
    )


def test_misconfigured_duality_raises():
    fld = GF2m(3)
    fld.dual_basis = fld.basis  # break the trace-dual pairing of q and p
    ps = PhaseSpace(fld)
    with pytest.raises(NonCommutingError, match="striation 3 "):
        build_eigensystems(ps, TranslationTable(ps))


def test_dense_oracle_catches_misassigned_ray_words():
    # the dense ray-word traces agree with the mask-derived signs, and stop
    # agreeing once the words are assigned to the wrong points
    ps = PhaseSpace(GF2m(2))
    table = TranslationTable(ps)
    es = build_eigensystems(ps, table)
    dense = dense_ray_signs(es, table)
    for s in range(ps.order + 1):
        assert np.array_equal(dense[s], es.signs[s])
    table.pauli = table.pauli[::-1]
    dense = dense_ray_signs(es, table)
    for s in range(ps.order + 1):
        assert not np.array_equal(dense[s], es.signs[s])


def test_net_context_builds_no_dense_array():
    # signs and flips come from the X/Z masks; states and matrices wait
    # for the first reader
    for m in [3, 4, 5]:
        ctx = NetContext(m)
        assert "matrices" not in vars(ctx.table)
        assert "states" not in vars(ctx.eigensystems)


def test_composition_phase():
    # T_a T_b is T_{a+b} up to a phase of unit modulus
    ps = PhaseSpace(GF2m(2))
    fld = ps.field
    mats = TranslationTable(ps).matrices
    for a in range(len(mats)):
        for b in range(len(mats)):
            prod = mats[a] @ mats[b]
            tsum = mats[a ^ b]  # field addition is XOR of point indices
            ratio = np.trace(dagger(tsum) @ prod) / fld.order
            assert abs(abs(ratio) - 1.0) < 1e-12
            assert np.allclose(prod, ratio * tsum)
