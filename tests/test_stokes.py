import warnings

import numpy as np
import pytest

from dwfnet import (
    DensityState,
    StokesVector,
    build_net,
    conjugate_dwf,
    conjugation_matrix,
    dwf_from_rho,
    hadamard_matrix,
    net_context,
    pauli_words,
    random_density,
    spinflip_dwf,
    spinflip_matrix,
    stokes_from_dwf,
    stokes_from_rho,
)
from dwfnet import stokes, translations
from dwfnet.errors import ValidationError
from dwfnet.nets import id_of
from dwfnet.verify import dense_conjugation, dense_hadamard, dense_spinflip

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
Z = np.diag([1.0, -1.0])


def bell_state():
    psi = np.zeros(4)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    return DensityState(2, np.outer(psi, psi))


def test_pauli_words_basics():
    words = pauli_words(2)
    assert pauli_words is translations.pauli_words  # built in one place
    assert words.shape == (16, 4, 4)
    assert np.allclose(words[0], np.eye(4))
    # index j = j1*4 + j2, first qubit most significant
    assert np.allclose(words[1], np.kron(I2, X))
    assert np.allclose(words[4], np.kron(X, I2))
    assert np.allclose(words[9], np.kron(Y, X))


def test_stokes_of_bell_state():
    s = stokes_from_rho(bell_state()).s.real
    expect = np.zeros(16)
    expect[0] = 1.0  # II
    expect[5] = 1.0  # XX
    expect[10] = -1.0  # YY
    expect[15] = 1.0  # ZZ
    assert np.allclose(s, expect, atol=1e-12)


def test_stokes_of_mixed_state():
    s = stokes_from_rho(DensityState(1, np.eye(2) / 2)).s.real
    assert np.allclose(s, [1.0, 0.0, 0.0, 0.0])


def test_hadamard_entries_are_signs():
    for m in [1, 2]:
        ctx = net_context(m)
        for net_id in [0, ctx.net_count - 1]:
            h = hadamard_matrix(build_net(ctx, net_id))
            assert h.h.shape == (4**m, 4**m)
            assert set(np.unique(h.h)) <= {-1, 1}
            # first row is the trace row: all ones
            assert (h.h[0] == 1).all()


def test_hadamard_inverse():
    for m in [1, 2]:
        ctx = net_context(m)
        h = hadamard_matrix(build_net(ctx, 3))
        assert np.allclose((h.h.T / 4**m) @ h.h, np.eye(4**m))
        assert np.allclose(h.h @ h.h.T, 4**m * np.eye(4**m))


def test_hadamard_bridge_matches_direct_dwf():
    rng = np.random.default_rng(5)
    for m in [1, 2]:
        ctx = net_context(m)
        net = build_net(ctx, 2)
        h = hadamard_matrix(net)
        for _ in range(5):
            rho = random_density(m, rng)
            s = stokes_from_rho(rho).s.real
            w = dwf_from_rho(rho, net).w
            assert np.allclose((h.h.T / 4**m) @ s, w, atol=1e-10)
            assert np.allclose(h.h @ w, s, atol=1e-10)


def test_conjugation_matrix_net_independent():
    ctx = net_context(1)
    mats = [conjugation_matrix(build_net(ctx, i)) for i in range(8)]
    for f in mats[1:]:
        assert np.allclose(mats[0], f, atol=1e-12)


def test_conjugation_matrix_is_involution():
    for m in [1, 2]:
        ctx = net_context(m)
        f = conjugation_matrix(build_net(ctx, 1))
        assert np.allclose(f @ f, np.eye(4**m), atol=1e-12)


def test_conjugation_matrix_action():
    # F as a matrix and applied to one DWF, against the dense oracle
    rng = np.random.default_rng(9)
    ctx = net_context(2)
    net = build_net(ctx, 7)
    f, dense = conjugation_matrix(net), dense_conjugation(net)
    for _ in range(5):
        rho = random_density(2, rng)
        w = dwf_from_rho(rho, net)
        wc = dwf_from_rho(DensityState(2, rho.rho.conj()), net).w
        for fw in (f @ w.w, conjugate_dwf(w).w):
            assert np.allclose(fw, wc, atol=1e-10)
            assert np.max(np.abs(fw - dense @ w.w)) < 1e-12


def test_spinflip_matrix_action():
    # G as a matrix and applied to one DWF, against the dense oracle
    rng = np.random.default_rng(13)
    ctx = net_context(2)
    net = build_net(ctx, 7)
    g, dense = spinflip_matrix(net), dense_spinflip(net)
    u = np.kron(Y, Y)
    assert np.allclose(g @ g, np.eye(16), atol=1e-12)
    for _ in range(5):
        rho = random_density(2, rng)
        w = dwf_from_rho(rho, net)
        tilde = u @ rho.rho.conj() @ u.conj().T
        wt = dwf_from_rho(DensityState(2, tilde), net).w
        for gw in (g @ w.w, spinflip_dwf(w).w):
            assert np.allclose(gw, wt, atol=1e-10)
            assert np.max(np.abs(gw - dense @ w.w)) < 1e-12


def test_spinflip_is_row_permutation_of_conjugation():
    ctx = net_context(2)
    net = build_net(ctx, 7)
    f = np.round(conjugation_matrix(net), 12)
    g = np.round(spinflip_matrix(net), 12)
    rows_f = {tuple(row) for row in f}
    rows_g = {tuple(row) for row in g}
    assert rows_f == rows_g


def test_bell_state_spinflip_invariant():
    ctx = net_context(2)
    net = build_net(ctx, 7)
    w = dwf_from_rho(bell_state(), net).w
    g = spinflip_matrix(net)
    assert np.allclose(g @ w, w, atol=1e-10)


def test_hadamard_matches_dense_oracle_at_four_qubits():
    ctx = net_context(4)
    rng = np.random.default_rng(41)
    for _ in range(3):
        digits = [int(d) for d in rng.integers(0, ctx.order, ctx.order + 1)]
        net = build_net(ctx, id_of(digits, ctx.order))
        assert np.array_equal(hadamard_matrix(net).h, dense_hadamard(net))


def test_conjugation_and_spinflip_match_dense_definitions():
    rng = np.random.default_rng(43)
    for m in [1, 2, 3]:
        ctx = net_context(m)
        for net_id in [0, ctx.net_count - 1, int(rng.integers(ctx.net_count))]:
            net = build_net(ctx, net_id)
            assert np.array_equal(conjugation_matrix(net), dense_conjugation(net))
            assert np.array_equal(spinflip_matrix(net), dense_spinflip(net))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_stokes_from_dwf_is_h_times_w(n):
    rng = np.random.default_rng(60 + n)
    order = 2**n
    net = build_net(net_context(n), id_of([int(d) for d in rng.integers(0, order, order + 1)], order))
    state = random_density(n, rng)
    w = dwf_from_rho(state, net)
    s = stokes_from_dwf(w)
    assert s.n == n and not s.s.flags.writeable
    assert np.max(np.abs(s.s - hadamard_matrix(net).h @ w.w)) < 1e-12
    assert np.max(np.abs(s.s - stokes_from_rho(state).s)) < 1e-12


def test_sign_grids_are_the_per_qubit_products():
    # each word's sign under F (conj flips Y) and G (every non-identity factor
    # flips) is a product over its qubits' Pauli digits I, X, Y, Z
    for n in range(1, 6):
        t = translations.xz_tables(n)
        digits = (t.stokes[..., None] >> 2 * np.arange(n)) & 3
        conj, spin = (np.prod(np.array(v, float)[digits], -1) for v in ([1, 1, -1, 1], [1, -1, -1, -1]))
        flip = stokes._flip_signs(n)
        assert not t.wh.flags.writeable
        assert t.wh.tobytes() == conj.tobytes()
        assert flip.dtype == float and flip.tobytes() == spin.tobytes()
        # the maps multiply a DWF's Stokes grid by exactly these grids
        rng = np.random.default_rng(80 + n)
        net = build_net(net_context(n), id_of([int(d) for d in rng.integers(0, 2**n, 2**n + 1)], 2**n))
        w = dwf_from_rho(random_density(n, rng), net)
        assert conjugate_dwf(w)._stokes.tobytes() == (w._stokes * t.wh).tobytes()
        assert spinflip_dwf(w)._stokes.tobytes() == (w._stokes * flip).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stokes_vector_rejects_non_finite_entries(bad):
    with pytest.raises(ValidationError, match='field "s" has a non-finite entry'):
        StokesVector(1, [1.0, bad, 0.0, 0.0])
    # finite entries whose sum overflows are accepted without any warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert StokesVector(1, [1e308, 1e308, 0.0, 0.0]).s[0] == 1e308
