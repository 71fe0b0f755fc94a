"""Each value computes its net-independent Stokes grid once and is checked
the same way whether a caller or the library built it.

`DensityState` memoises its Stokes grid, the real part of its Pauli grid,
and `WignerFunction` its Stokes grid S = H W, both read-only.  A DWF a
transform builds keeps the grid it was built from (for `dwf_from_rho`, the
state's grid); a caller-built DWF derives S = c (K W) from W.  Every transform
reading them must give, bit for bit, what the formula written directly
with `pauli_grid`, `_to_stokes`, `_from_stokes` and `operator_from_grid`
gives, and what the same formulas give written in complex arithmetic with
the unscaled Walsh-Hadamard matrix.
"""

import warnings
from collections import Counter

import numpy as np
import pytest

from dwfnet import (
    DensityState,
    KeepSet,
    StokesVector,
    WignerFunction,
    build_net,
    conjugate_dwf,
    convert_net,
    dwf_from_rho,
    hadamard_matrix,
    net_context,
    random_density,
    random_pure,
    reduce_dwf,
    reduction_map,
    rho_from_dwf,
    spinflip_dwf,
    stokes_from_dwf,
    stokes_from_rho,
    wigner,
)
from dwfnet.errors import ValidationError
from dwfnet.reduction import _kept_cells
from dwfnet.translations import operator_from_grid, pauli_grid, xz_tables
from dwfnet.wigner import _dwf_on, _from_stokes, _to_stokes
from helpers import random_net, same_bits
from library_built import library_built


def sign_grid(net):
    """The net's sign vector c as a grid [x, z], read off H's first column."""
    return hadamard_matrix(net).h[:, 0][xz_tables(net.n_qubits).stokes]


def word_signs(n, single):
    """The product of each word's per-qubit signs, as a grid [x, z]."""
    digits = (xz_tables(n).stokes[..., None] >> 2 * np.arange(n)[::-1]) & 3
    return np.prod(np.asarray(single)[digits], axis=-1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_transforms_equal_the_direct_formulas(n):
    rng = np.random.default_rng(400 + n)
    net, other = random_net(n, rng), random_net(n, rng)
    c, c_other = sign_grid(net), sign_grid(other)
    keep = KeepSet(n, tuple(range(0, n, 2)))
    target = random_net(keep.k, np.random.default_rng(500 + n))
    rmap = reduction_map(net, target, keep)
    words = _kept_cells(n, keep.keep)
    y = sign_grid(target) * c.ravel()[words]
    for state in (random_pure(n, rng), random_density(n, rng)):
        vals = pauli_grid(state.rho, n).ravel()[xz_tables(n).cells]
        assert same_bits(stokes_from_rho(state).s, vals.real)
        w = dwf_from_rho(state, net)
        assert same_bits(w.w, _from_stokes(pauli_grid(state.rho, n) * c, n).real)
        assert same_bits(WignerFunction(n, net.net_id, w.w)._stokes, _to_stokes(w.w, n) * c)
        ks = np.ascontiguousarray(pauli_grid(state.rho, n).real) * c  # K W = c S
        assert same_bits(rho_from_dwf(w, net).rho, operator_from_grid(ks * c, n))
        assert same_bits(convert_net(w, other).w, _from_stokes(ks * (c * c_other), n))
        assert same_bits(conjugate_dwf(w).w, _from_stokes(ks * word_signs(n, [1, 1, -1, 1]), n))
        assert same_bits(spinflip_dwf(w).w, _from_stokes(ks * word_signs(n, [1, -1, -1, -1]), n))
        assert same_bits(reduce_dwf(w, rmap).w, _from_stokes(ks.ravel()[words] * y, keep.k))


def complex_from_stokes(s, n):
    """K^T S / N^2 written with the unscaled WH and a division, for any dtype."""
    wh = xz_tables(n).wh
    return (wh @ s @ wh).ravel()[net_context(n).table.grid] / 4**n


def complex_operator(s, n):
    """sum_j s_j Sigma_j / N written as one complex product M and a division,
    reading rho[b, a] = M[a ^ b, a] at every cell."""
    t = xz_tables(n)
    b, a = np.indices(s.shape)
    return ((t.phase * s) @ t.wh)[a ^ b, a] / 2**n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_real_kernels_match_the_complex_formulas(n):
    # the real kernels pre-scale WH by 1 / N and split complex products into
    # real ones; both are exact, so every output keeps its bits
    rng = np.random.default_rng(600 + n)
    net, other = random_net(n, rng), random_net(n, rng)
    c, c_other = sign_grid(net), sign_grid(other)
    keep = KeepSet(n, tuple(range(n - 1, -1, -2))[::-1])
    target = random_net(keep.k, np.random.default_rng(700 + n))
    rmap = reduction_map(net, target, keep)
    words = _kept_cells(n, keep.keep)
    y = sign_grid(target) * c.ravel()[words]
    wh, grid = xz_tables(n).wh, net_context(n).table.grid
    for state in (random_pure(n, rng), random_density(n, rng)):
        w = dwf_from_rho(state, net)
        assert same_bits(w.w, complex_from_stokes(pauli_grid(state.rho, n) * c, n).real)
        w_grid = np.zeros(4**n)
        w_grid[grid] = w.w
        caller_built = WignerFunction(n, net.net_id, w.w)._stokes
        assert same_bits(caller_built, (wh @ w_grid.reshape(wh.shape) @ wh) * c)
        ks = np.ascontiguousarray(pauli_grid(state.rho, n).real) * c  # K W = c S
        assert same_bits(rho_from_dwf(w, net).rho, complex_operator(ks * c, n))
        assert same_bits(convert_net(w, other).w, complex_from_stokes(ks * (c * c_other), n))
        conj, flip = word_signs(n, [1, 1, -1, 1]), word_signs(n, [1, -1, -1, -1])
        assert same_bits(conjugate_dwf(w).w, complex_from_stokes(ks * conj, n))
        assert same_bits(spinflip_dwf(w).w, complex_from_stokes(ks * flip, n))
        reduced = complex_from_stokes(ks.ravel()[words] * y, keep.k)
        assert same_bits(reduce_dwf(w, rmap).w, reduced)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_dwf_memo_is_the_net_independent_stokes_grid(n):
    # a DWF memoises S = H W, the same grid for one state on any net: read in
    # Stokes order it is `stokes_from_dwf` and the dense H W
    rng = np.random.default_rng(900 + n)
    state = random_density(n, rng)
    nets = [random_net(n, rng) for _ in range(2)]
    dwfs = [dwf_from_rho(state, net) for net in nets]
    assert np.max(np.abs(dwfs[0]._stokes - dwfs[1]._stokes)) < 1e-12
    cells = xz_tables(n).cells
    for w, net in zip(dwfs, nets):
        s = w._stokes.ravel()[cells]
        assert same_bits(s, stokes_from_dwf(w).s)
        assert np.max(np.abs(s - hadamard_matrix(net).h @ w.w)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_library_built_dwfs_keep_exact_identities(n):
    # a library-built DWF carries the grid it was built from, so its S, a net
    # round trip, its rho and its reductions do not depend on the nets it
    # passed through
    rng = np.random.default_rng(1000 + n)
    a, b = random_net(n, rng), random_net(n, rng)
    keep = KeepSet(n, tuple(range(n - 1, -1, -2))[::-1])
    target = random_net(keep.k, rng)
    for state in (random_pure(n, rng), random_density(n, rng), random_pure(n, rng),
                  random_density(n, rng)):
        w = dwf_from_rho(state, a)
        assert same_bits(stokes_from_dwf(w).s, stokes_from_rho(state).s)
        assert same_bits(convert_net(convert_net(w, b), a).w, w.w)
        assert same_bits(rho_from_dwf(w, a).rho, rho_from_dwf(dwf_from_rho(state, b), b).rho)
        direct = reduce_dwf(w, reduction_map(a, target, keep))
        via_b = reduce_dwf(convert_net(w, b), reduction_map(b, target, keep))
        assert same_bits(via_b.w, direct.w)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_dwfs_of_a_state_share_its_real_plane(n):
    # one contiguous copy of Re P per state is the S of each of its DWFs and
    # of their net conversions, and every transform output is a DWF the
    # public constructor accepts with the same bits
    rng = np.random.default_rng(2200 + n)
    a, b = random_net(n, rng), random_net(n, rng)
    keep = KeepSet(n, tuple(range(0, n, 2)))
    target = random_net(keep.k, rng)
    for state in (random_pure(n, rng), random_density(n, rng), random_density(n, rng)):
        wa, wb = dwf_from_rho(state, a), dwf_from_rho(state, b)
        assert wa._stokes is wb._stokes is state._stokes
        assert convert_net(wa, b)._stokes is wa._stokes
        assert not state._stokes.flags.writeable and state._stokes.flags.c_contiguous
        assert same_bits(state._stokes, pauli_grid(state.rho, n).real)
        outputs = [(wa, n, a.net_id), (wb, n, b.net_id), (convert_net(wa, b), n, b.net_id),
                   (reduce_dwf(wb, reduction_map(b, target, keep)), keep.k, target.net_id),
                   (conjugate_dwf(wa), n, a.net_id), (spinflip_dwf(wb), n, b.net_id)]
        for w, size, net_id in outputs:
            assert type(w) is WignerFunction and (w.n, w.net_id) == (size, net_id)
            assert not w.w.flags.writeable and not w._stokes.flags.writeable
            assert same_bits(WignerFunction(w.n, w.net_id, w.w).w, w.w)


def test_dwf_on_keeps_the_id_and_sum_checks():
    # `_dwf_on` skips only the length test, which its grid's shape decides
    grid = np.zeros((4, 4))
    grid[0, 0] = 1.0
    assert same_bits(_dwf_on(0, grid).w, np.full(16, 1 / 16))
    with pytest.raises(ValidationError, match=r"out of range \[0, 1024\)"):
        _dwf_on(1024, grid)
    with pytest.raises(ValidationError, match="Wigner function sums to 2.0, not 1"):
        _dwf_on(0, 2 * grid)
    with pytest.raises(ValidationError, match='field "w" has a non-finite entry'):
        _dwf_on(0, np.full((4, 4), np.nan))


def test_memos_are_read_only_and_computed_once(monkeypatch):
    calls = Counter()

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(wigner, "pauli_grid", counted("pauli_grid", wigner.pauli_grid))
    monkeypatch.setattr(wigner, "_to_stokes", counted("_to_stokes", wigner._to_stokes))
    rng = np.random.default_rng(11)
    nets = [random_net(3, rng) for _ in range(3)]
    state = random_density(3, rng)
    rmap = reduction_map(nets[0], random_net(2, rng), KeepSet(3, (0, 2)))
    stokes_from_rho(state)
    dwfs = [dwf_from_rho(state, net) for net in nets]
    assert calls == {"pauli_grid": 1}
    assert state._stokes is state._stokes and not state._stokes.flags.writeable
    w = dwfs[0]
    rho_from_dwf(w, nets[0])
    convert_net(w, nets[1])
    conjugate_dwf(w)
    spinflip_dwf(w)
    stokes_from_dwf(w)
    reduce_dwf(w, rmap)
    reduce_dwf(w, rmap)
    reduce_dwf(convert_net(convert_net(w, nets[2]), nets[0]), rmap)
    # every library-built DWF carries the grid it was built from
    assert calls == {"pauli_grid": 1}
    assert w._stokes is w._stokes and not w._stokes.flags.writeable
    assert w._stokes.flags.c_contiguous
    # a caller-built DWF derives S from W once, however often it is mapped
    caller_built = WignerFunction(3, nets[0].net_id, w.w)
    convert_net(caller_built, nets[1])
    reduce_dwf(caller_built, rmap)
    assert calls == {"pauli_grid": 1, "_to_stokes": 1}
    assert not caller_built._stokes.flags.writeable


def test_library_built_values_are_read_only():
    rng = np.random.default_rng(12)
    net, other = random_net(2, rng), random_net(2, rng)
    state = random_pure(2, rng)
    w = dwf_from_rho(state, net)
    built = [state.rho, w.w, rho_from_dwf(w, net).rho, convert_net(w, other).w,
             conjugate_dwf(w).w, spinflip_dwf(w).w, stokes_from_rho(state).s,
             stokes_from_dwf(w).s]
    assert not any(a.flags.writeable for a in built)


def test_library_built_values_are_checked():
    # `_settle` on the array alone, as the library once built values: every
    # rule runs without the public constructor's copy and norm screen
    with pytest.raises(ValidationError, match="Wigner function sums to 2.0, not 1"):
        library_built(WignerFunction, 1, 0, np.full(4, 0.5))
    with pytest.raises(ValidationError, match="non-finite entry"):
        library_built(WignerFunction, 1, 0, np.array([np.nan, 0.5, 0.25, 0.25]))
    with pytest.raises(ValidationError, match=r"out of range \[0, 1024\)"):
        library_built(WignerFunction, 2, 1024, np.full(16, 1 / 16))
    with pytest.raises(ValidationError, match="w must have length 4"):
        library_built(WignerFunction, 1, 0, np.ones(1))
    with pytest.raises(ValidationError, match="not Hermitian"):
        library_built(DensityState, 1, np.array([[0.5, 0.5j], [0.5j, 0.5]]))
    with pytest.raises(ValidationError, match="rho has trace 2.0, not 1"):
        library_built(DensityState, 1, np.eye(2, dtype=complex))
    with pytest.raises(ValidationError, match="non-finite entry"):
        library_built(DensityState, 1, np.array([[np.nan, 0], [0, 1]], dtype=complex))
    with pytest.raises(ValidationError, match="rho must be 2x2"):
        library_built(DensityState, 1, np.eye(4, dtype=complex) / 4)
    with pytest.raises(ValidationError, match="s must have length 4"):
        library_built(StokesVector, 1, np.ones(16))


def test_non_psd_dwf_still_warns():
    net = build_net(net_context(1), 0)
    w = WignerFunction(1, 0, np.array([0.75, 0.75, -0.25, -0.25]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rho_from_dwf(w, net)
        DensityState(1, np.diag([1.5, -0.5]))
    messages = [str(c.message) for c in caught]
    assert len(messages) == 2 and all("negative eigenvalue -5.000e-01" in m for m in messages)
    # both point at the line that called the library
    assert {c.filename for c in caught} == {__file__}


def test_overflowing_cholesky_factor_still_warns():
    # rho is finite, Hermitian and of unit trace with eigenvalues +-1.41e150;
    # its Cholesky factor overflows to NaN instead of failing.  The public
    # constructor refuses so large a DWF, so it enters as a library-built one
    net = build_net(net_context(1), 0)
    w = library_built(WignerFunction, 1, 0, np.array([1e150, -1e150, 1.0, 0.0]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rho = rho_from_dwf(w, net).rho
    assert np.isfinite(rho).all()
    assert any("negative eigenvalue -1.414e+150" in str(c.message) for c in caught)
