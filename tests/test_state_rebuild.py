"""A DWF's state is rebuilt Hermitian by construction and checked by the rules
that can still fail.

`operator_from_grid` reads each Hermitian pair of rho from one cell of one
real product, so the rebuilt rho equals its conjugate transpose bit for bit,
and it equals, bit for bit, what the two-product formula (one product per
plane of M, every cell read) gives.  `rho_from_dwf` then runs only the trace
rule and the PSD test, which must decide every grid as the full check
`DensityState._settle` does: the same error, or the same warning pointing at
the same file.
"""

import warnings

import numpy as np
import pytest

from dwfnet import (
    DensityState,
    WignerFunction,
    build_net,
    dwf_from_rho,
    net_context,
    random_density,
    random_pure,
    rho_from_dwf,
)
from dwfnet.errors import ValidationError
from dwfnet.translations import operator_from_grid, xz_tables
from dwfnet.wigner import EPS, PSD_TOL, _state_of
from helpers import random_net, same_bits
from library_built import library_built


def two_product_operator(s, n):
    """sum_j s_j Sigma_j / N with one real product per plane of M and every
    cell read: rho[b, a] = M[a ^ b, a]."""
    t = xz_tables(n)
    re, im = t.planes
    m = np.empty(s.shape, dtype=complex)
    m.real = (re * s) @ t.half
    m.imag = (im * s) @ t.half
    b, a = np.indices(s.shape)
    return m[a ^ b, a]


def near_bound_dwf(n, net_id, rng):
    """A caller-built DWF at 0.9 of the input norm bound: integer entries
    summing to 0, plus 1 at point 0, so the sum is exactly 1."""
    order = 2**n
    d = rng.integers(-1000, 1001, 4**n).astype(float)
    d[-1] -= d.sum()
    limit = 1e-8 / (order**2 * EPS)
    d = np.round(d * 0.9 * limit / np.sqrt(order * np.sum(d**2)))
    d[-1] -= d.sum()
    d[0] += 1.0
    return WignerFunction(n, net_id, d)


def huge_built_dwf(n, net_id, scale, rng):
    """A library-built DWF with entries of size `scale` in pairs +a, -a that
    numpy's pairwise sum cancels exactly (points j and j + 8 for j < 7, or 0
    and 1 at n = 1), plus 1 at the last point, so it passes the sum rule."""
    w = np.zeros(4**n)
    w[-1] = 1.0
    pairs = [(0, 1)] if n == 1 else [(j, j + 8) for j in range(7)]
    for i, j in pairs:
        a = scale * rng.uniform(0.5, 1.0)
        w[i], w[j] = a, -a
    return library_built(WignerFunction, n, net_id, w)


def dwfs(n, rng):
    """Seeded library-built DWFs, caller-built ones near the norm bound,
    built ones up to 1e150, and states with exact zeros in their grids."""
    nets = [random_net(n, rng) for _ in range(3)]
    order = 2**n
    real = random_density(n, rng).rho.real.copy()
    zero = np.zeros((order, order), complex)
    zero[0, 0] = 1.0
    states = [random_pure(n, rng), random_density(n, rng), DensityState(n, real), DensityState(n, zero)]
    for net in nets:
        for state in states:
            w = dwf_from_rho(state, net)
            yield net, w
            yield net, WignerFunction(n, net.net_id, w.w)
        yield net, near_bound_dwf(n, net.net_id, rng)
        for scale in (1e50, 1e100, 1e150):
            yield net, huge_built_dwf(n, net.net_id, scale, rng)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rebuild_is_exact_and_hermitian(n):
    rng = np.random.default_rng(2500 + n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # most grids here are far from PSD
        for net, w in dwfs(n, rng):
            rho = operator_from_grid(w._stokes, n)
            assert same_bits(rho, two_product_operator(w._stokes, n))
            assert np.array_equal(rho, rho.conj().T)
            try:
                back = rho_from_dwf(w, net)
            except ValidationError as exc:
                # the rounding of entries of 1e50 and beyond breaks the trace rule
                assert str(exc).startswith("rho has trace") and np.abs(w.w).max() > 1e40
                continue
            assert same_bits(back.rho, rho)


def outcome(build):
    """The exception a build raises, as (class, message), or the warnings it
    gives, as (text, category, filename)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            build()
        except Exception as exc:
            return type(exc), str(exc)
    return [(str(c.message), c.category, c.filename) for c in caught]


def settled(s, n):
    """The full check of the state built from grid s: shape, Hermitian
    residual, trace and PSD rules.  Its warning points at this line."""
    return library_built(DensityState, n, operator_from_grid(s, n))


def state_with_smallest(n, smallest, rng):
    """A state whose smallest eigenvalue is `smallest`, built by the library."""
    order = 2**n
    q, _ = np.linalg.qr(rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order)))
    values = rng.uniform(0.1, 1.0, order)
    values[0] = 0.0
    values *= (1 - smallest) / values.sum()
    values[0] = smallest
    rho = (q * values) @ q.conj().T
    return library_built(DensityState, n, (rho + rho.conj().T) / 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rebuild_decides_as_the_full_check(n):
    rng = np.random.default_rng(2600 + n)
    net = random_net(n, rng)
    order = 2**n
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        states = [random_pure(n, rng), random_density(n, rng)]
        states += [state_with_smallest(n, e, rng) for e in (-2e-9, -5e-10)]
    decided = []
    for state in states:
        w = dwf_from_rho(state, net)
        new = outcome(lambda: rho_from_dwf(w, net))
        assert new == outcome(lambda: settled(w._stokes, n))
        decided.append(new)
    # -2e-9 and -5e-10 lie either side of PSD_TOL: only the first warns
    assert decided[:2] == [[], []] and decided[3] == []
    assert len(decided[2]) == 1 and "negative eigenvalue -2.000e-09" in decided[2][0][0]
    assert decided[2][0][1] is UserWarning and decided[2][0][2] == __file__
    assert -2e-9 < PSD_TOL < -5e-10

    # through the private path: a grid with a non-finite entry on the
    # diagonal of rho, off it, or at the identity (an infinite trace)
    for cell in [(0, 0), (0, order - 1), (order - 1, 1)]:
        for bad in (np.inf, np.nan):
            s = random_density(n, rng)._stokes.copy()
            s[cell] = bad
            with np.errstate(invalid="ignore", over="ignore"):
                new = outcome(lambda: _state_of(s))
                assert new == outcome(lambda: settled(s, n))
            assert new == (ValidationError, 'field "rho" has a non-finite entry')
    # and one whose rebuilt trace misses 1 by more than 1e-8
    s = random_pure(n, rng)._stokes.copy()
    s[0, 0] += 3e-8
    new = outcome(lambda: _state_of(s))
    assert new == outcome(lambda: settled(s, n))
    assert new[1].startswith("rho has trace 1.0000000") and new[1].endswith(", not 1")


def test_overflowing_factor_decides_as_the_full_check():
    # the DWF of `test_overflowing_cholesky_factor_still_warns`: rho has
    # eigenvalues +-1.41e150 and a Cholesky factor that overflows to NaN
    net = build_net(net_context(1), 0)
    w = library_built(WignerFunction, 1, 0, np.array([1e150, -1e150, 1.0, 0.0]))
    new = outcome(lambda: rho_from_dwf(w, net))
    assert new == outcome(lambda: settled(w._stokes, 1))
    assert new == [
        (
            "rho has negative eigenvalue -1.414e+150; transforms remain well defined on Hermitian inputs",
            UserWarning,
            __file__,
        )
    ]

