"""Transforms between density matrices and discrete Wigner functions.

The Wigner value at point alpha is (1/N) Tr(rho A_alpha) for the net's
point operator A_alpha; the inverse is rho = sum_alpha w_alpha A_alpha.
Both are linear and well defined on any Hermitian unit-trace operator, so
positivity violations only warn.

Both run through Stokes space in the (x, z) mask layout of
`translations.xz_tables` on the net's sign vector c, H = diag(c) K, with
point alpha at [z_alpha, x_alpha] of an N x N grid: K W = WH W_grid WH
(`_to_stokes`) and K^T S / N^2 = (WH / N) S (WH / N) (`_from_stokes`).  A
DWF memoises its Stokes grid S = H W = c (K W), which does not depend on
the net, and every map of the package acts on S alone: the state's Pauli
grid, S itself for net conversion, S times the net-independent signs of F
or G, or the kept words S[words] of a reduction (T_k).  The net enters
only through `_dwf_on`, the one way back: W = K^T (c S) / N^2.

Every kernel is real float64: the +-1 WH is never cast to complex, and the
1 / N^2 rides exactly in the cached WH / N, so no kernel ends with a
division.  Complex numbers appear only at the rho boundary: `dwf_from_rho`
transforms the real part of the state's Pauli grid (the imaginary part only
when the state's largest imaginary Pauli component reaches the tolerance),
and `rho_from_dwf` fills the two planes of rho from two real products.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import NetMismatchError, ValidationError, check_int
from .ffield import check_degree
from .nets import QuantumNet, _signs_by_id, check_net_id, net_context
from .translations import _xz_tables, operator_from_grid, pauli_grid

HERM_TOL = 1e-10
PSD_TOL = -1e-9


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _field_array(value, key: str, dtype: type) -> np.ndarray:
    """A caller's `value` for field `key` as a fresh `dtype` (float or complex)
    array, refusing ragged or non-numeric input (booleans and numeric strings
    too) and complex input for a real field."""
    try:
        a = np.array(value)
    except ValueError as exc:
        raise ValidationError(f'field "{key}" must be a rectangular array') from exc
    if a.dtype.kind not in ("iufc" if dtype is complex else "iuf"):
        kind = "complex" if dtype is complex else "real"
        raise ValidationError(f'field "{key}" must hold {kind} numbers, not {a.dtype}')
    return a.astype(dtype, copy=False)


def _check_norm(a: np.ndarray, key: str, weight: float) -> None:
    """Refuse finite entries whose Hilbert-Schmidt norm weight * sum |a|^2
    (Tr(rho^2) for a state or a DWF) overflows; below it no transform of the
    value overflows.  Non-finite entries are left to `_settle`."""
    with np.errstate(over="ignore"):
        norm = weight * np.sum(np.abs(a) ** 2)
    if not math.isfinite(norm) and np.isfinite(a).all():
        raise ValidationError(f'field "{key}" is too large: its Hilbert-Schmidt norm overflows')


# Each value type checks its array in `_settle`, the one set of checks for
# the array a caller passes (copied and screened by `_field_array` and
# `_check_norm` first) and for an array the library has just built
# (`_built`, not copied).  The net-independent Stokes grid of a
# value (a state's Pauli grid, a DWF's S) is memoised read-only on first
# use, so a value met by several nets or maps is transformed once.


@dataclass(frozen=True, eq=False)  # array fields: equality and hashing by identity
class DensityState:
    """A validated n-qubit density operator, holding a read-only copy."""

    n: int
    rho: np.ndarray

    def __post_init__(self):
        check_degree(self.n)
        rho = _field_array(self.rho, "rho", complex)
        _check_norm(rho, "rho", 1.0)  # before the eigenvalue test would warn on it
        self._settle(rho)

    @classmethod
    def _built(cls, n: int, rho: np.ndarray) -> DensityState:
        """The state of a library-built rho for a checked n, without a copy."""
        state = object.__new__(cls)
        object.__setattr__(state, "n", n)
        state._settle(rho)
        return state

    def _settle(self, rho: np.ndarray) -> None:
        dim = 2**self.n
        if rho.shape != (dim, dim):
            raise ValidationError(f"rho must be {dim}x{dim} for n={self.n}")
        # a non-finite entry leaves the Hermitian residual non-finite, so
        # only then are the entries themselves scanned
        residual = np.abs(rho - rho.conj().T).max()
        if not math.isfinite(residual) and not np.isfinite(rho).all():
            raise ValidationError('field "rho" has a non-finite entry')
        if residual > HERM_TOL:
            raise ValidationError("rho is not Hermitian")
        trace = rho.trace().real
        if abs(trace - 1.0) > 1e-8:
            raise ValidationError(f"rho has trace {float(trace)}, not 1")
        # rho - PSD_TOL I has a finite Cholesky factor when no eigenvalue of
        # rho lies below PSD_TOL, so only a failure needs the eigenvalues;
        # a factor that overflowed to inf or NaN counts as a failure
        shifted = rho.copy()
        shifted.ravel()[:: dim + 1] -= PSD_TOL
        try:
            factored = cmath.isfinite(np.linalg.cholesky(shifted).sum())
        except np.linalg.LinAlgError:
            factored = False
        if not factored:
            smallest = float(np.linalg.eigvalsh(rho)[0])
            if smallest < PSD_TOL:
                # level 4: the caller of the constructor or of `_built`'s caller
                warnings.warn(
                    f"rho has negative eigenvalue {smallest:.3e}; transforms "
                    "remain well defined on Hermitian inputs",
                    stacklevel=4,
                )
        object.__setattr__(self, "rho", _read_only(rho))

    @cached_property
    def _pauli(self) -> np.ndarray:
        """Tr(rho Sigma) as the read-only grid [x, z] of `pauli_grid`."""
        return _read_only(pauli_grid(self.rho, self.n))

    @cached_property
    def _imag_max(self) -> float:
        """max |Im P|, which bounds |Im W| on every net and decides the
        residue test of `stokes_from_rho`."""
        return float(np.abs(self._pauli.imag).max())


@dataclass(frozen=True, eq=False)
class WignerFunction:
    """A read-only copy of a length-N^2 real Wigner vector, tagged with its net."""

    n: int
    net_id: int
    w: np.ndarray

    def __post_init__(self):
        check_degree(self.n)
        self._settle(_field_array(self.w, "w", float))
        _check_norm(self.w, "w", self.order)  # after the sum rule, which names an overflowing sum

    @classmethod
    def _built(cls, n: int, net_id: int, w: np.ndarray) -> WignerFunction:
        """The DWF of a library-built vector for a checked n, without a copy."""
        dwf = object.__new__(cls)
        object.__setattr__(dwf, "n", n)
        object.__setattr__(dwf, "net_id", net_id)
        dwf._settle(w)
        return dwf

    def _settle(self, w: np.ndarray) -> None:
        size = 4**self.n
        if w.shape != (size,):
            raise ValidationError(f"w must have length {size} for n={self.n}")
        total = w.sum()
        if not math.isfinite(total) and not np.isfinite(w).all():
            raise ValidationError('field "w" has a non-finite entry')
        if abs(total - 1.0) > 1e-8:
            raise ValidationError(f"Wigner function sums to {float(total)}, not 1")
        check_net_id(self.net_id, 2**self.n)
        object.__setattr__(self, "w", _read_only(w))

    @cached_property
    def _stokes(self) -> np.ndarray:
        """S = H W = c (K W), the state's net-independent Stokes grid [x, z], read-only."""
        return _read_only(_to_stokes(self.w, self.n) * _signs_by_id(self.n, self.net_id))

    @property
    def order(self) -> int:
        return 2**self.n


@lru_cache(maxsize=8)
def _layout(n: int) -> tuple:
    """WH, WH / 2^n, each point's flat [z, x] grid cell and the point at each cell."""
    t, grid = _xz_tables(n), net_context(n).table.grid
    return t.wh, t.half, grid, np.argsort(grid)


def _from_stokes(s: np.ndarray, n: int) -> np.ndarray:
    """K^T S / N^2 = (WH s WH)[z_alpha, x_alpha] / N^2 for the grid s[x, z],
    with the 1 / N^2 carried exactly by the pre-scaled WH / N on each side."""
    _, half, grid, _ = _layout(n)
    return (half @ s @ half).ravel()[grid]


def _to_stokes(w: np.ndarray, n: int) -> np.ndarray:
    """K W = WH W_grid WH, W_grid[z_alpha, x_alpha] = w_alpha, as a grid [x, z]."""
    wh, _, _, points = _layout(n)
    return wh @ w[points].reshape(wh.shape) @ wh


def _dwf_on(net_id: int, s: np.ndarray) -> WignerFunction:
    """The DWF on net `net_id` of the real k-qubit Stokes grid s[x, z]:
    W = H^T S / 4^k = K^T (c S) / 4^k, k read off s's shape."""
    k = len(s).bit_length() - 1
    return WignerFunction._built(k, net_id, _from_stokes(s * _signs_by_id(k, net_id), k))


def _sign_matrix(y: np.ndarray) -> np.ndarray:
    """The dense matrix D = K^T diag(y) K / N^2 of a Stokes-diagonal map
    with +-1 grid y[x, z], such as F or G.
    K's columns are characters of the XOR group of (x, z) masks, so
    D[beta, alpha] = D[beta ^ alpha, 0] = (K^T y)[beta ^ alpha] / N^2."""
    n = len(y).bit_length() - 1
    _, half, grid, _ = _layout(n)
    column = (half @ y @ half).ravel()  # `_from_stokes(y)` on the grid
    return column[grid[:, None] ^ grid]


def dwf_from_rho(state: DensityState, net: QuantumNet) -> WignerFunction:
    """w_alpha = (1/N) Tr(rho A_alpha)."""
    if state.n != net.n_qubits:
        raise ValidationError(
            f"state has n={state.n} but net is for n={net.n_qubits}"
        )
    pauli = state._pauli
    # H's entries are +-1, so |Im W| <= sum |Im P| / 4^n <= max |Im P|; below
    # half the tolerance no rounding can lift a value past it, and only the
    # other states transform Im P to decide
    if state._imag_max > HERM_TOL / 2:
        c = _signs_by_id(state.n, net.net_id)
        if np.max(np.abs(_from_stokes(pauli.imag * c, state.n))) > HERM_TOL:
            raise ValidationError("Wigner values carry imaginary residue; input not Hermitian")
    return _dwf_on(net.net_id, pauli.real)


def rho_from_dwf(w: WignerFunction, net: QuantumNet) -> DensityState:
    """rho = sum_alpha w_alpha A_alpha; inverse of dwf_from_rho."""
    if w.n != net.n_qubits or w.net_id != net.net_id:
        raise NetMismatchError(
            f"Wigner function (n={w.n}, net {w.net_id}) does not match "
            f"net {net.net_id} (n={net.n_qubits})"
        )
    return DensityState._built(w.n, operator_from_grid(w._stokes, w.n))


def line_probability(w: WignerFunction, line: np.ndarray) -> float:
    """Sum of Wigner values along the line, given as its point indices
    (a row of `PhaseSpace.lines`), = Tr(Q(line) rho)."""
    points = [check_int(alpha, 0, len(w.w), "point index") for alpha in line]
    return float(w.w[points].sum())


def purity_from_dwf(w: WignerFunction) -> float:
    """Tr(rho^2) recovered from the Wigner vector: N * sum w^2."""
    return float(w.order * np.sum(w.w**2))


# -- reproducible random-state oracles ------------------------------------


def random_density(n: int, rng: np.random.Generator) -> DensityState:
    """Ginibre-construction mixed state: G G^dag normalized to unit trace."""
    dim = 2 ** check_degree(n)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return DensityState._built(n, rho / np.trace(rho).real)


def random_pure(n: int, rng: np.random.Generator) -> DensityState:
    dim = 2 ** check_degree(n)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v = v / np.linalg.norm(v)
    return DensityState._built(n, np.outer(v, v.conj()))
