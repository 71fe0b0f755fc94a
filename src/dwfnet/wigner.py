"""Transforms between density matrices and discrete Wigner functions.

The Wigner value at point alpha is (1/N) Tr(rho A_alpha) for the net's
point operator A_alpha; the inverse is rho = sum_alpha w_alpha A_alpha.
Both are linear and well defined on any Hermitian unit-trace operator, so
positivity violations only warn.

Both run through Stokes space in the (x, z) mask layout of
`translations.xz_tables` and never build a point operator or the net's
dense Hadamard matrix.  With H = diag(c) K, the net's sign vector c and
the Walsh-Hadamard matrix WH, and point alpha placed at [z_alpha, x_alpha]
of an N x N grid:

    W = H^T S / N^2:  W_grid = WH (S c) WH / N^2   (`_dwf_values`)
    S = H W:          S = (WH W_grid WH) c         (`_stokes_xz`)

so each transform is a gather, two or three N x N products and a product
with c.  Net conversion (`reduction.convert_net`) chains the two halves.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NetMismatchError, ValidationError
from .nets import QuantumNet, _signs_by_id, net_context
from .phasespace import Line
from .translations import operator_from_grid, pauli_grid, xz_tables

HERM_TOL = 1e-10
PSD_TOL = -1e-9


@dataclass(frozen=True)
class DensityState:
    """A validated n-qubit density operator."""

    n: int
    rho: np.ndarray

    def __post_init__(self):
        dim = 2**self.n
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (dim, dim):
            raise ValidationError(f"rho must be {dim}x{dim} for n={self.n}")
        if not np.isfinite(rho).all():
            raise ValidationError('field "rho" has a non-finite entry')
        if np.max(np.abs(rho - rho.conj().T)) > HERM_TOL:
            raise ValidationError("rho is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-8:
            raise ValidationError(f"rho has trace {np.trace(rho).real!r}, not 1")
        # rho - PSD_TOL I has a Cholesky factor when no eigenvalue of rho
        # lies below PSD_TOL, so only a failure needs the eigenvalues
        try:
            np.linalg.cholesky(rho - PSD_TOL * np.eye(dim))
        except np.linalg.LinAlgError:
            smallest = float(np.linalg.eigvalsh(rho)[0])
            if smallest < PSD_TOL:
                warnings.warn(
                    f"rho has negative eigenvalue {smallest:.3e}; transforms "
                    "remain well defined on Hermitian inputs",
                    stacklevel=2,
                )
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class WignerFunction:
    """A length-N^2 real Wigner vector tagged with its net identity."""

    n: int
    net_id: int
    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.shape != (4**self.n,):
            raise ValidationError(f"w must have length {4 ** self.n} for n={self.n}")
        total = w.sum()
        if not math.isfinite(total) and not np.isfinite(w).all():
            raise ValidationError('field "w" has a non-finite entry')
        if abs(total - 1.0) > 1e-8:
            raise ValidationError(f"Wigner function sums to {total!r}, not 1")
        object.__setattr__(self, "w", w)

    @property
    def order(self) -> int:
        return 2**self.n


def _check_net(obj, net: QuantumNet):
    if obj.n != net.n_qubits or obj.net_id != net.net_id:
        raise NetMismatchError(
            f"Wigner function (n={obj.n}, net {obj.net_id}) does not match "
            f"net {net.net_id} (n={net.n_qubits})"
        )


@lru_cache(maxsize=8)
def _layout(n: int) -> tuple:
    """WH and each point's flat [z, x] grid cell: one cached lookup per
    transform half."""
    return xz_tables(n).wh, net_context(n).table.grid


def _dwf_values(s: np.ndarray, n: int, net_id: int) -> np.ndarray:
    """Wigner values on the net of the Stokes grid s[x, z] (see
    `translations.xz_tables`): w_alpha = (WH (s c) WH)[z_alpha, x_alpha] / N^2,
    the product H^T S / N^2 with H = diag(c) K."""
    wh, grid = _layout(n)
    v = wh @ (s * _signs_by_id(n, net_id)) @ wh
    return v.ravel()[grid] / 4**n


def _stokes_xz(w: WignerFunction) -> np.ndarray:
    """The Stokes grid s[x, z] of a DWF: (WH W_grid WH) c with
    W_grid[z_alpha, x_alpha] = w_alpha, the product S = H W."""
    wh, grid = _layout(w.n)
    values = np.empty(4**w.n)
    values[grid] = w.w
    return (wh @ values.reshape(wh.shape) @ wh) * _signs_by_id(w.n, w.net_id)


def dwf_from_rho(state: DensityState, net: QuantumNet) -> WignerFunction:
    """w_alpha = (1/N) Tr(rho A_alpha)."""
    if state.n != net.n_qubits:
        raise ValidationError(
            f"state has n={state.n} but net is for n={net.n_qubits}"
        )
    w = _dwf_values(pauli_grid(state.rho, state.n), state.n, net.net_id)
    if np.max(np.abs(w.imag)) > HERM_TOL:
        raise ValidationError("Wigner values carry imaginary residue; input not Hermitian")
    return WignerFunction(state.n, net.net_id, w.real)


def rho_from_dwf(w: WignerFunction, net: QuantumNet) -> DensityState:
    """rho = sum_alpha w_alpha A_alpha; inverse of dwf_from_rho."""
    _check_net(w, net)
    return DensityState(w.n, operator_from_grid(_stokes_xz(w), w.n))


def line_probability(w: WignerFunction, line: Line) -> float:
    """Sum of Wigner values along the line = Tr(Q(line) rho)."""
    n_order = w.order
    return float(sum(w.w[pt.index(n_order)] for pt in line.points))


def purity_from_dwf(w: WignerFunction) -> float:
    """Tr(rho^2) recovered from the Wigner vector: N * sum w^2."""
    return float(w.order * np.sum(w.w**2))


# -- reproducible random-state oracles ------------------------------------


def random_density(n: int, rng: np.random.Generator) -> DensityState:
    """Ginibre-construction mixed state: G G^dag normalized to unit trace."""
    dim = 2**n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return DensityState(n, rho / np.trace(rho).real)


def random_pure(n: int, rng: np.random.Generator) -> DensityState:
    dim = 2**n
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v = v / np.linalg.norm(v)
    return DensityState(n, np.outer(v, v.conj()))
