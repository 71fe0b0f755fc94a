"""Transforms between density matrices and discrete Wigner functions.

The Wigner value at point alpha is (1/N) Tr(rho A_alpha) for the net's
point operator A_alpha; the inverse is rho = sum_alpha w_alpha A_alpha.
Both are linear and well defined on any Hermitian unit-trace operator, so
positivity violations only warn.

Both run through Stokes space and never build a point operator: the
per-qubit Pauli transform gives s_j = Tr(rho Sigma_j), and the net's
cached +-1 Hadamard matrix H[j, alpha] = Tr(Sigma_j A_alpha) gives
W = H^T S / N^2 and S = H W.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NetMismatchError, ValidationError
from .nets import QuantumNet, _hadamard_by_id
from .phasespace import Line
from .translations import operator_from_pauli, pauli_coefficients

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
        smallest = float(np.linalg.eigvalsh(rho)[0])
        if smallest < PSD_TOL:
            warnings.warn(
                f"rho has negative eigenvalue {smallest:.3e}; transforms remain "
                "well defined on Hermitian inputs",
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
        if not np.isfinite(w).all():
            raise ValidationError('field "w" has a non-finite entry')
        if abs(w.sum() - 1.0) > 1e-8:
            raise ValidationError(f"Wigner function sums to {w.sum()!r}, not 1")
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


def dwf_from_rho(state: DensityState, net: QuantumNet) -> WignerFunction:
    """w_alpha = (1/N) Tr(rho A_alpha)."""
    n_order = net.order
    if state.n != net.n_qubits:
        raise ValidationError(
            f"state has n={state.n} but net is for n={net.n_qubits}"
        )
    s = pauli_coefficients(state.rho, state.n)
    h = _hadamard_by_id(net.n_qubits, net.net_id).h
    # real and imaginary parts in one product: W = S^T H / N^2
    real, imag = np.stack((s.real, s.imag)) @ h / n_order**2
    if np.max(np.abs(imag)) > HERM_TOL:
        raise ValidationError("Wigner values carry imaginary residue; input not Hermitian")
    return WignerFunction(state.n, net.net_id, real)


def rho_from_dwf(w: WignerFunction, net: QuantumNet) -> DensityState:
    """rho = sum_alpha w_alpha A_alpha; inverse of dwf_from_rho."""
    _check_net(w, net)
    h = _hadamard_by_id(net.n_qubits, net.net_id).h
    return DensityState(w.n, operator_from_pauli(h @ w.w, w.n))


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
