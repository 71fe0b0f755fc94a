"""Generalized Stokes vectors and the net-dependent Hadamard bridge S = H W.

Component j of a Stokes vector belongs to Pauli word j in the index
convention of `translations.pauli_words` (first qubit most significant).

Stokes components carry no 1/2^n prefactor: s_j = Tr(rho Sigma_j).  Under
this convention H has pure +-1 entries, H^{-1} = H^T / N^2, and the
subsystem selection matrices of the reduction engine are plain 0/1
matrices.  A 1/2^n rescaling recovers the normalized convention.

`stokes_from_rho` is `translations.pauli_coefficients`: in the (x, z)
mask layout, where word i^{|x & z|} X^x Z^z sits at [x, z], it is one
gather of rho[a, a ^ x], one N x N product with the Walsh-Hadamard matrix
WH[a, z] = (-1)^{|a & z|} and a phase, with no stack of Pauli words.
H = diag(c) K is exact bookkeeping on the net context's tables, built from
the net's sign vector c and cached by id in `nets` (re-exported here); the
transforms read c alone.  F and G are diagonal sign matrices in Stokes
space, H^T diag(y) H / N^2, with y the sign each word picks up under
complex conjugation (F) or under the spin flip (G).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ValidationError
# HadamardMatrix, hadamard_matrix and pauli_words are re-exported here
from .nets import HadamardMatrix, QuantumNet, hadamard_matrix
from .translations import CONJ_SIGNS, pauli_coefficients, pauli_words
from .wigner import DensityState

# sigma_y conj(sigma_j) sigma_y = _FLIP_SIGNS[j] sigma_j
_FLIP_SIGNS = np.array([1, -1, -1, -1])


@dataclass(frozen=True)
class StokesVector:
    n: int
    s: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        if s.shape != (4**self.n,):
            raise ValidationError(f"s must have length {4 ** self.n} for n={self.n}")
        object.__setattr__(self, "s", s)


def stokes_from_rho(state: DensityState) -> StokesVector:
    """s_j = Tr(rho Sigma_j); s[0] = 1 for unit-trace inputs."""
    vals = pauli_coefficients(state.rho, state.n)
    if np.max(np.abs(vals.imag)) > 1e-10:
        raise ValidationError("Stokes components carry imaginary residue")
    return StokesVector(state.n, vals.real)


def _sandwich(net: QuantumNet, single_signs) -> np.ndarray:
    """H^T diag(y) H / N^2, y the product of the words' per-qubit signs."""
    y = reduce(np.kron, [single_signs] * net.n_qubits)
    h = hadamard_matrix(net).h
    return (h.T * y) @ h / h.shape[0]


def conjugation_matrix(net: QuantumNet) -> np.ndarray:
    """F with F W(rho) = W(conj(rho)); F[b, a] = Tr(conj(A_b) A_a) / N.

    F is real, satisfies F @ F = I, and is the same matrix for every net of
    a given size.
    """
    return _sandwich(net, CONJ_SIGNS)


def spinflip_matrix(net: QuantumNet) -> np.ndarray:
    """G with G W(rho) = W(sigma_y^(xn) conj(rho) sigma_y^(xn)).

    G is F with rows permuted by the phase-space translation whose operator
    is sigma_y^(xn) up to phase.
    """
    return _sandwich(net, _FLIP_SIGNS)
