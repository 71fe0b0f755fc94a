"""Generalized Stokes vectors and the net-dependent Hadamard bridge S = H W.

Component j of a Stokes vector belongs to Pauli word j in the index
convention of `translations.pauli_words` (first qubit most significant).

Stokes components carry no 1/2^n prefactor: s_j = Tr(rho Sigma_j).  Under
this convention H has pure +-1 entries, H^{-1} = H^T / N^2, and the
subsystem selection matrices of the reduction engine are plain 0/1
matrices.  A 1/2^n rescaling recovers the normalized convention.

`stokes_from_rho` is `translations.pauli_coefficients`, and H = diag(c) K
lives in `nets` (re-exported here).  F and G are K^T diag(y) K / N^2 with
y the sign each word picks up under complex conjugation (F) or the spin
flip (G), the same for every net: `conjugate_dwf` and `spinflip_dwf` apply
them through `wigner._sign_sandwich`, the `_matrix` functions build them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ValidationError
from .ffield import check_degree
# HadamardMatrix, hadamard_matrix and pauli_words are re-exported here
from .nets import HadamardMatrix, QuantumNet, hadamard_matrix
from .translations import CONJ_SIGNS, pauli_coefficients, pauli_words, xz_tables
from .wigner import DensityState, WignerFunction, _sign_matrix, _sign_sandwich

# sigma_y conj(sigma_j) sigma_y = _FLIP_SIGNS[j] sigma_j
_FLIP_SIGNS = np.array([1, -1, -1, -1])


@dataclass(frozen=True)
class StokesVector:
    n: int
    s: np.ndarray

    def __post_init__(self):
        size = 4 ** check_degree(self.n)
        s = np.array(self.s, dtype=float)
        if s.shape != (size,):
            raise ValidationError(f"s must have length {size} for n={self.n}")
        s.flags.writeable = False
        object.__setattr__(self, "s", s)


def stokes_from_rho(state: DensityState) -> StokesVector:
    """s_j = Tr(rho Sigma_j); s[0] = 1 for unit-trace inputs."""
    vals = pauli_coefficients(state.rho, state.n)
    if np.max(np.abs(vals.imag)) > 1e-10:
        raise ValidationError("Stokes components carry imaginary residue")
    return StokesVector(state.n, vals.real)


def _word_signs(n: int, single_signs) -> np.ndarray:
    """The Stokes grid y[x, z] of the product of each word's per-qubit signs."""
    return reduce(np.multiply.outer, [single_signs] * n).ravel()[xz_tables(n).stokes]


def conjugation_matrix(net: QuantumNet) -> np.ndarray:
    """F with F W(rho) = W(conj(rho)); F[b, a] = Tr(conj(A_b) A_a) / N.

    F is real, satisfies F @ F = I, and is the same matrix for every net of
    a given size.
    """
    return _sign_matrix(_word_signs(net.n_qubits, CONJ_SIGNS))


def spinflip_matrix(net: QuantumNet) -> np.ndarray:
    """G with G W(rho) = W(sigma_y^(xn) conj(rho) sigma_y^(xn)).

    G is F with rows permuted by the phase-space translation whose operator
    is sigma_y^(xn) up to phase.
    """
    return _sign_matrix(_word_signs(net.n_qubits, _FLIP_SIGNS))


def conjugate_dwf(w: WignerFunction) -> WignerFunction:
    """F W: the DWF of conj(rho) on the same net, without building F."""
    y = _word_signs(w.n, CONJ_SIGNS)
    return WignerFunction(w.n, w.net_id, _sign_sandwich(w.w, y))


def spinflip_dwf(w: WignerFunction) -> WignerFunction:
    """G W: the spin-flipped state's DWF on the same net, without building G."""
    y = _word_signs(w.n, _FLIP_SIGNS)
    return WignerFunction(w.n, w.net_id, _sign_sandwich(w.w, y))
