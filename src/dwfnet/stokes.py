"""Generalized Stokes vectors and the net-dependent Hadamard bridge S = H W.

Component j of a Stokes vector belongs to Pauli word j in the index
convention of `translations.pauli_words` (first qubit most significant).

Stokes components carry no 1/2^n prefactor: s_j = Tr(rho Sigma_j).  Under
this convention H has pure +-1 entries, H^{-1} = H^T / N^2, and the
subsystem selection matrices T_k of the reduction formula
(`verify.selection_matrix`) are plain 0/1 matrices.  A 1/2^n rescaling recovers the normalized convention.

`stokes_from_rho` is `translations.pauli_grid` in Stokes order and
`stokes_from_dwf` is S = H W, both read off the value's memoised,
net-independent Stokes grid; H = diag(c) K lives in `nets` (re-exported
here).  F and G are K^T diag(y) K / N^2 with y the sign each word picks up
under complex conjugation (F) or the spin flip (G), the same for every net
and cached per size: `conjugate_dwf` and `spinflip_dwf` multiply the DWF's
S by y and map back to its net with `wigner._dwf_on`, the `_matrix`
functions build them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import ValidationError
from .ffield import check_degree
# HadamardMatrix, hadamard_matrix and pauli_words are re-exported here
from .nets import HadamardMatrix, QuantumNet, hadamard_matrix
from .translations import CONJ_SIGNS, _xz_tables, pauli_words
from .wigner import DensityState, WignerFunction, _dwf_on, _field_array, _read_only, _sign_matrix

# per-qubit signs of F and G: conj(sigma_j) = CONJ_SIGNS[j] sigma_j and
# sigma_y conj(sigma_j) sigma_y = -sigma_j for j > 0
_MAP_SIGNS = {"F": CONJ_SIGNS, "G": np.array([1, -1, -1, -1])}


@dataclass(frozen=True, eq=False)
class StokesVector:
    n: int
    s: np.ndarray

    def __post_init__(self):
        check_degree(self.n)
        self._settle(_field_array(self.s, "s", float))

    @classmethod
    def _built(cls, n: int, s: np.ndarray) -> StokesVector:
        """The vector of a library-built array for a checked n, without a copy."""
        vec = object.__new__(cls)
        object.__setattr__(vec, "n", n)
        vec._settle(s)
        return vec

    def _settle(self, s: np.ndarray) -> None:
        size = 4**self.n
        if s.shape != (size,):
            raise ValidationError(f"s must have length {size} for n={self.n}")
        # no sum rule to borrow, so the entries are screened themselves: a
        # finite vector whose sum overflows is still a valid Stokes vector
        if not np.isfinite(s).all():
            raise ValidationError('field "s" has a non-finite entry')
        object.__setattr__(self, "s", _read_only(s))


def stokes_from_rho(state: DensityState) -> StokesVector:
    """s_j = Tr(rho Sigma_j); s[0] = 1 for unit-trace inputs."""
    # the cells are a permutation of the grid, so the state's memoised
    # max |Im P| is the largest residue among the components
    if state._imag_max > 1e-10:
        raise ValidationError("Stokes components carry imaginary residue")
    return StokesVector._built(state.n, state._pauli.real.ravel()[_xz_tables(state.n).cells])


def stokes_from_dwf(w: WignerFunction) -> StokesVector:
    """S = H W, read from the DWF's memoised Stokes grid without H."""
    return StokesVector._built(w.n, w._stokes.ravel()[_xz_tables(w.n).cells])


@lru_cache(maxsize=16)
def _word_signs(n: int, which: str) -> np.ndarray:
    """The read-only Stokes grid y[x, z] of F or G: the product of each
    word's per-qubit signs, built once per size and map."""
    y = reduce(np.multiply.outer, [_MAP_SIGNS[which]] * n).ravel()[_xz_tables(n).stokes]
    return _read_only(y)


def conjugation_matrix(net: QuantumNet) -> np.ndarray:
    """F with F W(rho) = W(conj(rho)); F[b, a] = Tr(conj(A_b) A_a) / N.

    F is real, satisfies F @ F = I, and is the same matrix for every net of
    a given size.
    """
    return _sign_matrix(_word_signs(net.n_qubits, "F"))


def spinflip_matrix(net: QuantumNet) -> np.ndarray:
    """G with G W(rho) = W(sigma_y^(xn) conj(rho) sigma_y^(xn)).

    G is F with rows permuted by the phase-space translation whose operator
    is sigma_y^(xn) up to phase.
    """
    return _sign_matrix(_word_signs(net.n_qubits, "G"))


def conjugate_dwf(w: WignerFunction) -> WignerFunction:
    """F W: the DWF of conj(rho) on the same net, without building F."""
    return _dwf_on(w.net_id, w._stokes * _word_signs(w.n, "F"))


def spinflip_dwf(w: WignerFunction) -> WignerFunction:
    """G W: the spin-flipped state's DWF on the same net, without building G."""
    return _dwf_on(w.net_id, w._stokes * _word_signs(w.n, "G"))
