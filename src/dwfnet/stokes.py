"""Generalized Stokes vectors and the net-dependent Hadamard bridge S = H W.

Component j of a Stokes vector belongs to Pauli word j in the index
convention of `translations.pauli_words` (first qubit most significant).

Stokes components carry no 1/2^n prefactor: s_j = Tr(rho Sigma_j).  Under
this convention H has pure +-1 entries, H^{-1} = H^T / N^2, and the
subsystem selection matrices T_k of the reduction formula
(`verify.selection_matrix`) are plain 0/1 matrices.  A 1/2^n rescaling recovers the normalized convention.

`stokes_from_rho` is Re `translations.pauli_grid` in Stokes order and
`stokes_from_dwf` is S = H W, both read off the value's memoised,
net-independent Stokes grid; H = diag(c) K lives in `nets` (re-exported
here).  F and G are K^T diag(y) K / N^2 with y[x, z] the sign word
i^{|x & z|} X^x Z^z picks up, the same for every net: complex conjugation
(F) flips its |x & z| Y factors, so y = WH of `translations.xz_tables`, and
the spin flip (G) its |x | z| non-identity factors.  `conjugate_dwf` and
`spinflip_dwf` multiply the DWF's S by y and map back to its net with
`wigner._dwf_on`; the `_matrix` functions read the dense map off
`wigner._from_stokes(y)`.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError, _Frozen, _set_field
from .ffield import check_degree
# HadamardMatrix, hadamard_matrix and pauli_words are re-exported here
from .nets import HadamardMatrix, QuantumNet, hadamard_matrix
from .translations import _xz_tables, pauli_words
from .wigner import DensityState, WignerFunction, _dwf_on, _field_array, _from_stokes, _read_only


class StokesVector(_Frozen):
    __match_args__ = ("n", "s")

    def __init__(self, n: int, s: np.ndarray):
        _set_field(self, "n", check_degree(n))
        self._settle(_field_array(s, "s", float, (4**self.n,)))

    def _settle(self, s: np.ndarray) -> None:
        # `_field_array` screened the entries; no sum rule applies, so a
        # finite vector whose sum overflows is a valid Stokes vector
        size = 4**self.n
        if s.shape != (size,):
            raise ValidationError(f"s must have length {size} for n={self.n}")
        _set_field(self, "s", _read_only(s))


def stokes_from_rho(state: DensityState) -> StokesVector:
    """s_j = Re Tr(rho Sigma_j); s[0] = 1 for unit-trace inputs."""
    return StokesVector(state.n, state._stokes.ravel()[_xz_tables(state.n).cells])


def stokes_from_dwf(w: WignerFunction) -> StokesVector:
    """S = H W, read from the DWF's memoised Stokes grid without H."""
    return StokesVector(w.n, w._stokes.ravel()[_xz_tables(w.n).cells])


def _flip_signs(n: int) -> np.ndarray:
    """G's Stokes grid (-1)^{|x | z|} = WH[x, z] WH[x, ~0] WH[~0, z]."""
    wh = _xz_tables(n).wh
    return wh * wh[:, -1:] * wh[-1:]


def _sign_matrix(y: np.ndarray) -> np.ndarray:
    """D = K^T diag(y) K / N^2 for the Stokes grid y[x, z]: K's columns are characters
    of the cells' XOR group and a point's cell is XOR-linear in the point, so
    D[beta, alpha] = (K^T y / N^2)[beta ^ alpha]."""
    points = np.arange(y.size)
    return _from_stokes(y, len(y).bit_length() - 1)[points[:, None] ^ points]


def conjugation_matrix(net: QuantumNet) -> np.ndarray:
    """F with F W(rho) = W(conj(rho)); F[b, a] = Tr(conj(A_b) A_a) / N.

    F is real, satisfies F @ F = I, and is the same matrix for every net of
    a given size.
    """
    return _sign_matrix(_xz_tables(net.n_qubits).wh)


def spinflip_matrix(net: QuantumNet) -> np.ndarray:
    """G with G W(rho) = W(sigma_y^(xn) conj(rho) sigma_y^(xn)).

    G is F with rows permuted by the phase-space translation whose operator
    is sigma_y^(xn) up to phase.
    """
    return _sign_matrix(_flip_signs(net.n_qubits))


def conjugate_dwf(w: WignerFunction) -> WignerFunction:
    """F W: the DWF of conj(rho) on the same net, without building F."""
    return _dwf_on(w.net_id, w._stokes * _xz_tables(w.n).wh)


def spinflip_dwf(w: WignerFunction) -> WignerFunction:
    """G W: the spin-flipped state's DWF on the same net, without building G."""
    return _dwf_on(w.net_id, w._stokes * _flip_signs(w.n))
