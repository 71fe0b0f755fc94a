"""Subsystem reduction of discrete Wigner functions for arbitrary nets.

The reduction route is W -> S = H_n W (Stokes vector of the composite),
keep only the Pauli words acting as identity on the traced qubits
(selection matrix T_k), then map back with the target net's inverse
Hadamard: P = H_k^{-1} T_k H_n.  Applying P to the Wigner vector of any
state gives the Wigner vector (in the target net) of the partial trace.
The code follows that shape: `reduce_dwf` gathers the kept words S[words]
of the DWF's memoised, net-independent Stokes grid S (this is T_k) and maps
them back with `wigner._dwf_on`, the one place a net enters.  A map holds
only its keep set and both net ids, checked against the keep set's sizes;
the kept words are read from the keep set, no reduction matrix or sign grid
exists, and the oracles read P off `reduce_dwf` (`verify.reduction_matrix`).

The marginal-sum and sign-kernel shortcuts for product-structured two-qubit
nets are provided as an independent cross-check path, together with a
concurrence evaluator for pure two-qubit states.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatchError, NetMismatchError, PurityError, UnsupportedNetError, ValidationError,
    _FrozenValue, _set_field, check_int,
)
from .ffield import check_degree
from .nets import QuantumNet, check_net_id, detect_product_structure
from .wigner import WignerFunction, _dwf_on, purity_from_dwf


class KeepSet(_FrozenValue):
    """The qubit positions retained by a reduction (0-based, ascending)."""

    __match_args__ = ("n", "keep")

    def __init__(self, n: int, keep: tuple):
        qubits = check_degree(n)
        if not np.iterable(keep):
            raise ValidationError(f"keep {keep!r} is not a sequence of integers")
        keep = tuple(check_int(q, 0, qubits, "keep position") for q in keep)
        if not keep or list(keep) != sorted(set(keep)):
            raise ValidationError(f"keep positions {keep} must be non-empty, strictly increasing")
        _set_field(self, "n", qubits)
        _set_field(self, "keep", keep)
        _set_field(self, "k", len(keep))  # outside `__match_args__`: not in repr, ==, hash


@lru_cache(maxsize=None)
def _kept_cells(n: int, keep: tuple) -> np.ndarray:
    """The read-only table `words[x', z']` of a keep set: the flat n-qubit
    (x, z) cell of the kept word with k-qubit masks (x', z')."""
    k = len(keep)
    bits = (np.arange(2**k)[:, None] >> np.arange(k)[::-1]) & 1
    spread = bits @ (1 << (n - 1 - np.array(keep)))
    words = spread[:, None] * 2**n + spread  # ascending, as `spread` is
    words.flags.writeable = False
    return words


class ReductionMap(_FrozenValue):
    """A reduction as its keep set and both net ids, checked against the keep
    set's n and k.  No matrix is stored or built; `reduce_dwf` applies it."""

    __match_args__ = ("keep", "source_net", "target_net")

    def __init__(self, keep: KeepSet, source_net: int, target_net: int):
        if not isinstance(keep, KeepSet):
            raise ValidationError(f"keep {keep!r} is not a KeepSet")
        _set_field(self, "keep", keep)
        _set_field(self, "source_net", check_net_id(source_net, 2**keep.n))
        _set_field(self, "target_net", check_net_id(target_net, 2**keep.k))


def reduction_map(
    source_net: QuantumNet, target_net: QuantumNet, keep: KeepSet
) -> ReductionMap:
    """P = H_k^{-1} T_k H_n for the given net pair and keep set; exact."""
    if not isinstance(keep, KeepSet):
        raise ValidationError(f"keep {keep!r} is not a KeepSet")
    if source_net.n_qubits != keep.n:
        raise DimensionMismatchError(
            f"source net is for n={source_net.n_qubits}, keep set for n={keep.n}"
        )
    if target_net.n_qubits != keep.k:
        raise DimensionMismatchError(
            f"target net is for n={target_net.n_qubits}, keep set keeps k={keep.k}"
        )
    return ReductionMap(keep, source_net.net_id, target_net.net_id)


def reduce_dwf(w: WignerFunction, rmap: ReductionMap) -> WignerFunction:
    """Apply a reduction map: w' = P w without P, tagged with the target net."""
    if w.n != rmap.keep.n or w.net_id != rmap.source_net:
        raise NetMismatchError(
            f"Wigner function (n={w.n}, net {w.net_id}) does not match reduction "
            f"map source (n={rmap.keep.n}, net {rmap.source_net})"
        )
    return _dwf_on(rmap.target_net, w._stokes.ravel()[_kept_cells(rmap.keep.n, rmap.keep.keep)])


def convert_net(w: WignerFunction, target_net: QuantumNet) -> WignerFunction:
    """Re-express a DWF in another net of the same size: W' = H'^T H W / N^2,
    the DWF's Stokes grid S = H W mapped back on the target net."""
    if target_net.n_qubits != w.n:
        raise DimensionMismatchError("target net size differs from the input DWF")
    return _dwf_on(target_net.net_id, w._stokes, w._owner)  # the same grid, so the same state


# -- product-net shortcut (cross-check path) -------------------------------

# (-1)^((q+q')(p+p')) between single-qubit points 2q+p and 2q'+p'
_SIGN_KERNEL = np.where(np.bitwise_xor.outer(range(4), range(4)) == 3, -1.0, 1.0)


def shortcut_reduce(w: WignerFunction, net: QuantumNet, which: str) -> WignerFunction:
    """Two-qubit reduction via the product-structure shortcut.

    which="A": subsystem 1 by plain marginal over the second qubit's point
    labels; the output net is the one matching the first factor family.
    which="B": subsystem 2 by the (-1)^((q+q')(p+p')) sign kernel; the
    output net matches the conjugated second-factor family.

    Only defined when the net's point operators have the tensor-product
    structure; other nets raise.
    """
    if which not in ("A", "B"):
        raise ValidationError(f"which must be 'A' or 'B', got {which!r}")
    if net.n_qubits != 2:
        raise UnsupportedNetError("shortcut reduction is defined for two qubits")
    if w.n != 2 or w.net_id != net.net_id:
        raise NetMismatchError("Wigner function does not match the supplied net")
    report = detect_product_structure(net)
    if not report.is_product:
        raise UnsupportedNetError(
            f"net {net.net_id} has no product structure; use reduction_map"
        )
    labels = net.ctx.table.labels  # per point: single-qubit point indices
    if which == "A":
        out = np.bincount(labels[:, 0], weights=w.w, minlength=4)
        return WignerFunction(1, report.factor_a_net, out)
    marginal = np.bincount(labels[:, 1], weights=w.w, minlength=4)
    return WignerFunction(1, report.factor_b_conj_net, 0.5 * _SIGN_KERNEL @ marginal)


def concurrence_from_dwf(w: WignerFunction, source_net: QuantumNet) -> float:
    """Concurrence of a pure two-qubit state straight from its DWF.

    Reduces to qubit 0 (any fixed target net; the value is net independent)
    and evaluates sqrt(2 (1 - Tr rho_A^2)) via the purity identity
    Tr rho_A^2 = 2 sum (w^A)^2.
    """
    if w.n != 2 or source_net.n_qubits != 2:
        raise ValidationError("concurrence is defined for two-qubit DWFs and nets")
    purity = purity_from_dwf(w)
    if abs(purity - 1.0) > 1e-6:
        raise PurityError(
            f"input purity {purity:.8f} is not 1; concurrence needs a pure state"
        )
    keep = KeepSet(2, (0,))
    wa = reduce_dwf(w, ReductionMap(keep, source_net.net_id, 0))
    purity_a = purity_from_dwf(wa)
    return float(np.sqrt(max(0.0, 2.0 * (1.0 - purity_a))))
