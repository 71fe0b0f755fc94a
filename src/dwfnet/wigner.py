"""Transforms between density matrices and discrete Wigner functions.

The Wigner value at point alpha is (1/N) Tr(rho A_alpha) for the net's
point operator A_alpha; the inverse is rho = sum_alpha w_alpha A_alpha.
Both are linear and well defined on any Hermitian unit-trace operator, so
positivity violations only warn.  The one Hermitian rule is
`DensityState._settle`'s max |rho - rho^dag| <= `HERM_TOL`: a state is
transformed through S = Re Tr(rho Sigma), the Pauli grid of the Hermitian
part (rho + rho^dag) / 2, within `HERM_TOL` / 2 of rho per entry.

Both run through Stokes space in the (x, z) mask layout of
`translations.xz_tables` on the net's sign vector c, H = diag(c) K, with
point alpha at [z_alpha, x_alpha] of an N x N grid: K W = WH W_grid WH
(`_to_stokes`) and K^T S / N^2 = (WH / N) S (WH / N) (`_from_stokes`).  A
DWF holds its Stokes grid S = H W, which does not depend on the net, and
every map of the package acts on S alone: the state's Pauli grid, S itself
for net conversion, S times a +-1 grid read off WH for F or G, or the
kept words S[words] of a reduction (T_k).  The net enters only through
`_dwf_on`, the one way back: W = K^T (c S) / N^2.  Every DWF a transform
builds comes from `_dwf_on` and keeps the grid it was built from (all DWFs of
a state share its S); only a DWF a caller constructs (or the cross-check
`shortcut_reduce` builds) derives S = c (K W) from W, once, on first use.
The state-side way back is `_state_of`: rho = sum_j S_j Sigma_j / N from
`operator_from_grid`, Hermitian bit for bit by construction, so a rebuilt
state runs only the trace and PSD rules.

Every kernel is real float64: the +-1 WH is never cast to complex, the
1 / N^2 rides exactly in the cached WH / N so no kernel ends with a division,
and complex numbers meet only the rho boundary, `pauli_grid` and its inverse.
"""

from __future__ import annotations

import math
import warnings
from functools import cached_property, lru_cache

import numpy as np

from .errors import NetMismatchError, ValidationError, _Frozen, _set_field, check_int
from .ffield import check_degree
from .nets import QuantumNet, _signs_by_id, check_net_id, net_context
from .translations import _xz_tables, operator_from_grid, pauli_grid

HERM_TOL = 1e-10
PSD_TOL = -1e-9
EPS = float(np.finfo(float).eps)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _field_array(value, key: str, dtype: type, shape: tuple) -> np.ndarray:
    """A caller's `value` for field `key` as a fresh `dtype` (float or complex)
    array, refusing ragged or non-numeric input (booleans and numeric strings
    too), complex input for a real field and, before any arithmetic on it
    can warn, a non-finite entry (a wrong `shape` is left to `_settle`)."""
    try:
        a = np.array(value)
    except ValueError as exc:
        raise ValidationError(f'field "{key}" must be a rectangular array') from exc
    if a.dtype.kind not in ("iufc" if dtype is complex else "iuf"):
        kind = "complex" if dtype is complex else "real"
        raise ValidationError(f'field "{key}" must hold {kind} numbers, not {a.dtype}')
    a = a.astype(dtype, copy=False)
    if a.shape == shape and not np.isfinite(a).all():
        raise ValidationError(f'field "{key}" has a non-finite entry')
    return a


def _check_norm(a: np.ndarray, key: str, order: int, weight: float) -> None:
    """Refuse finite entries whose Hilbert-Schmidt norm r = sqrt(Tr rho^2)
    = sqrt(weight * sum |a|^2) exceeds 1e-8 / (N^2 eps), N = `order`.

    Each entry a transform builds carries rounding of order eps * r, and a
    sum or trace rule adds at most N^2 of them, so below the bound every
    library-built value keeps its 1e-8 rule (seeded adversarial inputs at
    n = 1..4 put at most 1.5 eps r into the sum).  `_field_array` has
    already refused non-finite entries."""
    limit = 1e-8 / (order**2 * EPS)
    with np.errstate(over="ignore"):
        norm = weight * np.sum(np.abs(a) ** 2)
    if not norm <= limit**2:
        raise ValidationError(
            f'field "{key}" is too large: its Hilbert-Schmidt norm {math.sqrt(norm):.3g} '
            f"exceeds {limit:.3g}, beyond which rounding breaks the 1e-8 sum and trace rules"
        )


# The public constructor is each value type's one checked path, for a
# caller's array and the library's alike: `_field_array` and `_check_norm`
# copy and screen the array, then `_settle` runs every rule on it.  The two
# exceptions are the fast paths every transform takes, on grids real and
# Hermitian by construction: `_dwf_on` runs only the DWF sum rule and
# `_state_of` only the state's trace and PSD rules (`_trace_and_psd`).  The
# net-independent Stokes grid `_stokes` of a value is memoised read-only, so
# a value met by several nets or maps is transformed at most once, in both
# directions: a DWF that `dwf_from_rho` or `convert_net` builds from a state's
# grid names that state as its `_owner`, and the state memoises the state
# rebuilt from its grid as `_rebuilt`, so `rho_from_dwf` rebuilds it once.


class DensityState(_Frozen):
    """A validated n-qubit density operator, holding a read-only copy."""

    __match_args__ = ("n", "rho")
    _rebuilt = None  # the state `rho_from_dwf` rebuilt from `_stokes`, once it factored

    def __init__(self, n: int, rho: np.ndarray):
        _set_field(self, "n", check_degree(n))
        dim = 2**self.n
        rho = _field_array(rho, "rho", complex, (dim, dim))
        if rho.shape == (dim, dim):  # else `_settle` names the shape
            _check_norm(rho, "rho", dim, 1.0)  # before the eigenvalue test would warn on it
        self._settle(rho)

    def _settle(self, rho: np.ndarray) -> None:
        dim = 2**self.n
        if rho.shape != (dim, dim):
            raise ValidationError(f"rho must be {dim}x{dim} for n={self.n}")
        if np.abs(rho - rho.conj().T).max() > HERM_TOL:
            raise ValidationError("rho is not Hermitian")
        _trace_and_psd(rho)
        _set_field(self, "rho", _read_only(rho))

    @cached_property
    def _stokes(self) -> np.ndarray:
        """S = Re Tr(rho Sigma), the Pauli grid [x, z] of (rho + rho^dag) / 2,
        read-only and C-contiguous: the S every DWF of the state shares."""
        return _read_only(np.ascontiguousarray(pauli_grid(self.rho, self.n).real))


class WignerFunction(_Frozen):
    """A read-only copy of a length-N^2 real Wigner vector, tagged with its net."""

    __match_args__ = ("n", "net_id", "w")
    _owner = None  # the state whose `_stokes` this DWF shares (`dwf_from_rho`, `convert_net`)

    def __init__(self, n: int, net_id: int, w: np.ndarray):
        _set_field(self, "n", check_degree(n))
        _set_field(self, "net_id", net_id)
        with np.errstate(over="ignore"):  # the sum rule, not numpy, names an overflowing sum
            self._settle(_field_array(w, "w", float, (4**self.n,)))
        _check_norm(self.w, "w", self.order, self.order)

    def _settle(self, w: np.ndarray) -> None:
        size = 4**self.n
        if w.shape != (size,):
            raise ValidationError(f"w must have length {size} for n={self.n}")
        _sum_rule(w)
        _set_field(self, "net_id", check_net_id(self.net_id, 2**self.n))
        _set_field(self, "w", _read_only(w))

    @cached_property
    def _stokes(self) -> np.ndarray:
        """S = H W = c (K W) as a read-only grid [x, z]; `_dwf_on` sets it on built DWFs."""
        return _read_only(_to_stokes(self.w, self.n) * _signs_by_id(self.n, self.net_id))

    @property
    def order(self) -> int:
        return 2**self.n


def _refuse_non_finite(rho: np.ndarray) -> None:
    if not np.isfinite(rho).all():
        raise ValidationError('field "rho" has a non-finite entry')


def _trace_and_psd(rho: np.ndarray) -> bool:
    """The trace rule, then the PSD test, on a Hermitian rho; a negative
    eigenvalue warns four frames up, at the caller of `DensityState(...)` or
    `rho_from_dwf`.  A non-finite entry fails one of them, so only their
    failure paths scan for one.  True if rho factored."""
    trace = rho.trace().real
    if abs(trace - 1.0) > 1e-8:
        _refuse_non_finite(rho)
        raise ValidationError(f"rho has trace {float(trace)}, not 1")
    # rho - PSD_TOL I has a finite Cholesky factor when no eigenvalue of
    # rho lies below PSD_TOL, so only a failure needs the eigenvalues;
    # a factor that overflowed to inf or NaN counts as a failure
    try:
        total = np.linalg.cholesky(rho + _psd_shift(len(rho))).sum()
        factored = math.isfinite(total.real) and math.isfinite(total.imag)
    except np.linalg.LinAlgError:
        factored = False
    if not factored:
        _refuse_non_finite(rho)
        smallest = float(np.linalg.eigvalsh(rho)[0])
        if smallest < PSD_TOL:
            warnings.warn(
                f"rho has negative eigenvalue {smallest:.3e}; transforms "
                "remain well defined on Hermitian inputs",
                stacklevel=4,
            )
    return factored


@lru_cache(maxsize=None)
def _psd_shift(dim: int) -> np.ndarray:
    """-PSD_TOL I, read-only: rho + it is rho - PSD_TOL I bit for bit."""
    return _read_only(np.eye(dim, dtype=complex) * -PSD_TOL)


@lru_cache(maxsize=None)
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


def _sum_rule(w: np.ndarray) -> None:
    """Refuse a Wigner vector with a non-finite entry or a sum 1e-8 from 1."""
    total = np.add.reduce(w)  # w.sum() without its Python wrapper
    if not math.isfinite(total) and not np.isfinite(w).all():
        raise ValidationError('field "w" has a non-finite entry')
    if abs(total - 1.0) > 1e-8:
        raise ValidationError(f"Wigner function sums to {float(total)}, not 1")


def _dwf_on(net_id: int, s: np.ndarray, owner: DensityState | None = None) -> WignerFunction:
    """The DWF on net `net_id` of the real k-qubit grid s[x, z], which every
    transform builds: W = H^T S / 4^k = K^T (c S) / 4^k, k read off s's shape.
    It keeps s, C-contiguous at every caller, as S, so a state's DWFs share its
    grid `_stokes`, and names the state `owner` whose grid s is, if any.  Of
    `_settle` only the sum rule runs; `_signs_by_id` checks new ids."""
    k = len(s).bit_length() - 1
    w = _read_only(_from_stokes(s * _signs_by_id(k, net_id), k))
    _sum_rule(w)
    value = object.__new__(WignerFunction)
    vars(value).update(n=k, net_id=net_id, w=w, _stokes=_read_only(s), _owner=owner)
    return value


def _state_of(s: np.ndarray, owner: DensityState | None = None) -> DensityState:
    """The k-qubit state of a real grid s[x, z], k read off its shape, as
    `rho_from_dwf` rebuilds it: `operator_from_grid` makes rho Hermitian and
    of the right shape, so of `_settle` only `_trace_and_psd` runs.  The
    state `owner` of s keeps the result as `_rebuilt` if rho factored."""
    k = len(s).bit_length() - 1
    rho = _read_only(operator_from_grid(s, k))
    factored = _trace_and_psd(rho)
    value = object.__new__(DensityState)
    _set_field(value, "n", k)
    _set_field(value, "rho", rho)
    if factored and owner is not None:
        _set_field(owner, "_rebuilt", value)
    return value


def dwf_from_rho(state: DensityState, net: QuantumNet) -> WignerFunction:
    """w_alpha = (1/N) Tr(rho A_alpha), tagged with `state` as its `_owner`."""
    if state.n != net.n_qubits:
        raise ValidationError(f"state has n={state.n} but net is for n={net.n_qubits}")
    return _dwf_on(net.net_id, state._stokes, state)


def rho_from_dwf(w: WignerFunction, net: QuantumNet) -> DensityState:
    """rho = sum_alpha w_alpha A_alpha; inverse of dwf_from_rho.

    Every DWF of a state that `dwf_from_rho` or `convert_net` built shares
    the state's grid, so they return one rebuilt state, built on the first
    call and kept by the original state (16^n bytes of rho, 4 KB at n = 4);
    such a DWF keeps its state alive in turn.  A rebuild whose Cholesky test
    fails is not kept, so one that warns or raises does so on every call.
    Any other DWF is rebuilt on every call."""
    if w.n != net.n_qubits or w.net_id != net.net_id:
        raise NetMismatchError(
            f"Wigner function (n={w.n}, net {w.net_id}) does not match "
            f"net {net.net_id} (n={net.n_qubits})"
        )
    owner = w._owner
    if owner is not None and owner._rebuilt is not None:
        return owner._rebuilt
    return _state_of(w._stokes, owner)


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
    return DensityState(n, rho / np.trace(rho).real)


def random_pure(n: int, rng: np.random.Generator) -> DensityState:
    dim = 2 ** check_degree(n)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v = v / np.linalg.norm(v)
    return DensityState(n, np.outer(v, v.conj()))
