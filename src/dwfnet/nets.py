"""Quantum nets: line-projector assignments and phase-point operators.

A net is identified by N+1 digits, one per striation in canonical order,
naming which eigenstate of the striation's translation group sits on its
ray.  Every other line inherits its projector by translating the ray by the
line's smallest point, so the whole net is fixed by its digits.
The scalar net id is the mixed-radix value of the digits with striation 0
most significant.

Translations only permute a striation's eigenstates, by the integer table
`Eigensystems.flips`, so line projectors, translation orbits and product
detection are all exact integer bookkeeping.  So is the net's sign
vector c_j = Tr(Sigma_j A_0), one row gather of the striation sign tables in
the (x, z) mask layout of `translations.xz_tables`; every transform and map
reads c alone.  `hadamard_matrix` builds the net's +-1 Hadamard matrix
H[j, alpha] = Tr(Sigma_j A_alpha) = diag(c) K as one product of c with K, the
net-independent commutation signs of the Pauli words and the translations,
cached per size as read-only int8 (1 MiB at n = 5).  c and H are cached by
id, all three within a byte budget, with no point operator.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps

import numpy as np

from .errors import (
    NetConstructionError, UnsupportedDimensionError, UnsupportedNetError, ValidationError,
    check_int,
)
from .ffield import GF2m, check_degree
from .phasespace import PhaseSpace
from .translations import CONJ_SIGNS, TranslationTable, _xz_tables, build_eigensystems

FULL_ENUMERATION_LIMIT = 4  # N above this needs explicit sampling
# Byte budget of each per-net matrix cache: six times the census workload's
# Hadamard matrices (about 10 MiB), or eight n = 5 Hadamard matrices.
CACHE_BYTES = 64 * 2**20
_MISSING = object()  # a cache miss, told apart from any cached value


def bytes_lru(nbytes):
    """Memoize a function of hashable positional arguments, evicting the
    least recently used results once their total `nbytes(result)` exceeds
    CACHE_BYTES (read at each insertion).  Without concurrent hits the
    newest result always stays.  A hit takes no lock; a miss computes
    outside the lock and inserts under it.  The wrapper's `cache` attribute
    is the ordered {arguments: result} map, oldest first, and `cache_clear`
    empties it.
    """

    def decorate(fn):
        cache = OrderedDict()
        lock = threading.Lock()
        total = 0

        @wraps(fn)
        def cached(*key):
            nonlocal total
            # a hit takes no lock: each OrderedDict call is atomic, and an
            # entry evicted between the two calls is still a valid result
            value = cache.get(key, _MISSING)
            if value is not _MISSING:
                try:
                    cache.move_to_end(key)
                except KeyError:
                    pass
                return value
            value = fn(*key)
            with lock:
                if key in cache:  # another thread stored it first
                    return cache[key]
                cache[key] = value
                total += nbytes(value)
                # a concurrent hit may have moved older entries past this
                # one, so it can be evicted here; the caller still gets it
                while total > CACHE_BYTES and len(cache) > 1:
                    total -= nbytes(cache.popitem(last=False)[1])
            return value

        def cache_clear():
            nonlocal total
            with lock:
                cache.clear()
                total = 0

        cached.cache, cached.cache_clear = cache, cache_clear
        return cached

    return decorate


class NetContext:
    """Per-field cache of everything net construction needs.

    `ray_cells[s, k]` is the flat [x, z] cell (see `translations.xz_tables`)
    of the k-th non-identity word on striation s's ray, row s N + d of
    `ray_signs` = `ray_rows[s]` + d their float signs `eigensystems.signs[s, d]`
    on state d of that striation, and `ones` the grid they are written into.
    """

    def __init__(self, m: int) -> None:
        self.field = GF2m(m)
        self.space = PhaseSpace(self.field)
        self.table = TranslationTable(self.space)
        self.eigensystems = build_eigensystems(self.space, self.table)
        rays = self.space.rays[:, 1:]
        self.ray_cells = self.table.x[rays] * self.order + self.table.z[rays]
        self.ray_signs = self.eigensystems.signs.reshape(-1, self.order - 1).astype(float)
        self.ray_rows = np.arange(self.order + 1) * self.order
        self.ones = np.ones((self.order, self.order))

    @property
    def order(self) -> int:
        return self.field.order

    @property
    def n_qubits(self) -> int:
        return self.field.m

    @property
    def net_count(self) -> int:
        return _net_count(self.order)


def net_context(m: int) -> NetContext:
    """The one cached NetContext per qubit count; numpy integers share it."""
    return _net_context(check_degree(m, error=UnsupportedDimensionError))


_net_context = lru_cache(maxsize=None)(NetContext)


@lru_cache(maxsize=None)
def _net_count(order: int) -> int:
    return order ** (order + 1)


def check_net_id(net_id: int, order: int) -> None:
    """Reject a net id that is not an integer in [0, N^(N+1))."""
    check_int(net_id, 0, _net_count(order), "net id")


def digits_of(net_id: int, order: int) -> tuple:
    """Mixed-radix digits of a scalar net id (striation 0 most significant)."""
    check_net_id(net_id, order)
    digits = []
    for _ in range(order + 1):
        digits.append(net_id % order)
        net_id //= order
    return tuple(reversed(digits))


def id_of(digits, order: int) -> int:
    if len(digits) != order + 1:
        raise ValidationError(f"invalid net digits {digits} for N={order}")
    value = 0
    for d in digits:
        check_int(d, 0, order, "net digit")
        value = value * order + d
    return value


class QuantumNet:
    """A net: one projector per line and the N^2 point operators.

    The line of striation s through point alpha is the ray moved by
    T_alpha, so its projector is that striation's state
    `digit ^ flips[alpha]`, and A_alpha = sum of those N+1 projectors - I.
    The transforms only need the id; `ops_array` and `point_ops` (views
    into the stacked (N^2, N, N) `ops_array`) are built on first access;
    only the oracle `verify.dense_projectors` builds the line projectors.
    """

    def __init__(self, ctx: NetContext, net_id: int) -> None:
        self.ctx = ctx
        self.net_id = net_id
        self.digits = digits_of(net_id, ctx.order)

    @cached_property
    def ops_array(self) -> np.ndarray:
        n = self.order
        ops = np.repeat(-np.eye(n, dtype=complex)[None], n * n, axis=0)
        es = self.ctx.eigensystems
        for s, digit in enumerate(self.digits):
            ops += es.states[s, digit ^ es.flips[s]]
        return ops

    @cached_property
    def point_ops(self) -> tuple:
        return tuple(self.ops_array)

    @property
    def order(self) -> int:
        return self.ctx.order

    @property
    def n_qubits(self) -> int:
        return self.ctx.n_qubits


@dataclass(frozen=True, eq=False)
class HadamardMatrix:
    """The +-1 matrix with H[j, alpha] = Tr(Sigma_j A_alpha) for one net."""

    n: int
    net_id: int
    h: np.ndarray  # float64, exactly +-1; H^-1 = H^T / 4^n


@bytes_lru(lambda c: c.nbytes)
def _signs_by_id(n: int, net_id: int) -> np.ndarray:
    """The net's sign vector c_j = Tr(Sigma_j A_0) = H[j, 0] in the (x, z)
    layout of `translations.xz_tables`, read-only float64.

    c[0, 0] = 1; every other word lies on one striation's ray and takes
    that striation's sign on the state the net puts on the ray.
    """
    ctx = net_context(n)
    c = ctx.ones.copy()
    c.ravel()[ctx.ray_cells] = ctx.ray_signs[ctx.ray_rows + digits_of(net_id, ctx.order)]
    c.flags.writeable = False  # shared by every caller through the cache
    return c


@bytes_lru(lambda k: k.nbytes)
def _characters(n: int) -> np.ndarray:
    """K[j, alpha] = (-1)^{x_j . z_alpha + z_j . x_alpha}, the commutation sign
    of Sigma_j and T_alpha, as a read-only int8 table.  Point q N + p has
    x = table.x[q N] and z = table.z[p], so K[j, q N + p] = WH[z_j, x_q] WH[x_j, z_p],
    both factors gathered from an int8 WH, so no K-sized array is wider than int8."""
    ctx, t = net_context(n), _xz_tables(n)
    wh = t.wh.astype(np.int8)
    xs, zs = np.divmod(t.cells, ctx.order)  # masks of Stokes word j
    k_x = wh[:, ctx.table.z[: ctx.order]][xs]
    k_z = wh[:, ctx.table.x[:: ctx.order]][zs]
    k = (k_z[:, :, None] * k_x[:, None, :]).reshape(ctx.order**2, ctx.order**2)
    k.flags.writeable = False  # shared by every caller through the cache
    return k


@bytes_lru(lambda hm: hm.h.nbytes)
def _hadamard_by_id(n: int, net_id: int) -> HadamardMatrix:
    """H[j, alpha] = c_j K[j, alpha], since A_alpha = T_alpha A_0 T_alpha^dag:
    one product of c in Stokes order with the cached K of `_characters`."""
    h = _signs_by_id(n, net_id).ravel()[_xz_tables(n).cells][:, None] * _characters(n)
    h.flags.writeable = False  # shared by every caller through the cache
    return HadamardMatrix(n, net_id, h)


def hadamard_matrix(net: QuantumNet) -> HadamardMatrix:
    """Net-dependent Hadamard matrix realizing S = H W and W = H^T S / N^2."""
    return _hadamard_by_id(net.n_qubits, net.net_id)


def build_net(ctx: NetContext, net_id: int) -> QuantumNet:
    return QuantumNet(ctx, net_id)


def enumerate_nets(ctx: NetContext, sample: int | None = None):
    """Net ids in deterministic order.

    Full enumeration (ascending ids) is allowed only for N <= 4; larger
    fields must pass an explicit `sample` count and get evenly strided ids.
    """
    total = ctx.net_count
    if sample is None:
        if ctx.order > FULL_ENUMERATION_LIMIT:
            raise UnsupportedDimensionError(
                f"full enumeration of {total} nets for N={ctx.order} refused; "
                "pass an explicit sample count"
            )
        return range(total)
    check_int(sample, 1, total + 1, "sample count")
    stride = total // sample
    return range(0, stride * sample, stride)


def translate_net_id(ctx: NetContext, net_id: int, beta_index: int) -> int:
    """Net id after conjugating all projectors by the translation operator
    of the point with index beta_index.

    Conjugation by T_beta permutes each striation's eigenstates, so only
    the ray digits move: d -> d ^ flips[beta].  (Shifting the lines along
    with the conjugation is the identity on covariantly built nets, so the
    conjugation action is what produces the size-N^2 orbits.)
    """
    check_int(beta_index, 0, ctx.order**2, "point index")
    digits = np.array(digits_of(net_id, ctx.order))
    return id_of((digits ^ ctx.eigensystems.flips[:, beta_index]).tolist(), ctx.order)


def classify_nets(ctx: NetContext) -> dict:
    """Partition all net ids into translation orbits.

    Two nets are in one orbit when some translation operator conjugates
    every projector of one into the other.  Returns
    {representative: sorted tuple of member ids}; the representative is the
    smallest id in the orbit.  Row i of the (ids, N^2) table of translates
    (see `translate_net_id`) is the orbit of id i, since the translations
    form a group, so the representative of id i is its row minimum.
    """
    if ctx.order > FULL_ENUMERATION_LIMIT:
        raise UnsupportedDimensionError(
            f"classification over all {ctx.net_count} nets refused for N={ctx.order}"
        )
    ids = np.arange(ctx.net_count)
    place = ctx.order ** np.arange(ctx.order, -1, -1)  # striation 0 most significant
    digits = ids[:, None] // place % ctx.order
    moved = digits[:, :, None] ^ ctx.eigensystems.flips  # [id, s, beta]
    translates = np.einsum("isb,s->ib", moved, place)
    if not np.array_equal(translates[:, 0], ids):  # point 0 is the origin
        raise NetConstructionError("identity shift failed to fix the net")
    reps = np.flatnonzero(translates.min(axis=1) == ids).tolist()
    orbits = translates[reps].tolist()
    return {rep: tuple(sorted(set(orbit))) for rep, orbit in zip(reps, orbits)}


# -- product structure (two-qubit nets) ----------------------------------


@dataclass(frozen=True)
class ProductReport:
    is_product: bool
    form: str  # "eq6", "eq7" or "none"
    factor_a_net: int | None = None  # single-qubit net of the first factor
    factor_b_conj_net: int | None = None  # net matching the conjugated second factor


@lru_cache(maxsize=None)
def _single_qubit_nets() -> tuple:
    """8-entry lookups from a single-qubit sign grid's bytes to (net id, form),
    and from the conjugated (Y flipped) grid's bytes to the net id."""
    grids, conj = [_signs_by_id(1, i) for i in range(8)], CONJ_SIGNS[_xz_tables(1).stokes]
    forms = {g.tobytes(): (i, "eq6" if g.prod() > 0 else "eq7") for i, g in enumerate(grids)}
    return forms, {(g * conj).tobytes(): i for i, g in enumerate(grids)}


def detect_product_structure(net: QuantumNet) -> ProductReport:
    """Decide whether every point operator splits as a tensor product whose
    factors form single-qubit point-operator families.

    Exact integer work on the sign grid c: for j = 4*j1 + j2,
    K[j, alpha] = K[4*j1, alpha] K[j2, alpha], so A_alpha factors exactly when
    c[j] = c[4*j1] c[j2], into the single-qubit nets with signs c[4*j1] and
    c[j2]; the second is reported conjugated (Y flipped).

    The 32 product-structured two-qubit nets fall into two translation
    orbits whose projectors are entrywise complex conjugates of each other.
    The `form` label separates the orbits by the Bloch-sign parity of the
    first factor's origin operator: parity +1 is reported as "eq6"
    (conjugation on the second subsystem), parity -1 as "eq7".
    """
    if net.n_qubits != 2:
        raise UnsupportedNetError("product-structure detection is defined for n=2")
    c = _signs_by_id(2, net.net_id).reshape(2, 2, 2, 2)  # [x0, x1, z0, z1] by qubit
    if not (c == c[:, :1, :, :1] * c[:1, :, :1, :]).all():
        return ProductReport(False, "none")
    forms, conjugated = _single_qubit_nets()
    net_a, form = forms[c[:, 0, :, 0].tobytes()]
    return ProductReport(True, form, net_a, conjugated[c[0, :, 0, :].tobytes()])
