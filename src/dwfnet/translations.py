"""Pauli words, phase-space translation operators and the striation
eigensystems.

`pauli_words(n)` is the one place Pauli words are built.  Word j is
sigma_{j_1} (x) ... (x) sigma_{j_n} with j = sum_i j_i * 4^(n-i) (first
qubit most significant) and 0,1,2,3 <-> I, sigma_x, sigma_y, sigma_z.
The transforms never build them.  They work in the (x, z) mask layout of
`xz_tables(n)`: entry [x, z] of an N x N grid belongs to the word
i^{|x & z|} X^x Z^z, whose Stokes index is `stokes[x, z]`.  There
Tr(rho X^x Z^z) = sum_a rho[a, a ^ x] (-1)^{|a & z|}, so `pauli_grid` is
one gather and one N x N product with the +-1 Walsh-Hadamard matrix
WH[a, z] = (-1)^{|a & z|}, and `operator_from_grid` is one real product
with the pre-scaled WH / N over the stacked real and imaginary planes and
one gather back, which reads each Hermitian pair of rho from one cell so
the operator of a real grid is Hermitian bit for bit.  A grid read at
`cells` is in Stokes order.

The operator attached to the shift (q, p) is the Pauli word
X^{q_1} Z^{p_1} (x) ... (x) X^{q_n} Z^{p_n}, with q expanded in the
polynomial basis and p in its trace-dual, so it is a row of `pauli_words`
times a power of -i (XZ = -i sigma_y).  That basis pairing makes the N
operators of each striation pairwise commute, so each striation carries a
joint eigenbasis; the N+1 bases are mutually unbiased.

Each translation is also kept as its X and Z bit masks.  Commutation is then
the GF(2) symplectic form of the masks, and the eigenbases are exact
stabilizer projectors (Aaronson & Gottesman, quant-ph/0406196), so no
eigensolver and no floating-point comparison decides any ordering.  Every
non-identity Pauli word lies on exactly one striation's ray, and its
eigenvalue on each of that striation's states is an exact +-1 kept in
`Eigensystems.signs`, stacked over all striations.  Those tables and
`flips` are integer work on the masks; the dense operators
(`TranslationTable.matrices`) and projectors (`Eigensystems.states`) are
built on first access, for the oracles of `verify` and the point
operators of `nets`.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .errors import NonCommutingError, _Frozen
from .ffield import SUPPORTED_DEGREES, check_degree
from .phasespace import PhaseSpace

_SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# Stokes digit of the single-qubit translation X^x Z^z, by label 2x + z
_STOKES_DIGIT = np.array([0, 3, 1, 2])
_MINUS_I_POWERS = np.array([1, -1j, -1, 1j])
_I_POWERS = _MINUS_I_POWERS.conj()
# weight and parity of every mask of a supported qubit count
_WEIGHT = np.array([bin(v).count("1") for v in range(2 ** SUPPORTED_DEGREES[-1])], dtype=np.int64)
_ODD = _WEIGHT & 1


def pauli_words(n: int) -> np.ndarray:
    """All 4^n Pauli words as a (4^n, 2^n, 2^n) array in index order."""
    return _pauli_words(check_degree(n))


@lru_cache(maxsize=None)
def _pauli_words(n: int) -> np.ndarray:
    words = [np.array([[1.0 + 0.0j]])]
    for _ in range(n):
        words = [np.kron(w, s) for w in words for s in _SIGMA]
    words = np.array(words)
    words.flags.writeable = False  # shared by every caller through the cache
    return words


class XZTables(_Frozen):
    """Index tables of the (x, z) mask layout for n qubits, N = 2^n.

    Entry [x, z] of an (N, N) array belongs to the Pauli word
    i^{|x & z|} X^x Z^z = Sigma_{stokes[x, z]} (qubit 0 the most
    significant bit of each mask), and `cells[j]` is the flat [x, z] cell
    of Stokes index j.  `wh[a, z]` = (-1)^{|a & z|} is the +-1
    Walsh-Hadamard matrix and `half` = wh / 2^n, exact, so a product with
    it carries the transforms' normalisation without a division pass.
    `phase[x, z]` = i^{|x & z|}, with its real and imaginary parts as the
    float arrays `planes[0]` and `planes[1]`.  `gather[x, a]` is a flat
    index into an N x N array: rho[a, a ^ x] sits at `gather[x, a]` of rho.
    `scatter[b, a]` holds two flat indices into the stacked planes
    (Re M, Im M, -Im M) of the array M with M[x, a] = rho[a ^ x, a]: the
    real and imaginary parts of rho[b, a], both read at the cell
    (a ^ b, min(a, b)), the imaginary part from -Im M when a > b.
    """

    __match_args__ = ("wh", "half", "gather", "scatter", "phase", "planes", "stokes", "cells")

    def __init__(self, wh, half, gather, scatter, phase, planes, stokes, cells):
        # one cached instance per n, whose dict `_xz_tables` reads
        vars(self).update(wh=wh, half=half, gather=gather, scatter=scatter, phase=phase,
                          planes=planes, stokes=stokes, cells=cells)


def xz_tables(n: int) -> XZTables:
    """The read-only (x, z) layout tables for n qubits, built once per size."""
    return _xz_tables(check_degree(n))


@lru_cache(maxsize=None)
def _xz_tables(n: int) -> XZTables:
    order = 2**n
    x, z = np.arange(order)[:, None], np.arange(order)[None, :]
    stokes = 0
    for bit in range(n - 1, -1, -1):  # qubit 0 first
        label = 2 * ((x >> bit) & 1) + ((z >> bit) & 1)
        stokes = 4 * stokes + _STOKES_DIGIT[label]
    wh = np.where(_ODD[x & z], -1.0, 1.0)
    phase = _I_POWERS[_WEIGHT[x & z] % 4]
    # the same row and column ranges index the (x, a) and (b, a) grids
    cell = (z ^ x) * order + np.minimum(x, z)
    tables = XZTables(
        wh=wh,
        half=wh / order,
        gather=z * order + (z ^ x),
        scatter=np.stack([cell, np.where(z > x, 2, 1) * order**2 + cell], axis=-1),
        phase=phase,
        planes=np.stack([phase.real, phase.imag]),
        stokes=stokes,
        cells=np.argsort(stokes, axis=None),
    )
    for arr in vars(tables).values():
        arr.flags.writeable = False  # shared by every caller through the cache
    return tables


def pauli_grid(rho: np.ndarray, n: int) -> np.ndarray:
    """s[x, z] = Tr(rho Sigma_{stokes[x, z]}) = i^{|x & z|} (R @ wh)[x, z]
    with R[x, a] = rho[a, a ^ x]: one gather and one N x N product."""
    t = xz_tables(n)
    return t.phase * (rho.ravel()[t.gather] @ t.wh)


def operator_from_grid(s: np.ndarray, n: int) -> np.ndarray:
    """sum_{x, z} s[x, z] Sigma_{stokes[x, z]} / 2^n, the inverse of
    `pauli_grid`: M = (phase * s) @ wh / 2^n holds rho[a ^ x, a] at [x, a].

    A real grid takes one real product with wh / 2^n over the stacked
    planes of M, and rho[b, a] and rho[a, b] are both read at `scatter`'s
    cell, so rho is Hermitian bit for bit whatever order the product sums
    in (0 - Im M, unlike -Im M, keeps a zero +0.0, as the product gives it).
    A complex grid goes by linearity in its real and imaginary parts."""
    if np.iscomplexobj(s):
        return operator_from_grid(s.real, n) + 1j * operator_from_grid(s.imag, n)
    t = xz_tables(n)
    planes = t.planes * s
    m = np.empty((3,) + s.shape)  # Re M, Im M, -Im M
    np.matmul(planes, t.half, out=m[:2])
    # freed before the gather so that a rho the caller keeps can reuse its
    # block: alive, it made 800 kept n = 4 rhos cost 0.7 MB more peak RSS
    del planes
    np.subtract(0.0, m[1], out=m[2])
    return m.ravel()[t.scatter].view(complex)[..., 0]


class TranslationTable:
    """All N^2 translation operators for one field, indexed by point index.

    `labels[alpha, i]` is 2 x_i + z_i for qubit i (qubit 0 first) of the
    Pauli word at point index alpha, `pauli[alpha]` its Stokes index,
    `x[alpha]`, `z[alpha]` its X and Z bit masks (qubit 0 most
    significant), and `grid[alpha]` = z[alpha] * N + x[alpha] its flat
    position in an N x N grid indexed by [z, x].  `matrices`, the
    (N^2, N, N) stack of the operators, is built on first access.
    """

    def __init__(self, space: PhaseSpace) -> None:
        self.space = space
        fld = space.field
        m, n = fld.m, space.order
        qbits, pbits = fld.expansions(), fld.expansions(dual=True)
        weights = 1 << np.arange(m)[::-1]
        self.x = np.repeat(qbits @ weights, n)
        self.z = np.tile(pbits @ weights, n)
        self.grid = self.z * n + self.x
        self.labels = (2 * qbits[:, None] + pbits[None, :]).reshape(n * n, m)
        self.pauli = _STOKES_DIGIT[self.labels] @ (1 << 2 * np.arange(m)[::-1])

    @cached_property
    def matrices(self) -> np.ndarray:
        """X^x Z^z = (-i)^{|x & z|} Sigma_{pauli}, built on first access."""
        phases = _MINUS_I_POWERS[_WEIGHT[self.x & self.z] % 4]
        return pauli_words(self.space.field.m)[self.pauli] * phases[:, None, None]

    def anticommutes(self, alpha, beta):
        """1 where T_alpha and T_beta anticommute, 0 where they commute.

        Broadcasts over arrays of point indices.
        """
        x, z = self.x, self.z
        return _ODD[(x[alpha] & z[beta]) ^ (z[alpha] & x[beta])]


class Eigensystems:
    """The commuting translation groups of all N+1 striations and their
    eigenbases, as integer tables stacked over the striation s.

    `rays[s, t]` = `space.rays[s, t]` is the point index of t(a,b) for the
    field element t.  Striation s's group is generated by
    g_i = T_{t_i(a,b)} = X^{x_i} Z^{z_i} (point index `gens[s, i]`) with t_i
    the i-th polynomial basis element, and `states[s, d]` is the exact
    stabilizer projector

        prod_i (I + (-1)^{bit_i(d)} g_i / lambda_i) / 2,

    with lambda_i = 1 or i as g_i^2 = +I or -I and bit 0 the most
    significant bit of d.  Bit 0 picks the eigenvalue +lambda_i, bit 1 picks
    -lambda_i, so the states run in ascending lexicographic order of the
    generators' eigenvalue phases.  `states` is an (N+1, N, N, N) array built
    on first access, for the oracles and a net's point operators.

    `flips[s, alpha]` holds the bits of d that the translation with point
    index alpha flips, one commutation bit per generator:
    T_alpha P_{s,d} T_alpha^dag = P_{s, d ^ flips[s, alpha]}.

    `signs[s, d, k]` = Tr(Sigma_{pauli[rays[s, k + 1]]} P_{s,d}), exactly
    +-1: the eigenvalue of the k-th non-identity Pauli word of the ray on
    state d, read off the masks.  With t = sum_i b_i t_i, b_i = (t >> i) & 1,
    reordering the product of the g_i^{b_i} gives
    Sigma_t = i^{e_t} prod_i (g_i / lambda_i)^{b_i}, so its eigenvalue on
    state d is i^{e_t} (-1)^{sum_i b_i bit_i(d)}, where
    e_t = |x_t & z_t| + 2 phi_t + sum_i b_i (|x_i & z_i| mod 2) is 0 or 2
    mod 4 and phi_t = sum_{i<j} b_i b_j |z_i & x_j|.
    """

    def __init__(self, space: PhaseSpace, table: TranslationTable) -> None:
        fld = space.field
        self.table = table
        self.rays = rays = space.rays
        self.gens = gens = rays[:, list(fld.basis)]
        points = np.arange(len(table.x))[:, None]
        weights = 1 << np.arange(fld.m)[::-1]
        self.flips = table.anticommutes(points, gens[:, None, :]) @ weights
        broken = np.flatnonzero(np.take_along_axis(self.flips, gens, axis=1).any(axis=1))
        if broken.size:
            raise NonCommutingError(
                f"striation {broken[0]} translations do not "
                "commute; field basis duality is misconfigured"
            )
        x, z, gx, gz = table.x[rays], table.z[rays], table.x[gens], table.z[gens]
        bits = (np.arange(fld.order)[:, None] >> np.arange(fld.m)) & 1  # b_i(t)
        upper = np.triu(_ODD[gz[:, :, None] & gx[:, None, :]], 1)
        phi = np.einsum("ti,sij,tj->st", bits, upper, bits)
        e = _WEIGHT[x & z] + 2 * phi + _ODD[gx & gz] @ bits.T
        # bits[d, ::-1][i] is bit_i(d), counted from the most significant
        parity = (bits[:, ::-1] @ bits[1:].T) & 1
        self.signs = (1 - (e[:, None, 1:] & 2)) * (1 - 2 * parity)

    @cached_property
    def states(self) -> np.ndarray:
        table = self.table
        eye = np.eye(table.space.order, dtype=complex)
        states = np.broadcast_to(eye, (len(self.gens), 1) + eye.shape)
        for g in self.gens.T:
            # g^2 = (-1)^{|x & z|} I, and 1/i = -i
            odd = _ODD[table.x[g] & table.z[g]]
            h = table.matrices[g] * _MINUS_I_POWERS[odd, None, None]
            halves = np.stack([(eye + h) / 2, (eye - h) / 2], axis=1)
            states = (states[:, :, None] @ halves[:, None]).reshape(len(g), -1, *eye.shape)
        return states


def build_eigensystems(space: PhaseSpace, table: TranslationTable) -> Eigensystems:
    """The eigensystems of all striations, stacked in canonical striation order."""
    return Eigensystems(space, table)
