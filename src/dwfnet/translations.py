"""Pauli words, phase-space translation operators and the striation
eigensystems.

`pauli_words(n)` is the one place Pauli words are built.  Word j is
sigma_{j_1} (x) ... (x) sigma_{j_n} with j = sum_i j_i * 4^(n-i) (first
qubit most significant) and 0,1,2,3 <-> I, sigma_x, sigma_y, sigma_z.

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
`StriationEigensystem.signs`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NetConstructionError, NonCommutingError
from .phasespace import PhaseSpace, Point, Striation

_SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# conj(sigma_j) = CONJ_SIGNS[j] sigma_j
CONJ_SIGNS = np.array([1, 1, -1, 1])
# Stokes digit of the single-qubit translation X^x Z^z, by label 2x + z
_STOKES_DIGIT = np.array([0, 3, 1, 2])
_MINUS_I_POWERS = np.array([1, -1j, -1, 1j])
# parity of every mask below 2^5, the largest supported qubit count
_ODD = np.array([bin(v).count("1") & 1 for v in range(32)], dtype=np.int64)


@lru_cache(maxsize=8)
def pauli_words(n: int) -> np.ndarray:
    """All 4^n Pauli words as a (4^n, 2^n, 2^n) array in index order."""
    words = [np.array([[1.0 + 0.0j]])]
    for _ in range(n):
        words = [np.kron(w, s) for w in words for s in _SIGMA]
    return np.array(words)


class TranslationTable:
    """All N^2 translation operators for one field, indexed by point index.

    `labels[alpha, i]` is 2 x_i + z_i for qubit i (qubit 0 first) of the
    Pauli word at point index alpha, `pauli[alpha]` its Stokes index, and
    `x[alpha]`, `z[alpha]` its X and Z bit masks (qubit 0 most
    significant).  `matrices` is the (N^2, N, N) stack of the operators.
    """

    def __init__(self, space: PhaseSpace) -> None:
        self.space = space
        fld = space.field
        m, n = fld.m, space.order
        # expansion is GF(2)-linear: expand each field element once
        qbits = np.array([fld.expand(a) for a in fld.elements()])
        pbits = np.array([fld.expand(a, dual=True) for a in fld.elements()])
        weights = 1 << np.arange(m)[::-1]
        self.x = np.repeat(qbits @ weights, n)
        self.z = np.tile(pbits @ weights, n)
        self.labels = (2 * qbits[:, None] + pbits[None, :]).reshape(n * n, m)
        digits = _STOKES_DIGIT[self.labels]
        self.pauli = digits @ (1 << 2 * np.arange(m)[::-1])
        phases = _MINUS_I_POWERS[(digits == 2).sum(axis=1) % 4]
        self.matrices = pauli_words(m)[self.pauli] * phases[:, None, None]

    def __getitem__(self, pt: Point) -> np.ndarray:
        return self.matrices[self.space.point_index(pt)]

    def anticommutes(self, alpha, beta):
        """1 where T_alpha and T_beta anticommute, 0 where they commute.

        Broadcasts over arrays of point indices.
        """
        x, z = self.x, self.z
        return _ODD[(x[alpha] & z[beta]) ^ (z[alpha] & x[beta])]


class StriationEigensystem:
    """The commuting translation group of one striation and its eigenbasis.

    `ray[s]` is the point index of s(a,b) for the field element s, and
    `ops[s]` is T_{s(a,b)}.  The group is generated by g_i = T_{s_i(a,b)}
    with s_i the i-th polynomial basis element, and `states[d]` is the exact
    stabilizer projector

        prod_i (I + (-1)^{bit_i(d)} g_i / lambda_i) / 2,

    with lambda_i = 1 or i as g_i^2 = +I or -I and bit 0 the most
    significant bit of d.  Bit 0 picks the eigenvalue +lambda_i, bit 1 picks
    -lambda_i, so the states run in ascending lexicographic order of the
    generators' eigenvalue phases.  `states` is an (N, N, N) array.

    `flips[alpha]` holds the bits of d that the translation with point
    index alpha flips, one commutation bit per generator:
    T_alpha P_d T_alpha^dag = P_{d ^ flips[alpha]}.

    `signs[d, k]` = Tr(Sigma_{pauli[ray[k + 1]]} P_d), exactly +-1: the
    eigenvalue of the k-th non-identity Pauli word of the ray on state d.
    """

    def __init__(self, space: PhaseSpace, striation: Striation,
                 table: TranslationTable) -> None:
        fld = space.field
        self.striation_id = striation.striation_id
        a, b = striation.a, striation.b
        self.ray = np.array([
            space.point_index(Point(fld.mul(s, a), fld.mul(s, b)))
            for s in fld.elements()
        ])
        self.ops = tuple(table.matrices[i] for i in self.ray)
        gens = self.ray[list(fld.basis)]
        if table.anticommutes(gens[:, None], gens[None, :]).any():
            raise NonCommutingError(
                f"striation {self.striation_id} translations do not "
                "commute; field basis duality is misconfigured"
            )
        points = np.arange(len(table.matrices))
        flips = np.zeros(len(points), dtype=np.int64)
        eye = np.eye(fld.order, dtype=complex)
        states = [eye]
        for g in gens:
            flips = (flips << 1) | table.anticommutes(points, g)
            # g^2 = (-1)^{|x & z|} I, and 1/i = -i
            h = table.matrices[g] * (-1j if _ODD[table.x[g] & table.z[g]] else 1)
            halves = ((eye + h) / 2, (eye - h) / 2)
            states = [s @ half for s in states for half in halves]
        self.flips = flips
        self.states = np.array(states)
        words = pauli_words(fld.m)[table.pauli[self.ray[1:]]]
        traces = np.einsum("dab,kba->dk", self.states, words, optimize=True)
        self.signs = np.where(traces.real > 0, 1, -1)
        if not np.array_equal(traces, self.signs):
            raise NetConstructionError(
                f"striation {self.striation_id}: ray word traces are not all +-1"
            )


def build_eigensystems(space: PhaseSpace, table: TranslationTable) -> tuple:
    """One eigensystem per striation, in canonical striation order."""
    return tuple(
        StriationEigensystem(space, st, table) for st in space.striations
    )
