"""Phase-space translation operators and the striation eigensystems.

The operator attached to the shift (q, p) is the Pauli word
X^{q_1} Z^{p_1} (x) ... (x) X^{q_n} Z^{p_n}, with q expanded in the
polynomial basis and p in its trace-dual.  That basis pairing makes the N
operators of each striation pairwise commute, so each striation carries a
joint eigenbasis; the N+1 bases are mutually unbiased.

Each translation is also kept as its X and Z bit masks.  Commutation is then
the GF(2) symplectic form of the masks, and the eigenbases are exact
stabilizer projectors (Aaronson & Gottesman, quant-ph/0406196), so no
eigensolver and no floating-point comparison decides any ordering.
"""

from __future__ import annotations

import numpy as np

from .errors import NonCommutingError
from .phasespace import PhaseSpace, Point, Striation

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_SINGLE = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): _X,
    (0, 1): _Z,
    (1, 1): _X @ _Z,
}
# parity of every mask below 2^5, the largest supported qubit count
_ODD = np.array([bin(v).count("1") & 1 for v in range(32)], dtype=np.int64)


def _pauli_word(qbits, pbits) -> np.ndarray:
    mat = np.array([[1.0 + 0.0j]])
    for qi, pi in zip(qbits, pbits):
        mat = np.kron(mat, _SINGLE[(qi, pi)])
    return mat


def _mask(bits) -> int:
    """Bit mask of a per-qubit 0/1 tuple, qubit 0 most significant."""
    return int("".join(map(str, bits)), 2)


def translation_matrix(fld, pt: Point) -> np.ndarray:
    """Unitary matrix of the translation operator at shift `pt`."""
    return _pauli_word(fld.expand(pt.q), fld.expand(pt.p, dual=True))


class TranslationTable:
    """All N^2 translation operators for one field, indexed by point index.

    `x[alpha]` and `z[alpha]` are the X and Z bit masks of the Pauli word
    at point index alpha.
    """

    def __init__(self, space: PhaseSpace) -> None:
        self.space = space
        fld = space.field
        # expansion is GF(2)-linear: expand each field element once
        qbits = [fld.expand(a) for a in fld.elements()]
        pbits = [fld.expand(a, dual=True) for a in fld.elements()]
        self.matrices = tuple(
            _pauli_word(qbits[pt.q], pbits[pt.p]) for pt in space.points
        )
        n = space.order
        self.x = np.repeat([_mask(b) for b in qbits], n)
        self.z = np.tile([_mask(b) for b in pbits], n)

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

    `ops[s]` is T_{s(a,b)} for the field element s.  The group is generated
    by g_i = T_{s_i(a,b)} with s_i the i-th polynomial basis element, and
    `states[d]` is the exact stabilizer projector

        prod_i (I + (-1)^{bit_i(d)} g_i / lambda_i) / 2,

    with lambda_i = 1 or i as g_i^2 = +I or -I and bit 0 the most
    significant bit of d.  Bit 0 picks the eigenvalue +lambda_i, bit 1 picks
    -lambda_i, so the states run in ascending lexicographic order of the
    generators' eigenvalue phases.  `states` is an (N, N, N) array.

    `flips[alpha]` holds the bits of d that the translation with point
    index alpha flips, one commutation bit per generator:
    T_alpha P_d T_alpha^dag = P_{d ^ flips[alpha]}.
    """

    def __init__(self, space: PhaseSpace, striation: Striation,
                 table: TranslationTable) -> None:
        fld = space.field
        self.striation_id = striation.striation_id
        a, b = striation.a, striation.b
        ray = [
            space.point_index(Point(fld.mul(s, a), fld.mul(s, b)))
            for s in fld.elements()
        ]
        self.ops = tuple(table.matrices[i] for i in ray)
        gens = np.array([ray[s] for s in fld.basis])
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


def build_eigensystems(space: PhaseSpace, table: TranslationTable) -> tuple:
    """One eigensystem per striation, in canonical striation order."""
    return tuple(
        StriationEigensystem(space, st, table) for st in space.striations
    )
