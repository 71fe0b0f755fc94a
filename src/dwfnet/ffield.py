"""Arithmetic in GF(2^m) with a fixed polynomial basis and its trace-dual.

Elements are plain non-negative integers below 2^m whose binary digits are
the coefficients over the polynomial basis {1, w, ..., w^(m-1)}, where w is
a root of the defining irreducible polynomial.  Addition is XOR.

One irreducible polynomial is fixed per degree so that every derived object
(phase-space point indices, net identifiers) is reproducible:

    m=1 : x            -> 0b10     = 2   (prime field GF(2))
    m=2 : x^2 + x + 1  -> 0b111    = 7
    m=3 : x^3 + x + 1  -> 0b1011   = 11
    m=4 : x^4 + x + 1  -> 0b10011  = 19
    m=5 : x^5 + x^2 + 1-> 0b100101 = 37
"""

from __future__ import annotations

import numpy as np

from .errors import FieldDomainError, UnsupportedDimensionError, ValidationError, check_int

_IRREDUCIBLE = {
    1: 0b10,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
}
SUPPORTED_DEGREES = tuple(_IRREDUCIBLE)  # contiguous, 1..5


def check_degree(m, what: str = "qubit count n", error: type = ValidationError) -> int:
    """`m` as an int if it is one of SUPPORTED_DEGREES, else raise `error`."""
    return check_int(m, SUPPORTED_DEGREES[0], SUPPORTED_DEGREES[-1] + 1, what, error)


class GF2m:
    """The finite field GF(2^m) for 1 <= m <= 5.

    Attributes
    ----------
    m : extension degree (qubits per phase-space axis).
    order : number of elements N = 2^m.
    poly : bit mask of the defining irreducible polynomial.
    basis : the polynomial basis (1, w, w^2, ...) as integers.
    products : read-only (N, N) table, products[a, b] = a * b.
    traces : read-only (N,) table, traces[a] = trace(a), always 0 or 1.
    dual_basis : the unique basis dual under the trace form, i.e.
        trace(basis[i] * dual_basis[j]) == (i == j).
    """

    def __init__(self, m: int) -> None:
        self.m = m = check_degree(m, "extension degree m", UnsupportedDimensionError)
        self.order = n = 1 << m
        self.poly = _IRREDUCIBLE[m]
        self.basis = tuple(1 << i for i in range(m))
        # carry-less product, reduced modulo poly: add a * w^i for every bit
        # i of b, with a * w^i one shift-and-reduce step from a * w^(i-1)
        elements = np.arange(n)
        shifted = elements
        self.products = np.zeros((n, n), dtype=np.int64)
        for i in range(m):
            self.products ^= shifted[:, None] * ((elements >> i) & 1)
            shifted = (shifted << 1) ^ np.where(shifted & (n >> 1), self.poly, 0)
        # trace(a) = sum of a^(2^i) for i < m
        self.traces = np.zeros(n, dtype=np.int64)
        power = elements
        for _ in range(m):
            self.traces ^= power
            power = self.products[power, power]
        for table in (self.products, self.traces):
            table.flags.writeable = False
        # bit i of pairing[f] is trace(basis[i] * f); dual element j is the
        # one f that pairs to 1 with basis element j alone
        pairing = self.traces[self.products[:, list(self.basis)]] @ (1 << np.arange(m))
        for j in range(m):
            if np.count_nonzero(pairing == 1 << j) != 1:
                raise FieldDomainError(f"dual basis element {j} not unique for m={m}")
        self.dual_basis = tuple(int(np.argmax(pairing == 1 << j)) for j in range(m))

    # -- core arithmetic ------------------------------------------------

    def _check(self, a) -> int:
        """`a` as an int if it is an element of the field, else raise."""
        return check_int(a, 0, self.order, "field element", FieldDomainError)

    def add(self, a: int, b: int) -> int:
        """Field addition (characteristic 2, so XOR of coefficient masks)."""
        return self._check(a) ^ self._check(b)

    def mul(self, a: int, b: int) -> int:
        """Carry-less polynomial product reduced modulo the defining polynomial."""
        return int(self.products[self._check(a), self._check(b)])

    def pow(self, a: int, e: int) -> int:
        """a**e by square and multiply; 0**0 == 1 by convention."""
        a = self._check(a)
        e = check_int(e, 0, float("inf"), "exponent", FieldDomainError)
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        """Multiplicative inverse via a^(2^m - 2)."""
        if self._check(a) == 0:
            raise FieldDomainError("zero has no multiplicative inverse")
        return self.pow(a, self.order - 2)

    def trace(self, a: int) -> int:
        """Field trace to GF(2): sum of a^(2^i) for i < m.  Always 0 or 1."""
        return int(self.traces[self._check(a)])

    # -- basis expansions ------------------------------------------------

    def expansions(self, dual: bool = False) -> np.ndarray:
        """(N, m) table of every element's coefficients over the primal (or
        dual) basis, as 0/1 ints, read off the current bases.

        The coefficient of basis vector b_i is trace(a * f_i) where {f_i} is
        the opposite basis; this round-trips exactly with :meth:`compose`.
        """
        against = self.basis if dual else self.dual_basis
        return self.traces[self.products[:, list(against)]]

    def expand(self, a: int, dual: bool = False) -> tuple:
        """Coefficients of `a` over the primal (or dual) basis, as 0/1 ints."""
        return tuple(self.expansions(dual)[self._check(a)].tolist())

    def compose(self, coeffs, dual: bool = False) -> int:
        """Rebuild the element from its coefficient vector."""
        which = self.dual_basis if dual else self.basis
        a = 0
        for c, b in zip(coeffs, which):
            if c:
                a ^= b
        return a

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self) -> str:  # pragma: no cover
        return f"GF2m(m={self.m}, poly={bin(self.poly)})"

    def __eq__(self, other) -> bool:
        return isinstance(other, GF2m) and other.m == self.m

    def __hash__(self) -> int:
        return hash(("GF2m", self.m))
