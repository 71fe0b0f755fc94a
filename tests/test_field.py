import hashlib

import numpy as np
import pytest

from dwfnet import GF2m
from dwfnet.errors import FieldDomainError, UnsupportedDimensionError
from dwfnet.ffield import _IRREDUCIBLE


def test_supported_extensions():
    for m in [1, 2, 3, 4, 5]:
        fld = GF2m(m)
        assert fld.order == 2**m
    with pytest.raises(UnsupportedDimensionError):
        GF2m(6)
    with pytest.raises(UnsupportedDimensionError):
        GF2m(0)


def test_gf4_multiplication_table():
    # x^2 + x + 1: omega = 2, omega^2 = 3
    fld = GF2m(2)
    assert fld.mul(2, 2) == 3
    assert fld.mul(2, 3) == 1
    assert fld.mul(3, 3) == 2
    assert fld.add(2, 3) == 1


def test_field_axioms_exhaustive():
    for m in [1, 2, 3]:
        fld = GF2m(m)
        els = list(fld.elements())
        for a in els:
            assert fld.add(a, a) == 0
            assert fld.mul(a, 1) == a
            assert fld.mul(a, 0) == 0
            for b in els:
                assert fld.mul(a, b) == fld.mul(b, a)
                for c in els:
                    left = fld.mul(a, fld.add(b, c))
                    right = fld.add(fld.mul(a, b), fld.mul(a, c))
                    assert left == right


def test_inverses():
    for m in [1, 2, 3, 4, 5]:
        fld = GF2m(m)
        for a in range(1, fld.order):
            assert fld.mul(a, fld.inv(a)) == 1
    with pytest.raises(FieldDomainError):
        GF2m(2).inv(0)


def test_domain_checks():
    fld = GF2m(2)
    with pytest.raises(FieldDomainError):
        fld.mul(4, 1)
    with pytest.raises(FieldDomainError):
        fld.add(-1, 1)
    # the tables are numpy arrays, where index -1 would read the last row
    for call in (
        lambda: fld.mul(-1, 1),
        lambda: fld.trace(-1),
        lambda: fld.expand(-1),
        lambda: fld.pow(-1, 2),
        lambda: fld.inv(-1),
    ):
        with pytest.raises(FieldDomainError):
            call()
    # a bool or float zero is refused as a non-integer, not as zero
    for zero in (False, 0.0):
        with pytest.raises(FieldDomainError, match="is not an integer"):
            fld.inv(zero)
    # e >>= 1 never reaches 0 from a negative e, and e = 0 makes no product
    with pytest.raises(FieldDomainError):
        fld.pow(2, -1)
    with pytest.raises(FieldDomainError):
        fld.pow(4, 0)


def test_trace_gf4():
    fld = GF2m(2)
    assert fld.trace(0) == 0
    assert fld.trace(1) == 0
    assert fld.trace(2) == 1
    assert fld.trace(3) == 1


def test_trace_is_additive_and_binary():
    for m in [2, 3, 4]:
        fld = GF2m(m)
        for a in fld.elements():
            assert fld.trace(a) in (0, 1)
            for b in fld.elements():
                assert fld.trace(fld.add(a, b)) == fld.trace(a) ^ fld.trace(b)


def test_gf4_dual_basis():
    # polynomial basis {1, omega}; its trace-dual is {omega^2, 1}
    fld = GF2m(2)
    assert fld.basis == (1, 2)
    assert fld.dual_basis == (3, 1)


def test_dual_basis_pairing():
    for m in [1, 2, 3, 4, 5]:
        fld = GF2m(m)
        for i, e in enumerate(fld.basis):
            for j, f in enumerate(fld.dual_basis):
                assert fld.trace(fld.mul(e, f)) == (1 if i == j else 0)


def test_expand_examples():
    fld = GF2m(2)
    # omega^2 = 1 + omega in the polynomial basis
    assert fld.expand(3) == (1, 1)
    # 1 = 0*omega^2 + 1*1 in the dual basis
    assert fld.expand(1, dual=True) == (0, 1)


def test_expand_compose_roundtrip():
    for m in [2, 3, 4]:
        fld = GF2m(m)
        for a in fld.elements():
            for dual in (False, True):
                coeffs = fld.expand(a, dual=dual)
                assert all(c in (0, 1) for c in coeffs)
                assert fld.compose(coeffs, dual=dual) == a


# -- independent scalar oracles for the vectorised tables ----------------


def _scalar_mul(a, b, m):
    """Carry-less product of a and b reduced modulo _IRREDUCIBLE[m]."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        a <<= 1
        if a & (1 << m):
            a ^= _IRREDUCIBLE[m]
        b >>= 1
    return p


def _scalar_trace(a, m):
    """Frobenius sum a + a^2 + ... + a^(2^(m-1))."""
    t, x = 0, a
    for _ in range(m):
        t ^= x
        x = _scalar_mul(x, x, m)
    return t


def _searched_dual_basis(m):
    """The trace-dual of the polynomial basis by exhaustive search."""
    basis = [1 << i for i in range(m)]
    dual = []
    for j in range(m):
        hits = [
            f
            for f in range(1 << m)
            if all(
                _scalar_trace(_scalar_mul(e, f, m), m) == (i == j)
                for i, e in enumerate(basis)
            )
        ]
        assert len(hits) == 1
        dual.append(hits[0])
    return tuple(dual)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_tables_match_scalar_oracles(m):
    fld = GF2m(m)
    n = fld.order
    expected = [[_scalar_mul(a, b, m) for b in range(n)] for a in range(n)]
    assert fld.products.tolist() == expected
    assert fld.traces.tolist() == [_scalar_trace(a, m) for a in range(n)]
    assert fld.dual_basis == _searched_dual_basis(m)
    assert not fld.products.flags.writeable and not fld.traces.flags.writeable


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_expansions_table_matches_expand(m):
    fld = GF2m(m)
    for dual in (False, True):
        table = fld.expansions(dual)
        assert table.shape == (fld.order, m)
        assert [tuple(row) for row in table.tolist()] == [
            fld.expand(a, dual=dual) for a in fld.elements()
        ]


def test_field_tables_fingerprint():
    # products, traces and dual_basis as int64, m = 1..5 in order
    digest = hashlib.sha256()
    for m in [1, 2, 3, 4, 5]:
        fld = GF2m(m)
        for table in (fld.products, fld.traces, fld.dual_basis):
            digest.update(np.ascontiguousarray(table, dtype=np.int64).tobytes())
    assert digest.hexdigest() == (
        "4781ca53dc0e0184b99750ca607613940c93743fecd74acc8f7d5cc2bce66773"
    )
