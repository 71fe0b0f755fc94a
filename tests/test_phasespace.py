import numpy as np
import pytest

from dwfnet import GF2m, PhaseSpace


def space(m):
    return PhaseSpace(GF2m(m))


def test_striation_count_and_sizes():
    for m in [1, 2, 3]:
        ps = space(m)
        n = ps.field.order
        assert ps.offsets.shape == (n + 1, n * n)
        assert ps.lines.shape == (n + 1, n, n)  # N lines of N points each
        assert ps.rays.shape == (n + 1, n)


def test_n2_counts():
    ps = space(1)
    assert len(ps.lines) == 3
    assert len(ps.lines.reshape(-1, 2)) == 6


def test_canonical_direction_order():
    # vertical (0,1), horizontal (1,0), then (1, omega^k) with k increasing
    ps = space(2)
    assert ps.directions == ((0, 1), (1, 0), (1, 1), (1, 2), (1, 3))
    ps = space(1)
    assert ps.directions == ((0, 1), (1, 0), (1, 1))


def test_line_partition():
    # each striation is a partition of the N^2 points
    for m in [1, 2]:
        ps = space(m)
        n = ps.field.order
        for lines in ps.lines:
            assert np.array_equal(np.sort(lines.ravel()), np.arange(n * n))


def test_two_lines_same_striation_disjoint():
    ps = space(2)
    for lines in ps.lines:
        for i, la in enumerate(lines):
            for lb in lines[i + 1 :]:
                assert not np.intersect1d(la, lb).size


def test_lines_through_point():
    # N+1 lines through any point, one per striation, in striation order
    for m in [1, 2]:
        ps = space(m)
        n = ps.field.order
        for alpha in range(n * n):
            through = ps.lines_through(alpha)
            assert through.shape == (n + 1, n)
            for s, line in enumerate(through):
                assert alpha in line
                assert np.array_equal(line, ps.lines[s, ps.offsets[s, alpha]])


def test_ray_contains_origin():
    for m in [1, 2, 3]:
        ps = space(m)
        assert not ps.rays[:, 0].any()  # 0 * (a, b) is the origin
        assert not ps.lines[:, 0, 0].any()  # the c = 0 line starts there


def test_ray_is_generated_by_direction():
    # the ray of striation (a, b) is exactly {s*(a,b) : s in field}, and it
    # is the c = 0 line of its striation
    for m in [1, 2]:
        ps = space(m)
        f = ps.field
        n = f.order
        for s, (a, b) in enumerate(ps.directions):
            expected = {f.mul(t, a) * n + f.mul(t, b) for t in f.elements()}
            assert set(ps.rays[s].tolist()) == expected
            assert np.array_equal(np.sort(ps.rays[s]), ps.lines[s, 0])


def test_translate_point_gf4():
    # (1, 0) shifted by (omega, omega^2) lands on (omega^2, omega^2): the
    # point indices 1*4 + 0 and 2*4 + 3 XOR to 3*4 + 3
    assert divmod((1 * 4 + 0) ^ (2 * 4 + 3), 4) == (3, 3)


def test_translation_permutes_each_striation():
    ps = space(2)
    n = ps.field.order
    for lines, offsets in zip(ps.lines, ps.offsets):
        for beta in range(n * n):
            images = set()
            for line in lines:
                offs = set(offsets[line ^ beta].tolist())
                assert len(offs) == 1
                images.add(offs.pop())
            assert images == set(range(n))


def test_point_index_rowmajor():
    # alpha = q * N + p: the vertical striation's offset is q and the
    # horizontal one's is p, and their rays run along p and along q
    ps = space(2)
    alpha = np.arange(16)
    assert np.array_equal(ps.offsets[0], alpha // 4)
    assert np.array_equal(ps.offsets[1], alpha % 4)
    assert ps.rays[0].tolist() == [0, 1, 2, 3]  # (0, t)
    assert ps.rays[1].tolist() == [0, 4, 8, 12]  # (t, 0)
    assert ps.lines[1, 1].tolist() == [1, 5, 9, 13]  # p = 1


def test_representative_shift_lands_on_line():
    for m in [1, 2]:
        ps = space(m)
        for s, lines in enumerate(ps.lines):
            for c, line in enumerate(lines):
                shift = line[0]
                assert shift == line.min()
                assert ps.offsets[s, shift] == c
                # shifting the ray by it reproduces the line
                assert np.array_equal(np.sort(ps.rays[s] ^ shift), line)


def test_line_offset_matches_membership():
    ps = space(2)
    for s, lines in enumerate(ps.lines):
        for alpha in range(16):
            c = ps.offsets[s, alpha]
            assert alpha in lines[c]
            assert sum(alpha in line for line in lines) == 1


def test_tables_are_read_only():
    ps = space(2)
    for table in (ps.offsets, ps.lines, ps.rays):
        with pytest.raises(ValueError):
            table[0] = 0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_tables_match_field_arithmetic(m):
    # an independent oracle: every table entry from GF2m calls alone
    f = GF2m(m)
    ps = PhaseSpace(f)
    n = f.order
    for s, (a, b) in enumerate(ps.directions):
        for q in f.elements():
            for p in f.elements():
                assert ps.offsets[s, q * n + p] == f.add(f.mul(b, q), f.mul(a, p))
        for t in f.elements():
            assert ps.rays[s, t] == f.mul(t, a) * n + f.mul(t, b)
    for alpha in range(n * n):
        for beta in range(n * n):
            (q1, p1), (q2, p2) = divmod(alpha, n), divmod(beta, n)
            assert alpha ^ beta == f.add(q1, q2) * n + f.add(p1, p2)
