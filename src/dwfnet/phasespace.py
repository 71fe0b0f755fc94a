"""The N x N discrete phase-space grid, its lines and striations.

Points are ordered pairs (q, p) of field elements; the flat index of a point
is int(q) * N + int(p) (row-major in q).  A line is the solution set of
a*q + b*p = c; fixing (a, b) and varying c gives a striation of N parallel
lines, and the c = 0 line of each striation is its ray.

A striation is labelled by its ray generator (a, b): the ray is the point
set {s * (a, b) : s in F_N}, which satisfies the equation b*q + a*p = 0.
Labelling by the generator rather than the equation keeps the striation's
translation group T_{s(a,b)} acting along its own lines.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ffield import GF2m


@dataclass(frozen=True)
class Point:
    q: int
    p: int

    def index(self, n_order: int) -> int:
        return self.q * n_order + self.p


@dataclass(frozen=True)
class Line:
    a: int  # equation coefficients: a*q + b*p = c
    b: int
    c: int
    striation_id: int
    points: tuple  # N Point instances, ascending point index

    def __contains__(self, pt: Point) -> bool:
        return pt in self.points


@dataclass(frozen=True)
class Striation:
    striation_id: int
    a: int  # ray generator: ray = {s*(a, b)}
    b: int
    lines: tuple  # N Line instances indexed by c

    @property
    def ray(self) -> Line:
        return self.lines[0]


class PhaseSpace:
    """All N(N+1) lines of the grid, grouped into N+1 striations.

    Canonical striation order by ray generator: vertical (0,1) first, then
    horizontal (1,0), then (1, w^k) for k = 0 .. N-2 in increasing power of
    the primitive element w.  Net identifiers depend on this order.
    """

    def __init__(self, fld: GF2m) -> None:
        self.field = fld
        self.order = fld.order
        n = self.order

        # w = 2 is the primitive element
        directions = [(0, 1), (1, 0)] + [(1, fld.pow(2, k)) for k in range(n - 1)]
        self.directions = tuple(directions)

        mul = [[fld.mul(a, b) for b in range(n)] for a in range(n)]
        grid = [Point(q, p) for q in range(n) for p in range(n)]
        striations = []
        for sid, (a, b) in enumerate(directions):
            # the ray {s(a,b)} satisfies b*q + a*p = 0
            members = [[] for _ in range(n)]
            for pt in grid:
                members[mul[b][pt.q] ^ mul[a][pt.p]].append(pt)
            assert all(len(pts) == n for pts in members)
            lines = [Line(b, a, c, sid, tuple(pts)) for c, pts in enumerate(members)]
            striations.append(Striation(sid, a, b, tuple(lines)))
        self.striations = tuple(striations)

    @property
    def points(self):
        n = self.order
        return tuple(Point(q, p) for q in range(n) for p in range(n))

    def point_index(self, pt: Point) -> int:
        return pt.index(self.order)

    def lines_through(self, pt: Point) -> tuple:
        """The N+1 lines containing `pt`, in striation order."""
        return tuple(
            st.lines[self.line_offset(st.striation_id, pt)] for st in self.striations
        )

    def translate_point(self, pt: Point, beta: Point) -> Point:
        """Component-wise field addition (characteristic 2: self-inverse)."""
        return Point(self.field.add(pt.q, beta.q), self.field.add(pt.p, beta.p))

    def line_offset(self, striation_id: int, pt: Point) -> int:
        """The c value of the striation's line through `pt`."""
        st = self.striations[striation_id]
        f = self.field
        ray = st.ray
        return f.add(f.mul(ray.a, pt.q), f.mul(ray.b, pt.p))

    def representative_shift(self, striation_id: int, c: int) -> Point:
        """Lexicographically smallest point on line c of the striation.

        Translating the ray by this shift yields the line; translational
        covariance of net projectors makes the particular choice immaterial,
        the lexicographic rule just pins one canonical build.
        """
        return self.striations[striation_id].lines[c].points[0]
