"""The N x N discrete phase-space grid, its lines and striations, as
integer tables over point indices.

A point (q, p) of field elements has the index alpha = q * N + p (row-major
in q).  Field addition is XOR of the coefficient masks, so translating a
point by beta is alpha ^ beta.  A line is the solution set of
a*q + b*p = c; fixing (a, b) and varying c gives a striation of N parallel
lines, and the c = 0 line of each striation is its ray (Gibbons, Hoffman
& Wootters, PRA 70, 062101 (2004)).

A striation is labelled by its ray generator (a, b): the ray is the point
set {t * (a, b) : t in F_N}, which satisfies the equation b*q + a*p = 0.
Labelling by the generator rather than the equation keeps the striation's
translation group T_{t(a,b)} acting along its own lines.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .errors import check_int
from .ffield import GF2m


class PhaseSpace:
    """All N(N+1) lines of the grid, grouped into N+1 striations.

    Canonical striation order by ray generator: vertical (0,1) first, then
    horizontal (1,0), then (1, w^k) for k = 0 .. N-2 in increasing power of
    the primitive element w.  Net identifiers depend on this order.

    The read-only tables, built from the field's N x N table of products:
    `offsets[s, alpha]` is the c of striation s's line through point alpha,
    b*q + a*p for the generator (a, b); `lines[s, c]` holds that line's N
    points in ascending order, so `lines[s, c, 0]` is the line's smallest
    point, the canonical shift that moves the ray onto it; `rays[s, t]` is
    the point t*(a, b), in field-element order.
    """

    def __init__(self, fld: GF2m) -> None:
        self.field = fld
        self.order = n = fld.order

        mul = fld.products
        # w = 2 is the primitive element; its powers w^0 .. w^(N-2)
        powers = accumulate(range(n - 2), lambda w, _: mul[w, 2], initial=1)
        directions = [(0, 1), (1, 0)] + [(1, int(w)) for w in powers]
        self.directions = tuple(directions)

        a, b = np.array(directions).T
        q, p = np.divmod(np.arange(n * n), n)
        # the ray {t(a,b)} satisfies b*q + a*p = 0
        self.offsets = mul[b][:, q] ^ mul[a][:, p]
        # a stable sort keeps each line's points ascending
        self.lines = np.argsort(self.offsets, axis=1, kind="stable").reshape(n + 1, n, n)
        self.rays = mul[a] * n + mul[b]
        for table in (self.offsets, self.lines, self.rays):
            table.flags.writeable = False

    def lines_through(self, alpha: int) -> np.ndarray:
        """The N+1 lines containing point `alpha` as an (N+1, N) array of
        point indices, row s the line of striation s."""
        alpha = check_int(alpha, 0, self.order**2, "point index")
        return self.lines[np.arange(self.order + 1), self.offsets[:, alpha]]
