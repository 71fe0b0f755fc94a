"""Tour of the finite-field layer and the N x N phase-space geometry.

Run with:  python demos/01_field_and_phase_space.py
"""

import numpy as np

from dwfnet import GF2m, PhaseSpace

# --- GF(4) arithmetic --------------------------------------------------
fld = GF2m(2)
names = {0: "0", 1: "1", 2: "w", 3: "w^2"}
print("GF(4) multiplication table (w = primitive root of x^2 + x + 1):")
for a in fld.elements():
    row = [names[fld.mul(a, b)] for b in fld.elements()]
    print(f"  {names[a]:>3} | " + " ".join(f"{x:>3}" for x in row))

print("\ntrace values:", {names[a]: fld.trace(a) for a in fld.elements()})
print("polynomial basis:", [names[e] for e in fld.basis])
print("trace-dual basis:", [names[e] for e in fld.dual_basis])

# --- the 4 x 4 phase space ---------------------------------------------
# points are indices alpha = q * 4 + p; translating by beta is alpha ^ beta
ps = PhaseSpace(fld)
print(f"\n{ps.order} x {ps.order} phase space: {len(ps.directions)} striations")
for sid, (a, b) in enumerate(ps.directions):
    print(f"  striation {sid}: ray direction ({names[a]}, {names[b]})")

# every striation partitions the grid into parallel lines: offsets[s, alpha]
# is the index of striation s's line through alpha
sid = 2
print(f"\nlines of striation {sid} as offset grids (value = line index):")
print(ps.offsets[sid].reshape(4, 4))

# any two lines from different striations intersect in exactly one point:
# each pair of line indices (c_a, c_b) occurs at exactly one alpha
counts = set()
for sa in range(len(ps.directions)):
    for sb in range(sa + 1, len(ps.directions)):
        pairs = ps.offsets[sa] * ps.order + ps.offsets[sb]
        counts.update(np.bincount(pairs, minlength=ps.order**2).tolist())
print("\npairwise intersection sizes across striations:", counts)
