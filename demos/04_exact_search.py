"""Exhaustive answers on small grids.

The search grows seed sets depth-first as bitmasks in lexicographic order,
and cuts a branch at its first redundant seed, at a row or column
that can no longer fill, or once the set percolates.  For the largest
minimal sets, one pass per first cell serves every size: after each hit it
looks only for larger sets.  The answer is certified exact when no part of
the search ran out of budget.  Thin grids follow clean closed formulas;
the first genuinely 2D case already springs a surprise.
"""

from minps import (
    GridDims,
    LatticeDims,
    max_corner_avoiding,
    max_minps,
    min_percolating,
    monotonicity_table,
    render,
)

print("largest MinPS sizes (exact):")
table = monotonicity_table(7, 2)
print("   n=1:", [table[(m, 1)] for m in range(1, 8)], "  (formula floor(2(m+1)/3))")
print("   n=2:", [table[(m, 2)] for m in range(1, 8)], "  (formula floor(2(m+2)/3))")
print()

res = max_minps(GridDims(4, 4))
print(f"4x4: the volume bound (m+2)(n+2)/6 allows 6, but the exact answer "
      f"is {res.value} ({res.nodes} nodes searched):")
print(render(res.witness))
print()

print("smallest percolating sets:")
for n in range(2, 6):
    print(f"  {n}x{n}: {min_percolating(GridDims(n, n)).value}")
print(f"  [2]^3: {min_percolating(LatticeDims(2, 3)).value}")
print(f"  [3]^3: {min_percolating(LatticeDims(3, 3)).value}")
print()

print("largest corner-avoiding MinPS (0 = none exists):")
for m, n in [(2, 2), (3, 3), (4, 3), (4, 4)]:
    print(f"  {m}x{n}: {max_corner_avoiding(GridDims(m, n)).value}")
print("4x4 is the first square to admit one, a pinwheel:")
print(render(max_corner_avoiding(GridDims(4, 4)).witness))
