"""Certification of the defining properties, with counterexample witnesses.

A set is a minimal percolating set (MinPS) iff it percolates and no single
deletion still percolates; by monotonicity of the closure, checking single
deletions suffices.  This holds on grids and, under the 2-neighbour rule,
on [n]^d lattices.  A MinPS is corner-avoiding iff every single deletion
also leaves both 2x2 corner rectangles (top-left and bottom-right)
completely uninfected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .grid import GridDims, LatticeSet, Point, PointSet, Rect
from .percolate import cell_index, index_closure

OK = "ok"
NOT_PERCOLATING = "not-percolating"
REDUNDANT_POINT = "redundant-point"
CORNER_REACHED = "corner-reached"


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: Point | tuple[int, ...] | None
    detail: str

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class Corners:
    """The two protected corner rectangles of a grid."""

    jl: Rect
    jr: Rect


def corners(dims: GridDims) -> Corners:
    m, n = dims
    if m < 2 or n < 2:
        raise DomainError(f"corners need at least a 2x2 grid, got {dims}")
    return Corners(
        jl=Rect(Point(1, n - 1), Point(2, n)),
        jr=Rect(Point(m - 1, 1), Point(m, 2)),
    )


def corner_cells(dims: GridDims) -> frozenset[Point]:
    c = corners(dims)
    return frozenset(c.jl.cells()) | frozenset(c.jr.cells())


def is_minps(ps: PointSet | LatticeSet) -> Verdict:
    """Certify that ``ps`` (a grid set, or a lattice set under the 2-neighbour
    rule) is a minimal percolating set.

    On failure the verdict carries the first witness in lexicographic point
    order: None for a set that does not percolate at all, or the point whose
    deletion still percolates.
    """
    return _certify(ps, ())


def is_corner_avoiding_minps(ps: PointSet) -> Verdict:
    """Certify minimality plus corner avoidance in one pass over deletions."""
    return _certify(ps, [cell_index(ps.dims, p) for p in corner_cells(ps.dims)])


def _certify(s: PointSet | LatticeSet, corner_idx) -> Verdict:
    """The one deletion loop: percolation, then each single deletion in point
    order, failing on a deletion that percolates or infects a corner cell."""
    dims = s.dims
    cells = dims.cells
    close = index_closure(dims)
    points = sorted(s.points)
    seeds = [cell_index(dims, p) for p in points]
    _, count = close(seeds)
    if count != cells:
        return Verdict(False, None, NOT_PERCOLATING)
    for i, p in enumerate(points):
        flags, count = close(seeds[:i] + seeds[i + 1:])
        if count == cells:
            return Verdict(False, p, REDUNDANT_POINT)
        if any(flags[c] for c in corner_idx):
            return Verdict(False, p, CORNER_REACHED)
    return Verdict(True, None, OK)
