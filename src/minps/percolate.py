"""Bootstrap dynamics: 2-neighbour closures on grids, r-neighbour closures on lattices.

The closure is computed with a counter-based breadth-first search: a cell
enters the work queue exactly once, when its infected-neighbour count
reaches the threshold, so one computation costs O(cells + edges).  The
queue is processed in layers, which makes ``generations`` (the number of
synchronous infection rounds until the fixpoint) fall out for free.

This module alone knows the flat cell layout and the cell cap; other
modules work on flat indices through ``cell_index``, ``cell_at`` and
``index_closure``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

from .errors import DomainError, EngineError, ResourceLimitError
from .grid import GridDims, LatticeDims, LatticeSet, Point, PointSet, Rect

DEFAULT_CELL_CAP = 10_000_000
CELL_CAP_ENV = "MINPS_CELL_CAP"

# Offsets at taxicab distance <= 2; two infected regions interact under the
# 2-neighbour rule iff some pair of their cells is this close.
_INTERACTION_OFFSETS = tuple(
    (dx, dy)
    for dx in range(-2, 3)
    for dy in range(-2, 3)
    if 0 < abs(dx) + abs(dy) <= 2
)


@dataclass(frozen=True)
class Closure:
    """The eventually-infected set for a seed, plus the round count to reach it."""

    dims: GridDims
    infected: PointSet
    generations: int


@dataclass(frozen=True)
class RectDecomposition:
    """A closure written as pairwise-distant maximal rectangles."""

    rects: tuple[Rect, ...]

    @property
    def covered(self) -> int:
        return sum(r.size for r in self.rects)


@lru_cache(maxsize=32)
def _neighbour_table(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    # Cell index is (x-1)*n + (y-1), so index order equals (x, y) lex order.
    table = []
    for x in range(1, m + 1):
        for y in range(1, n + 1):
            i = (x - 1) * n + (y - 1)
            nbrs = []
            if y > 1:
                nbrs.append(i - 1)
            if y < n:
                nbrs.append(i + 1)
            if x > 1:
                nbrs.append(i - n)
            if x < m:
                nbrs.append(i + n)
            table.append(tuple(nbrs))
    return tuple(table)


def _close(m: int, n: int, seeds: Iterable[int]) -> tuple[bytearray, int, int]:
    """Core fixpoint loop on flat cell indices. Returns (flags, count, generations)."""
    nbrs = _neighbour_table(m, n)
    size = m * n
    infected = bytearray(size)
    touched = bytearray(size)  # cell already has exactly one infected neighbour
    frontier: list[int] = []
    push = frontier.append
    for i in seeds:
        if not infected[i]:
            infected[i] = 1
            push(i)
    count = len(frontier)
    generations = 0
    while frontier:
        nxt: list[int] = []
        push = nxt.append
        for u in frontier:
            for v in nbrs[u]:
                if not infected[v]:
                    if touched[v]:
                        infected[v] = 1
                        push(v)
                    else:
                        touched[v] = 1
        if nxt:
            generations += 1
            count += len(nxt)
        frontier = nxt
    return infected, count, generations


# --- flat cell indices -------------------------------------------------------


def cell_index(dims: GridDims | LatticeDims, p: tuple[int, ...]) -> int:
    """Flat index of cell ``p``.

    On an m x n grid it is (x-1)*n + (y-1), so index order is lexicographic
    point order; on [side]^dim the first coordinate varies fastest.
    """
    if isinstance(dims, GridDims):
        return (p[0] - 1) * dims.n + (p[1] - 1)
    i = 0
    for c in reversed(p):
        i = i * dims.side + (c - 1)
    return i


def cell_at(dims: GridDims | LatticeDims, i: int) -> Point | tuple[int, ...]:
    """The cell with flat index ``i``: the inverse of ``cell_index``."""
    if isinstance(dims, GridDims):
        return Point(i // dims.n + 1, i % dims.n + 1)
    side = dims.side
    coords = []
    for _ in range(dims.dim):
        coords.append(i % side + 1)
        i //= side
    return tuple(coords)


def _check(dims: GridDims | LatticeDims, r: int) -> None:
    if r < 1:
        raise DomainError(f"threshold must be >= 1, got {r}")
    if isinstance(dims, GridDims) and r != 2:
        raise DomainError(f"grids use the 2-neighbour rule only, got threshold {r}")
    cap = cell_cap()
    if dims.cells > cap:
        raise ResourceLimitError(
            f"{dims} has {dims.cells} cells, over the cap {cap} (override with {CELL_CAP_ENV})"
        )


def index_closure(
    dims: GridDims | LatticeDims, r: int = 2
) -> Callable[[Iterable[int]], tuple[bytearray, int]]:
    """Return ``close(seeds) -> (flags, count)`` over flat cell indices of ``dims``.

    The threshold and the cell cap are checked here, once, before any table
    is built; ``close`` then runs the grid or lattice engine on each call.
    """
    _check(dims, r)
    if isinstance(dims, GridDims):
        m, n = dims
        return lambda seeds: _close(m, n, seeds)[:2]
    side, dim = dims.side, dims.dim
    return lambda seeds: _lattice_close(side, dim, r, seeds)


def _seed_indices(ps: PointSet) -> list[int]:
    n = ps.dims.n
    return [(p.x - 1) * n + (p.y - 1) for p in ps.points]


def closure(ps: PointSet) -> Closure:
    """Least fixpoint containing ``ps`` under the 2-neighbour rule."""
    m, n = ps.dims
    _check(ps.dims, 2)
    flags, _, generations = _close(m, n, _seed_indices(ps))
    pts = frozenset(
        Point(i // n + 1, i % n + 1) for i, hit in enumerate(flags) if hit
    )
    return Closure(ps.dims, PointSet(ps.dims, pts), generations)


def percolates(ps: PointSet) -> bool:
    """True iff the closure of ``ps`` is the whole grid."""
    m, n = ps.dims
    if len(ps) == m * n:
        return True
    _, count = index_closure(ps.dims)(_seed_indices(ps))
    return count == m * n


def spans(x: PointSet, y: PointSet) -> bool:
    """True iff every point of ``y`` is eventually infected starting from ``x``."""
    if x.dims != y.dims:
        raise DomainError(f"spans needs matching dims, got {x.dims} and {y.dims}")
    flags, _ = index_closure(x.dims)(_seed_indices(x))
    return all(flags[cell_index(x.dims, p)] for p in y.points)


def internally_spans(x: PointSet, rect: Rect) -> bool:
    """True iff the part of ``x`` inside ``rect`` already spans all of ``rect``."""
    dims = x.dims
    if rect.lo not in dims or rect.hi not in dims:
        raise DomainError(f"rectangle [{rect.lo}, {rect.hi}] does not fit in {dims}")
    inside = [cell_index(dims, p) for p in x.points if p in rect]
    flags, _ = index_closure(dims)(inside)
    return all(flags[cell_index(dims, p)] for p in rect.cells())


def closure_rects(ps: PointSet) -> RectDecomposition:
    """Decompose the closure of ``ps`` into its maximal rectangles.

    The closure of any seed is a disjoint union of fully infected rectangles
    at pairwise taxicab distance >= 3.  Components are found by flood fill
    under distance-<=2 adjacency; each component's bounding box must then be
    completely infected, and that is checked at runtime.
    """
    m, n = ps.dims
    flags, _ = index_closure(ps.dims)(_seed_indices(ps))
    seen = bytearray(m * n)
    rects: list[Rect] = []
    for i, hit in enumerate(flags):
        if not hit or seen[i]:
            continue
        stack = [i]
        seen[i] = 1
        lo_x = hi_x = i // n + 1
        lo_y = hi_y = i % n + 1
        while stack:
            j = stack.pop()
            x, y = j // n + 1, j % n + 1
            lo_x, hi_x = min(lo_x, x), max(hi_x, x)
            lo_y, hi_y = min(lo_y, y), max(hi_y, y)
            for dx, dy in _INTERACTION_OFFSETS:
                nx, ny = x + dx, y + dy
                if 1 <= nx <= m and 1 <= ny <= n:
                    k = (nx - 1) * n + (ny - 1)
                    if flags[k] and not seen[k]:
                        seen[k] = 1
                        stack.append(k)
        rect = Rect(Point(lo_x, lo_y), Point(hi_x, hi_y))
        for cell in rect.cells():
            if not flags[cell_index(ps.dims, cell)]:
                raise EngineError(
                    f"closure component bounding box {rect} has uninfected cell {tuple(cell)}"
                )
        rects.append(rect)
    rects.sort(key=lambda r: r.lo)
    for i, a in enumerate(rects):
        for b in rects[i + 1:]:
            if a.distance(b) < 3:
                raise EngineError(f"closure rectangles {a} and {b} are too close")
    return RectDecomposition(tuple(rects))


# --- d-dimensional lattices -------------------------------------------------


def cell_cap() -> int:
    raw = os.environ.get(CELL_CAP_ENV)
    if raw is None:
        return DEFAULT_CELL_CAP
    try:
        return int(raw)
    except ValueError as exc:
        raise DomainError(f"{CELL_CAP_ENV} must be an integer, got {raw!r}") from exc


@lru_cache(maxsize=16)
def _lattice_neighbour_table(side: int, dim: int) -> tuple[tuple[int, ...], ...]:
    strides = [side ** k for k in range(dim)]
    table = []
    for i in range(side ** dim):
        nbrs = []
        for s in strides:
            c = (i // s) % side
            if c > 0:
                nbrs.append(i - s)
            if c < side - 1:
                nbrs.append(i + s)
        table.append(tuple(nbrs))
    return tuple(table)


def _lattice_close(side: int, dim: int, r: int, seeds: Iterable[int]) -> tuple[bytearray, int]:
    cells = side ** dim
    if cells <= 100_000:
        nbr = _lattice_neighbour_table(side, dim).__getitem__
    else:
        strides = [side ** k for k in range(dim)]

        def nbr(i: int) -> list[int]:
            out = []
            for s in strides:
                c = (i // s) % side
                if c > 0:
                    out.append(i - s)
                if c < side - 1:
                    out.append(i + s)
            return out

    infected = bytearray(cells)
    counts = bytearray(cells)
    frontier: list[int] = []
    for i in seeds:
        if not infected[i]:
            infected[i] = 1
            frontier.append(i)
    count = len(frontier)
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            for v in nbr(u):
                if not infected[v]:
                    c = counts[v] + 1
                    if c >= r:
                        infected[v] = 1
                        nxt.append(v)
                    else:
                        counts[v] = c
        count += len(nxt)
        frontier = nxt
    return infected, count


def lattice_closure(ls: LatticeSet, r: int = 2) -> LatticeSet:
    """Least fixpoint of ``ls`` under the r-neighbour rule on [side]^dim."""
    flags, _ = index_closure(ls.dims, r)([cell_index(ls.dims, p) for p in ls.points])
    return LatticeSet(ls.dims, frozenset(cell_at(ls.dims, i) for i, hit in enumerate(flags) if hit))


def lattice_percolates(ls: LatticeSet, r: int = 2) -> bool:
    _, count = index_closure(ls.dims, r)([cell_index(ls.dims, p) for p in ls.points])
    return count == ls.dims.cells
