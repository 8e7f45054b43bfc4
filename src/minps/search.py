"""Exhaustive extremal oracles on small grids and lattices.

Targets:
  max_minps            largest minimal percolating set (exact on small grids)
  max_corner_avoiding  largest corner-avoiding MinPS (0 when none exists)
  min_percolating      smallest percolating set, 2D grids or [n]^d lattices

Candidates are scanned in size ranges [lo, hi], each split into partitions
by first cell and scanned depth-first in increasing cell order, so the sets
of one size are reached in lexicographic order of their cell tuples; each is
reduced to one canonical representative per symmetry orbit.  The
maximization targets scan the one range [1, m*n], and a partition raises lo
past each hit, so its first hit at each size is the least one and its last
hit is its largest.  The value is the largest hit of any partition, and the
witness the earliest partition's hit of that size.  ``min_percolating``
scans the ranges (s, s) up to the first with a hit, from s = 1 on a
lattice and from s = (m+2)//2 on a grid, the least size whose seeds can
reach column m as the second cut below requires.

On grids, subsets are bitmasks (cell (x-1)*n + (y-1), so column x is n
consecutive cells), and each symmetry is a pair of per-axis maps: it sends
cell x*n + y (0-based) to cols[x] + rows[y], where a flip reverses one
range and, on a square, a transpose swaps the roles of the two.  A
percolating set ends its branch: no proper superset of it is minimal.  Two
cuts drop a whole subtree; each drops only sets that can never be a hit:

* closure is monotone, so if a seed v of a prefix P lies in cl(P - v), or
  cl(P - v) meets a protected corner, the same holds for every S containing
  P: S is not minimal, or not corner-avoiding.  The maximization targets
  test every seed of each new prefix so, and a percolating set of size at
  least lo is then a hit as soon as it is canonical.  The path keeps cl(P)
  and each cl(P - v), and a new cell c closes each from its parent's mask,
  as cl(A | B) == cl(cl(A) | B).  ``min_percolating`` makes no such test and
  closes only full-size sets: a smallest percolating set is minimal anyway,
  and no smaller set percolates once the sizes below were scanned;
* a row or column without a seed stays empty when it is on the border or
  next to another empty line, as each of its cells has one neighbour off
  the line.  Every target percolates, so the first cell is in column 1,
  each next one at most two columns on, and the last in column m; and the
  cells still to place must break every empty run of L rows, which takes
  L//2 of them, or (L+1)//2 at the border.  A cell is visited only while a
  size in [lo, hi] leaves room for both.

Grid closures are a shift-and-or sweep on the masks, independent of the BFS
engine in ``percolate`` (the tests cross-check the two).  On lattices,
every subset is closed by the r-neighbour engine in ``percolate``.

Grids and lattices share one loop over the ranges.  Each partition (on
grids, only the cells of column 1 start one) gets a fixed share of the node
budget and the whole size range, never a bound found by another partition,
so results and node counts do not depend on the worker count; a range stops
at its first hit of size hi.  A grid node is a visited set, counted once
before either cut, however many sizes it serves; a lattice node is a subset.
A result is ``exhaustive`` when no scanned partition ran out of budget.  The
time budget is checked on every node, as a deep grid node runs one closure
per seed of its set.  A grid search builds its shape (the bitboard
constants, the symmetries and the protected corners) once and hands it to
every partition scan in the scan's arguments.  A search runs at most one
worker per CPU and keeps nothing once it returns: a worker pool is
terminated as soon as the results the search uses are read.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from itertools import combinations
from operator import index

from .errors import DomainError, EngineError
from .grid import GridDims, LatticeDims, LatticeSet, PointSet, check_grid
from .percolate import cell_at, cell_indices, check_closure, index_closure
from .verify import corner_cells, corners

DEFAULT_MAX_NODES = 200_000_000


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = DEFAULT_MAX_NODES
    max_time: float | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        try:
            counts = index(self.max_nodes), index(self.workers)
        except TypeError:
            raise DomainError("budget max_nodes and workers must be integers") from None
        if min(counts) < 1:
            raise DomainError("budget fields must be positive")
        if self.max_time is not None and not self.max_time > 0:  # NaN too
            raise DomainError("budget fields must be positive")


@dataclass(frozen=True)
class SearchResult:
    value: int
    witness: PointSet | LatticeSet
    exhaustive: bool
    nodes: int
    elapsed: float


class _Shape:
    """A grid's bitboard constants and the symmetries its target reduces
    by, built once per search and handed to every partition scan.  A
    symmetry is a pair of per-axis maps (cols, rows) that sends cell
    x*n + y (0-based) to cols[x] + rows[y]."""

    def __init__(self, m: int, n: int, target: str):
        self.m, self.n, self.cells = m, n, m * n
        self.full = (1 << m * n) - 1
        # Cell index is (x-1)*n + (y-1); y+1 is bit i+1, x+1 is bit i+n.
        col = (1 << n) - 1
        self.not_top = sum((col >> 1) << (x * n) for x in range(m))  # rows 1..n-1
        self.not_bot = sum((col ^ 1) << (x * n) for x in range(m))   # rows 2..n
        # A flip reverses one axis; a transpose (m == n) swaps the axes' roles.
        xs = (tuple(range(0, m * n, n)), tuple(range((m - 1) * n, -1, -n)))
        ys = (tuple(range(n)), tuple(range(n - 1, -1, -1)))
        maps = {(c, r) for c in xs for r in ys}
        if m == n:
            maps |= {(r, c) for c in xs for r in ys}
        maps.discard((xs[0], ys[0]))  # on a thin grid some flips are the identity
        self.corner = 0
        if target == "corner":
            dims = GridDims(m, n)
            idx = sorted(cell_indices(dims, corner_cells(dims)))
            self.corner = sum(1 << i for i in idx)
            maps = {(c, r) for c, r in maps if sorted(c[i // n] + r[i % n] for i in idx) == idx}
        self.symmetries = sorted(maps)
        self.cut = target != "perc"  # test the prefix's seeds (see the module docstring)


def _closure_mask(shape: _Shape, mask: int) -> int:
    # The full grid is a fixpoint too, so stop as soon as it is reached.
    full, n, not_top, not_bot = shape.full, shape.n, shape.not_top, shape.not_bot
    while True:
        up = (mask & not_top) << 1
        down = (mask & not_bot) >> 1
        right = (mask << n) & full
        left = mask >> n
        grown = mask | (up & down) | (left & right) | ((up | down) & (left | right))
        if grown == full or grown == mask:
            return grown
        mask = grown


def _is_canonical(cand: tuple[int, ...], mask: int, shape: _Shape) -> bool:
    # Of two equal-size sets, the one with the least cell of their symmetric
    # difference comes first in lexicographic order.
    n = shape.n
    for cols, rows in shape.symmetries:
        img = sum([1 << (cols[i // n] + rows[i % n]) for i in cand])
        diff = img ^ mask
        if img & diff & -diff:
            return False
    return True


def _scan_partition(args) -> tuple[tuple[int, ...] | None, int, bool]:
    """Scan the sets of one first cell with a size in ``sizes`` = (lo, hi)
    depth-first in increasing cell order; returns (hit, nodes, truncated), the
    hit being the first set of the largest size found."""
    _, (lo, hi), first, node_cap, deadline, shape = args
    m, n, cells, full = shape.m, shape.n, shape.cells, shape.full
    corner, cut = shape.corner, shape.cut
    # The set on the path: its mask and its rows.  Row y is bit y+2 of
    # ``rows``; bits 0 and n+3 are always set, so a border run reads as an
    # interior run one longer and a run between set bits a < b needs
    # (b-a-1)//2 rows; ``need`` sums them.
    mask = 0
    rows, need = 1 | 1 << (n + 3), (n + 2) // 2
    # With the cut: cl(mask), and cl(mask - i) for each seed i on the path.
    closed, drops = 0, []
    k = 1  # the size of the set a visited cell makes
    # A visited cell c leaves cells - 1 - c cells after it, so the set can still
    # reach size lo while c <= last = cells - 1 - lo + k.
    last = cells - lo
    path: list[int] = []
    stack = []
    hit = None
    it = iter((first,))
    nodes = 0
    while True:
        for c in it:
            if c > last:
                it = iter(())  # so the next pass pops this level
                break
            if nodes >= node_cap:
                return hit, nodes, True
            nodes += 1
            if deadline is not None and time.monotonic() > deadline:
                return hit, nodes, True
            y2 = c % n + 2
            if rows >> y2 & 1:
                crows, cneed = rows, need
            else:
                below = (rows & ((1 << y2) - 1)).bit_length()
                above = rows >> y2
                top = y2 + (above & -above).bit_length() - 1
                cneed = need - (top - below) // 2 + (y2 - below) // 2 + (top - y2 - 1) // 2
                crows = rows | 1 << y2
            if cneed > hi - k or cneed > cells - 1 - c:
                continue
            cmask = mask | 1 << c
            if cut:
                # cl(A | B) == cl(cl(A) | B), so each closure grows from its parent's.
                if closed & (1 << c | corner):
                    continue
                cdrops = []
                for i, d in zip(path, drops):
                    d = _closure_mask(shape, d | 1 << c)
                    if d & (1 << i | corner):
                        break
                    cdrops.append(d)
                if len(cdrops) < k - 1:
                    continue
                cdrops.append(closed)
                cclosed = _closure_mask(shape, closed | 1 << c)
            else:
                # One size at a time from the smallest: only a full-size set is closed.
                cdrops = drops
                cclosed = _closure_mask(shape, cmask) if k == hi else cmask
            if cclosed == full:
                # No proper superset of a percolating set is minimal.
                if k >= lo and _is_canonical((*path, c), cmask, shape):
                    hit = (*path, c)
                    if k == hi:
                        return hit, nodes, False
                    lo = k + 1
                    last = cells - 1 - lo + k
                continue
            if k < hi:
                stack.append((mask, rows, need, closed, drops, it))
                path.append(c)
                mask, rows, need, closed, drops = cmask, crows, cneed, cclosed, cdrops
                k += 1
                last += 1
                it = iter(range(max(c + 1, (m - 1 - 2 * (hi - k)) * n),
                                min(cells, (c // n + 3) * n)))
                break
        else:
            if not stack:
                return hit, nodes, False
            mask, rows, need, closed, drops, it = stack.pop()
            path.pop()
            k -= 1
            last -= 1


def _scan_lattice_partition(args) -> tuple[tuple[int, ...] | None, int, bool]:
    """The lattice counterpart of ``_scan_partition``, one size at a time
    (lo == hi): a candidate is a hit when its r-neighbour closure fills the
    lattice."""
    dims, (_, s), first, node_cap, deadline, r = args
    close = index_closure(dims, r)
    cells = dims.cells
    nodes = 0
    for rest in combinations(range(first + 1, cells), s - 1):
        if nodes >= node_cap:
            return None, nodes, True
        nodes += 1
        if deadline is not None and time.monotonic() > deadline:
            return None, nodes, True
        cand = (first,) + rest
        if close(cand)[1] == cells:
            return cand, nodes, False
    return None, nodes, False


def _run_block(dims, rule, sizes, node_cap, deadline, pool):
    """Scan the partitions of the sizes ``sizes`` = (lo, hi) in first-cell
    order and return the largest hit, the earliest partition's on a tie; stop
    at the first hit of size hi.  Partition budgets are fixed shares of
    ``node_cap`` and every partition gets the whole size range, so the outcome
    is identical for any worker count.  Nodes and truncation are summed over
    the partitions scanned."""
    lo, hi = sizes
    lattice = isinstance(dims, LatticeDims)
    scan = _scan_lattice_partition if lattice else _scan_partition
    # A percolating grid set has a seed in column 1, the first n cells.
    parts = dims.cells - lo + 1 if lattice else min(dims.n, dims.cells - lo + 1)
    base_cap, extra = divmod(node_cap, parts)
    arglist = [(dims, sizes, first, base_cap + (first < extra), deadline, rule)
               for first in range(parts)]
    results = pool.imap(scan, arglist) if pool is not None and parts > 1 else map(scan, arglist)
    best = None
    nodes = 0
    truncated = False
    for hit, used, trunc in results:
        nodes += used
        truncated = truncated or trunc
        if hit is not None and (best is None or len(hit) > len(best)):
            best = hit
            if len(hit) == hi:
                break
    return best, nodes, truncated


def _witness(dims: GridDims | LatticeDims, cand: tuple[int, ...]) -> PointSet | LatticeSet:
    cls = LatticeSet if isinstance(dims, LatticeDims) else PointSet
    return cls(dims, frozenset(cell_at(dims, i) for i in cand))


def _drive(dims: GridDims | LatticeDims, rule: str | int, ranges,
           budget: SearchBudget) -> SearchResult:
    """Scan the size ranges in ``ranges`` until one has a hit.  ``rule`` is
    the threshold r on lattices, and the target ("minps", "corner" or "perc")
    on grids; every partition scan gets r, or the grid's shape built for the
    target.  The result is ``exhaustive`` when no partition that was scanned
    ran out of nodes or time: the ranges before the last were then covered in
    full, and the last up to its deciding hit, which settles the value and the
    lexicographically least witness.  The cell cap is checked before the shape
    or any partition list is built."""
    lattice = isinstance(dims, LatticeDims)
    check_closure(dims, rule if lattice else 2)
    if not lattice:
        rule = _Shape(dims.m, dims.n, rule)
    start = time.monotonic()
    deadline = None if budget.max_time is None else start + budget.max_time
    workers = min(budget.workers, os.cpu_count() or 1)
    pool = multiprocessing.Pool(workers) if workers > 1 else None
    total_nodes = 0
    truncated = False
    hit: tuple[int, ...] = ()
    try:
        for sizes in ranges:
            remaining = budget.max_nodes - total_nodes
            if remaining <= 0 or (deadline is not None and time.monotonic() > deadline):
                truncated = True
                break
            h, nodes, trunc = _run_block(dims, rule, sizes, remaining, deadline, pool)
            total_nodes += nodes
            truncated = truncated or trunc
            if h is not None:
                hit = h
                break
    finally:
        # Every result the search uses has been read.
        if pool is not None:
            pool.terminate()
    return SearchResult(
        value=len(hit),
        witness=_witness(dims, hit),
        exhaustive=not truncated,
        nodes=total_nodes,
        elapsed=time.monotonic() - start,
    )


def max_minps(dims: GridDims, budget: SearchBudget | None = None) -> SearchResult:
    """Exact maximum size of a MinPS, with a lexicographically-least canonical
    witness.  With an exhausted budget the value is a lower bound and
    ``exhaustive`` is False."""
    check_grid(dims, "max_minps")
    return _drive(dims, "minps", [(1, dims.cells)], budget or SearchBudget())


def max_corner_avoiding(dims: GridDims, budget: SearchBudget | None = None) -> SearchResult:
    """Exact maximum size of a corner-avoiding MinPS; value 0 with an empty
    witness when no such set exists.  Symmetry reduction uses only the
    symmetries that preserve the pair of protected corners."""
    corners(dims)  # DomainError unless dims is a grid of at least 2x2
    return _drive(dims, "corner", [(1, dims.cells)], budget or SearchBudget())


def min_percolating(dims: GridDims | LatticeDims, budget: SearchBudget | None = None,
                    *, r: int = 2) -> SearchResult:
    """Smallest percolating set: 2D grids with the standard rule, or a
    [side]^d lattice with threshold ``r``."""
    grid = isinstance(dims, GridDims)
    if grid and r != 2:
        raise DomainError("2D grid search supports the 2-neighbour rule only")
    lo = (dims.m + 2) // 2 if grid else 1
    return _drive(dims, "perc" if grid else r, ((s, s) for s in range(lo, dims.cells + 1)),
                  budget or SearchBudget())


def monotonicity_table(max_m: int, max_n: int,
                       budget: SearchBudget | None = None) -> dict[tuple[int, int], int]:
    """Exact max-MinPS sizes for every grid up to max_m x max_n.

    Asserts that the table is monotone in both coordinates and that every
    entry with min(m, n) >= 2 respects the (m+2)(n+2)/6 upper bound; raises
    EngineError on any violation (1-row and 1-column grids are exempt from
    the bound and genuinely exceed it).  Raises DomainError when either
    limit is below 1.
    """
    if max_m < 1 or max_n < 1:
        raise DomainError(f"the table needs max_m, max_n >= 1, got {max_m}, {max_n}")
    table: dict[tuple[int, int], int] = {}
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            res = max_minps(GridDims(m, n), budget)
            if not res.exhaustive:
                raise EngineError(f"budget exhausted on {m}x{n}; table would be inexact")
            table[(m, n)] = res.value
    for (m, n), v in table.items():
        if m > 1 and table[(m - 1, n)] > v:
            raise EngineError(f"monotonicity violated at {m}x{n}")
        if n > 1 and table[(m, n - 1)] > v:
            raise EngineError(f"monotonicity violated at {m}x{n}")
        if min(m, n) >= 2 and 6 * v > (m + 2) * (n + 2):
            raise EngineError(f"upper bound violated at {m}x{n}: {v}")
    return table
