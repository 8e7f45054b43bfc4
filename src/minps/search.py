"""Exhaustive extremal oracles on small grids and lattices.

Targets:
  max_minps            largest minimal percolating set (exact on small grids)
  max_corner_avoiding  largest corner-avoiding MinPS (0 when none exists)
  min_percolating      smallest percolating set, 2D grids or [n]^d lattices

Grids and lattices share one scan.  A subset is a bitmask over the flat
layout of ``percolate`` (first coordinate slowest: grid column x is n
consecutive cells).  Candidates are scanned in size ranges [lo, hi], each
split into partitions by first cell and scanned depth-first in increasing
cell order, so the sets of one size come in lexicographic order.  The
maximization targets scan the one range [1, m*n], and a partition raises lo
past each hit, so its last hit is its largest and, of that size, the least.
The value is the largest hit of any partition, and the witness the earliest
partition's hit of that size.  ``min_percolating`` scans the ranges (s, s)
up to the first with a hit, from the least size the slab lemma allows.

A hit needs no symmetry test: a finished search's witness is the least
hit of its size, and each image of it under a symmetry of the box (for the
corner target, one fixing the corners) is a hit of that size, so no less.
A truncated run's witness is the first certified set of the reported size
it found, not necessarily the least.  A percolating set ends its branch,
as no proper superset of it is minimal.  Three cuts drop only sets that
are no hit, or no least hit:

* closure is monotone, so if a seed v of a prefix P lies in cl(P - v), or
  cl(P - v) meets a protected corner, no S containing P is minimal, or
  corner-avoiding.  The maximization targets test every seed of each new
  prefix so.  A level keeps cl(P) and each cl(P - v) as the lanes of
  ``board_closure``, in chunks of at most its ``lanes`` lanes: lane 0 is
  cl(P), with no target, and the lane of seed v is cl(P - v), with target
  v | corner.  A new cell c is added to every lane, as cl(A | B) ==
  cl(cl(A) | B), and each chunk is closed by one call that stops once a
  lane meets its target, which cuts the node.  Else lane 0 is cl(P + c),
  and cl(P) becomes the lane of c.  A node makes one call while its set
  has at most ``lanes`` cells, so always on grids of up to about 60 cells;
  from about 2,000 cells a chunk is one lane.  Chunks, not one int: a cut
  in a newer chunk spares sweeping the older ones.  ``min_percolating``
  closes only full-size sets: a smallest percolating set is minimal anyway;
* the row flip, y -> n+1-y on a grid with n > 1, for ``max_minps`` and
  ``min_percolating`` (it moves the protected corners, and lattices do not
  take it).  It keeps every column in place, and once the scan reaches a
  cell c in a column after the last one of P, those columns are final for
  c, for the rest of the level and for every descendant: each such set S
  and its flip differ first where P and flip(P) do.  So if flip(P) is the
  lesser there, no such S is the least of its orbit, and the rest of the
  level is dropped.  This is orderly generation in the sense of Read
  (1978) and McKay (1998), restricted to a prefix test.  A level keeps
  flip(P) and whether it is the lesser; P's top bit gives its last column;
* the slab lemma.  A slab is the set of cells with one coordinate fixed.
  For r >= 2 a slab without seeds stays empty on the border or next to
  another empty slab, as each of its cells has at most one neighbour off
  the two; for r >= 3 it stays empty anywhere, as each of its cells has at
  most two neighbours off it.  So seeded slabs are at most ``gap`` apart (2
  for r = 2, 1 for r >= 3) and reach both borders.  Along the slowest axis
  the first cell is in slab 1, each next one at most gap slabs on and the
  last in slab m, which takes (m + 2*gap - 2) // gap seeds.  Along the
  fastest axis the cells still to place must break every empty run of L
  slabs: L // gap of them, or (L + gap - 1) // gap at the border.  A cell is
  visited only while a size in [lo, hi] leaves room for both.  r = 1 has no
  such lemma: the scan then sees the lattice as one slab of one row.

A mask is closed by ``percolate.board_closure``, built once into the shape:
the search holds no closure rule, mask or threshold of its own.  The tests
compare that closure with the BFS engine and with naive sweeps.

Each partition (the cells of the slowest axis's first slab) gets a fixed
share of the node budget and the whole size range, never a bound found by
another partition, so results and node counts do not depend on the worker
count; a range stops at its first hit of size hi.  A node is a visited set,
counted once before the closure and slab cuts; a set the flip cut drops
is not visited, so that cut lowers node counts.  A result is
``exhaustive`` when no scanned partition ran out of budget.  The deadline
is read on every node, and once it has passed a range stops at the first
partition read that ran out.  The shape (lane closure, protected corners,
flip flag) is built once per search and handed to every partition scan.
A search runs at most one worker per CPU and keeps nothing once it
returns: its pool is terminated as soon as the results it uses are read.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from numbers import Real

from .errors import DomainError, EngineError, ResourceLimitError, integer
from .grid import GridDims, LatticeDims, LatticeSet, PointSet, check_grid
from .percolate import board_closure, cell_at, cell_indices
from .verify import corner_cells

DEFAULT_MAX_NODES = 200_000_000


@dataclass(frozen=True)
class SearchBudget:
    """Limits of one search: ``max_nodes`` visited sets, ``max_time`` seconds,
    ``workers`` processes.  A size range splits what is left of ``max_nodes``
    into fixed shares, one per partition: a share unused by its partition is lost to the range."""

    max_nodes: int = DEFAULT_MAX_NODES
    max_time: float | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        integer(self.max_nodes, "budget max_nodes", 1)
        integer(self.workers, "budget workers", 1)
        if not (self.max_time is None or isinstance(self.max_time, Real) and self.max_time > 0):
            raise DomainError(f"budget max_time must be a positive number, got {self.max_time!r}")


@dataclass(frozen=True)
class SearchResult:
    value: int
    witness: PointSet | LatticeSet
    exhaustive: bool
    nodes: int
    elapsed: float


class _Shape:
    """What a partition scan reads of its dims and target: the slowest
    axis's size ``m`` and slab ``stride``, the fastest axis's size ``n``, the
    slab ``gap``, the lane closure ``close`` with its lane ``width`` and
    count ``lanes``, the protected ``corner`` mask and whether the row
    ``flip`` cut applies."""

    def __init__(self, dims: GridDims | LatticeDims, target: str, r: int = 2):
        self.close, self.width, self.lanes = board_closure(dims, r)
        sizes, cells = dims.sizes, dims.cells
        self.cells = cells
        self.gap = 2 if r <= 2 else 1
        # r = 1 has no slab lemma: the box is then one slab of one row.
        self.m, self.n, self.stride = (1, 1, cells) if r == 1 else (
            sizes[0], sizes[-1], cells // sizes[0])
        self.corner = 0
        if target == "corner":
            self.corner = sum(1 << i for i in cell_indices(dims, corner_cells(dims)))
        self.cut = target != "perc"  # test the prefix's seeds (see the module docstring)
        # The row flip maps a grid onto itself but moves the corner cells.
        self.flip = isinstance(dims, GridDims) and dims.n > 1 and target != "corner"


def _scan_partition(args) -> tuple[int | None, int, bool]:
    """Scan the sets of one first cell with a size in ``sizes`` = (lo, hi)
    depth-first in increasing cell order; returns (hit, nodes, truncated), the
    hit being the mask of the first set of the largest size found.  A level
    keeps its set's mask, rows, need, lanes, targets, flip, bad and cell iterator."""
    (lo, hi), first, node_cap, deadline, shape = args
    m, n, stride, gap = shape.m, shape.n, shape.stride, shape.gap
    cells, corner, cut, close, flip = shape.cells, shape.corner, shape.cut, shape.close, shape.flip
    width, lanes = shape.width, shape.lanes
    full = (1 << cells) - 1
    room = cells - lo  # lo, stored so that the test of each visit takes one subtraction
    reps = [0]  # reps[j]: bit 0 of each of j lanes, to add a cell to each
    for j in range(lanes):
        reps.append(reps[-1] | 1 << j * width)
    # The set on the path: its mask and its rows (the slabs of the fastest
    # axis).  Row y is bit y+gap of ``rows``; bits 0 and n+2*gap-1 are always
    # set, so a border run reads as an interior run gap-1 longer and a run
    # between set bits a < b needs (b-a-1)//gap rows; ``need`` sums them.
    mask = 0
    rows, need = 1 | 1 << (n + 2 * gap - 1), (n + 2 * gap - 2) // gap
    # With the cut, the path's closures in chunks of up to ``lanes`` lanes, with
    # their targets: lane 0 is cl(mask), target 0, and the lane of a cell v of
    # the set is cl(mask - v), target v | corner.
    chunks, targets = [0], [0]
    img, bad = 0, False  # with the flip cut: the set's row flip, and whether it is the lesser
    k = 1  # the size of the set a visited cell makes, and the lanes of its parent
    stack = []
    hit = None
    it = iter((first,))
    nodes = 0
    while True:
        for c in it:
            # Cell c leaves cells - 1 - c after it: too few for size lo once
            # c - k >= room.  Past the set's last column, those columns are final,
            # so once the set's flip is less, no later set of the level is canonical.
            if c - k >= room or bad and c // stride > (mask.bit_length() - 1) // stride:
                it = iter(())  # so the next pass pops this level
                break
            if nodes >= node_cap:
                return hit, nodes, True
            nodes += 1
            if deadline is not None and time.monotonic() > deadline:
                return hit, nodes, True
            y2 = c % n + gap
            if rows >> y2 & 1:
                crows, cneed = rows, need
            else:
                below = (rows & ((1 << y2) - 1)).bit_length()
                above = rows >> y2
                top = y2 + (above & -above).bit_length() - 1
                cneed = (need - (top - below) // gap + (y2 - below) // gap
                         + (top - y2 - 1) // gap)
                crows = rows | 1 << y2
            if cneed > hi - k or cneed > cells - 1 - c:
                continue
            cmask = mask | 1 << c
            if cut:
                # cl(A | B) == cl(cl(A) | B): each lane grows from its parent's
                # with c added; lane 0's chunk goes last, as the others can cut.
                if chunks[0] & (1 << c | corner):
                    continue
                cchunks = chunks[:]
                for j in range(len(chunks) - 1, -1, -1):
                    t = targets[j]
                    x = cchunks[j] = close(chunks[j] | reps[min(lanes, k - j * lanes)] << c, t)
                    if x & t:
                        break
                if x & t:
                    continue
                cclosed = cchunks[0] & full
            else:
                # One size at a time from the smallest: only a full-size set is closed.
                cclosed = close(cmask) if k == hi else cmask
            if cclosed == full:
                # No proper superset of a percolating set is minimal.
                if k >= cells - room:  # k >= lo
                    hit = cmask
                    if k == hi:
                        return hit, nodes, False
                    room = cells - 1 - k  # lo = k + 1
                continue
            if k < hi:
                stack.append((mask, rows, need, chunks, targets, img, bad, it))
                if cut:
                    # The new lane k is cl(mask) == cl(cmask - c).
                    top = k % lanes * width
                    if top:
                        cchunks[-1] |= (chunks[0] & full) << top
                        targets = [*targets[:-1], targets[-1] | (1 << c | corner) << top]
                    else:
                        cchunks.append(chunks[0] & full)
                        targets = [*targets, 1 << c | corner]
                    chunks = cchunks
                if flip:
                    img |= 1 << (c + n - 1 - 2 * (c % n))
                    diff = img ^ cmask
                    bad = bool(img & diff & -diff)
                mask, rows, need = cmask, crows, cneed
                k += 1
                it = iter(range(max(c + 1, (m - 1 - gap * (hi - k)) * stride),
                                min(cells, (c // stride + 1 + gap) * stride)))
                break
        else:
            if not stack:
                return hit, nodes, False
            mask, rows, need, chunks, targets, img, bad, it = stack.pop()
            k -= 1


def _run_block(shape, sizes, node_cap, deadline, pool):
    """Scan the partitions of the sizes ``sizes`` = (lo, hi) in first-cell
    order and return the largest hit mask, the earliest partition's on a tie;
    stop at the first hit of size hi.  Partition budgets are fixed shares of
    ``node_cap`` and every partition gets the whole size range, so the outcome
    is identical for any worker count.  Nodes and truncation are summed over
    the partitions read.  Past the deadline the block stops at the first
    partition read that ran out, without waiting for the ones after it."""
    lo, hi = sizes
    # A percolating set has a seed in the first slab of the slowest axis.
    parts = min(shape.stride, shape.cells - lo + 1)
    base_cap, extra = divmod(node_cap, parts)
    arglist = [(sizes, first, base_cap + (first < extra), deadline, shape)
               for first in range(parts)]
    results = (pool.imap(_scan_partition, arglist) if pool is not None and parts > 1
               else map(_scan_partition, arglist))
    best = None
    nodes = 0
    truncated = False
    for hit, used, trunc in results:
        nodes += used
        truncated = truncated or trunc
        if hit is not None and (best is None or hit.bit_count() > best.bit_count()):
            best = hit
            if hit.bit_count() == hi:
                break
        if trunc and deadline is not None and time.monotonic() > deadline:
            break  # each partition left would stop at its first node
    return best, nodes, truncated


def _drive(dims: GridDims | LatticeDims, target: str, budget: SearchBudget,
           r: int = 2) -> SearchResult:
    """Scan the size ranges of the target ("minps", "corner" or "perc") until
    one has a hit.  The result is ``exhaustive`` when no partition that was
    scanned ran out of nodes or time: the ranges before the last were then
    covered in full, and the last up to its deciding hit, which settles the
    value and the lexicographically least witness.  The shape's
    ``board_closure`` checks the threshold and the cell cap first of all."""
    shape = _Shape(dims, target, r)
    m, gap, cells = shape.m, shape.gap, shape.cells
    ranges = ([(1, cells)] if shape.cut
              else ((s, s) for s in range((m + 2 * gap - 2) // gap, cells + 1)))
    start = time.monotonic()
    deadline = None if budget.max_time is None else start + budget.max_time
    workers = min(budget.workers, os.cpu_count() or 1)
    pool = multiprocessing.Pool(workers) if workers > 1 else None
    total_nodes = 0
    truncated = False
    hit = 0
    try:
        for sizes in ranges:
            remaining = budget.max_nodes - total_nodes
            if remaining <= 0 or (deadline is not None and time.monotonic() > deadline):
                truncated = True
                break
            h, nodes, trunc = _run_block(shape, sizes, remaining, deadline, pool)
            total_nodes += nodes
            truncated = truncated or trunc
            if h is not None:
                hit = h
                break
    finally:
        # Every result the search uses has been read.
        if pool is not None:
            pool.terminate()
    cls = LatticeSet if isinstance(dims, LatticeDims) else PointSet
    bits = format(hit, "b")[::-1]  # bit i is cell i
    return SearchResult(
        value=hit.bit_count(),
        witness=cls(dims, frozenset(cell_at(dims, i) for i, b in enumerate(bits) if b == "1")),
        exhaustive=not truncated,
        nodes=total_nodes,
        elapsed=time.monotonic() - start,
    )


def max_minps(dims: GridDims, budget: SearchBudget | None = None) -> SearchResult:
    """Exact maximum size of a MinPS, with the lexicographically least witness
    of that size, which no symmetry of the grid maps to a lesser set.  With an
    exhausted budget the value is a lower bound, the witness the first set
    of that size found, and ``exhaustive`` is False."""
    check_grid(dims, "max_minps")
    return _drive(dims, "minps", budget or SearchBudget())


def max_corner_avoiding(dims: GridDims, budget: SearchBudget | None = None) -> SearchResult:
    """Exact maximum size of a corner-avoiding MinPS; value 0 with an empty
    witness when no such set exists.  A finished search's witness is the
    least of its size, so canonical under each symmetry fixing the corners."""
    check_grid(dims, "max_corner_avoiding")  # the shape's corner_cells needs a 2x2 grid
    return _drive(dims, "corner", budget or SearchBudget())


def min_percolating(dims: GridDims | LatticeDims, budget: SearchBudget | None = None,
                    *, r: int = 2) -> SearchResult:
    """Smallest percolating set: 2D grids with the standard rule, or a
    [side]^d lattice with threshold ``r``."""
    return _drive(dims, "perc", budget or SearchBudget(), r)


def monotonicity_table(max_m: int, max_n: int,
                       budget: SearchBudget | None = None) -> dict[tuple[int, int], int]:
    """Exact max-MinPS sizes for every grid up to max_m x max_n.

    Asserts that the table is monotone in both coordinates and that every
    entry with min(m, n) >= 2 respects the (m+2)(n+2)/6 upper bound; raises
    EngineError on any violation (1-row and 1-column grids are exempt from
    the bound and genuinely exceed it).  Raises DomainError when either
    limit is no integer or is below 1, and ResourceLimitError when the
    budget runs out on some grid, as the table would then be inexact.
    """
    max_m = integer(max_m, "table max_m", 1)
    max_n = integer(max_n, "table max_n", 1)
    table: dict[tuple[int, int], int] = {}
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            res = max_minps(GridDims(m, n), budget)
            if not res.exhaustive:
                raise ResourceLimitError(f"budget exhausted on {m}x{n}; table would be inexact")
            table[(m, n)] = res.value
    for (m, n), v in table.items():
        if table.get((m - 1, n), 0) > v or table.get((m, n - 1), 0) > v:
            raise EngineError(f"monotonicity violated at {m}x{n}")
        if min(m, n) >= 2 and 6 * v > (m + 2) * (n + 2):
            raise EngineError(f"upper bound violated at {m}x{n}: {v}")
    return table
