"""Bootstrap dynamics: 2-neighbour closures on grids, r-neighbour closures on lattices.

One engine serves both: each is a box of axes, of sizes ``dims.sizes``
slowest first, (m, n) or (side,) * dim.  An axis's stride is the product of
the sizes after it, so a grid's (size, stride) axes are ((m, n), (n, 1)).
A closure on flat cell indices runs in two phases.  Bit-parallel rounds
keep the infected cells as one big int, cell i at bit cells - 1 - i (binary
string order, so bytes convert at C speed): per axis, the board shifted a
stride each way and masked by ``axis_mask`` feeds bit-sliced ``counters``
(with an r = 2 fast path), and the cells that reach r are infected.  Then a
counter BFS keeps ``need[v]``, the infected neighbours v still lacks (0 once
infected), and takes each cell off its queue once, a layer per round.

A round costs O(cells / word) however few cells it infects: in units of one
cell of one round, cells + ``_ROUND_COST``, and it spares the BFS
``_CELL_GAIN`` per cell it infects.  The rounds start if the seeds would
cost the BFS more than the board conversions, ``_START`` * cells +
``_ROUND_COST``, and add cost less saving to a waste sum floored at 0.  Past
``_HANDOVER`` rounds of waste, about the hand-over's cost (a ski-rental
rule), the BFS takes the last round's new cells as its frontier and ``need``
built from its counters by byte operations.  The tail stays BFS as long
closures infect few cells a round: a 300x300 spiral takes 44,696 rounds,
1.2 s as rounds, 0.05 s as BFS.  No result depends on the hand-over.

``closure``, ``percolates`` and ``spans`` take grid sets and, under the
same 2-neighbour rule, lattice sets.  On a grid every closure is a disjoint
union of filled rectangles at pairwise taxicab distance >= 3, and
``closure_rects`` reads them off the flags' runs a column at a time; it
and ``internally_spans`` take grid sets only.

``board_closure`` closes up to ``lanes`` bitboards (cell i at bit i) side
by side in one int, each in a lane of its cells plus guard bits for the
largest stride, as many as fit ``_LANE_BITS`` bits.  Its masks are
replicated over the lanes once, when it is built, and a call stops at a
fixpoint, at the full board or once a lane meets its target bits: the
search closes the deletions of a path's set so.

This module alone owns the flat layout, its axis masks, every closure rule
and the cell cap.  The layout reads nothing but ``dims.sizes``, so no part
of it tells grids from lattices.  Other modules index points with
``cell_indices``, one pass per axis over all the points, read a cell back
with ``cell_at``, close points with ``close_points`` and bitboards with
``board_closure``, and check a shape against the cap with ``check_closure``.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from functools import partial
from itertools import compress, product, repeat
from math import prod
from operator import add, mul, sub
from typing import Callable, Iterable, NamedTuple

from .errors import DomainError, EngineError, ResourceLimitError, integer
from .grid import GridDims, LatticeDims, LatticeSet, Point, PointSet, Rect, check_grid

DEFAULT_CELL_CAP = 10_000_000
CELL_CAP_ENV = "MINPS_CELL_CAP"

# translate() tables: a countdown of 0 (infected) to 1, or to ASCII "1", and
# all else to 0, or to "0"; ASCII "1" to 1 and all else to 0.
_ONE_AT_ZERO = bytes([1]) + bytes(255)
_ASCII_AT_ZERO = b"1" + b"0" * 255
_FROM_ASCII = bytes(49) + bytes([1]) + bytes(206)

# The hand-over, in units of one cell of one round (see the module docstring).
_ROUND_COST, _CELL_GAIN, _START, _HANDOVER = 2500, 1000, 12, 30

# The most bits a lane closure packs its lanes into, past one lane.
_LANE_BITS = 4096


@dataclass(frozen=True)
class Closure:
    """The eventually-infected set for a seed, plus the round count to reach it."""

    dims: GridDims | LatticeDims
    infected: PointSet | LatticeSet
    generations: int


@dataclass(frozen=True)
class RectDecomposition:
    """A closure written as pairwise-distant maximal rectangles."""

    rects: tuple[Rect, ...]

    @property
    def covered(self) -> int:
        return sum(r.size for r in self.rects)


def cell_cap() -> int:
    raw = os.environ.get(CELL_CAP_ENV, str(DEFAULT_CELL_CAP))
    try:
        cap = int(raw)
    except ValueError as exc:
        raise DomainError(f"{CELL_CAP_ENV} must be an integer, got {raw!r}") from exc
    return integer(cap, CELL_CAP_ENV, 1)


def check_closure(dims: GridDims | LatticeDims, r: int = 2) -> None:
    """Raise DomainError for a threshold ``dims`` does not support, and
    ResourceLimitError when ``dims`` has more cells than the cap."""
    r = integer(r, "threshold", 1)
    if isinstance(dims, GridDims) and r != 2:
        raise DomainError(f"grids use the 2-neighbour rule only, got threshold {r}")
    cap = cell_cap()
    if dims.cells > cap:
        raise ResourceLimitError(
            f"{dims} has {dims.cells} cells, over the cap {cap} (override with {CELL_CAP_ENV})"
        )


# --- flat cell indices -------------------------------------------------------


def cell_indices(dims: GridDims | LatticeDims, points: Iterable[tuple[int, ...]]) -> list[int]:
    """Flat index of each of ``points``, in order: (x-1)*n + (y-1) on an m x n
    grid, and on any box the first coordinate likewise varies slowest, so
    index order is lexicographic point order.  Horner's rule runs over the
    coordinate columns: the loop is per axis, not per point."""
    columns = zip(*points)
    idx = next(columns, ())
    ones = 1  # Horner's rule on (1, ..., 1), subtracted once at the end
    for size, column in zip(dims.sizes[1:], columns):
        idx = map(add, map(mul, idx, repeat(size)), column)
        ones = ones * size + 1
    return list(map(sub, idx, repeat(ones)))


def cell_at(dims: GridDims | LatticeDims, i: int) -> tuple[int, ...]:
    """The cell with flat index ``i``: the inverse of ``cell_indices``."""
    coords = []
    for size in reversed(dims.sizes):
        i, c = divmod(i, size)
        coords.append(c + 1)
    return tuple(reversed(coords))


# --- the engine ----------------------------------------------------------------


def axis_mask(size: int, stride: int, cells: int) -> int:
    """The cells with a neighbour ``stride`` below on the axis (size, stride),
    bit i for cell i (shifted down, those with one above), in O(cells)."""
    period = size * stride
    mask = (1 << period) - (1 << stride)
    while period < cells:
        mask |= mask << period
        period *= 2
    return mask & ((1 << cells) - 1)


def counters(masks: list[tuple[int, int]], r: int, board: int) -> list[int]:
    """reach[j], j in 0..r: the cells with at least j neighbours on ``board``."""
    reach = [-1] + [0] * r
    for stride, below in masks:
        lo, hi = (board << stride) & below, (board & below) >> stride
        one, two = lo | hi, lo & hi  # one or two neighbours along this axis
        if r == 2:
            reach[2] |= reach[1] & one | two
        else:
            for j in range(r, 1, -1):
                reach[j] |= reach[j - 1] & one | reach[j - 2] & two if two else reach[j - 1] & one
        reach[1] |= one
    return reach


def _rounds(axes: tuple[tuple[int, int], ...], cells: int, r: int,
            board: int) -> tuple[bytearray, list[int], int, int]:
    """Bit-parallel rounds: the BFS's (need, frontier, count, generations)."""
    masks = [(stride, axis_mask(size, stride, cells)) for size, stride in axes]
    digits, cost, generations, waste = f"0{cells}b", cells + _ROUND_COST, 0, 0
    while True:
        grown = board | counters(masks, r, board)[r]
        if grown == board:  # 1 on the uninfected cells: a countdown
            need = bytearray(format(board ^ ((1 << cells) - 1), digits), "ascii")
            return need.translate(_FROM_ASCII), [], board.bit_count(), generations
        generations += 1
        waste = max(0, waste + cost - _CELL_GAIN * (grown ^ board).bit_count())
        if waste > _HANDOVER * cost:
            break
        board = grown
    # The hand-over: a byte a cell, these masks sum to r if infected, else to the count.
    total = sum(int.from_bytes(format(mask | grown, digits).encode().translate(_FROM_ASCII), "big")
                for mask in counters(masks, r, board)[1:r] + [0])
    need = bytearray(total.to_bytes(cells, "big")).translate(bytes(range(r, -1, -1)).ljust(256))
    new = format(grown ^ board, digits)  # the round's new cells are the BFS's frontier
    return need, [m.start() for m in re.finditer("1", new)], grown.bit_count(), generations


def _close(axes: tuple[tuple[int, int], ...], cells: int, r: int,
           seeds: Iterable[int]) -> tuple[bytearray, int, int]:
    """Core fixpoint loop on flat cell indices. Returns (flags, count, generations).
    ``r`` must fit a byte.  On an axis (size, stride), ``w = u % span`` (span = size * stride):
    ``u - stride`` is a neighbour iff ``w >= stride``, ``u + stride`` iff ``w < span - stride``."""
    need = bytearray([r]) * cells
    frontier: list[int] = []
    push = frontier.append
    for i in seeds:
        if need[i]:
            need[i] = 0
            push(i)
    count, generations = len(frontier), 0
    if _CELL_GAIN * count > _START * cells + _ROUND_COST:
        board = int(need.translate(_ASCII_AT_ZERO), 2)
        del need  # the rounds build their own
        need, frontier, count, generations = _rounds(axes, cells, r, board)
    while frontier:
        nxt: list[int] = []
        push = nxt.append
        for size, stride in axes:
            span = size * stride
            top = span - stride
            for u in frontier:
                w = u % span
                if w >= stride:
                    v = u - stride
                    k = need[v]
                    if k:
                        k -= 1
                        need[v] = k
                        if not k:
                            push(v)
                if w < top:
                    v = u + stride
                    k = need[v]
                    if k:
                        k -= 1
                        need[v] = k
                        if not k:
                            push(v)
        if nxt:
            generations += 1
            count += len(nxt)
        frontier = nxt
    return need.translate(_ONE_AT_ZERO), count, generations


def _engine(dims: GridDims | LatticeDims, r: int) -> tuple[tuple[tuple[int, int], ...], int, int]:
    """Check ``dims`` and ``r``, then return the (size, stride) axes of the
    flat layout, the cell count and the start count that ``_close`` takes."""
    check_closure(dims, r)
    sizes = dims.sizes
    # Size-1 axes give no neighbours.  No cell has more than 2 * len(axes), so a
    # larger threshold acts as 2 * len(axes) + 1 does, which fits a byte.
    axes = tuple((size, prod(sizes[k + 1:])) for k, size in enumerate(sizes) if size > 1)
    return axes, dims.cells, min(r, 2 * len(axes) + 1)


def close_points(dims: GridDims | LatticeDims, points: Iterable[tuple[int, ...]],
                 r: int = 2) -> tuple[bytearray, int, int]:
    """The closure of ``points`` under the r-neighbour rule as (flags, count,
    generations), flags[i] being 1 iff cell i is infected.  The threshold and
    the cell cap are checked before anything is allocated."""
    return _close(*_engine(dims, r), cell_indices(dims, points))


class BoardClosure(NamedTuple):
    """``close(board, targets=0)`` closes up to ``lanes`` bitboards side by
    side, board j at bits j * ``width`` + i for cell i."""

    close: Callable[..., int]
    width: int
    lanes: int


def board_closure(dims: GridDims | LatticeDims, r: int = 2) -> BoardClosure:
    """Check ``dims`` and ``r``, then return the lane closure of ``dims``.

    A lane is ``width`` = cells + the largest stride bits wide: the guard bits
    above its cells catch what a shift pushes out, and the masks, replicated
    once here over every lane, keep each lane's neighbours inside it.
    ``close(board, targets)`` closes every lane of ``board`` at once and stops
    at a fixpoint, at the full board or as soon as a lane meets its bits of
    ``targets``; so whenever the result misses ``targets`` each lane is its
    own closure, and it never sets a guard bit.  Under the 2-neighbour rule on
    at most two axes of size > 1 (every grid, and [side]^2) a step is a
    shift-and-or sweep of the plane, else a round of ``counters``.  ``close``
    is a partial of a module-level loop, so it pickles for the search's
    workers."""
    axes, cells, r = _engine(dims, r)
    width = cells + max((stride for _, stride in axes), default=0)
    lanes = max(1, min(cells, _LANE_BITS // width))
    ones = sum(1 << j * width for j in range(lanes))  # bit 0 of every lane
    full = ((1 << cells) - 1) * ones
    if r == 2 and len(axes) <= 2:
        # The last axis has stride 1; the other one's stride, or 0 on a single
        # axis, where left == right == mask adds nothing the row rule does not.
        n = axes[0][1] if len(axes) == 2 else 0
        close = partial(_sweep, full, n, axis_mask(axes[-1][0], 1, cells) * ones)
    else:
        close = partial(_count, full, r, [(stride, axis_mask(size, stride, cells) * ones)
                                          for size, stride in axes])
    return BoardClosure(close, width, lanes)


def _sweep(full: int, n: int, not_bot: int, mask: int, targets: int = 0) -> int:
    # The full board is a fixpoint too, so stop as soon as it is reached.  No
    # term can set a guard bit: left's are cleared by the lane-local right.
    while True:
        up = (mask << 1) & not_bot
        down = (mask & not_bot) >> 1
        right = (mask << n) & full
        left = mask >> n
        grown = mask | (up & down) | (left & right) | ((up | down) & (left | right))
        if grown == full or grown == mask or grown & targets:
            return grown
        mask = grown


def _count(full: int, r: int, masks: list[tuple[int, int]], mask: int, targets: int = 0) -> int:
    while True:
        grown = mask | counters(masks, r, mask)[r]
        if grown == full or grown == mask or grown & targets:
            return grown
        mask = grown


# --- point sets ----------------------------------------------------------------


def _closed(s: PointSet | LatticeSet, r: int) -> tuple[PointSet | LatticeSet, int]:
    """The closure of ``s`` under the r-neighbour rule, as a set of its own
    class, and its generations."""
    flags, _, generations = close_points(s.dims, s.points, r)
    cells = compress(product(*(range(1, k + 1) for k in s.dims.sizes)), flags)  # flat index order
    return type(s)(s.dims, cells), generations


def closure(ps: PointSet | LatticeSet) -> Closure:
    """Least fixpoint containing ``ps`` under the 2-neighbour rule."""
    return Closure(ps.dims, *_closed(ps, 2))


def percolates(ps: PointSet | LatticeSet) -> bool:
    """True iff the closure of ``ps`` under the 2-neighbour rule is the whole grid or lattice."""
    return lattice_percolates(ps)


def spans(x: PointSet | LatticeSet, y: PointSet | LatticeSet) -> bool:
    """True iff every point of ``y`` is eventually infected starting from ``x``."""
    if x.dims != y.dims:
        raise DomainError(f"spans needs matching dims, got {x.dims} and {y.dims}")
    flags = close_points(x.dims, x.points)[0]
    return all(map(flags.__getitem__, cell_indices(x.dims, y.points)))


def internally_spans(x: PointSet, rect: Rect) -> bool:
    """True iff the part of ``x`` inside ``rect`` already spans all of ``rect``."""
    dims = x.dims
    check_grid(dims, "internally_spans")
    if rect.lo not in dims or rect.hi not in dims:
        raise DomainError(f"rectangle [{rect.lo}, {rect.hi}] does not fit in {dims}")
    (x0, y0), (x1, y1) = rect.lo, rect.hi
    inside = [p for p in x.points if x0 <= p.x <= x1 and y0 <= p.y <= y1]
    flags = close_points(dims, inside)[0]
    return all(flags.find(0, c * dims.n + y0 - 1, c * dims.n + y1) < 0 for c in range(x0 - 1, x1))


def closure_rects(ps: PointSet) -> RectDecomposition:
    """Decompose the closure of ``ps`` into its maximal rectangles.

    The closure of any seed is a disjoint union of fully infected rectangles
    at pairwise taxicab distance >= 3.  The closure is read a column at a
    time: a run of infected cells that spans the same rows as a run in the
    column before extends that run's rectangle, any other starts one.  So
    the rectangles are full and cover the closure by construction, and the
    runtime check that they are pairwise >= 3 apart proves the decomposition.
    """
    check_grid(ps.dims, "closure_rects")
    m, n = ps.dims
    flags = close_points(ps.dims, ps.points)[0]
    boxes: list[list[int]] = []  # [x0, y0, x1, y1], in lo order
    last: dict[tuple[int, int], list[int]] = {}  # the previous column's boxes by their rows
    for x in range(1, m + 1):
        base, top = (x - 1) * n, x * n
        runs = {}
        lo = flags.find(1, base, top)
        while lo >= 0:
            hi = flags.find(0, lo, top)
            if hi < 0:
                hi = top
            rows = (lo - base + 1, hi - base)
            box = last.get(rows)
            if box is None:
                box = [x, rows[0], x, rows[1]]
                boxes.append(box)
            box[2] = x
            runs[rows] = box
            lo = flags.find(1, hi, top)
        last = runs
    for i, (ax0, ay0, ax1, ay1) in enumerate(boxes):
        for j in range(i + 1, len(boxes)):
            bx0, by0, _, by1 = boxes[j]
            if bx0 - ax1 >= 3:
                break  # the rectangles are in lo order: all later ones are as far
            if max(by0 - ay1, ay0 - by1) < 3 - max(bx0 - ax1, 0):  # the taxicab gap is < 3
                raise EngineError(f"closure rectangles {boxes[i]} and {boxes[j]} are too close")
    return RectDecomposition(tuple(Rect(Point(x0, y0), Point(x1, y1)) for x0, y0, x1, y1 in boxes))


# --- d-dimensional lattices -------------------------------------------------


def lattice_closure(ls: LatticeSet, r: int = 2) -> LatticeSet:
    """Least fixpoint of ``ls`` under the r-neighbour rule on [side]^dim."""
    return _closed(ls, r)[0]


def lattice_percolates(ls: LatticeSet, r: int = 2) -> bool:
    return close_points(ls.dims, ls.points, r)[1] == ls.dims.cells
