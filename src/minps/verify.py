"""Certification of the defining properties, with counterexample witnesses.

A set is a minimal percolating set (MinPS) iff it percolates and no single
deletion still percolates; by monotonicity of the closure, checking single
deletions suffices.  This holds on grids and, under the 2-neighbour rule,
on [n]^d lattices.  A MinPS is corner-avoiding iff every single deletion
also leaves both 2x2 corner rectangles (top-left and bottom-right)
completely uninfected.

Percolation takes one closure, the deletions a merge tree.  Under the
2-neighbour rule a closure is the fixpoint of the box process: merge two
boxes at taxicab distance <= 2 into their hull, in any order.  The points
are sorted and inserted in bit-reversed index order (0, k/2, k/4, 3k/4, ...),
which keeps the tree shallow; node i is point i, its children the live boxes
its insertion absorbed, its box the closure of its subtree.  The closure
without v starts from the boxes of v's children and walks up v's ancestors,
adding each one's other children, then settling its point.  The added boxes
need no check: they were live together with the path child's box, so they
are >= 3 from each other and from that box, which holds all settled below.
A deletion so settles a few boxes per ancestor instead of sweeping the grid.

A seed w with two seed neighbours is redundant in a percolating set, since
S - w infects w in one step.  Deletions are walked only up to the first such
w in point order, which is then the witness; when w is the first point, no
tree is built.  Two cross-checks raise EngineError: a tree, whenever one is
built, must end in the one full box, and the closure of S - w must fill it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import le

from .errors import DomainError, EngineError
from .grid import GridDims, LatticeSet, Point, PointSet, Rect, check_grid
from .percolate import close_points

OK = "ok"
NOT_PERCOLATING = "not-percolating"
REDUNDANT_POINT = "redundant-point"
CORNER_REACHED = "corner-reached"

_BUCKET = 8  # a box is indexed by lo // _BUCKET on its axes shorter than this


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
    check_grid(dims, "corners")
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
    c = corners(ps.dims)
    return _certify(ps, [(r.lo, r.hi) for r in (c.jl, c.jr)])


def _near(a, b) -> bool:
    """True iff boxes ``a`` and ``b``, each ``(lo, hi)``, are <= 2 apart."""
    gap = 0
    for al, ah, bl, bh in zip(a[0], a[1], b[0], b[1]):
        if bl > ah:
            gap += bl - ah
        elif al > bh:
            gap += al - bh
    return gap <= 2


def _hull(a, b):
    return tuple(map(min, a[0], b[0])), tuple(map(max, a[1], b[1]))


def _candidates(index, b) -> list[int]:
    """The live nodes that can hold a box near ``b``: for each pattern of
    short axes seen so far, those in the buckets within reach on its short axes."""
    reach = [range((l - 1 - _BUCKET) // _BUCKET, (h + 2) // _BUCKET + 1) for l, h in zip(*b)]
    found = []
    for pattern, buckets in index.items():
        for key in product(*[r if short else (None,) for r, short in zip(reach, pattern)]):
            if key in buckets:
                found += buckets[key]
    return found


def _merge_tree(points):
    """Insert ``points`` in bit-reversed index order into the box process;
    node i is point i.  Returns the parent (-1 while live), children and box
    of each node."""
    k = len(points)
    order = [0]
    while len(order) < k:
        order = [2 * i for i in order] + [2 * i + 1 for i in order]
    parent, children, box, held = [-1] * k, [[] for _ in points], [None] * k, [None] * k
    # pattern (which axes are shorter than _BUCKET) -> key (lo // _BUCKET on
    # the short axes, None on the long ones) -> live nodes; held[i] holds i
    index: dict = {}
    for i in order:
        if i >= k:
            continue
        b = last = (points[i], points[i])
        while True:
            q = b
            for j in _candidates(index, b):
                if _near(b, box[j]):
                    b, last = _hull(b, box[j]), box[j]
                    held[j].remove(j)
                    parent[j] = i
                    children[i].append(j)
            if b in (q, last):  # nothing live is near q, or near the one box absorbed
                break
        pattern = tuple(h - l < _BUCKET for l, h in zip(*b))
        key = tuple(l // _BUCKET if short else None for l, short in zip(b[0], pattern))
        held[i] = index.setdefault(pattern, {}).setdefault(key, [])
        held[i].append(i)
        box[i] = b
    return parent, children, box


def _crowded(points) -> int:
    """The index of the first point with two seed neighbours, else len(points)."""
    seeds = set(points)
    for i, p in enumerate(points):
        near = [p[:a] + (c + e,) + p[a + 1:] for a, c in enumerate(p) for e in (-1, 1)]
        if len(seeds.intersection(near)) >= 2:
            return i
    return len(points)


def _settle(live, b):
    """Add box ``b`` to ``live``, boxes pairwise >= 3 apart, and merge until
    they are again.  A box passed over while ``b`` was smaller is seen again."""
    while True:
        keep, missed, last = [], None, None
        for c in live:
            if _near(b, c):
                b, last = _hull(b, c), c
            else:
                missed = missed or b
                keep.append(c)
        live = keep
        if missed in (None, b) or b == last:
            break
    live.append(b)
    return live


def _certify(s: PointSet | LatticeSet, corner_boxes) -> Verdict:
    """Percolation by one closure, then each single deletion in point order
    through the merge tree, failing on one that percolates or meets a corner
    box, up to the first seed with two seed neighbours, which is redundant."""
    dims = s.dims
    points = sorted(s.points)
    if close_points(dims, points)[1] != dims.cells:
        return Verdict(False, None, NOT_PERCOLATING)
    w = _crowded(points)
    if w:
        full = ((1,) * len(dims.sizes), dims.sizes)
        parent, children, box = _merge_tree(points)
        root = box[parent.index(-1)]
        if parent.count(-1) != 1 or root != full:
            raise EngineError(f"the box process ends at {root}, the closure fills {dims}")
    for v, p in enumerate(points[:w]):
        live, child, a = [box[c] for c in children[v]], v, parent[v]
        # once the closure without p fills the box of child, it is cl(S) above
        while a >= 0 and live != [box[child]]:
            live += [box[c] for c in children[a] if c != child]
            live = _settle(live, (points[a], points[a]))
            child, a = a, parent[a]
        if live == [box[child]]:
            return Verdict(False, p, REDUNDANT_POINT)
        if any(all(map(le, b[0], c[1])) and all(map(le, c[0], b[1]))
               for b in live for c in corner_boxes):
            return Verdict(False, p, CORNER_REACHED)
    if w == len(points):
        return Verdict(True, None, OK)
    if close_points(dims, points[:w] + points[w + 1:])[1] != dims.cells:
        raise EngineError(f"{points[w]} has two seed neighbours, yet the closure without it "
                          f"does not fill {dims}")
    return Verdict(False, points[w], REDUNDANT_POINT)
