"""Deterministic generators for the known extremal families of percolating sets.

Every generator returns a CertifiedSet: the points, the property it is built
to have, and its recorded size.  The advertised property of each family is
re-checkable with the ``verify`` module, and the test suite does exactly
that over parameter sweeps.

The workhorse is ``glue``: two corner-avoiding minimal percolating sets,
three spare columns, and two connector points make one larger
corner-avoiding minimal percolating set.  Chaining and doubling that step
produces sets of quadratic size, with density approaching 4mn/33.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, EngineError, integer
from .grid import GridDims, LatticeDims, LatticeSet, PointSet, transpose
from .percolate import cell_cap, check_closure, percolates
from .verify import is_minps

PERCOLATING = "percolating"
MINPS = "minps"
CORNER_AVOIDING = "corner-avoiding-minps"

# Achieved density floor for the d=3 lattice construction.
LATTICE_DENSITY_FLOOR = {3: Fraction(1, 33)}


@dataclass(frozen=True)
class CertifiedSet:
    """A point set (grid or lattice) bundled with its advertised property
    and recorded size.

    ``size_formula`` is the size the driving formula predicts.  For every
    family except dense_minps it equals len(points) exactly; dense_minps
    records its guaranteed lower bound, which the built set may exceed.
    """

    points: PointSet | LatticeSet
    claim: str
    size_formula: int

    @property
    def dims(self) -> GridDims | LatticeDims:
        return self.points.dims

    def __len__(self) -> int:
        return len(self.points)


def _ladder_pairs(k: int, a: int, b: int) -> set[tuple[int, int]]:
    return {(a, b + 3 * i + dy) for i in range(k) for dy in (0, 2)}


def ladder(k: int, a: int = 1, b: int = 1, dims: GridDims | None = None) -> PointSet:
    """2k points in column ``a`` whose closure is the column segment of height 3k.

    The rungs sit at rows b, b+2, b+3, b+5, ...; each pair fills the gap
    between it, and consecutive filled runs touch, so the closure is exactly
    [(a, b), (a, b + 3k - 1)].
    """
    k = integer(k, "ladder k", 1)
    a = integer(a, "ladder a", 1)
    b = integer(b, "ladder b", 1)
    extent = GridDims(a, b + 3 * k - 1)
    check_closure(extent)  # an explicit ``dims`` holds the ladder, so is no smaller
    return PointSet(extent if dims is None else dims, frozenset(_ladder_pairs(k, a, b)))


def _thin_line(m: int) -> list[int]:
    # Marks in 2..m such that the marked row percolates its line and every
    # mark is essential.  Residues 0 and 2 (mod 3) work except when m = 1
    # (mod 3), where the tail is shifted to reach the last column.
    if m % 3 == 1:
        head = [x for x in range(2, m - 3) if x % 3 in (0, 2)]
        return head + [m - 2, m]
    return [x for x in range(2, m + 1) if x % 3 in (0, 2)]


def simple_minps(m: int, n: int) -> CertifiedSet:
    """The easy L-shaped minimal percolating set of size about 2(m+n)/3."""
    m = integer(m, "simple_minps m", 2)
    n = integer(n, "simple_minps n", 2)
    check_closure(GridDims(m, n))
    pts = {(x, 1) for x in _thin_line(m)} | {(1, y) for y in _thin_line(n)}
    ps = PointSet(GridDims(m, n), frozenset(pts))
    return CertifiedSet(ps, MINPS, len(ps))


def corner_avoiding_strip(k: int) -> CertifiedSet:
    """A corner-avoiding MinPS of size 4k+4 on the 8 x (3k+2) grid.

    Two ladders of k rungs sit in columns 1 and 8 (the right one shifted up
    by two rows), bridged by four single points.  Deleting any point leaves
    both corner rectangles uninfected.
    """
    k = integer(k, "corner_avoiding_strip k", 1)
    n = 3 * k + 2
    check_closure(GridDims(8, n))
    pts = _ladder_pairs(k, 1, 1)
    pts |= {(2, 3 * k), (4, 1), (5, n), (7, 3)}
    pts |= {(x + 7, y + 2) for (x, y) in _ladder_pairs(k, 1, 1)}
    ps = PointSet(GridDims(8, n), frozenset(pts))
    size = 4 * k + 4
    if len(ps) != size:
        raise EngineError(f"strip size {len(ps)} != {size}")
    return CertifiedSet(ps, CORNER_AVOIDING, size)


def glue(b: CertifiedSet, c: CertifiedSet) -> CertifiedSet:
    """Join two corner-avoiding MinPS into one, 3 columns and 2 points dearer.

    ``b`` (on m x n) keeps the bottom-left corner; ``c`` (on m' x n', with
    n' >= n) is shifted to the top-right; connector points at (m+1, 1) and
    (m+3, n'+2) let the two closures reach each other only when both are
    complete.  The result lives on (m + m' + 3) x (n' + 2).
    """
    if b.claim != CORNER_AVOIDING:
        raise DomainError("glue: first input is not certified corner-avoiding")
    if c.claim != CORNER_AVOIDING:
        raise DomainError("glue: second input is not certified corner-avoiding")
    m, n = b.dims
    mp, np_ = c.dims
    if np_ < n:
        raise DomainError(f"glue: second input must be at least as tall ({np_} < {n})")
    dims = GridDims(m + mp + 3, np_ + 2)
    check_closure(dims)
    pts = {(p.x, p.y) for p in b.points.points}
    pts |= {(m + 1, 1), (m + 3, np_ + 2)}
    pts |= {(p.x + m + 3, p.y + 2) for p in c.points.points}
    ps = PointSet(dims, frozenset(pts))
    size = len(b) + len(c) + 2
    if len(ps) != size:
        raise EngineError("glue produced overlapping parts")
    return CertifiedSet(ps, CORNER_AVOIDING, size)


def chain(x: CertifiedSet, copies: int) -> CertifiedSet:
    """Glue ``copies`` copies of ``x`` into one corner-avoiding MinPS.

    The result lives on (k*m + 3(k-1)) x (n + 2(k-1)) and has size
    k*|x| + 2(k-1): each of the k-1 glue steps adds its two connectors.
    """
    copies = integer(copies, "chain copies", 1)
    if x.claim != CORNER_AVOIDING:
        raise DomainError("chain: input is not certified corner-avoiding")
    m, n = x.dims
    want = GridDims(copies * m + 3 * (copies - 1), n + 2 * (copies - 1))
    check_closure(want)
    out = x
    for _ in range(copies - 1):
        out = glue(x, out)
    if out.dims != want:
        raise EngineError(f"chain dims {out.dims} != {want}")
    return out


def double(x: CertifiedSet, times: int) -> CertifiedSet:
    """Glue the set to itself ``times`` rounds; size 2^t*|x| + 2(2^t - 1)."""
    times = integer(times, "double times", 0)
    if x.claim != CORNER_AVOIDING:
        raise DomainError("double: input is not certified corner-avoiding")
    m, n = x.dims
    # At least 2^times columns: a ``times`` past the cap's bit length is over
    # the cap anyway, so the shift stops there.
    want = GridDims((1 << min(times, cell_cap().bit_length())) * (m + 3) - 3, n + 2 * times)
    check_closure(want)
    out = x
    for _ in range(times):
        out = glue(out, out)
    if out.dims != want:
        raise EngineError(f"double dims {out.dims} != {want}")
    return out


def strip_chain(copies: int, rungs: int) -> CertifiedSet:
    """Chain of ``copies`` corner-avoiding strips with ``rungs`` ladder rungs.

    Lives on (11*copies - 3) x (3*rungs + 2*copies); size
    4*copies*(rungs + 1) + 2*(copies - 1).
    """
    copies = integer(copies, "strip_chain copies", 1)
    rungs = integer(rungs, "strip_chain rungs", 1)
    return chain(corner_avoiding_strip(rungs), copies)  # each checks its dims


def extend(a: CertifiedSet, axis: str = "x") -> CertifiedSet:
    """Grow a MinPS by one column (axis 'x') or one row (axis 'y').

    With (w, r) the rightmost seed column and its highest occupied row, one
    of   C = A - {(w, r)} + {(w+1, r)}   and   B = A + {(w+1, r)}
    is a MinPS of the wider grid: C whenever C percolates, otherwise B.
    C is tried first.
    """
    if a.claim not in (MINPS, CORNER_AVOIDING):
        raise DomainError("extend: input is not certified as a MinPS")
    if axis == "y":
        flipped = CertifiedSet(transpose(a.points), MINPS, a.size_formula)
        out = extend(flipped, "x")
        return CertifiedSet(transpose(out.points), MINPS, out.size_formula)
    if axis != "x":
        raise DomainError(f"extend axis must be 'x' or 'y', got {axis!r}")
    w, h = a.dims
    rows = [p.y for p in a.points.points if p.x == w]
    if not rows:
        raise EngineError("percolating set has no seed in its last column")
    r = max(rows)
    dims = GridDims(w + 1, h)
    check_closure(dims)
    base = {(p.x, p.y) for p in a.points.points}
    c = PointSet(dims, frozenset(base - {(w, r)} | {(w + 1, r)}))
    if percolates(c):
        return CertifiedSet(c, MINPS, len(c))
    b = PointSet(dims, frozenset(base | {(w + 1, r)}))
    if percolates(b):
        return CertifiedSet(b, MINPS, len(b))
    raise EngineError("neither one-column extension percolates; engine bug")


def _built_size(t: int, M: int, N: int) -> int:
    # strip_chain(M, N) doubled t times: each glue adds two connectors.
    return (1 << t) * (4 * M * (N + 1) + 2 * (M - 1)) + 2 * ((1 << t) - 1)


def dense_minps_params(m: int, n: int) -> tuple[int, int, int, int] | None:
    """Best feasible (t, M, N, 2^(t+2)*M*(N+1)) for the doubling recipe at m x n.

    For each number of doubling rounds t, the widest chain that fits uses
    M = floor((m+3) / (11*2^t)) strips of N = floor((n - 2t - 2M) / 3) rungs.
    Returns the choice maximizing the exact built size (connectors included),
    or None when no t admits M, N >= 1.
    """
    m = integer(m, "dense_minps_params m")
    n = integer(n, "dense_minps_params n")
    best = None
    t = 0
    while True:
        M = (m + 3) // (11 << t)
        if M < 1:
            break
        N = (n - 2 * t - 2 * M) // 3
        if N >= 1:
            key = (_built_size(t, M, N), -t)
            if best is None or key > best[0]:
                best = (key, (t, M, N, (1 << (t + 2)) * M * (N + 1)))
        t += 1
    return None if best is None else best[1]


def dense_minps(m: int, n: int) -> CertifiedSet:
    """The densest certified MinPS this package can build on m x n.

    Builds strip_chain(M, N), doubles it t times, and pads to exactly m x n
    with one-line extensions; the recorded size_formula is the guaranteed
    2^(t+2)*M*(N+1), while the built set is slightly larger.  When the
    recipe is degenerate (small grids) it falls back to simple_minps.
    """
    m = integer(m, "dense_minps m", 2)
    n = integer(n, "dense_minps n", 2)
    simple = simple_minps(m, n)  # checks the grid against the cap
    params = dense_minps_params(m, n)
    if params is None:
        return simple
    t, M, N, formula = params
    if _built_size(t, M, N) < len(simple):
        return simple
    out: CertifiedSet = double(strip_chain(M, N), t)
    while out.dims.m < m:
        out = extend(out, "x")
    while out.dims.n < n:
        out = extend(out, "y")
    if out.dims != GridDims(m, n):
        raise EngineError(f"dense_minps landed on {out.dims}, wanted {m}x{n}")
    if not percolates(out.points):
        raise EngineError("dense_minps output does not percolate")
    return CertifiedSet(out.points, out.claim, formula)


def embed_corner_avoiding(a: CertifiedSet) -> CertifiedSet:
    """Wrap a MinPS on m x n into a corner-avoiding MinPS on (m+16) x (n+8).

    The original set is shifted by (8, 4); a guard of 2N+4 points (a ladder
    of N = floor((n+2)/3) rungs plus four bridges) occupies the left margin
    and its 180-degree rotation the right margin, adding 2(2N+4) >= 4n/3
    points in total.
    """
    if a.claim not in (MINPS, CORNER_AVOIDING):
        raise DomainError("embed_corner_avoiding: input is not certified as a MinPS")
    m, n = a.dims
    if n < 4:
        raise DomainError(f"embed_corner_avoiding needs height >= 4, got {n}")
    N = (n + 2) // 3
    big_m, big_n = m + 16, n + 8
    check_closure(GridDims(big_m, big_n))
    guard = _ladder_pairs(N, 1, 1) | {(2, 3 * N), (4, 1), (5, n + 4), (7, 5)}
    mirrored = {(big_m + 1 - x, big_n + 1 - y) for (x, y) in guard}
    pts = guard | {(p.x + 8, p.y + 4) for p in a.points.points} | mirrored
    ps = PointSet(GridDims(big_m, big_n), frozenset(pts))
    size = len(a) + 2 * (2 * N + 4)
    if len(ps) != size:
        raise EngineError("embed_corner_avoiding produced overlapping parts")
    return CertifiedSet(ps, CORNER_AVOIDING, size)


def corner_avoiding_square(side: int) -> CertifiedSet:
    """A corner-avoiding MinPS on the side x side square.

    Available for side 8 (a strip with two rungs is exactly 8 x 8) and for
    side >= 18 (embed the densest MinPS of the (side-16) x (side-8) grid).
    """
    side = integer(side, "corner_avoiding_square side")
    if side == 8:
        return corner_avoiding_strip(2)
    if side >= 18:
        check_closure(GridDims(side, side))
        return embed_corner_avoiding(dense_minps(side - 16, side - 8))
    raise DomainError(f"no corner-avoiding construction on a {side}x{side} square")


def lattice_minps(n: int, d: int) -> CertifiedSet:
    """A certified minimal percolating set of [n]^d under the 2-neighbour rule.

    d=2 delegates to dense_minps.  For d=3 the bottom plane carries a
    corner-avoiding square set and the cube is climbed with one seed every
    TWO planes, alternating between positions over the two protected
    corners (plus one extra top seed when n is even).  A seed two planes
    above a full slab first infects the cell directly below itself (full
    slab below, seed above) and then floods both planes; after any deletion
    every remaining piece sits at taxicab distance >= 3 from every other,
    so the infection stalls.

    Stacking dense planes more often is not possible: a single connector
    point two planes away from a fully infected slab always re-infects
    through the gap, so the climb is what keeps the set minimal.  d=3
    needs a corner-avoiding square base, so n must be 8 or at least 18.
    Percolation and full single-deletion minimality are checked on the
    spot; an EngineError reports any violation.
    """
    if d == 2:
        return dense_minps(n, n)
    if d != 3:
        raise DomainError(f"lattice_minps supports d in {{2, 3}}, got {d}")
    check_closure(LatticeDims(n, 3))
    square = corner_avoiding_square(n)
    pts: set[tuple[int, int, int]] = {(p.x, p.y, 1) for p in square.points.points}
    for step, z in enumerate(range(3, n + 1, 2)):
        pts.add((1, n, z) if step % 2 == 0 else (n, 1, z))
    if n % 2 == 0:
        pts.add((3, n - 2, n))
    ls = LatticeSet(LatticeDims(n, 3), frozenset(pts))
    verdict = is_minps(ls)
    if not verdict:
        raise EngineError(
            f"lattice construction on [{n}]^3 is not a MinPS: {verdict.detail} {verdict.witness}"
        )
    return CertifiedSet(ls, MINPS, len(ls))


def size_bounds(m: int, n: int) -> tuple[int, Fraction]:
    """(certified lower bound, proven upper bound) for the largest MinPS on m x n.

    The lower bound is the exact size of the densest set this package
    builds; the upper bound is (m+2)(n+2)/6, valid for min(m, n) >= 2.
    """
    m = integer(m, "size_bounds m", 2)
    n = integer(n, "size_bounds n", 2)
    lower = len(dense_minps(m, n))
    upper = Fraction((m + 2) * (n + 2), 6)
    return lower, upper
