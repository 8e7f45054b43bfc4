"""Lattice geometry: dimensions, points, rectangles, and bounded point sets.

Coordinates are 1-based and (1, 1) is the bottom-left cell of the grid.
Every container here is immutable and hashable, so values can be shared
freely between threads and processes.  ``PointSet`` and ``LatticeSet`` check
their points' lengths, coordinate types and bounds in bulk on construction;
only input that fails a check is rebuilt or tested point by point, to name
the bad point in a DomainError or BoundsError.

The module also owns the ``.pts`` text format used to exchange point sets:

    dims <m> <n>        # header for an m x n grid
    <x> <y>             # one point per line, '#' starts a comment

    ldims <n> <d>       # header for the [n]^d lattice variant
    <c1> <c2> ... <cd>  # d coordinates per line
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, product
from math import prod
from typing import Iterable, Iterator, NamedTuple

from .errors import BoundsError, DomainError, ResourceLimitError, integer


class Point(NamedTuple):
    x: int
    y: int


_POINT = partial(tuple.__new__, Point)  # Point(x, y) from (x, y), without a Python call


class _Box:
    """Cell count and membership, read off the axis sizes ``sizes``.  Every
    field is a positive integer, stored as an ``int`` (``errors.integer``)."""

    def __post_init__(self) -> None:
        fields = vars(self)  # the dataclass fields; frozen: past __setattr__
        for k, v in fields.items():
            fields[k] = integer(v, f"{self._noun} dims {k}", 1)

    @property
    def cells(self) -> int:
        return prod(self.sizes)

    def __contains__(self, p: tuple) -> bool:
        return len(p) == len(self.sizes) and all(1 <= c <= s for c, s in zip(p, self.sizes))


@dataclass(frozen=True)
class GridDims(_Box):
    """Width (columns, m) and height (rows, n) of a finite grid."""

    m: int
    n: int
    _noun = "grid"

    @property
    def sizes(self) -> tuple[int, int]:
        """The axis sizes, slowest axis first: (m, n)."""
        return (self.m, self.n)

    def __iter__(self) -> Iterator[int]:
        return iter((self.m, self.n))

    def __str__(self) -> str:
        return f"{self.m}x{self.n}"


@dataclass(frozen=True)
class LatticeDims(_Box):
    """The lattice [side]^dim, i.e. {1..side}^dim with nearest-neighbour edges.
    Not iterable, unlike GridDims, so ``m, n = dims`` rejects [side]^2 too."""

    side: int
    dim: int
    _noun = "lattice"

    def __post_init__(self) -> None:
        super().__post_init__()
        from .percolate import cell_cap  # percolate owns the cap and imports this module
        if self.dim > cell_cap():  # checked before ``sizes`` builds dim entries
            raise ResourceLimitError(f"{self} has {self.dim} axes, over the cell cap {cell_cap()}")

    @property
    def sizes(self) -> tuple[int, ...]:
        """The axis sizes, slowest axis first: (side,) * dim."""
        return (self.side,) * self.dim

    def __str__(self) -> str:
        return f"[{self.side}]^{self.dim}"


def check_grid(dims: GridDims | LatticeDims, what: str) -> None:
    """Raise DomainError unless ``dims`` is a 2D grid; ``what`` names the caller."""
    if not isinstance(dims, GridDims):
        raise DomainError(f"{what} needs a 2D grid, got {dims}")


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [lo, hi], both corners inclusive."""

    lo: Point
    hi: Point

    def __post_init__(self) -> None:
        if {type(self.lo), type(self.hi)} != {Point} or set(map(type, self.lo + self.hi)) != {int}:
            for name in ("lo", "hi"):
                raw = getattr(self, name)  # a corner that does not iterate has no coordinates
                corner = (tuple(integer(c, "rect corner") for c in raw)
                          if isinstance(raw, Iterable) else ())
                if len(corner) != 2:
                    raise DomainError(f"rect corner {name} must have 2 coordinates, got {raw!r}")
                object.__setattr__(self, name, Point(*corner))
        if self.lo.x > self.hi.x or self.lo.y > self.hi.y:
            raise DomainError(f"degenerate rectangle [{self.lo}, {self.hi}]")

    @property
    def width(self) -> int:
        return self.hi.x - self.lo.x + 1

    @property
    def height(self) -> int:
        return self.hi.y - self.lo.y + 1

    @property
    def dim(self) -> tuple[int, int]:
        return (self.width, self.height)

    @property
    def size(self) -> int:
        return self.width * self.height

    def __contains__(self, p: tuple) -> bool:
        x, y = p
        return self.lo.x <= x <= self.hi.x and self.lo.y <= y <= self.hi.y

    def cells(self) -> Iterator[Point]:
        xs, ys = range(self.lo.x, self.hi.x + 1), range(self.lo.y, self.hi.y + 1)
        return map(_POINT, product(xs, ys))

    def distance(self, other: "Rect") -> int:
        """Minimum taxicab distance between cells of the two rectangles."""
        gap_x = max(0, other.lo.x - self.hi.x, self.lo.x - other.hi.x)
        gap_y = max(0, other.lo.y - self.hi.y, self.lo.y - other.hi.y)
        return gap_x + gap_y


def _indexed(points, d: int, dims: GridDims | LatticeDims) -> list[tuple[int, ...]]:
    """Each point through ``operator.index``: DomainError names the first bad point."""
    from operator import index  # not ``integer``: the error names the whole point
    pts = []
    for p in points:
        try:
            pts.append(tuple(map(index, p)))
        except TypeError:
            pts.append(())
        if len(pts[-1]) != d:
            raise DomainError(f"point {p!r} must have {d} integer coordinates on {dims}")
    return pts


@dataclass(frozen=True, init=False)
class _Points:
    """A finite set of points bound to (and validated against) its dims.
    A subclass names its point type ``_point`` and its dims' noun ``_noun``."""

    dims: GridDims | LatticeDims
    points: frozenset[tuple[int, ...]]

    def __init__(self, dims: GridDims | LatticeDims, points: Iterable[tuple[int, ...]]) -> None:
        points = points if isinstance(points, (frozenset, list, tuple)) else tuple(points)
        point, sizes, d = self._point, dims.sizes, len(dims.sizes)
        try:
            pts = (points if isinstance(points, frozenset) and set(map(type, points)) == {point}
                   else frozenset(map(partial(tuple.__new__, point), points)))
            coords = tuple(chain.from_iterable(pts))  # c1, c2, ..., cd of each point in turn
            if not (set(map(len, pts)) <= {d} and set(map(type, coords)) <= {int}):
                raise TypeError
        except TypeError:  # check again with every point rebuilt
            return self.__init__(dims, _indexed(points, d, dims))
        if pts and (min(coords) < 1 or any(max(coords[k::d]) > s for k, s in enumerate(sizes))):
            bad = tuple(min(p for p in pts if p not in dims))
            raise BoundsError(f"point {bad} outside {self._noun} {dims}")
        self.__dict__["dims"], self.__dict__["points"] = dims, pts  # frozen: past __setattr__

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(sorted(self.points))

    def __contains__(self, p: tuple) -> bool:
        return tuple(p) in self.points

    def without(self, p: tuple):
        return type(self)(self.dims, self.points - {tuple(p)})


class PointSet(_Points):
    """A finite set of points bound to (and validated against) a GridDims."""

    _point, _noun = Point, "grid"


class LatticeSet(_Points):
    """A finite set of d-dimensional lattice points bound to a LatticeDims."""

    _point, _noun = tuple, "lattice"


def translate(ps: PointSet, k: int, l: int, target: GridDims | None = None) -> PointSet:
    """Shift every point by (k, l); the result lives on ``target`` (default: same dims).

    Raises BoundsError naming the least point whose image does not fit.
    """
    dims = target if target is not None else ps.dims
    k = integer(k, "translate k")
    l = integer(l, "translate l")
    return _moved(ps, dims, [(x + k, y + l) for x, y in ps.points], f"translate by ({k},{l}) moves")


def rotate180(ps: PointSet, target: GridDims | None = None) -> PointSet:
    """Map (x, y) to (m+1-x, n+1-y) on the target grid. An involution."""
    dims = target if target is not None else ps.dims
    m, n = dims
    return _moved(ps, dims, [(m + 1 - x, n + 1 - y) for x, y in ps.points], "rotate180 maps")


def _moved(ps: PointSet, dims: GridDims, image: list[tuple[int, int]], what: str) -> PointSet:
    """``image`` (``ps.points`` mapped, in iteration order) as a PointSet on ``dims``."""
    try:
        return PointSet(dims, image)
    except BoundsError:
        p, q = min((p, q) for p, q in zip(ps.points, image) if q not in dims)
        raise BoundsError(f"{what} {tuple(p)} to {q}, outside {dims}") from None


def transpose(ps: PointSet) -> PointSet:
    """Swap x and y; the result lives on the transposed grid."""
    m, n = ps.dims
    return PointSet(GridDims(n, m), [(y, x) for x, y in ps.points])


# --- .pts text format ------------------------------------------------------


def format_points(ps: PointSet | LatticeSet) -> str:
    dims = ps.dims
    head = (f"ldims {dims.side} {dims.dim}" if isinstance(ps, LatticeSet)
            else f"dims {dims.m} {dims.n}")
    line = " ".join(["%d"] * len(dims.sizes))
    return "\n".join([head, *map(line.__mod__, sorted(ps.points))]) + "\n"


def parse_points(text: str) -> PointSet | LatticeSet:
    header: tuple | None = None
    seen: set[tuple[int, ...]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if header is None:
            if fields[0] not in ("dims", "ldims") or len(fields) != 3:
                raise DomainError(f"line {lineno}: expected 'dims <m> <n>' or 'ldims <n> <d>'")
            try:
                header = (fields[0], int(fields[1]), int(fields[2]))
            except ValueError as exc:
                raise DomainError(f"line {lineno}: non-integer field in header {line!r}") from exc
            continue
        try:
            coords = tuple(int(f) for f in fields)
        except ValueError as exc:
            raise DomainError(f"line {lineno}: non-integer coordinate in {line!r}") from exc
        want = 2 if header[0] == "dims" else header[2]
        if len(coords) != want:
            raise DomainError(f"line {lineno}: expected {want} coordinates, got {len(coords)}")
        if coords in seen:
            raise DomainError(f"line {lineno}: duplicate point {coords}")
        seen.add(coords)
    if header is None:
        raise DomainError("missing 'dims' or 'ldims' header line")
    if header[0] == "dims":
        return PointSet(GridDims(header[1], header[2]), seen)
    return LatticeSet(LatticeDims(header[1], header[2]), seen)


def save_points(path, ps: PointSet | LatticeSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_points(ps))


def load_points(path) -> PointSet | LatticeSet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    return parse_points(text)
