"""Plain-text rendering of point sets, in the orientation of the construction
figures: row n is printed first, so (1, 1) appears bottom-left."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .grid import PointSet, check_grid
from .percolate import cell_indices, check_closure, close_points, closure_rects


@dataclass(frozen=True)
class RenderOptions:
    glyph_on: str = "#"
    glyph_off: str = "."
    glyph_closure: str = "+"
    show_closure: bool = False
    show_rects: bool = False

    def __post_init__(self) -> None:
        glyphs = (self.glyph_on, self.glyph_off, self.glyph_closure)
        if any(not isinstance(g, str) or len(g) != 1 for g in glyphs):
            raise DomainError("glyphs must be single characters")
        if len(set(glyphs)) != 3:
            raise DomainError("glyphs must be pairwise distinct")


def render(ps: PointSet, opts: RenderOptions | None = None) -> str:
    opts = opts or RenderOptions()
    check_grid(ps.dims, "render")
    check_closure(ps.dims)  # the drawing is as large as the grid
    n = ps.dims.n
    seeds = cell_indices(ps.dims, ps.points)
    # one code per cell in flat index order: 0 off, 1 closure, 2 seed
    codes = close_points(ps.dims, ps.points)[0] if opts.show_closure else bytearray(ps.dims.cells)
    for i in seeds:
        codes[i] = 2
    glyphs = str.maketrans("\0\1\2", opts.glyph_off + opts.glyph_closure + opts.glyph_on)
    text = codes.decode("latin-1").translate(glyphs)
    # cell (x, y) has flat index (x-1)*n + (y-1), so row y is the slice [y-1::n]
    lines = ["\n".join(text[y::n] for y in reversed(range(n)))]
    if opts.show_rects:
        for r in closure_rects(ps).rects:
            lines.append(
                f"rect ({r.lo.x},{r.lo.y})..({r.hi.x},{r.hi.y}) dim {r.width}x{r.height}"
            )
    return "\n".join(lines)
