"""Plain-text rendering of point sets, in the orientation of the construction
figures: row n is printed first, so (1, 1) appears bottom-left."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .grid import PointSet
from .percolate import check_closure, closure, closure_rects


@dataclass(frozen=True)
class RenderOptions:
    glyph_on: str = "#"
    glyph_off: str = "."
    glyph_closure: str = "+"
    show_closure: bool = False
    show_rects: bool = False

    def __post_init__(self) -> None:
        glyphs = (self.glyph_on, self.glyph_off, self.glyph_closure)
        if any(len(g) != 1 for g in glyphs):
            raise DomainError("glyphs must be single characters")
        if len(set(glyphs)) != 3:
            raise DomainError("glyphs must be pairwise distinct")


def render(ps: PointSet, opts: RenderOptions | None = None) -> str:
    opts = opts or RenderOptions()
    check_closure(ps.dims)  # the drawing is as large as the grid
    m, n = ps.dims
    infected = None
    if opts.show_closure or opts.show_rects:
        infected = closure(ps).infected
    lines = []
    for y in range(n, 0, -1):
        row = []
        for x in range(1, m + 1):
            if (x, y) in ps:
                row.append(opts.glyph_on)
            elif opts.show_closure and infected is not None and (x, y) in infected:
                row.append(opts.glyph_closure)
            else:
                row.append(opts.glyph_off)
        lines.append("".join(row))
    if opts.show_rects:
        for r in closure_rects(ps).rects:
            lines.append(
                f"rect ({r.lo.x},{r.lo.y})..({r.hi.x},{r.hi.y}) dim {r.width}x{r.height}"
            )
    return "\n".join(lines)
