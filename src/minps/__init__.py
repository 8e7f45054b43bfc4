"""Bootstrap percolation on finite grids: closures, minimal percolating sets,
extremal constructions, and exhaustive search oracles."""

from .errors import BoundsError, DomainError, EngineError, ResourceLimitError
from .grid import (
    GridDims,
    LatticeDims,
    LatticeSet,
    Point,
    PointSet,
    Rect,
    format_points,
    load_points,
    parse_points,
    rotate180,
    save_points,
    translate,
    transpose,
)
from .percolate import (
    Closure,
    RectDecomposition,
    closure,
    closure_rects,
    internally_spans,
    lattice_closure,
    lattice_percolates,
    percolates,
    spans,
)
from .verify import Corners, Verdict, corner_cells, corners, is_corner_avoiding_minps, is_minps
from .construct import (
    CORNER_AVOIDING,
    LATTICE_DENSITY_FLOOR,
    MINPS,
    PERCOLATING,
    CertifiedSet,
    chain,
    corner_avoiding_square,
    corner_avoiding_strip,
    dense_minps,
    dense_minps_params,
    double,
    embed_corner_avoiding,
    extend,
    glue,
    ladder,
    lattice_minps,
    simple_minps,
    size_bounds,
    strip_chain,
)
from .search import (
    SearchBudget,
    SearchResult,
    max_corner_avoiding,
    max_minps,
    min_percolating,
    monotonicity_table,
)
from .render import RenderOptions, render

__all__ = [
    "BoundsError", "DomainError", "EngineError", "ResourceLimitError",
    "GridDims", "LatticeDims", "LatticeSet", "Point", "PointSet", "Rect",
    "format_points", "load_points", "parse_points", "save_points",
    "rotate180", "translate", "transpose",
    "Closure", "RectDecomposition", "closure", "closure_rects",
    "internally_spans", "lattice_closure", "lattice_percolates",
    "percolates", "spans",
    "Corners", "Verdict", "corner_cells", "corners",
    "is_corner_avoiding_minps", "is_minps",
    "CORNER_AVOIDING", "LATTICE_DENSITY_FLOOR", "MINPS", "PERCOLATING",
    "CertifiedSet",
    "chain", "corner_avoiding_square", "corner_avoiding_strip",
    "dense_minps", "dense_minps_params", "double", "embed_corner_avoiding",
    "extend", "glue", "ladder", "lattice_minps", "simple_minps",
    "size_bounds", "strip_chain",
    "SearchBudget", "SearchResult", "max_corner_avoiding", "max_minps",
    "min_percolating", "monotonicity_table",
    "RenderOptions", "render",
]

__version__ = "0.1.0"
