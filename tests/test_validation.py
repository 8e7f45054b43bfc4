"""Malformed numbers end in DomainError, never in a TypeError from deep
inside a computation: every count, size, threshold and shift a public
function takes goes through the one check ``errors.integer``."""

from decimal import Decimal

import pytest

from minps import (
    DomainError,
    GridDims,
    Point,
    PointSet,
    Rect,
    RenderOptions,
    SearchBudget,
    chain,
    corner_avoiding_square,
    corner_avoiding_strip,
    dense_minps,
    dense_minps_params,
    double,
    internally_spans,
    ladder,
    min_percolating,
    monotonicity_table,
    simple_minps,
    size_bounds,
    strip_chain,
    translate,
)


@pytest.mark.parametrize("call", [
    lambda: SearchBudget(max_time="1"),
    lambda: monotonicity_table(2.5, 2),
    lambda: double(corner_avoiding_strip(1), 1.5),
    lambda: corner_avoiding_strip("2"),
    lambda: RenderOptions(glyph_on=1),
    lambda: simple_minps("2", 3),
    lambda: ladder("1"),
    lambda: chain(corner_avoiding_strip(1), "2"),
    lambda: strip_chain("1", 1),
    lambda: dense_minps("8", 6),
    lambda: size_bounds("4", 4),
    lambda: corner_avoiding_square("8"),
    lambda: dense_minps_params("30", 30),
    lambda: Rect(("a", 1), (2, 2)),
    lambda: translate(PointSet(GridDims(3, 3), [(1, 1)]), "1", 0),
    lambda: internally_spans(PointSet(GridDims(3, 3), [(1, 1)]), Rect((1.5, 1), (2, 2))),
    lambda: min_percolating(GridDims(3, 3), SearchBudget(max_time=Decimal("1"))),
    lambda: Rect(Point(1.5, 1), Point(2, 2)),
    lambda: Rect((1, 2, 3), (2, 2)),
    lambda: ladder(1, 1, "1"),
    lambda: ladder(1, 1, 0),
    lambda: Rect((1, 1), 5),
    lambda: Rect(None, (2, 2)),
], ids=["budget-time", "table-limit", "double-times", "strip-k", "render-glyph",
        "simple-m", "ladder-k", "chain-copies", "strip-chain-copies", "dense-m",
        "bounds-m", "square-side", "dense-params-m", "rect-word", "translate-shift",
        "rect-float", "budget-decimal-time", "rect-float-point", "rect-three-coordinates",
        "ladder-b-word", "ladder-b-zero", "rect-int-corner", "rect-none-corner"])
def test_malformed_numbers_are_domain_errors(call):
    with pytest.raises(DomainError):
        call()
