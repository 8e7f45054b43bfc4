import random

import pytest

from minps import (
    DomainError,
    GridDims,
    PointSet,
    RenderOptions,
    corner_avoiding_strip,
    render,
)

from oracles import naive_render


def ps(m, n, pts):
    return PointSet(GridDims(m, n), frozenset(pts))


def test_strip_matches_figure_layout():
    want = "\n".join([
        "....#..#",
        "........",
        "##....##",
        "........",
        "#..#....",
    ])
    assert render(corner_avoiding_strip(1).points) == want


def test_empty_grid():
    assert render(ps(2, 2, [])) == "..\n.."


def test_closure_uses_third_glyph():
    out = render(ps(2, 2, [(1, 1), (2, 2)]), RenderOptions(show_closure=True))
    assert out == "+#\n#+"


def test_rect_annotations():
    out = render(ps(9, 9, [(1, 1), (5, 5)]), RenderOptions(show_rects=True))
    lines = out.splitlines()
    assert lines[9:] == [
        "rect (1,1)..(1,1) dim 1x1",
        "rect (5,5)..(5,5) dim 1x1",
    ]


def test_custom_glyphs():
    out = render(ps(2, 1, [(1, 1)]), RenderOptions(glyph_on="@", glyph_off="_"))
    assert out == "@_"


def test_glyphs_must_differ():
    with pytest.raises(DomainError):
        RenderOptions(glyph_on=".", glyph_off=".")
    with pytest.raises(DomainError):
        RenderOptions(glyph_on="##")


def test_injective_for_fixed_dims():
    rng = random.Random(17)
    seen = {}
    for _ in range(200):
        pts = frozenset(
            (rng.randint(1, 4), rng.randint(1, 4)) for _ in range(rng.randint(0, 6))
        )
        text = render(ps(4, 4, pts))
        if text in seen:
            assert seen[text] == pts
        seen[text] = pts


def test_cell_cap_checked_before_drawing(monkeypatch):
    from minps import ResourceLimitError

    monkeypatch.setenv("MINPS_CELL_CAP", "100")
    assert render(ps(10, 10, [(1, 1)])).count("\n") == 9
    with pytest.raises(ResourceLimitError):
        render(ps(20, 20, [(1, 1)]))


@pytest.mark.parametrize("glyphs", [("#", ".", "+"), ("\u2588", " ", "\u00b7")])
def test_matches_naive_render(glyphs):
    """Byte for byte against the cell-by-cell renderer, on every option pair."""
    on, off, cl = glyphs
    rng = random.Random(29)
    for _ in range(150):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        density = rng.choice([0.0, 0.1, 0.25, 0.5])
        seeds = {(x, y) for x in range(1, m + 1) for y in range(1, n + 1) if rng.random() < density}
        for show_closure in (False, True):
            for show_rects in (False, True):
                opts = RenderOptions(glyph_on=on, glyph_off=off, glyph_closure=cl,
                                     show_closure=show_closure, show_rects=show_rects)
                want = naive_render(m, n, seeds, on, off, cl, show_closure, show_rects)
                assert render(ps(m, n, seeds), opts) == want
