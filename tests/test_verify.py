import random

import pytest

from minps import (
    DomainError,
    GridDims,
    LatticeDims,
    LatticeSet,
    Point,
    PointSet,
    Rect,
    corner_avoiding_strip,
    corners,
    glue,
    is_corner_avoiding_minps,
    is_minps,
    lattice_minps,
    lattice_percolates,
    simple_minps,
)
from minps.verify import CORNER_REACHED, NOT_PERCOLATING, OK, REDUNDANT_POINT

from oracles import naive_lattice_closure


def ps(m, n, pts):
    return PointSet(GridDims(m, n), frozenset(pts))


class TestCorners:
    def test_positions(self):
        c = corners(GridDims(8, 5))
        assert c.jl == Rect(Point(1, 4), Point(2, 5))
        assert c.jr == Rect(Point(7, 1), Point(8, 2))

    def test_too_small(self):
        with pytest.raises(DomainError):
            corners(GridDims(1, 5))


class TestIsMinps:
    def test_simple_holds(self):
        v = is_minps(simple_minps(6, 6).points)
        assert v.holds and v.detail == OK and v.witness is None
        assert bool(v)

    def test_full_grid_redundant(self):
        v = is_minps(ps(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)]))
        assert not v.holds
        assert v.detail == REDUNDANT_POINT
        assert v.witness == Point(1, 1)  # first witness in point order

    def test_not_percolating(self):
        v = is_minps(ps(3, 3, [(2, 2)]))
        assert not v.holds and v.detail == NOT_PERCOLATING and v.witness is None

    @pytest.mark.parametrize("k", range(1, 6))
    def test_strips_are_minps(self, k):
        assert is_minps(corner_avoiding_strip(k).points).holds

    def test_redundant_witness_is_member(self):
        a = ps(3, 1, [(1, 1), (2, 1), (3, 1)])
        v = is_minps(a)
        assert not v.holds and v.detail == REDUNDANT_POINT
        assert v.witness in a


class TestLatticeIsMinps:
    def test_agrees_with_naive_oracle(self):
        dims = LatticeDims(3, 3)
        cells = [(x, y, z) for x in range(1, 4) for y in range(1, 4) for z in range(1, 4)]

        def perc(pts):
            return len(naive_lattice_closure(3, 3, 2, pts)) == 27

        rng = random.Random(21)
        outcomes = set()
        for _ in range(200):
            pts = set(rng.sample(cells, rng.randint(3, 7)))
            v = is_minps(LatticeSet(dims, frozenset(pts)))
            if not perc(pts):
                want = (False, None, NOT_PERCOLATING)
            else:
                redundant = [p for p in sorted(pts) if perc(pts - {p})]
                want = (False, redundant[0], REDUNDANT_POINT) if redundant else (True, None, OK)
            assert (v.holds, v.witness, v.detail) == want
            outcomes.add(v.detail)
        assert outcomes == {OK, NOT_PERCOLATING, REDUNDANT_POINT}

    def test_names_least_redundant_point(self):
        # the added cell makes an earlier seed, (1, 4, 1), redundant as well
        base = lattice_minps(8, 3).points
        plus = LatticeSet(base.dims, base.points | {(1, 5, 1)})
        want = next(p for p in sorted(plus.points) if lattice_percolates(plus.without(p)))
        v = is_minps(plus)
        assert want == (1, 4, 1)
        assert (v.holds, v.detail, v.witness) == (False, REDUNDANT_POINT, want)


class TestCornerAvoiding:
    def test_strip_holds(self):
        v = is_corner_avoiding_minps(corner_avoiding_strip(1).points)
        assert v.holds and v.detail == OK

    def test_simple_reaches_corner(self):
        v = is_corner_avoiding_minps(simple_minps(6, 6).points)
        assert not v.holds
        assert v.detail == CORNER_REACHED
        assert v.witness == Point(1, 2)

    def test_glued_strips_hold(self):
        s = corner_avoiding_strip(1)
        assert is_corner_avoiding_minps(glue(s, s).points).holds

    def test_non_minimal_reported_as_redundant(self):
        v = is_corner_avoiding_minps(ps(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)]))
        assert not v.holds and v.detail == REDUNDANT_POINT

    def test_dims_too_small(self):
        with pytest.raises(DomainError):
            is_corner_avoiding_minps(ps(1, 3, [(1, 1), (1, 3)]))


def test_minps_deletion_closures_are_proper_rect_unions():
    # closure_rects itself asserts full coverage and pairwise distance >= 3
    from minps import closure_rects

    a = simple_minps(5, 5).points
    assert is_minps(a).holds
    for p in a:
        dec = closure_rects(a.without(p))
        assert dec.covered < 25
