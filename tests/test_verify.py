import random
from itertools import product

import pytest

import minps.verify
from minps import (
    DomainError,
    EngineError,
    GridDims,
    LatticeDims,
    LatticeSet,
    Point,
    PointSet,
    Rect,
    corner_avoiding_strip,
    corners,
    dense_minps,
    glue,
    is_corner_avoiding_minps,
    is_minps,
    lattice_minps,
    lattice_percolates,
    max_corner_avoiding,
    max_minps,
    percolates,
    simple_minps,
)
from minps.verify import CORNER_REACHED, NOT_PERCOLATING, OK, REDUNDANT_POINT

from oracles import naive_certify, naive_lattice_closure, naive_percolates


def ps(m, n, pts):
    return PointSet(GridDims(m, n), frozenset(pts))


def verdict(v):
    return (v.holds, v.witness, v.detail)


def grid_cells(m, n):
    return [(x, y) for x in range(1, m + 1) for y in range(1, n + 1)]


def subsets(m, n):
    cells = grid_cells(m, n)
    for mask in range(1 << len(cells)):
        yield [c for i, c in enumerate(cells) if mask >> i & 1]


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
        rng = random.Random(21)
        # side, dim, samples, smallest and largest sample size
        for side, d, samples, lo, hi in [(3, 3, 200, 3, 7), (2, 3, 60, 1, 4),
                                         (4, 3, 60, 5, 12), (3, 2, 100, 2, 4)]:
            dims = LatticeDims(side, d)
            cells = list(product(range(1, side + 1), repeat=d))

            def perc(pts):
                return len(naive_lattice_closure(side, d, 2, pts)) == dims.cells

            outcomes = set()
            for _ in range(samples):
                pts = set(rng.sample(cells, rng.randint(lo, hi)))
                v = is_minps(LatticeSet(dims, frozenset(pts)))
                if not perc(pts):
                    want = (False, None, NOT_PERCOLATING)
                else:
                    redundant = [p for p in sorted(pts) if perc(pts - {p})]
                    want = (False, redundant[0], REDUNDANT_POINT) if redundant else (True, None, OK)
                assert (v.holds, v.witness, v.detail) == want, (dims, sorted(pts))
                outcomes.add(v.detail)
            assert outcomes == {OK, NOT_PERCOLATING, REDUNDANT_POINT}, dims

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


class TestAgainstNaiveCertify:
    """Both verifiers against ``naive_certify``, one sweep closure per deletion."""

    def check(self, m, n, pts):
        """The details of both verdicts; the corner one is None below 2x2."""
        s = ps(m, n, pts)
        want = naive_certify(m, n, pts)
        assert verdict(is_minps(s)) == want, (m, n, sorted(pts))
        if min(m, n) < 2:
            return want[2], None
        corner = naive_certify(m, n, pts, corner=True)
        assert verdict(is_corner_avoiding_minps(s)) == corner, (m, n, sorted(pts))
        return want[2], corner[2]

    @pytest.mark.parametrize("m, n", [(3, 3), (3, 4), (4, 3)])
    def test_every_subset(self, m, n):
        outcomes = {d for pts in subsets(m, n) for d in self.check(m, n, pts)}
        assert outcomes == {OK, NOT_PERCOLATING, REDUNDANT_POINT, CORNER_REACHED}

    def test_thin_grids(self):
        for k in range(1, 10):
            for m, n in {(1, k), (k, 1)}:
                for pts in subsets(m, n):
                    self.check(m, n, pts)

    def test_random_grids(self):
        rng = random.Random(33)
        outcomes = set()
        for _ in range(300):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            cells = grid_cells(m, n)
            pts = set(rng.sample(cells, rng.randint(0, len(cells))))
            outcomes.update(self.check(m, n, pts))
            if naive_percolates(m, n, pts):  # prune to a minimal set, then add a cell
                for p in rng.sample(sorted(pts), len(pts)):
                    if naive_percolates(m, n, pts - {p}):
                        pts.discard(p)
                outcomes.update(self.check(m, n, pts))
                outcomes.update(self.check(m, n, pts | {rng.choice(cells)}))
        assert outcomes == {None, OK, NOT_PERCOLATING, REDUNDANT_POINT, CORNER_REACHED}

    @pytest.mark.parametrize("m, n, pts, witness, crowded", [
        (3, 3, [(1, 1), (1, 2), (1, 3), (3, 1)], (1, 1), (1, 2)),
        (5, 6, [(1, 2), (1, 4), (3, 1), (3, 2), (3, 5), (3, 6), (4, 6), (5, 5), (5, 6)],
         (3, 1), (3, 6)),
    ])
    def test_corner_reached_before_the_first_crowded_seed(self, m, n, pts, witness, crowded):
        # the walk settles every deletion before the first seed with two seed
        # neighbours, so it must not skip this earlier failure
        steps = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        first = next(p for p in sorted(pts)
                     if len({(p[0] + dx, p[1] + dy) for dx, dy in steps} & set(pts)) >= 2)
        assert first == crowded and witness < crowded
        assert self.check(m, n, pts)[1] == CORNER_REACHED
        assert is_corner_avoiding_minps(ps(m, n, pts)).witness == witness

    def test_search_witnesses_plus_a_cell(self):
        for search, (m, n) in [(max_minps, (4, 4)), (max_minps, (5, 4)),
                               (max_corner_avoiding, (4, 4))]:
            pts = set(search(GridDims(m, n)).witness.points)
            assert self.check(m, n, pts)[search is max_corner_avoiding] == OK
            for c in grid_cells(m, n):
                if c not in pts:
                    assert self.check(m, n, pts | {c})[0] == REDUNDANT_POINT


class TestMergeTreeIndex:
    """Large inputs through the box index's long-axis patterns, its no-growth
    path and the screen for a seed with two seed neighbours, against one BFS
    closure per deletion."""

    def check(self, s):
        v = verdict(is_minps(s))
        if not percolates(s):
            assert v == (False, None, NOT_PERCOLATING)
            return
        redundant = next((p for p in sorted(s.points) if percolates(s.without(p))), None)
        assert v == ((True, None, OK) if redundant is None else (False, redundant, REDUNDANT_POINT))

    def test_full_grid(self):
        s = ps(30, 30, grid_cells(30, 30))
        self.check(s)
        assert is_minps(s).witness == (1, 1)

    def test_isolated_seeds_plus_a_column(self):
        iso = [(x, y) for x, y in grid_cells(40, 40) if (x + 2 * y) % 5 == 0]
        self.check(ps(40, 40, iso))
        self.check(ps(40, 40, iso + [(40, y) for y in range(1, 41)]))

    def test_near_critical_random(self):
        rng = random.Random(8)
        while True:
            s = ps(40, 40, [c for c in grid_cells(40, 40) if rng.random() < 0.07])
            if percolates(s):
                break
        self.check(s)
        pts = set(s.points)
        for p in sorted(pts):  # prune to a minimal set: every deletion then runs
            if percolates(ps(40, 40, pts - {p})):
                pts.discard(p)
        self.check(ps(40, 40, pts))
        assert is_minps(ps(40, 40, pts)).holds

    def test_full_cube_builds_no_tree(self, monkeypatch):
        # the first point has two seed neighbours, so it is the witness at once
        trees = []
        real = minps.verify._merge_tree

        def merge_tree(points):
            trees.append(len(points))
            return real(points)

        monkeypatch.setattr(minps.verify, "_merge_tree", merge_tree)
        s = LatticeSet(LatticeDims(8, 3), frozenset(product(range(1, 9), repeat=3)))
        self.check(s)
        assert is_minps(s).witness == (1, 1, 1) and trees == []

    def test_full_rows_plus_a_column(self):
        # the witness (1, 1) has one seed neighbour; the first seed with two,
        # (2, 1), comes 14 points later, so the walk must find (1, 1) first
        rows = [(x, y) for x, y in grid_cells(40, 40) if y % 3 == 1 or x == 40]
        s = ps(40, 40, rows)
        assert sorted(s.points).index((2, 1)) == 14
        self.check(s)
        assert is_minps(s).witness == (1, 1)


def test_merge_tree_is_shallow():
    # bit-reversed insertion: a mean of 7.2 ancestors per node, against 46.3
    # for a chain built in sorted order
    parent = minps.verify._merge_tree(sorted(dense_minps(132, 132).points.points))[0]
    depth = 0
    for a in parent:
        while a >= 0:
            depth, a = depth + 1, parent[a]
    assert depth / len(parent) <= 12


def test_engine_error_when_the_tree_disagrees_with_the_closure(monkeypatch):
    real = minps.verify.close_points

    def full_count(dims, points, r=2):
        flags, _, generations = real(dims, points, r)
        return flags, dims.cells, generations

    monkeypatch.setattr(minps.verify, "close_points", full_count)
    with pytest.raises(EngineError):
        is_minps(ps(3, 3, [(2, 2)]))
    with pytest.raises(EngineError):
        is_minps(LatticeSet(LatticeDims(3, 3), frozenset({(1, 1, 1), (3, 3, 3)})))

    # the set's own closure is reported full; the closure without its first
    # point, which has two seed neighbours, is not, and raises before any tree
    calls = []

    def full_once(dims, points, r=2):
        flags, count, generations = real(dims, points, r)
        calls.append(points)
        return flags, dims.cells if len(calls) == 1 else count, generations

    monkeypatch.setattr(minps.verify, "close_points", full_once)
    with pytest.raises(EngineError):
        is_minps(ps(3, 3, [(1, 1), (1, 2), (2, 1)]))
    assert len(calls) == 2


def test_minps_deletion_closures_are_proper_rect_unions():
    # closure_rects reads full rectangles that cover the closure, and itself
    # checks that they are pairwise >= 3 apart
    from minps import closure_rects

    a = simple_minps(5, 5).points
    assert is_minps(a).holds
    for p in a:
        dec = closure_rects(a.without(p))
        assert dec.covered < 25
