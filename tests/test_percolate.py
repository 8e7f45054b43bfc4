import math
import random
import tracemalloc
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minps import (
    DomainError,
    EngineError,
    GridDims,
    LatticeDims,
    LatticeSet,
    Point,
    PointSet,
    Rect,
    ResourceLimitError,
    closure,
    closure_rects,
    corners,
    internally_spans,
    is_corner_avoiding_minps,
    ladder,
    lattice_closure,
    lattice_percolates,
    max_corner_avoiding,
    max_minps,
    percolates,
    render,
    simple_minps,
    spans,
)
from minps import percolate
from minps.percolate import (_close, _engine, axis_mask, board_closure, cell_at, cell_indices,
                             close_points)

from oracles import naive_closure, naive_generations, naive_lattice_closure


def ps(m, n, pts):
    return PointSet(GridDims(m, n), frozenset(pts))


def random_ps(rng, m, n, density=0.3):
    pts = {(x, y) for x in range(1, m + 1) for y in range(1, n + 1) if rng.random() < density}
    return ps(m, n, pts)


class TestClosure:
    def test_ladder_fills_column(self):
        a = ladder(2, dims=GridDims(1, 6))
        assert set(a.points) == {Point(1, 1), Point(1, 3), Point(1, 4), Point(1, 6)}
        cl = closure(a)
        assert set(cl.infected.points) == {Point(1, y) for y in range(1, 7)}

    def test_diagonal_pair_fills_square(self):
        cl = closure(ps(2, 2, [(1, 1), (2, 2)]))
        assert len(cl.infected) == 4
        assert cl.generations == 1

    def test_empty_seed(self):
        cl = closure(ps(5, 5, []))
        assert len(cl.infected) == 0
        assert cl.generations == 0

    def test_strip_fills_grid(self):
        from minps import corner_avoiding_strip

        a = corner_avoiding_strip(1)
        assert len(closure(a.points).infected) == 40

    def test_seed_order_irrelevant(self):
        rng = random.Random(2)
        a = random_ps(rng, 5, 4)
        idx = [(p.x - 1) * 4 + (p.y - 1) for p in a.points]
        engine = _engine(GridDims(5, 4), 2)
        flags, count, gens = _close(*engine, idx)
        for _ in range(5):
            rng.shuffle(idx)
            assert _close(*engine, idx) == (flags, count, gens)


class TestClosureTypes:
    def test_grid_closure_holds_points_of_ints(self):
        rng = random.Random(43)
        for _ in range(50):
            cl = closure(random_ps(rng, rng.randint(1, 9), rng.randint(1, 9)))
            assert all(type(p) is Point and type(p.x) is int and type(p.y) is int
                       for p in cl.infected.points)

    def test_lattice_closure_holds_tuples_of_ints(self):
        rng = random.Random(47)
        for _ in range(50):
            side, d = rng.randint(1, 4), rng.randint(1, 3)
            pts = {tuple(rng.randint(1, side) for _ in range(d)) for _ in range(rng.randint(0, 6))}
            cl = lattice_closure(LatticeSet(LatticeDims(side, d), pts))
            assert all(type(p) is tuple and len(p) == d and all(type(c) is int for c in p)
                       for p in cl.points)
            assert cl.points == naive_lattice_closure(side, d, 2, pts)


class TestPercolates:
    def test_simple_minps_percolates(self):
        a = simple_minps(6, 6).points
        assert percolates(a)

    def test_simple_minus_point_fails(self):
        a = simple_minps(6, 6).points
        assert (3, 1) in a
        assert not percolates(a.without((3, 1)))

    def test_single_point_stuck(self):
        assert not percolates(ps(3, 3, [(2, 2)]))


class TestSpans:
    def test_ladder_internally_spans_its_column(self):
        a = ladder(1, dims=GridDims(1, 3))
        assert internally_spans(a, Rect(Point(1, 1), Point(1, 3)))

    def test_empty_spans_empty(self):
        assert spans(ps(2, 2, []), ps(2, 2, []))

    def test_single_point_does_not_span_square(self):
        assert not internally_spans(ps(2, 2, [(1, 1)]), Rect(Point(1, 1), Point(2, 2)))

    def test_dims_mismatch(self):
        with pytest.raises(DomainError):
            spans(ps(2, 2, []), ps(3, 3, []))

    def test_internally_spans_matches_naive_closure(self):
        """Random rectangles, a third of them on the border, against the
        naive closure of the seeds inside them."""
        rng = random.Random(41)
        for _ in range(400):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            a = random_ps(rng, m, n, rng.choice([0.2, 0.4, 0.6]))
            x0, x1 = sorted(rng.randint(1, m) for _ in range(2))
            y0, y1 = sorted(rng.randint(1, n) for _ in range(2))
            if rng.random() < 1 / 3:
                x0, y1 = 1, n
            rect = Rect(Point(x0, y0), Point(x1, y1))
            inside = [(x, y) for x, y in a.points if x0 <= x <= x1 and y0 <= y <= y1]
            cells = {(x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)}
            full = naive_closure(m, n, inside) >= cells
            assert internally_spans(a, rect) == full, (m, n, sorted(a.points), rect)


class TestClosureRects:
    def test_isolated_points(self):
        dec = closure_rects(ps(9, 9, [(1, 1), (5, 5)]))
        assert [(r.lo, r.hi) for r in dec.rects] == [
            (Point(1, 1), Point(1, 1)),
            (Point(5, 5), Point(5, 5)),
        ]

    def test_empty_set_decomposes_to_nothing(self):
        assert closure_rects(ps(4, 4, [])).rects == ()

    def test_diagonal_pair_bounding_box(self):
        dec = closure_rects(ps(5, 5, [(1, 1), (2, 2)]))
        assert [(r.lo, r.hi) for r in dec.rects] == [(Point(1, 1), Point(2, 2))]

    def test_ladder_single_column_rect(self):
        dec = closure_rects(ladder(2, dims=GridDims(3, 6)))
        assert [(r.lo, r.hi) for r in dec.rects] == [(Point(1, 1), Point(1, 6))]

    def test_cover_and_distance_on_random(self):
        rng = random.Random(9)
        inputs = [random_ps(rng, 7, 6, 0.2) for _ in range(200)]
        inputs += [random_ps(rng, 1, rng.randint(1, 12), 0.3) for _ in range(50)]
        inputs += [random_ps(rng, rng.randint(1, 12), 1, 0.3) for _ in range(50)]
        cells = [(x, y) for x in range(1, 5) for y in range(1, 5)]
        inputs += [
            ps(4, 4, [c for i, c in enumerate(cells) if mask >> i & 1]) for mask in range(1 << 16)
        ]
        for a in inputs:
            cl = closure(a)
            dec = closure_rects(a)
            assert dec.covered == len(cl.infected)
            covered = set()
            for r in dec.rects:
                covered |= set(r.cells())
            assert covered == set(cl.infected.points)
            assert [r.lo for r in dec.rects] == sorted(r.lo for r in dec.rects)
            for i, ra in enumerate(dec.rects):
                for rb in dec.rects[i + 1:]:
                    assert ra.distance(rb) >= 3

    @pytest.mark.parametrize("infected", [
        [(2, 2), (2, 3), (3, 2)],                                          # an L-shape
        [(1, 1), (1, 2), (2, 2)],                           # a step: (2, 2) is in no rectangle
        [(1, 1), (1, 2), (2, 1), (2, 2), (4, 1), (4, 2), (5, 1), (5, 2)],  # squares 2 apart
        [(1, 1), (1, 2), (2, 2), (5, 5), (5, 6), (6, 5)],  # sizes add up, (6, 6) is a hole
        [(x, y) for x in (2, 3, 4) for y in (2, 3, 4) if (x, y) != (3, 3)],  # a ring
    ])
    def test_rejects_flags_that_are_not_a_closure(self, monkeypatch, infected):
        dims = GridDims(6, 6)
        flags = bytearray(dims.cells)
        for i in cell_indices(dims, infected):
            flags[i] = 1
        monkeypatch.setattr(
            "minps.percolate.close_points",
            lambda dims, points, r=2: (flags, len(infected), 0),
        )
        with pytest.raises(EngineError):
            closure_rects(ps(6, 6, infected))

    def test_close_rect_pair_merges(self):
        # two filled rectangles within interaction range close into a single
        # rectangle, strictly larger unless their union already was one
        rng = random.Random(21)
        merged = 0
        for _ in range(400):
            ax, ay = rng.randint(1, 4), rng.randint(1, 4)
            aw, ah = rng.randint(1, 3), rng.randint(1, 3)
            ra = Rect(Point(ax, ay), Point(ax + aw - 1, ay + ah - 1))
            bx, by = rng.randint(1, 8), rng.randint(1, 8)
            bw, bh = rng.randint(1, 3), rng.randint(1, 3)
            if bx + bw - 1 > 12 or by + bh - 1 > 12:
                continue
            rb = Rect(Point(bx, by), Point(bx + bw - 1, by + bh - 1))
            if not 1 <= ra.distance(rb) <= 2:
                continue
            union = set(ra.cells()) | set(rb.cells())
            cl = naive_closure(12, 12, union)
            xs = [x for x, _ in cl]
            ys = [y for _, y in cl]
            box = {(x, y) for x in range(min(xs), max(xs) + 1)
                   for y in range(min(ys), max(ys) + 1)}
            assert cl == box
            union_is_rect = len(union) == (
                (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1)
            ) and union == box
            if not union_is_rect:
                assert len(cl) > len(union)
                merged += 1
        assert merged > 20


class TestEngineProperties:
    def test_against_naive_oracle_random(self):
        rng = random.Random(4)
        for _ in range(300):
            m, n = rng.randint(1, 5), rng.randint(1, 4)
            a = random_ps(rng, m, n, rng.random())
            cl = closure(a)
            assert set(map(tuple, cl.infected.points)) == naive_closure(m, n, set(map(tuple, a.points)))

    def test_generations_match_naive(self):
        rng = random.Random(14)
        for _ in range(100):
            m, n = rng.randint(1, 6), rng.randint(1, 5)
            a = random_ps(rng, m, n, 0.3)
            assert closure(a).generations == naive_generations(m, n, set(map(tuple, a.points)))

    def test_containment_monotone_idempotent(self):
        rng = random.Random(6)
        for _ in range(200):
            m, n = rng.randint(2, 8), rng.randint(2, 8)
            a = random_ps(rng, m, n, 0.25)
            extra = random_ps(rng, m, n, 0.1)
            b = ps(m, n, set(a.points) | set(extra.points))
            ca, cb = closure(a), closure(b)
            assert set(a.points) <= set(ca.infected.points)
            assert set(ca.infected.points) <= set(cb.infected.points)
            assert closure(ca.infected).infected == ca.infected
            assert closure(ca.infected).generations == 0


class TestLattice:
    def test_three_point_cube_percolates(self):
        ls = LatticeSet(LatticeDims(2, 3), frozenset({(1, 1, 1), (2, 2, 1), (1, 2, 2)}))
        assert lattice_percolates(ls, r=2)
        assert len(lattice_closure(ls, r=2)) == 8

    def test_diagonal_square(self):
        ls = LatticeSet(LatticeDims(3, 2), frozenset({(1, 1), (2, 2), (3, 3)}))
        assert lattice_percolates(ls, r=2)

    def test_r1_floods_from_single_point(self):
        ls = LatticeSet(LatticeDims(4, 3), frozenset({(2, 3, 1)}))
        assert lattice_percolates(ls, r=1)

    def test_agrees_with_2d_engine(self):
        # exhaustive on [3]^2, random on [4]^2
        for mask in range(1 << 9):
            pts = {(i // 3 + 1, i % 3 + 1) for i in range(9) if mask >> i & 1}
            ls = LatticeSet(LatticeDims(3, 2), frozenset(pts))
            grid = ps(3, 3, pts)
            assert set(lattice_closure(ls, r=2).points) == set(
                map(tuple, closure(grid).infected.points)
            )
        rng = random.Random(8)
        for _ in range(100):
            pts = {(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(5)}
            ls = LatticeSet(LatticeDims(4, 2), frozenset(pts))
            assert set(lattice_closure(ls, r=2).points) == set(
                map(tuple, closure(ps(4, 4, pts)).infected.points)
            )

    def test_agrees_with_naive_lattice(self):
        rng = random.Random(13)
        for _ in range(40):
            r = rng.choice([1, 2, 3])
            pts = {(rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)) for _ in range(5)}
            ls = LatticeSet(LatticeDims(3, 3), frozenset(pts))
            for r in (r, 300):  # 300 is above any cell's degree and a byte
                assert set(lattice_closure(ls, r=r).points) == naive_lattice_closure(3, 3, r, pts)

    # Neighbours come from the strides; these are the shapes where that
    # arithmetic could wrap a neighbour onto the next line: grids one or two
    # cells across, and lattices with side 1 or 2 or with one or two axes.
    @settings(max_examples=600)
    @given(data=st.data())
    def test_stride_neighbours_match_naive(self, data):
        k = st.integers(1, 12)
        if data.draw(st.booleans()):
            m, n = data.draw(st.one_of(st.tuples(st.just(1), k), st.tuples(k, st.just(1)),
                                       st.tuples(st.just(2), k), st.tuples(k, st.just(2))))
            seeds = data.draw(st.sets(st.tuples(st.integers(1, m), st.integers(1, n))))
            cl = closure(ps(m, n, seeds))
            assert set(map(tuple, cl.infected.points)) == naive_closure(m, n, seeds)
            assert cl.generations == naive_generations(m, n, seeds)
        else:
            side, d = data.draw(st.one_of(st.tuples(st.integers(1, 2), st.integers(1, 5)),
                                          st.tuples(k, st.integers(1, 2))))
            r = data.draw(st.integers(1, 2 * d + 2))  # one above any cell's degree
            pts = data.draw(st.sets(st.tuples(*[st.integers(1, side)] * d)))
            ls = LatticeSet(LatticeDims(side, d), frozenset(pts))
            assert set(lattice_closure(ls, r=r).points) == naive_lattice_closure(side, d, r, pts)

    def test_cell_cap(self, monkeypatch):
        monkeypatch.setenv("MINPS_CELL_CAP", "10")
        ls = LatticeSet(LatticeDims(3, 3), frozenset({(1, 1, 1)}))
        with pytest.raises(ResourceLimitError):
            lattice_closure(ls, r=2)
        monkeypatch.delenv("MINPS_CELL_CAP")
        lattice_closure(ls, r=2)

    def test_bad_threshold(self):
        ls = LatticeSet(LatticeDims(2, 2), frozenset())
        with pytest.raises(DomainError):
            lattice_closure(ls, r=0)


class TestLatticeInput:
    """Lattice sets: the 2-neighbour calls take them, the 2-D-only calls raise DomainError."""

    @pytest.mark.parametrize("dims,pts", [(LatticeDims(3, 2), [(1, 1), (2, 2), (3, 3)]),
                                          (LatticeDims(2, 3), [(1, 1, 1), (1, 2, 2), (2, 1, 2)])])
    def test_two_neighbour_calls_take_lattice_sets(self, dims, pts):
        ls = LatticeSet(dims, pts)
        cl = closure(ls)
        assert cl.dims == dims and cl.infected == lattice_closure(ls)
        assert set(cl.infected.points) == naive_lattice_closure(dims.side, dims.dim, 2, pts)
        assert percolates(ls) and lattice_percolates(ls)
        assert spans(ls, cl.infected) and not spans(ls.without(pts[0]), cl.infected)
        assert not percolates(ls.without(pts[0]))

    def test_a_square_lattice_closes_like_its_grid(self):
        pts = [(1, 1), (2, 3), (4, 4), (5, 1)]
        grid, square = closure(ps(5, 5, pts)), closure(LatticeSet(LatticeDims(5, 2), pts))
        assert square.infected.points == grid.infected.points
        assert square.generations == grid.generations

    @pytest.mark.parametrize("dims", [LatticeDims(3, 2), LatticeDims(3, 3)])
    @pytest.mark.parametrize("call", [
        closure_rects,
        lambda s: internally_spans(s, Rect(Point(1, 1), Point(2, 2))),
        render,
        lambda s: corners(s.dims),
        is_corner_avoiding_minps,
        lambda s: max_minps(s.dims),
        lambda s: max_corner_avoiding(s.dims),
    ], ids=["closure_rects", "internally_spans", "render", "corners",
            "is_corner_avoiding_minps", "max_minps", "max_corner_avoiding"])
    def test_2d_only_calls_reject_lattice_sets(self, call, dims):
        with pytest.raises(DomainError, match="2D grid"):
            call(LatticeSet(dims, [(1,) * dims.dim]))


class TestFlatIndex:
    @pytest.mark.parametrize("dims", [GridDims(3, 4), GridDims(1, 5), LatticeDims(3, 3), LatticeDims(2, 4)])
    def test_cell_at_inverts_cell_index(self, dims):
        cells = [cell_at(dims, i) for i in range(dims.cells)]
        assert all(c in dims for c in cells) and len(set(cells)) == dims.cells
        assert cell_indices(dims, cells) == list(range(dims.cells))
        # one cell at a time, in any order, and sizes spans the cells
        assert [cell_indices(dims, [c])[0] for c in cells[::-1]] == cell_indices(dims, cells[::-1])
        assert cell_indices(dims, []) == []
        assert math.prod(dims.sizes) == dims.cells

    def test_grid_index_order_is_point_order(self):
        for dims in [GridDims(4, 3), LatticeDims(3, 3), LatticeDims(2, 4)]:
            cells = [cell_at(dims, i) for i in range(dims.cells)]
            assert cells == sorted(cells), dims

    def test_grid_rejects_other_thresholds(self):
        with pytest.raises(DomainError):
            close_points(GridDims(3, 3), [], r=3)

    def test_cell_cap_covers_grids_before_allocating(self, monkeypatch):
        from minps import is_corner_avoiding_minps, is_minps

        a = simple_minps(4, 4).points
        # the same points on a grid whose countdown bytes alone take 4 MB
        big = PointSet(GridDims(2000, 2000), a.points)
        monkeypatch.setenv("MINPS_CELL_CAP", "10")
        calls = [
            lambda: closure(big), lambda: percolates(big.without((1, 1))),
            lambda: closure_rects(big), lambda: spans(big, big),
            lambda: internally_spans(big, Rect(Point(1, 1), Point(2, 2))),
            lambda: is_minps(big), lambda: is_corner_avoiding_minps(big),
        ]
        tracemalloc.start()
        try:
            for call in calls:
                with pytest.raises(ResourceLimitError):
                    call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        monkeypatch.setenv("MINPS_CELL_CAP", "16")
        assert percolates(a)

    def test_closure_keeps_no_memory_after_it_returns(self):
        a = simple_minps(300, 300).points
        tracemalloc.start()
        try:
            assert percolates(a)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert kept < 2**20


# Where the closure engine hands over from bit-parallel rounds to the BFS, set
# through its module constants: the rounds start on any seed (a round costs
# cells and nothing more), then hand over after the first round that infects
# a cell, or never.
HAND_OVER = {"at-first-round": -1, "never": math.inf}


def hand_over(mp, mode):
    mp.setattr(percolate, "_START", 0)
    mp.setattr(percolate, "_ROUND_COST", 0)
    mp.setattr(percolate, "_HANDOVER", HAND_OVER[mode])


def spiral(n):
    """Seeds whose closure on the n x n grid is a box grown by two columns or
    rows at a time, each seed next to the last cell the box infects, so the
    closure takes about n**2 / 2 rounds."""
    c = n // 2
    x0, y0, x1, y1 = c, c, c + 1, c + 1
    seeds = [(c, c), (c + 1, c + 1)]
    while True:
        for side in range(4):  # right, bottom, left, top
            x, y = ((x1 + 2, y1), (x1, y0 - 2), (x0 - 2, y0), (x0, y1 + 2))[side]
            if not (1 <= x <= n and 1 <= y <= n):
                return seeds
            seeds.append((x, y))
            x0, y0, x1, y1 = min(x0, x), min(y0, y), max(x1, x), max(y1, y)


class TestTwoPhaseEngine:
    """The bit-parallel rounds, the hand-over and the BFS give one closure."""

    @pytest.mark.parametrize("mode", list(HAND_OVER))
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_close_matches_the_oracles(self, mode, data):
        rnd = data.draw(st.randoms(use_true_random=False))
        density = data.draw(st.floats(0, 1))
        if data.draw(st.booleans()):
            m, n = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
            dims, rs = GridDims(m, n), [2]
        else:
            side, d = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
            dims, rs = LatticeDims(side, d), range(1, 2 * d + 2)
        cells = [cell_at(dims, i) for i in range(dims.cells)]
        seeds = [c for c in cells if rnd.random() < density]
        idx = cell_indices(dims, seeds)
        for r in rs:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(percolate, "_START", math.inf)  # the BFS alone
                bfs = _close(*_engine(dims, r), idx)
                hand_over(mp, mode)
                got = _close(*_engine(dims, r), idx)
            assert got == bfs
            flags, count, generations = got
            infected = set(compress(cells, flags))
            assert count == len(infected)
            if isinstance(dims, GridDims):
                assert infected == naive_closure(m, n, seeds)
                assert generations == naive_generations(m, n, seeds)
            else:
                assert infected == naive_lattice_closure(side, d, r, seeds)

    @pytest.fixture(scope="class")
    def spiral_oracle(self):
        seeds = spiral(40)
        return seeds, naive_closure(40, 40, seeds), naive_generations(40, 40, seeds)

    @pytest.mark.parametrize("mode", [None, *HAND_OVER])
    def test_a_spiral_ends_with_the_oracles_closure(self, mode, spiral_oracle, monkeypatch):
        seeds, infected, generations = spiral_oracle
        if mode:
            hand_over(monkeypatch, mode)
        cl = closure(ps(40, 40, seeds))
        assert set(map(tuple, cl.infected.points)) == infected
        assert cl.generations == generations > 40 * 40 // 4

    def test_a_threshold_past_a_byte_on_size_one_axes(self):
        # size-1 axes give no neighbours, so the threshold clamps to 1 here
        ls = LatticeSet(LatticeDims(1, 130), [])
        assert not lattice_percolates(ls, r=300)
        assert lattice_percolates(LatticeSet(LatticeDims(1, 130), [(1,) * 130]), r=300)
        assert _engine(LatticeDims(1, 130), 300)[2] == 1

    @pytest.mark.parametrize("size,stride,cells", [(1, 1, 1), (2, 1, 6), (5, 3, 30), (3, 9, 27),
                                                   (4, 16, 64), (7, 1, 7)])
    def test_axis_mask_marks_the_cells_with_a_neighbour_below(self, size, stride, cells):
        mask = axis_mask(size, stride, cells)
        assert [mask >> i & 1 for i in range(cells)] == [i // stride % size > 0 for i in range(cells)]
        assert mask >> cells == 0


class TestBoardClosure:
    """``board_closure`` (cell i at bit i) against the naive sweeps: the plane
    sweep on grids, thin ones included, and on [side]^2 at r = 2, the
    counter rounds on every other lattice and threshold."""

    @staticmethod
    def check(dims, r, seed, want):
        rng = random.Random(seed)
        cells = [cell_at(dims, i) for i in range(dims.cells)]
        close = board_closure(dims, r).close
        for _ in range(12):
            density = rng.random()
            board = sum(1 << i for i in range(dims.cells) if rng.random() < density)
            closed = close(board)
            assert closed >> dims.cells == 0
            got = {c for i, c in enumerate(cells) if closed >> i & 1}
            assert got == want([c for i, c in enumerate(cells) if board >> i & 1])

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 8) for n in range(1, 8)])
    def test_grids_match_the_naive_sweep(self, m, n):
        self.check(GridDims(m, n), 2, 10 * m + n, lambda seeds: naive_closure(m, n, seeds))

    @pytest.mark.parametrize("side,d", [(side, d) for side in range(1, 5) for d in range(1, 5)])
    def test_lattices_match_the_naive_sweep(self, side, d):
        for r in range(1, 2 * d + 2):
            self.check(LatticeDims(side, d), r, 100 * side + 10 * d + r,
                       lambda seeds: naive_lattice_closure(side, d, r, seeds))

    @pytest.mark.parametrize("dims,r", [(GridDims(m, n), 2) for m, n in [
        (1, 1), (6, 1), (1, 7), (2, 2), (3, 5), (6, 6), (5, 9), (50, 50)]] + [
        (LatticeDims(side, d), r) for side, d in [(3, 3), (2, 4)] for r in (2, 3)])
    def test_lanes_close_side_by_side(self, dims, r):
        # Each lane of a packed board is its own closure whenever no lane
        # meets its target; a met target shows in the result, and no bit is
        # ever set outside the cells of the lanes packed.
        close, width, lanes = board_closure(dims, r)
        cells = dims.cells
        strides = [math.prod(dims.sizes[k + 1:]) for k, size in enumerate(dims.sizes) if size > 1]
        assert width == cells + max(strides, default=0)
        assert lanes == 1 or 2 <= lanes <= cells and lanes * width <= 4096
        lane = (1 << cells) - 1
        rng = random.Random(dims.cells * 10 + r)
        met_seen = unmet_seen = 0
        for _ in range(60):
            k = rng.randint(1, lanes)
            boards, tgts = [], []
            for _ in range(k):
                density = rng.random()
                boards.append(sum(1 << i for i in range(cells) if rng.random() < density))
                tgts.append(1 << rng.randrange(cells) if rng.random() * k < 1 else 0)  # about one
            packed = sum(b << j * width for j, b in enumerate(boards))
            targets = sum(t << j * width for j, t in enumerate(tgts))
            x = close(packed, targets)
            assert x & ~sum(lane << j * width for j in range(k)) == 0
            singles = [close(b) for b in boards]
            if any(s & t for s, t in zip(singles, tgts)):
                met_seen += 1
                assert x & targets
            else:
                unmet_seen += 1
                assert [x >> j * width & lane for j in range(k)] == singles
        assert met_seen and unmet_seen

    def test_checks_the_threshold_and_the_cap(self, monkeypatch):
        with pytest.raises(DomainError):
            board_closure(GridDims(3, 3), 3)
        with pytest.raises(DomainError):
            board_closure(LatticeDims(3, 3), 0)
        monkeypatch.setenv("MINPS_CELL_CAP", "8")
        with pytest.raises(ResourceLimitError):
            board_closure(GridDims(3, 3))


@pytest.mark.parametrize("cap,call", [
    ("ten", lambda: percolates(ps(3, 3, []))),
    ("1e6", lambda: closure(ps(3, 3, []))),
    ("-1", lambda: percolates(ps(2, 2, []))),
    (None, lambda: internally_spans(ps(3, 3, []), Rect(Point(2, 2), Point(4, 3)))),
    (None, lambda: internally_spans(ps(3, 3, []), Rect(Point(1, 1), Point(3, 4)))),
], ids=["cap-word", "cap-float", "cap-below-one", "rect-past-x", "rect-past-y"])
def test_malformed_input_is_a_domain_error(cap, call, monkeypatch):
    if cap is not None:
        monkeypatch.setenv("MINPS_CELL_CAP", cap)
    with pytest.raises(DomainError):
        call()
