import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minps import (
    BoundsError,
    DomainError,
    GridDims,
    LatticeDims,
    LatticeSet,
    Point,
    PointSet,
    Rect,
    format_points,
    lattice_percolates,
    min_percolating,
    parse_points,
    rotate180,
    translate,
    transpose,
)


def ps(m, n, pts):
    return PointSet(GridDims(m, n), frozenset(pts))


def distance(a, b):
    """Least taxicab distance between points of the two sets."""
    return min(abs(p.x - q.x) + abs(p.y - q.y) for p in a.points for q in b.points)


@st.composite
def point_sets(draw):
    """A grid set up to 7x7 or a lattice set up to [4]^4, possibly empty."""
    if draw(st.booleans()):
        m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
        return ps(m, n, draw(st.sets(st.tuples(st.integers(1, m), st.integers(1, n)))))
    side, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pts = draw(st.sets(st.tuples(*[st.integers(1, side)] * d)))
    return LatticeSet(LatticeDims(side, d), frozenset(pts))


class TestDims:
    def test_positive_required(self):
        with pytest.raises(DomainError):
            GridDims(0, 3)
        with pytest.raises(DomainError):
            LatticeDims(2, 0)

    @pytest.mark.parametrize("call", [
        lambda: GridDims(2.5, 3), lambda: GridDims("3", 3), lambda: GridDims(3, None),
        lambda: LatticeDims(3, 2.0), lambda: LatticeDims("2", 2),
        lambda: min_percolating(LatticeDims(2, 2), r=2.0),
        lambda: min_percolating(LatticeDims(2, 2), r="2"),
        lambda: lattice_percolates(LatticeSet(LatticeDims(2, 2), [(1, 1)]), r=2.5),
    ], ids=["grid-float", "grid-str", "grid-none", "lattice-float", "lattice-str",
            "search-r-float", "search-r-str", "closure-r-float"])
    def test_fields_and_thresholds_must_be_integers(self, call):
        # 2.5 was once kept, then written as 'dims 2.5 3', which no parser reads
        with pytest.raises(DomainError, match="integer"):
            call()

    def test_integer_likes_become_ints(self):
        dims = GridDims(True, 3)
        assert dims == GridDims(1, 3) and type(dims.m) is int
        assert format_points(PointSet(dims, [(1, 2)])) == "dims 1 3\n1 2\n"
        assert type(LatticeDims(2, True).dim) is int

    def test_lattice_dim_is_capped_before_sizes_exist(self):
        # [1]^dim has one cell for any dim, but its ``sizes`` has dim entries:
        # unchecked, 30M of them take 474 MB
        from minps import ResourceLimitError

        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="axes"):
                parse_points("ldims 1 30000000\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert LatticeDims(1, 130).cells == 1

    def test_unpack_and_contains(self):
        m, n = GridDims(4, 7)
        assert (m, n) == (4, 7)
        assert (4, 7) in GridDims(4, 7)
        assert (5, 1) not in GridDims(4, 7)
        assert (1, 2, 2) in LatticeDims(2, 3)


class TestRect:
    def test_dim(self):
        r = Rect(Point(2, 3), Point(5, 4))
        assert r.dim == (4, 2)
        assert r.size == 8
        assert (3, 4) in r and (6, 4) not in r

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            Rect(Point(3, 1), Point(2, 5))

    def test_distance_gaps(self):
        a = Rect(Point(1, 1), Point(2, 2))
        b = Rect(Point(5, 1), Point(6, 2))
        assert a.distance(b) == 3
        c = Rect(Point(4, 5), Point(6, 6))
        assert a.distance(c) == 2 + 3
        assert a.distance(a) == 0
        assert a.distance(Rect(Point(3, 3), Point(4, 4))) == 2


class TestPointSet:
    def test_bounds_error_names_point(self):
        with pytest.raises(BoundsError, match=r"\(3, 9\)"):
            ps(5, 5, [(1, 1), (3, 9)])

    def test_iteration_is_sorted(self):
        s = ps(3, 3, [(3, 1), (1, 2), (1, 1)])
        assert list(s) == [Point(1, 1), Point(1, 2), Point(3, 1)]
        assert len(s) == 3
        assert (1, 2) in s

    def test_without(self):
        s = ps(3, 3, [(1, 1), (2, 2)])
        assert set(s.without((1, 1)).points) == {Point(2, 2)}


def old_checked(bounds, pts):
    """Point-by-point validation, the reference for the bulk checks: ``int``
    on each coordinate, then a bounds test per point.  None where a point is
    out of bounds."""
    out = frozenset(tuple(int(c) for c in p) for p in pts)
    ok = all(1 <= c <= b for p in out for c, b in zip(p, bounds))
    return out if ok else None


@st.composite
def int_inputs(draw):
    """(dims, bounds, points) with int coordinates, some of them out of
    bounds, given as a list, tuple, set, frozenset or iterator of tuples,
    lists or Points."""
    if draw(st.booleans()):
        m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
        dims, bounds = GridDims(m, n), (m, n)
    else:
        side, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        dims, bounds = LatticeDims(side, d), (side,) * d
    wide = draw(st.booleans())  # some coordinates out of bounds
    coords = [st.integers(-1, b + 2) if wide else st.integers(1, b) for b in bounds]
    pts = draw(st.lists(st.tuples(*coords), max_size=12))
    shape = draw(st.sampled_from(["tuple", "list", "point"]))
    if shape == "list":
        pts = [list(p) for p in pts]
    elif shape == "point" and len(bounds) == 2:
        pts = [Point(*p) for p in pts]
    box = draw(st.sampled_from([list, tuple, set, frozenset, iter]))
    return dims, bounds, (box(pts) if shape != "list" or box in (list, tuple, iter) else pts)


class TestValidation:
    @settings(max_examples=400)
    @given(int_inputs())
    def test_accepts_what_the_per_point_checks_accepted(self, case):
        dims, bounds, pts = case
        pts = list(pts)
        want = old_checked(bounds, pts)
        cls, elem = (PointSet, Point) if isinstance(dims, GridDims) else (LatticeSet, tuple)
        if want is None:
            with pytest.raises(BoundsError):
                cls(dims, pts)
            return
        got = cls(dims, iter(pts)).points
        assert got == want
        assert all(type(p) is elem and all(type(c) is int for c in p) for p in got)

    @settings(max_examples=300)
    @given(st.data())
    def test_from_flags_equals_the_checked_set(self, data):
        # Flags of any length: cells past their end are dropped, entries past
        # the last cell are ignored, as ``compress`` does.
        if data.draw(st.booleans()):
            dims = GridDims(data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7)))
            cls, elem = PointSet, Point
        else:
            dims = LatticeDims(data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)))
            cls, elem = LatticeSet, tuple
        flags = data.draw(st.lists(st.integers(0, 1), max_size=dims.cells + 3))
        box = data.draw(st.sampled_from([bytearray, bytes, list]))
        cells = sorted(product(*(range(1, k + 1) for k in dims.sizes)))
        got = cls.from_flags(dims, box(flags))
        assert got == cls(dims, [c for c, f in zip(cells, flags) if f])
        assert all(type(p) is elem and all(type(c) is int for c in p) for p in got.points)

    def test_bounds_error_names_the_least_point_outside(self):
        with pytest.raises(BoundsError, match=r"^point \(0, 2\) outside grid 5x5$"):
            ps(5, 5, [(7, 1), (1, 1), (3, 9), (0, 2)])
        with pytest.raises(BoundsError, match=r"^point \(2, 4\) outside grid 3x3$"):
            ps(3, 3, [(3, 4), (2, 4), (1, 1)])
        with pytest.raises(BoundsError, match=r"^point \(1, 0, 2\) outside lattice \[3\]\^3$"):
            LatticeSet(LatticeDims(3, 3), [(4, 1, 1), (1, 1, 1), (1, 0, 2), (2, 2, 5)])

    @pytest.mark.parametrize("pts", [
        [(1.9, 2)], [(1, 2.0)], [("a", 1)], [(1, "2")], [(1, 2, 3)], [(1,)], [()],
        [None], [1], [(1, 1), (2, None)], [(1, 1), [1, 2, 3]], ["12"], [(1, 2, 3), (2,)],
        [(1, 1), (1, 2, 3), ()], [(2, 2), (1,)],
    ])
    def test_non_integer_or_wrong_arity_grid_points(self, pts):
        with pytest.raises(DomainError, match="point"):
            PointSet(GridDims(3, 3), pts)

    @pytest.mark.parametrize("pts", [[(2.5, 1)], [(1, 1, 1)], [(1,)], [("1", 1)], [(1, 1, 1), (1,)]])
    def test_non_integer_or_wrong_arity_lattice_points(self, pts):
        with pytest.raises(DomainError, match="point"):
            LatticeSet(LatticeDims(3, 2), pts)

    def test_bad_points_are_still_value_errors(self):
        for pts in ([(1.5, 1)], [(9, 9)]):
            with pytest.raises(ValueError):
                ps(3, 3, pts)

    def test_int_likes_become_ints(self):
        class Two:
            def __index__(self):
                return 2

        for pts in ([(True, Two())], [Point(True, 2)], frozenset([Point(1, Two())])):
            got = PointSet(GridDims(3, 3), pts).points
            assert got == {Point(1, 2)}
            assert all(type(c) is int for p in got for c in p)
        got = LatticeSet(LatticeDims(3, 2), [(Two(), True)]).points
        assert got == {(2, 1)} and all(type(c) is int for p in got for c in p)

    def test_a_valid_set_makes_no_per_point_test(self, monkeypatch):
        calls = []
        contains = GridDims.__contains__

        def counted(self, p):
            calls.append(p)
            return contains(self, p)

        monkeypatch.setattr(GridDims, "__contains__", counted)
        cells = [(x, y) for x in range(1, 65) for y in range(1, 65)]
        assert len(PointSet(GridDims(64, 64), cells)) == 64 * 64
        assert len(PointSet(GridDims(64, 64), frozenset(map(Point._make, cells[::3])))) > 0
        assert calls == []
        with pytest.raises(BoundsError):
            PointSet(GridDims(64, 64), cells + [(65, 1)])
        assert calls  # the count does see the per-point scan of a failed bound


class TestTranslate:
    def test_ladder_shift(self):
        # the right-hand ladder of the strip construction is the left one + (7, 2)
        a = ps(8, 5, [(1, 1), (1, 3)])
        assert set(translate(a, 7, 2).points) == {Point(8, 3), Point(8, 5)}

    def test_empty_and_identity(self):
        assert len(translate(ps(9, 9, []), 5, 5)) == 0
        a = ps(3, 3, [(2, 2)])
        assert translate(a, 0, 0) == a

    def test_out_of_bounds_names_offender(self):
        with pytest.raises(BoundsError, match=r"\(1, 3\)"):
            translate(ps(3, 3, [(1, 1), (1, 3)]), 0, 1)

    def test_into_larger_target(self):
        a = ps(2, 2, [(1, 1), (2, 2)])
        b = translate(a, 3, 3, target=GridDims(5, 5))
        assert b.dims == GridDims(5, 5)
        assert set(b.points) == {Point(4, 4), Point(5, 5)}

    def test_preserves_cardinality_and_distances(self):
        rng = random.Random(11)
        for _ in range(50):
            pts = {(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(6)}
            a = ps(9, 9, pts)
            b = translate(a, 3, 4)
            assert len(b) == len(a)
            if len(a) >= 1:
                other = ps(9, 9, [(9, 9)])
                moved = translate(other, -3, -4)
                assert distance(a, moved) == distance(b, other)


class TestRotate180:
    def test_corner_and_center(self):
        assert set(rotate180(ps(3, 3, [(1, 1)])).points) == {Point(3, 3)}
        assert set(rotate180(ps(3, 3, [(2, 2)])).points) == {Point(2, 2)}

    def test_guard_mirror_matches_figure(self):
        # the left guard of the corner-avoiding embedding for a 4-row input,
        # mirrored into the 20 x 12 target
        guard = ps(20, 12, [(1, 1), (1, 3), (1, 4), (1, 6), (2, 6), (4, 1), (5, 8), (7, 5)])
        mirrored = rotate180(guard)
        assert set(mirrored.points) == {
            Point(20, 12), Point(20, 10), Point(20, 9), Point(20, 7),
            Point(19, 7), Point(17, 12), Point(16, 5), Point(14, 8),
        }

    def test_involution(self):
        rng = random.Random(3)
        for _ in range(50):
            pts = {(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(5)}
            a = ps(6, 4, pts)
            assert rotate180(rotate180(a)) == a

    def test_transpose_involution(self):
        a = ps(4, 2, [(4, 1), (2, 2)])
        assert transpose(transpose(a)) == a
        assert transpose(a).dims == GridDims(2, 4)


class TestPtsFormat:
    def test_round_trip(self, tmp_path):
        a = ps(6, 4, [(1, 1), (6, 4), (3, 2)])
        text = format_points(a)
        assert parse_points(text) == a

    def test_comments_and_blanks(self):
        text = "# header comment\ndims 3 3\n\n1 1  # inline\n2 3\n"
        a = parse_points(text)
        assert set(a.points) == {Point(1, 1), Point(2, 3)}

    def test_duplicates_rejected(self):
        with pytest.raises(DomainError, match="duplicate"):
            parse_points("dims 3 3\n1 1\n1 1\n")

    def test_bad_header(self):
        with pytest.raises(DomainError):
            parse_points("3 3\n1 1\n")

    @pytest.mark.parametrize("header", ["dims a 3", "dims 3 1.5", "ldims 3 d"])
    def test_non_integer_header(self, header):
        with pytest.raises(DomainError, match="line 2"):
            parse_points(f"# comment\n{header}\n1 1\n")

    def test_lattice_round_trip(self):
        a = LatticeSet(LatticeDims(3, 3), frozenset({(1, 2, 3), (3, 3, 3)}))
        assert parse_points(format_points(a)) == a

    @settings(max_examples=300)
    @given(point_sets())
    @example(ps(1, 1, []))
    @example(ps(1, 1, [(1, 1)]))
    @example(LatticeSet(LatticeDims(1, 1), frozenset()))
    def test_round_trip_property(self, a):
        assert parse_points(format_points(a)) == a

    def test_lattice_wrong_arity(self):
        with pytest.raises(DomainError, match="coordinates"):
            parse_points("ldims 3 3\n1 2\n")

    def test_file_round_trip(self, tmp_path):
        from minps import load_points, save_points

        a = ps(5, 5, [(2, 2), (5, 1)])
        path = tmp_path / "x.pts"
        save_points(path, a)
        assert load_points(path) == a


@pytest.mark.parametrize("build", [
    lambda: parse_points("dims 3 3\n1 x\n"),
    lambda: parse_points("# a comment and nothing else\n"),
    lambda: parse_points(""),
    lambda: Rect((2, 1), (1, 1)),  # rewrapped as points, then found degenerate
], ids=["coordinate", "comment-only", "empty", "rect-from-tuples"])
def test_malformed_input_is_a_domain_error(build):
    with pytest.raises(DomainError):
        build()


def test_rect_rewraps_plain_tuples_as_points():
    r = Rect((1, 2), (3, 4))
    assert type(r.lo) is Point and type(r.hi) is Point and r.size == 9
