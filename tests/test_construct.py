from fractions import Fraction

import pytest

from minps import (
    CORNER_AVOIDING,
    MINPS,
    PERCOLATING,
    CertifiedSet,
    DomainError,
    GridDims,
    Point,
    PointSet,
    ResourceLimitError,
    chain,
    corner_avoiding_square,
    corner_avoiding_strip,
    dense_minps,
    dense_minps_params,
    double,
    embed_corner_avoiding,
    extend,
    glue,
    is_corner_avoiding_minps,
    is_minps,
    ladder,
    lattice_minps,
    lattice_percolates,
    simple_minps,
    size_bounds,
    strip_chain,
)


class TestLadder:
    def test_single_pair(self):
        assert set(ladder(1).points) == {Point(1, 1), Point(1, 3)}

    def test_two_pairs(self):
        assert set(ladder(2).points) == {Point(1, 1), Point(1, 3), Point(1, 4), Point(1, 6)}

    def test_translated(self):
        assert set(ladder(1, 3, 2).points) == {Point(3, 2), Point(3, 4)}

    def test_bad_k(self):
        with pytest.raises(DomainError):
            ladder(0)

    def test_must_fit_explicit_dims(self):
        from minps import BoundsError

        with pytest.raises(BoundsError):
            ladder(2, dims=GridDims(1, 5))


class TestSimpleMinps:
    def test_six_by_six_matches_pattern(self):
        got = set(map(tuple, simple_minps(6, 6).points.points))
        assert got == {(2, 1), (3, 1), (5, 1), (6, 1), (1, 2), (1, 3), (1, 5), (1, 6)}

    def test_three_by_three(self):
        cs = simple_minps(3, 3)
        assert len(cs) == 4
        assert is_minps(cs.points).holds

    def test_four_by_five_certified(self):
        assert is_minps(simple_minps(4, 5).points).holds

    def test_sweep_certified(self):
        for m in range(2, 13):
            for n in range(2, 13):
                cs = simple_minps(m, n)
                assert is_minps(cs.points).holds, f"simple_minps({m},{n})"
                assert len(cs) == cs.size_formula

    @pytest.mark.parametrize("m,n", [(40, 40), (39, 38), (25, 40), (40, 2), (2, 40), (13, 37)])
    def test_larger_spot_checks(self, m, n):
        assert is_minps(simple_minps(m, n).points).holds


class TestStrip:
    def test_k1_exact_points(self):
        cs = corner_avoiding_strip(1)
        assert cs.dims == GridDims(8, 5)
        assert set(map(tuple, cs.points.points)) == {
            (1, 1), (1, 3), (2, 3), (4, 1), (5, 5), (7, 3), (8, 3), (8, 5),
        }

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_sizes_and_dims(self, k):
        cs = corner_avoiding_strip(k)
        assert cs.dims == GridDims(8, 3 * k + 2)
        assert len(cs) == cs.size_formula == 4 * k + 4

    def test_k5_certified(self):
        assert is_corner_avoiding_minps(corner_avoiding_strip(5).points).holds


class TestGlue:
    def test_two_small_strips(self):
        s = corner_avoiding_strip(1)
        g = glue(s, s)
        assert g.dims == GridDims(19, 7)
        assert len(g) == 18
        assert g.claim == CORNER_AVOIDING

    def test_mixed_sizes_certified(self):
        g = glue(corner_avoiding_strip(1), corner_avoiding_strip(2))
        assert g.dims == GridDims(19, 10)
        assert len(g) == 8 + 12 + 2
        assert is_corner_avoiding_minps(g.points).holds

    def test_height_precondition(self):
        with pytest.raises(DomainError, match="second input"):
            glue(corner_avoiding_strip(2), corner_avoiding_strip(1))

    def test_claim_precondition(self):
        plain = CertifiedSet(simple_minps(5, 5).points, MINPS, 6)
        with pytest.raises(DomainError, match="first input"):
            glue(plain, corner_avoiding_strip(1))


class TestChainDouble:
    def test_chain_identity(self):
        s = corner_avoiding_strip(1)
        assert chain(s, 1) is s

    def test_chain_two_equals_glue(self):
        s = corner_avoiding_strip(1)
        assert chain(s, 2).points == glue(s, s).points

    def test_chain_three(self):
        s = corner_avoiding_strip(1)
        c = chain(s, 3)
        assert c.dims == GridDims(30, 9)
        assert len(c) == 3 * 8 + 2 * 2
        assert is_corner_avoiding_minps(c.points).holds

    def test_double_zero_and_one(self):
        s = corner_avoiding_strip(1)
        assert double(s, 0) is s
        assert double(s, 1).points == glue(s, s).points

    def test_double_three_dims_and_size(self):
        s = corner_avoiding_strip(1)
        d = double(s, 3)
        assert d.dims == GridDims(85, 11)
        # the guaranteed lower bound is 2^t * 8; each of the 7 glue steps
        # also contributes its two connector points
        assert len(d) == 8 * 8 + 2 * 7
        assert len(d) >= 8 * 8


class TestStripChain:
    def test_base_case_is_strip(self):
        assert strip_chain(1, 1).points == corner_avoiding_strip(1).points

    def test_two_copies_matches_glue(self):
        assert strip_chain(2, 1).points == glue(
            corner_avoiding_strip(1), corner_avoiding_strip(1)
        ).points
        assert strip_chain(2, 1).dims == GridDims(19, 7)

    def test_three_by_four(self):
        cs = strip_chain(3, 4)
        assert cs.dims == GridDims(30, 18)
        assert len(cs) == 4 * 3 * 5 + 2 * 2
        assert len(cs) >= 4 * 3 * 5
        assert is_corner_avoiding_minps(cs.points).holds


class TestExtend:
    def test_simple_3x3_to_4x3(self):
        out = extend(simple_minps(3, 3))
        assert out.dims == GridDims(4, 3)
        assert len(out) == 4
        assert is_minps(out.points).holds

    def test_row_extension_by_transpose(self):
        out = extend(simple_minps(3, 3), axis="y")
        assert out.dims == GridDims(3, 4)
        assert is_minps(out.points).holds

    def test_iterated(self):
        cs = corner_avoiding_strip(1)
        out = extend(extend(cs))
        assert out.dims == GridDims(10, 5)
        assert is_minps(out.points).holds

    def test_claim_required(self):
        bogus = CertifiedSet(simple_minps(3, 3).points, "percolating", 4)
        with pytest.raises(DomainError):
            extend(bogus)

    def test_keeps_border_point_when_moving_fails(self):
        # on the 2x2 diagonal, moving (2,2) to (3,2) kills percolation, so
        # the extension must keep the old point and add the new one
        diag = PointSet(GridDims(2, 2), frozenset({(1, 1), (2, 2)}))
        out = extend(CertifiedSet(diag, MINPS, 2))
        assert out.dims == GridDims(3, 2)
        assert len(out) == 3
        assert (2, 2) in out.points and (3, 2) in out.points
        assert is_minps(out.points).holds

    def test_every_small_minps_extends_both_ways(self):
        # the one-line extension dichotomy, swept over every MinPS of 3x3
        from itertools import combinations

        dims = GridDims(3, 3)
        cells = [(x, y) for x in range(1, 4) for y in range(1, 4)]
        swept = 0
        for r in range(1, 10):
            for chosen in combinations(cells, r):
                a = PointSet(dims, frozenset(chosen))
                if not is_minps(a).holds:
                    continue
                cs = CertifiedSet(a, MINPS, len(a))
                for axis in ("x", "y"):
                    out = extend(cs, axis)
                    assert is_minps(out.points).holds, (chosen, axis)
                    assert len(out) in (len(a), len(a) + 1)
                swept += 1
        assert swept > 10


class TestDenseMinps:
    @pytest.mark.parametrize(
        "n,want",
        [(66, (1, 3, 19, 480)), (132, (2, 3, 40, 1968)), (264, (3, 3, 84, 8160))],
    )
    def test_params(self, n, want):
        assert dense_minps_params(n, n) == want

    def test_degenerate_falls_back_to_simple(self):
        assert dense_minps_params(3, 3) is None
        assert dense_minps(3, 3).points == simple_minps(3, 3).points

    def test_8x5_is_strip(self):
        assert dense_minps(8, 5).points == corner_avoiding_strip(1).points

    def test_66_certified(self):
        cs = dense_minps(66, 66)
        assert cs.dims == GridDims(66, 66)
        assert len(cs) >= cs.size_formula == 480
        assert is_minps(cs.points).holds

    def test_density_approaches_target(self):
        # within c/sqrt(n) of 4/33 with c = 1
        for n in (66, 132, 264):
            cs = dense_minps(n, n)
            assert len(cs) / n**2 >= 4 / 33 - 1 / n**0.5


class TestEmbed:
    def test_simple_4x4(self):
        a = simple_minps(4, 4)
        c = embed_corner_avoiding(a)
        assert c.dims == GridDims(20, 12)
        assert len(c) == len(a) + 2 * (2 * 2 + 4)
        assert is_corner_avoiding_minps(c.points).holds

    def test_size_gain_beats_four_thirds(self):
        for n in range(4, 13):
            a = simple_minps(5, n)
            c = embed_corner_avoiding(a)
            gain = len(c) - len(a)
            assert gain == 2 * (2 * ((n + 2) // 3) + 4)
            assert 3 * gain >= 4 * n

    def test_height_precondition(self):
        with pytest.raises(DomainError):
            embed_corner_avoiding(simple_minps(5, 3))


class TestCornerAvoidingSquare:
    def test_side8(self):
        cs = corner_avoiding_square(8)
        assert cs.dims == GridDims(8, 8)
        assert is_corner_avoiding_minps(cs.points).holds

    def test_side18(self):
        cs = corner_avoiding_square(18)
        assert cs.dims == GridDims(18, 18)
        assert is_corner_avoiding_minps(cs.points).holds

    def test_unsupported(self):
        with pytest.raises(DomainError):
            corner_avoiding_square(10)


class TestLatticeMinps:
    def test_d2_delegates(self):
        cs = lattice_minps(8, 2)
        assert cs.dims == GridDims(8, 8)

    def test_d3_cube8(self):
        from minps import LATTICE_DENSITY_FLOOR

        cs = lattice_minps(8, 3)  # certified inside the constructor
        assert cs.claim == MINPS
        assert len(cs) == 16
        assert Fraction(len(cs), 8**3) >= LATTICE_DENSITY_FLOOR[3]

    def test_d3_odd_side(self):
        cs = lattice_minps(19, 3)
        assert lattice_percolates(cs.points, r=2)

    def test_unsupported_dim(self):
        with pytest.raises(DomainError):
            lattice_minps(8, 4)


class TestSizeBounds:
    def test_three_by_three(self):
        lower, upper = size_bounds(3, 3)
        assert lower == 4
        assert upper == Fraction(25, 6)
        assert lower <= upper

    def test_strip_grid(self):
        lower, _ = size_bounds(8, 5)
        assert lower >= 8

    def test_large_square(self):
        lower, upper = size_bounds(66, 66)
        assert lower == len(dense_minps(66, 66))
        assert upper == Fraction(68 * 68, 6)
        assert lower <= upper


# Each builder checks the cell cap on the grid it would build before it
# builds anything; 2^(10^9) columns never start.
CAPPED_BUILDS = {
    "ladder": lambda: ladder(40),
    "glue": lambda: glue(corner_avoiding_strip(1), corner_avoiding_strip(1)),
    "embed_corner_avoiding": lambda: embed_corner_avoiding(simple_minps(2, 4)),
    "extend": lambda: extend(simple_minps(10, 10)),
    "simple_minps": lambda: simple_minps(11, 10),
    "corner_avoiding_strip": lambda: corner_avoiding_strip(5),
    "chain": lambda: chain(corner_avoiding_strip(1), 3),
    "double": lambda: double(corner_avoiding_strip(1), 3),
    "double-huge": lambda: double(corner_avoiding_strip(1), 10**9),
    "strip_chain": lambda: strip_chain(2, 1),
    "dense_minps": lambda: dense_minps(11, 10),
    "corner_avoiding_square": lambda: corner_avoiding_square(18),
    "lattice_minps": lambda: lattice_minps(8, 3),
}


@pytest.mark.parametrize("name", CAPPED_BUILDS)
def test_builders_check_the_cell_cap(name, monkeypatch):
    monkeypatch.setenv("MINPS_CELL_CAP", "100")
    with pytest.raises(ResourceLimitError):
        CAPPED_BUILDS[name]()


_STRIP = corner_avoiding_strip(1)


@pytest.mark.parametrize("build", [
    lambda: simple_minps(1, 3), lambda: simple_minps(3, 1),
    lambda: dense_minps(1, 4), lambda: dense_minps(4, 1),
    lambda: size_bounds(1, 4), lambda: size_bounds(4, 1),
    lambda: corner_avoiding_strip(0),
    lambda: chain(_STRIP, 0), lambda: chain(simple_minps(3, 3), 2),
    lambda: double(_STRIP, -1), lambda: double(simple_minps(3, 3), 1),
    lambda: glue(_STRIP, simple_minps(8, 5)),
    lambda: strip_chain(0, 1), lambda: strip_chain(1, 0),
    lambda: extend(simple_minps(3, 3), "z"),
    lambda: embed_corner_avoiding(CertifiedSet(simple_minps(4, 4).points, PERCOLATING, 6)),
], ids=["simple-m", "simple-n", "dense-m", "dense-n", "bounds-m", "bounds-n", "strip-k",
        "chain-copies", "chain-claim", "double-times", "double-claim", "glue-second-claim",
        "strip_chain-copies", "strip_chain-rungs", "extend-axis", "embed-claim"])
def test_rejects_what_it_cannot_build(build):
    with pytest.raises(DomainError):
        build()


def test_dense_falls_back_when_the_recipe_builds_fewer_points():
    # 8x6 admits the recipe (t = 0, M = N = 1: 8 points), the L-shape has 9
    assert dense_minps_params(8, 6) == (0, 1, 1, 8)
    out = dense_minps(8, 6)
    assert len(out) == len(simple_minps(8, 6)) == 9
    assert is_minps(out.points).holds
