"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines as the
criteria complete.  Expensive artifacts (exhaustive searches, the large
dense sets) are shared through module-scoped fixtures.
"""

import random
from fractions import Fraction

import pytest

from minps import (
    MINPS,
    CertifiedSet,
    GridDims,
    LatticeDims,
    PointSet,
    chain,
    closure,
    closure_rects,
    corner_avoiding_strip,
    dense_minps,
    dense_minps_params,
    double,
    embed_corner_avoiding,
    glue,
    is_corner_avoiding_minps,
    is_minps,
    max_corner_avoiding,
    max_minps,
    min_percolating,
    strip_chain,
)

from oracles import naive_closure


@pytest.fixture(scope="module")
def exact_e_values():
    """Every exhaustively solved grid used by criteria 1 and 5."""
    grids = (
        [(m, 1) for m in range(1, 10)]
        + [(m, 2) for m in range(2, 8)]
        + [(m, 3) for m in range(2, 6)]
        + [(3, 3), (4, 4)]
    )
    values = {}
    for m, n in grids:
        res = max_minps(GridDims(m, n))
        assert res.exhaustive, f"search on {m}x{n} must be exhaustive"
        assert is_minps(res.witness).holds
        values[(m, n)] = res.value
    return values


@pytest.fixture(scope="module")
def dense_squares():
    """The three large dense sets of criterion 4, with their parameters."""
    out = {}
    for n in (66, 132, 264):
        params = dense_minps_params(n, n)
        assert params is not None
        cs = dense_minps(n, n)
        out[n] = (cs, params)
    return out


def test_c1_thin_grid_formulas(exact_e_values):
    for m in range(1, 10):
        assert exact_e_values[(m, 1)] == (2 * (m + 1)) // 3, f"E({m},1)"
    for m in range(2, 8):
        assert exact_e_values[(m, 2)] == (2 * (m + 2)) // 3, f"E({m},2)"
    for m in range(2, 6):
        assert exact_e_values[(m, 3)] == (2 * (m + 3)) // 3, f"E({m},3)"
    assert exact_e_values[(3, 3)] == 4
    assert exact_e_values[(4, 3)] == 4
    print("\nACCEPTANCE 1 PASS: thin-grid exact values match the closed formulas")


def test_c2_minimum_percolating_sizes():
    for n in range(2, 6):
        res = min_percolating(GridDims(n, n))
        assert res.exhaustive and res.value == n, f"min size on {n}x{n}"
    for side in (2, 3):
        want = -(-(side - 1) * 3 // 2) + 1  # ceil((side-1)*3/2) + 1
        res = min_percolating(LatticeDims(side, 3))
        assert res.exhaustive, f"[{side}]^3 search must certify exactness"
        assert res.value == want, f"min size on [{side}]^3"
    print("ACCEPTANCE 2 PASS: minimum percolating sizes are n on squares, "
          "3 on [2]^3 and 4 on [3]^3")


def test_c3_construction_certification_sweep():
    checked = 0
    for k in range(1, 13):
        cs = corner_avoiding_strip(k)
        assert cs.dims == GridDims(8, 3 * k + 2)
        assert len(cs) == 4 * k + 4
        assert is_corner_avoiding_minps(cs.points).holds, f"strip({k})"
        checked += 1

    for i, j in [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)]:
        b, c = corner_avoiding_strip(i), corner_avoiding_strip(j)
        g = glue(b, c)
        assert g.dims == GridDims(8 + 8 + 3, (3 * j + 2) + 2)
        assert len(g) == len(b) + len(c) + 2
        assert is_corner_avoiding_minps(g.points).holds, f"glue({i},{j})"
        checked += 1

    base = corner_avoiding_strip(1)
    for k in range(1, 5):
        cs = chain(base, k)
        assert cs.dims == GridDims(8 * k + 3 * (k - 1), 5 + 2 * (k - 1))
        assert len(cs) == 8 * k + 2 * (k - 1)
        assert len(cs) >= 8 * k  # the chaining bound
        assert is_corner_avoiding_minps(cs.points).holds, f"chain({k})"
        checked += 1

    for t in range(0, 5):
        cs = double(base, t)
        assert cs.dims == GridDims((1 << t) * 11 - 3, 5 + 2 * t)
        assert len(cs) == (1 << t) * 8 + 2 * ((1 << t) - 1)
        assert len(cs) >= (1 << t) * 8  # the doubling bound
        assert is_corner_avoiding_minps(cs.points).holds, f"double({t})"
        checked += 1

    for copies in range(1, 6):
        for rungs in range(1, 6):
            cs = strip_chain(copies, rungs)
            assert cs.dims == GridDims(11 * copies - 3, 3 * rungs + 2 * copies)
            assert len(cs) == 4 * copies * (rungs + 1) + 2 * (copies - 1)
            assert len(cs) >= 4 * copies * (rungs + 1)  # the strip-chain bound
            assert is_corner_avoiding_minps(cs.points).holds, \
                f"strip_chain({copies},{rungs})"
            checked += 1

    print(f"ACCEPTANCE 3 PASS: {checked} constructions certified with exact "
          "size and dimension formulas, zero failures")


def test_c4_dense_lower_bound_sets(dense_squares):
    for n in (66, 132, 264):
        cs, (t, big_m, big_n, formula) = dense_squares[n]
        assert cs.dims == GridDims(n, n)
        assert cs.size_formula == formula == (1 << (t + 2)) * big_m * (big_n + 1)
        assert len(cs) >= formula
        floor = 4 * n * n / 33 - 8 * (n**1.5 + n * n**0.5)
        assert formula >= floor
        # every single deletion, all 8,208 of them at 264x264
        assert is_minps(cs.points).holds, f"dense_minps({n},{n}) minimality"
    sizes = {n: len(dense_squares[n][0]) for n in (66, 132, 264)}
    print(f"ACCEPTANCE 4 PASS: dense sets certified, sizes {sizes}, "
          f"recorded formulas {[dense_squares[n][1][3] for n in (66, 132, 264)]}")


def test_c5_upper_bound_invariant(exact_e_values):
    for (m, n), value in exact_e_values.items():
        if min(m, n) >= 2:
            assert 6 * value <= (m + 2) * (n + 2), f"bound at {m}x{n}"
    solved_ec = {}
    for m, n in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (4, 4)]:
        res = max_corner_avoiding(GridDims(m, n))
        assert res.exhaustive
        solved_ec[(m, n)] = res.value
        e = exact_e_values.get((m, n)) or max_minps(GridDims(m, n)).value
        assert res.value <= e, f"corner-avoiding max exceeds plain max on {m}x{n}"
    assert solved_ec[(2, 2)] == 0
    print(f"ACCEPTANCE 5 PASS: (m+2)(n+2)/6 holds on all "
          f"{len(exact_e_values)} solved grids; corner-avoiding maxima "
          f"{solved_ec} never exceed the plain maxima")


def test_c6_corner_avoiding_embedding():
    for m, n in [(4, 4), (5, 4)]:
        res = max_minps(GridDims(m, n))
        assert res.exhaustive
        a = res.witness
        embedded = embed_corner_avoiding(CertifiedSet(a, MINPS, len(a)))
        assert embedded.dims == GridDims(m + 16, n + 8)
        gain = len(embedded) - len(a)
        assert gain == 2 * (2 * ((n + 2) // 3) + 4) == 16
        assert 3 * gain >= 4 * n
        assert is_corner_avoiding_minps(embedded.points).holds
    print("ACCEPTANCE 6 PASS: exhaustive witnesses on 4x4 and 5x4 embed into "
          "certified corner-avoiding sets on 20x12 and 21x12 (gain 16 >= 4n/3)")


def test_c7_engine_properties():
    rng = random.Random(777)

    # closure laws on 10^4 random seeded instances per grid size up to 12x12
    instances = 0
    for m, n in [(3, 3), (5, 4), (8, 6), (12, 12)]:
        dims = GridDims(m, n)
        for _ in range(10_000):
            density = rng.random() * 0.5
            pts = {
                (x, y)
                for x in range(1, m + 1)
                for y in range(1, n + 1)
                if rng.random() < density
            }
            a = PointSet(dims, frozenset(pts))
            ca = closure(a)
            assert set(a.points) <= set(ca.infected.points)  # containment
            again = closure(ca.infected)
            assert again.infected == ca.infected  # idempotence
            assert again.generations == 0
            extra = {(rng.randint(1, m), rng.randint(1, n)) for _ in range(3)}
            b = PointSet(dims, frozenset(pts | extra))
            assert set(ca.infected.points) <= set(closure(b).infected.points)  # monotone
            instances += 1

    # exact agreement with the naive synchronous oracle on all subsets of
    # 3x3 and 4x4, and on random subsets of grids up to 20 cells
    for m, n in [(3, 3), (4, 4)]:
        cells = [(x, y) for x in range(1, m + 1) for y in range(1, n + 1)]
        dims = GridDims(m, n)
        for mask in range(1 << (m * n)):
            pts = {cells[i] for i in range(m * n) if mask >> i & 1}
            got = closure(PointSet(dims, frozenset(pts))).infected
            assert set(map(tuple, got.points)) == naive_closure(m, n, pts)
    for _ in range(2_000):
        m = rng.randint(1, 10)
        n = rng.randint(1, 20 // m)
        pts = {
            (x, y)
            for x in range(1, m + 1)
            for y in range(1, n + 1)
            if rng.random() < 0.4
        }
        got = closure(PointSet(GridDims(m, n), frozenset(pts))).infected
        assert set(map(tuple, got.points)) == naive_closure(m, n, pts)

    # decomposition law on random instances
    for _ in range(2_000):
        m, n = rng.randint(2, 9), rng.randint(2, 9)
        pts = {
            (x, y)
            for x in range(1, m + 1)
            for y in range(1, n + 1)
            if rng.random() < 0.2
        }
        a = PointSet(GridDims(m, n), frozenset(pts))
        dec = closure_rects(a)
        assert dec.covered == len(closure(a).infected)
        for i, ra in enumerate(dec.rects):
            for rb in dec.rects[i + 1:]:
                assert ra.distance(rb) >= 3

    print(f"ACCEPTANCE 7 PASS: closure laws on {instances} random instances, "
          "exhaustive oracle agreement on 3x3 and 4x4, rectangle "
          "decomposition law, zero failures")


def test_c8_density_trend(dense_squares):
    densities = {n: len(dense_squares[n][0]) / n**2 for n in (66, 132, 264)}
    assert densities[66] <= densities[132] <= densities[264] <= Fraction(1, 6)
    print(f"ACCEPTANCE 8 PASS: density trend non-decreasing toward 4/33: "
          f"{ {n: round(d, 5) for n, d in densities.items()} }")
