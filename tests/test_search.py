import multiprocessing
import pickle
import random
import time
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minps import (
    DomainError,
    GridDims,
    LatticeDims,
    LatticeSet,
    PointSet,
    SearchBudget,
    is_corner_avoiding_minps,
    is_minps,
    lattice_percolates,
    max_corner_avoiding,
    max_minps,
    min_percolating,
    monotonicity_table,
    percolates,
    simple_minps,
)

from oracles import (
    brute_force_lattice_min_percolating,
    brute_force_max_corner_avoiding,
    brute_force_max_minps,
    brute_force_min_percolating,
    naive_certify,
    naive_corner_cells,
    naive_lattice_closure,
    naive_symmetries,
)

SMALL_GRIDS = [(1, 1), (2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (4, 3), (2, 5)]


class TestMaxMinps:
    @pytest.mark.parametrize("m,n", SMALL_GRIDS)
    def test_matches_naive_brute_force(self, m, n):
        res = max_minps(GridDims(m, n))
        value, witness = brute_force_max_minps(m, n)
        assert res.exhaustive
        assert res.value == value
        assert res.witness == PointSet(GridDims(m, n), frozenset(witness))

    def test_witness_is_certified(self):
        for m, n in [(3, 3), (4, 4), (5, 2)]:
            res = max_minps(GridDims(m, n))
            assert is_minps(res.witness).holds
            assert len(res.witness) == res.value

    def test_beats_simple_construction(self):
        for m, n in [(3, 3), (4, 3), (4, 4)]:
            res = max_minps(GridDims(m, n))
            assert res.value >= len(simple_minps(m, n))

    def test_four_by_four_value(self):
        # the (m+2)(n+2)/6 bound allows 6 here, but the exhaustive answer is 5
        res = max_minps(GridDims(4, 4))
        assert res.value == 5
        assert res.exhaustive

    def test_budget_truncation(self):
        res = max_minps(GridDims(4, 4), SearchBudget(max_nodes=500))
        assert not res.exhaustive
        assert res.nodes <= 500 + 1
        assert res.value <= 5

    @pytest.mark.parametrize("field", [{"max_time": float("nan")}, {"max_time": 0},
                                       {"max_nodes": 0}, {"workers": 0}])
    def test_budget_rejects_non_positive_fields(self, field):
        # a NaN deadline would never fire
        with pytest.raises(DomainError):
            SearchBudget(**field)

    @pytest.mark.parametrize("field", [{"max_nodes": 2.5}, {"max_nodes": "9"},
                                       {"workers": 1.5}, {"workers": 2.0}])
    def test_budget_rejects_non_integer_counts(self, field):
        # a fractional worker count would reach the worker pool
        with pytest.raises(DomainError, match="integers"):
            SearchBudget(**field)

    def test_nodes_and_elapsed_populated(self):
        res = max_minps(GridDims(3, 3))
        assert res.nodes > 0
        assert res.elapsed >= 0.0

    def test_workers_do_not_change_outcome(self):
        serial = max_minps(GridDims(3, 3), SearchBudget(workers=1))
        parallel = max_minps(GridDims(3, 3), SearchBudget(workers=2))
        assert serial.value == parallel.value
        assert serial.witness == parallel.witness
        assert serial.nodes == parallel.nodes


class TestMaxCornerAvoiding:
    def test_two_by_two_is_zero(self):
        res = max_corner_avoiding(GridDims(2, 2))
        assert res.value == 0
        assert len(res.witness) == 0
        assert res.exhaustive

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 3), (4, 3), (4, 4)])
    def test_matches_naive_brute_force(self, m, n):
        res = max_corner_avoiding(GridDims(m, n))
        value, witness = brute_force_max_corner_avoiding(m, n)
        assert res.exhaustive
        assert res.value == value
        assert res.witness == PointSet(GridDims(m, n), frozenset(witness))

    def test_never_exceeds_max_minps(self):
        for m, n in [(2, 2), (3, 3), (4, 3), (4, 4)]:
            assert max_corner_avoiding(GridDims(m, n)).value <= max_minps(GridDims(m, n)).value

    def test_budgeted_lower_bound_semantics(self):
        # far beyond exhaustive range; a small budget must return quickly
        # with exhaustive=False and a non-asserting lower bound
        res = max_corner_avoiding(GridDims(8, 5), SearchBudget(max_nodes=20_000))
        assert not res.exhaustive
        assert res.value >= 0

    def test_four_by_four_witness_certified(self):
        # the smallest square carrying a corner-avoiding MinPS: a pinwheel
        res = max_corner_avoiding(GridDims(4, 4))
        assert res.exhaustive and res.value == 4
        assert is_corner_avoiding_minps(res.witness).holds

    def test_needs_two_by_two(self):
        with pytest.raises(DomainError):
            max_corner_avoiding(GridDims(1, 5))


# Past the brute-force oracles: each value and lexicographically least witness
# is pinned, and the witness re-certified by the naive oracle.
PINNED_WITNESSES = [
    (max_minps, 5, 4, [(1, 1), (1, 2), (1, 4), (2, 4), (4, 1), (5, 1)]),
    (max_minps, 4, 5, [(1, 1), (1, 2), (1, 4), (1, 5), (3, 1), (4, 1)]),
    (max_minps, 5, 5, [(1, 1), (1, 2), (1, 4), (2, 4), (4, 1), (4, 5), (5, 1)]),
    (max_corner_avoiding, 5, 4, [(1, 1), (1, 2), (3, 1), (4, 4), (5, 3)]),
    (max_corner_avoiding, 4, 5, [(1, 1), (1, 3), (2, 1), (3, 5), (4, 4)]),
    (max_corner_avoiding, 5, 5, [(1, 1), (1, 2), (3, 1), (3, 5), (4, 5), (5, 4)]),
]


@pytest.mark.parametrize("search,m,n,witness", PINNED_WITNESSES,
                         ids=[f"{s.__name__}-{m}x{n}" for s, m, n, _ in PINNED_WITNESSES])
def test_pinned_witness_beyond_the_oracles(search, m, n, witness):
    res = search(GridDims(m, n))
    assert res.exhaustive
    assert res.value == len(witness)
    assert res.witness == PointSet(GridDims(m, n), frozenset(witness))
    assert naive_certify(m, n, witness, corner=search is max_corner_avoiding)[0]


# The nodes of exhaustive maximisation runs: computing the same cuts another
# way must leave them as they are, and a new cut must retarget them.
PINNED_NODES = [(max_minps, 4, 4, 1044), (max_minps, 5, 4, 4181), (max_minps, 4, 5, 5229),
                (max_corner_avoiding, 4, 4, 160), (max_corner_avoiding, 5, 4, 549)]


@pytest.mark.parametrize("search,m,n,nodes", PINNED_NODES,
                         ids=[f"{s.__name__}-{m}x{n}" for s, m, n, _ in PINNED_NODES])
def test_pinned_node_counts(search, m, n, nodes):
    res = search(GridDims(m, n))
    assert res.exhaustive
    assert res.nodes == nodes


@pytest.mark.parametrize("search,m,n,max_nodes", [(max_minps, 5, 4, 3000),
                                                  (max_corner_avoiding, 5, 5, 1000)])
def test_workers_do_not_change_a_budgeted_outcome(search, m, n, max_nodes):
    # each partition gets a fixed share of the nodes and the whole size range
    runs = [search(GridDims(m, n), SearchBudget(max_nodes=max_nodes, workers=w))
            for w in (1, 2)]
    assert runs[0].nodes <= max_nodes
    assert len({(r.value, r.witness, r.nodes, r.exhaustive) for r in runs}) == 1


class TestMinPercolating:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_square_grids(self, n):
        res = min_percolating(GridDims(n, n))
        assert res.exhaustive
        assert res.value == n
        assert percolates(res.witness)

    @pytest.mark.parametrize("m,n", [(3, 2), (4, 2), (5, 3), (1, 6), (6, 1), (2, 5), (3, 5), (4, 4)])
    def test_matches_naive_brute_force(self, m, n):
        res = min_percolating(GridDims(m, n))
        value, witness = brute_force_min_percolating(m, n)
        assert res.exhaustive
        assert res.value == value
        assert res.witness == PointSet(GridDims(m, n), frozenset(witness))

    def test_cube_two(self):
        res = min_percolating(LatticeDims(2, 3))
        assert res.value == 3
        assert res.exhaustive
        assert lattice_percolates(res.witness, r=2)

    def test_lattice_witness_is_lexicographically_least(self):
        square = min_percolating(LatticeDims(4, 2))
        grid = min_percolating(GridDims(4, 4))
        assert square.value == grid.value == 4
        assert square.witness.points == {tuple(p) for p in grid.witness.points}
        cube = min_percolating(LatticeDims(2, 3))
        assert cube.witness.points == {(1, 1, 1), (1, 1, 2), (2, 2, 1)}

    def test_r_one_single_point(self):
        res = min_percolating(LatticeDims(3, 2), r=1)
        assert res.value == 1

    LATTICE_CASES = ([(2, d, r) for d in range(1, 5) for r in (1, 2, 3)]
                     + [(3, 2, r) for r in range(1, 6)] + [(4, 2, 2)])

    @pytest.mark.parametrize("side,d,r", LATTICE_CASES,
                             ids=[f"[{s}]^{d}-r{r}" for s, d, r in LATTICE_CASES])
    def test_lattice_matches_naive_brute_force(self, side, d, r):
        # the slab cuts drop only sets that cannot percolate, and the first hit
        # of the least size is the lexicographically least set
        res = min_percolating(LatticeDims(side, d), r=r)
        value, witness = brute_force_lattice_min_percolating(side, d, r)
        assert res.exhaustive
        assert res.value == value
        assert res.witness == LatticeSet(LatticeDims(side, d), witness)

    def test_block_stops_at_its_first_hit(self):
        # 100 nodes split over the partitions of each block; the 3-block's
        # first partition hits, so the partitions after it, which would run
        # out of their share, are never scanned and the value is exact.
        runs = [min_percolating(GridDims(2, 4), SearchBudget(max_nodes=100, workers=w))
                for w in (1, 2)]
        assert runs[0].value == 3
        assert runs[0].exhaustive
        assert len({(r.value, r.witness, r.nodes, r.exhaustive) for r in runs}) == 1

    def test_workers_stop_once_the_hit_is_read(self):
        # Partitions after the hit's are cut short once it is read; run to
        # their end they made 2 workers over four times slower than 1 here.
        one = min_percolating(GridDims(7, 6), SearchBudget(workers=1))
        two = min_percolating(GridDims(7, 6), SearchBudget(workers=2))
        assert one.exhaustive and one.value == 7
        assert (one.value, one.witness, one.nodes) == (two.value, two.witness, two.nodes)
        assert two.elapsed < 2 * one.elapsed

    def test_lattice_workers_do_not_change_result(self):
        one = min_percolating(LatticeDims(2, 3), SearchBudget(workers=1))
        two = min_percolating(LatticeDims(2, 3), SearchBudget(workers=2))
        assert (one.value, one.witness, one.nodes) == (two.value, two.witness, two.nodes)

    @pytest.mark.parametrize("max_nodes", [40, 700, 5000])
    def test_lattice_workers_do_not_change_a_budgeted_outcome(self, max_nodes):
        # [3]^3 takes 1,733 nodes: the first two budgets run out, the last not
        runs = [min_percolating(LatticeDims(3, 3), SearchBudget(max_nodes=max_nodes, workers=w))
                for w in (1, 2)]
        assert runs[0].nodes <= max_nodes
        assert runs[0].exhaustive == (max_nodes == 5000)
        assert len({(r.value, r.witness, r.nodes, r.exhaustive) for r in runs}) == 1

    @pytest.mark.parametrize("side", [40, 100])
    def test_time_budget_holds_on_a_large_cube(self, side):
        # Once, every cell of [40]^3 started a partition of each size from 1,
        # and each partition listed the subsets after its first cell even past
        # the deadline: 0.5 s ran to 50 s.
        start = time.monotonic()
        res = min_percolating(LatticeDims(side, 3), SearchBudget(max_time=0.3))
        assert not res.exhaustive and res.nodes > 0
        assert time.monotonic() - start < 1.5

    def test_lattice_time_budget_holds_inside_a_block(self):
        import time

        start = time.monotonic()
        res = min_percolating(LatticeDims(4, 3), SearchBudget(max_time=0.3))
        assert not res.exhaustive
        assert time.monotonic() - start < 1.5

    def test_lattice_budget_truncation(self):
        res = min_percolating(LatticeDims(2, 3), SearchBudget(max_nodes=3))
        assert not res.exhaustive
        assert res.value == 0

    def test_2d_rejects_other_thresholds(self):
        with pytest.raises(DomainError):
            min_percolating(GridDims(3, 3), r=3)

    def test_cell_cap_checked_before_search_tables(self, monkeypatch):
        # The cap must be checked before anything of the board's size exists:
        # one mask of these 16M-cell boards holds 2 MB, and the peak must stay
        # below half of that.
        from minps import ResourceLimitError

        monkeypatch.setenv("MINPS_CELL_CAP", "10")
        calls = [
            lambda: max_minps(GridDims(4000, 4000)),
            lambda: max_corner_avoiding(GridDims(4000, 4000)),
            lambda: min_percolating(GridDims(4000, 4000)),
            lambda: min_percolating(LatticeDims(250, 3)),
        ]
        for call in calls:
            tracemalloc.start()
            try:
                with pytest.raises(ResourceLimitError):
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20


class TestLargeGrids:
    @pytest.mark.parametrize("search", [max_minps, max_corner_avoiding])
    def test_search_memory_is_linear_in_cells(self, search):
        # one mask per cell would hold cells**2 bits, about 107 MB on 200x200
        tracemalloc.start()
        try:
            res = search(GridDims(200, 200), SearchBudget(max_nodes=1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not res.exhaustive
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("search", [max_minps, max_corner_avoiding, min_percolating])
    def test_time_budget_holds_per_node(self, search):
        # a deep node closes its set once per seed, so the deadline is read on
        # every node; read every 4096 nodes, 3 s once ran to 7.4 s on 200x200.
        # What a search builds before its first node is paid from the budget
        # too, so it must grow no faster than the cells.
        start = time.monotonic()
        res = search(GridDims(300, 300), SearchBudget(max_time=0.2))
        assert not res.exhaustive and res.nodes > 0
        assert time.monotonic() - start < 0.5

    def test_time_budget_reaches_nodes_with_workers(self):
        # Sizes below (m+2)//2 hold no percolating grid set and are not
        # scanned; each once sent a shape to the pool per partition, and on
        # 300x300 that alone spent the whole budget before the first node.
        res = min_percolating(GridDims(300, 300), SearchBudget(max_time=0.5, workers=2))
        assert not res.exhaustive and res.nodes > 0

    def test_range_stops_at_the_first_partition_past_the_deadline(self):
        # Each partition after it would stop at its first node; waiting for
        # the 300 of a 300x300 range, each with its own pickled shape, once
        # took a 0.5 s search with workers=2 to 0.55-0.94 s.
        from minps.search import _Shape, _run_block

        shape = _Shape(GridDims(300, 300), "perc")
        best, nodes, truncated = _run_block(shape, (151, 151), 10**6, time.monotonic() - 1, None)
        assert (best, nodes, truncated) == (None, 1, True)

    @pytest.mark.parametrize("search", [max_minps, max_corner_avoiding, min_percolating])
    def test_node_budget_bounds_the_work(self, search):
        start = time.monotonic()
        res = search(GridDims(40, 40), SearchBudget(max_nodes=20_000))
        assert not res.exhaustive
        assert res.nodes <= 20_000 + 1
        assert time.monotonic() - start < 10


class TestSearchKeepsNoState:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_tables_or_workers_after_return(self, workers):
        res = min_percolating(GridDims(5, 4), SearchBudget(workers=workers))
        assert res.exhaustive and res.value == 5
        assert multiprocessing.active_children() == []

    def test_no_workers_after_an_error(self, monkeypatch):
        import minps.search

        def fail(*args):
            raise RuntimeError("block failed")

        monkeypatch.setattr(minps.search, "_run_block", fail)
        with pytest.raises(RuntimeError):
            min_percolating(GridDims(3, 3), SearchBudget(workers=2))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus,pools", [(3, [3]), (None, [])])
    def test_worker_count_is_capped_by_the_cpus(self, monkeypatch, cpus, pools):
        import minps.search

        sizes = []

        class InProcessPool:
            def __init__(self, processes):
                sizes.append(processes)

            def imap(self, func, iterable):
                return map(func, iterable)

            def terminate(self):
                pass

        serial = min_percolating(GridDims(4, 3))
        monkeypatch.setattr(minps.search.multiprocessing, "Pool", InProcessPool)
        monkeypatch.setattr(minps.search.os, "cpu_count", lambda: cpus)
        res = min_percolating(GridDims(4, 3), SearchBudget(workers=100_000))
        assert sizes == pools
        assert (res.value, res.witness, res.nodes, res.exhaustive) == (
            serial.value, serial.witness, serial.nodes, serial.exhaustive)

    def test_large_search_keeps_no_memory(self):
        # the search keeps no table over the cells: one list of the 40,000
        # cell indices of 200x200 alone would hold over 1 MB
        tracemalloc.start()
        try:
            res = max_minps(GridDims(200, 200), SearchBudget(max_nodes=1000))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not res.exhaustive
        assert kept < 2**20 and peak < 2**20


class TestMaskEngineAgreement:
    def test_mask_closure_matches_bfs_engine(self):
        # the search module's shift-and-or sweep against the BFS closure,
        # over random masks on assorted shapes including degenerate rows
        import random

        from minps import closure
        from minps.grid import PointSet
        from minps.search import _Shape

        rng = random.Random(31)
        for m, n in [(1, 1), (1, 8), (8, 1), (2, 7), (5, 5), (6, 4), (3, 9)]:
            t, full = _Shape(GridDims(m, n), "minps"), (1 << m * n) - 1
            for _ in range(300):
                mask = rng.getrandbits(m * n)
                pts = frozenset(
                    (i // n + 1, i % n + 1) for i in range(m * n) if mask >> i & 1
                )
                infected = closure(PointSet(GridDims(m, n), pts)).infected
                want = 0
                for p in infected.points:
                    want |= 1 << ((p.x - 1) * n + (p.y - 1))
                assert t.close(mask) == want
                assert (t.close(mask) == full) == (want == full)

    @settings(max_examples=300)
    @given(data=st.data())
    def test_closing_a_closure_with_more_cells(self, data):
        # cl(cl(A) | B) == cl(A | B): the grid search grows each closure on
        # its path from its parent's instead of from the raw seeds
        from minps.search import _Shape

        m = data.draw(st.integers(1, 7))
        n = data.draw(st.sampled_from([1, m, data.draw(st.integers(1, 7))]))
        m, n = data.draw(st.sampled_from([(m, n), (n, m)]))
        t = _Shape(GridDims(m, n), "minps")
        # a fifth to a third of the cells: sparse enough not to fill the grid
        # at once, dense enough that cl(A) mostly grows
        cells = st.sets(st.integers(0, m * n - 1), min_size=m * n // 5, max_size=m * n // 3 + 1)
        a, b = (sum(1 << i for i in data.draw(cells)) for _ in range(2))
        assert t.close(t.close(a) | b) == t.close(a | b)

    @settings(max_examples=300)
    @given(data=st.data())
    def test_empty_lines_stay_empty(self, data):
        # The grid search prunes on this: a row or column without seeds stays
        # empty when it is on the border or next to another empty line.
        from minps.search import _Shape

        m, n = data.draw(st.sampled_from([(1, 1), (1, 8), (8, 1), (2, 7), (5, 5), (6, 4), (3, 9)]))
        t, full = _Shape(GridDims(m, n), "minps"), (1 << m * n) - 1
        columns = [((1 << n) - 1) << (x * n) for x in range(m)]
        rows = [sum(1 << (x * n + y) for x in range(m)) for y in range(n)]
        mask = data.draw(st.integers(0, full))
        for lines in (columns, rows):
            for i in data.draw(st.sets(st.integers(0, len(lines) - 1))):
                mask &= ~lines[i]
        closed = t.close(mask)
        for lines in (columns, rows):
            empty = [not mask & line for line in lines]
            for i, line in enumerate(lines):
                if empty[i] and (i in (0, len(lines) - 1) or empty[i - 1] or empty[i + 1]):
                    assert not closed & line

    @settings(max_examples=300)
    @given(data=st.data())
    def test_empty_slabs_stay_empty(self, data):
        # The slab lemma on every axis of a lattice: a slab without seeds stays
        # empty for r = 2 when it is on the border or next to another empty
        # slab, and for r >= 3 wherever it is.
        side, d = data.draw(st.sampled_from([(2, 3), (3, 2), (3, 3), (4, 2), (2, 4), (6, 1)]))
        r = data.draw(st.integers(2, 2 * d + 1))
        cells = list(product(range(1, side + 1), repeat=d))
        seeds = data.draw(st.sets(st.sampled_from(cells)))
        for axis, v in data.draw(st.sets(st.tuples(st.integers(0, d - 1), st.integers(1, side)))):
            seeds = {c for c in seeds if c[axis] != v}
        closed = naive_lattice_closure(side, d, r, seeds)
        for axis in range(d):
            empty = {v: all(c[axis] != v for c in seeds) for v in range(1, side + 1)}
            for v in range(1, side + 1):
                if empty[v] and (r >= 3 or v in (1, side) or empty.get(v - 1) or empty.get(v + 1)):
                    assert all(c[axis] != v for c in closed)

    @pytest.mark.parametrize("side,d", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2),
                                        (6, 1)])
    def test_lattice_mask_closure_matches_naive(self, side, d):
        # the bit-sliced counters against the naive sweep, for every threshold
        # up to one past the most neighbours a cell has
        from minps.percolate import cell_at
        from minps.search import _Shape

        dims = LatticeDims(side, d)
        rng = random.Random(10 * side + d)
        for r in range(1, 2 * d + 2):
            shape = _Shape(dims, "perc", r)
            for _ in range(60):
                density = rng.random()
                seeds = [i for i in range(dims.cells) if rng.random() < density]
                got = shape.close(sum(1 << i for i in seeds))
                want = naive_lattice_closure(side, d, r, [cell_at(dims, i) for i in seeds])
                assert {cell_at(dims, i) for i in range(dims.cells) if got >> i & 1} == want

    @settings(max_examples=300)
    @given(data=st.data())
    def test_a_redundant_prefix_seed_rules_out_the_set(self, data):
        # The grid search drops every superset S of a prefix P once a seed v of
        # P lies in the closure of P - v, or that closure meets a protected
        # corner: closure is monotone, so S - v does the same.  Half the sets
        # are minimal percolating sets (cells of the full grid deleted in a
        # drawn order while it still percolates), so a cut that fires too
        # often fails here; on P = S the cut must be exact.
        from minps.search import _Shape

        m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        t, full = _Shape(GridDims(m, n), "minps"), (1 << m * n) - 1
        if data.draw(st.booleans()):
            s = full
            for i in data.draw(st.permutations(range(m * n))):
                if t.close(s ^ 1 << i) == full:
                    s ^= 1 << i
        else:
            s = data.draw(st.integers(1, full))
        seeds = [i for i in range(m * n) if s >> i & 1]
        part = data.draw(st.sets(st.sampled_from(seeds), min_size=1))
        p = sum(1 << i for i in part)
        v = 1 << data.draw(st.sampled_from(sorted(part)))
        pts = [(i // n + 1, i % n + 1) for i in seeds]
        for corner in (0, _Shape(GridDims(m, n), "corner").corner) if min(m, n) >= 2 else (0,):
            holds = naive_certify(m, n, pts, corner=bool(corner))[0]
            if t.close(p ^ v) & (v | corner):
                assert not holds
            if t.close(s) == full:
                cut = any(t.close(s ^ 1 << i) & (1 << i | corner) for i in seeds)
                assert holds == (not cut)

    @settings(max_examples=300)
    @given(data=st.data())
    def test_three_engines_agree(self, data):
        # the search's mask sweep, the BFS closure with its rectangles, and
        # the merge-tree verifiers, on one set, against the naive oracle
        from minps import closure, closure_rects
        from minps.search import _Shape

        m, n = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        pts = data.draw(st.sets(st.tuples(st.integers(1, m), st.integers(1, n))))
        s = PointSet(GridDims(m, n), frozenset(pts))
        infected = closure(s).infected
        mask = sum(1 << ((x - 1) * n + (y - 1)) for x, y in pts)
        want = sum(1 << ((p.x - 1) * n + (p.y - 1)) for p in infected.points)
        assert _Shape(GridDims(m, n), "minps").close(mask) == want
        assert {c for r in closure_rects(s).rects for c in r.cells()} == infected.points
        verdict = is_minps(s)
        assert (verdict.holds, verdict.witness, verdict.detail) == naive_certify(m, n, pts)
        if min(m, n) >= 2:
            verdict = is_corner_avoiding_minps(s)
            assert ((verdict.holds, verdict.witness, verdict.detail)
                    == naive_certify(m, n, pts, corner=True))


class TestSymmetries:
    # A finished search's witness is the least set of its size, so no symmetry
    # (for Ec, none that fixes the corners) maps it to a lesser set.
    @pytest.mark.parametrize("m", range(1, 21))
    def test_exhaustive_witnesses_are_canonical(self, m):
        for n in range(1, 20 // m + 1):
            perms = naive_symmetries(m, n)
            searches = [(max_minps, perms), (min_percolating, perms)]
            if min(m, n) >= 2:
                corner = {(x - 1) * n + y - 1 for x, y in naive_corner_cells(m, n)}
                searches.append((max_corner_avoiding,
                                 {p for p in perms if {p[i] for i in corner} == corner}))
            for search, symmetries in searches:
                res = search(GridDims(m, n))
                assert res.exhaustive
                cells = sorted((x - 1) * n + y - 1 for x, y in res.witness.points)
                for p in symmetries:
                    assert cells <= sorted(p[i] for i in cells), (search.__name__, m, n, p)

    @pytest.mark.parametrize("m", range(1, 21))
    def test_the_flip_cut_keeps_every_result(self, m, monkeypatch):
        # The same scans with the shape's row-flip cut cleared: only nodes may
        # differ, and the cut may only remove them.
        import minps.search

        shape = minps.search._Shape

        def without_flip(*args):
            plain = shape(*args)
            plain.flip = False
            return plain

        for n in range(1, 20 // m + 1):
            for search, target in [(max_minps, "minps"), (min_percolating, "perc")]:
                assert shape(GridDims(m, n), target).flip == (n > 1)
                cut = search(GridDims(m, n))
                with monkeypatch.context() as patch:
                    patch.setattr(minps.search, "_Shape", without_flip)
                    plain = search(GridDims(m, n))
                assert (cut.value, cut.witness, cut.exhaustive) == (
                    plain.value, plain.witness, plain.exhaustive), (search.__name__, m, n)
                assert cut.nodes <= plain.nodes, (search.__name__, m, n)
        assert not shape(LatticeDims(3, 2), "perc").flip

    @pytest.mark.parametrize("m", range(2, 8))
    def test_corner_subset_fixes_the_corner_cells(self, m):
        from minps.search import _Shape

        for n in range(2, 8):
            shape = _Shape(GridDims(m, n), "corner")
            corner = {(x - 1) * n + y - 1 for x, y in naive_corner_cells(m, n)}
            assert shape.corner == sum(1 << i for i in corner)
            assert not shape.flip  # the row flip moves the corner cells


class TestMonotonicityTable:
    def test_thin_rows_match_formulas(self):
        table = monotonicity_table(7, 3)
        for m in range(1, 8):
            assert table[(m, 1)] == (2 * (m + 1)) // 3
            assert table[(m, 2)] == (2 * (m + 2)) // 3
            assert table[(m, 3)] == (2 * (m + 3)) // 3
        assert table[(3, 3)] == 4 and table[(4, 3)] == 4

    def test_one_row_grids_exempt_from_bound(self):
        # E(1,n) exceeds (m+2)(n+2)/6, which only covers min(m,n) >= 2
        table = monotonicity_table(1, 7)
        assert 6 * table[(1, 7)] > (1 + 2) * (7 + 2)

    def test_search_values_inside_construction_bounds(self):
        from minps import size_bounds

        for m, n in [(3, 3), (4, 3), (4, 4), (5, 4)]:
            lower, upper = size_bounds(m, n)
            value = max_minps(GridDims(m, n)).value
            assert lower <= value <= upper

    @pytest.mark.parametrize("max_m,max_n", [(0, 3), (3, 0), (-1, 2)])
    def test_rejects_empty_sizes(self, max_m, max_n):
        with pytest.raises(DomainError):
            monotonicity_table(max_m, max_n)


@pytest.mark.parametrize("dims,target,r", [(GridDims(5, 4), "corner", 2), (GridDims(1, 9), "minps", 2),
                                           (GridDims(7, 1), "perc", 2), (LatticeDims(3, 3), "perc", 3),
                                           (LatticeDims(4, 2), "perc", 2)])
def test_shapes_pickle_with_their_closure(dims, target, r):
    # Workers get the shape pickled: its copy must close every mask the same.
    from minps.search import _Shape

    shape = _Shape(dims, target, r)
    copy = pickle.loads(pickle.dumps(shape))
    assert {k: v for k, v in vars(copy).items() if k != "close"} == {
        k: v for k, v in vars(shape).items() if k != "close"}
    rng = random.Random(dims.cells)
    for _ in range(300):
        mask = rng.getrandbits(dims.cells)
        assert copy.close(mask) == shape.close(mask)


@pytest.mark.parametrize("dims,ints", [(GridDims(300, 300), 2), (LatticeDims(40, 3), 4)])
def test_a_pickled_shape_holds_each_board_constant_once(dims, ints):
    # A grid's closure holds the full board and one axis mask, a cube's the
    # full board and three; nothing else in the shape is as large.
    from minps.search import _Shape

    size = len(pickle.dumps(_Shape(dims, "perc")))
    assert ints * dims.cells // 8 < size < (ints + 0.5) * dims.cells // 8
