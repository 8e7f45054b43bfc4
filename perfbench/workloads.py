"""Seeded question lists for the three benchmark workloads.

A workload builder takes the freshly imported ``minps`` package, its ``cli``
module, a seeded ``random.Random``, the smoke flag and a scratch directory.
It generates the inputs, warms the closure engines' per-grid tables, and
returns a list of ``Question``.  ``ask`` is the timed part: it calls the
package's public functions, each inside a tracer span.  ``check`` runs
outside the timed region, returns a list of error strings, and adds the
per-pass counters through ``count``.

Counters marked "computed" are derived by the benchmark from the answers,
not read from the package:
  percolate.cells_swept  m*n (or side**dim) per call into ``percolate``;
  verify.deletions       single-deletion closures a certification ran: all
                         of them when the set holds, witness rank + 1 on a
                         redundant point, 0 when the set does not percolate.
"""

from __future__ import annotations

import io
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Question:
    name: str
    ask: Callable[[Any], Any]
    check: Callable[[Any, Callable[[str, float], None]], list[str]]


def _warm(mp, grids=(), lattices=()) -> None:
    """Build the closure engines' neighbour tables for every input shape."""
    for m, n in grids:
        mp.percolates(mp.PointSet(mp.GridDims(m, n), frozenset()))
    for side, dim in lattices:
        mp.lattice_percolates(mp.LatticeSet(mp.LatticeDims(side, dim), frozenset()))


def _deletions(verdict, ps) -> int:
    if verdict.holds:
        return len(ps)
    if verdict.witness is None:
        return 0
    return sorted(ps.points).index(verdict.witness) + 1


def _layers_question(mp, cli) -> Question:
    """One tiny call into every layer, asked once per pass by every workload,
    so that no per-layer time is a constant zero and a layer that breaks
    fails every workload."""
    budget = mp.SearchBudget(workers=1)

    def ask(tr):
        with tr.span("construct.corner_avoiding_strip"):
            cs = mp.corner_avoiding_strip(1)
        with tr.span("grid.format_points"):
            text = mp.format_points(cs.points)
        with tr.span("grid.parse_points"):
            ps = mp.parse_points(text)
        with tr.span("percolate.closure_rects"):
            rects = mp.closure_rects(ps)
        with tr.span("verify.is_corner_avoiding_minps"):
            verdict = mp.is_corner_avoiding_minps(ps)
        with tr.span("search.max_minps"):
            res = mp.max_minps(mp.GridDims(2, 2), budget)
        with tr.span("render.render"):
            pic = mp.render(ps)
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(buf):
            with tr.span("cli.run"):
                code = cli.run(["bounds", "--dims", "4", "4"])
        return cs, ps, rects, verdict, res, pic, code, buf.getvalue()

    def check(ans, count):
        cs, ps, rects, verdict, res, pic, code, out = ans
        m, n = cs.dims
        count("construct.points_built", len(cs))
        count("grid.points", 2 * len(ps))
        count("percolate.cells_swept", m * n)
        count("verify.deletions", _deletions(verdict, ps))
        count("render.chars", len(pic))
        count("cli.nonzero_exits", int(code != 0))
        errs = _check_search(mp, "layers E(2,2)", "max_minps", 2, res, count)
        if ps != cs.points or rects.covered != m * n or not verdict.holds:
            errs.append("layers: corner_avoiding_strip(1) does not round-trip and certify")
        if pic.count("#") != len(ps) or code != 0 or "lower=" not in out:
            errs.append("layers: render or cli bounds output is wrong")
        return errs

    return Question("layers", ask, check)


# --- certify ----------------------------------------------------------------


def _dense_questions(mp, rng, side: int) -> list[Question]:
    built = mp.dense_minps(side, side).points
    dims = built.dims
    # The added cell is one of the first non-seed cells in lexicographic
    # order, so is_minps meets a witness within the first few deletions
    # whatever the seed.  A cell further on can let an early seed go (one on
    # a glue gap of the construction does), which makes the cost of this
    # question jump between seeds.
    early = [mp.Point(x, y) for x in (1, 2) for y in range(1, side + 1)
             if (x, y) not in built][:12]
    cell = rng.choice(early)
    dropped = rng.choice(sorted(built.points))
    plus = mp.PointSet(dims, built.points | {cell})
    minus = built.without(dropped)
    name = f"dense{side}"

    def ask_build(tr):
        with tr.span("construct.dense_minps"):
            cs = mp.dense_minps(side, side)
        with tr.span("grid.format_points"):
            text = mp.format_points(cs.points)
        with tr.span("grid.parse_points"):
            ps = mp.parse_points(text)
        with tr.span("percolate.closure"):
            cl = mp.closure(ps)
        return cs, ps, cl

    def check_build(ans, count):
        cs, ps, cl = ans
        count("construct.points_built", len(cs))
        count("grid.points", 2 * len(ps))
        count("percolate.generations", cl.generations)
        count(f"q.build{side}.generations", cl.generations)
        count("percolate.cells_swept", side * side)
        errs = []
        if cs.claim != mp.MINPS or cs.points != built:
            errs.append(f"build{side}: dense_minps differs from the set built at setup")
        if ps != cs.points:
            errs.append(f"build{side}: parse(format(x)) != x")
        if len(cl.infected) != side * side:
            errs.append(f"build{side}: closure covers {len(cl.infected)} of {side * side} cells")
        return errs

    def ask_certify(tr):
        verdicts = []
        for ps in (built, plus, minus):
            with tr.span("verify.is_minps"):
                verdicts.append(mp.is_minps(ps))
        return verdicts

    def check_certify(verdicts, count):
        for verdict, ps in zip(verdicts, (built, plus, minus)):
            count("verify.deletions", _deletions(verdict, ps))
        ok, with_cell, without_seed = verdicts
        errs = []
        if not ok.holds:
            errs.append(f"{name}: is_minps rejects the construction ({ok.detail})")
        w = with_cell.witness
        if with_cell.holds or with_cell.detail != "redundant-point" or w is None:
            errs.append(f"{name}+cell: expected redundant-point, got {with_cell.detail}")
        elif w not in plus or w > cell:
            errs.append(f"{name}+cell: witness {tuple(w)} is not a seed at or before {tuple(cell)}")
        elif not mp.percolates(plus.without(w)):
            errs.append(f"{name}+cell: deleting witness {tuple(w)} stops percolation")
        if (without_seed.holds or without_seed.detail != "not-percolating"
                or without_seed.witness is not None):
            errs.append(f"{name}-seed: expected not-percolating, got {without_seed.detail}")
        return errs

    return [Question(f"build{side}", ask_build, check_build),
            Question(name, ask_certify, check_certify)]


def _square_question(mp, side: int) -> Question:
    name = f"square{side}"

    def ask(tr):
        with tr.span("construct.corner_avoiding_square"):
            cs = mp.corner_avoiding_square(side)
        with tr.span("verify.is_corner_avoiding_minps"):
            verdict = mp.is_corner_avoiding_minps(cs.points)
        return cs, verdict

    def check(ans, count):
        cs, verdict = ans
        count("construct.points_built", len(cs))
        count("verify.deletions", _deletions(verdict, cs.points))
        errs = []
        if cs.claim != mp.CORNER_AVOIDING or cs.dims != mp.GridDims(side, side):
            errs.append(f"{name}: wrong claim or dims {cs.dims}")
        if not verdict.holds:
            errs.append(f"{name}: not certified corner-avoiding ({verdict.detail})")
        return errs

    return Question(name, ask, check)


def _lattice_question(mp, side: int) -> Question:
    name = f"lattice{side}"

    def ask(tr):
        with tr.span("construct.lattice_minps"):
            cs = mp.lattice_minps(side, 3)
        with tr.span("grid.format_points"):
            text = mp.format_points(cs.points)
        with tr.span("grid.parse_points"):
            ls = mp.parse_points(text)
        return cs, ls

    def check(ans, count):
        cs, ls = ans
        count("construct.points_built", len(cs))
        count("grid.points", 2 * len(ls))
        errs = []
        if cs.claim != mp.MINPS or cs.dims != mp.LatticeDims(side, 3):
            errs.append(f"{name}: wrong claim or dims {cs.dims}")
        if ls != cs.points:
            errs.append(f"{name}: parse(format(x)) != x")
        if not mp.lattice_percolates(cs.points):
            errs.append(f"{name}: construction does not percolate")
        return errs

    return Question(name, ask, check)


def certify(mp, cli, rng, smoke: bool, work) -> list[Question]:
    """Build, then certify: dense sets, a corner-avoiding square, a cube.

    A dense set is certified in one question together with its two seeded
    negatives, and built in another.  The seven questions then sort with the
    square, whose cost does not depend on the seed, in the middle, so the
    median question latency is one question's.
    """
    sides, square, cube = ((20, 24), 18, 8) if smoke else ((66, 99), 50, 30)
    questions = []
    for side in sides:
        questions += _dense_questions(mp, rng, side)
    questions.append(_square_question(mp, square))
    questions.append(_lattice_question(mp, cube))
    questions.append(_layers_question(mp, cli))
    _warm(mp, grids=[(s, s) for s in sides] + [(square, square)], lattices=[(cube, 3)])
    return questions


# --- search -----------------------------------------------------------------


def _certify_witness(mp, target: str, res) -> bool:
    if target == "max_minps":
        return mp.is_minps(res.witness).holds
    if target == "max_corner_avoiding":
        return mp.is_corner_avoiding_minps(res.witness).holds
    if isinstance(res.witness, mp.LatticeSet):
        return mp.lattice_percolates(res.witness)
    return mp.percolates(res.witness)


def _check_search(mp, label: str, target: str, want: int, res, count) -> list[str]:
    count("search.nodes", res.nodes)
    count("search.exhaustive", int(res.exhaustive))
    count(f"q.{label}.nodes", res.nodes)
    if res.value != want or not res.exhaustive:
        return [f"{label}: value {res.value} exhaustive={res.exhaustive}, want {want}"]
    if len(res.witness) != want or not _certify_witness(mp, target, res):
        return [f"{label}: witness of size {len(res.witness)} does not re-certify"]
    return []


def _search_question(mp, label: str, target: str, cases) -> Question:
    """One search per (case, dims, want), each checked against its known value."""
    fn = getattr(mp, target)
    budget = mp.SearchBudget(workers=1)

    def ask(tr):
        out = []
        for _, dims, _ in cases:
            with tr.span(f"search.{target}"):
                out.append(fn(dims, budget))
        return out

    def check(results, count):
        errs = []
        for (case, _, want), res in zip(cases, results):
            errs += _check_search(mp, case, target, want, res, count)
        return errs

    return Question(label, ask, check)


def _c1_grids(smoke: bool) -> list[tuple[int, int, int]]:
    """(m, n, E(m, n)) from the thin-grid closed formulas of acceptance C1."""
    if smoke:
        return ([(m, 1, 2 * (m + 1) // 3) for m in range(1, 6)]
                + [(m, 2, 2 * (m + 2) // 3) for m in range(2, 5)])
    return ([(m, 1, 2 * (m + 1) // 3) for m in range(1, 10)]
            + [(m, 2, 2 * (m + 2) // 3) for m in range(2, 8)]
            + [(m, 3, 2 * (m + 3) // 3) for m in range(2, 6)])


def search(mp, cli, rng, smoke: bool, work) -> list[Question]:
    """Exact extremal values with known answers; the seed picks orientations.

    One question per target, so the median question latency is that of a
    whole target (about a second), not of one small grid.
    """

    def case(target, m, n, want):
        dims = mp.GridDims(m, n) if rng.random() < 0.5 else mp.GridDims(n, m)
        return (f"{target} {m}x{n}", dims, want)

    if smoke:
        maxes = [("max_minps", 3, 3, 4), ("max_minps", 3, 2, 3)]
        corners = [("max_corner_avoiding", 4, 4, 4)]
        perc = [case("min_percolating", 4, 4, 4),
                ("min_percolating [2]^3", mp.LatticeDims(2, 3), 3)]
    else:
        maxes = [("max_minps", 4, 4, 5), ("max_minps", 5, 4, 6)]
        corners = [("max_corner_avoiding", 4, 4, 4), ("max_corner_avoiding", 5, 4, 5)]
        perc = [case("min_percolating", 6, 6, 6),
                ("min_percolating [3]^3", mp.LatticeDims(3, 3), 4)]
    c1 = [case("c1", m, n, want) for m, n, want in _c1_grids(smoke)]
    questions = [
        _search_question(mp, "max_minps", "max_minps", [case(*c) for c in maxes]),
        _search_question(mp, "max_corner_avoiding", "max_corner_avoiding",
                         [case(*c) for c in corners]),
        _search_question(mp, "min_percolating", "min_percolating", perc),
        _search_question(mp, "c1_thin_grids", "max_minps", c1),
        _layers_question(mp, cli),
    ]
    _warm(mp, grids={(d.m, d.n) for _, d, _ in c1})
    return questions


# --- closure ----------------------------------------------------------------


def _density(cells: int, scale: float, offset: float) -> float:
    """Seed density at which roughly a third of random sets percolate.

    Fitted by sampling random sets: p = scale / (ln(cells) - offset).
    """
    return min(0.3, scale / max(0.5, math.log(cells) - offset))


def _grid_question(mp, i: int, ps) -> Question:
    m, n = ps.dims
    name = f"grid{i}"

    def ask(tr):
        with tr.span("grid.format_points"):
            text = mp.format_points(ps)
        with tr.span("grid.parse_points"):
            back = mp.parse_points(text)
        with tr.span("percolate.percolates"):
            perc = mp.percolates(back)
        with tr.span("percolate.closure"):
            cl = mp.closure(back)
        with tr.span("percolate.closure_rects"):
            rects = mp.closure_rects(back)
        with tr.span("render.render"):
            pic = mp.render(back)
        return back, perc, cl, rects, pic

    def check(ans, count):
        back, perc, cl, rects, pic = ans
        covered = len(cl.infected)
        count("grid.points", 2 * len(ps))
        count("percolate.generations", cl.generations)
        count("percolate.cells_swept", 3 * m * n)
        count("render.chars", len(pic))
        errs = []
        if back != ps:
            errs.append(f"{name}: parse(format(x)) != x")
        if perc != (covered == m * n):
            errs.append(f"{name}: percolates={perc} but closure covers {covered}/{m * n}")
        if rects.covered != covered:
            errs.append(f"{name}: closure_rects covers {rects.covered}, closure {covered}")
        if not ps.points <= cl.infected.points:
            errs.append(f"{name}: closure drops seeds")
        rows = pic.split("\n")
        if len(rows) != n or any(len(r) != m for r in rows) or pic.count("#") != len(ps):
            errs.append(f"{name}: render is not an {m}x{n} picture of the seeds")
        return errs

    return Question(name, ask, check)


def _lattice_closure_question(mp, i: int, ls) -> Question:
    cells = ls.dims.cells
    name = f"cube{i}"

    def ask(tr):
        with tr.span("percolate.lattice_percolates"):
            perc = mp.lattice_percolates(ls)
        with tr.span("percolate.lattice_closure"):
            cl = mp.lattice_closure(ls)
        return perc, cl

    def check(ans, count):
        perc, cl = ans
        count("percolate.cells_swept", 2 * cells)
        errs = []
        if perc != (len(cl) == cells):
            errs.append(f"{name}: lattice_percolates={perc} but closure covers {len(cl)}/{cells}")
        if not ls.points <= cl.points:
            errs.append(f"{name}: lattice closure drops seeds")
        return errs

    return Question(name, ask, check)


def _cli_question(mp, cli, rng, side: int, work) -> Question:
    """construct -> verify -> verify a non-minimal file -> bounds -> search -> render."""
    os.makedirs(work, exist_ok=True)
    good = os.path.join(work, "dense.pts")
    bad = os.path.join(work, "redundant.pts")
    built = mp.dense_minps(side, side).points
    extra = rng.choice([(x, y) for x in range(1, side + 1) for y in range(1, side + 1)
                        if (x, y) not in built])
    mp.save_points(bad, mp.PointSet(built.dims, built.points | {extra}))
    script = [
        ["construct", "--family", "lower", "--params", f"m={side}", f"n={side}", "-o", good],
        ["verify", "--property", "minps", good],
        ["verify", "--property", "minps", bad],
        ["bounds", "--dims", str(side), str(side)],
        ["search", "--target", "E", "--dims", "3", "3", "--workers", "1"],
        ["render", good, "--closure"],
    ]
    want_codes = [0, 0, 1, 0, 0, 0]

    def ask(tr):
        out = []
        for argv in script:
            buf = io.StringIO()
            with redirect_stdout(buf), redirect_stderr(buf):
                with tr.span("cli.run"):
                    code = cli.run(argv)
            out.append((code, buf.getvalue()))
        return out

    def check(out, count):
        codes = [code for code, _ in out]
        text = [t for _, t in out]
        count("cli.nonzero_exits", sum(1 for c in codes if c != 0))
        errs = []
        if codes != want_codes:
            errs.append(f"cli: exit codes {codes}, want {want_codes}")
        if f"size={len(built)}" not in text[0]:
            errs.append("cli construct: wrong size")
        if "holds=true" not in text[1] or "holds=false" not in text[2]:
            errs.append("cli verify: wrong verdicts")
        if f"lower={len(built)} " not in text[3]:
            errs.append("cli bounds: wrong lower bound")
        if "value=4 exhaustive=true" not in text[4]:
            errs.append("cli search: E(3,3) is not 4")
        if text[5].count("\n") != side or "." in text[5]:
            errs.append("cli render: closure picture is not a full square")
        return errs

    return Question("cli_script", ask, check)


def closure(mp, cli, rng, smoke: bool, work) -> list[Question]:
    """Many short closures on random sets, random cubes and one CLI script."""
    sizes, reps = ((8, 12, 16), 1) if smoke else (range(16, 65, 8), 12)
    sides, cube_reps = ((4, 5), 2) if smoke else (range(8, 14), 10)
    dims = [(m, n) for m in sizes for n in sizes] * reps
    rng.shuffle(dims)
    questions = []
    for i, (m, n) in enumerate(dims):
        k = round(_density(m * n, 0.283, 3.6) * m * n)
        pts = frozenset(mp.Point(c // n + 1, c % n + 1) for c in rng.sample(range(m * n), k))
        questions.append(_grid_question(mp, i, mp.PointSet(mp.GridDims(m, n), pts)))
    cubes = [s for s in sides] * cube_reps
    rng.shuffle(cubes)
    for i, side in enumerate(cubes):
        k = round(_density(side ** 3, 0.06, 4.9) * side ** 3)
        coords = [(c % side + 1, c // side % side + 1, c // side // side + 1)
                  for c in rng.sample(range(side ** 3), k)]
        ls = mp.LatticeSet(mp.LatticeDims(side, 3), frozenset(coords))
        questions.append(_lattice_closure_question(mp, i, ls))
    questions.append(_cli_question(mp, cli, rng, 12 if smoke else 24, work))
    questions.append(_layers_question(mp, cli))
    _warm(mp, lattices=[(s, 3) for s in set(cubes)])
    return questions


WORKLOADS = {"certify": certify, "search": search, "closure": closure}

# Rows of the ROADMAP Baseline table that a workload covers: (label, question,
# span name, index of that span in the question, baseline seconds, counter key,
# baseline count).
BASELINE = {
    "certify": [
        ("build dense_minps 66x66", "build66", "construct.dense_minps", 0, 0.04, None, None),
        ("closure (BFS) 66x66 dense set", "build66", "percolate.closure", 0, 0.016,
         "q.build66.generations", 367),
        ("certify is_minps 66x66", "dense66", "verify.is_minps", 0, 0.95, None, None),
    ],
    "search": [
        ("max_minps 4x4", "max_minps", "search.max_minps", 0, 0.07,
         "q.max_minps 4x4.nodes", 61_000),
        ("max_minps 5x4", "max_minps", "search.max_minps", 1, 1.3,
         "q.max_minps 5x4.nodes", 1_000_000),
        ("max_corner_avoiding 4x4", "max_corner_avoiding", "search.max_corner_avoiding", 0,
         0.12, "q.max_corner_avoiding 4x4.nodes", 65_000),
        ("min_percolating [3]^3", "min_percolating", "search.min_percolating", 1, 0.08,
         "q.min_percolating [3]^3.nodes", 8_000),
    ],
    "closure": [],
}
