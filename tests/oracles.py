"""Independent reference implementations used only to cross-check the engines.

Everything here is deliberately naive: plain sets, synchronous sweeps until
nothing changes.  None of it shares code with the package.
"""

from itertools import combinations, product


def naive_closure(m, n, seeds):
    """Synchronous sweep-until-stable closure on an m x n grid."""
    infected = set(seeds)
    while True:
        new = set()
        for x in range(1, m + 1):
            for y in range(1, n + 1):
                if (x, y) in infected:
                    continue
                count = (
                    ((x - 1, y) in infected)
                    + ((x + 1, y) in infected)
                    + ((x, y - 1) in infected)
                    + ((x, y + 1) in infected)
                )
                if count >= 2:
                    new.add((x, y))
        if not new:
            return infected
        infected |= new


def naive_generations(m, n, seeds):
    infected = set(seeds)
    rounds = 0
    while True:
        new = set()
        for x in range(1, m + 1):
            for y in range(1, n + 1):
                if (x, y) in infected:
                    continue
                count = (
                    ((x - 1, y) in infected)
                    + ((x + 1, y) in infected)
                    + ((x, y - 1) in infected)
                    + ((x, y + 1) in infected)
                )
                if count >= 2:
                    new.add((x, y))
        if not new:
            return rounds
        infected |= new
        rounds += 1


def naive_lattice_closure(side, d, r, seeds):
    """Sweep-until-stable closure on [side]^d with threshold r."""
    infected = set(seeds)
    cells = [()]
    for _ in range(d):
        cells = [c + (v,) for c in cells for v in range(1, side + 1)]
    while True:
        new = set()
        for c in cells:
            if c in infected:
                continue
            count = 0
            for axis in range(d):
                for delta in (-1, 1):
                    nb = c[:axis] + (c[axis] + delta,) + c[axis + 1:]
                    if nb in infected:
                        count += 1
            if count >= r:
                new.add(c)
        if not new:
            return infected
        infected |= new


def naive_step(sizes, r, seeds):
    """One synchronous round on the box of axis sizes ``sizes``: ``seeds``
    plus every cell with at least r of its 2 * len(sizes) neighbours in it."""
    infected = set(seeds)
    new = set()
    for c in product(*(range(1, s + 1) for s in sizes)):
        count = 0
        for axis in range(len(sizes)):
            for delta in (-1, 1):
                nb = c[:axis] + (c[axis] + delta,) + c[axis + 1:]
                if nb in infected:
                    count += 1
        if count >= r:
            new.add(c)
    return infected | new


def naive_percolates(m, n, seeds):
    return len(naive_closure(m, n, seeds)) == m * n


def naive_is_minps(m, n, seeds):
    seeds = set(seeds)
    if not naive_percolates(m, n, seeds):
        return False
    return all(not naive_percolates(m, n, seeds - {v}) for v in seeds)


def naive_corner_cells(m, n):
    """The two protected 2x2 corner squares: top-left and bottom-right."""
    return {(cx + dx, cy + dy)
            for cx, cy in ((1, n - 1), (m - 1, 1)) for dx in (0, 1) for dy in (0, 1)}


def naive_symmetries(m, n):
    """The grid's symmetries other than the identity, as permutations of the
    cell indices (x-1)*n + (y-1): the flips, and on a square the transposes."""
    maps = [
        lambda x, y: (m + 1 - x, y),
        lambda x, y: (x, n + 1 - y),
        lambda x, y: (m + 1 - x, n + 1 - y),
    ]
    if m == n:
        maps += [
            lambda x, y: (y, x),
            lambda x, y: (n + 1 - y, n + 1 - x),
            lambda x, y: (y, n + 1 - x),
            lambda x, y: (n + 1 - y, x),
        ]
    cells = [(x, y) for x in range(1, m + 1) for y in range(1, n + 1)]
    perms = {tuple((fx - 1) * n + fy - 1 for fx, fy in (f(x, y) for x, y in cells))
             for f in maps}
    perms.discard(tuple(range(m * n)))
    return perms


def naive_certify(m, n, seeds, corner=False):
    """(holds, witness, detail) for the MinPS property, or with ``corner``
    for the corner-avoiding one: the first deletion in point order that
    still percolates, or (with ``corner``) infects a corner cell, fails."""
    seeds = set(seeds)
    if not naive_percolates(m, n, seeds):
        return (False, None, "not-percolating")
    protected = naive_corner_cells(m, n) if corner else set()
    for v in sorted(seeds):
        cl = naive_closure(m, n, seeds - {v})
        if len(cl) == m * n:
            return (False, v, "redundant-point")
        if cl & protected:
            return (False, v, "corner-reached")
    return (True, None, "ok")


def _brute_force_max(m, n, holds):
    """(size, set) of the largest subset for which ``holds`` is true, the set
    being the lexicographically least of that size as a sorted tuple of cells;
    (0, ()) when no subset qualifies."""
    cells = [(x, y) for x in range(1, m + 1) for y in range(1, n + 1)]
    for s in range(m * n, 0, -1):
        for chosen in combinations(cells, s):
            if holds(chosen):
                return s, chosen
    return 0, ()


def brute_force_max_minps(m, n):
    """Largest MinPS by enumerating subsets with the naive engine."""
    return _brute_force_max(m, n, lambda chosen: naive_is_minps(m, n, chosen))


def brute_force_max_corner_avoiding(m, n):
    """Largest corner-avoiding MinPS by enumerating subsets with the naive engine."""
    return _brute_force_max(m, n, lambda chosen: naive_certify(m, n, chosen, corner=True)[0])


def brute_force_min_percolating(m, n):
    """(size, set) of the smallest percolating set by enumerating subsets with
    the naive engine, the set being the lexicographically least of that size."""
    cells = [(x, y) for x in range(1, m + 1) for y in range(1, n + 1)]
    for s in range(1, m * n + 1):
        for chosen in combinations(cells, s):
            if naive_percolates(m, n, chosen):
                return s, chosen
    return 0, ()


def brute_force_lattice_min_percolating(side, d, r):
    """(size, set) of the smallest set that percolates on [side]^d under
    threshold r, by closing every subset with the naive engine, the set being
    the lexicographically least of that size."""
    cells = list(product(range(1, side + 1), repeat=d))
    for s in range(1, len(cells) + 1):
        for chosen in combinations(cells, s):
            if len(naive_lattice_closure(side, d, r, chosen)) == len(cells):
                return s, chosen
    return 0, ()


def naive_rects(m, n, seeds):
    """The closure's 4-connected components as (lo, hi) bounding boxes, in
    (lo.x, lo.y) order.  On a 2-neighbour closure every component is a
    filled rectangle, so these are its maximal rectangles."""
    infected = naive_closure(m, n, seeds)
    seen, rects = set(), []
    for start in sorted(infected):
        if start in seen:
            continue
        seen.add(start)
        stack, comp = [start], []
        while stack:
            x, y = stack.pop()
            comp.append((x, y))
            for nb in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
                if nb in infected and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        xs, ys = [c[0] for c in comp], [c[1] for c in comp]
        rects.append(((min(xs), min(ys)), (max(xs), max(ys))))
    return sorted(rects)


def naive_render(m, n, seeds, glyph_on="#", glyph_off=".", glyph_closure="+",
                 show_closure=False, show_rects=False):
    """The picture ``minps.render`` draws, built cell by cell: row n first,
    seeds as ``glyph_on``, the rest of the closure (if shown) as
    ``glyph_closure``, then one line per closure rectangle (if shown)."""
    seeds = set(seeds)
    infected = naive_closure(m, n, seeds) if show_closure else set()
    lines = []
    for y in range(n, 0, -1):
        row = []
        for x in range(1, m + 1):
            if (x, y) in seeds:
                row.append(glyph_on)
            elif (x, y) in infected:
                row.append(glyph_closure)
            else:
                row.append(glyph_off)
        lines.append("".join(row))
    if show_rects:
        for (x0, y0), (x1, y1) in naive_rects(m, n, seeds):
            lines.append(f"rect ({x0},{y0})..({x1},{y1}) dim {x1 - x0 + 1}x{y1 - y0 + 1}")
    return "\n".join(lines)
