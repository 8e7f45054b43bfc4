"""Command-line front end.

Subcommands: construct, verify, search (--table: the max-MinPS table), render, bounds.
Exit codes: 0 success, 1 a verified property fails, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import sys

from .construct import (
    chain,
    corner_avoiding_strip,
    dense_minps,
    double,
    embed_corner_avoiding,
    glue,
    lattice_minps,
    simple_minps,
    size_bounds,
    strip_chain,
)
from .errors import BoundsError, DomainError, ResourceLimitError
from .grid import GridDims, LatticeDims, load_points, save_points
from .render import RenderOptions, render
from .search import SearchBudget, max_corner_avoiding, max_minps, min_percolating, monotonicity_table
from .verify import is_corner_avoiding_minps, is_minps


def _parse_params(pairs: list[str]) -> dict[str, int]:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise DomainError(f"--params expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        try:
            params[key.strip()] = int(value)
        except ValueError as exc:
            raise DomainError(f"--params value for {key!r} must be an integer") from exc
    return params


def _need(params: dict[str, int], *keys: str) -> list[int]:
    missing = [k for k in keys if k not in params]
    if missing:
        raise DomainError(f"missing --params {' '.join(k + '=<int>' for k in missing)}")
    return [params[k] for k in keys]


# family -> (the --params keys it needs, builder taking them in that order)
_FAMILIES = {
    "simple": (("m", "n"), simple_minps),
    "small": (("k",), corner_avoiding_strip),
    "glue": (("k1", "k2"),
             lambda k1, k2: glue(corner_avoiding_strip(k1), corner_avoiding_strip(k2))),
    "chain": (("k", "reps"), lambda k, reps: chain(corner_avoiding_strip(k), reps)),
    "double": (("k", "t"), lambda k, t: double(corner_avoiding_strip(k), t)),
    "justup": (("M", "N"), strip_chain),
    "lower": (("m", "n"), dense_minps),
    "cavreg": (("m", "n"), lambda m, n: embed_corner_avoiding(dense_minps(m, n))),
    "ddim": (("n", "d"), lattice_minps),
}


def _cmd_construct(args) -> int:
    keys, build = _FAMILIES[args.family]
    built = build(*_need(_parse_params(args.params), *keys))
    save_points(args.output, built.points)
    print(f"family={args.family} dims={built.dims} size={len(built)} "
          f"claim={built.claim} -> {args.output}")
    return 0


def _cmd_verify(args) -> int:
    ps = load_points(args.file)
    # a lattice set raises DomainError in is_corner_avoiding_minps
    verdict = (is_minps if args.property == "minps" else is_corner_avoiding_minps)(ps)
    witness = "-" if verdict.witness is None else f"({','.join(map(str, verdict.witness))})"
    print(f"property={args.property} holds={str(verdict.holds).lower()} "
          f"detail={verdict.detail} witness={witness}")
    return 0 if verdict.holds else 1


def _cmd_search(args) -> int:
    budget = SearchBudget(max_nodes=args.max_nodes, max_time=args.max_time, workers=args.workers)
    if args.target != "minperc" and args.r != 2:
        raise DomainError(f"--r applies to --target minperc only, got --r {args.r}")
    if args.table:
        if args.target != "E" or args.d_lattice is not None:
            raise DomainError("--table supports --target E on grids only")
        if args.dims is None:
            raise DomainError("--table requires --dims")
        max_m, max_n = args.dims
        table = monotonicity_table(max_m, max_n, budget)
        print("m\\n\t" + "\t".join(str(n) for n in range(1, max_n + 1)))
        for m in range(1, max_m + 1):
            print("\t".join([str(m)] + [str(table[(m, n)]) for n in range(1, max_n + 1)]))
        return 0
    if (args.d_lattice is None) == (args.dims is None):
        raise DomainError("search requires exactly one of --dims and --d-lattice")
    # a lattice raises DomainError in max_minps and max_corner_avoiding
    m, n = args.d_lattice or args.dims
    dims = LatticeDims(m, n) if args.d_lattice else GridDims(m, n)
    if args.target == "E":
        result = max_minps(dims, budget)
    elif args.target == "Ec":
        result = max_corner_avoiding(dims, budget)
    else:
        result = min_percolating(dims, budget, r=args.r)
    print(f"target={args.target} dims={dims} value={result.value} "
          f"exhaustive={str(result.exhaustive).lower()} nodes={result.nodes} "
          f"elapsed={result.elapsed:.3f}s")
    witness_file = "-"
    if args.witness_out:
        save_points(args.witness_out, result.witness)
        witness_file = args.witness_out
        print(f"witness -> {witness_file}")
    if args.append_results:
        with open(args.append_results, "a", encoding="utf-8") as fh:
            fh.write(f"{args.target}\t{m}\t{n}\t{result.value}\t"
                     f"{str(result.exhaustive).lower()}\t{witness_file}\n")
    return 0


def _cmd_render(args) -> int:
    ps = load_points(args.file)
    opts = RenderOptions(
        glyph_on=args.on,
        glyph_off=args.off,
        show_closure=args.closure,
        show_rects=args.rects,
    )
    print(render(ps, opts))
    return 0


def _cmd_bounds(args) -> int:
    m, n = args.dims
    lower, upper = size_bounds(m, n)
    print(f"dims={m}x{n} lower={lower} upper={upper} (~{float(upper):.2f})")
    return 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minps",
        description="Bootstrap percolation: constructions, verification, and exact search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named family and write a .pts file")
    p.add_argument("--family", required=True,
                   choices=list(_FAMILIES))
    p.add_argument("--params", nargs="*", default=[], metavar="key=value")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="certify a property of a .pts file")
    p.add_argument("--property", required=True, choices=["minps", "corner-avoiding"])
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="exhaustive extremal search")
    p.add_argument("--target", required=True, choices=["E", "Ec", "minperc"])
    p.add_argument("--dims", nargs=2, type=int, metavar=("M", "N"))
    p.add_argument("--d-lattice", nargs=2, type=int, metavar=("N", "D"))
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--max-nodes", type=int, default=SearchBudget().max_nodes)
    p.add_argument("--max-time", type=float, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--table", action="store_true",
                   help="print the exact-value table up to --dims instead")
    p.add_argument("--witness-out", default=None, metavar="FILE.pts")
    p.add_argument("--append-results", default=None, metavar="RESULTS.tsv")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("render", help="draw a .pts file as a character grid")
    p.add_argument("file")
    p.add_argument("--closure", action="store_true")
    p.add_argument("--rects", action="store_true")
    p.add_argument("--on", default="#")
    p.add_argument("--off", default=".")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("bounds", help="certified lower and proven upper size bounds")
    p.add_argument("--dims", nargs=2, type=int, required=True, metavar=("M", "N"))
    p.set_defaults(func=_cmd_bounds)

    return parser


def run(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DomainError, BoundsError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


main = run


if __name__ == "__main__":
    sys.exit(main())
