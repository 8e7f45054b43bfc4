"""Benchmark for minps: one process, one worker, no threads, stdlib only.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Run from the repository root.  Each run sets up several times (fresh import
of ``minps`` from ``src/``, seeded input generation, warm-up of the closure
engines' tables) and reports the median set-up time.  It then asks the
workload's question list in passes until ``--seconds`` have gone by, with a
minimum number of passes.  Every answer is checked outside the timed region;
a wrong or raised answer counts as failed.

``--trace 0`` reports the end-to-end metrics, with tracing off.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced passes (medians over passes) plus the
tracing overhead: traced minus untraced median pass time.
``--smoke`` runs one pass of each kind on tiny inputs, for the tests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run context, the
per-question medians and the ROADMAP Baseline comparison go to the lines
before it and to ``.perfbench_out/``, as do the spans of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from spans import NullTracer, Tracer
from workloads import BASELINE, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MIN_PASSES = 3          # passes with --trace 0
MIN_TRACE_PASSES = 2    # untraced and traced passes, each, with --trace 1


def _setup(workload: str, seed: int, smoke: bool, work: Path):
    """Fresh import, seeded inputs and warm-up; returns (seconds, questions)."""
    t0 = time.perf_counter()
    for name in [k for k in sys.modules if k == "minps" or k.startswith("minps.")]:
        del sys.modules[name]
    mp = importlib.import_module("minps")
    cli = importlib.import_module("minps.cli")
    rng = random.Random(f"minps-bench/{workload}/{seed}")
    questions = WORKLOADS[workload](mp, cli, rng, smoke, str(work))
    return time.perf_counter() - t0, questions


def _run_pass(questions, tracer, pass_no: int, errors: list[str]) -> dict:
    """Ask every question once; time the asks, check the answers afterwards."""
    gc.collect()
    counts: dict[str, float] = defaultdict(float)

    def count(key: str, value: float) -> None:
        counts[key] += value

    wall = cpu = 0
    latencies = []
    failed = 0
    for q in questions:
        tracer.begin_question(pass_no, q.name)
        w0, c0 = time.perf_counter_ns(), time.process_time_ns()
        try:
            with tracer.span("question"):
                answer = q.ask(tracer)
        except Exception as exc:  # a raised answer is a failed question
            failed += 1
            errors.append(f"{q.name}: raised {type(exc).__name__}: {exc}")
            continue
        finally:
            c1, w1 = time.process_time_ns(), time.perf_counter_ns()
            wall += w1 - w0
            cpu += c1 - c0
            latencies.append((q.name, (w1 - w0) / 1e9))
        try:
            errs = q.check(answer, count)
        except Exception as exc:
            errs = [f"{q.name}: check raised {type(exc).__name__}: {exc}"]
        if errs:
            failed += 1
            errors.extend(errs)
    return {"wall_s": wall / 1e9, "cpu_s": cpu / 1e9, "latencies": latencies,
            "attempted": len(questions), "failed": failed, "counts": counts,
            "pass_no": pass_no}


def _passes(questions, tracers, seconds: float, min_rounds: int, errors) -> list[list[dict]]:
    """Run rounds of one pass per tracer, alternating them so that drift in
    machine speed hits each alike, while the next round is expected to end
    within ``seconds``.  Returns the passes of each tracer."""
    start = time.perf_counter()
    rounds: list[list[dict]] = []
    while len(rounds) < min_rounds or (
            time.perf_counter() - start + sum(p["wall_s"] for p in rounds[-1]) <= seconds):
        base = len(rounds) * len(tracers)
        rounds.append([_run_pass(questions, tr, base + i, errors)
                       for i, tr in enumerate(tracers)])
    return [list(col) for col in zip(*rounds)]


def _end_to_end(passes, setups) -> dict:
    lat = [s for p in passes for _, s in p["latencies"]]
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _layer_metrics(tracer: Tracer, p: dict) -> dict:
    self_s, calls = tracer.self_times(p["pass_no"])
    c = p["counts"]

    def layer(prefix: str) -> tuple[float, int]:
        keys = [k for k in calls if k.startswith(prefix + ".")]
        return sum((self_s[k] for k in keys), 0.0), sum(calls[k] for k in keys)

    perc_s, perc_n = layer("percolate")
    ver_s, ver_n = layer("verify")
    con_s, con_n = layer("construct")
    sea_s, sea_n = layer("search")
    ren_s, ren_n = layer("render")
    cli_s, cli_n = layer("cli")
    deletions = c["verify.deletions"]
    return {
        "grid.parse_s": (self_s["grid.parse_points"], "s"),
        "grid.format_s": (self_s["grid.format_points"], "s"),
        "grid.points": (c["grid.points"], "count"),
        "percolate.calls": (perc_n, "count"),
        "percolate.self_s": (perc_s, "s"),
        "percolate.rects_s": (self_s["percolate.closure_rects"], "s"),
        "percolate.generations": (c["percolate.generations"], "count"),
        "percolate.cells_swept": (c["percolate.cells_swept"], "count"),
        "verify.calls": (ver_n, "count"),
        "verify.self_s": (ver_s, "s"),
        "verify.deletions": (deletions, "count"),
        "verify.us_per_deletion": (ver_s / deletions * 1e6 if deletions else 0.0, "us"),
        "construct.calls": (con_n, "count"),
        "construct.self_s": (con_s, "s"),
        "construct.points_built": (c["construct.points_built"], "count"),
        "search.calls": (sea_n, "count"),
        "search.self_s": (sea_s, "s"),
        "search.nodes": (c["search.nodes"], "count"),
        "search.nodes_per_s": (c["search.nodes"] / sea_s if sea_s else 0.0, "1/s"),
        "search.exhaustive_ratio": (c["search.exhaustive"] / sea_n if sea_n else 0.0, "ratio"),
        "render.calls": (ren_n, "count"),
        "render.self_s": (ren_s, "s"),
        "render.chars": (c["render.chars"], "count"),
        "cli.calls": (cli_n, "count"),
        "cli.self_s": (cli_s, "s"),
        "cli.nonzero_exits": (c["cli.nonzero_exits"], "count"),
    }


def _per_layer(tracer: Tracer, traced, untraced) -> dict:
    per_pass = [_layer_metrics(tracer, p) for p in traced]
    out = {k: (statistics.median(m[k][0] for m in per_pass), unit)
           for k, (_, unit) in per_pass[0].items()}
    overhead = (statistics.median(p["wall_s"] for p in traced)
                - statistics.median(p["wall_s"] for p in untraced))
    out["trace.overhead_s"] = (overhead, "s")
    return out


def _baseline_lines(workload: str, tracer: Tracer, traced) -> list[str]:
    lines = []
    for label, question, span, index, base_s, key, base_count in BASELINE[workload]:
        t = statistics.median(tracer.span_seconds(p["pass_no"], question, span, index)
                              for p in traced)
        line = f"baseline {label}: measured {t:.4f} s (Baseline {base_s} s)"
        if key is not None:
            line += f", {traced[0]['counts'][key]:.0f} (Baseline {base_count})"
        lines.append(line)
    return lines


def _question_medians(passes) -> dict[str, float]:
    by_name: dict[str, list[float]] = defaultdict(list)
    for p in passes:
        for name, s in p["latencies"]:
            by_name[name].append(s)
    return {name: statistics.median(v) for name, v in by_name.items()}


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _run_context(root: Path) -> dict:
    src_lines = sum(len(f.read_text(encoding="utf-8").splitlines())
                    for f in sorted((root / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": _git_commit(root),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass of each kind on tiny inputs")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "minps" / "__init__.py").is_file():
        print(f"error: no minps package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    context = _run_context(ROOT)
    out_dir = ROOT / ".perfbench_out"
    work = out_dir / f"work-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    try:
        return _bench(args, context, out_dir, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(args, context: dict, out_dir: Path, work: Path) -> int:
    repeats, seconds = (1, 0.0) if args.smoke else (SETUP_REPEATS, args.seconds)
    setups = []
    for _ in range(repeats):
        questions = None    # let the previous set-up's inputs be collected first
        gc.collect()
        t, questions = _setup(args.workload, args.seed, args.smoke, work)
        setups.append(t)

    errors: list[str] = []
    tracer = Tracer()
    lines = [f"workload={args.workload} seed={args.seed} smoke={args.smoke} "
             f"questions/pass={len(questions)}",
             "context " + json.dumps(context)]
    if args.trace == 0:
        (passes,) = _passes(questions, [NullTracer()], seconds,
                            1 if args.smoke else MIN_PASSES, errors)
        metrics = _end_to_end(passes, setups)
        samples = sum(len(p["latencies"]) for p in passes)
        lines.append(f"passes={len(passes)} op_p50_ms over {samples} question samples")
        lines.append("pass wall_s " + " ".join(f"{p['wall_s']:.4f}" for p in passes))
        lines.append("setup_s " + " ".join(f"{t:.4f}" for t in setups))
    else:
        untraced, traced = _passes(questions, [NullTracer(), tracer], seconds,
                                   1 if args.smoke else MIN_TRACE_PASSES, errors)
        metrics = _per_layer(tracer, traced, untraced)
        if not args.smoke:    # the smoke inputs are not the Baseline table's
            lines += _baseline_lines(args.workload, tracer, traced)
        lines.append("untraced pass wall_s " + " ".join(f"{p['wall_s']:.4f}" for p in untraced))
        lines.append("traced pass wall_s " + " ".join(f"{p['wall_s']:.4f}" for p in traced))
        lines.append(f"spans={len(tracer.spans)}")
        passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    lines.append(f"error_rate={failed / attempted:.6f} ({failed} of {attempted} questions)")
    for name, s in _question_medians(passes).items():
        if not name.startswith(("grid", "cube")):
            lines.append(f"question {name}: median {s * 1e3:.3f} ms")
    for name, (value, unit) in metrics.items():
        lines.append(f"metric {name} = {value:.6g} {unit}")
    lines += [f"error: {e}" for e in errors[:20]]

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    if args.trace:
        tracer.write(out_dir / f"{stem}-spans.jsonl")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "context": context, "report": lines, "errors": errors,
                   "setups_s": setups,
                   "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "latencies")}
                              for p in passes], **result},
                  fh)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
