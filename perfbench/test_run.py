"""Smoke tests for the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_complete(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke"])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _smoke_questions(workload, tmp_path):
    import minps
    import minps.cli
    rng = random.Random(5)
    build = workloads.WORKLOADS[workload]
    return {q.name: q for q in build(minps, minps.cli, rng, True, str(tmp_path))}


def _check(question, answer):
    return question.check(answer, lambda key, value: None)


def test_checks_reject_wrong_answers(tmp_path):
    import minps

    tr = run.NullTracer()
    cert = _smoke_questions("certify", tmp_path)
    ok, plus, minus = cert["dense20"].ask(tr)
    assert _check(cert["dense20"], [ok, plus, minus]) == []
    assert _check(cert["dense20"], [minus, plus, minus])
    assert _check(cert["dense20"], [ok, plus, ok])
    assert _check(cert["dense20"], [ok, dataclasses.replace(plus, witness=minps.Point(20, 20)),
                                    minus])

    search = _smoke_questions("search", tmp_path)
    results = search["max_minps"].ask(tr)
    assert _check(search["max_minps"], results) == []
    wrong = dataclasses.replace(results[0], value=results[0].value + 1)
    assert _check(search["max_minps"], [wrong] + results[1:])
    truncated = dataclasses.replace(results[0], exhaustive=False)
    assert _check(search["max_minps"], [truncated] + results[1:])

    clo = _smoke_questions("closure", tmp_path)
    back, perc, cl, rects, pic = clo["grid0"].ask(tr)
    assert _check(clo["grid0"], (back, perc, cl, rects, pic)) == []
    assert _check(clo["grid0"], (back, not perc, cl, rects, pic))
    assert _check(clo["grid0"], (back, perc, cl, rects, pic[1:]))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
