import shlex
import tracemalloc
from pathlib import Path

import pytest

from minps import (
    GridDims,
    LatticeSet,
    PointSet,
    is_corner_avoiding_minps,
    is_minps,
    load_points,
    render,
    save_points,
)
from minps.cli import _make_parser, run


def test_construct_then_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "a.pts"
    assert run(["construct", "--family", "small", "--params", "k=1", "-o", str(out)]) == 0
    assert run(["verify", "--property", "corner-avoiding", str(out)]) == 0
    loaded = load_points(out)
    assert is_corner_avoiding_minps(loaded).holds
    assert "holds=true" in capsys.readouterr().out


def test_verify_failure_exits_one(tmp_path, capsys):
    bad = PointSet(GridDims(2, 2), frozenset({(1, 1), (1, 2), (2, 1), (2, 2)}))
    path = tmp_path / "bad.pts"
    save_points(path, bad)
    assert run(["verify", "--property", "minps", str(path)]) == 1
    out = capsys.readouterr().out
    assert "holds=false" in out and "witness=(1,1)" in out


def test_search_prints_exact_value(capsys):
    assert run(["search", "--target", "E", "--dims", "3", "3"]) == 0
    out = capsys.readouterr().out
    assert "value=4" in out and "exhaustive=true" in out


def test_search_results_cache_and_witness(tmp_path, capsys):
    witness = tmp_path / "w.pts"
    results = tmp_path / "results.tsv"
    rc = run([
        "search", "--target", "E", "--dims", "4", "3",
        "--witness-out", str(witness), "--append-results", str(results),
    ])
    assert rc == 0
    row = results.read_text().strip().split("\t")
    assert row == ["E", "4", "3", "4", "true", str(witness)]
    assert is_minps(load_points(witness)).holds


def test_search_lattice_minperc(capsys):
    assert run(["search", "--target", "minperc", "--d-lattice", "2", "3"]) == 0
    assert "value=3" in capsys.readouterr().out


def test_render_matches_library(tmp_path, capsys):
    out = tmp_path / "a.pts"
    run(["construct", "--family", "small", "--params", "k=1", "-o", str(out)])
    capsys.readouterr()
    assert run(["render", str(out)]) == 0
    assert capsys.readouterr().out.rstrip("\n") == render(load_points(out))


def test_table_subcommand(capsys):
    assert run(["search", "--target", "E", "--dims", "4", "2", "--table"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("m\\n")
    assert lines[3].split("\t") == ["3", "2", "3"]


def test_readme_commands_parse():
    # every command in README's "Command line" block names a command and flags that exist
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv[1:] for argv in lines if argv[:1] == ["minps"]]
    assert commands
    parser = _make_parser()
    for argv in commands:
        assert parser.parse_args(argv).func


def test_bounds_subcommand(capsys):
    assert run(["bounds", "--dims", "3", "3"]) == 0
    out = capsys.readouterr().out
    assert "lower=4" in out and "upper=25/6" in out


@pytest.mark.parametrize(
    "family,params",
    [
        ("simple", ["m=5", "n=4"]),
        ("glue", ["k1=1", "k2=1"]),
        ("chain", ["k=1", "reps=2"]),
        ("double", ["k=1", "t=1"]),
        ("justup", ["M=2", "N=1"]),
        ("lower", ["m=12", "n=12"]),
        ("cavreg", ["m=4", "n=4"]),
    ],
)
def test_construct_families(tmp_path, family, params, capsys):
    out = tmp_path / "x.pts"
    assert run(["construct", "--family", family, "--params", *params, "-o", str(out)]) == 0
    assert len(load_points(out)) > 0


def test_construct_ddim_and_lattice_verify(tmp_path, capsys):
    out = tmp_path / "cube.pts"
    assert run(["construct", "--family", "ddim", "--params", "n=8", "d=3", "-o", str(out)]) == 0
    assert run(["verify", "--property", "minps", str(out)]) == 0
    assert run(["verify", "--property", "corner-avoiding", str(out)]) == 2


def test_lattice_verify_prints_witness(tmp_path, capsys):
    good = tmp_path / "cube.pts"
    assert run(["construct", "--family", "ddim", "--params", "n=8", "d=3", "-o", str(good)]) == 0
    cube = load_points(good)
    bad = tmp_path / "plus.pts"
    save_points(bad, LatticeSet(cube.dims, cube.points | {(1, 5, 1)}))
    capsys.readouterr()
    assert run(["verify", "--property", "minps", str(good)]) == 0
    assert "holds=true detail=ok witness=-" in capsys.readouterr().out
    assert run(["verify", "--property", "minps", str(bad)]) == 1
    assert "holds=false detail=redundant-point witness=(1,4,1)" in capsys.readouterr().out


@pytest.mark.parametrize("header", ["dims a 3", "ldims 3 x"])
def test_verify_malformed_header_exits_two(tmp_path, capsys, header):
    path = tmp_path / "bad.pts"
    path.write_text(f"{header}\n1 1\n")
    assert run(["verify", "--property", "minps", str(path)]) == 2
    assert "error: line 1" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", [["verify", "--property", "minps"], ["render"]])
def test_non_utf8_file_exits_two(tmp_path, capsys, cmd):
    path = tmp_path / "bad.pts"
    path.write_bytes(b"dims 2 2\n1 1\xff\n")
    assert run(cmd + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.pts" in err and "not UTF-8" in err
    assert "Traceback" not in err


def test_usage_errors_exit_two(capsys, tmp_path):
    assert run(["search", "--target", "nope", "--dims", "2", "2"]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["construct", "--family", "small", "-o", str(tmp_path / "x.pts")]) == 2
    assert run(["verify", "--property", "minps", str(tmp_path / "missing.pts")]) == 2


def test_search_missing_dims(capsys):
    assert run(["search", "--target", "E"]) == 2


def test_search_table_flag(capsys):
    assert run(["search", "--target", "E", "--dims", "3", "2", "--table"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("m\\n")


@pytest.mark.parametrize("extra", [["--target", "minperc", "--dims", "3", "2"],
                                   ["--target", "Ec", "--dims", "3", "2"],
                                   ["--target", "E", "--dims", "3", "2", "--d-lattice", "2", "3"]])
def test_search_table_flag_needs_grid_max_minps(extra, capsys):
    # the table holds exact max-MinPS values only
    assert run(["search", *extra, "--table"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--table" in captured.err


@pytest.mark.parametrize("target", ["E", "Ec"])
@pytest.mark.parametrize("r", ["5", "0"])
def test_search_rejects_r_for_maximisation_targets(target, r, capsys):
    # only minperc takes a threshold; E and Ec are 2-neighbour grid targets
    assert run(["search", "--target", target, "--dims", "3", "3", "--r", r]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--r" in captured.err


def test_search_rejects_nan_time(capsys):
    assert run(["search", "--target", "E", "--dims", "3", "3", "--max-time", "nan"]) == 2
    assert "budget" in capsys.readouterr().err


def test_render_checks_the_cell_cap(tmp_path, capsys, monkeypatch):
    path = tmp_path / "big.pts"
    path.write_text("dims 20 20\n1 1\n")
    monkeypatch.setenv("MINPS_CELL_CAP", "100")
    assert run(["render", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "cap" in captured.err


@pytest.mark.parametrize("params", [["--family", "small", "--params", "k=100"],
                                    ["--family", "double", "--params", "k=1", "t=6"],
                                    ["--family", "cavreg", "--params", "m=2", "n=4"]])
def test_construct_checks_the_cell_cap(tmp_path, capsys, monkeypatch, params):
    out = tmp_path / "big.pts"
    monkeypatch.setenv("MINPS_CELL_CAP", "100")
    assert run(["construct", *params, "-o", str(out)]) == 2
    assert not out.exists()
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["search", "--target", "E", "--dims", "0", "3", "--table"],
                                  ["search", "--target", "E", "--table", "--dims", "-1", "2"]])
def test_table_rejects_empty_sizes(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "max_m" in captured.err


@pytest.mark.parametrize("argv,code,text", [
    (["construct", "--family", "simple", "--params", "m3", "n=3"], 2, "key=value"),
    (["construct", "--family", "simple", "--params", "m=x", "n=3"], 2, "integer"),
    (["search", "--target", "E", "--table"], 2, "--table requires --dims"),
    (["search", "--target", "E", "--d-lattice", "2", "3"], 2, "max_minps needs a 2D grid"),
    (["search", "--target", "Ec", "--d-lattice", "2", "3"], 2,
     "max_corner_avoiding needs a 2D grid"),
    (["search", "--target", "Ec", "--dims", "4", "4"], 0, "value=4"),
    (["search", "--target", "minperc", "--dims", "3", "3"], 0, "value=3"),
    (["search", "--target", "E", "--table", "--dims", "4", "4", "--max-nodes", "10"], 2,
     "budget exhausted on 1x4"),
    (["search", "--target", "minperc", "--d-lattice", "2", "2", "--dims", "3", "3"], 2,
     "exactly one of --dims and --d-lattice"),
], ids=["params-no-equals", "params-not-int", "table-no-dims", "lattice-E", "lattice-Ec",
        "grid-Ec", "grid-minperc", "table-budget", "dims-and-lattice"])
def test_search_and_construct_branches(argv, code, text, tmp_path, capsys):
    out = tmp_path / "a.pts"
    if argv[0] == "construct":
        argv = [*argv, "-o", str(out)]
    assert run(argv) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and captured.err.startswith("error:") and text in captured.err
        assert not out.exists()
    else:
        assert text in captured.out


def test_search_caps_the_lattice_dim_first(capsys):
    # [1]^30000000 has one cell, but unchecked its 30M axes run for about 20 s at 710 MB
    tracemalloc.start()
    try:
        code = run(["search", "--target", "minperc", "--d-lattice", "1", "30000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and "axes, over the cell cap" in capsys.readouterr().err
    assert peak < 2**20


def test_main_is_run():
    import minps.cli

    assert minps.cli.main is run
