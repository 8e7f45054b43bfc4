"""Module boundaries of the package: no ``minps`` module reaches into another
module's private (underscore) names, no function writes module state through
a ``global`` statement, no module keeps a ``functools`` cache, points
become flat indices in bulk, through ``cell_indices``, never one at a time
through ``cell_index``, the flat layout's axis masks are built in
``percolate`` alone, no other module reads ``axis_mask`` or ``counters``,
the pieces of its bitboard closures, ``operator.index`` is read only by
``errors.integer`` and ``grid._indexed``, the per-point fallback, and every
module parses under the grammar of Python 3.10, the package's floor."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "minps"


def _private_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    modules = set()  # local names bound to sibling modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "minps"
                                                 or (node.module or "").startswith("minps.")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{node.module or '.'}.{alias.name}")
                if not node.module or node.module == "minps":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("minps.") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_imports_private_names_of_another():
    offenders = {p.name: _private_imports(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_detects_private_imports(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .percolate import _close, closure\n"
        "from minps.search import _tables\n"
        "from . import verify\n"
        "verify._certify\n"
    )
    assert _private_imports(sample) == ["percolate._close", "minps.search._tables", "verify._certify"]


def _global_statements(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [name for node in ast.walk(tree) if isinstance(node, ast.Global) for name in node.names]


def test_no_function_writes_module_state():
    offenders = {p.name: _global_statements(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_detects_global_statements(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "_stop = None\n"
        "def init(stop):\n"
        "    global _stop\n"
        "    _stop = stop\n"
        "def f():\n"
        "    def g():\n"
        "        global a, b\n"
    )
    assert _global_statements(sample) == ["_stop", "a", "b"]


_CACHES = {"lru_cache", "cache"}


def _module_caches(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    modules = set()  # local names bound to ``functools``
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"functools.{a.name}" for a in node.names if a.name in _CACHES]
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr in _CACHES):
            found.append(f"functools.{node.attr}")
    return found


def test_no_module_keeps_a_cache():
    offenders = {p.name: _module_caches(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_detects_module_caches(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from functools import lru_cache, partial\n"
        "import functools\n"
        "import functools as ft\n"
        "@functools.lru_cache(maxsize=1)\n"
        "def f(): pass\n"
        "@ft.cache\n"
        "def g(): pass\n"
        "partial(f)\n"
    )
    assert sorted(_module_caches(sample)) == [
        "functools.cache", "functools.lru_cache", "functools.lru_cache"]


def _cell_index_uses(path: Path) -> list[int]:
    """Lines that name ``cell_index`` other than by defining it."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Name) and node.id == "cell_index")
                or (isinstance(node, ast.Attribute) and node.attr == "cell_index")):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            found += [node.lineno for a in node.names if a.name == "cell_index"]
    return sorted(found)


def test_points_are_indexed_in_bulk():
    offenders = {p.name: _cell_index_uses(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_detects_cell_index_uses(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .percolate import cell_index, cell_indices\n"
        "def cell_index(dims, p):\n"
        "    return cell_indices(dims, (p,))[0]\n"
        "idx = [cell_index(dims, p) for p in points]\n"
        "idx = list(map(partial(cell_index, dims), points))\n"
        "idx = percolate.cell_index(dims, p)\n"
    )
    assert _cell_index_uses(sample) == [1, 4, 5, 6]


def _mask_builders(path: Path) -> list[str]:
    """Functions named for axis masks, and ``int(..., 2)`` calls (a mask read
    off a binary string), with their lines."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and "axis_mask" in node.name:
            found.append(f"def {node.name}:{node.lineno}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "int"
              and len(node.args) == 2 and isinstance(node.args[1], ast.Constant)
              and node.args[1].value == 2):
            found.append(f"int(..., 2):{node.lineno}")
    return found


def test_axis_masks_are_built_in_percolate_alone():
    offenders = {p.name: _mask_builders(p) for p in sorted(SRC.glob("*.py"))}
    assert [f.split(":")[0] for f in offenders.pop("percolate.py")].count("def axis_mask") == 1
    assert {name: found for name, found in offenders.items() if found} == {}


def test_detects_mask_builders(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "def _axis_masks(size, stride, cells):\n"
        "    inner, edge = '1' * ((size - 1) * stride), '0' * stride\n"
        "    return int((inner + edge) * (cells // (size * stride)), 2)\n"
        "x = int('12', 10) + int(s)\n"
    )
    assert _mask_builders(sample) == ["def _axis_masks:1", "int(..., 2):3"]


_BOARD_PIECES = {"axis_mask", "counters"}


def _board_piece_uses(path: Path) -> list[str]:
    """``axis_mask`` and ``counters`` imported by name or read off a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [f"import {a.name}:{node.lineno}" for a in node.names if a.name in _BOARD_PIECES]
        elif isinstance(node, ast.Attribute) and node.attr in _BOARD_PIECES:
            found.append(f".{node.attr}:{node.lineno}")
    return sorted(found, key=lambda f: int(f.split(":")[1]))


def test_bitboard_closures_are_built_in_percolate_alone():
    offenders = {p.name: _board_piece_uses(p) for p in sorted(SRC.glob("*.py"))
                 if p.name != "percolate.py"}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_detects_board_piece_uses(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .percolate import axis_mask, cell_at\n"
        "from minps.percolate import counters as count\n"
        "from . import percolate\n"
        "reach = percolate.counters(masks, 2, board)\n"
        "counters = board_closure(dims)\n"
    )
    assert _board_piece_uses(sample) == ["import axis_mask:1", "import counters:2", ".counters:4"]


def _index_uses(path: Path) -> list[str]:
    """Imports and reads of ``operator.index``, as ``<function>:<line>``
    (``<module>`` outside every function)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "operator"}
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.module == "operator":
                found.extend(f"{where}:{child.lineno}" for a in child.names if a.name == "index")
            elif (isinstance(child, ast.Attribute) and child.attr == "index"
                  and isinstance(child.value, ast.Name) and child.value.id in modules):
                found.append(f"{where}:{child.lineno}")
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else where)

    visit(tree, "<module>")
    return found


def test_integers_are_checked_in_errors_alone():
    offenders = {p.name: _index_uses(p) for p in sorted(SRC.glob("*.py")) if p.name != "errors.py"}
    offenders["grid.py"] = [f for f in offenders["grid.py"] if not f.startswith("_indexed:")]
    assert {name: found for name, found in offenders.items() if found} == {}


def test_detects_index_uses(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from operator import add, index\n"
        "import operator\n"
        "import operator as op\n"
        "def f(x):\n"
        "    from operator import index as ix\n"
        "    return operator.index(x) + op.index(x)\n"
        "class A:\n"
        "    def g(self):\n"
        "        return self.index(1) + 'ab'.index('a') + add(1, 2)\n"
    )
    assert _index_uses(sample) == ["<module>:1", "f:5", "f:6", "f:6"]


def test_sources_parse_at_the_python_floor():
    # pyproject's requires-python >= 3.10; the parser checks syntax, not the library
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_the_floor_parse_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
