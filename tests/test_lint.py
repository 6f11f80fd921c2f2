"""Static checks on the package source."""

import ast
from pathlib import Path

import fracpme

SOURCES = sorted(Path(fracpme.__file__).resolve().parent.glob("*.py"))


def _parameters(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    a = fn.args
    names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
    names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    return names


def _reads(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names loaded anywhere in the body, nested functions included."""
    return {
        node.id
        for stmt in fn.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def unused_parameters(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if fn.name.startswith("__") and fn.name.endswith("__"):
            continue
        reads = _reads(fn)
        found += [f"{path.name}:{fn.lineno} {fn.name}({name})" for name in _parameters(fn) if name not in reads]
    return found


def test_every_parameter_is_read():
    assert {p.name for p in SOURCES} >= {"grid.py", "riesz.py", "evolve.py", "harness.py"}
    unused = [entry for path in SOURCES for entry in unused_parameters(path)]
    assert unused == []


def test_check_sees_an_unread_parameter(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "def f(a, b, *rest, c=1, **kw):\n"
        "    def inner():\n"
        "        return b + c + len(kw)\n"
        "    return inner()\n"
        "class K:\n"
        "    def __init__(self, unused):\n"
        "        pass\n",
        encoding="utf-8",
    )
    assert unused_parameters(src) == ["sample.py:1 f(a)", "sample.py:1 f(rest)"]
