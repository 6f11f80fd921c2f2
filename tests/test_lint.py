"""Static checks on the package source."""

import ast
from pathlib import Path

import fracpme

SOURCES = sorted(Path(fracpme.__file__).resolve().parent.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


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


def _is_record(cls: ast.ClassDef) -> bool:
    """A dataclass, or a typing.NamedTuple class."""
    return any(
        (isinstance(d, ast.Name) and d.id == "dataclass")
        or (isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass")
        for d in cls.decorator_list
    ) or any(
        (isinstance(b, ast.Name) and b.id == "NamedTuple") or (isinstance(b, ast.Attribute) and b.attr == "NamedTuple")
        for b in cls.bases
    )


def _attribute_reads(tree: ast.AST) -> set[str]:
    """Attribute names loaded anywhere: x.name, or getattr(x, "name")."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            reads.add(node.args[1].value)
    return reads


def unread_fields(package: list[Path], readers: list[Path]) -> list[str]:
    """Annotated fields of the dataclasses and NamedTuple classes in package
    whose name no file of package or readers loads as an attribute."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in {*package, *readers}}
    reads = set().union(*(_attribute_reads(tree) for tree in trees.values()))
    found = []
    for path in package:
        for cls in ast.walk(trees[path]):
            if not (isinstance(cls, ast.ClassDef) and _is_record(cls)):
                continue
            found += [
                f"{cls.name}.{stmt.target.id}"
                for stmt in cls.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id not in reads
            ]
    return found


def test_every_dataclass_field_is_read():
    assert any(p.name == "test_lint.py" for p in TESTS)
    assert unread_fields(SOURCES, TESTS) == []


def test_check_sees_an_unread_field(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "import typing\n"
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    kept: float\n"
        "    named: int\n"
        "    unread: str\n"
        "@dataclass\n"
        "class B:\n"
        "    also_unread: float = 0.0\n"
        "class Plain:\n"
        "    ignored: float\n"
        "class C(typing.NamedTuple):\n"
        "    tuple_kept: float\n"
        "    tuple_unread: float\n"
        "def use(a, c):\n"
        "    return a.kept, getattr(a, 'named'), c.tuple_kept\n",
        encoding="utf-8",
    )
    reader = tmp_path / "reader.py"
    reader.write_text("def f(b):\n    b.unread = 1\n", encoding="utf-8")  # a store is no read
    assert unread_fields([src], [reader]) == ["A.unread", "B.also_unread", "C.tuple_unread"]


def uncalled_private_functions(package: list[Path]) -> list[str]:
    """Module-level functions and methods named _name, and every method of
    a class named _name, that no file of package loads, by name or as an
    attribute. Dunder methods are left out."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in package}
    loads = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.add(node.attr)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for path, tree in trees.items():
        defs = [(fn, fn.name, fn.name.startswith("_")) for fn in tree.body if isinstance(fn, functions)]
        defs += [
            (fn, f"{cls.name}.{fn.name}", cls.name.startswith("_") or fn.name.startswith("_"))
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, functions)
        ]
        found += [
            f"{path.name}:{fn.lineno} {name}"
            for fn, name, private in sorted(defs, key=lambda d: d[0].lineno)
            if private and not fn.name.endswith("__") and fn.name not in loads
        ]
    return found


def test_every_private_function_is_called():
    assert uncalled_private_functions(SOURCES) == []


def test_check_sees_an_uncalled_private_function(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "def _called():\n"
        "    return 1\n"
        "def _by_attribute():\n"
        "    return 2\n"
        "def _uncalled():\n"
        "    return 3\n"
        "def public():\n"
        "    def _nested():\n"
        "        return 0\n"
        "    return _called()\n"
        "class K:\n"
        "    def __init__(self):\n"
        "        self._called_method()\n"
        "    def _called_method(self):\n"
        "        return 0\n"
        "    def _method(self):\n"
        "        return 0\n"
        "class _Private:\n"
        "    def __init__(self):\n"
        "        self.used()\n"
        "    def used(self):\n"
        "        return 0\n"
        "    def unused(self):\n"
        "        return 0\n",
        encoding="utf-8",
    )
    reader = tmp_path / "reader.py"
    reader.write_text("import sample\nvalue = sample._by_attribute()\n", encoding="utf-8")
    assert uncalled_private_functions([src, reader]) == [
        "sample.py:5 _uncalled",
        "sample.py:16 K._method",
        "sample.py:23 _Private.unused",
    ]


KEPT_STORES = ("kept", "_cache")


def hand_kept_values(path: Path) -> list[str]:
    """Stores into, and .get or .setdefault calls on, an attribute named
    kept or _cache: the keep rule written out by hand, not through grid.keep."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            target = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in ("get", "setdefault"):
            target = node.func.value
        else:
            continue
        if isinstance(target, ast.Attribute) and target.attr in KEPT_STORES:
            found.append((node.lineno, f"{path.name}:{node.lineno} {target.attr}"))
    return [entry for _, entry in sorted(found)]


def test_every_kept_value_goes_through_keep():
    assert [entry for path in SOURCES for entry in hand_kept_values(path)] == []


def test_check_sees_a_hand_kept_value(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "def f(rho, ws, other, key):\n"
        "    rho.kept[key] = 1\n"
        "    out = ws._cache.get(key)\n"
        "    ws._cache[key] = rho.kept[key]\n"
        "    keep(rho.kept, key, lambda: out)\n"
        "    other.cache[key] = other.kept\n"
        "    return rho.kept.setdefault(key, 3)\n",
        encoding="utf-8",
    )
    assert hand_kept_values(src) == ["sample.py:2 kept", "sample.py:3 _cache", "sample.py:4 _cache", "sample.py:7 kept"]
