"""Source hygiene checks that need no tool beyond the standard library."""

import ast
from pathlib import Path

import svmv

SRC = Path(svmv.__file__).resolve().parent


def _unread_imports(tree: ast.Module) -> list[str]:
    """Names an ``import`` binds in ``tree`` that no expression reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in read]


def _foreign_private_reads(tree: ast.Module) -> list[str]:
    """Reads of a ``_``-prefixed attribute, other than through ``self`` or
    ``cls``, that no code in ``tree`` defines by a ``def``, a ``class`` or
    an assignment to a name or an attribute.  Dunders are Python's own."""
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    reads = sorted(
        (node.lineno, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_") and not node.attr.endswith("__")
        and node.attr not in defined
        and not (isinstance(node.value, ast.Name)
                 and node.value.id in ("self", "cls")))
    return [f"line {line}: {name}" for line, name in reads]


def test_src_modules_use_every_import():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    unread = {path.name: _unread_imports(ast.parse(path.read_text()))
              for path in modules}
    assert {name: names for name, names in unread.items() if names} == {}


def test_an_unread_import_is_caught():
    tree = ast.parse("import os\nfrom json import dumps, loads\n"
                     "from x import y as z\nprint(dumps, os.sep)\n")
    assert _unread_imports(tree) == ["line 2: loads", "line 3: z"]


def test_src_modules_read_no_other_modules_private_attributes():
    reads = {path.name: _foreign_private_reads(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in reads.items() if found} == {}


def test_a_foreign_private_read_is_caught():
    tree = ast.parse(
        "import m\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self._own = self._unset\n"
        "    def _helper(self, other):\n"
        "        return other._own, other._helper, m._table, m.__name__\n"
        "_LOCAL = m._entry(A()._cache)\n")
    assert _foreign_private_reads(tree) == [
        "line 6: _table", "line 7: _cache", "line 7: _entry"]
