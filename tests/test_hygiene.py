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
