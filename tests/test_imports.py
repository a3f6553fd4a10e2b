"""Every name a module of the package imports with `from ... import` is used
in that module.  `__init__` is skipped: its imports are the public names."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "hermkq"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name
                imported[name] = f"{name} (line {node.lineno})"
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names inside string annotations such as "PolySRing | None"
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.returns]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted(where for name, where in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = ("from .linalg import Mat, invert\nfrom .rings import Ring\n\n"
              "def f(m) -> \"Ring\":\n    return Mat.identity(m, 'invert')\n")
    assert unused_imports(source) == ["invert (line 1)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_from_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
