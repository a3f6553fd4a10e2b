"""Every name a module of the package imports with `from ... import` is used
in that module.  `__init__` is skipped: its imports are the public names.
And every name a module of the package defines at module level is named
somewhere else in the package, the tests or the benchmark."""

import ast
import collections
import pathlib
import re

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "hermkq"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = PACKAGE.parents[1]


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


def _words(text: str) -> collections.Counter:
    return collections.Counter(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))


def _without(source: str, nodes) -> str:
    """The source with the lines of the given nodes blanked."""
    lines = source.splitlines()
    for node in nodes:
        lines[node.lineno - 1:node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    return "\n".join(lines)


def _definitions(tree) -> list:
    """(name, node) for each module-level function, class and assignment."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return out


def unnamed_definitions(sources: dict) -> list[str]:
    """The module-level names defined in `sources` (package module name ->
    text; the other keys are the tests and the benchmark) that no text
    names outside their own definition.  The re-exports of `__init__` do
    not count as uses."""
    texts = dict(sources)
    init = "hermkq/__init__.py"
    if init in texts:
        texts[init] = _without(texts[init], [
            n for n in ast.parse(texts[init]).body if isinstance(n, ast.ImportFrom)])
    words = collections.Counter()
    for text in texts.values():
        words.update(_words(text))
    out = []
    for module in sources:
        if not module.startswith("hermkq/"):
            continue
        lines = texts[module].splitlines()
        for name, node in _definitions(ast.parse(texts[module])):
            own = _words("\n".join(lines[node.lineno - 1:node.end_lineno]))[name]
            if words[name] - own <= 0:
                out.append(f"{module}:{node.lineno} {name}")
    return out


def test_the_check_finds_a_name_nothing_uses():
    sources = {
        "hermkq/a.py": "_CACHE: dict = {}\nLIMIT = 4\n\ndef f(x):\n    return f(x) + LIMIT\n",
        "hermkq/__init__.py": "from .a import f\n",
        "tests/t.py": "import hermkq\n",
    }
    assert unnamed_definitions(sources) == ["hermkq/a.py:1 _CACHE", "hermkq/a.py:4 f"]


def test_every_module_level_name_is_used():
    sources = {f"hermkq/{p.name}": p.read_text(encoding="utf-8")
               for p in PACKAGE.glob("*.py")}
    for folder in ("tests", "perfbench"):
        sources.update({f"{folder}/{p.name}": p.read_text(encoding="utf-8")
                        for p in (ROOT / folder).glob("*.py")})
    assert unnamed_definitions(sources) == []
