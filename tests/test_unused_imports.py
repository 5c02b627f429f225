"""No unused imports in ``src/``, checked with the standard library's
``ast`` (no linter is installed).

A name an import binds counts as used when the module reads it, lists it
in ``__all__`` (a re-export), or names it inside a string annotation
(``Optional["ExecConfig"]`` behind a ``TYPE_CHECKING`` import)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _names_in_strings(node):
    """Names read by the string annotations inside ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                tree = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(tree)
                      if isinstance(n, ast.Name)}
    return names


def unused_imports(source):
    """``(line, name)`` of every import binding ``source`` never uses."""
    imported = {}
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) \
                and node.annotation is not None:
            used |= _names_in_strings(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            used |= _names_in_strings(node.returns)
        elif isinstance(node, ast.Assign) \
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets):
            used |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_flags_unused_and_allows_reexports_and_annotations():
    source = (
        "from typing import TYPE_CHECKING, Dict, List, Optional\n"
        "import os.path\n"
        "from .a import exported, unused_helper\n"
        "if TYPE_CHECKING:\n"
        "    from .b import Config\n"
        "__all__ = ['exported']\n"
        "x: 'Optional[Config]' = None\n"
        "def f(y: 'Dict[str, int]') -> List[int]:\n"
        "    return [len(y)]\n")
    assert unused_imports(source) == [(2, "os"), (3, "unused_helper")]


def test_no_unused_imports_in_src():
    found = [f"{path.relative_to(SRC)}:{line}: {name}"
             for path in sorted(SRC.rglob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)
