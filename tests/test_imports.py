"""Every name that a module of src/lforge or demos imports is read in that
module.

No linter runs on this repository, so this is its unused-import check.  A
name counts as read when it occurs as a loaded name (attributes hang off
one) or is listed in the module's ``__all__``.  An import whose line ends
in ``# noqa: F401`` is exempt: it is kept on purpose, for a caller that
reaches the name through the module."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "lforge").glob("*.py")) + sorted(
    (ROOT / "demos").rglob("*.py"))


def _unread_imports(name: str, text: str) -> list[str]:
    """"file:line name" for each name that text imports and never reads."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if lines[alias.lineno - 1].rstrip().endswith("# noqa: F401"):
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = alias.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    return [f"{name}:{line} {bound}" for bound, line in imported.items()
            if bound not in read]


def test_every_import_is_read():
    unread = [hit for path in MODULES for hit in _unread_imports(
        str(path.relative_to(ROOT)), path.read_text(encoding="utf-8"))]
    assert not unread, "imported and never read: " + ", ".join(unread)


def test_an_unread_import_is_seen():
    planted = ("from __future__ import annotations\n"
               "import math\n"
               "from . import ideals\n"
               "from .linalg import (\n"
               "    rank_mod,\n"
               "    rref_mod,\n"
               ")\n"
               "from .linalg import zeros_over  # noqa: F401\n"
               "__all__ = ['rref_mod']\n"
               "x = math.pi\n")
    assert _unread_imports("planted.py", planted) == [
        "planted.py:3 ideals", "planted.py:5 rank_mod"]
