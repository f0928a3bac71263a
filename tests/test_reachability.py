"""Every function and method of src/lforge has a caller outside the tests.

A name counts as used when it occurs, as a name, an attribute, an imported
name or a whole string constant, in src/lforge, demos or perfbench (not
perfbench/tests) outside the body of its own definition.  The check goes
by name only, so a function that shares its name with a used one passes.
Dunder methods are exempt, as are experiments registered with
``@experiment`` (the registry calls them) and functions whose docstring
says they are a test oracle."""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "lforge").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "demos").rglob("*.py")) + sorted(
    p for p in (ROOT / "perfbench").rglob("*.py")
    if "tests" not in p.relative_to(ROOT / "perfbench").parts)


def _names(node) -> Counter:
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.rsplit(".", 1)[-1]] += 1
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and n.value.isidentifier()):
            out[n.value] += 1
    return out


def _exempt(fn) -> bool:
    name = fn.name
    if name.startswith("__") and name.endswith("__"):
        return True
    if any(isinstance(d, ast.Call) and getattr(d.func, "id", None) ==
           "experiment" for d in fn.decorator_list):
        return True
    doc = " ".join((ast.get_docstring(fn) or "").split())
    return "test oracle" in doc.lower()


def test_every_function_has_a_caller_outside_the_tests():
    used = Counter()
    defined = []
    for path in CALLERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used += _names(tree)
        if path in SOURCES:
            defined += [(path.name, n) for n in ast.walk(tree)
                        if isinstance(n, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))]
    assert defined
    unreached = [f"{file}:{fn.lineno} {fn.name}" for file, fn in defined
                 if not _exempt(fn)
                 and used[fn.name] - _names(fn)[fn.name] <= 0]
    assert not unreached, (
        "only tests reach these; delete them, or say 'test oracle' in the "
        "docstring of one a test needs: " + ", ".join(unreached))
