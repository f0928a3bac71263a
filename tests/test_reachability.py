"""Every function and method of src/lforge has a caller outside the tests.

A function counts as used when its name occurs, as a name, an attribute, an
imported name or a whole string constant, in src/lforge, demos or perfbench
(not perfbench/tests) outside the body of its own definition.  A method (a
def directly in a class body) counts as used only through an attribute or a
string constant, so a module function of the same name does not hide it.
The check goes by name only, so a method that shares its name with a used
method passes.  Dunder methods are exempt, as are experiments registered with
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


def _names(node) -> tuple[Counter, Counter]:
    """Uses by bare or imported name, and uses through an attribute or a
    string constant."""
    bare, attr = Counter(), Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            bare[n.id] += 1
        elif isinstance(n, ast.alias):
            bare[n.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(n, ast.Attribute):
            attr[n.attr] += 1
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and n.value.isidentifier()):
            attr[n.value] += 1
    return bare, attr


def _exempt(fn) -> bool:
    name = fn.name
    if name.startswith("__") and name.endswith("__"):
        return True
    if any(isinstance(d, ast.Call) and getattr(d.func, "id", None) ==
           "experiment" for d in fn.decorator_list):
        return True
    doc = " ".join((ast.get_docstring(fn) or "").split())
    return "test oracle" in doc.lower()


def _unreached(sources, callers) -> list[str]:
    """The functions and methods defined in ``sources`` ((file name, tree)
    pairs) that no tree in ``callers`` uses outside their own body."""
    bare, attr = Counter(), Counter()
    for tree in callers:
        b, a = _names(tree)
        bare += b
        attr += a
    out = []
    for file, tree in sources:
        methods = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for n in c.body}
        for fn in ast.walk(tree):
            if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or _exempt(fn)):
                continue
            own_bare, own_attr = _names(fn)
            uses = attr[fn.name] - own_attr[fn.name]
            if id(fn) not in methods:
                uses += bare[fn.name] - own_bare[fn.name]
            if uses <= 0:
                out.append(f"{file}:{fn.lineno} {fn.name}")
    return out


def _parsed(paths):
    return [(p.name, ast.parse(p.read_text(encoding="utf-8"))) for p in paths]


def test_every_function_has_a_caller_outside_the_tests():
    callers = _parsed(CALLERS)
    sources = [(name, tree) for (name, tree), path in zip(callers, CALLERS)
               if path in SOURCES]
    assert sources
    unreached = _unreached(sources, [tree for _, tree in callers])
    assert not unreached, (
        "only tests reach these; delete them, or say 'test oracle' in the "
        "docstring of one a test needs: " + ", ".join(unreached))


def test_a_method_is_not_hidden_by_a_function_of_its_name():
    # unipoly.gcd is used by name in src/lforge; a method of that name that
    # only tests call is still unreached
    planted = ast.parse("class Planted:\n    def gcd(self):\n        pass\n")
    callers = [tree for _, tree in _parsed(CALLERS)] + [planted]
    assert _unreached([("planted.py", planted)], callers) == [
        "planted.py:2 gcd"]
    # the same name as a module function stays used
    planted = ast.parse("def gcd():\n    pass\n")
    assert _unreached([("planted.py", planted)], callers + [planted]) == []
