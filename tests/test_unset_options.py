"""Every optional parameter of a public function or method of src/lforge is
set by some call.

A call sets a parameter when it passes it by keyword, or when it passes at
least as many positional arguments as reach it; a call with ``*args`` sets
every positional parameter and one with ``**kwargs`` every keyword.  Calls
are matched by the name they call (``f(...)``, ``obj.f(...)``, and a class
name for its ``__init__``) in src/lforge, demos, perfbench and tests.
Public means that neither the function nor its class has a leading
underscore; functions nested in other functions are not public, and
functions whose docstring says they are a test oracle are exempt.  A
parameter that stays without a setting caller needs an entry in ALLOWED
with its reason."""

import ast
import pathlib
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "lforge").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "demos").rglob("*.py")) + sorted(
    (ROOT / "perfbench").rglob("*.py")) + sorted(
    (ROOT / "tests").rglob("*.py"))

# "file:function.parameter" -> why the option stays although no call sets it
ALLOWED: dict[str, str] = {}


def _optional(fn, is_method):
    """(positional parameters after self/cls, the optional ones by name)."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if is_method and not any(getattr(d, "id", None) == "staticmethod"
                             for d in fn.decorator_list):
        positional = positional[1:]
    optional = {a.arg for a in positional[len(positional)
                                          - len(args.defaults):]}
    optional |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                 if d is not None}
    return [a.arg for a in positional], optional


def _public_functions(tree):
    """(qualified name, call name, def, is_method) for each public function
    and method of a module: top-level defs and defs directly in a public
    top-level class body (``__init__`` is called by its class name)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                if fn.name == "__init__":
                    yield f"{node.name}.__init__", node.name, fn, True
                elif not fn.name.startswith("_"):
                    yield f"{node.name}.{fn.name}", fn.name, fn, True


def _calls(node, cls=None):
    """(call name, call) for every call under node; ``cls(...)`` in a class
    body calls that class."""
    if isinstance(node, ast.ClassDef):
        cls = node.name
    if isinstance(node, ast.Call):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr",
                                                          None)
        if name == "cls" and cls:
            name = cls
        if name:
            yield name, node
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, cls)


def _settings(trees):
    """Call name -> list of (positional count, keywords, *args, **kwargs)."""
    out = defaultdict(list)
    for tree in trees:
        for name, n in _calls(tree):
            star = any(isinstance(a, ast.Starred) for a in n.args)
            out[name].append((
                sum(not isinstance(a, ast.Starred) for a in n.args),
                {k.arg for k in n.keywords if k.arg is not None},
                star,
                any(k.arg is None for k in n.keywords)))
    return out


def _unset(sources, callers) -> list[str]:
    calls = _settings(callers)
    out = []
    for file, tree in sources:
        for qual, name, fn, is_method in _public_functions(tree):
            doc = " ".join((ast.get_docstring(fn) or "").split()).lower()
            if "test oracle" in doc:
                continue
            positional, optional = _optional(fn, is_method)
            unset = set(optional)
            for npos, kws, star, dstar in calls.get(name, ()):
                if dstar:
                    unset.clear()
                    break
                reached = positional if star else positional[:npos]
                unset -= set(reached) | kws
            out += [f"{file}:{qual}.{p}" for p in sorted(unset)]
    return out


def _parsed(paths):
    return [(p.name, ast.parse(p.read_text(encoding="utf-8"))) for p in paths]


def test_every_optional_parameter_is_set_by_some_call():
    callers = _parsed(CALLERS)
    sources = _parsed(SOURCES)
    unset = [u for u in _unset(sources, [t for _, t in callers])
             if u not in ALLOWED]
    assert not unset, (
        "no call sets these optional parameters; drop them, or add an "
        "ALLOWED entry with the reason: " + ", ".join(unset))


def test_the_scan_sees_keywords_positions_and_star_arguments():
    planted = ast.parse(
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "class K:\n"
        "    def __init__(self, x=0):\n        pass\n"
        "    def m(self, y=0, z=0):\n        pass\n"
        "    @classmethod\n"
        "    def make(cls, w=0):\n        return cls(w)\n")
    sources = [("planted.py", planted)]

    def unset(calls):
        return _unset(sources, [planted, ast.parse(calls)])

    # K.make's cls(w) sets K.__init__'s x
    assert unset("f(0)\nK()\nk.m()") == [
        "planted.py:f.b", "planted.py:f.c", "planted.py:f.d",
        "planted.py:K.m.y", "planted.py:K.m.z", "planted.py:K.make.w"]
    assert unset("f(0, 1, d=4)\nk.m(z=1)") == [
        "planted.py:f.c", "planted.py:K.m.y", "planted.py:K.make.w"]
    assert unset("f(*a, d=1)\nk.m(*a)\nK.make(1)") == []
    assert unset("f(**o)\nk.m(**o)\nK.make(w=1)") == []
    assert _unset(sources, [ast.parse("f(*a, d=1)\nk.m(*a)\nK.make(1)")]) \
        == ["planted.py:K.__init__.x"]
