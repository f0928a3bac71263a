"""Every optional parameter of a public function or method of src/lforge is
set by some call.

A call sets a parameter when it passes it by keyword, or when it passes at
least as many positional arguments as reach it; a call with ``*args`` sets
every positional parameter and one with ``**kwargs`` every keyword.  Calls
are matched by the name they call (``f(...)``, ``obj.f(...)``, and a class
name for its ``__init__``) in src/lforge, demos, perfbench and tests.
Public means that neither the function nor its class has a leading
underscore; functions nested in other functions are not public.  A
parameter that stays without a setting caller needs an entry in ALLOWED
with its reason.

The second check is that an option takes more than one value: a parameter
fails when the calls in src/lforge, demos and perfbench (not perfbench/tests)
all leave it at one literal value (a constant passed the same at every
call, or the literal default where no call passes it), unless ALLOWED says
why.  A call with ``*args`` or ``**kwargs`` counts as passing an unknown
value."""

import ast
import pathlib
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "lforge").glob("*.py"))
DEMOS = sorted((ROOT / "demos").rglob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").rglob("*.py"))
PROGRAM = SOURCES + DEMOS + [
    p for p in PERFBENCH
    if "tests" not in p.relative_to(ROOT / "perfbench").parts]
CALLERS = SOURCES + DEMOS + PERFBENCH + sorted((ROOT / "tests").rglob("*.py"))

# "file:function.parameter" -> why the option stays although no call sets it
# or every call leaves it at one value
ALLOWED: dict[str, str] = {
    "cli.py:main.argv": "the console entry point calls main() and reads "
                        "sys.argv; the tests pass their own argument lists",
    "rao.py:RaoModule.from_projection.kmax":
        "the benchmark's linalg-betti workload passes kmax=4 by keyword and "
        "reads grades 0..4 through hilbert_values(range(5)); the tests build "
        "shorter modules with kmax=3",
    "rao.py:RaoModule.__init__.shift":
        "from_projection's modules start at internal grade 2 (shift=2); the "
        "modules the tests build by hand start at grade 0",
}


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


def _passed(call, param, positional, defaults):
    """The repr of the literal value a call gives param, or None when that
    value is not a literal or cannot be told (a ``*args`` or ``**kwargs``
    call)."""
    kws = {k.arg: k.value for k in call.keywords}
    if None in kws or any(isinstance(a, ast.Starred) for a in call.args):
        return None
    at = positional.index(param) if param in positional else len(call.args)
    node = (kws[param] if param in kws
            else call.args[at] if at < len(call.args) else defaults[param])
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        return None


def _one_value(sources, callers) -> list[str]:
    """The optional parameters that every call in ``callers`` leaves at one
    literal value."""
    calls = defaultdict(list)
    for tree in callers:
        for name, n in _calls(tree):
            calls[name].append(n)
    out = []
    for file, tree in sources:
        for qual, name, fn, is_method in _public_functions(tree):
            if not calls.get(name):
                continue
            positional, optional = _optional(fn, is_method)
            args = fn.args
            defaults = dict(zip(positional[len(positional)
                                           - len(args.defaults):],
                                args.defaults))
            defaults.update((a.arg, d) for a, d in zip(args.kwonlyargs,
                                                        args.kw_defaults))
            for param in sorted(optional):
                values = {_passed(n, param, positional, defaults)
                          for n in calls[name]}
                if len(values) == 1 and None not in values:
                    out.append(f"{file}:{qual}.{param}")
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


def test_no_optional_parameter_has_only_one_value_in_use():
    sources = _parsed(SOURCES)
    one = [u for u in _one_value(sources, [t for _, t in _parsed(PROGRAM)])
           if u not in ALLOWED]
    assert not one, (
        "every call leaves these optional parameters at one literal value; "
        "make them constants, or add an ALLOWED entry with the reason: "
        + ", ".join(one))


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


def test_the_one_value_scan_sees_literals_defaults_and_stars():
    planted = ast.parse(
        "def g(a, b=1, c=None, *, d='x'):\n    pass\n"
        "class K:\n"
        "    def __init__(self, x=0):\n        pass\n"
        "    def m(self, y=2):\n        pass\n")
    sources = [("planted.py", planted)]

    def one(calls):
        return _one_value(sources, [planted, ast.parse(calls)])

    # b is 1 passed or not, d and x keep their defaults, y is always 3; c
    # once takes an expression
    assert one("g(0)\ng(1, 1)\ng(2, 1, c=h)\nK()\nK(x=0)\nk.m(3)\nk.m(y=3)") \
        == ["planted.py:g.b", "planted.py:g.d", "planted.py:K.__init__.x",
            "planted.py:K.m.y"]
    # a second value, a negative literal, or a star call stops the finding
    assert one("g(0, 2)\ng(*a)\nK(-1)\nK()\nk.m(**o)") == []
