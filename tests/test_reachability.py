"""Every function and method of src/lforge has a caller outside the tests.

A function counts as used when its name occurs, as a name, an attribute, an
imported name or a whole string constant, in src/lforge, demos or perfbench
(not perfbench/tests) outside the body of its own definition.  A method (a
def directly in a class body) counts as used only through an attribute or a
string constant, so a module function of the same name does not hide it.
Dunder methods are exempt, as are experiments registered with
``@experiment`` (the registry calls them).  Code that only the tests use
belongs in tests/oracles.py, not in src/lforge.

That check goes by name only, so a test-only method that shares its name
with a used one would pass it.  So every name that several definitions in
src/lforge share is in REACHED, which lists, for each such name, the
definitions a caller outside the tests reaches; a definition of a shared
name that REACHED lacks fails, and so does an entry that no longer names a
shared definition."""

import ast
import pathlib
from collections import Counter, defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "lforge").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "demos").rglob("*.py")) + sorted(
    p for p in (ROOT / "perfbench").rglob("*.py")
    if "tests" not in p.relative_to(ROOT / "perfbench").parts)


# name -> the definitions of that name ("file:Class.method", "file:function"
# or "file:function.nested") that a caller outside the tests reaches
REACHED: dict[str, tuple[str, ...]] = {
    "_check": ("mpoly.py:MPoly._check", "unipoly.py:UniPoly._check"),
    # UniPoly.__call__ adds through the field, over Q too
    "add": ("fields.py:PrimeField.add", "fields.py:RationalField.add",
            "groebner.py:_Pairs.add"),
    "as_dict": ("linkage.py:LinkStep.as_dict",
                "linkage.py:BilinkReport.as_dict"),
    "check": ("experiments.py:Report.check", "snf.py:SNFResult.check"),
    "degree": ("hilbert.py:HilbertData.degree", "mpoly.py:MPoly.degree",
               "unipoly.py:UniPoly.degree"),
    "dim": ("hilbert.py:HilbertData.dim", "rao.py:RaoModule.dim"),
    "from_text": ("pfaffian.py:SkewMatrix.from_text",
                  "snf.py:PolyMatrix.from_text"),
    "inv": ("fields.py:PrimeField.inv", "fields.py:RationalField.inv"),
    "is_homogeneous": ("ideals.py:Ideal.is_homogeneous",
                       "mpoly.py:MPoly.is_homogeneous"),
    "is_zero": ("fields.py:PrimeField.is_zero",
                "fields.py:RationalField.is_zero", "mpoly.py:MPoly.is_zero",
                "unipoly.py:UniPoly.is_zero"),
    "lc": ("mpoly.py:MPoly.lc", "unipoly.py:UniPoly.lc"),
    "monic": ("mpoly.py:MPoly.monic", "unipoly.py:UniPoly.monic"),
    "mul": ("fields.py:PrimeField.mul", "fields.py:RationalField.mul",
            "snf.py:PolyMatrix.mul"),
    "neg": ("fields.py:PrimeField.neg", "fields.py:RationalField.neg"),
    "of": ("fields.py:PrimeField.of", "fields.py:RationalField.of"),
    "one": ("mpoly.py:PolynomialRing.one", "unipoly.py:UniPoly.one"),
    "random": ("fields.py:PrimeField.random",
               "fields.py:RationalField.random"),
    "random_nonzero": ("fields.py:PrimeField.random_nonzero",
                       "fields.py:RationalField.random_nonzero"),
    "scale": ("mpoly.py:MPoly.scale", "unipoly.py:UniPoly.scale"),
    "to_text": ("experiments.py:Report.to_text", "rao.py:BettiTable.to_text"),
    "var": ("mpoly.py:PolynomialRing.var", "orders.py:MonomialCode.var"),
    "zero": ("mpoly.py:PolynomialRing.zero", "unipoly.py:UniPoly.zero"),
}


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
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) ==
               "experiment" for d in fn.decorator_list)


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


def _definitions(file, tree):
    """("file:qualified name", def) for every function, method and nested
    function of a module."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{file}:{prefix}{child.name}", child
                yield from walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)
    yield from walk(tree, "")


def _unlisted(sources, reached) -> list[str]:
    """The definitions in ``sources`` of a name that several of them share
    and that ``reached`` does not list, then the entries of ``reached``
    that name no such definition."""
    shared = defaultdict(list)
    for file, tree in sources:
        for qual, fn in _definitions(file, tree):
            if not _exempt(fn):
                shared[fn.name].append(qual)
    shared = {name: defs for name, defs in shared.items() if len(defs) > 1}
    out = [d for name, defs in shared.items() for d in defs
           if d not in reached.get(name, ())]
    out += [d for name, defs in reached.items() for d in defs
            if d not in shared.get(name, ())]
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
        "only tests reach these; delete them, or move one a test needs to "
        "tests/oracles.py: " + ", ".join(unreached))


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


def test_every_shared_name_lists_its_reached_definitions():
    sources = _parsed(SOURCES)
    unlisted = _unlisted(sources, REACHED)
    assert not unlisted, (
        "these definitions share a name with another one, so the name check "
        "cannot tell whether a caller outside the tests reaches them; list "
        "the reached ones in REACHED, and delete the rest or move them to "
        "tests/oracles.py: " + ", ".join(unlisted))


def test_a_test_only_method_of_a_shared_name_is_seen():
    # MPoly.degree and Report.to_text are used, so the name check passes
    # test-only methods named degree and to_text; the table check does not,
    # whatever their docstrings say
    planted = ast.parse("class Planted:\n    def degree(self):\n        pass\n"
                        "    def to_text(self):\n"
                        "        \"\"\"Test oracle.\"\"\"\n")
    sources = _parsed(SOURCES) + [("planted.py", planted)]
    callers = [tree for _, tree in sources]
    assert _unreached([("planted.py", planted)], callers) == []
    assert sorted(_unlisted(sources, REACHED)) == [
        "planted.py:Planted.degree", "planted.py:Planted.to_text"]
    # an entry whose definition is gone is stale
    stale = dict(REACHED, degree=REACHED["degree"] + ("gone.py:Gone.degree",))
    assert _unlisted(_parsed(SOURCES), stale) == ["gone.py:Gone.degree"]
