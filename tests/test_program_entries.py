"""Every function and method of src/lforge is entered when the program runs.

The program is every registered experiment over GF(17) at its default
seed, ``unique-cubic`` over Q, each command of the CLI, the five demos and
the benchmark workloads that are not experiments (``snf-pencil`` and
``linalg-betti``).  It runs in a fresh interpreter under ``sys.setprofile``,
so functions run at import time count, and a definition counts as entered
when a frame of its code starts, matched by file and first line (a
decorated function's code starts at its first decorator).  Unlike
tests/test_reachability.py, which goes by name, a test-only method that
shares its name with a used one cannot pass.  Dunder methods are exempt;
ALLOWED names each definition that only inputs outside this run reach, and
an entry that the run does enter fails as a stale one does.

``python tests/test_program_entries.py OUT`` writes the entered (file,
line) pairs to OUT as JSON."""

import ast
import contextlib
import io
import json
import os
import pathlib
import runpy
import subprocess
import sys
import tempfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lforge"

# "file:qualified name" -> the input that enters it, which this run lacks
ALLOWED: dict[str, str] = {
    "fields.py:RationalField.add":
        "UniPoly.__call__ over Q: a Q pencil evaluated at a point, as the "
        "benchmark's rank oracle evaluates a GF(17) one",
    "ideals.py:intersect":
        "a link whose first colon ci : (f) fails the residual check, so "
        "that linkage.residual_quotient intersects it with a second draw's, "
        "or the saturation fallback after five uncertified draws",
    "unipoly.py:_pth_root":
        "the squarefree decomposition of a polynomial with a zero "
        "derivative, as snf.unipoly_factor_ff((lambda + 1)^17) over GF(17) "
        "makes",
}

TWISTED_CUBIC = ("x*z - y^2", "x*w - y*z", "y*w - z^2")
RING = "ring R vars x y z w field {} order {}\n"


def _definitions():
    """(file, first line) -> "file:qualified name" for every function,
    method and nested function of src/lforge but the dunders."""
    out = {}

    def walk(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                if not (child.name.startswith("__")
                        and child.name.endswith("__")):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    out[str(path), first] = f"{path.name}:{qual}"
                walk(path, child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                walk(path, child, f"{prefix}{child.name}.")
            else:
                walk(path, child, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(path, ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def _run_program(tmp):
    """Run every part of the program once, writing files under tmp."""
    from lforge.cli import main
    from lforge.experiments import REGISTRY

    def run(*argv):
        # 1 is a report check that reads FAIL by design
        assert main(list(argv)) in (0, 1), argv

    def write(name, text):
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    for name in sorted(REGISTRY):
        run("run", name, "--allow-long")
    run("run", "unique-cubic", "--field", "qq", "--allow-long")
    cfg = write("lforge.cfg", f"[defaults]\nseed = 0\nout = {tmp}\n\n"
                              "[gamma-tangent]\nseed = 1\n")
    run("run", "gamma-tangent", "--out", tmp, "--config", cfg)
    run("list")
    # an inhomogeneous file with a fraction and parentheses, in lex order,
    # and a weighted order over Q
    run("gb", write("inhomogeneous.txt", RING.format("GF(17)", "lex")
                    + "x^2 - 1/2*y\n(x + y)*z - w + 1\nx*z - w^2\n"))
    run("gb", write("qq.txt", RING.format("QQ", "weighted(1,2,3,4)")
                    + "1/2*x*z - y^2\nx*w - 3*y*z\n"))
    gf17 = RING.format("GF(17)", "grevlex")
    run("link", write("cubic.txt", gf17 + "\n".join(TWISTED_CUBIC)),
        write("ci.txt", gf17 + "\n".join(TWISTED_CUBIC[:2])))
    run("pfaffian", write("skew.txt", "4\n" + gf17
                          + "x\ny\nz\nw\nx + y\nz + w\n"))
    mat = write("mat.txt", "2 2 lambda\n1\nlambda^2 + 1\nlambda + 2\n"
                           "lambda\n")
    run("snf", mat)
    run("snf", mat, "--field", "qq")

    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for op in workloads.snf_pencil(1) + workloads.linalg_betti(1):
        op.call()


def _entered(out_path):
    """Run the program under sys.setprofile and write the (file, first
    line) of every src/lforge code that started to out_path."""
    src = str(SRC)
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(src):
                seen.add((code.co_filename, code.co_firstlineno))

    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            _run_program(tmp)
        finally:
            sys.setprofile(None)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(sorted(seen), fh)


@pytest.mark.slow
def test_every_definition_is_entered_by_the_program(tmp_path):
    out = tmp_path / "entered.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, __file__, str(out)], env=env,
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    entered = {(f, line) for f, line in json.loads(out.read_text())}
    defs = _definitions()
    never = sorted(qual for key, qual in defs.items()
                   if key not in entered and qual not in ALLOWED)
    assert not never, ("the program never enters these; move them to "
                       "tests/oracles.py or delete them: " + ", ".join(never))
    stale = sorted(set(ALLOWED) - set(defs.values()))
    assert not stale, "ALLOWED names no such definition: " + ", ".join(stale)
    reached = sorted(qual for key, qual in defs.items()
                     if key in entered and qual in ALLOWED)
    assert not reached, ("the program enters these; drop them from "
                         "ALLOWED: " + ", ".join(reached))


if __name__ == "__main__":
    _entered(sys.argv[1])
