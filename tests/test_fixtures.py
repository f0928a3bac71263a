import os

import pytest

from lforge import fixtures
from lforge.experiments import _l_plane_spec
from lforge.fields import GF
from lforge.linalg import rank_over
from lforge.mpoly import coefficient_vector
from lforge.textio import data_lines
from lforge.unipoly import UniPoly

F17 = GF(17)


def test_n0_shape_and_entries():
    M = fixtures.n0_matrix(F17)
    assert len(M) == 10 and all(len(r) == 6 for r in M)
    assert M[0] == [F17.of(v) for v in (0, 0, -1, -2, 0, 0)]
    assert M[6] == [F17.of(v) for v in (-1, 0, 1, 1, 1, 1)]
    assert M[9] == [F17.of(v) for v in (-1, 0, 0, 1, 0, 0)]
    assert rank_over(F17, M) == 6


def test_nlambda_specializes_to_n0():
    P = fixtures.nlambda_matrix(F17)
    N0 = fixtures.n0_matrix(F17)
    for i in range(10):
        for j in range(6):
            assert isinstance(P[i][j], UniPoly)
            assert P[i][j](0) == N0[i][j]


def test_nlambda_linear_terms():
    P = fixtures.nlambda_matrix(F17)
    assert P[0][1] == UniPoly(F17, [0, 1])
    assert P[0][2] == UniPoly(F17, [-1, -2])
    assert P[5][5] == UniPoly(F17, [0, 2])
    assert P[7][0] == UniPoly(F17, [1, 2])
    assert all(e.degree <= 1 for row in P for e in row)


def test_nlambda_entries_match_the_fixture_text():
    # oracle: each token of the fixture file, evaluated by Python at
    # L = 0..16, against the parsed entry at lambda = L
    with open(os.path.join(fixtures.FIXTURE_DIR, "nlambda.txt")) as fh:
        rows = [line.split() for line in data_lines(fh.read())]
    P = fixtures.nlambda_matrix(F17)
    for row, toks in zip(P, rows, strict=True):
        for e, tok in zip(row, toks, strict=True):
            assert e.var == "lambda"
            for a in range(17):
                assert e(a) == eval(tok, {"L": a}) % 17


def test_catalecticant_p2():
    A = fixtures.catalecticant_p2_cubics(F17)
    assert len(A) == 3 and all(len(r) == 6 for r in A)
    R = A[0][0].ring
    a = R.gens()
    assert A[0][0] == 3 * a[0]
    assert A[0][3] == 2 * a[3]
    assert A[1][4] == a[9]
    assert A[2][2] == 3 * a[2]


def test_catalecticant_p3():
    A = fixtures.catalecticant_p3_quadrics(F17)
    assert len(A) == 4 and all(len(r) == 4 for r in A)
    # symmetric
    for i in range(4):
        for j in range(4):
            assert A[i][j] == A[j][i]


def test_l_plane_forms():
    spec = _l_plane_spec(F17)
    R = spec.ambient_ring
    assert R.names == fixtures.P3Q_NAMES
    forms = spec.center_forms()
    assert all(f.is_homogeneous() == 1 for f in forms)
    variables = [R.code.var(i) for i in range(R.nvars)]
    assert [coefficient_vector(f, variables) for f in forms] == \
        [[F17.of(c) for c in row] for row in fixtures.L_PLANE_ROWS]
    assert rank_over(F17, [list(r) for r in fixtures.L_PLANE_ROWS]) == 7


def test_digest_mismatch_detected(tmp_path, monkeypatch):
    bad = tmp_path / "n0.txt"
    bad.write_text("0 0 0 0 0 0\n" * 10)
    monkeypatch.setattr(fixtures, "FIXTURE_DIR", str(tmp_path))
    with pytest.raises(fixtures.FixtureError):
        fixtures.n0_matrix(F17)


def test_importing_the_graded_modules_leaves_hashlib_unloaded():
    # hashlib loads OpenSSL, about 3 MB of RSS; veronese imports fixtures,
    # so fixtures takes hashlib only when it reads a fixture
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(fixtures.__file__))
    script = ("import sys\n"
              "import lforge.rao, lforge.veronese\n"
              "print('_hashlib' in sys.modules)\n"
              "lforge.fixtures.n0_matrix()\n"
              "print('_hashlib' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["False", "True"]
