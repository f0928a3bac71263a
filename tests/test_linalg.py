import ast
import hashlib
from fractions import Fraction
from pathlib import Path
from itertools import combinations

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import GF as SympyGF
from sympy.polys.matrices import DomainMatrix

import lforge
from lforge import linalg
from lforge.fields import GF, QQ

P = 17
STORAGE = linalg.zeros_over(GF(P), (0, 0)).dtype


def rand_matrix(rng, rows, cols, p=P):
    return rng.integers(0, p, size=(rows, cols), dtype=np.int64)


# -- mod p ------------------------------------------------------------


def test_rref_known():
    A = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    R, pivots = linalg.rref_mod(A, P)
    assert pivots == [0, 1]
    assert R[0].tolist() == [1, 0, 1]
    assert R[1].tolist() == [0, 1, 1]
    assert not R[2].any()


def test_rank_vs_rref():
    rng = np.random.default_rng(0)
    for _ in range(20):
        A = rand_matrix(rng, rng.integers(1, 8), rng.integers(1, 8))
        assert linalg.rank_mod(A, P) == len(linalg.rref_mod(A, P)[1])


def test_nullspace_is_kernel():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        A = rand_matrix(rng, m, n)
        N = linalg.nullspace_mod(A, P)
        assert N.shape[1] == n - linalg.rank_mod(A, P)
        assert not ((A @ N) % P).any()
        if N.shape[1]:
            assert linalg.rank_mod(N.T, P) == N.shape[1]


def _setdiff_kernel(A, p):
    """Reference for _kernel_mod: its free columns by np.setdiff1d, on the
    RREF widened to int64 (a negated narrow residue would wrap)."""
    M, pivots = linalg.rref_mod(A, p)
    M = M.astype(np.int64)
    cols = M.shape[1]
    free = np.setdiff1d(np.arange(cols), pivots)
    basis = np.zeros((cols, free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[np.asarray(pivots, dtype=np.intp)] = -M[:len(pivots), free] % p
    return basis, free


@pytest.mark.parametrize("rows, cols, rank", [
    (0, 5, 0), (5, 0, 0), (4, 6, 0), (5, 5, 5), (3, 7, 3), (6, 9, 2)])
def test_kernel_free_columns_match_setdiff(rows, cols, rank):
    rng = np.random.default_rng(rows * 10 + cols)
    A = rand_matrix(rng, rows, rank) @ rand_matrix(rng, rank, cols) % P
    assert linalg.rank_mod(A, P) == rank
    K, free = linalg._kernel_mod(A, P)
    K_ref, free_ref = _setdiff_kernel(A, P)
    assert free.dtype == free_ref.dtype and free.tolist() == free_ref.tolist()
    for N in (K, linalg.nullspace_mod(A, P)):
        assert N.dtype == STORAGE and N.shape == K_ref.shape
        assert (N == K_ref).all()
    assert (K[free] == np.eye(free.size, dtype=np.int64)).all()


def test_solve_consistent_and_inconsistent():
    A = [[1, 1], [1, 16]]
    x = linalg.solve_mod(A, [2, 0], P)
    assert x.tolist() == [1, 1]
    # rank 1 system with incompatible rhs
    B = [[1, 1], [2, 2]]
    assert linalg.solve_mod(B, [1, 3], P) is None
    x = linalg.solve_mod(B, [1, 2], P)
    assert (np.array([1, 1]) @ x) % P == 1


def test_solve_matrix_rhs():
    rng = np.random.default_rng(2)
    A = rand_matrix(rng, 5, 5)
    while linalg.rank_mod(A, P) < 5:
        A = rand_matrix(rng, 5, 5)
    B = rand_matrix(rng, 5, 3)
    X = linalg.solve_mod(A, B, P)
    assert X.dtype == STORAGE
    assert ((A @ X - B) % P == 0).all()


def test_det_known():
    assert linalg.det_mod([[2, 0], [0, 3]], P) == 6
    assert linalg.det_mod([[1, 2], [2, 4]], P) == 0
    assert linalg.det_mod([[0, 1], [1, 0]], P) == P - 1


def test_det_multiplicative():
    rng = np.random.default_rng(3)
    for _ in range(15):
        A = rand_matrix(rng, 4, 4)
        B = rand_matrix(rng, 4, 4)
        dAB = linalg.det_mod((A @ B) % P, P)
        assert dAB == linalg.det_mod(A, P) * linalg.det_mod(B, P) % P


def cof_det(M, p):
    n = len(M)
    if n == 1:
        return M[0][0] % p
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        s = 1 if j % 2 == 0 else -1
        total += s * M[0][j] * cof_det(minor, p)
    return total % p


def test_det_vs_cofactor_expansion():
    rng = np.random.default_rng(4)
    for _ in range(10):
        A = rand_matrix(rng, 4, 4)
        assert linalg.det_mod(A, P) == cof_det(A.tolist(), P)


def test_det_vs_cofactor_expansion_below_2_31():
    # a product of two residues of 2^31 - 1 is near 2^62: det_mod's own
    # int64 loop, not the narrow storage dtype, keeps it exact
    p = 2**31 - 1
    rng = np.random.default_rng(5)
    for _ in range(10):
        A = rand_matrix(rng, 4, 4, p)
        assert linalg.det_mod(A, p) == cof_det(A.tolist(), p)


def test_rank_rectangular_bounds():
    rng = np.random.default_rng(6)
    A = rand_matrix(rng, 3, 10)
    assert linalg.rank_mod(A, P) <= 3
    assert linalg.rank_mod(A.T, P) == linalg.rank_mod(A, P)


# -- oracle: sympy's DomainMatrix over GF(p) --------------------------

W = linalg._PANEL


def sympy_rref(A: np.ndarray, p: int):
    """(R, pivots) from sympy, with entries in [0, p)."""
    rows, cols = A.shape
    K = SympyGF(p)
    dM = DomainMatrix([[K(int(x)) for x in row] for row in A], (rows, cols), K)
    R, pivots = dM.to_sparse().rref()
    dense = np.zeros((rows, cols), dtype=np.int64)
    for i, row in enumerate(R.to_list()):
        dense[i] = [int(x) % p for x in row]
    return dense, list(pivots)


def draw_matrix(rng, rows, cols, p, kind):
    A = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
    if kind == "sparse":
        A *= rng.random((rows, cols)) < 0.05
    elif kind == "low-rank":
        k = int(rng.integers(0, 6))
        B = rng.integers(0, p, size=(rows, k), dtype=np.int64)
        C = rng.integers(0, p, size=(k, cols), dtype=np.int64)
        # Python-int products: p can exceed the int64 range of a product
        A = np.array((B.astype(object) @ C.astype(object)) % p, dtype=np.int64)
    return A


@settings(max_examples=60, deadline=None)
# 251 | 257 and 65521 | 65537 straddle the uint8 and uint16 storage, and
# 509 | 521 the float32 panel product (64 (p-1)^2 < 2^24)
@given(p=st.sampled_from([2, 17, 251, 257, 509, 521, 32003, 65521, 65537,
                          2**31 - 1]),
       rows=st.sampled_from([0, 1, 5, 20, W + 3]),
       cols=st.sampled_from([0, 1, W - 1, W, W + 1, 3 * W + 5]),
       kind=st.sampled_from(["dense", "sparse", "low-rank"]),
       seed=st.integers(0, 2**32 - 1))
@example(p=17, rows=0, cols=3 * W + 5, kind="dense", seed=0)
@example(p=17, rows=7, cols=0, kind="dense", seed=0)
@example(p=2**31 - 1, rows=20, cols=3 * W + 5, kind="dense", seed=1)
@example(p=17, rows=W + 3, cols=3 * W + 5, kind="sparse", seed=2)
@example(p=251, rows=W + 3, cols=3 * W + 5, kind="dense", seed=3)
@example(p=257, rows=W + 3, cols=3 * W + 5, kind="low-rank", seed=4)
@example(p=509, rows=W + 3, cols=3 * W + 5, kind="dense", seed=5)
@example(p=521, rows=W + 3, cols=3 * W + 5, kind="dense", seed=6)
@example(p=65521, rows=20, cols=3 * W + 5, kind="dense", seed=7)
@example(p=65537, rows=20, cols=3 * W + 5, kind="low-rank", seed=8)
def test_rref_rank_nullspace_match_sympy(p, rows, cols, kind, seed):
    A = draw_matrix(np.random.default_rng(seed), rows, cols, p, kind)
    R_ref, piv_ref = sympy_rref(A, p)
    R, pivots = linalg.rref_mod(A, p)
    assert R.dtype == linalg.zeros_over(GF(p), (0, 0)).dtype
    assert R.shape == (rows, cols)
    assert pivots == piv_ref
    assert (R == R_ref).all()
    assert linalg.rank_mod(A, p) == len(piv_ref)
    N = linalg.nullspace_mod(A, p)
    free = [c for c in range(cols) if c not in piv_ref]
    N_ref = np.zeros((cols, len(free)), dtype=np.int64)
    for j, f in enumerate(free):
        N_ref[f, j] = 1
        for i, c in enumerate(piv_ref):
            N_ref[c, j] = -R_ref[i, f] % p
    assert N.shape == N_ref.shape and (N == N_ref).all()


def test_rref_pinned_sparse_matrix():
    # digest recorded with the unblocked elimination this one replaced
    rng = np.random.default_rng(400600)
    A = rng.integers(0, 17, size=(400, 600)) * (rng.random((400, 600)) < 0.05)
    R, pivots = linalg.rref_mod(A, 17)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(R, dtype="<i8").tobytes())
    h.update(np.asarray(pivots, dtype="<i8").tobytes())
    assert h.hexdigest() == (
        "c57ea08c4eb3d94c814d716e6969a39a2efc4b40b18c7b47f7ce65f3be5cd80d")


@settings(max_examples=25, deadline=None)
@given(p=st.sampled_from([2, 17, 251, 65537, None]),
       r=st.sampled_from([0, 1, W - 1, W, W + 1, 2 * W + 1]),
       rest=st.sampled_from([0, 1, 9]), targets=st.sampled_from([0, 1, 7]),
       seed=st.integers(0, 2**32 - 1))
@example(p=None, r=2 * W + 1, rest=9, targets=7, seed=0)
@example(p=2, r=W, rest=9, targets=7, seed=1)
@example(p=17, r=2 * W + 1, rest=9, targets=7, seed=2)
@example(p=251, r=W + 1, rest=1, targets=7, seed=3)
@example(p=65537, r=2 * W + 1, rest=9, targets=7, seed=4)
def test_reduce_mod_matches_the_kernel(p, r, rest, targets, seed):
    # T modulo the rows of R = [A | B], A unit upper triangular, against
    # the quotient by R's row space that _kernel_mod gives: its free columns
    # are those past A, and a row t has coordinates t K on them; over Q, A
    # is sparse, so that the entries of A^-1 stay small
    rng = np.random.default_rng(seed)

    def draw(shape, density=1.0 if p else 0.1):
        lo, hi = (0, p) if p else (-2, 3)
        return rng.integers(lo, hi, size=shape) * (rng.random(shape)
                                                   < density)

    A = np.triu(draw((r, r)), 1) + np.eye(r, dtype=np.int64)
    R, T = np.hstack([A, draw((r, rest))]), draw((targets, r + rest))
    K, free = linalg._kernel_mod(R, p)
    assert free.tolist() == list(range(r, r + rest))
    want = T.astype(object) @ K.astype(object)
    got = linalg.reduce_mod(linalg._as_array(R, p), linalg._as_array(T, p), p)
    assert got.tolist() == (want % p if p else want).tolist()


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 17, 251, 257, 509, 521, 65537, 2**31 - 1]),
       rows=st.sampled_from([1, 5, W, 4 * W]),
       kind=st.sampled_from(["dense", "sparse", "low-rank"]),
       seed=st.integers(0, 2**32 - 1))
# tall dense panels: every later pivot row was updated by the earlier ones
@example(p=17, rows=4 * W, kind="dense", seed=0)
@example(p=509, rows=4 * W, kind="dense", seed=1)
@example(p=65537, rows=4 * W, kind="sparse", seed=2)
def test_panel_pass_inverse(p, rows, kind, seed):
    # one panel as rref_mod hands it over: rref_mod's panel width, which is
    # one column at p = 2^31 - 1
    w = 1 if p == 2**31 - 1 else W
    A = draw_matrix(np.random.default_rng(seed), rows, w, p, kind)
    M = linalg._as_array(A, p)
    J, I, inv = linalg._eliminate(M, p, inverse=True)
    # the same pass as without the inverse
    M_ref = linalg._as_array(A, p)
    J_ref, I_ref, empty = linalg._eliminate(M_ref, p)
    assert empty.shape == (len(J_ref), 0)
    assert J == J_ref and I.tolist() == I_ref.tolist()
    assert (M == M_ref).all()
    # A^-1, with its columns in the order of the pivot rows I
    k = len(J)
    assert inv.shape == (k, k)
    assert (linalg.matmul_mod(inv, A[np.ix_(I, J)], p)
            == np.eye(k, dtype=np.int64)).all()


def test_rref_one_elimination_pass_per_panel(monkeypatch):
    # panels 0, 2 and 3 hold pivots and panel 1 is zero: one pass each
    A = rand_matrix(np.random.default_rng(8), 3 * W + 10, 3 * W + 5)
    A[:, W:2 * W] = 0
    passes = []
    eliminate = linalg._eliminate

    def counted(M, p, *args, **kwargs):
        passes.append(M.shape)
        return eliminate(M, p, *args, **kwargs)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    R, pivots = linalg.rref_mod(A, P)
    assert [shape[1] for shape in passes] == [W, W, 5]
    assert pivots == list(range(W)) + list(range(2 * W, 3 * W + 5))
    assert (R == sympy_rref(A, P)[0]).all()


# -- rationals --------------------------------------------------------


def test_frac_rref_and_rank():
    A = [[1, 2], [3, 4], [4, 6]]
    assert linalg.rank_over(QQ, A) == 2
    M, pivots = linalg.rref_mod(A, None)
    assert pivots == [0, 1]
    assert M.tolist() == [[1, 0], [0, 1], [0, 0]]
    assert all(type(x) is Fraction for x in M.flat)


def test_frac_nullspace_and_solve():
    A = [[1, 2, 3], [4, 5, 6]]
    K = linalg.nullspace_over(QQ, A)
    assert K.shape == (3, 1)
    assert K[:, 0].tolist() == [1, -2, 1]
    assert not (np.array(A, dtype=object) @ K).any()
    x = linalg.solve_over(QQ, [[2, 0], [0, 4]], [1, 1])
    assert x.tolist() == [Fraction(1, 2), Fraction(1, 4)]
    assert linalg.solve_over(QQ, [[1, 1], [1, 1]], [0, 1]) is None


def test_solve_over_qq_matrix_right_hand_side():
    A = [[2, 1], [1, 3]]
    B = [[1, 0, 4], [0, 1, Fraction(1, 2)]]
    X = linalg.solve_over(QQ, A, B)
    assert X.shape == (2, 3)
    assert (np.array(A, dtype=object) @ X).tolist() == B
    # each column agrees with the vector solve
    for j in range(3):
        col = linalg.solve_over(QQ, A, [B[0][j], B[1][j]])
        assert col.tolist() == X[:, j].tolist()
    assert linalg.solve_over(QQ, [[1, 1], [1, 1]], [[0, 1], [1, 1]]) is None


def _random_fractions(rng, rows, cols):
    A = np.empty((rows, cols), dtype=object)
    for i in range(rows):
        for j in range(cols):
            A[i, j] = Fraction(int(rng.integers(-9, 10)),
                               int(rng.integers(1, 6)))
    return A


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(0, 6), cols=st.integers(0, 6), k=st.integers(0, 6),
       consistent=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_qq_rank_kernel_solve_match_sympy(rows, cols, k, consistent, seed):
    # a product of random rows x k and k x cols Fraction matrices has rank
    # at most k; sympy's exact rank and RREF are the reference
    rng = np.random.default_rng(seed)
    A = (_random_fractions(rng, rows, k) @ _random_fractions(rng, k, cols)
         if k else np.full((rows, cols), Fraction(0), dtype=object))
    S = sympy.Matrix(rows, cols, list(A.flat))
    rank = S.rank()
    assert linalg.rank_over(QQ, A) == rank
    K = linalg.nullspace_over(QQ, A)
    assert K.shape == (cols, cols - rank)
    assert not (A @ K).any()
    free = [c for c in range(cols) if c not in S.rref()[1]]
    assert (K[free] == np.eye(len(free), dtype=int)).all()
    b = (A @ _random_fractions(rng, cols, 1) if consistent
         else _random_fractions(rng, rows, 1))[:, 0]
    x = linalg.solve_over(QQ, A, b)
    inconsistent = S.row_join(sympy.Matrix(rows, 1, list(b))).rank() > rank
    assert (x is None) == inconsistent
    if x is not None:
        assert (A @ x == b).all()


@pytest.mark.parametrize("p", [2, 17, 251, 257, 32003, 65521, 65537,
                               2**31 - 1])
def test_matmul_mod_exact_at_largest_residues(p):
    # entries in [p-8, p): at p = 2^31 - 1 an int64 sum of three products
    # overflows
    rng = np.random.default_rng(p % 1000)
    A = rng.integers(max(0, p - 8), p, size=(5, 37), dtype=np.int64)
    B = rng.integers(max(0, p - 8), p, size=(37, 6), dtype=np.int64)
    want = [[sum(int(a) * int(b) for a, b in zip(row, col)) % p
             for col in B.T] for row in A]
    for C in (linalg.matmul_mod(A, B, p), linalg.matmul_over(GF(p), A, B)):
        assert C.dtype == linalg.zeros_over(GF(p), (0, 0)).dtype
        assert C.tolist() == want


@pytest.mark.parametrize("p", [17, 65537, 2**31 - 1])
def test_matmul_mod_row_slices(monkeypatch, p):
    # A goes in row slices of B's size (222 cells: six rows of A), not in
    # slices of _PRODUCT_CELLS
    rng = np.random.default_rng(p % 1000)
    A = rng.integers(0, p, size=(50, 37), dtype=np.int64)
    B = rng.integers(0, p, size=(37, 6), dtype=np.int64)
    whole = linalg.matmul_mod(A, B, p)
    monkeypatch.setattr(linalg, "_PRODUCT_CELLS", 64)
    casts = []
    mul = linalg._mul

    def counted(X, Y, dtype):
        casts.append(X.shape[0])
        return mul(X, Y, dtype)

    monkeypatch.setattr(linalg, "_mul", counted)
    assert (linalg.matmul_mod(A, B, p) == whole).all()
    # eight slices of six rows and one of two
    assert sorted(set(casts)) == [2, 6]
    assert whole.tolist() == [[sum(int(a) * int(b) for a, b in zip(row, col))
                               % p for col in B.T] for row in A]


# -- dispatch ---------------------------------------------------------


def test_dispatch():
    A = [[1, 2], [2, 4]]
    assert linalg.rank_over(GF(17), A) == 1
    assert linalg.rank_over(QQ, A) == 1
    ns = linalg.nullspace_over(GF(17), A)
    assert ns.shape == (2, 1) and ns.dtype == STORAGE
    assert linalg.solve_over(QQ, [[2]], [3]).tolist() == [Fraction(3, 2)]
    half = Fraction(1, 2)
    product = linalg.matmul_over(QQ, [[half, 1]], [[2], [half]])
    assert product.tolist() == [[Fraction(3, 2)]]
    assert linalg.zeros_over(QQ, (1, 2)).tolist() == [[0, 0]]
    # the narrowest unsigned dtype that holds p - 1
    assert [linalg.zeros_over(GF(p), (2, 1)).dtype
            for p in (17, 251, 257, 65521, 65537, 2**31 - 1)] == [
        np.uint8, np.uint8, np.uint16, np.uint16, np.uint32, np.uint32]
    with pytest.raises(TypeError):
        linalg.rank_over(object(), A)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31))
def test_rank_mod_matches_frac_on_lifted(seed):
    # sympy is the reference: the rank over Q of a small integer matrix, and
    # its rank mod 17, the largest k with a k x k minor that 17 does not
    # divide
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 5, size=(4, 4), dtype=np.int64)
    S = sympy.Matrix(A.tolist())
    assert linalg.rank_over(QQ, A) == S.rank()
    idx = [list(c) for k in range(1, 5) for c in combinations(range(4), k)]
    rp = max([0] + [len(r) for r in idx for c in idx if len(c) == len(r)
                    and S.extract(r, c).det() % P])
    assert linalg.rank_mod(A, P) == rp <= S.rank()


# -- raw matrix products ------------------------------------------------

# (module, function) pairs allowed a raw numpy product, with the reason
RAW_PRODUCTS_ALLOWED = {
    # 0/1 bits times the weights 2^t mod p: each row is a sum of `bits`
    # residues below 2^31, `bits` the bit length of one Kronecker slot (a
    # few hundred at most), far below 2^63
    ("snf", "_unpack"),
}
RAW_PRODUCT_CALLS = {"dot", "matmul", "tensordot"}


def scan(path, is_hit):
    """(module, enclosing function, line) of every AST node of one source
    file that is_hit accepts."""
    module = path.stem
    found = []

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if is_hit(node):
            found.append((module, scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    walk(ast.parse(path.read_text()), None)
    return found


def is_numpy_attribute(node, names):
    return (isinstance(node, ast.Attribute) and node.attr in names
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy"))


def is_raw_product(node):
    """An @, np.dot, np.matmul or np.tensordot."""
    return ((isinstance(node, (ast.BinOp, ast.AugAssign))
             and isinstance(node.op, ast.MatMult))
            or is_numpy_attribute(node, RAW_PRODUCT_CALLS))


def outside_linalg(is_hit):
    return [hit for path in sorted(Path(lforge.__file__).parent.glob("*.py"))
            if path.name != "linalg.py" for hit in scan(path, is_hit)]


def test_no_raw_matrix_products_outside_linalg():
    # an int64 product of residues overflows once its sum of products
    # passes 2^63; matmul_mod is the exact one
    found = outside_linalg(is_raw_product)
    assert [h for h in found if h[:2] not in RAW_PRODUCTS_ALLOWED] == []
    assert {h[:2] for h in found} == RAW_PRODUCTS_ALLOWED


# (module, function) pairs allowed to name int64, with the reason: every
# F_p matrix is born in zeros_over's narrow storage dtype, and a residue
# array is widened only for arithmetic that would wrap there
INT64_ALLOWED = {
    # V's residues widened: c * v plus the partial sum wraps in uint8
    ("ideals", "multiply_forms"),
    # E2's residues widened: a * E2 wraps in uint8 once 3 (p-1) > 255
    ("veronese", "gamma_tangent_space"),
    # snf's own Kronecker weights 2^t mod p, not an F_p matrix
    ("snf", "mul"),
    # snf's coefficient arrays: the narrowest signed dtype that holds p^2
    ("snf", "smith_normal_form"),
}


def is_int64(node):
    """np.int64, or int64 named by a dtype string."""
    return (is_numpy_attribute(node, {"int64"})
            or (isinstance(node, ast.Constant)
                and node.value in ("int64", "i8", "<i8")))


def test_no_int64_outside_linalg():
    found = outside_linalg(is_int64)
    assert [h for h in found if h[:2] not in INT64_ALLOWED] == []
    assert {h[:2] for h in found} == INT64_ALLOWED
