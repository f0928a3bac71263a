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
    """Reference for _kernel_mod: its free columns by np.setdiff1d."""
    M, pivots = linalg.rref_mod(A, p)
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
        assert N.dtype == K_ref.dtype and N.shape == K_ref.shape
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


def test_det_vs_cofactor_expansion():
    def cof_det(M):
        n = len(M)
        if n == 1:
            return M[0][0] % P
        total = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in M[1:]]
            s = 1 if j % 2 == 0 else -1
            total += s * M[0][j] * cof_det(minor)
        return total % P

    rng = np.random.default_rng(4)
    for _ in range(10):
        A = rand_matrix(rng, 4, 4)
        assert linalg.det_mod(A, P) == cof_det(A.tolist())


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
@given(p=st.sampled_from([2, 17, 32003, 2**31 - 1]),
       rows=st.sampled_from([0, 1, 5, 20, W + 3]),
       cols=st.sampled_from([0, 1, W - 1, W, W + 1, 3 * W + 5]),
       kind=st.sampled_from(["dense", "sparse", "low-rank"]),
       seed=st.integers(0, 2**32 - 1))
@example(p=17, rows=0, cols=3 * W + 5, kind="dense", seed=0)
@example(p=17, rows=7, cols=0, kind="dense", seed=0)
@example(p=2**31 - 1, rows=20, cols=3 * W + 5, kind="dense", seed=1)
@example(p=17, rows=W + 3, cols=3 * W + 5, kind="sparse", seed=2)
def test_rref_rank_nullspace_match_sympy(p, rows, cols, kind, seed):
    A = draw_matrix(np.random.default_rng(seed), rows, cols, p, kind)
    R_ref, piv_ref = sympy_rref(A, p)
    R, pivots = linalg.rref_mod(A, p)
    assert R.dtype == np.int64 and R.shape == (rows, cols)
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


@pytest.mark.parametrize("p", [2, 17, 32003, 2**31 - 1])
def test_matmul_mod_exact_at_largest_residues(p):
    # entries in [p-8, p): at p = 2^31 - 1 an int64 sum of three products
    # overflows
    rng = np.random.default_rng(p % 1000)
    A = rng.integers(max(0, p - 8), p, size=(5, 37), dtype=np.int64)
    B = rng.integers(max(0, p - 8), p, size=(37, 6), dtype=np.int64)
    want = [[sum(int(a) * int(b) for a, b in zip(row, col)) % p
             for col in B.T] for row in A]
    assert linalg.matmul_mod(A, B, p).tolist() == want
    assert linalg.matmul_over(GF(p), A, B).tolist() == want


# -- dispatch ---------------------------------------------------------


def test_dispatch():
    A = [[1, 2], [2, 4]]
    assert linalg.rank_over(GF(17), A) == 1
    assert linalg.rank_over(QQ, A) == 1
    ns = linalg.nullspace_over(GF(17), A)
    assert ns.shape == (2, 1) and ns.dtype == np.int64
    assert linalg.solve_over(QQ, [[2]], [3]).tolist() == [Fraction(3, 2)]
    half = Fraction(1, 2)
    product = linalg.matmul_over(QQ, [[half, 1]], [[2], [half]])
    assert product.tolist() == [[Fraction(3, 2)]]
    assert linalg.zeros_over(QQ, (1, 2)).tolist() == [[0, 0]]
    assert linalg.zeros_over(GF(17), (2, 1)).dtype == np.int64
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


def raw_products(path):
    """(module, enclosing function, line) of every @, np.dot, np.matmul and
    np.tensordot in one source file."""
    module = path.stem
    found = []

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        raw = (isinstance(node, (ast.BinOp, ast.AugAssign))
               and isinstance(node.op, ast.MatMult))
        raw |= (isinstance(node, ast.Attribute)
                and node.attr in RAW_PRODUCT_CALLS
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
        if raw:
            found.append((module, scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    walk(ast.parse(path.read_text()), None)
    return found


def test_no_raw_matrix_products_outside_linalg():
    # an int64 product of residues overflows once its sum of products
    # passes 2^63; matmul_mod is the exact one
    found = [hit for path in sorted(Path(lforge.__file__).parent.glob("*.py"))
             if path.name != "linalg.py" for hit in raw_products(path)]
    assert [h for h in found if h[:2] not in RAW_PRODUCTS_ALLOWED] == []
    assert {h[:2] for h in found} == RAW_PRODUCTS_ALLOWED
