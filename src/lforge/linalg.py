"""Exact linear algebra: vectorized numpy arithmetic mod p, with a Fraction
fallback for the rationals.

Mod-p matrices are int64 numpy arrays with entries in [0, p).  All the heavy
graded-piece computations reduce to these routines, so they are the
performance floor of the whole package.

``rref_mod`` is the one elimination loop behind ``rank_mod``,
``nullspace_mod`` and ``solve_mod``.  It is a blocked Gauss-Jordan
elimination over column panels of width w (Dumas, Giorgi & Pernet, "Dense
linear algebra over word-size prime fields: the FFLAS and FFPACK packages",
ACM TOMS 35, 2008).  For each panel an unblocked pass over the rows that
hold no pivot yet finds the panel's k pivot columns J and pivot rows I.  With
A = M[I, J], the new pivot rows become X = A^-1 M[I, c0:], and every other
row o that is nonzero on J is updated as M[o, c0:] -= M[o, J] X in one
matrix product, then reduced mod p.  The products are taken in float64,
whose integers are exact below 2^53: a sum of at most w products of entries
in [0, p) stays below w (p-1)^2, so w = 64 is used when 64 (p-1)^2 < 2^53
(every p below about 1.18e7, p = 17 among them).  For larger p the panel is
one column and the products are taken in int64, where a single product
(p-1)^2 stays below 2^62 for p < 2^31: that is the plain unblocked
elimination.  A matrix of at most w columns is a single panel and goes
straight to the unblocked pass.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .fields import PrimeField, RationalField

_PANEL = 64
# entries of M updated per matrix product: bounds the gathered rows and the
# product temporary to 2 MB each, whatever the size of M
_UPDATE_CELLS = 1 << 18


def as_mod_array(A, p: int) -> np.ndarray:
    M = np.asarray(A, dtype=np.int64) % p
    if M.ndim == 1:
        M = M.reshape(1, -1)
    return M


def _eliminate(M: np.ndarray, p: int):
    """Unblocked Gauss-Jordan elimination of M in place.  Returns the pivot
    columns and, for each pivot row of the result, the row of the input it
    came from.

    Entries are reduced mod p only where a step reads them (the pivot column
    and the pivot row) and once at the end, so each step moves an entry by
    less than (p-1)^2.  Callers keep the number of steps at most the panel
    width w, which keeps every entry below p + w (p-1)^2 in absolute value."""
    rows, cols = M.shape
    order = np.arange(rows)
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = M[:, c]
        col %= p
        nz = np.nonzero(col[r:])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
            order[[r, i]] = order[[i, r]]
        # the pivot row is zero mod p left of c, so the update starts at c
        row = M[r, c:]
        row %= p
        row *= pow(int(row[0]), p - 2, p)
        row %= p
        other = np.nonzero(col)[0]
        other = other[other != r]
        if other.size:
            M[other, c:] -= np.outer(col[other], row)
        pivots.append(c)
        r += 1
    M %= p
    return pivots, order[:r]


def _mul(A: np.ndarray, B: np.ndarray, dtype) -> np.ndarray:
    """A @ B, exact in ``dtype`` for the panel width that goes with it."""
    return A.astype(dtype, copy=False) @ B.astype(dtype, copy=False)


def matmul_mod(A, B, p: int) -> np.ndarray:
    """A @ B mod p, exact for every p < 2^31.

    The inner dimension is taken in slices of width w, each slice's product
    reduced mod p before the next is added: float64 slices with
    w (p-1)^2 < 2^53, the rule rref_mod uses, while p < 9.4e7, and int64
    slices with w (p-1)^2 < 2^63 above that.  For p = 17 the whole product
    is one float64 slice."""
    A, B = as_mod_array(A, p), as_mod_array(B, p)
    w, dtype = (2 ** 53 - 1) // (p - 1) ** 2, np.float64
    if w == 0:
        w, dtype = (2 ** 63 - 1) // (p - 1) ** 2, np.int64
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for s in range(0, A.shape[1], w):
        out += _mul(A[:, s:s + w], B[s:s + w], dtype).astype(np.int64) % p
        out %= p
    return out


def rref_mod(A, p: int):
    """Reduced row echelon form mod p.  Returns (R, pivot_columns)."""
    # a fresh array, row-major even for a transposed input
    M = np.ascontiguousarray(as_mod_array(A, p))
    rows, cols = M.shape
    w = _PANEL if _PANEL * (p - 1) ** 2 < 2 ** 53 else 1
    if cols <= w:
        return M, _eliminate(M, p)[0]
    dtype = np.float64 if w > 1 else np.int64
    pivots = []
    pivot_rows = []
    free = np.ones(rows, dtype=bool)  # rows holding no pivot yet
    for c0 in range(0, cols, w):
        if len(pivot_rows) == rows:
            break
        # rows without a pivot are zero left of c0
        cand = np.flatnonzero(free & M[:, c0:c0 + w].any(axis=1))
        if cand.size == 0:
            continue
        J, I = _eliminate(M[cand, c0:c0 + w], p)
        J = np.asarray(J) + c0
        I = cand[I]
        k = J.size
        # [A | 1] reduces to [1 | A^-1]
        aug = np.hstack([M[np.ix_(I, J)], np.eye(k, dtype=np.int64)])
        _eliminate(aug, p)
        X = _mul(aug[:, k:], M[I, c0:], dtype).astype(np.int64)
        X %= p
        hit = M[:, J].any(axis=1)
        hit[I] = False
        o = np.flatnonzero(hit)
        step = max(1, _UPDATE_CELLS // (cols - c0))
        for s in range(0, o.size, step):
            rs = o[s:s + step]
            B = M[rs, c0:]
            np.subtract(B, _mul(M[np.ix_(rs, J)], X, dtype), out=B,
                        casting="unsafe")
            B %= p
            M[rs, c0:] = B
        M[I, c0:] = X
        free[I] = False
        pivots.extend(J.tolist())
        pivot_rows.extend(I.tolist())
    # rows without a pivot are zero by now
    return M[pivot_rows + np.flatnonzero(free).tolist()], pivots


def rank_mod(A, p: int) -> int:
    return len(rref_mod(A, p)[1])


def _kernel_mod(A, p: int):
    """(K, free): a basis K of the right kernel, one vector per column, and
    the free (non-pivot) columns of A in increasing order, with
    K[free] = I.  A kernel vector x satisfies x[pivots] = -R x[free], so
    it is determined by its free coordinates: x = K x[free].  The one
    kernel builder, behind nullspace_mod and rao's syzygy resolver."""
    M, pivots = rref_mod(A, p)
    cols = M.shape[1]
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((cols, free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[np.asarray(pivots, dtype=np.intp)] = -M[:len(pivots), free] % p
    return basis, free


def nullspace_mod(A, p: int) -> np.ndarray:
    """Basis of the right kernel, one vector per column of the result."""
    return _kernel_mod(A, p)[0]


def solve_mod(A, b, p: int):
    """One solution of A x = b mod p, or None if inconsistent.  b may be a
    vector or a matrix of right-hand sides."""
    A = as_mod_array(A, p)
    b = np.asarray(b, dtype=np.int64) % p
    vec = b.ndim == 1
    B = b.reshape(-1, 1) if vec else b
    aug = np.hstack([A, B])
    R, pivots = rref_mod(aug, p)
    ncols = A.shape[1]
    if any(c >= ncols for c in pivots):
        return None
    X = np.zeros((ncols, B.shape[1]), dtype=np.int64)
    X[np.asarray(pivots, dtype=np.intp)] = R[:len(pivots), ncols:]
    return X[:, 0] if vec else X


def det_mod(A, p: int) -> int:
    M = as_mod_array(A, p).copy()
    n = M.shape[0]
    if M.shape[1] != n:
        raise ValueError("determinant of a non-square matrix")
    det = 1
    for c in range(n):
        nz = np.nonzero(M[c:, c])[0]
        if nz.size == 0:
            return 0
        i = c + int(nz[0])
        if i != c:
            M[[c, i]] = M[[i, c]]
            det = -det
        piv = int(M[c, c])
        det = det * piv % p
        if c + 1 < n:
            factor = M[c + 1 :, c] * pow(piv, p - 2, p) % p
            M[c + 1 :] = (M[c + 1 :] - np.outer(factor, M[c])) % p
    return det % p


# -- Fraction (exact rational) versions -------------------------------


def _frac_matrix(A):
    return [[Fraction(x) for x in row] for row in A]


def rref_frac(A):
    M = _frac_matrix(A)
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if M[i][c] != 0), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    return M, pivots


def rank_frac(A) -> int:
    return len(rref_frac(A)[1])


def nullspace_frac(A):
    M, pivots = rref_frac(A)
    cols = len(M[0]) if M else 0
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -M[r][fc]
        basis.append(v)
    return basis


def solve_frac(A, b):
    """One solution of A x = b over Q, or None if inconsistent.  b may be a
    vector or a matrix of right-hand sides."""
    vec = np.ndim(b) == 1
    B = [[x] for x in b] if vec else b
    aug = [list(map(Fraction, row)) + list(map(Fraction, B[i]))
           for i, row in enumerate(A)]
    R, pivots = rref_frac(aug)
    ncols = len(A[0]) if len(A) else 0
    if any(c >= ncols for c in pivots):
        return None
    X = [[Fraction(0)] * len(B[0]) for _ in range(ncols)]
    for r, c in enumerate(pivots):
        X[c] = R[r][ncols:]
    return [row[0] for row in X] if vec else X


# -- field dispatch ---------------------------------------------------


def rank_over(field, A) -> int:
    if isinstance(field, PrimeField):
        return rank_mod(A, field.p)
    if isinstance(field, RationalField):
        return rank_frac(A)
    raise TypeError(f"unsupported field {field!r}")


def zeros_over(field, shape) -> np.ndarray:
    """The zero matrix over the field, of the dtype matmul_over returns."""
    if isinstance(field, PrimeField):
        return np.zeros(shape, dtype=np.int64)
    if isinstance(field, RationalField):
        return np.full(shape, Fraction(0), dtype=object)
    raise TypeError(f"unsupported field {field!r}")


def matmul_over(field, A, B) -> np.ndarray:
    """A @ B over the field: int64 in [0, p) over F_p, an object array of
    Fractions over Q."""
    if isinstance(field, PrimeField):
        return matmul_mod(A, B, field.p)
    if isinstance(field, RationalField):
        return np.asarray(A, dtype=object) @ np.asarray(B, dtype=object)
    raise TypeError(f"unsupported field {field!r}")


def rref_over(field, A):
    """(R, pivot_columns): the reduced row echelon form of A as an array,
    int64 in [0, p) over F_p, an object array of Fractions over Q."""
    if isinstance(field, PrimeField):
        return rref_mod(A, field.p)
    if isinstance(field, RationalField):
        R, pivots = rref_frac(A)
        return np.array(R, dtype=object), pivots
    raise TypeError(f"unsupported field {field!r}")


def nullspace_over(field, A):
    """Right-kernel basis as a list of coefficient vectors."""
    if isinstance(field, PrimeField):
        B = nullspace_mod(A, field.p)
        return [B[:, j].tolist() for j in range(B.shape[1])]
    if isinstance(field, RationalField):
        return nullspace_frac(A)
    raise TypeError(f"unsupported field {field!r}")


def solve_over(field, A, b):
    if isinstance(field, PrimeField):
        x = solve_mod(A, b, field.p)
        return None if x is None else x.tolist()
    if isinstance(field, RationalField):
        return solve_frac(A, b)
    raise TypeError(f"unsupported field {field!r}")
