"""Exact linear algebra over F_p and Q, with one elimination loop for both
fields.

Mod-p matrices are int64 numpy arrays with entries in [0, p); rational
matrices are object arrays of Fractions.  The functions named ``*_mod``
take the modulus p, and p = None means Q, except ``matmul_mod`` and
``det_mod``, which are mod p only; the ``*_over`` functions take a field.

``_eliminate`` is the one Gauss-Jordan loop.  Over Q ``rref_mod`` runs it on
the whole matrix; ``rank_mod``, ``_kernel_mod`` and ``solve_mod`` read the
rank, a kernel basis and a solution off the RREF for both fields.

Over F_p, ``rref_mod`` is a blocked Gauss-Jordan elimination over column
panels of width w (Dumas, Giorgi & Pernet, "Dense linear algebra over
word-size prime fields: the FFLAS and FFPACK packages", ACM TOMS 35, 2008).
For each panel an unblocked pass over the rows that hold no pivot yet finds
the panel's k pivot columns J and pivot rows I.  With A = M[I, J], the new
pivot rows become X = A^-1 M[I, c0:], and every other row o that is nonzero
on J is updated as M[o, c0:] -= M[o, J] X in one matrix product, then
reduced mod p.  The products are taken in float64, whose integers are exact
below 2^53: a sum of at most w products of entries in [0, p) stays below
w (p-1)^2, so w = 64 is used when 64 (p-1)^2 < 2^53 (every p below about
1.18e7, p = 17 among them).  For larger p the panel is one column and the
products are taken in int64, where a single product (p-1)^2 stays below
2^62 for p < 2^31: that is the plain unblocked elimination.  A matrix of at
most w columns is a single panel and goes straight to the unblocked pass.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .fields import PrimeField, RationalField

_PANEL = 64
# entries of M updated per matrix product: bounds the gathered rows and the
# product temporary to 2 MB each, whatever the size of M
_UPDATE_CELLS = 1 << 18
_fraction = np.frompyfunc(Fraction, 1, 1)


def _as_array(A, p) -> np.ndarray:
    """A's entries as a fresh 2-D array: int64 in [0, p), or Fractions in an
    object array when p is None (Q)."""
    if p is None:
        M = _fraction(np.asarray(A, dtype=object))
    else:
        M = np.asarray(A, dtype=np.int64) % p
    if M.ndim == 1:
        M = M.reshape(1, -1)
    return M


def _zeros(shape, p) -> np.ndarray:
    if p is None:
        return np.full(shape, Fraction(0), dtype=object)
    return np.zeros(shape, dtype=np.int64)


def _eliminate(M: np.ndarray, p):
    """Unblocked Gauss-Jordan elimination of M in place, over F_p, or over Q
    when p is None and M is an object array of Fractions.  Returns the pivot
    columns and, for each pivot row of the result, the row of the input it
    came from.

    Over F_p, entries are reduced mod p only where a step reads them (the
    pivot column and the pivot row) and once at the end, so each step moves
    an entry by less than (p-1)^2.  Callers keep the number of steps at most
    the panel width w, which keeps every entry below p + w (p-1)^2 in
    absolute value.  Over Q nothing is reduced: the arithmetic is exact."""
    rows, cols = M.shape
    order = np.arange(rows)
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = M[:, c]
        if p is not None:
            col %= p
        nz = np.nonzero(col[r:])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
            order[[r, i]] = order[[i, r]]
        # the pivot row is zero (mod p) left of c, so the update starts at c
        row = M[r, c:]
        if p is None:
            row *= Fraction(1) / row[0]
        else:
            row %= p
            row *= pow(int(row[0]), p - 2, p)
            row %= p
        other = np.nonzero(col)[0]
        other = other[other != r]
        if other.size:
            M[other, c:] -= np.outer(col[other], row)
        pivots.append(c)
        r += 1
    if p is not None:
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
    A, B = _as_array(A, p), _as_array(B, p)
    w, dtype = (2 ** 53 - 1) // (p - 1) ** 2, np.float64
    if w == 0:
        w, dtype = (2 ** 63 - 1) // (p - 1) ** 2, np.int64
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for s in range(0, A.shape[1], w):
        out += _mul(A[:, s:s + w], B[s:s + w], dtype).astype(np.int64) % p
        out %= p
    return out


def rref_mod(A, p):
    """Reduced row echelon form over F_p, or over Q when p is None.
    Returns (R, pivot_columns); R has the pivot rows first, then the zero
    rows."""
    # a fresh array, row-major even for a transposed input
    M = np.ascontiguousarray(_as_array(A, p))
    if p is None:
        return M, _eliminate(M, None)[0]
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


def rank_mod(A, p) -> int:
    """Rank over F_p, or over Q when p is None."""
    return len(rref_mod(A, p)[1])


def _kernel_mod(A, p):
    """(K, free): a basis K of the right kernel over F_p, or over Q when p
    is None, one vector per column, and the free (non-pivot) columns of A
    in increasing order, with K[free] = I.  A kernel vector x satisfies
    x[pivots] = -R x[free], so it is determined by its free coordinates:
    x = K x[free].  The one kernel builder, behind nullspace_mod, the
    syzygy resolver, ideals.GradedQuotient and ideals.linear_section_reduce."""
    M, pivots = rref_mod(A, p)
    cols = M.shape[1]
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = _zeros((cols, free.size), p)
    basis[free, np.arange(free.size)] = 1 if p else Fraction(1)
    neg = -M[:len(pivots), free]
    basis[np.asarray(pivots, dtype=np.intp)] = neg if p is None else neg % p
    return basis, free


def nullspace_mod(A, p) -> np.ndarray:
    """Basis of the right kernel over F_p, or over Q when p is None, one
    vector per column of the result."""
    return _kernel_mod(A, p)[0]


def solve_mod(A, b, p):
    """One solution of A x = b over F_p, or over Q when p is None; None if
    the system is inconsistent.  b may be a vector, giving a vector x, or a
    matrix of right-hand sides, giving one column of x per column of b."""
    A = _as_array(A, p)
    vec = np.ndim(b) == 1
    B = _as_array(b, p)
    if vec:
        B = B.T
    aug = np.hstack([A, B])
    R, pivots = rref_mod(aug, p)
    ncols = A.shape[1]
    if any(c >= ncols for c in pivots):
        return None
    X = _zeros((ncols, B.shape[1]), p)
    X[np.asarray(pivots, dtype=np.intp)] = R[:len(pivots), ncols:]
    return X[:, 0] if vec else X


def det_mod(A, p: int) -> int:
    """Determinant mod p, a test oracle: the Pfaffian and acceptance tests
    use it as a witness that shares no code with the other routines, and
    the benchmark's tracer wraps it by name.  It has its own elimination
    loop, which reduces every entry after each step: _eliminate reduces
    lazily, which is exact only for at most w steps (a panel), so over a
    whole n x n matrix at p near 2^31 its int64 entries would overflow."""
    M = _as_array(A, p)
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


# -- field dispatch ---------------------------------------------------


def _modulus(field):
    """p for F_p, None for Q."""
    if isinstance(field, PrimeField):
        return field.p
    if isinstance(field, RationalField):
        return None
    raise TypeError(f"unsupported field {field!r}")


def rank_over(field, A) -> int:
    return rank_mod(A, _modulus(field))


def zeros_over(field, shape) -> np.ndarray:
    """The zero matrix over the field, of the dtype matmul_over returns."""
    return _zeros(shape, _modulus(field))


def matmul_over(field, A, B) -> np.ndarray:
    """A @ B over the field: int64 in [0, p) over F_p, an object array of
    Fractions over Q."""
    p = _modulus(field)
    if p is None:
        return np.asarray(A, dtype=object) @ np.asarray(B, dtype=object)
    return matmul_mod(A, B, p)


def nullspace_over(field, A) -> np.ndarray:
    """Basis of the right kernel, one vector per column of the result."""
    return nullspace_mod(A, _modulus(field))


def solve_over(field, A, b):
    """One solution of A x = b as an array, or None if inconsistent."""
    return solve_mod(A, b, _modulus(field))
