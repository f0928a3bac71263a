"""Exact linear algebra over F_p and Q, with one elimination loop for both
fields.

Mod-p matrices hold residues in [0, p) in the narrowest unsigned dtype that
holds p - 1 (``_storage``: uint8 for p <= 251, uint16 for p <= 65521,
uint32 below 2^31).  Every F_p array the functions here and ``zeros_over``
return has that dtype, and an operand that already has it is taken to hold
residues.  Arithmetic on such arrays elsewhere must widen first: an
unsigned -x, c*x or x + y wraps.  Rational matrices are object arrays of
Fractions.  The functions named ``*_mod`` take the modulus p, and p = None
means Q, except ``matmul_mod`` and ``det_mod``, which are mod p only; the
``*_over`` functions take a field.

``_eliminate`` is the one Gauss-Jordan loop.  Over Q ``rref_mod`` runs it on
the whole matrix; ``rank_mod``, ``_kernel_mod`` and ``solve_mod`` read the
rank, a kernel basis and a solution off the RREF for both fields.

Over F_p, ``rref_mod`` is a blocked Gauss-Jordan elimination over column
panels of width w (Dumas, Giorgi & Pernet, "Dense linear algebra over
word-size prime fields: the FFLAS and FFPACK packages", ACM TOMS 35, 2008).
For each panel one unblocked pass over the rows that hold no pivot yet
finds the panel's pivot columns J, pivot rows I and A^-1 for A = M[I, J].
The new pivot rows become X = A^-1 M[I, c0:], and every other row o that
is nonzero on J is updated as M[o, c0:] -= M[o, J] X in one matrix
product.  A sum of at most w products of residues stays below w (p-1)^2,
so the products are taken in the narrowest of float32, float64 and int64
whose integers are exact that far (``_exact``; below 2^24, 2^53 and 2^63):
float32 with w = 64 for p <= 509, float64 with w = 64 while
64 (p-1)^2 < 2^53 (every p below about 1.18e7), and past that one-column
panels in int64, which is the plain unblocked elimination.  Each product
is cast to the work dtype, the narrowest signed one that holds
p + w (p-1)^2 (int16 for p = 17), subtracted, reduced with % and stored
narrow.  A matrix of at most w columns is a single panel and goes straight
to the unblocked pass.  At the end the pivot rows move to the top in place.

``reduce_mod`` reduces rows modulo reducers that are unit upper triangular
on their leading columns, and eliminates no reducer (the split of Faugere &
Lachartre, PASCO 2010): ``groebner.reduce_rows`` gives it the Macaulay
matrices of ``macaulay_basis`` and of the colon.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .fields import PrimeField, RationalField

_PANEL = 64
# entries of M updated per matrix product: bounds the gathered rows and the
# product temporary to 1 MB each, whatever the size of M
_UPDATE_CELLS = 1 << 18
# cells of A that matmul_mod casts to the product dtype at once (4 MB float32)
# unless B, cast whole, is larger
_PRODUCT_CELLS = 1 << 20
# the product dtypes, each with the bound below which its integers are exact
_EXACT = ((np.float32, 2 ** 24), (np.float64, 2 ** 53), (np.int64, 2 ** 63))
_fraction = np.frompyfunc(Fraction, 1, 1)


def _storage(p):
    """The narrowest unsigned dtype that holds p - 1."""
    return np.min_scalar_type(p - 1)


def _signed(bound):
    """The narrowest signed dtype that holds every |x| <= bound."""
    return np.min_scalar_type(-1 - bound)


def _exact(p, w):
    """The narrowest product dtype in which a residue plus a sum of w
    products of residues is exact, or None."""
    return next((t for t, bound in _EXACT if p + w * (p - 1) ** 2 < bound),
                None)


def _as_array(A, p) -> np.ndarray:
    """A's entries as a fresh row-major 2-D array: residues in the storage
    dtype, reduced in one pass whatever A's dtype and layout, or Fractions
    in an object array when p is None (Q)."""
    A = np.asarray(A, dtype=object if p is None else None)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    if p is None:
        return _fraction(A)
    return np.remainder(A, p, out=np.empty(A.shape, _storage(p)),
                        casting="unsafe")


def _zeros(shape, p) -> np.ndarray:
    if p is None:
        return np.full(shape, Fraction(0), dtype=object)
    return np.zeros(shape, dtype=_storage(p))


def _eliminate(M: np.ndarray, p, inverse=False):
    """Unblocked Gauss-Jordan elimination of M in place, over F_p, or over Q
    when p is None and M is an object array of Fractions.  Returns the pivot
    columns, for each pivot row of the result the row of the input it came
    from, and the pivot rows' trackers: with ``inverse`` (F_p only) A^-1, A
    the input at those rows and the pivot columns, else an empty block.

    Over F_p, M holds residues, and the loop runs on a signed copy W that
    it writes back reduced.  Entries of W are reduced mod p only where a
    step reads them (the pivot column and the pivot row) and once at the
    end, so each of the at most s = min(rows, cols) steps (callers keep s
    at most the panel width) moves an entry by less than (p-1)^2, and W's
    dtype holds p + s (p-1)^2.  Over Q nothing is reduced.  For A^-1, W
    carries s tracker columns, zero at the start, and the row swapped in
    as pivot r gets 1 in tracker column r.  A pivot row only ever has pivot
    rows added to it, so the pivot rows' trackers end as A^-1.  Trackers
    obey the same bound, and step r updates them only through column r,
    as the ones past it are still zero."""
    rows, cols = M.shape
    s = min(rows, cols)
    W = M if p is None else M.astype(_signed(p + s * (p - 1) ** 2))
    if inverse:
        W = np.hstack([W, np.zeros((rows, s), W.dtype)])
    order = np.arange(rows)
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = W[:, c]
        if p is not None:
            col %= p
        nz = np.nonzero(col[r:])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            W[[r, i]] = W[[i, r]]
            order[[r, i]] = order[[i, r]]
        if inverse:
            W[r, cols + r] = 1
        # the pivot row is zero (mod p) left of c and past tracker column r
        row = W[r, c:cols + r + 1]
        if p is None:
            row *= Fraction(1) / row[0]
        else:
            row %= p
            row *= pow(int(row[0]), p - 2, p)
            row %= p
        other = np.nonzero(col)[0]
        other = other[other != r]
        if other.size:
            W[other, c:cols + r + 1] -= np.outer(col[other], row)
        pivots.append(c)
        r += 1
    if p is not None:
        W %= p
        M[...] = W[:, :cols]
    return pivots, order[:r], W[:r, cols:cols + r]


def _mul(A: np.ndarray, B: np.ndarray, dtype) -> np.ndarray:
    """A @ B, exact in ``dtype`` for the panel width that goes with it."""
    return A.astype(dtype, copy=False) @ B.astype(dtype, copy=False)


def matmul_mod(A, B, p: int) -> np.ndarray:
    """A @ B mod p, exact for every p < 2^31.

    An operand of the storage dtype goes into the product as it is, any
    other is reduced into it first.  B is cast to the product dtype whole,
    A in row slices of at most _PRODUCT_CELLS cells (or B's size, if
    larger), and n, A's width, in slices of width w, each slice's product
    cast to the work dtype and reduced mod p before the next is added:
    one float32 slice while p + n (p-1)^2 < 2^24 (n up to 65535 for
    p = 17), else float64 slices with w (p-1)^2 < 2^53 while p < 9.4e7,
    and int64 slices with w (p-1)^2 < 2^63 above that."""
    store = _storage(p)
    A, B = [X if getattr(X, "dtype", None) == store and X.ndim == 2
            else _as_array(X, p) for X in (A, B)]
    (m, n), q = A.shape, (p - 1) ** 2
    w = max(1, min(n, (2 ** 53 - p) // q or (2 ** 63 - p) // q))
    dtype, work = _exact(p, w), _signed(p + w * q)
    B = B.astype(dtype)  # once, not once per row slice of A
    out = np.empty((m, B.shape[1]), store)
    # each row slice's products read all of B: no slice is smaller than B
    step = max(1, max(_PRODUCT_CELLS, B.size) // max(1, n))
    for r in range(0, m, step):
        rows = A[r:r + step]
        acc = _mul(rows[:, :w], B[:w], dtype).astype(work)
        for s in range(w, n, w):
            acc %= p
            acc += _mul(rows[:, s:s + w], B[s:s + w], dtype).astype(work)
        np.remainder(acc, p, out=out[r:r + step], casting="unsafe")
    return out


def rref_mod(A, p):
    """Reduced row echelon form over F_p, or over Q when p is None.
    Returns (R, pivot_columns); R has the pivot rows first, then the zero
    rows."""
    M = _as_array(A, p)
    rows, cols = M.shape
    w = _PANEL if p and _exact(p, _PANEL) in (np.float32, np.float64) else 1
    if p is None or cols <= w:
        return M, _eliminate(M, p)[0]
    dtype, work = _exact(p, w), _signed(p + w * (p - 1) ** 2)
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
        J, I, inv = _eliminate(M[cand, c0:c0 + w], p, inverse=True)
        J = np.asarray(J) + c0
        I = cand[I]
        X = _as_array(_mul(inv, M[I, c0:], dtype).astype(work), p)
        hit = M[:, J].any(axis=1)
        hit[I] = False
        o = np.flatnonzero(hit)
        step = max(1, _UPDATE_CELLS // (cols - c0))
        for s in range(0, o.size, step):
            rs = o[s:s + step]
            U = _mul(M[np.ix_(rs, J)], X, dtype).astype(work)
            np.subtract(M[rs, c0:], U, out=U)
            U %= p
            M[rs, c0:] = U
        M[I, c0:] = X
        free[I] = False
        pivots.extend(J.tolist())
        pivot_rows.extend(I.tolist())
    # rows without a pivot are zero by now: move the pivot rows on top in
    # column slabs, not through a copy of M, and zero those left below
    I, r = np.asarray(pivot_rows, dtype=np.intp), len(pivot_rows)
    step = max(1, _UPDATE_CELLS // max(1, r))
    for c in range(0, cols, step):
        M[:r, c:c + step] = M[I, c:c + step]
    M[I[I >= r]] = 0
    return M, pivots


def reduce_mod(R, T, p):
    """The rows of T modulo those of R, over F_p, or over Q when p is None,
    for R = [A | B] with A, its first r = len(R) columns, unit upper
    triangular: the coordinates D - (C A^-1) B of the rows of T = [C | D]
    on the columns past r.  T, a result of ``_as_array`` or ``zeros_over``,
    is overwritten, and the result is a copy of its columns past r, which
    does not hold the rest of T alive.

    One left-looking pass over column blocks J: T_J -= X R_<J,J, X the
    columns of T passed before J (one ``matmul_mod``), then on A's columns
    X_J = T_J A_JJ^-1 (from the unblocked ``_eliminate``), so X = C A^-1.
    A's blocks are w columns wide, w as in ``rref_mod`` (w = 1, A_JJ = 1,
    over Q and for p past the float products), and B's fill _PRODUCT_CELLS:
    A, B and X are only ever copied and cast a block at a time."""
    r, cols = R.shape
    w = _PANEL if p and _exact(p, _PANEL) in (np.float32, np.float64) else 1
    starts = [*range(0, r, w),
              *range(r, cols, max(w, _PRODUCT_CELLS // max(1, r)))]
    for j0, j1 in zip(starts, starts[1:] + [cols]):
        if k := min(j0, r):
            X, S = T[:, :k], R[:k, j0:j1]
            U = X @ S if p is None else matmul_mod(X, S, p).astype(_signed(p))
            T[:, j0:j1] = _as_array(T[:, j0:j1] - U, p)
        if j0 < r and w > 1:
            inv = _eliminate(R[j0:j1, j0:j1].copy(), p, inverse=True)[2]
            T[:, j0:j1] = matmul_mod(T[:, j0:j1], inv, p)
    return T[:, r:].copy()


def rank_mod(A, p) -> int:
    """Rank over F_p, or over Q when p is None."""
    return len(rref_mod(A, p)[1])


def _kernel_mod(A, p):
    """(K, free): a basis K of the right kernel over F_p, or over Q when p
    is None, one vector per column, and the free (non-pivot) columns of A
    in increasing order, with K[free] = I.  A kernel vector x satisfies
    x[pivots] = -R x[free], so it is determined by its free coordinates:
    x = K x[free].  The one kernel builder, behind nullspace_mod,
    ideals.kernel_generators, the graded quotients of rao and
    zero_dim_reduced_check (on a span^T) and ideals.linear_section_reduce."""
    M, pivots = rref_mod(A, p)
    cols = M.shape[1]
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    R = M[:len(pivots), free]
    del M  # before K is allocated
    # -R in place over F_p: p - R lies in [1, p], which R's dtype holds
    if p is not None:
        np.subtract(p, R, out=R)
        R %= p
    basis = _zeros((cols, free.size), p)
    basis[free, np.arange(free.size)] = 1 if p else Fraction(1)
    basis[np.asarray(pivots, dtype=np.intp)] = R if p else -R
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
    whole n x n matrix at p near 2^31 its int64 entries would overflow.
    It reads A itself, as int64, not through the narrowing _as_array."""
    M = np.asarray(A, dtype=np.int64) % p
    n = len(M)
    if M.shape != (n, n):
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
    """A @ B over the field: residues in the storage dtype over F_p, an
    object array of Fractions over Q."""
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
