"""Smith normal form over k[lambda] for a field k, with tracked unimodular
transforms, plus univariate factorization over prime fields (squarefree,
distinct-degree, Cantor-Zassenhaus) and direct root scanning.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .fields import PrimeField, is_prime
from .rng import as_rng
from .textio import data_lines
from .unipoly import UniPoly, gcd, parse_unipoly, squarefree_decomposition


class SnfError(ValueError):
    pass


class PolyMatrix:
    """Rectangular matrix of UniPoly over one field and variable."""

    def __init__(self, entries, field=None, var=None):
        self.entries = [list(row) for row in entries]
        self.nrows = len(self.entries)
        self.ncols = len(self.entries[0]) if self.entries else 0
        if not self.ncols:
            raise SnfError("matrix needs at least one row and one column")
        for row in self.entries:
            if len(row) != self.ncols:
                raise SnfError("ragged matrix")
        first = self.entries[0][0]
        self.field = field if field is not None else first.field
        self.var = var if var is not None else first.var
        for row in self.entries:
            for e in row:
                if e.field != self.field or e.var != self.var:
                    raise SnfError("mixed fields or variables")

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return (isinstance(other, PolyMatrix)
                and self.entries == other.entries)

    def mul(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.ncols != other.nrows:
            raise SnfError("shape mismatch")
        F, var = self.field, self.var
        if not isinstance(F, PrimeField):
            return PolyMatrix([[sum((a * b for a, b in zip(row, col)),
                                    UniPoly.zero(F, var))
                                for col in zip(*other.entries)]
                               for row in self.entries], F, var)
        # Kronecker substitution: an entry f becomes the integer f(2**bits),
        # and a slot of `bits` bits holds every coefficient of a
        # row-by-column sum of products, so that sum is integer arithmetic
        lens = [max([len(e.coeffs) for row in m.entries for e in row],
                    default=0) for m in (self, other)]
        bound = min(lens) * self.ncols * (F.p - 1) ** 2
        bits = max(bound.bit_length(), 1)
        assert bound < 1 << bits
        rows = [[_pack(e, bits) for e in row] for row in self.entries]
        cols = [[_pack(e, bits) for e in col] for col in zip(*other.entries)]
        weights = np.array([pow(2, t, F.p) for t in range(bits)], np.int64)
        return PolyMatrix([[_unpack(sum(a * b for a, b in zip(row, col)),
                                    bits, weights, F, var) for col in cols]
                           for row in rows], F, var)

    def to_text(self) -> str:
        """Test oracle (test_snf.py): the text that from_text reads, written
        back for the round trip of test_polymatrix_validation_and_text and
        hashed by test_snf_ln_block_pinned_output and
        test_snf_over_rationals_pinned_output."""
        lines = [f"{self.nrows} {self.ncols} {self.var}"]
        for row in self.entries:
            for e in row:
                lines.append(e.to_string())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, field) -> "PolyMatrix":
        lines = list(data_lines(text))
        header = lines[0].split() if lines else []
        if len(header) != 3 or not all(h.isdigit() for h in header[:2]):
            raise SnfError("header must read: rows columns variable")
        r, c, var = int(header[0]), int(header[1]), header[2]
        if len(lines) - 1 < r * c:
            raise SnfError(f"{r}x{c} matrix needs {r * c} entries")
        entries = []
        it = iter(lines[1:])
        for i in range(r):
            entries.append([parse_unipoly(next(it), field, var)
                            for _ in range(c)])
        return cls(entries, field, var)


def _pack(f: UniPoly, bits: int) -> int:
    """f(2**bits) for f over F_p, p < 2**31."""
    le = np.unpackbits(np.asarray(f.coeffs, "<u4").view(np.uint8),
                       bitorder="little").reshape(-1, 32)
    raw = np.zeros((len(le), bits), np.uint8)
    raw[:, :min(bits, 32)] = le[:, :bits]
    return int.from_bytes(np.packbits(raw, bitorder="little"), "little")


def _unpack(x: int, bits: int, weights, field, var) -> UniPoly:
    """The `bits`-bit slots of x mod p, weights[t] = 2**t mod p."""
    n = -(-x.bit_length() // bits)
    raw = np.unpackbits(np.frombuffer(x.to_bytes(-(-n * bits // 8), "little"),
                                      np.uint8), count=n * bits,
                        bitorder="little")
    return UniPoly(field, raw.reshape(n, bits) @ weights, var)


class SNFResult:
    def __init__(self, D: PolyMatrix, S1: PolyMatrix, S2: PolyMatrix,
                 verified: bool):
        self.D = D
        self.S1 = S1
        self.S2 = S2
        self.verified = verified

    def diagonal(self):
        n = min(self.D.nrows, self.D.ncols)
        return [self.D[i, i] for i in range(n)]

    def check(self, M: PolyMatrix) -> bool:
        """S1 M S2 = D, multiplied exactly in the cheaper order S1 (M S2),
        and the diagonal is a divisibility chain."""
        diag = self.diagonal()
        return self.S1.mul(M.mul(self.S2)) == self.D and all(
            b.is_zero() or (not a.is_zero() and b.divmod(a)[1].is_zero())
            for a, b in zip(diag, diag[1:]))


def _coeff_height(coeffs) -> int:
    h = 0
    for c in coeffs:
        frac = Fraction(c)
        h = max(h, abs(frac.numerator), frac.denominator)
    return h


# -- polynomial arrays: the last axis holds coefficients, low degree first;
# over F_p, ints reduced mod p between steps; over QQ, Fractions.


_TABLES: dict[int, np.ndarray] = {}


def _red(X, field):
    """X reduced mod p in place (nothing to do over QQ).  An int16 array
    (p <= 181) is looked up in a table of the residue of every int16,
    indexed by its bit pattern, built once per p; `take` reads the
    indices from an intp copy, so writing into X is safe."""
    if not field.char:
        return X
    if X.dtype != np.int16:
        return np.remainder(X, field.p, out=X)
    table = _TABLES.get(field.p)
    if table is None:
        table = _TABLES[field.p] = np.arange(1 << 16, dtype=np.uint16).view(
            np.int16) % np.int16(field.p)
        table.flags.writeable = False  # shared by every call
    return table.take(X.view(np.uint16), out=X, mode="clip")


def _degrees(X):
    """Degree of every entry of X, -1 for the zero entries."""
    nz = X != 0
    top = X.shape[-1] - 1 - np.argmax(nz[..., ::-1], axis=-1)
    return np.where(nz.any(axis=-1), top, -1)


def _width(X) -> int:
    """1 + the largest degree among the entries of X (0 if all vanish)."""
    return int(_degrees(X).max(initial=-1)) + 1


def _pad(X, width: int):
    """X with its coefficient axis zero-padded to at least `width`."""
    if X.shape[-1] >= width:
        return X
    out = np.zeros(X.shape[:-1] + (width,), X.dtype)
    out[..., :X.shape[-1]] = X
    return out


def _divmod(X, d, field):
    """Quotients of the entries of X (n, w) by the trimmed polynomial d and
    whether each remainder is nonzero: UniPoly.divmod on all at once."""
    nd = len(d)
    w = max(_width(X), nd)
    rem = X[:, :w].copy()
    q = np.zeros((len(X), w - nd + 1), X.dtype)
    for t in range(w - nd, -1, -1):
        q[:, t] = _red(rem[:, t + nd - 1] * field.inv(d[-1]), field)
        rem[:, t:t + nd] = _red(rem[:, t:t + nd] - q[:, t, None] * d, field)
    return q, (rem[:, :nd - 1] != 0).any(axis=-1)


def _sub_mul(Y, Q, B, field, room: int):
    """Y - Q*B over the last axis, leading axes broadcast, B taken as wide
    as it is (trim it to its width first): in place when Y is wide enough,
    else a widened copy.  Over F_p, `room` products (each below p**2) are
    subtracted between reductions."""
    shifts = np.flatnonzero((Q != 0).reshape(-1, Q.shape[-1]).any(axis=0))
    wb = B.shape[-1]
    if not (shifts.size and wb):
        return Y
    Y = _pad(Y, int(shifts[-1]) + wb)
    for n, s in enumerate(shifts, 1):
        Y[..., s:s + wb] -= Q[..., s:s + 1] * B
        if n % room == 0:
            _red(Y, field)
    return _red(Y, field)


def _sweep(S, k: int, q, wq: int, field, room: int):
    """S[k + 1 + i] -= q[i] * S[k] for every row i of the quotients q (of
    width wq): the rows with a nonzero quotient are gathered into one
    zero-padded block, updated by one _sub_mul and copied back out."""
    rows = np.flatnonzero(q.any(axis=1))
    if not rows.size:
        return
    Sk = S[k][:, :_width(S[k])]
    idx = (k + 1 + rows).tolist()
    block = np.zeros((len(idx), len(Sk), max(
        [wq + Sk.shape[-1] - 1] + [S[i].shape[-1] for i in idx])), Sk.dtype)
    for j, i in enumerate(idx):
        block[j, :, :S[i].shape[-1]] = S[i]
    _sub_mul(block, q[rows, None], Sk, field, room)
    for j, i in enumerate(idx):
        S[i] = block[j].copy()  # a view would keep the whole block alive


def _to_matrix(rows, field, var) -> PolyMatrix:
    return PolyMatrix([[UniPoly(field, e, var) for e in row] for row in rows],
                      field, var)


def smith_normal_form(M: PolyMatrix, verify: bool = True) -> SNFResult:
    """Diagonalize M by unimodular row/column operations over field[var].

    Pivot choice: minimal degree, then (over the rationals) minimal
    coefficient height, then position.  Returns D with monic diagonal in a
    divisibility chain and the transforms with S1 M S2 = D, re-verified by
    explicit multiplication unless verify=False.

    A is one coefficient array; S1 is a list of rows and S2 of columns,
    each a coefficient array of its own.  Row k does not change while it
    clears column k, so a sweep is one batched division and a few shifted
    multiply-subtracts on A, and one gathered update of the transform rows
    it touches: those with a nonzero quotient, in one zero-padded block,
    against S[k] trimmed to its width.  It gives the entry-by-entry
    result.  Over F_p for p <= 181 the coefficients are int16, and every
    reduction mod p is one lookup in a table of all int16 residues.
    """
    field, var = M.field, M.var
    r, c = M.nrows, M.ncols
    dtype = next(t for t in (np.int16, np.int32, np.int64)  # holds p**2
                 if field.p ** 2 <= np.iinfo(t).max) if field.char else object
    A = np.zeros((r, c, max([1] + [len(e.coeffs) for row in M.entries
                                   for e in row])), dtype)
    for i, j in np.ndindex(r, c):
        A[i, j, :len(M[i, j].coeffs)] = M[i, j].coeffs
    S1 = list(np.eye(r, dtype=dtype)[..., None])
    S2 = list(np.eye(c, dtype=dtype)[..., None])
    # products subtracted between reductions, each below p**2
    room = 1 if dtype is object else (
        (int(np.iinfo(dtype).max) - field.p) // (field.p - 1) ** 2)

    k, n = 0, min(r, c)
    while k < n:
        deg = _degrees(A[k:, k:])
        if deg.max() < 0:
            break
        cands = np.argwhere(deg == deg[deg >= 0].min())  # row-major order
        if dtype is object:  # over QQ
            cands = [min(cands, key=lambda ij: _coeff_height(
                A[k + ij[0], k + ij[1]]))]
        pi, pj = k + cands[0]
        A[[k, pi]] = A[[pi, k]]
        S1[k], S1[pi] = S1[pi], S1[k]
        A[:, [k, pj]] = A[:, [pj, k]]
        S2[k], S2[pj] = S2[pj], S2[k]
        piv = A[k, k, :_width(A[k, k])].copy()
        dirty = False
        for S in (S1, S2):
            # rows i > k: row i -= q_i * row k; then the same on the
            # transpose, which clears row k by column operations
            q, left = _divmod(A[k + 1:, k], piv, field)
            dirty = dirty or left.any()
            wq, wk = _width(q), _width(A[k])
            A = _pad(A, wq + wk - 1)
            _sub_mul(A[k + 1:, k:], q[:, None], A[k, k:, :wk], field, room)
            _sweep(S, k, q, wq, field, room)
            A = A.transpose(1, 0, 2)
        if dirty:
            continue
        # pivot must divide the remaining block for the chain to work
        block = A[k + 1:, k + 1:]
        bad = len(piv) > 1 and _divmod(block.reshape(-1, A.shape[-1]), piv,
                                       field)[1].reshape(block.shape[:2])
        if np.any(bad):
            # row k += the offending row (-= -1 times it), then re-run
            off = k + 1 + int(np.argmax(bad.any(axis=1)))
            A[k] = _red(A[k] + A[off], field)
            S1[k] = _sub_mul(S1[k], np.array([[-1]]), S1[off], field, room)
            continue
        k += 1

    # monic diagonal
    for i in range(n):
        w = _width(A[i, i])
        if w and A[i, i, w - 1] != 1:
            u = field.inv(A[i, i, w - 1])
            A[i] = _red(A[i] * u, field)
            S1[i] = _red(S1[i] * u, field)

    res = SNFResult(_to_matrix(A, field, var), _to_matrix(S1, field, var),
                    _to_matrix(zip(*S2), field, var), verify)
    del A, S1, S2
    if verify and not res.check(M):
        raise SnfError("transform or divisibility verification failed")
    return res


# -- factorization over prime fields -----------------------------------


def _powmod(base: UniPoly, e: int, mod: UniPoly) -> UniPoly:
    result = UniPoly.one(base.field, base.var)
    base = base % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


def distinct_degree_split(f: UniPoly):
    """[(product of irreducible factors of degree d, d)] for monic
    squarefree f."""
    p = f.field.p
    x = UniPoly.x(f.field, f.var)
    out = []
    h = x
    d = 0
    rest = f.monic()
    while rest.degree > 0:
        d += 1
        if 2 * d > rest.degree:
            out.append((rest, rest.degree))
            break
        h = _powmod(h, p, rest)
        g = gcd(h - x, rest)
        if g.degree > 0:
            out.append((g.monic(), d))
            rest = rest.exact_div(g).monic()
            h = h % rest
    return out


def _equal_degree_split(f: UniPoly, d: int, rng):
    """Cantor-Zassenhaus: split monic squarefree f whose irreducible
    factors all have degree d."""
    if f.degree == d:
        return [f]
    p = f.field.p
    field = f.field
    e = (p ** d - 1) // 2
    while True:
        a = UniPoly(field, [rng.randrange(p) for _ in range(f.degree)], f.var)
        if a.degree < 1:
            continue
        g = gcd(a, f)
        if 0 < g.degree < f.degree:
            left, right = g.monic(), f.exact_div(g).monic()
        else:
            b = _powmod(a, e, f) - UniPoly.one(field, f.var)
            g = gcd(b, f)
            if not (0 < g.degree < f.degree):
                continue
            left, right = g.monic(), f.exact_div(g).monic()
        return (_equal_degree_split(left, d, rng)
                + _equal_degree_split(right, d, rng))


def unipoly_factor_ff(f: UniPoly):
    """Full factorization over a prime field: list of (monic irreducible,
    multiplicity), unit absorbed by monic scaling.  The equal-degree splits
    draw from a fixed stream; the sorted factors do not depend on it."""
    if f.is_zero():
        raise SnfError("cannot factor the zero polynomial")
    if not isinstance(f.field, PrimeField):
        raise SnfError("finite-field factorization needs a prime field")
    rng = as_rng(0)
    out = []
    for sq, mult in squarefree_decomposition(f.monic()):
        for block, d in distinct_degree_split(sq):
            for irr in _equal_degree_split(block, d, rng):
                out.append((irr, mult))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


def is_irreducible_ff(f: UniPoly) -> bool:
    """gcd(x^(p^k) - x, f) pattern test for monic f over a prime field.
    Test oracle for the factors of unipoly_factor_ff in test_snf.py."""
    if f.degree < 1:
        return False
    f = f.monic()
    p = f.field.p
    x = UniPoly.x(f.field, f.var)
    h = _powmod(x, p ** f.degree, f)
    if h != x % f:
        return False
    # no factor of degree properly dividing deg f
    n = f.degree
    for q in {d for d in range(2, n + 1) if n % d == 0 and is_prime(d)}:
        h = _powmod(x, p ** (n // q), f)
        if gcd(h - x, f).degree > 0:
            return False
    return True


def root_scan_ff(f: UniPoly):
    """All roots in the prime field by direct evaluation."""
    if not isinstance(f.field, PrimeField):
        raise SnfError("root scan needs a prime field")
    p = f.field.p
    if p >= 1 << 20:
        raise SnfError("field too large to enumerate")
    field = f.field
    return [a for a in range(p) if field.is_zero(f(field.of(a)))]
