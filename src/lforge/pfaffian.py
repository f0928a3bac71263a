"""Skew-symmetric matrices of forms: Pfaffians, sub-Pfaffian ideals,
Euler-constrained sampling, the section calculus that matches hypersurfaces
through a Pfaffian variety with section vectors, bordered extensions, the
10x10 unprojection matrix and its one-parameter deformation family.

Each principal Pfaffian is one PolynomialRing.dot over the signed entries
of its first row and the memoized Pfaffians one size smaller, and every
v . A check is one dot as well.
"""

from __future__ import annotations

import itertools

from .ideals import (
    Ideal,
    eliminate,
    form_matrix,
    forms_from_vector,
    saturate_irrelevant,
    saturated_hilbert,
)
from .linalg import matmul_mod, nullspace_mod, solve_mod, zeros_over
from .mpoly import MPoly, PolynomialRing, coefficient_vector
from .rng import as_rng
from .textio import data_lines, parse_poly, parse_ring_header


class PfaffianError(ValueError):
    pass


class SkewMatrix:
    """Square matrix of polynomials with zero diagonal and a_ij = -a_ji.
    Pfaffian computations memoize principal subsets per instance."""

    def __init__(self, ring: PolynomialRing, entries):
        self.ring = ring
        self.n = len(entries)
        rows = []
        for i, row in enumerate(entries):
            if len(row) != self.n:
                raise PfaffianError("matrix must be square")
            rows.append(tuple(row))
        for i in range(self.n):
            if not rows[i][i].is_zero():
                raise PfaffianError("diagonal must be zero")
            for j in range(i + 1, self.n):
                if rows[j][i] != -rows[i][j]:
                    raise PfaffianError(f"entry ({j},{i}) is not -({i},{j})")
        self.entries = tuple(rows)
        self._pf_cache: dict[tuple, MPoly] = {}

    @classmethod
    def from_upper(cls, ring: PolynomialRing, n: int, upper) -> "SkewMatrix":
        """Build from the strict upper triangle listed row-major."""
        upper = list(upper)
        if len(upper) != n * (n - 1) // 2:
            raise PfaffianError("wrong upper-triangle length")
        M = [[ring.zero] * n for _ in range(n)]
        it = iter(upper)
        for i in range(n):
            for j in range(i + 1, n):
                e = next(it)
                M[i][j] = e
                M[j][i] = -e
        return cls(ring, M)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return (isinstance(other, SkewMatrix)
                and self.ring is other.ring and self.entries == other.entries)

    def map_entries(self, fn, ring=None) -> "SkewMatrix":
        ring = ring or self.ring
        return SkewMatrix(ring, [[fn(e) for e in row] for row in self.entries])

    def principal_pfaffian(self, idx: tuple) -> MPoly:
        """Pfaffian of the principal submatrix on the sorted index tuple,
        by expansion along the first row with subset memoization."""
        if len(idx) % 2:
            raise PfaffianError("Pfaffian needs an even index set")
        return self._pf(tuple(sorted(idx)))

    def _pf(self, idx: tuple) -> MPoly:
        if not idx:
            return self.ring.one
        got = self._pf_cache.get(idx)
        if got is not None:
            return got
        # expansion along row i0: the t-th entry carries the sign (-1)^t,
        # and a[j][i0] = -a[i0][j] is that entry negated
        i0, rest = idx[0], idx[1:]
        row = self.entries[i0]
        us, ws = [], []
        for t, j in enumerate(rest):
            if row[j]:
                us.append(self.entries[j][i0] if t % 2 else row[j])
                ws.append(self._pf(rest[:t] + rest[t + 1:]))
        total = self.ring.dot(us, ws)
        self._pf_cache[idx] = total
        return total

    def pfaffian(self) -> MPoly:
        if self.n % 2:
            raise PfaffianError("Pfaffian of an odd-size matrix")
        return self._pf(tuple(range(self.n)))

    def adjugate(self):
        """Matrix Psi with self @ Psi = Pf(self) * I: entry (j,k) for j < k is
        (-1)^(j+k) times the Pfaffian omitting rows/columns j and k, extended
        skew-symmetrically."""
        if self.n % 2:
            raise PfaffianError("adjugate of an odd-size matrix")
        n = self.n
        Psi = [[self.ring.zero] * n for _ in range(n)]
        for j in range(n):
            for k in range(j + 1, n):
                idx = tuple(x for x in range(n) if x != j and x != k)
                val = self._pf(idx)
                if (j + k) % 2:
                    val = -val
                Psi[j][k] = val
                Psi[k][j] = -val
        return Psi

    @classmethod
    def from_text(cls, text: str) -> "SkewMatrix":
        lines = list(data_lines(text))
        if len(lines) < 2:
            raise PfaffianError("file needs a size line and a ring header")
        n = int(lines[0])
        ring = parse_ring_header(lines[1])
        upper = [parse_poly(s, ring) for s in lines[2:]]
        return cls.from_upper(ring, n, upper)


def _annihilates(v, A: SkewMatrix) -> bool:
    """Whether the row vector v satisfies v . A = 0."""
    return all(not A.ring.dot(v, [A[j, k] for j in range(A.n)])
               for k in range(A.n))


def sub_pfaffians(A: SkewMatrix, size: int) -> Ideal:
    """Ideal of all principal size x size Pfaffians (rows = columns)."""
    if size % 2 or not (0 < size <= A.n):
        raise PfaffianError(f"sub-Pfaffian size {size} invalid for n={A.n}")
    gens = []
    for idx in itertools.combinations(range(A.n), size):
        g = A.principal_pfaffian(idx)
        if not g.is_zero():
            gens.append(g)
    return Ideal(A.ring, gens)


# -- Euler-constrained sampling ---------------------------------------


def euler_constrained_sample(ring: PolynomialRing, n: int, v, degree: int,
                             seed_or_rng) -> SkewMatrix:
    """Seeded random skew n x n matrix with entries of the given degree
    satisfying v . A = 0 identically (v a vector of linear forms and zeros).
    The constraint is a linear system on the entry coefficients; the sample
    is a random point of its solution space: one matmul_mod of the kernel
    basis with one draw per basis column, in column order.  The dimension of
    that space is exposed as .solution_dim; zero only admits the zero
    matrix (flagged)."""
    if len(v) != n:
        raise PfaffianError("constraint row length must match n")
    for f in v:
        if not f.is_zero() and f.degree() != 1:
            raise PfaffianError("constraint entries must be linear or zero")
    rng = as_rng(seed_or_rng)
    p = ring.field.p
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    # (v . A)_k = sum_j v_j A_jk; the unknown of pair (a, b), a < b, is A_ab,
    # so it enters column b with v_a and column a with -v_b
    P = [[ring.zero] * len(pairs) for _ in range(n)]
    for pi, (a, b) in enumerate(pairs):
        P[b][pi] = v[a]
        P[a][pi] = -v[b]
    ker = nullspace_mod(form_matrix(P, [degree] * len(pairs),
                                    [degree + 1] * n), p)
    dim = ker.shape[1]
    draws = zeros_over(ring.field, (dim, 1))
    draws[:, 0] = [rng.randrange(p) for _ in range(dim)]
    coeffs = matmul_mod(ker, draws, p)[:, 0]
    M = [[ring.zero] * n for _ in range(n)]
    for (j, k), e in zip(pairs, forms_from_vector(ring, coeffs,
                                                  [degree] * len(pairs))):
        M[j][k] = e
        M[k][j] = -e
    out = SkewMatrix(ring, M)
    out.solution_dim = dim
    return out


# -- presentations and the section calculus ---------------------------


class SkewPresentation:
    """A skew matrix presenting a rank-(2r+1) degeneracy situation, possibly
    padded to even size by coordinate (Euler) constraints, with the twist t
    of the associated resolution."""

    def __init__(self, skew: SkewMatrix, r: int, t: int, euler_row=None):
        self.skew = skew
        self.t = t
        self.euler_row = list(euler_row) if euler_row is not None else None
        if skew.n not in (2 * r + 1, 2 * r + 2):
            raise PfaffianError("size must be 2r+1 or 2r+2 (Euler-padded)")
        if skew.n == 2 * r + 2 and self.euler_row is None:
            raise PfaffianError("even (padded) size needs the Euler row")
        if self.euler_row is not None and not _annihilates(self.euler_row,
                                                           skew):
            raise PfaffianError("Euler row does not annihilate matrix")


def divided_power_section(P: SkewPresentation):
    """For an odd-size presentation: the row psi with psi_i the signed
    principal 2r x 2r Pfaffian omitting row/column i; A . psi^T = 0."""
    A = P.skew
    if A.n % 2 == 0:
        raise PfaffianError(
            "padded even size has no section row; use adjugate()")
    psi = []
    for i in range(A.n):
        idx = tuple(x for x in range(A.n) if x != i)
        val = A.principal_pfaffian(idx)
        if i % 2:
            val = -val
        psi.append(val)
    return psi


def hypersurface_to_section(P: SkewPresentation, h: MPoly):
    """Section vector s realizing the hypersurface h through the Pfaffian
    variety, or None when no section exists (h outside the ideal, or the
    correspondence breaks down).

    Odd size: solves h = sum_i s_i psi_i directly.  Even (Euler-padded)
    size: solves the contraction identity s . Psi = h * v coefficientwise,
    where Psi is the Pfaffian adjugate and v the Euler row; the section
    additionally satisfies v . s = 0.
    """
    A = P.skew
    ring = A.ring
    if h.is_zero() or h.is_homogeneous() is False:
        raise PfaffianError("h must be nonzero homogeneous")
    if A.n % 2:
        psi = divided_power_section(P)
        degs = [h.degree() - f.degree() if not f.is_zero() else -1
                for f in psi]
        if len(set(d for d in degs if d >= 0)) > 1:
            raise PfaffianError("mixed section degrees unsupported")
        return _solve_forms([psi], [h], degs, [h.degree()])
    # padded case: unknowns are the entries of s; equations from
    # sum_j s_j Psi[j][i] = h * v_i for every i, plus v . s = 0
    v = P.euler_row
    Psi = A.adjugate()
    pf_deg = None
    for row in Psi:
        for e in row:
            if not e.is_zero():
                pf_deg = e.degree()
                break
        if pf_deg is not None:
            break
    if pf_deg is None:
        raise PfaffianError("zero adjugate")
    vdeg = max((f.degree() for f in v if not f.is_zero()), default=1)
    sdeg = h.degree() + vdeg - pf_deg
    if sdeg < 0:
        return None
    n = A.n
    rows = [[Psi[j][i] for j in range(n)] for i in range(n)] + [v]
    rhs = [h * f for f in v] + [ring.zero]
    return _solve_forms(rows, rhs, [sdeg] * n,
                        [pf_deg + sdeg] * n + [sdeg + vdeg])


def _solve_forms(P, rhs, src, tgt):
    """Forms s of degrees src with P s = rhs, rhs forms of degrees tgt (a
    negative degree stands for a zero form), or None when there are none."""
    ring = rhs[0].ring
    p = ring.field.p
    M = form_matrix(P, src, tgt)
    if not M.shape[1]:
        return None
    b = [c for f, d in zip(rhs, tgt)
         for c in coefficient_vector(f, ring.monomials_of_degree(d))]
    x = solve_mod(M, b, p)
    return None if x is None else forms_from_vector(ring, x, src)


def extend_with_sections(P: SkewPresentation, s1, s2, l: MPoly) -> SkewMatrix:
    """Bordered skew matrix of size n+2: columns s1, s2 appended to the
    presentation matrix with corner entry l.  Degree bookkeeping: deg l =
    deg s1 + deg s2 - t."""
    A = P.skew
    n = A.n
    ring = A.ring
    if len(s1) != n or len(s2) != n:
        raise PfaffianError("section length must match the matrix size")

    def _deg(vec):
        ds = {f.degree() for f in vec if not f.is_zero()}
        if len(ds) != 1:
            raise PfaffianError("section entries must share one degree")
        return ds.pop()

    d1, d2 = _deg(s1), _deg(s2)
    want = d1 + d2 - P.t
    if not l.is_zero() and l.degree() != want:
        raise PfaffianError(f"corner degree must be {want}")
    M = [[ring.zero] * (n + 2) for _ in range(n + 2)]
    for i in range(n):
        for j in range(n):
            M[i][j] = A[i, j]
        M[i][n] = s1[i]
        M[n][i] = -s1[i]
        M[i][n + 1] = s2[i]
        M[n + 1][i] = -s2[i]
    M[n][n + 1] = l
    M[n + 1][n] = -l
    return SkewMatrix(ring, M)


# -- the degree-6 unprojection ---------------------------------------


def unprojection_matrix(P: SkewPresentation, s1, s2, x6: MPoly) -> SkewMatrix:
    """10x10 skew matrix of linear forms bordering an Euler-constrained 8x8
    with two section columns and the unprojection variable in the new 2x2
    corner.  The coordinate row [x0..x5,0,0,0,0] annihilates the result; the
    8x8 Pfaffians cut the unprojected threefold."""
    ring = P.skew.ring
    v = P.euler_row
    if ring.dot(v, s1) or ring.dot(v, s2):
        raise PfaffianError("section violates the coordinate-row kernel")
    out = extend_with_sections(P, s1, s2, x6)
    if not _annihilates(v + [ring.zero, ring.zero], out):
        raise PfaffianError("coordinate row fails on the bordered matrix")
    return out


def koszul_solve(a, xs):
    """Constant skew matrix B' with a = B' . xs, for a vector of linear forms
    a satisfying the Koszul relation sum xs_i a_i = 0.  The coefficient
    matrix of a, read row by row with coefficient_vector on the monomials
    of xs, is the unique candidate; the relation holds iff it is skew."""
    field = a[0].ring.field
    n = len(a)
    if len(xs) != n:
        raise PfaffianError("length mismatch")
    if any(len(x) != 1 or x.lc != field.one for x in xs):
        raise PfaffianError("xs must be plain variables")
    mons = [x.lm for x in xs]
    try:
        B = [coefficient_vector(f, mons) for f in a]
    except ValueError:
        raise PfaffianError("a has a variable outside xs") from None
    for i in range(n):
        if not field.is_zero(B[i][i]):
            raise PfaffianError("Koszul relation fails (diagonal)")
        for j in range(i + 1, n):
            if B[j][i] != field.neg(B[i][j]):
                raise PfaffianError("Koszul relation fails (not skew)")
    return B


def exceptional_locus(X: Ideal, x6_index: int) -> Ideal:
    """The ideal of the x6-coefficients of the generators, in the ring
    without x6 (each generator has degree at most 1 in x6, so its
    x6-coefficient is its x6-partial).  Its saturation is the base locus
    of the inverse of the projection from the distinguished point."""
    ring = X.ring
    small = ring.drop_vars((ring.names[x6_index],))
    return Ideal(small, [small.convert(g.partial(x6_index)) for g in X.gens])


class FamilyReport:
    """Per-lambda Hilbert data of the deformation.  constant() compares
    dimension, degree and saturated Hilbert function (through the sampled
    range) across all lambdas; constant_coarse() compares dimension and
    degree only.

    Each sample is the saturated Pfaffian scheme V(Pf_8(A_lam)).  For
    lam != 0 that is the family's fiber; at lam = 0 it is not the flat
    limit: the coordinate row loses its x6 entry, every 8x8 Pfaffian of A_0
    vanishes at (0:...:0:1), and for the d6-unprojection-15 matrix the
    saturated Pfaffian ideal carries one unit of excess length there (its
    Hilbert polynomial exceeds the general one by 1, and it lies on one
    cubic fewer).  So constant() fails on a
    sample list containing 0 while constant_coarse() holds; the flat
    special fiber itself has the general Hilbert data."""

    def __init__(self, euler_verified, samples):
        self.euler_verified = euler_verified
        self.samples = samples  # lambda value -> dict

    def _agree(self, keys) -> bool:
        vals = [{k: v[k] for k in keys} for v in self.samples.values()]
        return all(v == vals[0] for v in vals[1:])

    def constant(self) -> bool:
        return self._agree(("dim", "degree", "hf"))

    def constant_coarse(self) -> bool:
        return self._agree(("dim", "degree"))


def family_data(A: SkewMatrix):
    """Extract (B', D') for the deformation: B' solves the Koszul relation of
    the column (A[0,6]..A[5,6]); D' is the coefficient matrix of the row
    entries (A[6,7], A[6,8], A[6,9]), read with coefficient_vector on
    x0..x5."""
    xs = A.ring.gens()[:6]
    Bp = koszul_solve([A[i, 6] for i in range(6)], xs)
    mons = [x.lm for x in xs]
    try:
        Dp = [coefficient_vector(A[6, k], mons) for k in (7, 8, 9)]
    except ValueError:
        raise PfaffianError("entry depends on a variable beyond x5") from None
    return Bp, Dp


# deform_family's samples record Hilbert data in degrees 0..HF_THROUGH
HF_THROUGH = 8


def family_matrix(A: SkewMatrix, Bp, Dp, shift: MPoly) -> SkewMatrix:
    """The deformed matrix A_lam for shift = lam*x6.

    Layout assumption (as produced by unprojection_matrix): indices 0..7 are
    the Euler-constrained block with padding indices 6, 7; indices 8, 9 the
    section columns; the unprojection variable sits at entry (8, 9).  The
    deformation subtracts shift*B' on the 6x6 coordinate block and adds
    shift*D' on rows 7..9 against columns 0..5.  ``shift`` lives in A's ring
    for a numeric lam, or in a ring extending A's ring by trailing
    variables (lam kept symbolic).  A zero shift returns A itself, with
    the Pfaffians it has memoized.
    """
    R = shift.ring
    if R is A.ring and shift.is_zero():
        return A
    field = R.field
    M = [[R.convert(A[i, j]) for j in range(10)] for i in range(10)]
    for i in range(6):
        for j in range(6):
            c = Bp[i][j]
            if not field.is_zero(c):
                M[i][j] = M[i][j] - shift.scale(c)
    for r, i in enumerate((7, 8, 9)):
        for j in range(6):
            c = Dp[r][j]
            if field.is_zero(c):
                continue
            M[i][j] = M[i][j] + shift.scale(c)
            M[j][i] = M[j][i] - shift.scale(c)
    return SkewMatrix(R, M)


def deform_family(A: SkewMatrix, Bp, Dp, lambdas) -> FamilyReport:
    """One-parameter deformation of the 10x10 unprojection matrix
    (family_matrix), sampled at the given lambdas; the Hilbert data are
    recorded in degrees 0..HF_THROUGH.

    [x0..x5, lam*x6, 0, 0, 0] annihilates A_lam identically (verified
    symbolically with lam a fresh variable).  Each sample records the raw
    and saturated Hilbert data of V(Pf_8(A_lam)).  At lam = 0 that is the
    Pfaffian scheme of A_0, not the flat fiber of the family; see
    FamilyReport.
    """
    ring = A.ring
    field = ring.field
    x6 = ring.var(6)
    lam_ring = ring.extend_back(("lam",))
    lam_x6 = lam_ring.var(lam_ring.nvars - 1) * lam_ring.convert(x6)

    # symbolic check
    Asym = family_matrix(A, Bp, Dp, lam_x6)
    vsym = lam_ring.gens()[:6] + [lam_x6] + [lam_ring.zero] * 3
    euler_ok = _annihilates(vsym, Asym)
    if not euler_ok:
        raise PfaffianError("deformed coordinate-row relation fails")

    samples = {}
    for lv in lambdas:
        Alv = family_matrix(A, Bp, Dp, x6.scale(field.of(lv)))
        I = sub_pfaffians(Alv, 8)
        # the saturation reads I's Hilbert data from its own basis
        H = saturated_hilbert(I)
        Hraw = I.hilbert()
        samples[lv] = {
            "dim": H.dim,
            "degree": H.degree,
            "hp": tuple(H.hilbert_polynomial_value(e)
                        for e in range(HF_THROUGH + 1)),
            "hf": tuple(H.hf(e) for e in range(HF_THROUGH + 1)),
            "hf_raw": tuple(Hraw.hf(e) for e in range(HF_THROUGH + 1)),
        }
    return FamilyReport(euler_ok, samples)


def projection_to_cubics(X: Ideal, x6_index: int) -> Ideal:
    """Eliminate the unprojection variable and saturate: the image of the
    projection from the distinguished point."""
    # move x6 to the front for elimination
    front = (X.ring.names[x6_index],) + tuple(
        n for n in X.ring.names if n != X.ring.names[x6_index])
    R2 = PolynomialRing(X.ring.field, front)
    I2 = Ideal(R2, [R2.convert(g) for g in X.gens])
    E = eliminate(I2, 1)
    return saturate_irrelevant(E)
