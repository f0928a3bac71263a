"""Veronese maps, catalecticants, central projections, the 55x56 cubic
interpolation matrix of a projected plane Veronese, secant-avoidance
certificates and the tangent-space probe of the degeneracy locus.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .fields import GF, PrimeField
from . import fixtures
from .ideals import (
    Ideal,
    ImageComputation,
    image_ideal,
    linear_section_reduce,
    minors_ideal,
    singular_locus,
)
from .linalg import (
    nullspace_mod,
    nullspace_over,
    rank_mod,
    rank_over,
    det_mod,
)
from .mpoly import MPoly, PolynomialRing, coefficient_vector, from_coefficient_vector
from .unipoly import UniPoly


def veronese_map(m: int, d: int, scaled: bool = False, ring=None, field=None):
    """All degree-d monomials in m+1 variables as a fixed-order form list.

    Generic order: descending grevlex.  The two special scaled cases follow
    their classical conventions: (m=2, d=3) is the plane cubic Veronese with
    multinomial coefficients in the order
    (x^3, y^3, z^3, 3x^2y, 3xy^2, 3x^2z, 3xz^2, 3y^2z, 3yz^2, 6xyz), and
    (m=3, d=2) lists the entries of the symmetric rank-1 matrix s.s^T as
    (s0^2, s1^2, s2^2, s0s1, s0s2, s0s3, s1s2, s1s3, s2s3, s3^2), unscaled.
    """
    if m < 1 or d < 1:
        raise ValueError("veronese map needs m >= 1 and d >= 1")
    field = field or GF(17)
    if ring is None:
        names = ("x", "y", "z") if m == 2 else tuple(f"s{i}" for i in range(m + 1))
        ring = PolynomialRing(field, names)
    if scaled and (m, d) == (2, 3):
        x, y, z = ring.gens()
        return [
            x**3, y**3, z**3,
            3 * x**2 * y, 3 * x * y**2,
            3 * x**2 * z, 3 * x * z**2,
            3 * y**2 * z, 3 * y * z**2,
            6 * x * y * z,
        ]
    if scaled and (m, d) == (3, 2):
        s = ring.gens()
        return [
            s[0] ** 2, s[1] ** 2, s[2] ** 2,
            s[0] * s[1], s[0] * s[2], s[0] * s[3],
            s[1] * s[2], s[1] * s[3], s[2] * s[3],
            s[3] ** 2,
        ]
    forms = []
    for mon in ring.monomials_of_degree(d):
        exps = ring.code.unpack(mon)
        c = 1
        if scaled:
            c = factorial(d)
            for e in exps:
                c //= factorial(e)
        forms.append(ring.monomial(exps, c))
    return forms


def catalecticant(kind: str, field=None):
    if kind == "p2cubics":
        return fixtures.catalecticant_p2_cubics(field)
    if kind == "p3quadrics":
        return fixtures.catalecticant_p3_quadrics(field)
    raise ValueError(f"unknown catalecticant kind {kind!r}")


class ProjectionSpec:
    """A central projection of a Veronese variety given by a coefficient
    matrix N: rows indexed by the Veronese coordinates, columns by the target
    coordinates.  The center is the common zero locus of the columns read as
    linear forms on the ambient space."""

    def __init__(self, N, kind: str = "p2cubics", field=None):
        self.field = field or GF(17)
        self.kind = kind
        self.N = [[self.field.of(e) for e in row] for row in N]
        if kind == "p2cubics":
            self.source_ring = PolynomialRing(self.field, ("x", "y", "z"))
            self.forms = veronese_map(2, 3, scaled=True, ring=self.source_ring)
            self.coord_names = fixtures.P9_NAMES
        elif kind == "p3quadrics":
            self.source_ring = PolynomialRing(
                self.field, tuple(f"s{i}" for i in range(4))
            )
            self.forms = veronese_map(3, 2, scaled=True, ring=self.source_ring)
            self.coord_names = fixtures.P3Q_NAMES
        else:
            raise ValueError(f"unknown source kind {kind!r}")
        if len(self.N) != len(self.forms):
            raise ValueError("row count must match the Veronese coordinate count")
        self.ncols = len(self.N[0])
        if any(len(r) != self.ncols for r in self.N):
            raise ValueError("ragged projection matrix")
        if rank_over(self.field, self.N) < self.ncols:
            raise ValueError("projection matrix is rank deficient")
        self.ambient_ring = PolynomialRing(self.field, self.coord_names)
        self.target_ring = PolynomialRing(
            self.field, tuple(f"y{j}" for j in range(self.ncols))
        )

    def composed_forms(self):
        """The target coordinate forms on the source: columns of N applied to
        the Veronese forms."""
        out = []
        for j in range(self.ncols):
            f = self.source_ring.zero
            for i, v in enumerate(self.forms):
                c = self.N[i][j]
                if not self.field.is_zero(c):
                    f = f + v.scale(c)
            out.append(f)
        return out

    def center_forms(self):
        """Linear forms on the ambient space cutting out the center."""
        gens = self.ambient_ring.gens()
        out = []
        for j in range(self.ncols):
            f = self.ambient_ring.zero
            for i in range(len(self.N)):
                c = self.N[i][j]
                if not self.field.is_zero(c):
                    f = f + gens[i].scale(c)
            out.append(f)
        return out

    def secant_ideal(self) -> Ideal:
        """3x3 minors of the catalecticant: the secant locus of the Veronese."""
        M = catalecticant(self.kind, self.field)
        return minors_ideal(M, 3, ring=self.ambient_ring)


def project(spec: ProjectionSpec, bound: int = 5) -> ImageComputation:
    """Image ideal of the projected Veronese with its per-degree h0 table."""
    return image_ideal(spec.composed_forms(), spec.target_ring,
                       method="graded", bound=bound)


# -- the interpolation matrix L ---------------------------------------


class LNMatrix:
    """Coefficient matrix of target cubic monomials expanded on the source:
    55 rows (degree-9 monomials of the plane), 56 columns (cubic monomials in
    the six target coordinates).  The corank counts independent cubics
    containing the projected surface."""

    def __init__(self, entries, field, parametric: bool):
        self.entries = entries
        self.field = field
        self.parametric = parametric
        self.nrows = len(entries)
        self.ncols = len(entries[0])

    def rank(self) -> int:
        if self.parametric:
            raise ValueError("rank of a parametric matrix needs a sample value")
        return rank_over(self.field, self.entries)

    def corank(self) -> int:
        return self.ncols - self.rank()

    def at(self, value) -> "LNMatrix":
        """Evaluate a parametric matrix at one parameter value."""
        if not self.parametric:
            raise ValueError("matrix is not parametric")
        rows = [[e(value) for e in row] for row in self.entries]
        return LNMatrix(rows, self.field, False)

    def kernel_cubics(self, target_ring: PolynomialRing):
        """Right-kernel vectors as honest cubics on the target space."""
        if self.parametric:
            raise ValueError("kernel of a parametric matrix is not supported")
        basis = target_ring.monomials_of_degree(3)
        if len(basis) != self.ncols:
            raise ValueError("target ring does not match the column count")
        ker = nullspace_over(self.field, self.entries)
        return [from_coefficient_vector(target_ring, basis, v) for v in ker]


def build_LN(N, field=None) -> LNMatrix:
    """L for a 10x6 projection matrix over a field, or for a pencil given by
    a 10x6 grid of univariate polynomials."""
    field = field or GF(17)
    if len(N) != 10 or any(len(r) != 6 for r in N):
        raise ValueError("expected a 10x6 matrix")
    parametric = any(isinstance(e, UniPoly) for row in N for e in row)
    if not parametric:
        spec = ProjectionSpec(N, "p2cubics", field)
        cols, rows_basis = _ln_columns(spec.composed_forms(), spec.target_ring,
                                       spec.source_ring)
        entries = [[cols[j][i] for j in range(len(cols))]
                   for i in range(len(rows_basis))]
        return LNMatrix(entries, field, False)
    return _build_LN_parametric(N, field)


def _ln_columns(composed, target_ring, source_ring):
    rows_basis = source_ring.monomials_of_degree(9)
    cols = []
    sub = {name: composed[j] for j, name in enumerate(target_ring.names)}
    for mon in target_ring.monomials_of_degree(3):
        tm = MPoly(target_ring, ((mon, target_ring.field.one),))
        cols.append(coefficient_vector(tm.substitute(sub), rows_basis))
    return cols, rows_basis


def _build_LN_parametric(N, field) -> LNMatrix:
    var = next(e.var for row in N for e in row if isinstance(e, UniPoly))
    big = PolynomialRing(field, ("x", "y", "z", var))
    forms = veronese_map(2, 3, scaled=True,
                         ring=PolynomialRing(field, ("x", "y", "z")))
    up = {n: big.var(i) for i, n in enumerate(("x", "y", "z"))}
    L = big.var(3)
    vf = [f.substitute(up) for f in forms]
    composed = []
    for j in range(6):
        f = big.zero
        for i in range(10):
            e = N[i][j]
            if isinstance(e, UniPoly):
                coeffs = e.coeffs
            else:
                coeffs = [field.of(e)]
            for k, c in enumerate(coeffs):
                if not field.is_zero(c):
                    f = f + (vf[i] * L**k).scale(c)
        composed.append(f)
    target = PolynomialRing(field, tuple(f"y{j}" for j in range(6)))
    sub = {name: composed[j] for j, name in enumerate(target.names)}
    plane = PolynomialRing(field, ("x", "y", "z"))
    rows_basis = plane.monomials_of_degree(9)
    row_pos = {m: i for i, m in enumerate(rows_basis)}
    entries = [[UniPoly.zero(field, var) for _ in range(56)] for _ in range(55)]
    for j, mon in enumerate(target.monomials_of_degree(3)):
        tm = MPoly(target, ((mon, field.one),))
        poly = tm.substitute(sub)
        per_row: dict[int, list] = {}
        for m, c in poly.terms:
            ex, ey, ez, el = big.code.unpack(m)
            key = plane.code.pack((ex, ey, ez))
            bucket = per_row.setdefault(key, [])
            while len(bucket) <= el:
                bucket.append(field.zero)
            bucket[el] = c
        for key, coeffs in per_row.items():
            entries[row_pos[key]][j] = UniPoly(field, coeffs, var)
    return LNMatrix(entries, field, True)


# -- secant avoidance -------------------------------------------------


def secant_avoidance(center_forms, secant: Ideal) -> dict:
    """Restrict the secant ideal to the projection center and certify
    emptiness via the Hilbert function."""
    restricted = linear_section_reduce(secant, center_forms)
    H = restricted.hilbert() if not restricted.is_zero_ideal() else None
    if H is None:
        return {"empty": False, "dim": restricted.ring.nvars - 1,
                "restricted_generators": 0, "hf_zero_at": None}
    empty = H.dim == -1
    hf_zero_at = None
    if empty:
        e = 0
        while H.hf(e) != 0:
            e += 1
        hf_zero_at = e
    return {
        "empty": empty,
        "dim": H.dim,
        "degree": H.degree,
        "restricted_generators": len(restricted.gens),
        "hf_zero_at": hf_zero_at,
    }


# -- tangent space of the degeneracy locus ----------------------------


def det_gradient_rank1(field, M):
    """(u, w, alpha) with adj(M) = alpha * outer(u, w) for a square matrix of
    corank exactly 1: u spans ker(M), w spans ker(M^T), and alpha is fixed by
    one explicit cofactor.  Then d/dt det(M + tD) = alpha * w.D.u."""
    if not isinstance(field, PrimeField):
        raise TypeError("rank-1 adjugate route is implemented mod p only")
    p = field.p
    A = np.asarray(M, dtype=np.int64) % p
    n = A.shape[0]
    if rank_mod(A, p) != n - 1:
        raise ValueError("matrix does not have corank 1")
    u = nullspace_mod(A, p)[:, 0]
    w = nullspace_mod(A.T, p)[:, 0]
    j = int(np.nonzero(u)[0][0])
    k = int(np.nonzero(w)[0][0])
    # adj(M)[j][k] = (-1)^(j+k) * det(M with row k and column j removed)
    sub = np.delete(np.delete(A, k, axis=0), j, axis=1)
    cof = det_mod(sub, p)
    if (j + k) % 2:
        cof = (-cof) % p
    denom = int(u[j]) * int(w[k]) % p
    alpha = cof * pow(denom, p - 2, p) % p
    return u, w, alpha


def gamma_tangent_space(N, field=None):
    """Codimension, inside the 60-dimensional space of projection matrices,
    of the joint kernel of the gradients of all maximal minors of L at N.

    Each corank-1 maximal minor M_i (delete column i) contributes the
    gradient v -> trace(adj(M_i) dM_i/dv) computed through the rank-1
    adjugate; minors of corank >= 2 contribute zero.
    """
    field = field or GF(17)
    if not isinstance(field, PrimeField):
        raise TypeError("tangent-space probe is implemented mod p only")
    p = field.p
    LN = build_LN(N, field)
    if LN.corank() < 2:
        raise ValueError("projection matrix is not on the degeneracy locus")
    spec = ProjectionSpec(N, "p2cubics", field)
    plane = spec.source_ring
    target = spec.target_ring
    composed = spec.composed_forms()
    rows9 = plane.monomials_of_degree(9)
    mons6 = plane.monomials_of_degree(6)
    mons3_target = target.monomials_of_degree(3)
    pos9 = {m: i for i, m in enumerate(rows9)}

    # mult-by-v_a matrices: degree-6 coefficients -> degree-9 coefficients
    mult = []
    for v in spec.forms:
        Ma = np.zeros((55, 28), dtype=np.int64)
        for c6, m6 in enumerate(mons6):
            prod = v.mul_term(m6, field.one)
            for m, c in prod.terms:
                Ma[pos9[m], c6] = c
        mult.append(Ma)

    # partial of each target cubic monomial by each target variable, then
    # evaluated on the composed forms: a degree-6 coefficient vector
    sub = {name: composed[j] for j, name in enumerate(target.names)}
    partial6 = np.zeros((6, 56, 28), dtype=np.int64)
    for col, mon in enumerate(mons3_target):
        tm = MPoly(target, ((mon, field.one),))
        for b in range(6):
            dm = tm.partial(b)
            if dm.is_zero():
                continue
            vec = coefficient_vector(dm.substitute(sub), mons6)
            partial6[b, col] = vec

    Lfull = np.asarray(LN.entries, dtype=np.int64) % p
    gradients = []
    for i in range(56):
        Mi = np.delete(Lfull, i, axis=1)
        if rank_mod(Mi, p) != 54:
            continue
        u, w, alpha = det_gradient_rank1(field, Mi)
        cols = [m for m in range(56) if m != i]
        # r_b = sum_m u[m] * partial6[b, m];  q_a = mult[a]^T w
        P = partial6[:, cols, :]  # 6 x 55 x 28
        r = np.tensordot(P, u, axes=([1], [0])) % p  # 6 x 28
        q = np.stack([Ma.T @ w % p for Ma in mult])  # 10 x 28
        g = (q @ r.T) % p  # 10 x 6, entry (a, b)
        g = g * alpha % p
        gradients.append(g.reshape(-1))
    if not gradients:
        return 0
    G = np.stack(gradients) % p
    return rank_mod(G, p)


# -- the generic unique cubic -----------------------------------------


def unique_cubic_analysis(N, field=None) -> dict:
    """For a projection with a one-dimensional space of cubics through the
    image: extract the cubic and measure its singular locus."""
    field = field or GF(17)
    LN = build_LN(N, field)
    if LN.corank() != 1:
        raise ValueError(f"corank is {LN.corank()}, expected 1")
    spec = ProjectionSpec(N, "p2cubics", field)
    (cubic,) = LN.kernel_cubics(spec.target_ring)
    sing = singular_locus(Ideal(spec.target_ring, [cubic]), 1)
    dim, degree = sing.dim_degree()
    return {
        "cubic": cubic,
        "singular_locus": sing,
        "dim": dim,
        "degree": degree,
        "nondegenerate": sing.graded_piece_dim(1) == 0,
        "proper": dim < spec.target_ring.nvars - 2,
    }
