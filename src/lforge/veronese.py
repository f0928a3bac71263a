"""Veronese maps, catalecticants, central projections and their image
ideals (``project``; the degree-3 generators of a projected plane are the
cubics through the surface, their number the corank of the 55x56 degree-3
matrix of the projection's ideals.ring_map), the matrix L_N(lambda) of a
pencil of centers over F[lambda], secant-avoidance certificates and the
tangent-space probe of the degeneracy locus.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .fields import GF, PrimeField
from . import fixtures
from .ideals import (
    Ideal,
    ImageComputation,
    form_matrix,
    image_ideal,
    linear_section_reduce,
    minors_ideal,
    ring_map,
    singular_locus,
)
from .linalg import (
    matmul_mod,
    nullspace_mod,
    rank_mod,
    rank_over,
    zeros_over,
)
from .mpoly import PolynomialRing
from .snf import PolyMatrix
from .unipoly import UniPoly


def veronese_map(ring, d: int):
    """The degree-d monomials in the m+1 variables of ring as a fixed-order
    form list, for the two Veronese maps the projections use, each in its
    classical convention: (m=2, d=3) is the plane cubic Veronese in the
    order (x^3, y^3, z^3, 3x^2y, 3xy^2, 3x^2z, 3xz^2, 3y^2z, 3yz^2, 6xyz),
    with multinomial coefficients, and (m=3, d=2) lists the entries of the
    symmetric rank-1 matrix s.s^T as
    (s0^2, s1^2, s2^2, s0s1, s0s2, s0s3, s1s2, s1s3, s2s3, s3^2), unscaled.
    Any other (m, d) raises ValueError."""
    m = ring.nvars - 1
    if (m, d) == (2, 3):
        x, y, z = ring.gens()
        return [
            x**3, y**3, z**3,
            3 * x**2 * y, 3 * x * y**2,
            3 * x**2 * z, 3 * x * z**2,
            3 * y**2 * z, 3 * y * z**2,
            6 * x * y * z,
        ]
    if (m, d) == (3, 2):
        s = ring.gens()
        return [
            s[0] ** 2, s[1] ** 2, s[2] ** 2,
            s[0] * s[1], s[0] * s[2], s[0] * s[3],
            s[1] * s[2], s[1] * s[3], s[2] * s[3],
            s[3] ** 2,
        ]
    raise ValueError(f"no Veronese map of degree {d} on P^{m}")


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
            self.forms = veronese_map(self.source_ring, 3)
            self.coord_names = fixtures.P9_NAMES
        elif kind == "p3quadrics":
            self.source_ring = PolynomialRing(
                self.field, tuple(f"s{i}" for i in range(4))
            )
            self.forms = veronese_map(self.source_ring, 2)
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
        R = self.source_ring
        return [R.dot([R.const(c) for c in col], self.forms)
                for col in zip(*self.N)]

    def center_forms(self):
        """Linear forms on the ambient space cutting out the center."""
        R = self.ambient_ring
        return [R.dot([R.const(c) for c in col], R.gens())
                for col in zip(*self.N)]

    def secant_ideal(self) -> Ideal:
        """3x3 minors of the catalecticant: the secant locus of the Veronese."""
        M = catalecticant(self.kind, self.field)
        return minors_ideal(M, 3, ring=self.ambient_ring)


def project(spec: ProjectionSpec, bound: int = 5) -> ImageComputation:
    """Image ideal of the projected Veronese with its per-degree h0 table."""
    return image_ideal(spec.composed_forms(), spec.target_ring, bound)


# -- the cubics through the surface and the pencil matrix L_N(lambda) --


def surface_cubics(res: ImageComputation) -> list:
    """The cubics through a projected Veronese: the degree-3 generators of
    project(spec, bound), bound >= 3.  When the kernel is zero in degrees 1
    and 2 they span its degree-3 part, so there are res.h0[3] of them, the
    corank of the degree-3 matrix of the ring map (55x56 for a plane-cubic
    center); otherwise ValueError."""
    if res.h0.get(1) or res.h0.get(2):
        raise ValueError("the image lies on a hyperplane or a quadric; the "
                         "cubic generators are not the degree-3 kernel")
    return [g for g in res.ideal.gens if g.degree() == 3]


def build_LN(N, field=None) -> PolyMatrix:
    """L_N(lambda), the 55x56 matrix over F[lambda] of a pencil N: a 10x6
    grid of univariate polynomials of lambda-degree at most D (constant
    entries count as degree 0).  Homogenized with a second parameter mu,
    entry (i, j) is sum_k c_k lambda^k mu^(D - k), and the j-th composed
    form, one ring.dot of those entries with the ten Veronese cubics, is
    homogeneous of degree 3 + D on (x, y, z, lambda, mu).  So the degree-3
    matrix of their ring_map expands every target cubic monomial at once.
    The lambda^k coefficient of entry (m, j) is the coefficient of
    m * lambda^k * mu^(3D - k) in the image of the j-th monomial."""
    field = field or GF(17)
    if len(N) != 10 or any(len(r) != 6 for r in N):
        raise ValueError("expected a 10x6 matrix")
    var = next((e.var for row in N for e in row if isinstance(e, UniPoly)),
               "lambda")
    coeffs = [[e.coeffs if isinstance(e, UniPoly) else [field.of(e)]
               for e in row] for row in N]
    D = max(len(c) for row in coeffs for c in row) - 1
    plane = PolynomialRing(field, ("x", "y", "z"))
    big = PolynomialRing(field, ("x", "y", "z", "l", "m"))
    forms = [big.convert(v)
             for v in veronese_map(plane, 3)]
    pack = big.code.pack
    entries = [[big.from_dict({pack((0, 0, 0, k, D - k)): c
                               for k, c in enumerate(e)}) for e in row]
               for row in coeffs]
    composed = [big.dot(forms, [row[j] for row in entries]) for j in range(6)]
    target = PolynomialRing(field, tuple(f"y{j}" for j in range(6)))
    [(_, L)] = islice(ring_map(composed, target), 3, 4)
    # the rows of L on x^a y^b z^c l^k m^(D-k) with a + b + c = 9 hold the
    # coefficient of l^k in row x^a y^b z^c of the plane's degree 9
    E = big.exponents(3 * (3 + D))
    cols = np.flatnonzero(E[:, :3].sum(axis=1) == 9)
    r, k = plane.positions(E[cols, :3], 9), E[cols, 3]
    cube = zeros_over(field, (55, 3 * D + 1, 56))
    cube[r, k] = L[cols]
    return PolyMatrix([[UniPoly(field, cube[i, :, j], var) for j in range(56)]
                       for i in range(55)], field, var)


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


def gamma_tangent_space(spec: ProjectionSpec):
    """Codimension, inside the 60-dimensional space of projection matrices,
    of the joint kernel of the gradients of all maximal minors of L at the
    center of spec (a 10x6 projection of the plane cubic Veronese).  E2 and
    L are the degree-2 and degree-3 matrices of one ring_map.

    The gradients are read off the two kernels of L, with no adjugate.  L
    is 55x56; at corank 2 (rank 54) let ker L = <u_1, u_2> and
    ker L^T = <w>.  The minor M_i (L without column i) has left kernel
    <w> too, and ker M_i = {u in ker L : u_i = 0}.  When that is a line
    <v_i>, adj M_i = alpha_i v_i w^T with alpha_i != 0, so the gradient
    of det M_i is alpha_i (v -> w^T dL/dv v_i); a minor of corank >= 2
    has a zero adjugate and contributes nothing.  The vectors
    v_i = u_2[i] u_1 - u_1[i] u_2 span ker L, as u_1 and u_2 are
    independent, so the gradients span the same space as the two rows
    v -> w^T dL/dv u_k.  Row k has entry (a, b) = q_a . r_{k,b} with
    q = w^T mult and r_k = u_k^T partial6.  At corank above 2 every M_i
    has corank >= 2 and the codimension is 0.
    """
    field = spec.field
    if not isinstance(field, PrimeField):
        raise TypeError("tangent-space probe is implemented mod p only")
    if spec.kind != "p2cubics" or spec.ncols != 6:
        raise ValueError("expected a 10x6 projection of the plane cubics")
    p = field.p
    target = spec.target_ring
    (_, E2), (_, L) = islice(ring_map(spec.composed_forms(), target), 2, 4)
    U = nullspace_mod(L, p)
    if U.shape[1] < 2:
        raise ValueError("projection matrix is not on the degeneracy locus")
    if U.shape[1] > 2:
        return 0
    w = nullspace_mod(L.T, p)[:, 0]

    # mult-by-v_a matrices, side by side: degree-6 coefficients -> degree-9
    mult = form_matrix([spec.forms], [6] * 10, [9])

    # partial of each target cubic monomial by each target variable,
    # evaluated on the composed forms: d(mon)/dy_b = a_b * mon/y_b, whose
    # image is a column of E2 (on mons6)
    E3 = target.exponents(3)
    col, b = np.nonzero(E3)
    quo = target.quotient_positions(3)[col, b]
    partial6 = zeros_over(field, (56, 6, 28))
    # widened: a * E2 wraps in uint8 once 3 (p-1) > 255
    partial6[col, b] = (E3[col, b, None] * E2[:, quo].T.astype(np.int64)
                        % p)
    partial6 = partial6.reshape(56, 6 * 28)

    q = matmul_mod(w, mult, p).reshape(10, 28)
    r = matmul_mod(U.T, partial6, p).reshape(2 * 6, 28)
    # row k, entry (a, b): q_a . r_{k, b}
    G = matmul_mod(q, r.T, p).reshape(10, 2, 6).transpose(1, 0, 2)
    return rank_mod(G.reshape(2, 60), p)


# -- the generic unique cubic -----------------------------------------


def unique_cubic_analysis(spec: ProjectionSpec) -> dict:
    """For a projection with a one-dimensional space of cubics through the
    image: extract the cubic and measure its singular locus."""
    cubics = surface_cubics(project(spec, 3))
    if len(cubics) != 1:
        raise ValueError(f"corank is {len(cubics)}, expected 1")
    (cubic,) = cubics
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
