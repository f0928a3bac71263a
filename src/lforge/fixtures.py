"""Pinned input data: the special projection matrices, the catalecticant
matrices, and the special plane of the degree-8 construction.

The two projection matrices ship as plain-text fixture files whose sha256
digests are pinned here; everything else is small enough to live inline.
"""

from __future__ import annotations

import os

from .fields import GF
from .mpoly import PolynomialRing
from .textio import data_lines
from .unipoly import parse_unipoly

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")

_DIGESTS = {
    "n0.txt": "42ffe22cf4459e77647d61c46403adc360aa990bd44d6156fb363f0d7177c109",
    "nlambda.txt": "24d1829c3788c37b640c3737a28cb4b6239052c098e8d7c8644f163326c7d5e3",
}


class FixtureError(RuntimeError):
    pass


def _read_fixture(name: str) -> str:
    # imported here: loading hashlib (OpenSSL) costs about 3 MB of RSS,
    # which a process that reads no fixture need not pay
    import hashlib

    path = os.path.join(FIXTURE_DIR, name)
    with open(path, "rb") as fh:
        blob = fh.read()
    digest = hashlib.sha256(blob).hexdigest()
    if name in _DIGESTS and digest != _DIGESTS[name]:
        raise FixtureError(
            f"fixture {name} digest mismatch: {digest} != {_DIGESTS[name]}"
        )
    return blob.decode("utf-8")


def n0_matrix(field=None):
    """The 10x6 characteristic-17 projection matrix, rows as in the source."""
    field = field or GF(17)
    rows = []
    for line in data_lines(_read_fixture("n0.txt")):
        rows.append([field.of(int(tok)) for tok in line.split()])
    if len(rows) != 10 or any(len(r) != 6 for r in rows):
        raise FixtureError("n0 fixture must be a 10x6 integer grid")
    return rows


def nlambda_matrix(field=None):
    """The 10x6 pencil N(lambda) with univariate-polynomial entries, written
    in L in the fixture file."""
    field = field or GF(17)
    rows = []
    for line in data_lines(_read_fixture("nlambda.txt")):
        rows.append([parse_unipoly(tok, field, "lambda", "L")
                     for tok in line.split()])
    if len(rows) != 10 or any(len(r) != 6 for r in rows):
        raise FixtureError("nlambda fixture must be a 10x6 grid")
    return rows


P9_NAMES = tuple(f"a{i}" for i in range(10))


def catalecticant_p2_cubics(field=None):
    """3x6 catalecticant of a plane cubic's second partials, in the dual
    coordinates a0..a9 of the cubic Veronese of the plane."""
    field = field or GF(17)
    R = PolynomialRing(field, P9_NAMES)
    a = R.gens()
    return [
        [3 * a[0], a[4], a[6], 2 * a[3], 2 * a[5], a[9]],
        [a[3], 3 * a[1], a[8], 2 * a[4], a[9], 2 * a[7]],
        [a[5], a[7], 3 * a[2], a[9], 2 * a[6], 2 * a[8]],
    ]


P3Q_NAMES = ("a", "b", "c", "x", "y", "z", "t", "u", "v", "w")


def catalecticant_p3_quadrics(field=None):
    """Symmetric 4x4 matrix whose 2x2 minors cut out the quadric Veronese of
    3-space inside the 9-dimensional projective space (a,b,c,x,y,z,t,u,v,w)."""
    field = field or GF(17)
    R = PolynomialRing(field, P3Q_NAMES)
    a, b, c, x, y, z, t, u, v, w = R.gens()
    return [
        [a, x, y, z],
        [x, b, t, u],
        [y, t, c, v],
        [z, u, v, w],
    ]


# coefficient rows of the seven linear equations cutting the special plane
# inside the span of the quadric Veronese, variable order (a,b,c,x,y,z,t,u,v,w)
L_PLANE_ROWS = (
    (-2, 1, 1, 0, -2, -1, 2, 2, 2, -1),
    (2, 2, 1, 1, 1, -1, -1, 2, -2, -1),
    (-1, -2, -2, -2, 1, 0, 1, 0, 1, 1),
    (2, 1, -2, 0, 2, -2, 0, 2, -1, 1),
    (1, 1, 0, 0, 0, -2, 2, 1, 2, -1),
    (0, 0, -2, -2, 1, -1, -1, 2, 0, 1),
    (0, 0, -1, 2, -1, 0, 0, -2, -1, 2),
)
