"""How many cubics pass through a projected Veronese surface?

The surface is the image of the plane under the ten cubic monomials,
projected from P^9 to P^5 along a 10x6 matrix N.  Whether the image lies
on one cubic or a pencil is decided by the corank of the 55x56 matrix
that sends each cubic on P^5 to its pullback, a plane form of degree 9:
the kernel of the projection in degree 3, found by linear algebra alone
-- no Groebner bases needed.

Run: python3 demos/cubic_dichotomy.py
"""

from lforge import fixtures
from lforge.fields import GF
from lforge.rng import Rng
from lforge.veronese import (
    ProjectionSpec,
    project,
    secant_avoidance,
    surface_cubics,
)

F = GF(17)


def random_center(rng):
    while True:
        N = [[rng.randrange(17) for _ in range(6)] for _ in range(10)]
        try:
            return ProjectionSpec(N, "p2cubics", F)
        except ValueError:
            continue


def main():
    print("number of cubics through the surface for ten random centers:")
    rng = Rng(4)
    for i in range(10):
        spec = random_center(rng)
        print(f"  draw {i}: corank {project(spec, 3).h0[3]}")
    print()
    print("(over a 17-element field roughly one draw in ten lands on the")
    print(" codimension-1 corank-2 stratum -- both values show up in a")
    print(" short run like this one)")
    print()

    spec = ProjectionSpec(fixtures.n0_matrix(F), "p2cubics", F)
    cubics = surface_cubics(project(spec, 3))
    print(f"the pinned special center: corank {len(cubics)}")
    print(f"  -> a pencil of {len(cubics)} cubics through the surface")
    cert = secant_avoidance(spec.center_forms(), spec.secant_ideal())
    print(f"  -> projection center avoids the secant variety: "
          f"{cert['empty']}")


if __name__ == "__main__":
    main()
