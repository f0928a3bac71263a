"""The deficiency (Hartshorne-Rao-style) module of a projected surface,
computed entirely by linear algebra over F_17.

Each graded piece is the cokernel of a multiplication map between spaces
of plane forms; the six variables act by explicit matrices that are
checked to commute.  From the action matrices alone we read off the
Hilbert values and graded Betti numbers by iterated minimal covers -- no
syzygy Groebner bases.  Columns 0 and 1 of the Betti table are a minimal
presentation: the generators and the relations.

Run: python3 demos/deficiency_module.py
"""

from lforge import fixtures
from lforge.fields import GF
from lforge.rao import RaoModule, graded_betti
from lforge.rng import Rng
from lforge.veronese import ProjectionSpec

F = GF(17)


def random_center(rng):
    while True:
        N = [[rng.randrange(17) for _ in range(6)] for _ in range(10)]
        try:
            return ProjectionSpec(N, "p2cubics", F)
        except ValueError:
            continue


def main():
    spec = random_center(Rng(1))
    mod = RaoModule.from_projection(spec, kmax=4, certify=False)
    print("general center:")
    print("  Hilbert values (grades 0..4):", mod.hilbert_values(range(5)))
    tab = graded_betti(mod, hom_bound=2, deg_bound=8)
    print("  generators by degree:", tab.column(0))
    print("  relations by degree: ", tab.column(1))
    print("  graded Betti numbers through homological degree 2:")
    print("   ", dict(sorted(tab.entries.items())))
    print("  (keys are (homological degree, internal degree))")
    print()

    spec0 = ProjectionSpec(fixtures.n0_matrix(F), "p2cubics", F)
    mod0 = RaoModule.from_projection(spec0, kmax=4)
    print("the pinned special center:")
    print("  Hilbert values (grades 0..4):", mod0.hilbert_values(range(5)))
    print("  the extra 1 in grade 3 is the footprint of the second cubic")
    print("  through the surface; a general center has none")


if __name__ == "__main__":
    main()
