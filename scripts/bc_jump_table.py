#!/usr/bin/env python3
"""Survey the Bott-Chern number jump of the ten-dimensional family.

Walks a small grid of deformation parameters, rebuilds the deformed
fiber exactly at each point, and tabulates h_bc(4,4), the d-closed
(4,4)-dimension and the del-delbar image dimension.  The d-closed count
stays 21 while h_bc drops from 19 to 17 as soon as the parameters leave
the jump locus.
"""

from fractions import Fraction

from nilforms.catalog import catalog_load
from nilforms.cohomology import cohomology, dclosed_dim, ddbar_image_dim
from nilforms.deformation import fiber_complex
from nilforms.scalars import GaussianRational


def fiber_stats(entry, point):
    ec = fiber_complex(entry.se, entry.beltrami, point)
    return (
        cohomology(ec, "bott_chern", 4, 4),
        dclosed_dim(ec, 4, 4),
        ddbar_image_dim(ec, 4, 4),
    )


def main() -> None:
    entry = catalog_load("bcvary10")
    grid = [
        (0, 0, 0, 0),
        (Fraction(1, 5), 0, 0, 0),
        (0, Fraction(1, 5), 0, 0),
        (0, 0, Fraction(1, 5), 0),
        (0, 0, 0, Fraction(1, 5)),
        (Fraction(1, 5), Fraction(1, 7), 0, 0),
        (Fraction(1, 5), Fraction(1, 7), Fraction(1, 11), Fraction(1, 13)),
        (Fraction(-1, 3), Fraction(1, 3), Fraction(-1, 3), Fraction(1, 3)),
    ]
    print(f"{'t':>40}   h_bc(4,4)  dclosed  ddbar-image")
    for raw in grid:
        point = tuple(GaussianRational(x) for x in raw)
        hbc, dc, dd = fiber_stats(entry, point)
        label = "(" + ", ".join(str(x) for x in raw) + ")"
        print(f"{label:>40}   {hbc:9d}  {dc:7d}  {dd:11d}")


if __name__ == "__main__":
    main()
