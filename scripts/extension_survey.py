#!/usr/bin/env python3
"""Survey the extension solver across every bidegree of the ten-
dimensional family.

For each (p,q) this runs the order-by-order solver on a basis of the
d-closed invariant forms with the lemma precondition check disabled, and
reports whether the paper's hypothesis, the (p,q+1)- and (q,p+1)-th mild
lemmas at t = 0, holds (``failing_hypothesis``) and how many inputs
extend with no correction, extend with a genuine series correction, or
hit an exactly unsolvable order.  Where the hypothesis holds, at (0,0)
and at (4,4) through (5,5), no input is obstructed, as the theorem says;
most other rows hold obstructed inputs, which is the quantitative shape
of the lemma failures.
"""

from nilforms.catalog import catalog_load
from nilforms.cohomology import zero_point
from nilforms.deformation import fiber_complex
from nilforms.errors import ObstructionNonvanishing
from nilforms.extension import failing_hypothesis, solve_extension


def main() -> None:
    entry = catalog_load("bcvary10")
    alg = entry.se.algebra
    ec0 = fiber_complex(entry.se, None, zero_point(alg.ring.m))
    print(f"{'(p,q)':>6} {'mild pair':>10} {'d-closed':>9} {'plain':>6} "
          f"{'corrected':>10} {'obstructed':>11}")
    for p in range(alg.n + 1):
        for q in range(alg.n + 1):
            if not ec0.dim(p, q):
                continue
            gens = ec0.kernel("stacked", p, q)
            if not gens:
                continue
            pair = failing_hypothesis(ec0, p, q) is None
            plain = corrected = obstructed = 0
            for gv in gens:
                omega0 = ec0.vec_to_form(gv, p, q, alg)
                try:
                    st = solve_extension(
                        entry.se, entry.beltrami, omega0,
                        ec0=ec0, check_lemmata=False,
                    )
                except ObstructionNonvanishing:
                    obstructed += 1
                    continue
                if st.omega == omega0:
                    plain += 1
                else:
                    corrected += 1
            print(f"({p},{q})".rjust(6), str(pair).rjust(10), str(len(gens)).rjust(9),
                  str(plain).rjust(6), str(corrected).rjust(10), str(obstructed).rjust(11))


if __name__ == "__main__":
    main()
