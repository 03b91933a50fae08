#!/usr/bin/env python3
"""Survey the extension solver across every bidegree of the ten-
dimensional family.

For each (p,q) this runs the order-by-order solver on a basis of the
d-closed invariant forms with the lemma precondition check disabled, and
reports how many inputs extend with no correction, extend with a
genuine series correction, or hit an exactly unsolvable order.  The
(4,4) row is the one with a clean mild-lemma hypothesis; elsewhere both
outcomes occur, which is the quantitative shape of the lemma failures.
"""

from nilforms.catalog import catalog_load
from nilforms.cohomology import zero_point
from nilforms.deformation import fiber_complex
from nilforms.errors import ObstructionNonvanishing
from nilforms.extension import solve_extension
from nilforms.lemmata import mild


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
            # mild holds on an empty bidegree, (p,n+1) when q = n
            pair = all(mild(ec0, a, b)[0] for a, b in ((p, q + 1), (q, p + 1)) if ec0.dim(a, b))
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
