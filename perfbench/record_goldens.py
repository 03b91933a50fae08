#!/usr/bin/env python3
"""Record the reference answers the benchmark checks against.

    python3 perfbench/record_goldens.py > perfbench/goldens.json

The product tables are computed on the unrelabelled coframe, and the
extension outcomes on the unscaled d-closed generators of bcvary10 at
t = 0, in the order ``EvaluatedComplex.kernel`` returns them.  Both are
invariant under the seeded relabelling and scaling the benchmark applies.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nilforms.algebra import build_complex  # noqa: E402
from nilforms.catalog import catalog_load  # noqa: E402
from nilforms.cohomology import EvaluatedComplex, full_report, zero_point  # noqa: E402
from nilforms.deformation import evaluate_se  # noqa: E402
from nilforms.errors import ObstructionNonvanishing  # noqa: E402
from nilforms.extension import solve_extension  # noqa: E402
from nilforms.lemmata import lemma_report  # noqa: E402

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402


def product_goldens() -> dict:
    factors = workloads._factors()
    out = {}
    for name, parts in workloads.PRODUCTS:
        se = workloads.product_se(name, [factors[f] for f in parts])
        ec = EvaluatedComplex(build_complex(se), ())
        out[name] = workloads.table_summary(full_report(ec), lemma_report(ec))
    return out


def extension_outcomes() -> dict:
    entry = catalog_load("bcvary10")
    alg = entry.se.algebra
    ec0 = EvaluatedComplex(build_complex(evaluate_se(entry.se, zero_point(alg.ring.m))), ())
    out = {}
    for p, q in ((4, 4), (3, 3)):
        outcomes = []
        for gv in ec0.kernel("stacked", p, q):
            omega0 = ec0.vec_to_form(gv, p, q, alg)
            try:
                result = solve_extension(entry.se, entry.beltrami, omega0, ec0=ec0, check_lemmata=False)
            except ObstructionNonvanishing as exc:
                result = exc
            outcomes.append(workloads.outcome_of(result))
        out[f"{p},{q}"] = outcomes
    return {"outcomes": out}


def main() -> None:
    goldens = {"product_tables": product_goldens(), "extension_batch": extension_outcomes()}
    json.dump(goldens, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
