"""Built-in manifold catalog and the end-to-end scenario runner.

Catalog entries carry structure equations, optional Beltrami families
and distinguished forms, and a golden block of expected values; every
expectation carries a provenance tag and the scenario runner refuses
untagged ones.  The Ugarte-Villacampa family and the completely
solvable Nakamura manifold are cited without printed structure
equations in the sources this catalog follows, so they are deliberately
absent; adding them needs the external references listed in the README.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .algebra import Form, FormAlgebra, StructureEquations, T10, VectorValuedForm
from .cohomology import dclosed_dim, ddbar_image_dim, generic_points, h_bott_chern, zero_point
from .deformation import fiber_complex
from .errors import UnknownEntry
from .extension import pkahler_extend
from .lemmata import dual_mild, mild, weak
from .positivity import sigma_q
from .scalars import PolyRing

DEFAULT_ORDER = 4


@dataclass
class GoldenValue:
    key: str
    expected: object
    provenance: str

    def __post_init__(self):
        if not self.provenance.strip():
            raise ValueError(f"golden value {self.key!r} lacks a provenance tag")


@dataclass
class CatalogEntry:
    name: str
    se: StructureEquations
    beltrami: Optional[VectorValuedForm] = None
    forms: Dict[str, Form] = field(default_factory=dict)
    golden: List[GoldenValue] = field(default_factory=list)

    def __post_init__(self):
        self.se.require_flat()  # every entry must validate on load


def _torus(n: int, name: str) -> CatalogEntry:
    alg = FormAlgebra(n, PolyRing(0, 0))
    se = StructureEquations(name, alg, {})
    sigma1 = sigma_q(1)
    kaehler = alg.zero()
    for i in range(1, n + 1):
        kaehler = kaehler + alg.monomial((i,), (i,), sigma1)
    return CatalogEntry(
        name=name,
        se=se,
        forms={"kaehler": kaehler},
        golden=[
            GoldenValue("h_bc(0,0)", 1, "trivial: constants"),
            GoldenValue("standard", True, "trivial: all differentials vanish"),
        ],
    )


def _iwasawa(order: int) -> CatalogEntry:
    """The Iwasawa manifold, with Nakamura's (1975) Kuranishi family in
    closed form: with D = t1 t4 - t2 t3,

      phi = theta_1 (x) (t1 gammabar^1 + t2 gammabar^2)
          + theta_2 (x) (t3 gammabar^1 + t4 gammabar^2)
          + theta_3 (x) (t5 gammabar^1 + t6 gammabar^2 - D gammabar^3),

    linear in the six harmonic directions plus the degree-2 term that
    makes it exactly integrable.  Nakamura's classes are (i) t1 = t2 =
    t3 = t4 = 0, (ii) D = 0 otherwise and (iii) D != 0.  The structure
    equations stay on the ring without parameters: they are the fiber at
    t = 0, and what deforms them lifts them to phi's ring."""
    alg = FormAlgebra(3, PolyRing(0, 0))
    se = StructureEquations("iwasawa3", alg, {3: alg.monomial((1, 2), (), -1)})
    ring = PolyRing(6, order)
    alg_t = FormAlgebra(3, ring)
    t1, t2, t3, t4, t5, t6 = (ring.t(i) for i in range(1, 7))
    g1, g2, g3 = (alg_t.gammabar(j) for j in (1, 2, 3))
    phi = VectorValuedForm(
        alg_t,
        T10,
        {
            1: g1.scale(t1) + g2.scale(t2),
            2: g1.scale(t3) + g2.scale(t4),
            3: g1.scale(t5) + g2.scale(t6) - g3.scale(t1 * t4 - t2 * t3),
        },
    )
    return CatalogEntry(
        name="iwasawa3",
        se=se,
        beltrami=phi,
        forms={"balanced": _balanced(alg)},
        golden=[
            GoldenValue("weak(2)", True, "literature: the complex parallelizable case satisfies the (2,3)-th weak lemma"),
            GoldenValue("dual_mild(2,3)", True, "literature: and the dual mild one"),
            GoldenValue("mild(2,3)", False, "literature: but not the mild one"),
            GoldenValue("betti", [1, 4, 8, 10, 8, 4, 1], "derived: total-complex ranks, exhaustive"),
        ],
    )


def _balanced(alg: FormAlgebra) -> Form:
    """sum over |I| = n-1 of gamma^I ^ gammabar^I."""
    balanced = alg.zero()
    for I in alg.layout.subsets[alg.n - 1]:
        balanced = balanced + alg.monomial(I, I)
    return balanced


def _bcvary(order: int) -> CatalogEntry:
    ring = PolyRing(4, order)
    alg = FormAlgebra(5, ring)
    se = StructureEquations(
        "bcvary10",
        alg,
        {4: alg.monomial((1,), (3,)), 5: alg.monomial((3,), (4,))},
    )
    t1, t2, t3, t4 = (ring.t(i) for i in range(1, 5))
    phi = VectorValuedForm(
        alg,
        T10,
        {
            2: alg.gammabar(4).scale(t1) + alg.gammabar(5).scale(t2),
            5: alg.gammabar(4).scale(t3) + alg.gammabar(5).scale(t4),
        },
    )
    return CatalogEntry(
        name="bcvary10",
        se=se,
        beltrami=phi,
        forms={"balanced": _balanced(alg)},
        golden=[
            GoldenValue("h_bc(4,4)@0", 19, "literature: varies from 19 to 17"),
            GoldenValue("h_bc(4,4)@generic", 17, "literature: varies from 19 to 17"),
            GoldenValue("dclosed(4,4)", 21, "literature: which is equal to 21"),
            GoldenValue("ddbar(4,4)@0", 2, "literature: dim del delbar of the (3,3)-level is 2"),
            GoldenValue("ddbar(4,4)@generic", 4, "literature: and 4 for general t"),
            GoldenValue("mild(4,5)@0", True, "literature: satisfies the (4,5)-th mild lemma"),
            GoldenValue("strong(4,5)@0", False, "literature: but not the strong one"),
        ],
    )


_ABELIAN_RE = re.compile(r"^abelian_(\d+)$")


def catalog_names() -> List[str]:
    return ["torus3", "iwasawa3", "bcvary10", "abelian_n"]


def catalog_load(name: str, order: int = DEFAULT_ORDER) -> CatalogEntry:
    """Load a validated entry; abelian_n takes a literal dimension, e.g.
    abelian_4 (torus3 is the n = 3 case under its own name)."""
    if name == "torus3":
        return _torus(3, "torus3")
    if name == "iwasawa3":
        return _iwasawa(order)
    if name == "bcvary10":
        return _bcvary(order)
    m = _ABELIAN_RE.match(name)
    if m:
        n = int(m.group(1))
        if not 1 <= n <= 8:
            raise UnknownEntry(f"abelian dimension {n} out of the supported range 1..8")
        return _torus(n, name)
    # catalog_names() lists the abelian family as abelian_n, a name it refuses
    available = ", ".join(catalog_names()[:-1])
    raise UnknownEntry(f"unknown catalog entry {name!r}; available: {available}, abelian_<k> (k = 1..8)")


# -- scenarios ---------------------------------------------------------------


@dataclass
class CheckResult:
    key: str
    expected: object
    actual: object
    provenance: str

    @property
    def passed(self) -> bool:
        return self.expected == self.actual

    def to_json_dict(self) -> dict:
        return {
            "key": self.key,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.passed,
            "provenance": self.provenance,
        }


@dataclass
class ScenarioReport:
    scenario: str
    checks: List[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "pass": self.passed,
            "checks": [c.to_json_dict() for c in self.checks],
        }


def _check(golden: GoldenValue, actual) -> CheckResult:
    return CheckResult(golden.key, golden.expected, actual, golden.provenance)


def _scenario_bcvary_bc_jump() -> ScenarioReport:
    entry = catalog_load("bcvary10")
    g = {gv.key: gv for gv in entry.golden}
    ec0 = fiber_complex(entry.se, entry.beltrami, zero_point(4))
    checks = [_check(g["h_bc(4,4)@0"], h_bott_chern(ec0, 4, 4))]
    for pt in generic_points(4):
        ect = fiber_complex(entry.se, entry.beltrami, pt)
        checks.append(_check(g["h_bc(4,4)@generic"], h_bott_chern(ect, 4, 4)))
        checks.append(_check(g["ddbar(4,4)@generic"], ddbar_image_dim(ect, 4, 4)))
    checks.append(_check(g["ddbar(4,4)@0"], ddbar_image_dim(ec0, 4, 4)))
    return ScenarioReport("bcvary_bc_jump", checks)


def _scenario_iwasawa_lemma_taxonomy() -> ScenarioReport:
    entry = catalog_load("iwasawa3")
    g = {gv.key: gv for gv in entry.golden}
    ec = fiber_complex(entry.se, None, ())
    checks = [
        _check(g["weak(2)"], weak(ec, 2)[0]),
        _check(g["dual_mild(2,3)"], dual_mild(ec, 2, 3)[0]),
        _check(g["mild(2,3)"], mild(ec, 2, 3)[0]),
    ]
    return ScenarioReport("iwasawa_lemma_taxonomy", checks)


def _scenario_bcvary_dclosed_21() -> ScenarioReport:
    entry = catalog_load("bcvary10")
    g = {gv.key: gv for gv in entry.golden}
    ec0 = fiber_complex(entry.se, entry.beltrami, zero_point(4))
    checks = [_check(g["dclosed(4,4)"], dclosed_dim(ec0, 4, 4))]
    for pt in generic_points(4):
        ect = fiber_complex(entry.se, entry.beltrami, pt)
        checks.append(_check(g["dclosed(4,4)"], dclosed_dim(ect, 4, 4)))
    return ScenarioReport("bcvary_dclosed_21", checks)


def _scenario_pkahler_extension_demo() -> ScenarioReport:
    entry = catalog_load("bcvary10")
    ext = pkahler_extend(entry.se, entry.beltrami, entry.forms["balanced"], samples=50)
    checks = [
        _check(
            GoldenValue(
                "extension d-closed through order 4",
                True,
                "literature: the d-closed extension exists under the (4,5)-th mild lemma",
            ),
            ext.state.d_closed_through_order,
        ),
        _check(
            GoldenValue(
                "transverse at sampled small t",
                True,
                "literature: transversality is open along smooth real extensions",
            ),
            ext.transverse_at_all_points,
        ),
    ]
    return ScenarioReport("pkahler_extension_demo", checks)


SCENARIOS: Dict[str, Callable[[], ScenarioReport]] = {
    "bcvary_bc_jump": _scenario_bcvary_bc_jump,
    "iwasawa_lemma_taxonomy": _scenario_iwasawa_lemma_taxonomy,
    "bcvary_dclosed_21": _scenario_bcvary_dclosed_21,
    "pkahler_extension_demo": _scenario_pkahler_extension_demo,
}


def run_scenario(name: str) -> ScenarioReport:
    if name not in SCENARIOS:
        raise UnknownEntry(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        )
    return SCENARIOS[name]()
