import pytest

from nilforms.algebra import build_complex
from nilforms.catalog import catalog_load
from nilforms.cohomology import EvaluatedComplex, zero_point
from nilforms.deformation import evaluate_se


@pytest.fixture(scope="session")
def torus3():
    return catalog_load("torus3")


@pytest.fixture(scope="session")
def iwasawa3():
    return catalog_load("iwasawa3")


@pytest.fixture(scope="session")
def bcvary10():
    return catalog_load("bcvary10")


@pytest.fixture(scope="session")
def ec_torus(torus3):
    return EvaluatedComplex(build_complex(torus3.se), ())


@pytest.fixture(scope="session")
def ec_iwasawa(iwasawa3):
    return EvaluatedComplex(build_complex(iwasawa3.se), ())


@pytest.fixture(scope="session")
def ec_bcvary0(bcvary10):
    se0 = evaluate_se(bcvary10.se, zero_point(4))
    return EvaluatedComplex(build_complex(se0), ())


def _product_se(name, factors, perm=None):
    """Structure equations of a product of constant-coefficient factors,
    with the coframe relabelled by perm (1-based, identity by default)."""
    from nilforms.algebra import FormAlgebra, StructureEquations
    from nilforms.scalars import PolyRing

    n = sum(f.n for f in factors)
    perm = perm or {i: i for i in range(1, n + 1)}
    alg = FormAlgebra(n, PolyRing(0, 0))
    d = {}
    offset = 0
    for f in factors:
        for i, form in f.d_coframe.items():
            g = alg.zero()
            for (I, J), c in form.coeffs.items():
                term = alg.scalar_form(c.constant_term())
                for a in I:
                    term = term.wedge(alg.gamma(perm[a + offset]))
                for b in J:
                    term = term.wedge(alg.gammabar(perm[b + offset]))
                g = g + term
            d[perm[i + offset]] = g
        offset += f.n
    return StructureEquations(name, alg, d)


#: dgamma^1 = i gamma^1 ^ gamma^3, dgamma^2 = i gamma^2 ^ gamma^3: flat
#: and integrable but not unimodular, and strong holds at (2,2) while
#: deldelbar maps onto (2,3) and (3,2) with rank 2, so each term of
#: strong's rank identity counts
SOLVABLE = {
    "format": "nilforms.se/1",
    "name": "solvable3",
    "n": 3,
    "m": 0,
    "d": {
        "1": [{"coeff": "i", "factors": ["1", "3"]}],
        "2": [{"coeff": "i", "factors": ["2", "3"]}],
    },
}


def heisenberg_c(n):
    """H(n,C), n = 2k+1, the complex Heisenberg group, which is not a
    product: d gamma^n = -(gamma^1 ^ gamma^2 + ... + gamma^{2k-1} ^
    gamma^{2k})."""
    from nilforms.algebra import FormAlgebra, StructureEquations
    from nilforms.scalars import PolyRing

    alg = FormAlgebra(n, PolyRing(0, 0))
    d = alg.zero()
    for i in range(1, n, 2):
        d = d + alg.monomial((i, i + 1), (), -1)
    return StructureEquations(f"heisenberg_c_{n}", alg, {n: d})


@pytest.fixture(scope="session")
def iwasawa_c():
    """Iwasawa x C (n = 4) at t = 0."""
    return build_complex(_product_se("iwasawa_c", [catalog_load("iwasawa3").se, catalog_load("abelian_1").se]))


@pytest.fixture(scope="session")
def bcvary10_c():
    """bcvary10 x C (n = 6): the structure equations and Beltrami family
    of bcvary10 lifted to six coframe symbols, so the family acts on the
    first factor and gamma^6 is closed; (se, phi), gated by the
    Maurer-Cartan oracle ``check_integrability``."""
    from nilforms.algebra import T10, Form, FormAlgebra, StructureEquations, VectorValuedForm
    from oracles import check_integrability

    bc = catalog_load("bcvary10")
    alg = FormAlgebra(6, bc.se.algebra.ring)

    def lift(f):
        return Form(alg, dict(f.coeffs))

    se = StructureEquations("bcvary10_c", alg, {i: lift(f) for i, f in bc.se.d_coframe.items()})
    phi = VectorValuedForm(alg, T10, {i: lift(f) for i, f in bc.beltrami.components.items()})
    ok, residual = check_integrability(se, phi)
    assert ok, residual
    return se, phi


@pytest.fixture(scope="session")
def reference_complexes():
    """(label, complex, point) for the assembly and strong-basis oracles,
    point the label of the complex (``EvaluatedComplex.point``): every
    catalog entry at t = 0 and the deformed bcvary10 family at zero_point
    and at a generic point, each evaluated there first (``evaluate_se``),
    bcvary10 deformed at both generic points and at a complex point, and
    the four benchmark products (Iwasawa^2, Iwasawa x C^3,
    bcvary10(0) x C, Iwasawa^2 x C) under a seeded coframe permutation."""
    import random
    from fractions import Fraction

    from nilforms.cohomology import generic_points
    from nilforms.deformation import deform_complex
    from nilforms.scalars import GaussianRational

    out = []
    for name in ("torus3", "iwasawa3", "abelian_4", "bcvary10"):
        se = catalog_load(name).se
        point = zero_point(se.algebra.ring.m)
        out.append((f"{name}@0", build_complex(evaluate_se(se, point)), point))
    bc = catalog_load("bcvary10")
    family = deform_complex(bc.se, bc.beltrami)
    for label, point in (("bcvary10 family@0", zero_point(4)), ("bcvary10 family@generic", generic_points(4)[0])):
        out.append((label, build_complex(evaluate_se(family, point)), point))
    deformed_point = (
        GaussianRational(Fraction(1, 3), Fraction(1, 5)),
        GaussianRational(Fraction(-1, 4)),
        GaussianRational(0, Fraction(1, 2)),
        GaussianRational(Fraction(2, 7)),
    )
    for k, pt in enumerate(generic_points(4) + (deformed_point,)):
        out.append((f"bcvary10 deformed#{k}", build_complex(deform_complex(bc.se, bc.beltrami, point=pt)), ()))
    iw = catalog_load("iwasawa3").se
    c1, c3 = catalog_load("abelian_1").se, catalog_load("abelian_3").se
    bc0 = evaluate_se(bc.se, zero_point(4))
    rng = random.Random(11)
    for name, factors in (
        ("iwasawa2", [iw, iw]),
        ("iwasawa_c3", [iw, c3]),
        ("bcvary10_0_c", [bc0, c1]),
        ("iwasawa2_c", [iw, iw, c1]),
    ):
        n = sum(f.n for f in factors)
        perm = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
        out.append((name, build_complex(_product_se(name, factors, perm)), ()))
    return out
