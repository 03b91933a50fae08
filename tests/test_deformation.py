import contextlib
import importlib.util
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from nilforms.algebra import (
    Form,
    FormAlgebra,
    StructureEquations,
    T01,
    T10,
    VectorValuedForm,
    build_complex,
    contract,
    simultaneous_contract,
)
from nilforms.catalog import catalog_load
from nilforms.cohomology import EvaluatedComplex, full_report, generic_points, zero_point
from nilforms.deformation import (
    as_beltrami,
    coframe_transform,
    deform_complex,
    evaluate_se,
    fiber_complex,
)
from nilforms.errors import FlatnessError, IntegrabilityError, NonInvertibleCoframe, NotPerturbative
from nilforms.extension import extension_map
from nilforms.io import obj_to_se, se_emit
from nilforms.leibniz import Layout
from nilforms.lemmata import lemma_report
from nilforms.scalars import DetRng, GaussianRational, PolyRing, QI

from oracles import (
    check_integrability,
    coframe_endo_dense,
    deform_complex_dense,
    del_on_vectors,
    delbar_on_vectors,
    delbar_on_vectors_by_table,
    dense_inverse,
    fiber_point,
    form_basis,
    jacobi_violation,
    kuranishi_expand,
    lie_brackets,
    main1_residual,
    nonzero_gaussian,
    pairing_scan_bracket,
    reconstruct_d,
    schouten,
    vvf_homogeneous_part,
)
from test_io_cli import NAKAMURA_CLASSES


def _random_beltrami(alg, rng, comps=2):
    out = {}
    for _ in range(comps):
        i = rng.next_int(alg.n) + 1
        j = rng.next_int(alg.n) + 1
        cur = out.get(i, alg.zero())
        out[i] = cur + alg.gammabar(j).scale(nonzero_gaussian(rng, 3))
    return VectorValuedForm(alg, T10, out)


# -- brackets -----------------------------------------------------------------


def test_bcvary_bracket_table(bcvary10):
    tab = lie_brackets(bcvary10.se)
    n = 5
    one = bcvary10.se.algebra.ring.one()
    assert tab.bracket(n + 2, 0) == {3: one}  # [thetabar3, theta1] = theta4
    assert tab.bracket(n + 3, 2) == {4: one}  # [thetabar4, theta3] = theta5
    # the conjugate relations follow, and every other mixed bracket vanishes
    assert tab.bracket(n + 0, 2) == {n + 3: -one}  # [thetabar1, theta3] = -thetabar4
    assert tab.bracket(n + 2, 3) == {n + 4: -one}  # [thetabar3, theta4] = -thetabar5
    for k in range(n):
        for i in range(n):
            if (k, i) in ((2, 0), (3, 2), (0, 2), (2, 3)):
                continue
            assert tab.bracket(n + k, i) == {}, (k, i)
    # holomorphic-holomorphic brackets all vanish (the structure is abelian)
    for a in range(n):
        for b in range(n):
            assert tab.bracket(a, b) == {}, (a, b)


def test_iwasawa_bracket_sign(iwasawa3):
    """d eta^3 = -eta^1 ^ eta^2 together with d omega(x,y) = -omega([x,y])
    forces [theta1, theta2] = +theta3 (evaluating the pairing with the
    determinant convention); the duality round-trip confirms it."""
    tab = lie_brackets(iwasawa3.se)
    assert tab.bracket(0, 1) == {2: iwasawa3.se.algebra.ring.one()}
    rebuilt = reconstruct_d(tab)
    for i in (1, 2, 3):
        assert rebuilt[i] == iwasawa3.se.d_coframe[i]


def test_abelian_brackets_zero(torus3):
    tab = lie_brackets(torus3.se)
    for a in range(6):
        for b in range(6):
            assert tab.bracket(a, b) == {}


def test_bracket_duality_roundtrip_bcvary(bcvary10):
    tab = lie_brackets(bcvary10.se)
    rebuilt = reconstruct_d(tab)
    for i in range(1, 6):
        assert rebuilt[i] == bcvary10.se.d_coframe[i]


#: the four benchmark products among the reference complexes
PRODUCTS = ("iwasawa2", "iwasawa_c3", "bcvary10_0_c", "iwasawa2_c")


def test_brackets_read_off_d_equal_the_pairing_scan_and_flatness_is_jacobi(reference_complexes):
    """On the catalog entries, the four benchmark products, bcvary10
    deformed symbolically and at both generic points (``deform_complex``
    returns them validated), and the two non-flat equations of the
    suite, each taken afresh: ``require_flat`` refuses exactly the
    equations whose brackets, by the pairing scan, break Jacobi on some
    frame triple, and on the others the table read off d equals the
    scan bracket by bracket, entries in the same order."""
    bc = catalog_load("bcvary10")
    inputs = [catalog_load(name).se for name in ("torus3", "iwasawa3", "abelian_1", "abelian_4", "bcvary10")]
    inputs += [cx.se for label, cx, _ in reference_complexes if label in PRODUCTS]
    deformed = [deform_complex(bc.se, bc.beltrami)]
    deformed += [deform_complex(bc.se, bc.beltrami, point=pt) for pt in generic_points(4)]
    assert all(se.flat for se in deformed)  # deform_complex validates what it returns
    inputs += deformed
    alg3 = FormAlgebra(3, PolyRing(0, 0))
    inputs.append(StructureEquations("notflat", alg3, {3: alg3.monomial((1,), (2,)), 2: alg3.monomial((1,), (3,))}))
    inputs.append(StructureEquations(
        "broken", alg3, {2: alg3.gamma(3).wedge(alg3.gammabar(1)), 3: alg3.gamma(1).wedge(alg3.gamma(2))}
    ))
    assert len(inputs) == 14
    refused = []
    for given in inputs:
        se = StructureEquations(given.name, given.algebra, given.d_coframe)  # nothing decided yet
        n2 = 2 * se.n
        scan = {(a, b): pairing_scan_bracket(se, a, b) for a in range(n2) for b in range(n2)}
        if jacobi_violation(lambda a, b: scan[(a, b)], se.n) is not None:
            for _ in range(2):
                with pytest.raises(FlatnessError):
                    lie_brackets(se)
            assert not se.flat
            refused.append(se.name)
            continue
        table = lie_brackets(se)
        assert se.flat
        for (a, b), want in scan.items():
            assert list(table.bracket(a, b).items()) == list(want.items()), (se.name, a, b)
    assert refused == ["notflat", "broken"]


# -- delbar on vectors --------------------------------------------------------


def test_delbar_on_vectors_examples(torus3, bcvary10):
    alg_t = torus3.se.algebra
    v = VectorValuedForm(alg_t, T10, {1: alg_t.gammabar(2)})
    assert not delbar_on_vectors(torus3.se, v)

    alg = bcvary10.se.algebra
    theta1 = VectorValuedForm(alg, T10, {1: alg.scalar_form(1)})
    dv = delbar_on_vectors(bcvary10.se, theta1)
    assert dv == VectorValuedForm(alg, T10, {4: alg.gammabar(3)})
    # delbar on T^{0,1}-valued forms is not this operator
    with pytest.raises(ValueError, match="T\\^\\{1,0\\}"):
        delbar_on_vectors(bcvary10.se, VectorValuedForm(alg, T01, {1: alg.scalar_form(1)}))


def _random_t10(alg, rng, degree):
    """A seeded T^{1,0}-valued form of one total degree: up to three
    components, each a sum of up to three monomials of random bidegree,
    with coefficients linear in a parameter when the ring has one."""
    ring = alg.ring
    out = {}
    for _ in range(rng.next_int(3) + 1):
        i = rng.next_int(alg.n) + 1
        f = out.get(i, alg.zero())
        for _ in range(rng.next_int(3) + 1):
            p = rng.next_int(degree + 1)
            basis = form_basis(alg, p, degree - p)
            c = ring.const(nonzero_gaussian(rng, 3))
            if ring.m and ring.order:
                c = c + ring.t(rng.next_int(ring.m) + 1) * ring.const(rng.gaussian(3))
            f = f + Form(alg, {basis[rng.next_int(len(basis))]: c})
        out[i] = f
    return VectorValuedForm(alg, T10, out)


def test_delbar_on_vectors_equals_the_bracket_table_route():
    """delbar on T^{1,0}-valued forms, read from ``symbol_terms``, equals
    the route through the Lie bracket table dual to d (the oracle),
    with equal vector-valued forms, on 60 seeded inputs of total degree
    0 to 3 on each of nine equation sets: torus3, iwasawa3, abelian_4
    and bcvary10; bcvary10 deformed symbolically and at both generic
    points; iwasawa3 over its family's ring, and deformed at a class
    (iii) point of the family."""
    bc, iw = catalog_load("bcvary10"), catalog_load("iwasawa3")
    inputs = [catalog_load(name).se for name in ("torus3", "iwasawa3", "abelian_4", "bcvary10")]
    inputs.append(deform_complex(bc.se, bc.beltrami))
    inputs += [deform_complex(bc.se, bc.beltrami, point=pt) for pt in generic_points(4)]
    inputs.append(iw.se.with_algebra(iw.beltrami.algebra))
    third = tuple(GaussianRational(Fraction(x)) for x in ("1/3", "0", "0", "1/5", "0", "0"))
    inputs.append(deform_complex(iw.se, iw.beltrami, point=third))
    assert len(inputs) == 9
    rng = DetRng(3217)
    for se in inputs:
        for k in range(60):
            v = _random_t10(se.algebra, rng, k % 4)
            got = delbar_on_vectors(se, v)
            want = delbar_on_vectors_by_table(se, v)
            assert got == want, (se.name, v)
            assert got.valence == T10 and got.algebra == se.algebra


def test_delbar_squared_zero_on_generators(bcvary10):
    se = bcvary10.se
    alg = se.algebra
    for i in range(1, 6):
        v = VectorValuedForm(alg, T10, {i: alg.scalar_form(1)})
        ddv = delbar_on_vectors(se, delbar_on_vectors(se, v))
        assert not ddv, i
        w = VectorValuedForm(alg, T01, {i: alg.scalar_form(1)})
        assert not del_on_vectors(se, del_on_vectors(se, w)), i


# -- Schouten bracket ---------------------------------------------------------


def test_schouten_abelian_zero(torus3):
    alg = torus3.se.algebra
    rng = DetRng(3)
    for _ in range(5):
        phi = _random_beltrami(alg, rng)
        psi = _random_beltrami(alg, rng)
        assert not schouten(torus3.se, phi, psi)


def test_schouten_symmetric_bilinear(iwasawa3):
    alg = iwasawa3.se.algebra
    rng = DetRng(7)
    for _ in range(5):
        phi = _random_beltrami(alg, rng)
        psi = _random_beltrami(alg, rng)
        assert schouten(iwasawa3.se, phi, psi) == schouten(iwasawa3.se, psi, phi)
        two = schouten(iwasawa3.se, phi.scale(QI(2)), psi)
        assert two == schouten(iwasawa3.se, phi, psi).scale(QI(2))


def test_bcvary_family_self_bracket_vanishes(bcvary10):
    phi = bcvary10.beltrami
    assert not schouten(bcvary10.se, phi, phi)


def test_tian_todorov_identity_iwasawa(iwasawa3):
    """[phi,psi] hooked into any form equals
    -del(psi _| (phi _| a)) - psi _| (phi _| del a)
    + phi _| del(psi _| a) + psi _| del(phi _| a)."""
    se = iwasawa3.se
    alg = se.algebra
    rng = DetRng(11)
    for trial in range(4):
        phi = _random_beltrami(alg, rng)
        psi = _random_beltrami(alg, rng)
        bracket = schouten(se, phi, psi)
        for p in range(4):
            for q in range(4):
                for m in form_basis(alg, p, q):
                    a = Form(alg, {m: alg.ring.one()})
                    lhs = contract(bracket, a)
                    rhs = (
                        -se.apply_del(contract(psi, contract(phi, a)))
                        - contract(psi, contract(phi, se.apply_del(a)))
                        + contract(phi, se.apply_del(contract(psi, a)))
                        + contract(psi, se.apply_del(contract(phi, a)))
                    )
                    assert lhs == rhs, (trial, m)


# -- integrability ------------------------------------------------------------


def test_bcvary_integrability_identically(bcvary10):
    ok, residual = check_integrability(bcvary10.se, bcvary10.beltrami)
    assert ok and not residual


def test_abelian_constant_phi_integrable(torus3):
    rng = DetRng(13)
    phi = _random_beltrami(torus3.se.algebra, rng)
    assert check_integrability(torus3.se, phi)[0]


def test_iwasawa_integrability_oracle(iwasawa3):
    alg = iwasawa3.se.algebra
    # phi = gammabar3 (x) theta3: residual is delbar(gammabar3) (x) theta3
    phi = VectorValuedForm(alg, T10, {3: alg.gammabar(3).scale(QI(5))})
    ok, residual = check_integrability(iwasawa3.se, phi)
    assert not ok
    assert residual == VectorValuedForm(
        alg, T10, {3: alg.monomial((), (1, 2), QI(-5))}
    )
    # while gammabar2 (x) theta1 is integrable
    phi2 = VectorValuedForm(alg, T10, {1: alg.gammabar(2)})
    assert check_integrability(iwasawa3.se, phi2)[0]


def _random_family(alg, rng, comps):
    """A seeded Beltrami differential of O(t) on alg's ring: comps terms
    c gammabar^j (x) theta_i, each c with a t-linear term and, every
    other term, a t-quadratic one."""
    ring = alg.ring
    out = {}
    for k in range(comps):
        i, j = rng.next_int(alg.n) + 1, rng.next_int(alg.n) + 1
        a, b = rng.next_int(ring.m) + 1, rng.next_int(ring.m) + 1
        c = ring.const(nonzero_gaussian(rng, 3)) * ring.t(a)
        if k % 2:
            c = c + ring.const(nonzero_gaussian(rng, 3)) * ring.t(a) * ring.t(b)
        out[i] = out.get(i, alg.zero()) + alg.gammabar(j).scale(c)
    return VectorValuedForm(alg, T10, out)


def _deformation_verdict(se, phi) -> bool:
    """The decider of the package: deform se along phi symbolically, and
    read IntegrabilityError as the verdict that phi is not integrable."""
    try:
        deformed = deform_complex(se, phi)
    except IntegrabilityError as exc:
        assert str(exc).startswith("phi is not integrable; ") and phi.integrable_on is not se
        return False
    # the deformed equations define a complex, decided afresh on a copy
    StructureEquations(deformed.name, deformed.algebra, deformed.d_coframe).require_flat()
    assert phi.integrable_on is se
    return True


def test_deformed_equations_decide_integrability_as_the_maurer_cartan_residual(bcvary10_c):
    """The (0,2)-part of the symbolically deformed equations and the
    Maurer-Cartan residual delbar phi - (1/2)[phi,phi] (the oracle
    ``check_integrability``) give the same verdict: on both catalog
    families at orders 1 to 4, all integrable through their order
    (iwasawa3's drops its degree-2 term at order 1, and the truncation
    drops the degree-2 residual that term cancels), on iwasawa3's family
    without that term and on t1 gammabar^3 (x) theta_3 on iwasawa3, both
    not integrable, and on seeded random O(t) families with t-linear and
    t-quadratic terms on iwasawa3, bcvary10, bcvary10 x C and torus3.
    Both verdicts occur among the random families.  A phi with a constant
    term raises NotPerturbative, integrable or not: phi's operators, which
    the symbolic deformation reads T^{-1} off, need phi = O(t).  That
    includes gammabar^1 (x) theta_2 on torus3, whose phi phibar is 0, so
    the Neumann series of phi's operators alone would not see its
    constant term."""
    cases = []
    for order in (1, 2, 3, 4):
        for name in ("bcvary10", "iwasawa3"):
            entry = catalog_load(name, order=order)
            cases.append((entry.se, entry.beltrami))
    iw = catalog_load("iwasawa3")
    alg = iw.beltrami.algebra
    t = [alg.ring.t(i) for i in range(1, 7)]
    g1, g2, g3 = (alg.gammabar(j) for j in (1, 2, 3))
    no_d = {1: g1.scale(t[0]) + g2.scale(t[1]), 2: g1.scale(t[2]) + g2.scale(t[3]), 3: g1.scale(t[4]) + g2.scale(t[5])}
    cases.append((iw.se, VectorValuedForm(alg, T10, no_d)))
    cases.append((iw.se, VectorValuedForm(alg, T10, {3: g3.scale(t[0])})))
    rng = DetRng(41)
    small = FormAlgebra(3, PolyRing(2, 3))
    bc = catalog_load("bcvary10")
    for se, family_alg in ((iw.se, small), (bc.se, bc.se.algebra), (bcvary10_c[0], bcvary10_c[0].algebra),
                           (catalog_load("torus3").se, small)):
        cases += [(se, _random_family(family_alg, rng, comps)) for comps in (1, 1, 2, 2, 3, 4)]
    verdicts = []
    for se, phi in cases:
        ok, _ = check_integrability(se, phi)
        assert _deformation_verdict(se, phi) == ok, (se.name, phi)
        verdicts.append(ok)
    assert verdicts[:10] == [True] * 8 + [False, False]
    assert True in verdicts[10:] and False in verdicts[10:]

    torus = catalog_load("torus3")
    constant = [(torus.se, _random_beltrami(torus.se.algebra, rng), True),
                (iw.se, VectorValuedForm(iw.se.algebra, T10, {3: iw.se.algebra.gammabar(3)}), False),
                (torus.se, VectorValuedForm(torus.se.algebra, T10, {2: torus.se.algebra.gammabar(1)}), True)]
    for se, phi, integrable in constant:
        assert check_integrability(se, phi)[0] == integrable
        with pytest.raises(NotPerturbative):
            deform_complex(se, phi)
        assert phi.integrable_on is None


# -- deformed complexes --------------------------------------------------------


def test_deform_zero_phi_unchanged(bcvary10):
    alg = bcvary10.se.algebra
    se_def = deform_complex(bcvary10.se, VectorValuedForm(alg, T10, {}))
    for i in range(1, 6):
        assert se_def.d_coframe[i] == bcvary10.se.d_coframe[i]


def test_bcvary_deformed_equations_verbatim(bcvary10):
    """The four displayed deformed structure-equation lines, monomial for
    monomial after canonicalization."""
    ring = bcvary10.se.algebra.ring
    alg = bcvary10.se.algebra
    t1, t2, t3, t4 = (ring.t(i) for i in range(1, 5))
    se_def = deform_complex(bcvary10.se, bcvary10.beltrami)
    assert not se_def.d_coframe[1]
    assert not se_def.d_coframe[3]
    assert se_def.d_coframe[2] == (
        alg.monomial((3,), (1,)).scale(-t1) + alg.monomial((4,), (3,)).scale(-t2)
    )
    assert se_def.d_coframe[4] == alg.monomial((1,), (3,))
    assert se_def.d_coframe[5] == (
        alg.monomial((3,), (4,))
        + alg.monomial((3,), (1,)).scale(-t3)
        + alg.monomial((4,), (3,)).scale(-t4)
    )


def test_deform_at_point_matches_symbolic_evaluation(bcvary10):
    se_sym = deform_complex(bcvary10.se, bcvary10.beltrami)
    for pt in generic_points(4):
        se_pt = deform_complex(bcvary10.se, bcvary10.beltrami, point=pt)
        for i in range(1, 6):
            assert se_pt.d_coframe[i] == se_sym.d_coframe[i].eval(pt), (i, pt)


def test_deformed_complex_passes_build(bcvary10):
    """The deformed family passes require_flat, d^2 = 0 and no
    (0,2)-part through the ring order; it has parameters, so it builds no
    complex, and ValueError names the route through a fiber."""
    se_def = deform_complex(bcvary10.se, bcvary10.beltrami)
    se_def.require_flat()
    assert se_def.flat
    with pytest.raises(ValueError, match="evaluate_se.*fiber_complex"):
        build_complex(se_def)


def test_deform_refuses_nonintegrable(iwasawa3):
    ring = PolyRing(1, 2)
    alg = FormAlgebra(3, ring)
    phi = VectorValuedForm(alg, T10, {3: alg.gammabar(3).scale(ring.t(1))})
    with pytest.raises(IntegrabilityError):
        deform_complex(iwasawa3.se, phi)


def test_deform_singular_coframe(bcvary10):
    pt = (QI(0), QI(0), QI(0), QI(1))  # |t4| = 1 degenerates the coframe
    with pytest.raises(NonInvertibleCoframe):
        deform_complex(bcvary10.se, bcvary10.beltrami, point=pt)


def test_deform_complex_equals_the_old_route_in_both_modes(bcvary10, iwasawa3):
    """Reading d of the new coframe off the structure forms emits, byte for
    byte, what applying d through the equations did (the oracle's route,
    with a dense Gauss-Jordan inverse at a point): bcvary10's family
    symbolically and at six seeded fibers, drawn as the fiber_sweep
    benchmark draws them; iwasawa3's symbolically and at one point of
    each Nakamura class; and a one-parameter file whose structure forms
    depend on t, with phi = t1 gammabar^1 (x) theta_3, integrable there,
    symbolically and at two real points and a complex one, where the
    fibers differ, so the forms, not only phi, are evaluated.  The oracle
    refuses the degenerate bcvary10 point too (``test_deform_singular_coframe``).
    Each deformation keeps se's flatness without deciding d^2 unless its
    forms depend on t at a point; the oracle decides d^2 afresh, on a
    copy that keeps no pass, and every deformation passes."""
    family = obj_to_se({"n": 3, "m": 1, "truncation": 2, "d": {"3": [
        {"coeff": "1", "factors": ["1", "2"]}, {"coeff": "t1", "factors": ["1", "bar1"]}]}})
    alg = family.algebra
    one_parameter = VectorValuedForm(alg, T10, {3: alg.gammabar(1).scale(alg.ring.t(1))})
    nakamura = [tuple(GaussianRational(Fraction(x)) for x in t.split(",")) for t, _ in NAKAMURA_CLASSES.values()]
    family_points = [*generic_points(1), (GaussianRational(Fraction(1, 3), Fraction(-1, 5)),)]
    cases = [
        (bcvary10.se, bcvary10.beltrami, [None, *map(fiber_point, range(8101, 8107))]),
        (iwasawa3.se, iwasawa3.beltrami, [None, *nakamura]),
        (family, one_parameter, [None, *family_points]),
    ]
    for se, phi, points in cases:
        emitted = []
        for point in points:
            deformed = deform_complex(se, phi, point=point)
            emitted.append(se_emit(deformed))
            assert emitted[-1] == se_emit(deform_complex_dense(se, phi, point)), (se.name, point)
            fresh = StructureEquations(deformed.name, deformed.algebra, deformed.d_coframe)
            assert deformed.flat and not fresh.flat
            fresh.require_flat()
    # emitted holds the last case, the one-parameter file: its fibers differ
    assert len(set(emitted[1:])) == len(family_points)
    with pytest.raises(NonInvertibleCoframe):
        deform_complex_dense(bcvary10.se, bcvary10.beltrami, (QI(0), QI(0), QI(0), QI(1)))


def test_a_point_of_equations_flat_only_modulo_their_truncation_is_refused():
    """Evaluation at a point is not a ring map of the truncated ring
    (``evaluate_se``), so a deformation at a point of equations whose
    forms depend on t decides d^2 again.  d gamma^2 = t1 gamma^3 ^
    gammabar^1 and d gamma^3 = t1 gamma^1 ^ gamma^2, truncated at order
    1, pass require_flat, since d^2 gamma^2 is O(t1^2), and deform
    symbolically along phi = t1 gammabar^1 (x) theta_1 into equations
    that pass a fresh check too.  At t1 = 1/3 d^2 gamma^2 of the deformed
    equations is (1/8) gamma^12 ^ gammabar^1, and that of the undeformed
    fiber (``fiber_complex`` with no phi) is (1/9) gamma^12 ^ gammabar^1:
    FlatnessError, on every call."""
    se = obj_to_se({"n": 3, "m": 1, "truncation": 1, "d": {
        "2": [{"coeff": "t1", "factors": ["3", "bar1"]}], "3": [{"coeff": "t1", "factors": ["1", "2"]}]}})
    se.require_flat()
    alg = se.algebra
    phi = VectorValuedForm(alg, T10, {1: alg.gammabar(1).scale(alg.ring.t(1))})
    deformed = deform_complex(se, phi)
    StructureEquations(deformed.name, deformed.algebra, deformed.d_coframe).require_flat()
    message = r"unnamed:deformed is not flat: d\^2 gamma\^2 = Form\(\(1/8\)\*g\[12,1\]\) is nonzero"
    fiber_message = r"unnamed is not flat: d\^2 gamma\^2 = Form\(\(1/9\)\*g\[12,1\]\) is nonzero"
    for _ in range(2):
        with pytest.raises(FlatnessError, match=f"^{message}$"):
            deform_complex(se, phi, point=(GaussianRational(Fraction(1, 3)),))
        with pytest.raises(FlatnessError, match=f"^{fiber_message}$"):
            fiber_complex(se, None, (GaussianRational(Fraction(1, 3)),))


def test_a_t0_fiber_keeps_its_equations_flatness_check(monkeypatch):
    """Evaluation is exact on constant structure forms, so the t = 0
    fiber of a validated catalog entry is its equations' lift to the
    constant ring (``evaluate_se``), with their pass of require_flat:
    two t = 0 complexes built as solve_extension builds its ec0, on the
    equations lifted to phi's ring, read one equations object and make
    no derivation.  Forms that depend on t get no such pass (the test
    above)."""
    entries = [catalog_load(name) for name in ("bcvary10", "iwasawa3")]
    calls = []
    real = StructureEquations.apply_d
    monkeypatch.setattr(StructureEquations, "apply_d", lambda self, a: calls.append(a) or real(self, a))
    for entry in entries:
        se_r = entry.se.with_algebra(entry.beltrami.algebra)
        first, second = (fiber_complex(se_r, None, zero_point(se_r.algebra.ring.m)) for _ in range(2))
        assert calls == [] and first.cx.se is second.cx.se is se_r.with_algebra(se_r.algebra.constant), entry.name


def test_a_fiber_builds_one_set_of_equations_and_its_degree_two_tables(monkeypatch, bcvary10, iwasawa3):
    """After one warm-up fiber, which lifts bcvary10's equations to phi's
    ring, the fiber at a generic point constructs one StructureEquations,
    the deformed equations, and no Layout: they read their algebra's
    (``FormAlgebra.layout``).  It assembles no column
    table and makes no derivation: no evaluated copy of the equations is
    built to apply d to the new coframe, and no flatness check runs,
    since bcvary10's structure forms are constant, so evaluation is exact
    on them and the deformed equations keep se's pass.  And require_flat
    on fresh iwasawa3 equations makes one derivation per coframe
    generator and assembles no table of degree 1."""
    point = generic_points(4)[0]
    fiber_complex(bcvary10.se, bcvary10.beltrami, point)
    calls = {}
    for cls, method in ((StructureEquations, "__init__"), (Layout, "__init__"),
                        (StructureEquations, "_assemble_table"), (StructureEquations, "apply_d")):
        real, seen = getattr(cls, method), calls.setdefault(f"{cls.__name__}.{method}", [])
        monkeypatch.setattr(cls, method, lambda self, *args, real=real, seen=seen: seen.append(args) or real(self, *args))
    fiber_complex(bcvary10.se, bcvary10.beltrami, point)
    assert (len(calls["StructureEquations.__init__"]), len(calls["Layout.__init__"])) == (1, 0)
    tables, derivations = calls["StructureEquations._assemble_table"], calls["StructureEquations.apply_d"]
    assert tables == [] and derivations == []
    se = StructureEquations(iwasawa3.se.name, iwasawa3.se.algebra, iwasawa3.se.d_coframe)
    se.require_flat()
    assert len(derivations) == 2 * se.n and se.flat
    assert tables and all(p + q == 2 for _, p, q in tables)


def test_equations_their_lifts_and_fibers_read_one_layout(bcvary10):
    """One Layout per algebra (``FormAlgebra.layout``), shared with its
    constant algebra: bcvary10's equations, their lift to the constant
    ring, their evaluation at a point and the fibers at two points of
    the family, with the complexes on them, all read that one object."""
    se, phi = bcvary10.se, bcvary10.beltrami
    alg = se.algebra
    layout = alg.layout
    assert layout is alg.constant.layout and phi.algebra.layout is layout
    assert se.with_algebra(alg.constant).algebra.layout is layout
    assert evaluate_se(se, fiber_point(4601)).algebra.layout is layout
    for seed in (4601, 4602):
        ec = fiber_complex(se, phi, fiber_point(seed))
        assert ec.cx.layout is ec.cx.se.algebra.layout is layout, seed


def test_a_fiber_builds_no_symbolic_deformation(monkeypatch):
    """fiber_complex at a point off t = 0 decides on the fiber's own
    equations: on fresh bcvary10 and iwasawa3 entries (no verdict kept
    on phi) it calls neumann_invert 0 times, so it builds no symbolic
    deformation, and phi keeps no verdict afterwards."""
    from nilforms import algebra, deformation

    calls = []
    for module in (algebra, deformation):
        real = module.neumann_invert
        monkeypatch.setattr(module, "neumann_invert", lambda e, real=real: calls.append(e) or real(e))
    for name in ("bcvary10", "iwasawa3"):
        entry = catalog_load(name)
        fiber_complex(entry.se, entry.beltrami, generic_points(entry.beltrami.algebra.ring.m)[0])
        assert calls == [] and entry.beltrami.integrable_on is None, name
    deform_complex(entry.se, entry.beltrami)  # the hook does see a symbolic deformation
    assert len(calls) == 1 and entry.beltrami.integrable_on is entry.se


def test_a_warm_fiber_builds_no_form_algebra(monkeypatch, bcvary10):
    """Evaluation lands in each algebra's one constant algebra
    (``FormAlgebra.constant``), built with the algebra.  After a warm-up
    fiber, the fiber of bcvary10 at a generic point builds no FormAlgebra
    (13 before, one per evaluated structure form and component), every
    form check passes by identity, and the deformed equations live in the
    constant algebra of phi's algebra, which is its own constant algebra."""
    point = generic_points(4)[0]
    fiber_complex(bcvary10.se, bcvary10.beltrami, point)
    built, checked = [], []
    init, check = FormAlgebra.__init__, Form._check
    monkeypatch.setattr(FormAlgebra, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    monkeypatch.setattr(Form, "_check", lambda self, other: checked.append(self.algebra is other.algebra) or check(self, other))
    ec = fiber_complex(bcvary10.se, bcvary10.beltrami, point)
    assert built == []
    assert checked and all(checked)
    alg0 = bcvary10.beltrami.algebra.constant
    assert ec.cx.se.algebra is alg0 and alg0.constant is alg0 and alg0.ring == PolyRing(0, 0)


# -- extension map -------------------------------------------------------------


def test_extension_map_identity_and_formula(bcvary10):
    alg = bcvary10.se.algebra
    omega = alg.monomial((1, 2), (3, 4))
    assert extension_map(VectorValuedForm(alg, T10, {}), omega) == omega
    phi = bcvary10.beltrami
    got = extension_map(phi, omega)
    expect = (
        (alg.gamma(1) + phi.component(1))
        .wedge(alg.gamma(2) + phi.component(2))
        .wedge(alg.gammabar(3) + phi.component(3).conj())
        .wedge(alg.gammabar(4) + phi.component(4).conj())
    )
    assert got == expect


def test_extension_map_realness(bcvary10):
    phi = bcvary10.beltrami
    alg = phi.algebra
    rng = DetRng(17)
    for _ in range(5):
        raw = alg.monomial((rng.next_int(5) + 1,), (rng.next_int(5) + 1,), nonzero_gaussian(rng, 3))
        omega = raw + raw.conj()
        assert extension_map(phi, omega).conj() == extension_map(phi, omega.conj())


def test_extension_map_invertible_at_small_t(bcvary10):
    phi = bcvary10.beltrami
    for pt in generic_points(4):
        dense = coframe_endo_dense(coframe_transform(phi.eval(pt)), ())
        assert dense_inverse(dense) is not None


# -- the extended Leibniz identity ---------------------------------------------


def test_main1_residual_exhaustive_iwasawa(iwasawa3):
    se = iwasawa3.se
    alg = se.algebra
    rng = DetRng(19)
    phis = [_random_beltrami(alg, rng) for _ in range(2)]
    phis.append(VectorValuedForm(alg, T10, {3: alg.gammabar(3)}))  # non-integrable
    for phi in phis:
        for p in range(4):
            for q in range(4):
                for m in form_basis(alg, p, q):
                    a = Form(alg, {m: alg.ring.one()})
                    assert not main1_residual(se, phi, a), (phi, m)


def test_one_lift_and_one_split_of_d_per_ring(monkeypatch):
    """with_algebra keeps one lift per target algebra, so three residuals
    with phi over PolyRing(1, 2) split d of the coframe into its del and
    delbar terms once, on that lift, not three times."""
    se = catalog_load("iwasawa3").se
    ring = PolyRing(1, 2)
    alg = FormAlgebra(3, ring)
    phi = VectorValuedForm(alg, T10, {1: alg.gammabar(1).scale(ring.t(1))})
    split = []
    symbol_terms = StructureEquations.symbol_terms

    def recording(eqs, op):
        if eqs.terms is None:
            split.append(eqs)
        return symbol_terms(eqs, op)

    monkeypatch.setattr(StructureEquations, "symbol_terms", recording)
    for _ in range(3):
        assert not main1_residual(se, phi, se.algebra.gamma(3))
    assert split == [se.with_algebra(alg)]
    assert se.with_algebra(alg) is se.with_algebra(alg) and se.with_algebra(se.algebra) is se
    assert list(se.lifts) == [alg]


def test_main1_residual_torus(torus3):
    alg = torus3.se.algebra
    rng = DetRng(23)
    phi = _random_beltrami(alg, rng)
    for m in form_basis(alg, 1, 1) + form_basis(alg, 2, 0):
        assert not main1_residual(torus3.se, phi, Form(alg, {m: alg.ring.one()}))


def test_main1_residual_symbolic_bcvary(bcvary10):
    se, phi = bcvary10.se, bcvary10.beltrami
    alg = se.algebra
    for m in [((1,), (3,)), ((3,), (4,)), ((2, 5), (2, 5)), ((1, 2, 3), ())]:
        a = Form(alg, {m: alg.ring.one()})
        assert not main1_residual(se, phi, a), m


def test_transport_identity_bcvary(bcvary10):
    """delbar_t of the extension equals the extension of
    (1 - phibar phi)^{-1} hooked-into ([del, iota_phi] + delbar) of
    (1 - phibar phi) hooked-into the input, through the ring order."""
    from nilforms.algebra import CoframeEndo, endo_of_vvf, neumann_invert

    se, phi = bcvary10.se, bcvary10.beltrami
    alg = se.algebra
    se_def = deform_complex(se, phi)
    p_endo = endo_of_vvf(phi)
    pq = p_endo.compose(p_endo.conj())
    shrink = CoframeEndo.identity(alg) - pq
    unshrink = neumann_invert(pq)
    rng = DetRng(29)
    for trial in range(4):
        p, q = rng.next_int(5) + 1, rng.next_int(5) + 1
        basis = form_basis(alg, p, q)
        alpha = Form(alg, {basis[rng.next_int(len(basis))]: alg.ring.one()})
        # left side: delbar_t in the deformed complex of the coefficient
        # reinterpretation of the extension (which is alpha itself)
        lhs = se_def.apply_delbar(alpha)
        # right side, computed upstairs and reread in the deformed basis:
        inner = simultaneous_contract(shrink, alpha)
        acted = (
            se.apply_del(contract(phi, inner))
            - contract(phi, se.apply_del(inner))
            + se.apply_delbar(inner)
        )
        rhs = simultaneous_contract(unshrink, acted)
        assert lhs == rhs, (trial, p, q)


# -- Kuranishi ------------------------------------------------------------------


def test_kuranishi_iwasawa(iwasawa3):
    """The Kuranishi recursion on the Iwasawa manifold is unobstructed,
    and its family is the catalog's closed form at every order: linear in
    the six harmonic directions, in the order nullspace gives them, plus
    (t2 t3 - t1 t4) theta_3 (x) gammabar^3 and nothing above degree 2."""
    for order in (2, 3, 4):
        res = kuranishi_expand(iwasawa3.se, order=order)
        assert len(res.harmonic_basis) == 6
        assert res.unobstructed_through_order
        assert res.phi == catalog_load("iwasawa3", order=order).beltrami, order
    ring = res.ring
    alg = res.phi.algebra
    det = ring.t(2) * ring.t(3) - ring.t(1) * ring.t(4)
    expected_phi2 = VectorValuedForm(alg, T10, {3: alg.monomial((), (3,), det)})
    assert vvf_homogeneous_part(res.phi, 2) == expected_phi2
    assert not vvf_homogeneous_part(res.phi, 3)
    ok, residual = check_integrability(iwasawa3.se, res.phi)
    assert ok and not residual


def test_kuranishi_abelian_trivial(torus3):
    res = kuranishi_expand(torus3.se, order=3)
    assert len(res.harmonic_basis) == 9
    assert res.unobstructed_through_order
    for k in (2, 3):
        assert not vvf_homogeneous_part(res.phi, k)


def test_kuranishi_residual_in_harmonic_space(iwasawa3):
    """delbar phi - (1/2)[phi,phi] lands in the harmonic space order by
    order (here it vanishes identically, the strongest form of that)."""
    for directions in (None, [0, 3]):
        res = kuranishi_expand(iwasawa3.se, basis_directions=directions, order=3)
        ok, residual = check_integrability(iwasawa3.se, res.phi)
        assert ok, directions


def test_kuranishi_restricted_directions(iwasawa3):
    res = kuranishi_expand(iwasawa3.se, basis_directions=[0, 3], order=2)
    assert len(res.harmonic_basis) == 2
    assert res.ring.m == 2
    assert vvf_homogeneous_part(res.phi, 2)


def test_iwasawa_family_is_exactly_integrable_and_central_fibers_keep_d():
    """The catalog's Iwasawa family has its structure equations on the
    ring without parameters and phi on six; delbar phi - (1/2)[phi,phi]
    is exactly zero at the default order, where the degree-2 term is not
    truncated away.  Nakamura's class (i), the central family, leaves d
    gamma unchanged: the fiber at (0,0,0,0,1/3,1/5) has iwasawa3's own
    structure equations, and so the same complex: the reports of the
    fiber equal those of iwasawa3's complex under the same label."""
    entry = catalog_load("iwasawa3")
    phi = entry.beltrami
    assert entry.se.algebra.ring == PolyRing(0, 0) and phi.algebra.ring == PolyRing(6, 4)
    ok, residual = check_integrability(entry.se, phi)
    assert ok and residual.components == {}
    point = tuple(GaussianRational(x) for x in (0, 0, 0, 0, Fraction(1, 3), Fraction(1, 5)))
    assert deform_complex(entry.se, phi, point=point).d_coframe == entry.se.d_coframe
    assert _reports(fiber_complex(entry.se, phi, point)) == _reports(EvaluatedComplex(build_complex(entry.se), point))


# -- the fiber at t ----------------------------------------------------------


def _reports(ec):
    """The full_report and lemma_report JSON of a complex."""
    return json.dumps([full_report(ec).to_json_dict(), lemma_report(ec).to_json_dict()])


def test_fiber_complex_equals_the_hand_written_routes(bcvary10, iwasawa3):
    """fiber_complex gives the reports of the route each caller used to
    write by hand: bcvary10 evaluated at t = 0 and deformed along its
    family at both generic points; a structure-equation file with a
    parameter and no family evaluated at t = 0 and at both generic
    points, each labelled by its point; and, on a ring without
    parameters, the complex of se itself, so its stored ``require_flat``
    pass is reused."""
    cases = [(bcvary10.se, bcvary10.beltrami, zero_point(4), evaluate_se(bcvary10.se, zero_point(4)))]
    cases += [(bcvary10.se, bcvary10.beltrami, pt, deform_complex(bcvary10.se, bcvary10.beltrami, point=pt))
              for pt in generic_points(4)]
    family = obj_to_se({"n": 3, "m": 1, "truncation": 2, "d": {"3": [
        {"coeff": "1", "factors": ["1", "2"]}, {"coeff": "t1", "factors": ["1", "bar1"]}]}})
    cases += [(family, None, pt, evaluate_se(family, pt)) for pt in (zero_point(1), *generic_points(1))]
    for se, phi, point, fiber in cases:
        ec = fiber_complex(se, phi, point)
        assert ec.point == point
        assert _reports(ec) == _reports(EvaluatedComplex(build_complex(fiber), point))
    # the parameter changes the answer, not only the label, so the point is not ignored
    at_zero, at_generic = (json.loads(_reports(fiber_complex(family, None, pt))) for pt in (zero_point(1), generic_points(1)[0]))
    for report in at_zero + at_generic:
        del report["t"]
    assert at_zero != at_generic
    ec = fiber_complex(iwasawa3.se, None, ())
    assert ec.cx.se is iwasawa3.se and ec.point == ()


def test_bc_jump_table_output_byte_identical_to_golden(capsys):
    """scripts/bc_jump_table.py prints h_BC(4,4), the d-closed and the
    del-delbar image dimensions of bcvary10 on a grid of fibers; the
    arithmetic is exact, so the table must match its recorded output byte
    for byte."""
    root = Path(__file__).parent
    spec = importlib.util.spec_from_file_location("bc_jump_table", root.parent / "scripts" / "bc_jump_table.py")
    table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(table)
    table.main()
    assert capsys.readouterr().out.encode() == (root / "data" / "bc_jump_table.txt").read_bytes()

