from fractions import Fraction

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
from nilforms.cohomology import EvaluatedComplex, generic_points, zero_point
from nilforms.deformation import (
    as_beltrami,
    check_integrability,
    coframe_transform,
    deform_complex,
    del_on_vectors,
    delbar_on_vectors,
    evaluate_se,
    kuranishi_expand,
    lie_brackets,
    main1_residual,
    schouten,
)
from nilforms.errors import IntegrabilityError, NonInvertibleCoframe
from nilforms.extension import extension_map
from nilforms.io import se_emit
from nilforms.scalars import DetRng, GaussianRational, PolyRing, QI

from oracles import coframe_endo_dense, deform_complex_dense, dense_inverse, fiber_point


def _random_beltrami(alg, rng, comps=2):
    out = {}
    for _ in range(comps):
        i = rng.next_int(alg.n) + 1
        j = rng.next_int(alg.n) + 1
        cur = out.get(i, alg.zero())
        out[i] = cur + alg.gammabar(j).scale(rng.nonzero_gaussian(3))
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
    rebuilt = tab.reconstruct_d()
    for i in (1, 2, 3):
        assert rebuilt[i] == iwasawa3.se.d_coframe[i]


def test_abelian_brackets_zero(torus3):
    tab = lie_brackets(torus3.se)
    for a in range(6):
        for b in range(6):
            assert tab.bracket(a, b) == {}


def test_bracket_duality_roundtrip_bcvary(bcvary10):
    tab = lie_brackets(bcvary10.se)
    rebuilt = tab.reconstruct_d()
    for i in range(1, 6):
        assert rebuilt[i] == bcvary10.se.d_coframe[i]


# -- delbar on vectors --------------------------------------------------------


def test_delbar_on_vectors_examples(torus3, bcvary10):
    alg_t = torus3.se.algebra
    v = VectorValuedForm(alg_t, T10, {1: alg_t.gammabar(2)})
    assert delbar_on_vectors(torus3.se, v).is_zero()

    alg = bcvary10.se.algebra
    theta1 = VectorValuedForm(alg, T10, {1: alg.scalar_form(1)})
    dv = delbar_on_vectors(bcvary10.se, theta1)
    assert dv == VectorValuedForm(alg, T10, {4: alg.gammabar(3)})


def test_delbar_squared_zero_on_generators(bcvary10):
    se = bcvary10.se
    alg = se.algebra
    for i in range(1, 6):
        v = VectorValuedForm(alg, T10, {i: alg.scalar_form(1)})
        ddv = delbar_on_vectors(se, delbar_on_vectors(se, v))
        assert ddv.is_zero(), i
        w = VectorValuedForm(alg, T01, {i: alg.scalar_form(1)})
        assert del_on_vectors(se, del_on_vectors(se, w)).is_zero(), i


# -- Schouten bracket ---------------------------------------------------------


def test_schouten_abelian_zero(torus3):
    alg = torus3.se.algebra
    rng = DetRng(3)
    for _ in range(5):
        phi = _random_beltrami(alg, rng)
        psi = _random_beltrami(alg, rng)
        assert schouten(torus3.se, phi, psi).is_zero()


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
    assert schouten(bcvary10.se, phi, phi).is_zero()


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
                for m in alg.basis(p, q):
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
    assert ok and residual.is_zero()


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
    assert se_def.d_coframe[1].is_zero()
    assert se_def.d_coframe[3].is_zero()
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
    se_def = deform_complex(bcvary10.se, bcvary10.beltrami)
    build_complex(se_def)  # d^2 = 0 and no (0,2)-part, through the ring order


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


def test_deform_at_a_point_equals_dense_route(bcvary10):
    """At six seeded bcvary10 fibers, drawn as the fiber_sweep benchmark
    draws them, deform_complex inverts 1 + phi + conj(phi) by the square
    solve and emits the structure equations, byte for byte, of the route
    through the oracle's dense Gauss-Jordan inverse; at the degenerate
    point both refuse."""
    se, phi = bcvary10.se, bcvary10.beltrami
    for seed in range(8101, 8107):
        pt = fiber_point(seed)
        assert se_emit(deform_complex(se, phi, point=pt)) == se_emit(deform_complex_dense(se, phi, pt)), seed
    with pytest.raises(NonInvertibleCoframe):
        deform_complex_dense(se, phi, (QI(0), QI(0), QI(0), QI(1)))


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
        raw = alg.monomial((rng.next_int(5) + 1,), (rng.next_int(5) + 1,), rng.nonzero_gaussian(3))
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
                for m in alg.basis(p, q):
                    a = Form(alg, {m: alg.ring.one()})
                    assert main1_residual(se, phi, a).is_zero(), (phi, m)


def test_main1_residual_torus(torus3):
    alg = torus3.se.algebra
    rng = DetRng(23)
    phi = _random_beltrami(alg, rng)
    for m in alg.basis(1, 1) + alg.basis(2, 0):
        assert main1_residual(torus3.se, phi, Form(alg, {m: alg.ring.one()})).is_zero()


def test_main1_residual_symbolic_bcvary(bcvary10):
    se, phi = bcvary10.se, bcvary10.beltrami
    alg = se.algebra
    for m in [((1,), (3,)), ((3,), (4,)), ((2, 5), (2, 5)), ((1, 2, 3), ())]:
        a = Form(alg, {m: alg.ring.one()})
        assert main1_residual(se, phi, a).is_zero(), m


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
        basis = alg.basis(p, q)
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
    res = kuranishi_expand(iwasawa3.se, order=3)
    assert len(res.harmonic_basis) == 6
    assert res.unobstructed_through_order
    ring = res.ring
    alg = res.phi.algebra
    det = ring.t(2) * ring.t(3) - ring.t(1) * ring.t(4)
    expected_phi2 = VectorValuedForm(alg, T10, {3: alg.monomial((), (3,), det)})
    assert res.phi.homogeneous_part(2) == expected_phi2
    assert res.phi.homogeneous_part(3).is_zero()
    ok, residual = check_integrability(iwasawa3.se, res.phi)
    assert ok and residual.is_zero()


def test_kuranishi_abelian_trivial(torus3):
    res = kuranishi_expand(torus3.se, order=3)
    assert len(res.harmonic_basis) == 9
    assert res.unobstructed_through_order
    for k in (2, 3):
        assert res.phi.homogeneous_part(k).is_zero()


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
    assert not res.phi.homogeneous_part(2).is_zero()
