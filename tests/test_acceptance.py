"""Acceptance gate: one test per criterion, each printing a PASS line.

Everything here is exact arithmetic with zero tolerance; the only
non-exact statements are the seeded sampling verdicts, which are
deterministic bit for bit.  Run with `pytest tests/test_acceptance.py -s`
to see the per-criterion lines.
"""

import time
from fractions import Fraction

from nilforms import linalg
from nilforms.algebra import (
    Form,
    FormAlgebra,
    T10,
    VectorValuedForm,
    build_complex,
    contract,
)
from nilforms.catalog import catalog_load
from nilforms.cohomology import (
    EvaluatedComplex,
    cohomology,
    dclosed_dim,
    ddbar_image_dim,
    generic_points,
    zero_point,
)
from nilforms.deformation import deform_complex, evaluate_se
from nilforms.extension import (
    bc_nontriviality,
    obstruction_residual,
    pkahler_extend,
    small_points,
    solve_extension,
)
from nilforms.lemmata import lemma_report
from nilforms.positivity import (
    is_strictly_positive,
    is_transverse,
    pkahler_check,
)
from nilforms.scalars import DetRng, PolyRing

from oracles import (
    HodgeContext,
    check_integrability,
    form_basis,
    main1_residual,
    mat_add,
    nonzero_gaussian,
    norm2_vec,
    schouten,
    vec_add,
    vec_scale,
)

CATALOG_NAMES = ("torus3", "iwasawa3", "bcvary10", "abelian_2")


def _report(num, text):
    print(f"ACCEPTANCE {num:02d}: PASS - {text}")


def test_criterion_01_bcvary_bott_chern_jump(bcvary10, ec_bcvary0):
    start = time.monotonic()
    assert cohomology(ec_bcvary0, "bott_chern", 4, 4) == 19
    values = []
    for pt in generic_points(4):
        se_t = deform_complex(bcvary10.se, bcvary10.beltrami, point=pt)
        ect = EvaluatedComplex(build_complex(se_t), ())
        values.append(cohomology(ect, "bott_chern", 4, 4))
    assert values == [17, 17]
    elapsed = time.monotonic() - start
    assert elapsed <= 60, f"runtime budget exceeded: {elapsed:.1f}s"
    _report(1, f"h_bc(4,4) = 19 at t=0 and 17 at both generic points ({elapsed:.2f}s)")


def test_criterion_02_bcvary_auxiliary_dimensions(bcvary10, ec_bcvary0):
    assert dclosed_dim(ec_bcvary0, 4, 4) == 21
    assert ddbar_image_dim(ec_bcvary0, 4, 4) == 2
    for pt in generic_points(4):
        se_t = deform_complex(bcvary10.se, bcvary10.beltrami, point=pt)
        ect = EvaluatedComplex(build_complex(se_t), ())
        assert dclosed_dim(ect, 4, 4) == 21
        assert ddbar_image_dim(ect, 4, 4) == 4
    _report(2, "dclosed(4,4) = 21 everywhere; ddbar image 2 at 0 and 4 generic")


def test_criterion_03_deformed_structure_equations(bcvary10):
    ring = bcvary10.se.algebra.ring
    alg = bcvary10.se.algebra
    t1, t2, t3, t4 = (ring.t(i) for i in range(1, 5))
    se_def = deform_complex(bcvary10.se, bcvary10.beltrami)
    expected = {
        1: alg.zero(),
        2: alg.monomial((3,), (1,)).scale(-t1) + alg.monomial((4,), (3,)).scale(-t2),
        3: alg.zero(),
        4: alg.monomial((1,), (3,)),
        5: alg.monomial((3,), (4,))
        + alg.monomial((3,), (1,)).scale(-t3)
        + alg.monomial((4,), (3,)).scale(-t4),
    }
    for i in range(1, 6):
        assert se_def.d_coframe[i] == expected[i], i
    _report(3, "deformed structure equations match the four lines verbatim")


def test_criterion_04_integrability_identically(bcvary10):
    assert bcvary10.se.algebra.ring.order == 4
    ok, residual = check_integrability(bcvary10.se, bcvary10.beltrami)
    assert ok and not residual
    _report(4, "delbar phi(t) - (1/2)[phi(t),phi(t)] = 0 identically through order 4")


def test_criterion_05_iwasawa_lemma_taxonomy(iwasawa3, ec_iwasawa):
    report = lemma_report(ec_iwasawa, [(2, 3)])
    assert report.weak_flags[2] is True
    assert report.dual_mild_flags[(2, 3)] is True
    assert report.mild_flags[(2, 3)] is False and "mild:2,3" in report.witnesses
    # the printed witness: del eta^{3 bar1} = -eta^{12 bar1} is a nonzero
    # Bott-Chern class killed in del-cohomology
    se = iwasawa3.se
    alg = se.algebra
    w = se.apply_del(alg.monomial((3,), (1,)))
    assert w == alg.monomial((1, 2), (1,), -1)
    v = ec_iwasawa.form_to_vec(w, 2, 1)
    assert not se.apply_del(w) and not se.apply_delbar(w)
    assert not ec_iwasawa.image_echelon("ddbar", 2, 1).contains(v)  # BC-nontrivial
    assert ec_iwasawa.image_echelon("del", 2, 1).contains(v)  # del-trivial
    _report(5, "weak(2)=T, dual_mild(2,3)=T, mild(2,3)=F with the verified witness")


def test_criterion_06_bcvary_lemma_pair_and_hierarchy(ec_bcvary0):
    report = lemma_report(ec_bcvary0, [(4, 5)])
    assert report.mild_flags == {(4, 5): True} and report.strong_flags == {(4, 5): False}
    for name in CATALOG_NAMES:
        entry = catalog_load(name)
        se = entry.se
        if se.algebra.ring.m:
            se = evaluate_se(se, zero_point(se.algebra.ring.m))
        ec = EvaluatedComplex(build_complex(se), ())
        # lemma_report raises if strong != mild and dual_mild anywhere, or
        # if mild holds at (p,p+1) while weak fails at p
        lemma_report(ec)
    _report(6, "mild(4,5)=T, strong(4,5)=F at 0; hierarchy identities on the catalog")


def test_criterion_07_extension_solver_21_generators(bcvary10, ec_bcvary0):
    start = time.monotonic()
    alg = bcvary10.se.algebra
    gens = ec_bcvary0.kernel("stacked", 4, 4)
    assert len(gens) == 21
    states = []
    for k, gv in enumerate(gens):
        omega0 = ec_bcvary0.vec_to_form(gv, 4, 4, alg)
        st = solve_extension(
            bcvary10.se, bcvary10.beltrami, omega0, order=4,
            ec0=ec_bcvary0, check_lemmata=(k == 0),
        )
        # full d-residual exactly zero through order 4, and the two
        # obstruction components vanish order by order
        assert not st.full_residual
        assert st.residual_left_by_order == [Fraction(0)] * 5
        assert st.residual_right_by_order == [Fraction(0)] * 5
        states.append(st)
    sample_pts = [small_points(4)[0], generic_points(4)[0]]
    for pt in sample_pts:
        se_t = deform_complex(bcvary10.se, bcvary10.beltrami, point=pt)
        ect = EvaluatedComplex(build_complex(se_t), ())
        vecs = [ect.form_to_vec(st.omega.eval(pt), 4, 4) for st in states]
        assert linalg.forward_echelon(vecs).rank == 21
        # BC-classification consistency: every generator nontrivial at 0
        # stays nontrivial on the sampled fiber
        for st in states:
            if bc_nontriviality(ec_bcvary0, st.omega0):
                assert bc_nontriviality(ect, st.omega.eval(pt))
    elapsed = time.monotonic() - start
    assert elapsed <= 300, f"runtime budget exceeded: {elapsed:.1f}s"
    _report(7, f"21 generators extend d-closed, independent, BC-consistent ({elapsed:.2f}s)")


def test_criterion_08_operator_identity_suites(torus3, iwasawa3, bcvary10, ec_iwasawa):
    rng = DetRng(57)
    # main1 residual, exhaustive over all bidegrees for n = 3
    for entry in (torus3, iwasawa3):
        alg = entry.se.algebra
        phis = []
        for _ in range(2):
            comps = {}
            for _ in range(2):
                i = rng.next_int(3) + 1
                comps[i] = comps.get(i, alg.zero()) + alg.gammabar(
                    rng.next_int(3) + 1
                ).scale(nonzero_gaussian(rng, 3))
            phis.append(VectorValuedForm(alg, T10, comps))
        for phi in phis:
            for p in range(4):
                for q in range(4):
                    for m in form_basis(alg, p, q):
                        a = Form(alg, {m: alg.ring.one()})
                        assert not main1_residual(entry.se, phi, a)
    # symbolic on the ten-dimensional family
    alg5 = bcvary10.se.algebra
    for m in [((1,), (3,)), ((2, 5), (2, 5)), ((1, 3, 5), (2,))]:
        a = Form(alg5, {m: alg5.ring.one()})
        assert not main1_residual(bcvary10.se, bcvary10.beltrami, a)
    # Tian-Todorov contraction identity on random data over Iwasawa
    se = iwasawa3.se
    alg = se.algebra
    for _ in range(3):
        phi = VectorValuedForm(alg, T10, {1: alg.gammabar(rng.next_int(3) + 1).scale(nonzero_gaussian(rng, 3)), 3: alg.gammabar(rng.next_int(3) + 1)})
        psi = VectorValuedForm(alg, T10, {2: alg.gammabar(rng.next_int(3) + 1).scale(nonzero_gaussian(rng, 3))})
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
                    assert lhs == rhs
    # Green identities at (2,2)/(1,1) on Iwasawa: G_BC dd~ = dd~ G_A and
    # 1 = H + box G for both Laplacians
    hc = HodgeContext(ec_iwasawa)
    dd = ec_iwasawa.rows("ddbar", 1, 1)
    assert linalg.mat_mul(hc.green_bc_rows(2, 2), dd) == linalg.mat_mul(
        dd, hc.green_a_rows(1, 1)
    )
    for (p, q), which in (((2, 2), "bc"), ((1, 1), "bc"), ((1, 1), "a")):
        dim = ec_iwasawa.dim(p, q)
        if which == "bc":
            lap, h, g = hc.lap_bc_rows(p, q), hc.harmonic_bc_rows(p, q), hc.green_bc_rows(p, q)
        else:
            lap, h, g = hc.lap_a_rows(p, q), hc.harmonic_a_rows(p, q), hc.green_a_rows(p, q)
        assert mat_add(h, linalg.mat_mul(lap, g)) == linalg.identity_rows(dim)
    # canonical-solution minimality against 20 kernel perturbations
    alg3 = iwasawa3.se.algebra
    basis11 = form_basis(alg3, 1, 1)
    instances = 0
    while instances < 3:
        x0 = Form(alg3, {basis11[rng.next_int(9)]: alg3.ring.const(nonzero_gaussian(rng, 3))})
        y = se.apply_del(se.apply_delbar(x0))
        if not y:
            continue
        xv = ec_iwasawa.ddbar_preimage(2, 2, ec_iwasawa.form_to_vec(y, 2, 2))
        x = ec_iwasawa.vec_to_form(xv, 1, 1)
        assert se.apply_del(se.apply_delbar(x)) == y
        base = norm2_vec(xv)
        kernel = ec_iwasawa.kernel("ddbar", 1, 1)
        perturbations = 0
        while perturbations < 20:
            k = {}
            for v in kernel:
                k = vec_add(k, vec_scale(v, rng.gaussian(2)))
            if not k:
                continue
            assert base <= norm2_vec(vec_add(xv, k))
            perturbations += 1
        instances += 1
    _report(8, "main1, Tian-Todorov, Green identities and minimality all exact")


def test_criterion_09_positivity_certificates(torus3, bcvary10):
    omega = bcvary10.forms["balanced"].eval(zero_point(4))
    assert is_strictly_positive(omega).holds is True
    exact = is_transverse(omega, 4)
    assert exact.holds is True and exact.exact
    ok, _, _ = pkahler_check(torus3.se, torus3.forms["kaehler"])
    assert ok
    ok, _, _ = pkahler_check(bcvary10.se, bcvary10.forms["balanced"])
    assert ok
    # transversality preserved at extension evaluations, |t| <= 1/100,
    # seed-fixed sampling with >= 200 decomposable samples each
    ext = pkahler_extend(
        bcvary10.se, bcvary10.beltrami, bcvary10.forms["balanced"], samples=200, seed=7
    )
    assert ext.state.d_closed_through_order
    assert ext.transverse_at_all_points
    for pt in ext.points:
        total = Fraction(0)
        for z in pt:
            total += z.norm2()
        assert total <= Fraction(1, 100) ** 2 * 16
        sampled = is_transverse(
            ext.symmetrized.eval(pt), 4, samples=200, seed=7, force_sampled=True
        )
        assert sampled.holds is True and sampled.samples_used == 200
    _report(9, "balanced form certified positive/transverse; openness sampled at |t|<=1/100")


def test_criterion_10_two_way_residual_equivalence():
    rng = DetRng(91)
    for name in CATALOG_NAMES:
        entry = catalog_load(name)
        n = entry.se.n
        for trial in range(50):
            order = rng.next_int(3) + 1
            ring = PolyRing(2, order)
            alg = FormAlgebra(n, ring)
            se = entry.se.with_algebra(alg)
            comps = {}
            for _ in range(2):
                i = rng.next_int(n) + 1
                comps[i] = comps.get(i, alg.zero()) + alg.gammabar(
                    rng.next_int(n) + 1
                ).scale(ring.t(rng.next_int(2) + 1) * nonzero_gaussian(rng, 2))
            phi = VectorValuedForm(alg, T10, comps)
            p, q = rng.next_int(n) + 1, rng.next_int(n) + 1
            basis = form_basis(alg, p, q)
            omega = Form(alg, {basis[rng.next_int(len(basis))]: alg.ring.const(nonzero_gaussian(rng, 2))})
            # the operation asserts the exact agreement of the direct and
            # k-sum computations internally and raises on any mismatch
            obstruction_residual(se, phi, omega)
    _report(10, "direct and k-sum residuals agree on 50 random triples per entry")
