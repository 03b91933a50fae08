from fractions import Fraction

import pytest

from nilforms import linalg
from nilforms.algebra import (
    Form,
    FormAlgebra,
    T10,
    VectorValuedForm,
    build_complex,
    contract,
    simultaneous_contract,
)
from nilforms.catalog import catalog_load
from nilforms.cohomology import EvaluatedComplex, generic_points, zero_point
from nilforms.deformation import deform_complex, evaluate_se
from nilforms.errors import ObstructionNonvanishing, PreconditionFailed
from nilforms.extension import (
    a_ladder,
    bc_nontriviality,
    beltrami_operators,
    from_tilde,
    obstruction_residual,
    pkahler_extend,
    small_points,
    solve_extension,
    to_tilde,
)
from nilforms.scalars import DetRng, GaussianRational, PolyRing, QI


def _random_mono_form(alg, rng, p, q, coeff=None):
    basis = alg.basis(p, q)
    c = coeff if coeff is not None else rng.nonzero_gaussian(3)
    return Form(alg, {basis[rng.next_int(len(basis))]: alg.ring.const(c)})


def _random_beltrami_family(alg, rng, comps=2):
    out = {}
    for _ in range(comps):
        i = rng.next_int(alg.n) + 1
        j = rng.next_int(alg.n) + 1
        nu = rng.next_int(alg.ring.m) + 1
        cur = out.get(i, alg.zero())
        out[i] = cur + alg.gammabar(j).scale(alg.ring.t(nu) * rng.nonzero_gaussian(2))
    return VectorValuedForm(alg, T10, out)


# -- ladder ------------------------------------------------------------------


def test_a_ladder_zero_phi(bcvary10):
    alg = bcvary10.se.algebra
    omega = bcvary10.forms["balanced"]
    ladder = a_ladder(VectorValuedForm(alg, T10, {}), omega)
    assert len(ladder) == 1 and ladder[0] == omega


def test_a_ladder_bidegree_bound(bcvary10):
    # (p,q) = (4,4) on n = 5: min(q, n-p) = 1, so only A_0 and A_1 survive
    omega = bcvary10.forms["balanced"]
    ops = beltrami_operators(bcvary10.beltrami)
    ladder = a_ladder(ops, to_tilde(ops, omega))
    assert len(ladder) <= 2
    for k, a_k in enumerate(ladder):
        if a_k:
            assert a_k.is_homogeneous(4 + k, 4 - k)


def test_tilde_transform_roundtrip(bcvary10):
    rng = DetRng(3)
    ops = beltrami_operators(bcvary10.beltrami)
    alg = bcvary10.se.algebra
    for _ in range(5):
        omega = _random_mono_form(alg, rng, 4, 4)
        assert from_tilde(ops, to_tilde(ops, omega)) == omega


def test_extension_factorization(bcvary10):
    """e^{iota_phi|iota_phibar}(omega) equals e^{iota_phi} e^{iota_B}
    applied to the transformed series state."""
    from nilforms.algebra import exp_contract

    rng = DetRng(5)
    ops = beltrami_operators(bcvary10.beltrami)
    alg = bcvary10.se.algebra
    for _ in range(4):
        omega = _random_mono_form(alg, rng, 4, 4)
        direct = simultaneous_contract(ops.ext_transform, omega)
        staged = exp_contract(
            bcvary10.beltrami, exp_contract(ops.b_field, to_tilde(ops, omega))
        )
        assert direct == staged


# -- obstruction residuals ------------------------------------------------------


def test_residual_zero_for_closed_form_and_zero_phi(bcvary10):
    alg = bcvary10.se.algebra
    omega = bcvary10.forms["balanced"]
    left, right, full = obstruction_residual(
        bcvary10.se, VectorValuedForm(alg, T10, {}), omega
    )
    assert left.is_zero() and right.is_zero() and full.is_zero()


def test_uncorrected_residuals_at_44_vanish(bcvary10, ec_bcvary0):
    """Computed fact: on this family the plain coframe substitution already
    maps every d-closed (4,4)-form to a d-closed form (a stronger statement
    than the invariance of their dimension), so the series corrections at
    (4,4) are all zero."""
    alg = bcvary10.se.algebra
    for gv in ec_bcvary0.kernel("stacked", 4, 4):
        omega0 = ec_bcvary0.vec_to_form(gv, 4, 4, alg)
        left, right, full = obstruction_residual(bcvary10.se, bcvary10.beltrami, omega0)
        assert full.is_zero() and left.is_zero() and right.is_zero()


def test_nonzero_corrections_at_33(bcvary10, ec_bcvary0):
    """At (3,3) many d-closed forms pick up nonzero residuals without
    correction; the order-by-order Green solve repairs them exactly for
    the solvable ones and raises for the genuinely obstructed ones (the
    mild-lemma pair fails at this bidegree, so both behaviors occur)."""
    alg = bcvary10.se.algebra
    gens = ec_bcvary0.kernel("stacked", 3, 3)
    solved_with_correction = 0
    obstructed = 0
    uncorrected_nonzero = 0
    for gv in gens[:20]:
        omega0 = ec_bcvary0.vec_to_form(gv, 3, 3, alg)
        _, _, full = obstruction_residual(bcvary10.se, bcvary10.beltrami, omega0)
        if not full.is_zero():
            uncorrected_nonzero += 1
        try:
            st = solve_extension(
                bcvary10.se, bcvary10.beltrami, omega0, ec0=ec_bcvary0, check_lemmata=False
            )
        except ObstructionNonvanishing:
            obstructed += 1
            continue
        assert st.d_closed_through_order
        if st.omega != omega0:
            solved_with_correction += 1
    assert uncorrected_nonzero > 0
    assert solved_with_correction > 0
    assert obstructed > 0


def test_two_way_residual_agreement_random_triples():
    """Criterion-style equivalence check: the direct d of the extension and
    the graded k-sums agree exactly (asserted inside the operation) on
    random (omega, phi, order) triples for every catalog entry."""
    rng = DetRng(41)
    for name in ("torus3", "iwasawa3", "abelian_2", "bcvary10"):
        entry = catalog_load(name)
        n = entry.se.n
        for trial in range(50):
            order = rng.next_int(3) + 1
            ring = PolyRing(2, order)
            alg = FormAlgebra(n, ring)
            se = entry.se.with_algebra(alg)
            phi = _random_beltrami_family(alg, rng, comps=2)
            p, q = rng.next_int(n) + 1, rng.next_int(n) + 1
            omega = _random_mono_form(alg, rng, p, q)
            obstruction_residual(se, phi, omega)  # raises on any disagreement


# -- the solver -----------------------------------------------------------------


def test_solve_extension_zero_phi(bcvary10):
    alg = bcvary10.se.algebra
    omega = bcvary10.forms["balanced"]
    state = solve_extension(bcvary10.se, VectorValuedForm(alg, T10, {}), omega)
    assert state.omega_tilde == omega
    assert state.omega == omega
    assert state.d_closed_through_order


def test_solve_extension_torus_green_terms_vanish(torus3):
    ring = PolyRing(2, 3)
    alg = FormAlgebra(3, ring)
    se = torus3.se.with_algebra(alg)
    rng = DetRng(7)
    phi = _random_beltrami_family(alg, rng)
    omega = _random_mono_form(alg, rng, 1, 1)
    state = solve_extension(se, phi, omega)
    assert state.d_closed_through_order
    # all differentials vanish, so the Green terms contribute nothing and
    # each order corrects by the type-preserving ladder sum alone: the
    # (1,1)-component of the extension collapses back to omega itself
    ops = beltrami_operators(phi)
    ext = simultaneous_contract(ops.ext_transform, state.omega)
    assert ext.component(1, 1) == omega


def test_solver_output_satisfies_graded_pieces(bcvary10, ec_bcvary0):
    """Order-by-order soundness: the full residual vanishing through N forces
    (delbar_phi A_0)_l = 0 and (del A_k + delbar_phi A_{k+1})_l = 0."""
    alg = bcvary10.se.algebra
    se = bcvary10.se
    phi = bcvary10.beltrami
    state = solve_extension(se, phi, bcvary10.forms["balanced"], ec0=ec_bcvary0)
    assert state.d_closed_through_order
    ladder = state.ladder

    def delbar_phi(x):
        return (
            se.apply_delbar(x)
            + se.apply_del(contract(phi, x))
            - contract(phi, se.apply_del(x))
        )

    pieces = [delbar_phi(ladder[0])]
    for k in range(len(ladder)):
        nxt = ladder[k + 1] if k + 1 < len(ladder) else alg.zero()
        pieces.append(se.apply_del(ladder[k]) + delbar_phi(nxt))
    for piece in pieces:
        for l in range(state.order + 1):
            assert piece.homogeneous_part(l).is_zero()


def test_solver_conjugation_compatibility(bcvary10, ec_bcvary0):
    """The conjugate of a solution solves the conjugate problem: the system
    is conjugation-compatible even though the canonical representatives
    may differ (which is exactly why real inputs are symmetrized)."""
    alg = bcvary10.se.algebra
    gens = ec_bcvary0.kernel("stacked", 3, 3)
    solved = 0
    for gv in gens[:8]:
        omega0 = ec_bcvary0.vec_to_form(gv, 3, 3, alg)
        try:
            st = solve_extension(
                bcvary10.se, bcvary10.beltrami, omega0, ec0=ec_bcvary0, check_lemmata=False
            )
        except ObstructionNonvanishing:
            continue
        _, _, full = obstruction_residual(bcvary10.se, bcvary10.beltrami, st.omega.conj())
        assert full.is_zero()
        solved += 1
    assert solved > 0


def test_solve_extension_preconditions(iwasawa3, bcvary10):
    ring = PolyRing(1, 2)
    alg = FormAlgebra(3, ring)
    se = iwasawa3.se.with_algebra(alg)
    phi = VectorValuedForm(alg, T10, {1: alg.gammabar(2).scale(ring.t(1))})
    not_closed = alg.monomial((3,), (3,))
    with pytest.raises(PreconditionFailed):
        solve_extension(se, phi, not_closed)
    closed = alg.monomial((1, 3), (1, 3))
    with pytest.raises(PreconditionFailed):
        # the (2,3)-th mild lemma fails on the Iwasawa complex
        solve_extension(se, phi, closed)
    bad_phi = VectorValuedForm(alg, T10, {3: alg.gammabar(3).scale(ring.t(1))})
    with pytest.raises(PreconditionFailed):
        solve_extension(se, bad_phi, closed)


def test_obstruction_nonvanishing_when_lemma_skipped(iwasawa3):
    """With the failing mild lemma deliberately unchecked, the Iwasawa
    complex obstructs a (2,2)-extension at first order: the required
    del-delbar preimage does not exist."""
    ring = PolyRing(1, 2)
    alg = FormAlgebra(3, ring)
    se = iwasawa3.se.with_algebra(alg)
    phi = VectorValuedForm(alg, T10, {1: alg.gammabar(2).scale(ring.t(1))})
    omega0 = alg.monomial((1, 3), (1, 3))
    assert not se.apply_d(omega0)
    with pytest.raises(ObstructionNonvanishing) as err:
        solve_extension(se, phi, omega0, check_lemmata=False)
    assert err.value.order == 1
    assert err.value.component in ("left", "right")


def test_bc_nontriviality(ec_bcvary0, bcvary10, ec_torus, torus3):
    alg0 = ec_bcvary0.cx.algebra
    some = ec_bcvary0.vec_to_form(
        {0: GaussianRational(1)}, 3, 3, alg0
    )
    exact = ec_bcvary0.cx.se.apply_del(ec_bcvary0.cx.se.apply_delbar(some))
    if exact:
        assert not bc_nontriviality(ec_bcvary0, exact)
    torus_alg = torus3.se.algebra
    assert bc_nontriviality(ec_torus, torus_alg.monomial((1,), (2,)))


def test_pkahler_extend_torus():
    entry = catalog_load("torus3")
    ring = PolyRing(2, 3)
    alg = FormAlgebra(3, ring)
    se = entry.se.with_algebra(alg)
    phi = VectorValuedForm(
        alg,
        T10,
        {1: alg.gammabar(2).scale(ring.t(1)), 2: alg.gammabar(3).scale(ring.t(2))},
    )
    omega = entry.forms["kaehler"].lift(alg)
    ext = pkahler_extend(se, phi, omega, samples=40, seed=3)
    assert ext.state.d_closed_through_order
    assert ext.transverse_at_all_points
    assert all(v.exact for v in ext.verdicts)  # p = 1 certificates are exact


def test_pkahler_extend_rejects_top_degree(bcvary10):
    alg = bcvary10.se.algebra
    top = alg.monomial((1, 2, 3, 4, 5), (1, 2, 3, 4, 5))
    with pytest.raises(PreconditionFailed):
        pkahler_extend(bcvary10.se, bcvary10.beltrami, top)


def test_pkahler_extend_rejects_nonreal(bcvary10):
    alg = bcvary10.se.algebra
    not_real = alg.monomial((1, 2, 3, 4), (1, 2, 3, 5))
    with pytest.raises(PreconditionFailed):
        pkahler_extend(bcvary10.se, bcvary10.beltrami, not_real)


def test_small_points_are_small():
    for pt in small_points(4):
        total = Fraction(0)
        for z in pt:
            assert abs(z.re) <= Fraction(1, 100)
            total += z.norm2()
        assert total <= Fraction(1, 100) ** 2 * 16  # comfortably tiny


def test_second_solve_reuses_green_operators(bcvary10, monkeypatch):
    se0 = evaluate_se(bcvary10.se, zero_point(4))
    ec0 = EvaluatedComplex(build_complex(se0), ())
    omega0 = ec0.vec_to_form(ec0.kernel("stacked", 4, 4)[0], 4, 4, bcvary10.se.algebra)
    sizes = []
    real = linalg.dense_inverse
    monkeypatch.setattr(linalg, "dense_inverse", lambda a: sizes.append(len(a)) or real(a))
    first = solve_extension(bcvary10.se, bcvary10.beltrami, omega0, ec0=ec0, check_lemmata=False)
    assert sizes
    sizes.clear()
    second = solve_extension(bcvary10.se, bcvary10.beltrami, omega0, ec0=ec0, check_lemmata=False)
    assert sizes == []
    assert second.omega == first.omega
