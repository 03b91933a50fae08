from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from nilforms import linalg
from nilforms.algebra import (
    Form,
    FormAlgebra,
    StructureEquations,
    T10,
    VectorValuedForm,
    build_complex,
    contract,
    simultaneous_contract,
)
from nilforms.catalog import catalog_load
from nilforms.cohomology import EvaluatedComplex, generic_points, zero_point
from nilforms.deformation import deform_complex, evaluate_se
from nilforms.errors import IntegrabilityError, ObstructionNonvanishing, PreconditionFailed
from nilforms.extension import (
    a_ladder,
    bc_nontriviality,
    beltrami_operators,
    ladder_sums,
    obstruction_residual,
    pkahler_extend,
    small_points,
    solve_extension,
)
from nilforms.lemmata import mild
from nilforms.scalars import DetRng, GaussianRational, PolyRing, QI

from oracles import simultaneous_contract_scalar_first, solve_extension_whole_series


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
    phi = bcvary10.beltrami
    ladder = a_ladder(phi, simultaneous_contract(beltrami_operators(phi).shrink, omega))
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
        assert simultaneous_contract(ops.unshrink, simultaneous_contract(ops.shrink, omega)) == omega


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
            bcvary10.beltrami, exp_contract(ops.b_field, simultaneous_contract(ops.shrink, omega))
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
    random (omega, phi, order) triples for every catalog entry, and on
    every monomial of an n = 4 complex with a rank-3 phi at ring orders
    5 and 6."""
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
    # the k-sums read iota_phi^j/j! with j >= 3 here
    for order in (5, 6):
        alg = FormAlgebra(4, PolyRing(3, order))
        g, gb = alg.gamma, alg.gammabar
        se = StructureEquations("n4", alg, {4: g(1).wedge(g(2)) + g(2).wedge(gb(3)) + g(3).wedge(gb(1))})
        phi = _diagonal_beltrami(alg)
        for omega in _all_monomials(alg):
            obstruction_residual(se, phi, omega)


def _diagonal_beltrami(alg):
    """phi = sum_{i <= m} t_i gammabar^i (x) theta_i."""
    ring = alg.ring
    return VectorValuedForm(alg, T10, {i: alg.gammabar(i).scale(ring.t(i)) for i in range(1, ring.m + 1)})


def _all_monomials(alg):
    one = alg.ring.one()
    return [
        Form(alg, {m: one})
        for p in range(alg.n + 1)
        for q in range(alg.n + 1)
        for m in alg.basis(p, q)
    ]


def test_ladder_sums_match_their_factorial_formula():
    """ladder_sums equals its docstring formula, built here from contract
    with explicit factorials, on every monomial of abelian_4 with a
    rank-3 phi at ring orders 5 and 6 (where iota_phi^j/j! with j >= 3
    enters the sums)."""
    n = catalog_load("abelian_4").se.n

    def powers(theta, a):
        out = [a]
        while out[-1]:
            out.append(contract(theta, out[-1]))
        return out

    for order in (5, 6):
        alg = FormAlgebra(n, PolyRing(3, order))
        phi = _diagonal_beltrami(alg)
        b_field = beltrami_operators(phi).b_field
        zero = alg.zero()
        for omega in _all_monomials(alg):
            s1 = s2 = s3 = zero
            for k, b_power in enumerate(powers(b_field, omega)):
                a_k = b_power.scale(QI(Fraction(1, factorial(k))))
                terms = [x.scale(QI(Fraction(1, factorial(j)))) for j, x in enumerate(powers(phi, a_k))]
                terms += [zero] * (k + 2)
                if k >= 1:
                    s1, s2 = s1 + terms[k], s2 + terms[k - 1]
                s3 = s3 + terms[k + 1]
            assert ladder_sums(phi, omega) == (s1, s2, s3)


def _random_param_form(alg, rng, nterms):
    """A t-dependent form of mixed bidegree: each coefficient has a
    constant, a t and a tbar term."""
    ring = alg.ring
    total = alg.zero()
    for _ in range(nterms):
        p, q = rng.next_int(alg.n + 1), rng.next_int(alg.n + 1)
        basis = alg.basis(p, q)
        c = (
            ring.const(rng.gaussian(3))
            + ring.t(rng.next_int(ring.m) + 1) * rng.nonzero_gaussian(3)
            + ring.tbar(rng.next_int(ring.m) + 1) * rng.nonzero_gaussian(3)
        )
        total = total + Form(alg, {basis[rng.next_int(len(basis))]: c})
    return total


def test_ladder_sums_are_linear(bcvary10):
    """The k-sums are linear in W, which is what lets the solver add the
    sums of each new correction to running sums: on seeded random
    t-dependent forms, sums(a + c b) = sums(a) + c sums(b) for constant
    and t-dependent c, and the zero form maps to three zero forms."""
    phi = bcvary10.beltrami
    alg = phi.algebra
    ring = alg.ring
    zero = alg.zero()
    assert ladder_sums(phi, zero) == (zero, zero, zero)
    rng = DetRng(53)
    nonzero = 0
    for _ in range(12):
        a = _random_param_form(alg, rng, 6)
        b = _random_param_form(alg, rng, 6)
        for c in (ring.const(rng.nonzero_gaussian(5)), ring.one() + ring.t(1) * rng.nonzero_gaussian(3)):
            combined = ladder_sums(phi, a + b.scale(c))
            separate = [x + y.scale(c) for x, y in zip(ladder_sums(phi, a), ladder_sums(phi, b))]
            assert list(combined) == separate
            nonzero += all(combined)
    assert nonzero > 12


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
    ladder = a_ladder(phi, state.omega_tilde)

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


def _solve_outcome(solver, se, phi, omega0, **kwargs):
    """The ExtensionState of a solve, which compares W (and so its
    ladder), omega, both residual lists and the full residual; or the
    (order, side) of its obstruction."""
    try:
        return solver(se, phi, omega0, **kwargs)
    except ObstructionNonvanishing as exc:
        return ("obstructed", exc.order, exc.component)


def test_incremental_order_loop_equals_whole_series_oracle(bcvary10, ec_bcvary0):
    """The running k-sums give what recomputing them over the whole series
    at every order gives, on every d-closed generator of bcvary10 at
    every bidegree: the same W, omega, residuals and full residual, or
    an obstruction at the same (order, side)."""
    alg = bcvary10.se.algebra
    kinds = {"solved": 0, "obstructed": 0}
    for p in range(alg.n + 1):
        for q in range(alg.n + 1):
            if not ec_bcvary0.dim(p, q):
                continue
            for gv in ec_bcvary0.kernel("stacked", p, q):
                omega0 = ec_bcvary0.vec_to_form(gv, p, q, alg)
                outcomes = [
                    _solve_outcome(
                        solver, bcvary10.se, bcvary10.beltrami, omega0, ec0=ec_bcvary0, check_lemmata=False
                    )
                    for solver in (solve_extension, solve_extension_whole_series)
                ]
                assert outcomes[0] == outcomes[1], (p, q)
                kinds["obstructed" if isinstance(outcomes[0], tuple) else "solved"] += 1
    assert kinds == {"solved": 456, "obstructed": 152}


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
    """The solvers build no Green operator: solve_extension and
    pkahler_extend make no square solve.  The first solve on ec0 builds
    at least one tracked preimage echelon, each one cached, and a second
    solve on the same ec0 builds none.  The square-solve hook does see
    the coframe inverse of deform_complex at a point."""
    se0 = evaluate_se(bcvary10.se, zero_point(4))
    ec0 = EvaluatedComplex(build_complex(se0), ())
    # this (3,3) generator extends through a del-delbar solve at (3,4)
    omega0 = ec0.vec_to_form(ec0.kernel("stacked", 3, 3)[1], 3, 3, bcvary10.se.algebra)
    sizes = []
    real = linalg.solve_square
    monkeypatch.setattr(linalg, "solve_square", lambda a, b: sizes.append(len(a)) or real(a, b))
    tracked = []
    real_track = linalg.Echelon.track
    monkeypatch.setattr(linalg.Echelon, "track", lambda e, *a: tracked.append(e) or real_track(e, *a))
    first = solve_extension(bcvary10.se, bcvary10.beltrami, omega0, ec0=ec0, check_lemmata=False)
    cached = [e for _, e in ec0._preimages.values()]
    assert tracked and all(any(e is c for c in cached) for e in tracked)
    tracked.clear()
    second = solve_extension(bcvary10.se, bcvary10.beltrami, omega0, ec0=ec0, check_lemmata=False)
    assert tracked == []
    assert second.omega == first.omega
    ext = pkahler_extend(bcvary10.se, bcvary10.beltrami, bcvary10.forms["balanced"], samples=40, seed=3)
    assert ext.state.d_closed_through_order
    assert sizes == []
    # the hook sees a square solve: the coframe inverse at a point
    deform_complex(bcvary10.se, bcvary10.beltrami, point=generic_points(4)[0])
    assert sizes == [10]


def test_second_solve_rebuilds_no_deformation_data(monkeypatch):
    """The structure equations own their Lie bracket table and phi owns
    its BeltramiOperators and its integrability verdict: a second solve
    on the same (se, phi), a pkahler_extend after it and a deform_complex
    after that build no table and no Neumann series and check
    integrability once in all, and the second solve, at the same
    bidegree, adds or rebuilds no prefix image of ext_transform, shrink
    or unshrink.  A non-integrable phi is still refused.  A Jacobi
    failure is never stored."""
    from nilforms import deformation, extension
    from nilforms.algebra import StructureEquations
    from nilforms.errors import JacobiError

    entry = catalog_load("bcvary10")  # a fresh se and phi, nothing cached yet
    se, phi = entry.se, entry.beltrami
    ec0 = EvaluatedComplex(build_complex(evaluate_se(se, zero_point(4))), ())
    omega0 = ec0.vec_to_form(ec0.kernel("stacked", 3, 3)[1], 3, 3, se.algebra)
    counts = {"tables": 0, "neumann": 0, "integrability": 0}

    def counting(key, real):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        deformation.LieBracketTable, "__init__", counting("tables", deformation.LieBracketTable.__init__)
    )
    for module in (extension, deformation):
        monkeypatch.setattr(module, "neumann_invert", counting("neumann", module.neumann_invert))
    monkeypatch.setattr(
        deformation, "check_integrability", counting("integrability", deformation.check_integrability)
    )

    first = solve_extension(se, phi, omega0, ec0=ec0, check_lemmata=False)
    assert counts == {"tables": 1, "neumann": 1, "integrability": 1}
    ops = phi.operators
    endos = (ops.ext_transform, ops.shrink, ops.unshrink)
    warm = [dict(b.images) for b in endos]
    assert all(len(images) > 1 for images in warm)
    second = solve_extension(se, phi, omega0.scale(QI(2, -3)), ec0=ec0, check_lemmata=False)
    assert counts == {"tables": 1, "neumann": 1, "integrability": 1}
    for b, images in zip(endos, warm):  # no entry added, none rebuilt
        assert b.images.keys() == images.keys() and all(b.images[k] is v for k, v in images.items())
    assert second.omega == first.omega.scale(QI(2, -3)) and second.omega != omega0
    ext = pkahler_extend(se, phi, entry.forms["balanced"], samples=40, seed=3)
    assert ext.state.d_closed_through_order
    assert counts == {"tables": 1, "neumann": 1, "integrability": 1}
    deform_complex(se, phi, point=generic_points(4)[0])
    assert counts["integrability"] == 1

    alg = se.algebra
    bad_phi = VectorValuedForm(alg, T10, {1: alg.gammabar(2).scale(alg.ring.t(1))})
    assert se.brackets is not None
    with pytest.raises(PreconditionFailed, match="not integrable"):
        solve_extension(se, bad_phi, omega0, ec0=ec0, check_lemmata=False)
    assert counts["tables"] == 1

    # d gamma^3 = gamma^1 ^ gamma^2 and d gamma^2 = gamma^3 ^ gammabar^1: d^2 gamma^3 != 0
    alg3 = FormAlgebra(3, PolyRing(0, 0))
    broken = StructureEquations(
        "broken",
        alg3,
        {2: alg3.gamma(3).wedge(alg3.gammabar(1)), 3: alg3.gamma(1).wedge(alg3.gamma(2))},
    )
    for _ in range(2):
        with pytest.raises(JacobiError):
            deformation.lie_brackets(broken)
        assert broken.brackets is None


def test_integrability_verdict_is_kept_only_for_a_pass_on_that_se(monkeypatch):
    """phi keeps a passing verdict for one se object only: a
    non-integrable phi is checked and refused on every call, with the
    same error types as before, and a phi that passed on one se is
    checked again on any other, even on equal equations."""
    from nilforms import deformation

    entry = catalog_load("bcvary10")
    se, phi = entry.se, entry.beltrami
    alg = se.algebra
    ec0 = EvaluatedComplex(build_complex(evaluate_se(se, zero_point(4))), ())
    omega0 = ec0.vec_to_form(ec0.kernel("stacked", 3, 3)[1], 3, 3, alg)
    checks = []
    real = deformation.check_integrability

    def counting(se_, phi_):
        checks.append(se_)
        return real(se_, phi_)

    monkeypatch.setattr(deformation, "check_integrability", counting)

    bad_phi = VectorValuedForm(alg, T10, {1: alg.gammabar(2).scale(alg.ring.t(1))})
    for k in (1, 2):
        with pytest.raises(PreconditionFailed, match="^phi is not integrable$"):
            solve_extension(se, bad_phi, omega0, ec0=ec0, check_lemmata=False)
        assert len(checks) == k and bad_phi.integrable_on is None
    residual_message = r"^phi is not integrable; delbar phi - \(1/2\)\[phi,phi\] = "
    for k in (3, 4):
        with pytest.raises(IntegrabilityError, match=residual_message):
            deform_complex(se, bad_phi, point=generic_points(4)[0])
        assert len(checks) == k and bad_phi.integrable_on is None

    # bad_phi is integrable on the abelian equations over the same algebra;
    # that pass says nothing about bcvary10
    torus = StructureEquations("torus5", alg, {})
    deform_complex(torus, bad_phi)
    assert checks[-1] is torus and bad_phi.integrable_on is torus
    with pytest.raises(PreconditionFailed, match="not integrable"):
        solve_extension(se, bad_phi, omega0, ec0=ec0, check_lemmata=False)
    assert len(checks) == 6 and bad_phi.integrable_on is torus

    deform_complex(se, phi)
    assert len(checks) == 7 and phi.integrable_on is se
    twin = StructureEquations(se.name, alg, se.d_coframe)
    solve_extension(twin, phi, omega0, ec0=ec0, check_lemmata=False)
    assert checks[-1] is twin and len(checks) == 8 and phi.integrable_on is twin
    solve_extension(twin, phi, omega0, ec0=ec0, check_lemmata=False)
    deform_complex(se, phi)
    assert checks[-1] is se and len(checks) == 9 and phi.integrable_on is se


def test_extension_theorem_bcvary10_c(bcvary10_c, monkeypatch):
    """The paper's theorem checked at n = 6 on bcvary10 x C.  At (5,5)
    the mild pair holds at t = 0, and every d-closed generator extends
    through the ring order with zero residual: an obstruction there is a
    defect.  At (4,4) and (3,3) the pair fails, and the plain, corrected
    and obstructed counts are the ones the Green route gives.  Every
    generator gives the same outcome, W, omega, full residual and
    residual lists through the oracles of the whole-series order loop and
    the scalar-first contraction together.  The balanced (5,5)-form
    extends and stays transverse at small_points."""
    from nilforms import extension

    se, phi = bcvary10_c
    alg = se.algebra
    ec0 = EvaluatedComplex(build_complex(evaluate_se(se, zero_point(4))), ())

    expected = {(5, 5): (True, 0, 32, 0), (4, 4): (False, 29, 114, 14), (3, 3): (False, 88, 65, 65)}
    for (p, q), want in expected.items():
        pair = mild(ec0, p, q + 1)[0] and mild(ec0, q, p + 1)[0]
        counts = {"plain": 0, "corrected": 0, "obstructed": 0}
        for gv in ec0.kernel("stacked", p, q):
            omega0 = ec0.vec_to_form(gv, p, q, alg)
            st = _solve_outcome(solve_extension, se, phi, omega0, ec0=ec0, check_lemmata=pair)
            with monkeypatch.context() as mp:
                mp.setattr(extension, "simultaneous_contract", simultaneous_contract_scalar_first)
                oracle = _solve_outcome(
                    solve_extension_whole_series, se, phi, omega0, ec0=ec0, check_lemmata=pair
                )
            assert oracle == st, (p, q)
            if isinstance(st, tuple):
                assert not pair, f"defect: obstruction at {(p, q)} although the mild pair holds"
                counts["obstructed"] += 1
                continue
            assert st.order == alg.ring.order and st.d_closed_through_order, (p, q)
            assert all(not st.full_residual.homogeneous_part(l) for l in range(st.order + 1))
            counts["plain" if st.omega == omega0 else "corrected"] += 1
        got = (pair, counts["plain"], counts["corrected"], counts["obstructed"])
        assert got == want, (p, q)
    balanced = alg.zero()
    for I in combinations(range(1, 7), 5):
        balanced = balanced + alg.monomial(I, I).scale(QI(0, 1))  # i^(5*5) makes it real
    ext = pkahler_extend(se, phi, balanced, samples=40, seed=3)
    assert ext.state.d_closed_through_order
    assert ext.transverse_at_all_points


def test_extension_survey_output_byte_identical_to_golden(capsys):
    """scripts/extension_survey.py prints the plain/corrected/obstructed
    table of every bidegree of bcvary10; the arithmetic is exact, so the
    table must match its recorded output byte for byte."""
    import importlib.util
    from pathlib import Path

    root = Path(__file__).parent
    script = root.parent / "scripts" / "extension_survey.py"
    spec = importlib.util.spec_from_file_location("extension_survey", script)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    survey.main()
    assert capsys.readouterr().out.encode() == (root / "data" / "extension_survey.txt").read_bytes()
