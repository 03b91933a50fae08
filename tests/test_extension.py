import dataclasses
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from nilforms import io as nio
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
from nilforms.deformation import deform_complex, evaluate_se, fiber_complex
from nilforms.errors import IntegrabilityError, ObstructionNonvanishing, PreconditionFailed
from nilforms import extension
from nilforms.extension import (
    bc_nontriviality,
    beltrami_operators,
    ladder_sums,
    obstruction_residual,
    pkahler_extend,
    small_points,
    solve_conjugate_system,
    solve_extension,
)
from nilforms.lemmata import mild
from nilforms.scalars import DetRng, GaussianRational, ParamScalar, PolyRing, QI

from oracles import (
    a_ladder,
    conjugate_solution_by_columns,
    exp_contract,
    form_basis,
    forms_by_degree,
    ladder_sums_whole_form,
    nonzero_gaussian,
    residual_norms_by_parts,
    simultaneous_contract_scalar_first,
    solve_extension_whole_series,
    whole_sums,
)


def _random_mono_form(alg, rng, p, q, coeff=None):
    basis = form_basis(alg, p, q)
    c = coeff if coeff is not None else nonzero_gaussian(rng, 3)
    return Form(alg, {basis[rng.next_int(len(basis))]: alg.ring.const(c)})


def _random_beltrami_family(alg, rng, comps=2):
    out = {}
    for _ in range(comps):
        i = rng.next_int(alg.n) + 1
        j = rng.next_int(alg.n) + 1
        nu = rng.next_int(alg.ring.m) + 1
        cur = out.get(i, alg.zero())
        out[i] = cur + alg.gammabar(j).scale(alg.ring.t(nu) * nonzero_gaussian(rng, 2))
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
    assert not left and not right and not full


def test_uncorrected_residuals_at_44_vanish(bcvary10, ec_bcvary0):
    """Computed fact: on this family the plain coframe substitution already
    maps every d-closed (4,4)-form to a d-closed form (a stronger statement
    than the invariance of their dimension), so the series corrections at
    (4,4) are all zero."""
    alg = bcvary10.se.algebra
    for gv in ec_bcvary0.kernel("stacked", 4, 4):
        omega0 = ec_bcvary0.vec_to_form(gv, 4, 4, alg)
        left, right, full = obstruction_residual(bcvary10.se, bcvary10.beltrami, omega0)
        assert not full and not left and not right


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
        if full:
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
        for m in form_basis(alg, p, q)
    ]


def test_ladder_sums_match_their_factorial_formula():
    """ladder_sums equals its docstring formula, built here from contract
    with explicit factorials and split by t-degree, on every monomial of
    abelian_4 with a rank-3 phi at ring orders 5 and 6 (where
    iota_phi^j/j! with j >= 3 enters the sums)."""
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
            assert ladder_sums(phi, omega) == tuple(forms_by_degree(s, order) for s in (s1, s2, s3))


def _random_param_form(alg, rng, nterms):
    """A t-dependent form of mixed bidegree: each coefficient has a
    constant, a t and a tbar term."""
    ring = alg.ring
    total = alg.zero()
    for _ in range(nterms):
        p, q = rng.next_int(alg.n + 1), rng.next_int(alg.n + 1)
        basis = form_basis(alg, p, q)
        c = (
            ring.const(rng.gaussian(3))
            + ring.t(rng.next_int(ring.m) + 1) * nonzero_gaussian(rng, 3)
            + ring.tbar(rng.next_int(ring.m) + 1) * nonzero_gaussian(rng, 3)
        )
        total = total + Form(alg, {basis[rng.next_int(len(basis))]: c})
    return total


def test_residual_norms_equal_those_of_the_homogeneous_parts():
    """residual_norms_by_order reads each term's t-degree off its key in
    one pass; on seeded forms whose coefficients have terms of every
    degree 0..N, at every order 0..N (so a term of degree N counts only
    at order N, and terms past the order not at all) it gives the
    squared norms of the homogeneous parts, each summed on its own."""
    from nilforms.extension import residual_norms_by_order

    rng = DetRng(83)
    for m, order in ((1, 2), (2, 4), (4, 4)):
        alg = FormAlgebra(3, PolyRing(m, order))
        ring = alg.ring
        for _ in range(6):
            basis = form_basis(alg, 1 + rng.next_int(2), rng.next_int(3))
            coeffs = {}
            for _ in range(4):
                c = ring.zero()
                for d in range(order + 1):
                    term = ring.const(nonzero_gaussian(rng, 4))
                    for _ in range(d):
                        nu = rng.next_int(m) + 1
                        term = term * (ring.t(nu) if rng.next_int(2) else ring.tbar(nu))
                    c = c + term
                coeffs[basis[rng.next_int(len(basis))]] = c
            f = Form(alg, coeffs)
            assert all(f.homogeneous_part(l) for l in range(order + 1))
            for upto in range(order + 1):
                assert residual_norms_by_order(f, upto) == residual_norms_by_parts(f, upto), (m, upto)


def _ladder_phis(bcvary10, bcvary10_c, iwasawa3):
    """Beltrami differentials for the ladder tests: bcvary10's family,
    the same on bcvary10 x C (passive factors gamma^6 and gammabar^6),
    iwasawa3's family (every factor hooked) and abelian_4's rank-3
    diagonal phi at ring order 5."""
    return [bcvary10.beltrami, bcvary10_c[1], iwasawa3.beltrami, _diagonal_beltrami(FormAlgebra(4, PolyRing(3, 5)))]


def test_ladder_sums_equal_the_whole_form_oracle(bcvary10, bcvary10_c, iwasawa3):
    """The k-sums read per hooked factor set, each monomial's k-sums the
    cached k-sums of its hooked factors wedged with the rest, split by
    t-degree, equal the homogeneous parts of the contraction series of B
    and phi on the whole form, on seeded t-dependent forms of mixed
    bidegree and mixed t-degree."""
    rng = DetRng(67)
    for phi in _ladder_phis(bcvary10, bcvary10_c, iwasawa3):
        order = phi.algebra.ring.order
        nonzero = 0
        for _ in range(8):
            w = _random_param_form(phi.algebra, rng, 8)
            sums = ladder_sums(phi, w)
            assert sums == tuple(forms_by_degree(s, order) for s in ladder_sums_whole_form(phi, w))
            nonzero += all(len(s) > 1 for s in sums)
        assert nonzero, phi.algebra
    # a W over another ring is refused, even one no operator hooks
    with pytest.raises(ValueError):
        ladder_sums(bcvary10.beltrami, FormAlgebra(5, PolyRing(0, 0)).monomial((1,), (3,)))


def test_ladder_sums_are_linear(bcvary10, bcvary10_c, iwasawa3):
    """The k-sums are linear in W, which is what lets the solver add the
    sums of each new correction to running sums: on seeded random
    t-dependent forms, sums(a + c b) = sums(a) + c sums(b) for constant
    and t-dependent c, summed over t-degrees, and the zero form maps to
    three empty sums."""
    rng = DetRng(53)
    for phi in _ladder_phis(bcvary10, bcvary10_c, iwasawa3):
        ring = phi.algebra.ring
        zero = phi.algebra.zero()
        assert ladder_sums(phi, zero) == ({}, {}, {})
        nonzero = 0
        for _ in range(12):
            a = _random_param_form(phi.algebra, rng, 6)
            b = _random_param_form(phi.algebra, rng, 6)
            for c in (ring.const(nonzero_gaussian(rng, 5)), ring.one() + ring.t(1) * nonzero_gaussian(rng, 3)):
                combined = whole_sums(ladder_sums(phi, a + b.scale(c)), phi.algebra)
                sums_a, sums_b = (whole_sums(ladder_sums(phi, x), phi.algebra) for x in (a, b))
                separate = [x + y.scale(c) for x, y in zip(sums_a, sums_b)]
                assert list(combined) == separate
                nonzero += all(combined)
        assert nonzero > 12, phi.algebra


def test_ladder_cache_is_bounded_by_the_hooked_factors(bcvary10, ec_bcvary0, monkeypatch):
    """Counts, no wall time: phi and B hook gamma^2, gamma^5, gammabar^2
    and gammabar^5 of bcvary10, so after one solve of every (3,3) and
    (4,4) generator at every order, phi's k-sum cache holds at most 2^4
    entries, each keyed by hooked factors only, and each of its three
    coframe maps at most 2^{#moved} moved-part images.  A second pass
    runs contraction_series 0 times, merges no index tuples
    (``leibniz.merge_indices``, as wedge_mono and the table assembly call
    it) and splits no form by t-degree (``Form.homogeneous_part``): every
    monomial's merged terms are kept, by t-degree for the k-sums."""
    from nilforms import algebra, leibniz

    phi = VectorValuedForm(bcvary10.beltrami.algebra, T10, dict(bcvary10.beltrami.components))
    ops = beltrami_operators(phi)
    assert (ops.phi_hooks, ops.b_hooks) == ({2, 5}, {2, 5})
    alg = bcvary10.se.algebra
    series, merges, splits = [], [], []
    real_series, real_merge, real_split = extension.contraction_series, leibniz.merge_indices, Form.homogeneous_part
    monkeypatch.setattr(extension, "contraction_series", lambda theta, a: series.append(a) or real_series(theta, a))
    for module in (algebra, leibniz):
        monkeypatch.setattr(module, "merge_indices", lambda a, b: merges.append((a, b)) or real_merge(a, b))
    monkeypatch.setattr(Form, "homogeneous_part", lambda f, l: splits.append(l) or real_split(f, l))

    def one_pass():
        for p, q in ((3, 3), (4, 4)):
            for gv in ec_bcvary0.kernel("stacked", p, q):
                omega0 = ec_bcvary0.vec_to_form(gv, p, q, alg)
                for order in range(alg.ring.order + 1):
                    try:
                        solve_extension(bcvary10.se, phi, omega0, order=order, ec0=ec_bcvary0, check_lemmata=False)
                    except ObstructionNonvanishing:
                        pass

    one_pass()
    assert series and merges and 1 < len(ops.k_sums) <= 16
    assert all(set(I) <= ops.phi_hooks and set(J) <= ops.b_hooks for I, J in ops.k_sums)
    for b in (ops.unshrink, ops.ext_transform):
        assert 1 < len(b.images) <= 2 ** (len(b.moved[0]) + len(b.moved[1])) <= 16
    assert ops.shrink.images is None  # a solve maps W to omega, never back
    series.clear()
    merges.clear()
    one_pass()
    assert (series, merges, splits) == ([], [], [])


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
            assert not piece.homogeneous_part(l)


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
        assert not full
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


def test_truncated_orders_equal_whole_series_oracle(bcvary10, ec_bcvary0):
    """At every order 0-4, every d-closed generator of bcvary10 at (1,2),
    (2,2), (2,3) and (3,3) gives the state of the whole-series oracle,
    whose residuals are rebuilt from omega alone, or an obstruction at
    the same (order, side).  Below the ring order the k-sums of the last
    correction do not vanish, so running sums that missed them would
    fail the solver's residual check here."""
    alg = bcvary10.se.algebra
    kinds = {"solved": 0, "obstructed": 0}
    for p, q in ((1, 2), (2, 2), (2, 3), (3, 3)):
        for gv in ec_bcvary0.kernel("stacked", p, q):
            omega0 = ec_bcvary0.vec_to_form(gv, p, q, alg)
            for order in range(alg.ring.order + 1):
                outcomes = [
                    _solve_outcome(
                        solver, bcvary10.se, bcvary10.beltrami, omega0,
                        order=order, ec0=ec_bcvary0, check_lemmata=False,
                    )
                    for solver in (solve_extension, solve_extension_whole_series)
                ]
                assert outcomes[0] == outcomes[1], (p, q, order)
                kinds["obstructed" if isinstance(outcomes[0], tuple) else "solved"] += 1
    assert kinds == {"solved": 702, "obstructed": 228}


def _line_of(phi, point, ring):
    """phi restricted to the complex line t = s point of its parameter
    space, over ring, a ring in the one parameter s: each term of
    coefficient v and exponents (e, ebar) becomes v point^e
    conj(point)^ebar s^{|e|} sbar^{|ebar|}."""
    src = phi.algebra.ring
    alg = FormAlgebra(phi.algebra.n, ring)
    values = list(point) + [z.conj() for z in point]
    comps = {}
    for i, f in phi.components.items():
        coeffs = {}
        for mono, c in f.coeffs.items():
            total = ring.zero()
            for key, v in c.terms.items():
                exps = src.exponents(key)
                for z, e in zip(values, exps):
                    for _ in range(e):
                        v = v * z
                total = total + ParamScalar(ring, {ring.key([sum(exps[:src.m]), sum(exps[src.m:])]): v})
            coeffs[mono] = total
        comps[i] = Form(alg, coeffs)
    return VectorValuedForm(alg, phi.valence, comps)


def _assert_same_outcome(got, want, where):
    """Two solver outcomes agree field by field: every ExtensionState
    field, or the (order, side) of the obstruction."""
    assert isinstance(got, tuple) == isinstance(want, tuple), where
    if isinstance(want, tuple):
        assert got == want, where
        return
    for f in dataclasses.fields(want):
        assert getattr(got, f.name) == getattr(want, f.name), (where, f.name)


def test_combined_generators_equal_whole_series_oracle(bcvary10, ec_bcvary0, bcvary10_c, iwasawa3, ec_iwasawa):
    """On seeded Q(i) combinations of the (3,3) and (4,4) kernel vectors
    of bcvary10 and of bcvary10 x C, and on one seeded combination of the
    d-closed (2,2) and (1,2) generators of iwasawa3 per Nakamura class
    (iwasawa3's family on the line through that class's point), the
    solver's state equals the whole-series oracle's field by field, or
    both raise at the same (order, side).  A combination mixes pieces
    whose k-sums span several t-degrees, so this checks the running sums
    by t-degree where no single generator's solve is special."""
    from test_io_cli import NAKAMURA_CLASSES

    rng = DetRng(79)
    se_c, phi_c = bcvary10_c
    ec_c = EvaluatedComplex(build_complex(evaluate_se(se_c, zero_point(4))), ())
    cases = []
    for se, phi, ec in ((bcvary10.se, bcvary10.beltrami, ec_bcvary0), (se_c, phi_c, ec_c)):
        for p in (3, 4):
            gens = ec.kernel("stacked", p, p)
            for _ in range(8):
                vec = {}
                for _ in range(2 + rng.next_int(2)):
                    linalg.add_scaled_into(vec, nonzero_gaussian(rng, 5), gens[rng.next_int(len(gens))])
                cases.append((se, phi, ec, ec.vec_to_form(vec, p, p, phi.algebra)))
    line_ring = PolyRing(1, iwasawa3.beltrami.algebra.ring.order)
    for t, _ in NAKAMURA_CLASSES.values():
        point = [GaussianRational(Fraction(x)) for x in t.split(",")]
        phi = _line_of(iwasawa3.beltrami, point, line_ring)
        for p, q in ((2, 2), (1, 2)):
            vec = {}
            for gv in ec_iwasawa.kernel("stacked", p, q):
                linalg.add_scaled_into(vec, nonzero_gaussian(rng, 5), gv)
            cases.append((iwasawa3.se, phi, ec_iwasawa, ec_iwasawa.vec_to_form(vec, p, q, phi.algebra)))
    kinds = {"plain": 0, "corrected": 0, "obstructed": 0}
    for k, (se, phi, ec, omega0) in enumerate(cases):
        got, want = (
            _solve_outcome(solver, se, phi, omega0, ec0=ec, check_lemmata=False)
            for solver in (solve_extension, solve_extension_whole_series)
        )
        _assert_same_outcome(got, want, (k, omega0.bidegree()))
        kinds["obstructed" if isinstance(got, tuple) else "plain" if got.omega == omega0 else "corrected"] += 1
    assert kinds == {"plain": 3, "corrected": 21, "obstructed": 14}


def test_a_warm_solve_compares_no_algebras_by_value(bcvary10, ec_bcvary0, monkeypatch):
    """Forms, structure equations and coframe maps on one path share one
    FormAlgebra object, and every comparison of algebras tests identity
    first: after a warm-up, a second solve of every (3,3) generator of
    bcvary10 and a warm fiber of bcvary10 at a generic point call
    FormAlgebra.__eq__ 0 times."""
    alg = bcvary10.se.algebra
    point = generic_points(4)[0]
    omegas = [ec_bcvary0.vec_to_form(gv, 3, 3, alg) for gv in ec_bcvary0.kernel("stacked", 3, 3)]

    def run():
        fiber_complex(bcvary10.se, bcvary10.beltrami, point)
        for omega0 in omegas:
            _solve_outcome(solve_extension, bcvary10.se, bcvary10.beltrami, omega0, ec0=ec_bcvary0, check_lemmata=False)

    run()
    compared = []
    real = FormAlgebra.__eq__
    monkeypatch.setattr(FormAlgebra, "__eq__", lambda a, b: compared.append(a is b) or real(a, b))
    run()
    assert compared == []
    assert alg == FormAlgebra(alg.n, alg.ring) and compared == [False]  # the count sees a comparison


def test_solve_ladders_each_piece_once_and_never_shrinks(bcvary10, ec_bcvary0, monkeypatch):
    """Counts, no wall time: at every order of the (3,3) and (4,4)
    generators of bcvary10, a solve runs ladder_sums once per nonzero
    piece of W, on that piece alone (omega0, then each correction, the
    last one included) and never on the whole series, and its only
    coframe substitutions are one unshrink (W to omega) and one
    ext_transform (the direct residual): phi's shrink is never applied."""
    alg = bcvary10.se.algebra
    ops = beltrami_operators(bcvary10.beltrami)
    laddered, substituted = [], []
    real_ladder, real_contract = extension.ladder_sums, extension.simultaneous_contract

    def ladder(phi, w):
        laddered.append(w)
        return real_ladder(phi, w)

    def contract(b, form):
        substituted.append(b)
        return real_contract(b, form)

    monkeypatch.setattr(extension, "ladder_sums", ladder)
    monkeypatch.setattr(extension, "simultaneous_contract", contract)
    orders = range(alg.ring.order + 1)
    kinds = {"solved": 0, "obstructed": 0}
    for p, q in ((3, 3), (4, 4)):
        for gv in ec_bcvary0.kernel("stacked", p, q):
            omega0 = ec_bcvary0.vec_to_form(gv, p, q, alg)
            for order in orders:
                laddered.clear()
                substituted.clear()
                try:
                    st = solve_extension(
                        bcvary10.se, bcvary10.beltrami, omega0, order=order, ec0=ec_bcvary0, check_lemmata=False
                    )
                except ObstructionNonvanishing as exc:
                    # omega0 and the corrections below the obstructed order, one piece each
                    degrees = [[l for l in orders if w.homogeneous_part(l)] for w in laddered]
                    assert laddered[0] == omega0 and all(len(d) == 1 for d in degrees), (p, q, order)
                    firsts = [d[0] for d in degrees]
                    assert firsts == sorted(set(firsts)) and firsts[-1] < exc.order, (p, q, order)
                    assert not substituted
                    kinds["obstructed"] += 1
                    continue
                pieces = [st.omega_tilde.homogeneous_part(l) for l in range(order + 1)]
                assert laddered == [w for w in pieces if w], (p, q, order)
                assert [id(b) for b in substituted] == [id(ops.unshrink), id(ops.ext_transform)], (p, q, order)
                kinds["solved"] += 1
    assert kinds["solved"] and kinds["obstructed"]


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


def test_empty_mild_bidegrees_hold_without_asking(bcvary10, ec_bcvary0, monkeypatch):
    """At q = n the solver's hypotheses name the empty bidegree (p,n+1),
    which mild refuses: solve_extension and solve_conjugate_system ask
    mild's rank identity (``lemmata._mild_holds``), which holds there
    without reading a rank, and reads ranks at (q,p+1).  On bcvary10 at
    t = 0 (n = 5) mild holds at (5,5) and fails at (5,4), so the (4,5)
    generators extend and the (3,5) ones are refused, naming (5,4); the
    (5,5) generator reads no rank.  A refusal builds no witness: no
    ``mild_scan`` runs."""
    asked, ranks, scans = [], [], []
    real_holds, real_rank, real_scan = extension._mild_holds, EvaluatedComplex.rank, EvaluatedComplex.mild_scan

    def holds(ec, op, p, q):
        before = len(ranks)
        held = real_holds(ec, op, p, q)
        asked.append((op, p, q, held, len(ranks) > before))
        return held

    monkeypatch.setattr(extension, "_mild_holds", holds)
    monkeypatch.setattr(EvaluatedComplex, "rank", lambda self, *a: ranks.append(a) or real_rank(self, *a))
    monkeypatch.setattr(EvaluatedComplex, "mild_scan", lambda self, *a: scans.append(a) or real_scan(self, *a))
    alg = bcvary10.se.algebra
    with pytest.raises(ValueError, match=r"bidegree \(4,6\) is outside 0\.\.5"):
        mild(ec_bcvary0, 4, 6)
    empty = {(p, 6): ("del", p, 6, True, False) for p in range(6)}
    holding, failing = ("del", 5, 5, True, True), ("del", 5, 4, False, True)
    for (p, q), want in (((5, 5), [empty[5, 6]]), ((4, 5), [empty[4, 6], holding]), ((3, 5), [empty[3, 6], failing])):
        for gv in ec_bcvary0.kernel("stacked", p, q):
            asked.clear()
            omega0 = ec_bcvary0.vec_to_form(gv, p, q, alg)
            if (p, q) == (3, 5):
                with pytest.raises(PreconditionFailed, match=r"the \(5,4\)-th mild lemma fails at t = 0"):
                    solve_extension(bcvary10.se, bcvary10.beltrami, omega0, ec0=ec_bcvary0)
                # the refusing check is the last one asked
                assert asked == want, asked
            else:
                assert solve_extension(bcvary10.se, bcvary10.beltrami, omega0, ec0=ec_bcvary0).d_closed_through_order
                assert asked == want, (p, q)
    assert scans == []
    zero = ec_bcvary0.cx.algebra.zero()
    asked.clear()
    assert solve_conjugate_system(ec_bcvary0, zero, zero, 4, 5) == zero
    assert asked == [empty[4, 6], holding]
    asked.clear()
    with pytest.raises(PreconditionFailed, match=r"the \(5,4\)-th mild lemma fails on this complex"):
        solve_conjugate_system(ec_bcvary0, zero, zero, 3, 5)
    assert asked == [empty[3, 6], failing] and scans == []


def test_both_solvers_name_the_first_failing_hypothesis(bcvary10, ec_bcvary0):
    """The two hypotheses of a (p,q)-form are asked in the order (p,q+1),
    (q,p+1), by solve_extension and solve_conjugate_system alike: on
    bcvary10 at t = 0 both the (1,4)- and the (3,2)-th mild lemma fail,
    and each (1,3) generator is refused by both, naming (1,4)."""
    assert not mild(ec_bcvary0, 1, 4)[0] and not mild(ec_bcvary0, 3, 2)[0]
    alg, zero = bcvary10.se.algebra, ec_bcvary0.cx.algebra.zero()
    generators = ec_bcvary0.kernel("stacked", 1, 3)
    assert generators
    for gv in generators:
        omega0 = ec_bcvary0.vec_to_form(gv, 1, 3, alg)
        with pytest.raises(PreconditionFailed, match=r"^the \(1,4\)-th mild lemma fails at t = 0$"):
            solve_extension(bcvary10.se, bcvary10.beltrami, omega0, ec0=ec_bcvary0)
    with pytest.raises(PreconditionFailed, match=r"^the \(1,4\)-th mild lemma fails on this complex$"):
        solve_conjugate_system(ec_bcvary0, zero, zero, 1, 3)


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


def test_unextendable_omega0_refused(bcvary10):
    """solve_extension and pkahler_extend refuse, before any work, an
    omega0 that is zero, of mixed bidegree, or t-dependent: t1 times the
    (4,4) volume form vanishes at t = 0, and a solve read it as d-closed
    through every order."""
    se, phi = bcvary10.se, bcvary10.beltrami
    alg = phi.algebra
    cases = [
        (alg.zero(), r"^omega0: zero form has no bidegree$"),
        (alg.gamma(1) + alg.monomial((1, 2), ()), r"^omega0: form is not homogeneous: \[\(1, 0\), \(2, 0\)\]$"),
        (alg.monomial((1, 2, 3, 4), (1, 2, 3, 4), alg.ring.t(1)), r"^omega0 depends on t"),
    ]
    for omega0, match in cases:
        for extend in (solve_extension, pkahler_extend):
            with pytest.raises(PreconditionFailed, match=match):
                extend(se, phi, omega0)


def test_negative_and_excessive_orders_refused(bcvary10):
    """solve_extension and pkahler_extend refuse a negative order, as they
    refuse one past the ring truncation, instead of reporting a vacuous
    d-closed extension with no residuals."""
    se, phi, balanced = bcvary10.se, bcvary10.beltrami, bcvary10.forms["balanced"]
    for order, match in ((-1, "is negative"), (-2, "is negative"), (5, "exceeds the ring truncation")):
        with pytest.raises(PreconditionFailed, match=match):
            solve_extension(se, phi, balanced, order=order)
        with pytest.raises(PreconditionFailed, match=match):
            pkahler_extend(se, phi, balanced, order=order, samples=40, seed=3)


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


def test_warm_solves_decode_no_monomial_key(bcvary10, monkeypatch):
    """After one warm-up solve, solve_extension on every (3,3) generator
    of bcvary10 with a shared ec0 decodes no monomial key
    (``PolyRing.exponents``) and encodes no exponent tuple
    (``PolyRing.key``): its products, degree reads and conjugations work
    on the packed keys.  The hooks do see the text form decode."""
    se0 = evaluate_se(bcvary10.se, zero_point(4))
    ec0 = EvaluatedComplex(build_complex(se0), ())
    alg = bcvary10.se.algebra
    omegas = [ec0.vec_to_form(gv, 3, 3, alg) for gv in ec0.kernel("stacked", 3, 3)]
    solve = lambda omega0: solve_extension(bcvary10.se, bcvary10.beltrami, omega0, ec0=ec0, check_lemmata=False)
    solve(omegas[1])
    calls = []
    for name in ("key", "exponents"):
        real = getattr(PolyRing, name)
        monkeypatch.setattr(PolyRing, name, lambda ring, x, real=real, name=name: calls.append(name) or real(ring, x))
    corrected = 0
    for omega0 in omegas:
        try:
            corrected += solve(omega0).omega != omega0
        except ObstructionNonvanishing:
            pass
    assert calls == [] and corrected > 0
    str(alg.ring.t(1) * alg.ring.tbar(2))
    assert calls == ["key", "key", "exponents"]


def test_second_solve_rebuilds_no_deformation_data(monkeypatch):
    """The structure equations own the split of d of the coframe into
    its del and delbar terms (``symbol_terms``) and phi owns its
    BeltramiOperators and its integrability verdict: validation on load
    splits se's d, the first solve deforms se along phi symbolically
    once, which splits the deformed equations and nothing else, and
    builds one Neumann series, phi's operators', from which the
    deformation reads T^{-1}; the deformed equations keep se's flatness,
    so the first solve assembles no table of degree 2 and applies d to
    no deformed equations.  The second solve, a pkahler_extend after them and a
    deform_complex at a point after that build no symbolic deformation
    and no Neumann series, and split only the equations of fibers at
    points.  The second solve, at the same bidegree, adds or rebuilds no
    prefix image of ext_transform or unshrink.  No solve applies shrink,
    so its images appear only with pkahler_extend, whose symmetrized
    check maps omega back to W.  A non-integrable phi is still refused,
    by the split of its own deformed equations, so no equations of se
    are split again.  ``deform_complex`` refuses equations that are not
    flat on every call, and no pass is stored for them.  The second
    solve assembles no column table of del or delbar and no matrix: the
    equations keep their tables and ec0 its rows."""
    from nilforms import deformation, extension
    from nilforms.algebra import StructureEquations
    from nilforms.errors import FlatnessError
    from nilforms.leibniz import Layout

    split = []
    symbol_terms = StructureEquations.symbol_terms

    def recording(eqs, op):
        if eqs.terms is None:
            split.append(eqs)
        return symbol_terms(eqs, op)

    monkeypatch.setattr(StructureEquations, "symbol_terms", recording)
    entry = catalog_load("bcvary10")  # a fresh se and phi, nothing cached yet
    se, phi = entry.se, entry.beltrami
    ec0 = EvaluatedComplex(build_complex(evaluate_se(se, zero_point(4))), ())
    omega0 = ec0.vec_to_form(ec0.kernel("stacked", 3, 3)[1], 3, 3, se.algebra)
    setup = [se, ec0.cx.se]  # each split once, by its validation
    assert split == setup
    counts = {"neumann": 0, "symbolic": 0}

    def counting(key, real):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(deformation, "neumann_invert", counting("neumann", deformation.neumann_invert))
    real_deform = deformation.deform_complex

    def deform_counting(se_, phi_, point=None):
        counts["symbolic"] += point is None
        return real_deform(se_, phi_, point)

    monkeypatch.setattr(deformation, "deform_complex", deform_counting)

    assembled = []
    real_assemble = Layout.assemble
    monkeypatch.setattr(Layout, "assemble", lambda layout, *a: assembled.append(layout) or real_assemble(layout, *a))

    tables, derived = [], []
    real_table, real_d = StructureEquations._assemble_table, StructureEquations.apply_d
    monkeypatch.setattr(StructureEquations, "_assemble_table",
                        lambda eqs, op, p, q: tables.append(p + q) or real_table(eqs, op, p, q))
    monkeypatch.setattr(StructureEquations, "apply_d", lambda eqs, a: derived.append(eqs.name) or real_d(eqs, a))
    first = solve_extension(se, phi, omega0, ec0=ec0, check_lemmata=False)
    assert tables and 2 not in tables and derived and "bcvary10:deformed" not in derived
    assert counts == {"neumann": 1, "symbolic": 1} and split[:2] == setup
    assert [eqs.name for eqs in split[2:]] == ["bcvary10:deformed"] and split[2].algebra is phi.algebra
    setup = split[:]
    assert se.with_algebra(phi.algebra).algebra.layout in assembled
    assembled.clear()
    ops = phi.operators
    endos = (ops.ext_transform, ops.unshrink)
    warm = [dict(b.images) for b in endos]
    assert all(len(images) > 1 for images in warm) and ops.shrink.images is None
    second = solve_extension(se, phi, omega0.scale(QI(2, -3)), ec0=ec0, check_lemmata=False)
    assert counts == {"neumann": 1, "symbolic": 1} and split == setup and assembled == []
    for b, images in zip(endos, warm):  # no entry added, none rebuilt
        assert b.images.keys() == images.keys() and all(b.images[k] is v for k, v in images.items())
    assert ops.shrink.images is None
    assert second.omega == first.omega.scale(QI(2, -3)) and second.omega != omega0
    ext = pkahler_extend(se, phi, entry.forms["balanced"], samples=40, seed=3)
    assert ext.state.d_closed_through_order and len(ops.shrink.images) > 1
    assert counts == {"neumann": 1, "symbolic": 1}
    deformation.deform_complex(se, phi, point=generic_points(4)[0])
    assert counts == {"neumann": 1, "symbolic": 1}
    # no lift of se was split again: the new splits are of fibers' equations at points
    assert split[:3] == setup and split[3:] and all(eqs.algebra.ring.m == 0 for eqs in split[3:])
    del split[3:]

    alg = se.algebra
    bad_phi = VectorValuedForm(alg, T10, {1: alg.gammabar(2).scale(alg.ring.t(1))})
    assert se.terms is not None
    with pytest.raises(PreconditionFailed, match="not integrable"):
        solve_extension(se, bad_phi, omega0, ec0=ec0, check_lemmata=False)
    assert split[:3] == setup and [eqs.name for eqs in split[3:]] == ["bcvary10:deformed"]

    # d gamma^3 = gamma^1 ^ gamma^2 and d gamma^2 = gamma^3 ^ gammabar^1: d^2 gamma^3 != 0
    alg3 = FormAlgebra(3, PolyRing(0, 0))
    broken = StructureEquations(
        "broken",
        alg3,
        {2: alg3.gamma(3).wedge(alg3.gammabar(1)), 3: alg3.gamma(1).wedge(alg3.gamma(2))},
    )
    zero_phi = VectorValuedForm(alg3, T10, {})
    for _ in range(2):
        with pytest.raises(FlatnessError):
            deformation.deform_complex(broken, zero_phi)
        assert not broken.flat and zero_phi.integrable_on is None


def test_integrability_verdict_is_kept_only_for_a_pass_on_that_se(monkeypatch):
    """phi keeps a passing verdict for one se object only: a
    non-integrable phi is deformed symbolically and refused on every
    call, with the same error types as before, and a phi that passed on
    one se is deformed again on any other, even on equal equations.  A
    deformation at a point decides for that fiber alone and builds no
    symbolic deformation."""
    from nilforms import deformation

    entry = catalog_load("bcvary10")
    se, phi = entry.se, entry.beltrami
    alg = se.algebra
    ec0 = EvaluatedComplex(build_complex(evaluate_se(se, zero_point(4))), ())
    omega0 = ec0.vec_to_form(ec0.kernel("stacked", 3, 3)[1], 3, 3, alg)
    checks = []
    real = deformation.deform_complex

    def counting(se_, phi_, point=None):
        if point is None:
            checks.append(se_)
        return real(se_, phi_, point)

    monkeypatch.setattr(deformation, "deform_complex", counting)

    bad_phi = VectorValuedForm(alg, T10, {1: alg.gammabar(2).scale(alg.ring.t(1))})
    for k in (1, 2):
        with pytest.raises(PreconditionFailed, match="^phi is not integrable$"):
            solve_extension(se, bad_phi, omega0, ec0=ec0, check_lemmata=False)
        assert len(checks) == k and bad_phi.integrable_on is None
    verdict = r"^phi is not integrable; bcvary10:deformed: d gamma\^4 has parts outside \(2,0\) \+ \(1,1\): "
    for k in (3, 4):
        with pytest.raises(IntegrabilityError, match=verdict + r"Form\(\(-t1\)\*g\[,23\]\)$"):
            deformation.deform_complex(se, bad_phi)
        assert len(checks) == k and bad_phi.integrable_on is None
        with pytest.raises(IntegrabilityError, match=verdict + r"Form\(\(-3/7\)\*g\[,23\]\)$"):
            deformation.deform_complex(se, bad_phi, point=generic_points(4)[0])
        assert len(checks) == k and bad_phi.integrable_on is None

    # bad_phi is integrable on the abelian equations over the same algebra;
    # that pass says nothing about bcvary10
    torus = StructureEquations("torus5", alg, {})
    deformation.deform_complex(torus, bad_phi)
    assert checks[-1] is torus and bad_phi.integrable_on is torus
    with pytest.raises(PreconditionFailed, match="not integrable"):
        solve_extension(se, bad_phi, omega0, ec0=ec0, check_lemmata=False)
    assert len(checks) == 6 and bad_phi.integrable_on is torus

    deformation.deform_complex(se, phi)
    assert len(checks) == 7 and phi.integrable_on is se
    twin = StructureEquations(se.name, alg, se.d_coframe)
    solve_extension(twin, phi, omega0, ec0=ec0, check_lemmata=False)
    assert checks[-1] is twin and len(checks) == 8 and phi.integrable_on is twin
    solve_extension(twin, phi, omega0, ec0=ec0, check_lemmata=False)
    deformation.deform_complex(se, phi)
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
        # mild holds on an empty bidegree, (p,n+1) when q = n
        pair = all(mild(ec0, a, b)[0] for a, b in ((p, q + 1), (q, p + 1)) if ec0.dim(a, b))
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


#: dgamma^2 = gamma^1 ^ gamma^2 + gamma^2 ^ gammabar^1 (n = 2), a solvable,
#: not nilpotent, algebra on which the conjugate system at (1,1) has both
#: hypotheses and nonzero right-hand sides; on the nilmanifolds of the
#: catalog, wherever both mild lemmata hold, delbar zeta and del conj(xi)
#: vanish for every zeta and xi
SOLVABLE_2 = {"n": 2, "d": {"2": [{"coeff": "1", "factors": ["1", "2"]}, {"coeff": "1", "factors": ["2", "bar1"]}]}}


@pytest.mark.parametrize("case", ["bcvary10@0 (4,4)", "solvable n=2 (1,1)"])
def test_conjugate_system_with_t_dependent_data_solves_every_slice(case, bcvary10, ec_bcvary0):
    """On a complex without parameters, with zeta and xi whose
    coefficients are polynomials in t and tbar, the solution x of the
    conjugate system solves del x = delbar zeta and delbar x = del
    conj(xi) in every t-slice, and each slice of x is the solution for
    the slices of zeta and conj(xi) at that exponent, solved alone.  On
    bcvary10's t = 0 complex at (4,4) both right-hand sides vanish; on
    the solvable n = 2 algebra at (1,1) they do not.  The complex's
    label is read by no solve, and no complex with parameters exists to
    solve on: ``build_complex`` refuses bcvary10's equations over t."""
    if case.startswith("bcvary10"):
        ec, ring, (p, q) = ec_bcvary0, bcvary10.se.algebra.ring, (4, 4)
    else:
        ec, ring, (p, q) = EvaluatedComplex(build_complex(nio.obj_to_se(SOLVABLE_2)), ()), PolyRing(2, 3), (1, 1)
    alg0 = ec.cx.algebra
    alg = FormAlgebra(ec.n, ring)
    se = ec.cx.se.with_algebra(alg)
    rng = DetRng(61)
    monomials = [ring.one(), ring.t(1), ring.t(2) * ring.tbar(1), ring.t(1) * ring.t(1)]

    def series(bidegree):
        basis, f = form_basis(alg, *bidegree), alg.zero()
        for mono in monomials:
            for _ in range(2):
                f = f + Form(alg, {basis[rng.next_int(len(basis))]: mono * nonzero_gaussian(rng, 3)})
        return f

    zeta, xi = series((p + 1, q - 1)), series((q + 1, p - 1))
    x = solve_conjugate_system(ec, zeta, xi, p, q)
    dzeta, dxibar = se.apply_delbar(zeta), se.apply_del(xi.conj())
    slices = {e for f in (zeta, xi.conj(), x) for c in f.coeffs.values() for e in c.terms}
    assert len(slices) >= 5

    def slice_of(f, e):
        return Form(alg0, {m: alg0.ring.const(c.terms[e]) for m, c in f.coeffs.items() if e in c.terms})

    for e in slices:
        x_e = slice_of(x, e)
        assert ec.cx.se.apply_del(x_e) == slice_of(dzeta, e), e
        assert ec.cx.se.apply_delbar(x_e) == slice_of(dxibar, e), e
        assert solve_conjugate_system(ec, slice_of(zeta, e), slice_of(xi.conj(), e).conj(), p, q) == x_e, e
    nonzero = {e for e in slices if slice_of(x, e)}
    assert nonzero == {e for e in slices if slice_of(dzeta, e) or slice_of(dxibar, e)}
    assert nonzero == (slices if case.startswith("solvable") else set())
    assert solve_conjugate_system(EvaluatedComplex(ec.cx, generic_points(4)[0]), zeta, xi, p, q) == x
    with pytest.raises(ValueError, match="a complex has no parameters"):
        build_complex(bcvary10.se)


def _conjugate_outcome(route, *args):
    """A conjugate solution, or the (order, side) of its obstruction."""
    try:
        return route(*args)
    except ObstructionNonvanishing as exc:
        return exc.order, exc.component


def test_conjugate_solution_equals_the_column_route(bcvary10, ec_bcvary0, monkeypatch):
    """delbar u - del v, mapped by the rows of delbar and del that the
    complex keeps, is the column-table route's form
    (``conjugate_solution_by_columns``), or the same obstruction: at every
    order of the solves of the 62 (3,3) generators of bcvary10, 14 of
    which reach a del-delbar solve, in 20 slices, and on the solvable
    n = 2 algebra at (1,1), whose right-hand sides are nonzero."""
    calls, slices = [], []
    real, preimage = extension._conjugate_solution, EvaluatedComplex.ddbar_preimage
    monkeypatch.setattr(extension, "_conjugate_solution", lambda *args: calls.append(args) or real(*args))
    monkeypatch.setattr(EvaluatedComplex, "ddbar_preimage", lambda *args: slices.append(args) or preimage(*args))
    alg = bcvary10.se.algebra
    reaching = 0
    for gv in ec_bcvary0.kernel("stacked", 3, 3):
        start = len(calls)
        omega0 = ec_bcvary0.vec_to_form(gv, 3, 3, alg)
        try:
            solve_extension(bcvary10.se, bcvary10.beltrami, omega0, ec0=ec_bcvary0, check_lemmata=False)
        except ObstructionNonvanishing:
            pass
        reaching += any(left or right for _, left, right, *_ in calls[start:])
    assert reaching == 14 and len(slices) == 20
    ring = PolyRing(2, 3)
    alg2, top = FormAlgebra(2, ring), ((1, 2), ())
    zeta = Form(alg2, {top: ring.one() + ring.t(1) * QI(2, 1)})
    xi = Form(alg2, {top: ring.t(2) * ring.tbar(1)})
    start = len(calls)
    solve_conjugate_system(EvaluatedComplex(build_complex(nio.obj_to_se(SOLVABLE_2)), ()), zeta, xi, 1, 1)
    (_, left, right, *_), = calls[start:]
    assert left and right
    for args in calls:
        want = _conjugate_outcome(conjugate_solution_by_columns, *args)
        assert _conjugate_outcome(real, *args) == want, args[3:]


def test_order_step_is_the_conjugate_system(bcvary10, ec_bcvary0, monkeypatch):
    """At every order of the (4,4) solves of bcvary10, the correction of
    W equals -S1_l minus solve_conjugate_system of (S2_l, conj(S3_l)):
    the order step is the paper's conjugate system, with its hypotheses
    (the (4,5)-th mild lemma twice) checked here.  On bcvary10 at (4,4)
    delbar S2_l and del S3_l vanish, so the system's solution is 0 and
    every correction, nonzero at some order, is -S1_l."""
    alg = bcvary10.se.algebra
    steps = []
    real = extension._order_correction

    def recording(se_r, ec0, parts, p, q, l):
        out = real(se_r, ec0, parts, p, q, l)
        steps.append((parts, p, q, l, out))
        return out

    monkeypatch.setattr(extension, "_order_correction", recording)
    for gv in ec_bcvary0.kernel("stacked", 4, 4):
        solve_extension(bcvary10.se, bcvary10.beltrami, ec_bcvary0.vec_to_form(gv, 4, 4, alg), ec0=ec_bcvary0)
    for (s1l, s2l, s3l), p, q, l, correction in steps:
        assert all(s == s.homogeneous_part(l) for s in (s1l, s2l, s3l)), l
        assert correction == -s1l - solve_conjugate_system(ec_bcvary0, s2l, s3l.conj(), p, q), l
    assert {l for *_, l, _ in steps} == {1, 2, 3, 4} and any(correction for *_, correction in steps)


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
