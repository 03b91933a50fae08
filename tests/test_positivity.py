from fractions import Fraction

import pytest

from nilforms.algebra import Form, FormAlgebra, StructureEquations, build_complex
from nilforms.catalog import catalog_load
from nilforms.cohomology import EvaluatedComplex, zero_point
from nilforms.errors import PreconditionFailed
from nilforms.extension import pkahler_extend, small_points
from nilforms import positivity
from nilforms.positivity import (
    _pairing_matrix,
    decomposable_coefficients,
    hermitian_matrix_of,
    is_strictly_positive,
    is_transverse,
    pairing_volume,
    pkahler_check,
    reconstruct_from_matrix,
    sigma_q,
    unit_volume_scalar,
    volume_coefficient,
)
from nilforms.scalars import DetRng, GaussianRational, PolyRing, QI

from oracles import decomposable_sample, pairing_matrix_by_wedges, transverse_by_dense_sum, transverse_by_wedges

ALG2 = FormAlgebra(2, PolyRing(0, 0))
ALG3 = FormAlgebra(3, PolyRing(0, 0))


def test_sigma_q_values():
    """2^{-q} i^{q^2}: 1, i/2, 1/4, i/8, 1/16 for q = 0..4; the exponents
    q^2 mod 4 are 0, 1, 0, 1, 0, so even q always gives a real positive
    constant."""
    assert sigma_q(0) == QI(1)
    assert sigma_q(1) == QI(0, Fraction(1, 2))
    assert sigma_q(2) == QI(Fraction(1, 4))
    assert sigma_q(3) == QI(0, Fraction(1, 8))
    assert sigma_q(4) == QI(Fraction(1, 16))


def test_volume_coefficient_positive_unit():
    # the standard Kaehler volume: (sigma_1)^n * n! on the interleaved product
    n = 2
    omega = ALG2.monomial((1,), (1,), sigma_q(1)) + ALG2.monomial((2,), (2,), sigma_q(1))
    vol = omega.wedge(omega)
    c = volume_coefficient(vol)
    assert c.im == 0 and c.re == 2  # omega^2 = 2! * unit volume
    assert unit_volume_scalar(2) == QI(Fraction(1, 4))


def test_sigma_tau_pairing_real_and_positive():
    rng = DetRng(3)
    for q in (1, 2):
        for _ in range(10):
            tau = decomposable_sample(ALG3, q, rng)
            pair = tau.wedge(tau.conj()).scale(sigma_q(q))
            assert pair.conj() == pair  # conj-fixed
    # and the full-volume pairing against the complementary power is positive
    for _ in range(5):
        tau = decomposable_sample(ALG3, 3, rng)
        vol = volume_coefficient(tau.wedge(tau.conj()).scale(sigma_q(3)))
        assert vol.im == 0 and vol.re >= 0


def test_hermitian_extraction_identity():
    theta = ALG2.monomial((1,), (1,), sigma_q(1)) + ALG2.monomial((2,), (2,), sigma_q(1))
    ext = hermitian_matrix_of(theta)
    assert ext.hermitian
    assert ext.matrix == [[QI(1), QI(0)], [QI(0), QI(1)]]


def test_hermitian_extraction_flags_nonhermitian():
    theta = ALG2.monomial((1,), (2,), sigma_q(1))  # single off-diagonal term
    ext = hermitian_matrix_of(theta)
    assert not ext.hermitian
    with pytest.raises(PreconditionFailed):
        is_strictly_positive(theta)


def test_hermitian_roundtrip_random():
    rng = DetRng(5)
    for q in (1, 2):
        size = {1: 3, 2: 3}[q]
        mat = [[QI(0)] * size for _ in range(size)]
        for i in range(size):
            mat[i][i] = QI(rng.next_int(5) + 1)
            for j in range(i + 1, size):
                z = rng.gaussian(3)
                mat[i][j] = z
                mat[j][i] = z.conj()
        theta = reconstruct_from_matrix(ALG3, q, mat)
        ext = hermitian_matrix_of(theta, q)
        assert ext.hermitian and ext.matrix == mat


def test_strictly_positive_examples(bcvary10):
    good = reconstruct_from_matrix(ALG2, 1, [[QI(1), QI(0)], [QI(0), QI(1)]])
    assert is_strictly_positive(good).holds is True
    bad = reconstruct_from_matrix(ALG2, 1, [[QI(1), QI(0)], [QI(0), QI(-1)]])
    verdict = is_strictly_positive(bad)
    assert verdict.holds is False
    assert verdict.certificate["failing_minor_index"] == 1
    # falsifier re-verifies through the pairing when q = 1
    omega = bcvary10.forms["balanced"].eval(zero_point(4))
    ext = hermitian_matrix_of(omega)
    assert ext.hermitian
    assert all(ext.matrix[i][i] == QI(16) for i in range(5))  # 1/sigma_4
    assert is_strictly_positive(omega).holds is True


def test_transverse_torus_standard_form(torus3):
    omega = torus3.forms["kaehler"]
    verdict = is_transverse(omega, 1)
    assert verdict.holds is True and verdict.exact


def test_transverse_bcvary_balanced(bcvary10):
    omega = bcvary10.forms["balanced"].eval(zero_point(4))
    verdict = is_transverse(omega, 4)
    assert verdict.holds is True and verdict.exact
    sampled = is_transverse(omega, 4, force_sampled=True, samples=200, seed=13)
    assert sampled.holds is True and not sampled.exact and sampled.samples_used == 200
    assert sampled.min_margin is not None and sampled.min_margin > 0


def _one_one_forms(n):
    """Three real (1,1)-forms on the n-dimensional torus algebra, from
    their Hermitian matrices: a Kaehler form with off-diagonal terms
    (diagonal 2, (1+i)/2 beside it: positive definite by Gershgorin), one
    of signature (n-1,1) and a degenerate one."""
    alg = FormAlgebra(n, PolyRing(0, 0))

    def form(diag, off):
        mat = [[QI(diag[i]) if i == j else QI(0) for j in range(n)] for i in range(n)]
        for i in range(n - 1):
            mat[i][i + 1], mat[i + 1][i] = off, off.conj()
        return reconstruct_from_matrix(alg, 1, mat)

    return [
        form([2] * n, QI(Fraction(1, 2), Fraction(1, 2))),
        form([1] * (n - 1) + [-1], QI(0)),
        form([1] * (n - 1) + [0], QI(0)),
    ]


def _power(omega, p):
    gamma = omega.algebra.scalar_form(1)
    for _ in range(p):
        gamma = gamma.wedge(omega)
    return gamma


def test_pairing_matrix_equals_the_wedge_route(torus3, iwasawa3, bcvary10):
    """The pairing matrix read off gamma's complementary coefficients
    equals the volume coefficients of the wedges it replaced, at every p:
    the balanced forms of bcvary10 and iwasawa3, pkahler_extend's
    symmetrized form at small_points, a Kaehler form, an indefinite form
    (whose verdict takes the witness path), a constant, a top-degree
    form, and for n = 4..6 at every middle p the p-th powers of a Kaehler
    form, of a signature-(n-1,1) form and of a degenerate form
    (``_one_one_forms``).  A t-dependent gamma raises ValueError."""
    kaehler = torus3.forms["kaehler"]
    indefinite = reconstruct_from_matrix(ALG3, 1, [[QI(1), QI(0), QI(0)], [QI(0), QI(-1), QI(0)], [QI(0), QI(0), QI(1)]])
    assert not is_transverse(indefinite, 1).holds
    ext = pkahler_extend(bcvary10.se, bcvary10.beltrami, bcvary10.forms["balanced"], samples=1)
    forms = [
        bcvary10.forms["balanced"].eval(zero_point(4)),
        iwasawa3.forms["balanced"],
        kaehler,
        indefinite,
        ALG3.scalar_form(QI(3)),
        kaehler.wedge(kaehler).wedge(kaehler),
    ] + [ext.symmetrized.eval(pt) for pt in small_points(4)]
    forms += [_power(omega, p) for n in (4, 5, 6) for omega in _one_one_forms(n) for p in range(2, n - 1)]
    degrees = set()
    for gamma in forms:
        n = gamma.algebra.n
        p = gamma.bidegree()[0]
        degrees.add({0: "0", 1: "1", n - 1: "n-1", n: "n"}.get(p, p))
        assert _pairing_matrix(gamma, n - p) == pairing_matrix_by_wedges(gamma, n - p), (n, p)
    assert degrees == {"0", "1", "n-1", "n", 2, 3, 4}
    family = bcvary10.forms["balanced"].lift(bcvary10.se.algebra).scale(bcvary10.se.algebra.ring.t(1))
    with pytest.raises(ValueError):
        _pairing_matrix(family, 1)


def _transverse_cases():
    """(gamma, p, force_sampled, seed): for n = 3..6 and every p, the
    p-th powers of the three forms of ``_one_one_forms``; the exact
    branch once, the sampled one (every p with force_sampled, the middle
    p without) at seeds 7 and 11."""
    for n in (3, 4, 5, 6):
        for omega in _one_one_forms(n):
            for p in range(n + 1):
                gamma = _power(omega, p)
                exact = p in (0, 1, n - 1, n)
                if exact:
                    yield gamma, p, False, 7
                for seed in (7, 11):
                    yield gamma, p, True, seed
                    if not exact:
                        yield gamma, p, False, seed


def test_is_transverse_equals_the_wedge_route():
    """is_transverse, every pairing read off one pairing matrix, equals
    the route it replaced (``oracles.transverse_by_wedges``: the matrix
    by wedges, its pivots by a dense LDL*, a wedge per sample) on every
    case of ``_transverse_cases``: the JSON verdict, the falsifier and
    the certificate.  Both outcomes occur on both branches.  The sample
    budget is 8, which the passing sampled verdicts use up."""
    outcomes = set()
    for gamma, p, force, seed in _transverse_cases():
        got = is_transverse(gamma, p, samples=8, seed=seed, force_sampled=force)
        want = transverse_by_wedges(gamma, p, samples=8, seed=seed, force_sampled=force)
        case = (gamma.algebra.n, p, force, seed)
        assert got.to_json_dict() == want.to_json_dict(), case
        assert got.falsifier == want.falsifier and got.certificate == want.certificate, case
        outcomes.add((got.holds, got.exact, got.samples_used > 0))
    assert outcomes == {(True, True, False), (False, True, False), (True, False, True), (False, True, True)}


def test_sampled_pairings_equal_the_dense_sum():
    """The sampled route, which sums c* A c over the nonzero entries of
    the pairing matrix A only, equals the sum over every pair of
    coefficients (``oracles.transverse_by_dense_sum``) for n = 4..6, every
    middle p, the p-th powers of the three forms of ``_one_one_forms``
    and seeds 3, 7 and 11: the same verdict, min_margin, samples_used
    and falsifier.  Both outcomes occur."""
    outcomes = set()
    for n in (4, 5, 6):
        for omega in _one_one_forms(n):
            for p in range(2, n - 1):
                gamma = _power(omega, p)
                for seed in (3, 7, 11):
                    got = is_transverse(gamma, p, samples=40, seed=seed)
                    want = transverse_by_dense_sum(gamma, p, samples=40, seed=seed)
                    case = (n, p, seed)
                    assert (got.holds, got.exact, got.min_margin, got.samples_used) == (
                        want.holds, want.exact, want.min_margin, want.samples_used), case
                    assert got.falsifier == want.falsifier and got.to_json_dict() == want.to_json_dict(), case
                    outcomes.add(got.holds)
    assert outcomes == {True, False}


def test_minors_equal_the_wedged_coefficients(monkeypatch):
    """At seeds 7 and 11, n = 4..6 and every middle q, the coefficients
    that ``decomposable_coefficients`` reads as q x q minors are those of
    the wedged sample (``oracles.decomposable_sample``), 40 draws each,
    the two generators left in the same state; and a passing sampled
    verdict wedges nothing at all."""
    for seed in (7, 11):
        for n in range(4, 7):
            alg = FormAlgebra(n, PolyRing(0, 0))
            for q in range(2, n - 1):
                minors, wedges = DetRng(seed), DetRng(seed)
                for drawn in range(40):
                    tau = decomposable_sample(alg, q, wedges)
                    want = {I: c.constant_term() for (I, _), c in tau.coeffs.items()}
                    assert decomposable_coefficients(n, q, minors) == want, (seed, n, q, drawn)
                assert minors.state == wedges.state, (seed, n, q)
    gamma = _power(_one_one_forms(5)[0], 2)
    calls = []
    wedge = Form.wedge
    monkeypatch.setattr(Form, "wedge", lambda a, b: calls.append(1) or wedge(a, b))
    verdict = is_transverse(gamma, 2, samples=50)
    assert verdict.holds is True and verdict.exact is False and calls == []


def test_pairing_volume_runs_only_to_reverify_a_falsifier(monkeypatch):
    """Work gate: a passing verdict, sampled or exact, wedges nothing
    (``pairing_volume`` is not called), and a failing verdict of either
    branch wedges once, to re-verify its falsifier."""
    calls = []
    wedge = positivity.pairing_volume
    monkeypatch.setattr(positivity, "pairing_volume", lambda gamma, tau: calls.append(1) or wedge(gamma, tau))
    kaehler, signature, degenerate = _one_one_forms(4)
    for gamma, p, force, holds, wedges in [
        (_power(kaehler, 2), 2, False, True, 0),
        (_power(kaehler, 1), 1, True, True, 0),
        (_power(kaehler, 3), 3, False, True, 0),
        (_power(signature, 2), 2, False, False, 1),
        (_power(signature, 1), 1, True, False, 1),
        (_power(degenerate, 3), 3, False, False, 1),
    ]:
        calls.clear()
        verdict = is_transverse(gamma, p, samples=50, force_sampled=force)
        assert verdict.holds is holds and len(calls) == wedges, (p, force)


def test_positivity_refuses_a_degree_outside_0_to_n(monkeypatch):
    """A degree outside 0..n has no (q,0)-forms: is_transverse and
    is_strictly_positive raise one ValueError naming the range before
    any matrix or sample is built.  (p = -1 gives q = n + 1, for which
    no decomposable sample is nonzero, so sampling would never end.)"""
    def no_sample(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(positivity, "decomposable_coefficients", no_sample)
    for call in (
        lambda: is_transverse(ALG3.zero(), -1),
        lambda: is_transverse(ALG3.zero(), 4),
        lambda: is_strictly_positive(ALG3.zero(), 4),
        lambda: is_strictly_positive(ALG3.zero(), -1),
    ):
        with pytest.raises(ValueError, match=r"^a \(q,0\)-form needs q in the range 0\.\.3, not q = (4|-1)$"):
            call()


def test_transverse_degenerate_falsifier():
    gamma = ALG2.monomial((1,), (1,), sigma_q(1))  # real but degenerate
    verdict = is_transverse(gamma, 1)
    assert verdict.holds is False and verdict.exact
    assert verdict.falsifier is not None
    vol = pairing_volume(gamma, verdict.falsifier)
    assert vol.im == 0 and vol.re <= 0


def test_transverse_requires_real():
    with pytest.raises(PreconditionFailed):
        is_transverse(ALG2.monomial((1,), (1,)), 1)


def test_sampled_falsifier_reverifies():
    # an indefinite (1,1)-form on n = 3, checked through the sampling path
    mat = [[QI(1), QI(0), QI(0)], [QI(0), QI(-1), QI(0)], [QI(0), QI(0), QI(1)]]
    gamma = reconstruct_from_matrix(ALG3, 1, mat)
    verdict = is_transverse(gamma, 1, force_sampled=True, samples=300, seed=3)
    assert verdict.holds is False and verdict.exact and verdict.falsifier is not None
    assert pairing_volume(gamma, verdict.falsifier).re <= 0


def test_sampled_falsifier_in_the_middle_degrees_is_exact():
    """For 2 <= p <= n-2 transversality is sampled, but a falsifier found
    by sampling proves failure: its pairing volume is exact and <= 0, so
    the verdict is exact.  omega^2 for omega of signature (3,1) on n = 4
    pairs with gamma^1 ^ gamma^2 to a negative volume.  The first sample
    already falsifies, and the verdict counts the one sample drawn, not
    the budget of 200."""
    alg4 = FormAlgebra(4, PolyRing(0, 0))
    diag = [QI(1), QI(1), QI(1), QI(-1)]
    omega = reconstruct_from_matrix(alg4, 1, [[diag[i] if i == j else QI(0) for j in range(4)] for i in range(4)])
    gamma = omega.wedge(omega)
    verdict = is_transverse(gamma, 2)
    assert verdict.holds is False and verdict.exact is True
    assert verdict.samples_used == 1
    assert verdict.to_json_dict()["exact"] is True
    assert verdict.to_json_dict()["samples_used"] == 1
    vol = pairing_volume(gamma, verdict.falsifier)
    assert vol.im == 0 and vol.re <= 0
    assert pairing_volume(gamma, alg4.monomial((1, 2), ())).re < 0


def test_duality_spot_check():
    """Pairing of a strictly positive (q,q)-form with a strongly positive
    elementary (p,p)-form is a positive volume."""
    rng = DetRng(9)
    for _ in range(10):
        # strongly positive (2,2): product of two sigma_1 alpha ^ conj(alpha)
        upsilon = ALG3.scalar_form(1)
        for _ in range(2):
            alpha = ALG3.zero()
            for i in range(1, 4):
                c = rng.gaussian(2)
                if c:
                    alpha = alpha + ALG3.gamma(i).scale(c)
            upsilon = upsilon.wedge(alpha.wedge(alpha.conj()).scale(sigma_q(1)))
        if not upsilon:
            continue
        # strictly positive (1,1) with a random PD matrix A*A + 1
        b = [[rng.gaussian(2) for _ in range(3)] for _ in range(3)]
        mat = [
            [
                sum((b[k][i].conj() * b[k][j] for k in range(3)), QI(0))
                + (QI(1) if i == j else QI(0))
                for j in range(3)
            ]
            for i in range(3)
        ]
        theta = reconstruct_from_matrix(ALG3, 1, mat)
        vol = volume_coefficient(theta.wedge(upsilon))
        assert vol.im == 0 and vol.re >= 0


def test_pkahler_check_torus_and_bcvary(torus3, bcvary10):
    ok, _, _ = pkahler_check(torus3.se, torus3.forms["kaehler"])
    assert ok
    ok, _, _ = pkahler_check(bcvary10.se, bcvary10.forms["balanced"])
    assert ok
    # forms whose own p is undefined or outside 1..n-1: zero, a
    # (0,0)-form, the (3,3) volume form and a form of mixed bidegree
    alg = torus3.se.algebra
    kaehler = torus3.forms["kaehler"]
    for gamma in (alg.zero(), alg.scalar_form(1), kaehler.wedge(kaehler).wedge(kaehler),
                  kaehler + kaehler.wedge(kaehler)):
        with pytest.raises(PreconditionFailed):
            pkahler_check(torus3.se, gamma)


def test_iwasawa_balanced_form(iwasawa3):
    """The catalog's balanced form of the Iwasawa manifold, the sum of
    gamma^I ^ gammabar^I over |I| = 2, is d-closed and passes
    pkahler_check at its own p, 2 = n - 1, where transversality is exact."""
    pk, closed, verdict = pkahler_check(iwasawa3.se, iwasawa3.forms["balanced"])
    assert pk and closed and verdict.holds and verdict.exact


def test_iwasawa_has_no_invariant_kaehler_form(iwasawa3, ec_iwasawa):
    """Every d-closed invariant real (1,1)-form dies against the
    decomposable direction eta^{12}: the d-closed space is spanned by
    eta^{i jbar} with i,j <= 2, and its pairing with sigma_2 eta^{12} ^
    conj needs the missing eta^{3 3bar}-component.  So no invariant
    (1,1)-form passes pkahler_check at p = 1."""
    alg = iwasawa3.se.algebra
    closed = ec_iwasawa.kernel("stacked", 1, 1)
    assert len(closed) == 4
    tau = alg.monomial((1, 2), ())
    for v in closed:
        gamma = ec_iwasawa.vec_to_form(v, 1, 1, alg)
        assert not gamma.wedge(tau.wedge(tau.conj()).scale(sigma_q(2)))
    # a few real closed combinations, checked through the public verdict
    rng = DetRng(15)
    for _ in range(5):
        gamma = alg.zero()
        for v in closed:
            gamma = gamma + ec_iwasawa.vec_to_form(v, 1, 1, alg).scale(rng.gaussian(2))
        gamma = gamma + gamma.conj()
        if not gamma:
            continue
        ok, _, verdict = pkahler_check(iwasawa3.se, gamma)
        assert not ok and verdict.holds is False
