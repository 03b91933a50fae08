from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilforms import linalg
from nilforms.algebra import (
    CoframeEndo,
    Form,
    FormAlgebra,
    InvariantComplex,
    StructureEquations,
    T01,
    T10,
    VectorValuedForm,
    build_complex,
    contract,
    endo_of_vvf,
    neumann_invert,
    simultaneous_contract,
    vvf_of_endo,
)
from nilforms.cohomology import EvaluatedComplex, zero_point
from nilforms.deformation import evaluate_se
from nilforms.errors import FlatnessError, IntegrabilityError, NotPerturbative
from nilforms.scalars import DetRng, GaussianRational, PolyRing, QI

from oracles import (
    WordForm,
    coframe_endo_dense,
    dense_inverse,
    exp_contract,
    form_basis,
    form_layer_derivation,
    mat_add,
    monomial_index,
    nonzero_gaussian,
    oracle_d,
    simultaneous_contract_by_prefixes,
    simultaneous_contract_scalar_first,
    sort_word,
    symbol_form,
    symbolic_columns,
    walker_derivation,
    word_of_mono,
    zero_endo,
)

ALG3 = FormAlgebra(3, PolyRing(0, 0))


def _random_form(alg, rng, nterms=3):
    total = alg.zero()
    n = alg.n
    for _ in range(nterms):
        p, q = rng.next_int(n + 1), rng.next_int(n + 1)
        basis = form_basis(alg, p, q)
        total = total + Form(alg, {basis[rng.next_int(len(basis))]: alg.ring.const(nonzero_gaussian(rng, 3))})
    return total


# -- wedge ---------------------------------------------------------------


def test_wedge_spec_examples():
    g1, g2 = ALG3.gamma(1), ALG3.gamma(2)
    assert g1.wedge(g2) == ALG3.monomial((1, 2), ())
    assert ALG3.gammabar(1).wedge(g1) == ALG3.monomial((1,), (1,), -1)
    rep = ALG3.monomial((1,), (3,)).wedge(ALG3.monomial((1,), (2,)))
    assert not rep


def test_wedge_bidegree_adds():
    a = ALG3.monomial((1, 3), (2,))
    b = ALG3.monomial((2,), (1, 3))
    w = a.wedge(b)
    assert w and w.bidegree() == (3, 3)


def test_forms_over_equal_algebras_combine_and_unequal_ones_raise():
    """Form arithmetic checks the algebra by identity first and by value
    after: forms over equal but distinct FormAlgebra objects (and a
    scalar from an equal but distinct ring) still add, subtract, wedge
    and scale, and forms over unequal algebras raise ValueError."""
    twin = FormAlgebra(3, PolyRing(0, 0))
    assert twin is not ALG3 and twin == ALG3 and twin.ring is not ALG3.ring
    a, b = ALG3.monomial((1,), (2,), 3), twin.monomial((2,), (1,), 5)
    assert (a + b).coeffs == {((1,), (2,)): QI(3), ((2,), (1,)): QI(5)}
    assert not a - twin.monomial((1,), (2,), 3)
    assert a.wedge(b) == ALG3.monomial((1, 2), (1, 2), 15)
    assert a.scale(twin.ring.const(QI(2))) == ALG3.monomial((1,), (2,), 6)
    for other in (FormAlgebra(3, PolyRing(1, 2)), FormAlgebra(4, PolyRing(0, 0))):
        c = other.monomial((2,), (1,), 5)
        with pytest.raises(ValueError):
            a + c
        with pytest.raises(ValueError):
            a.wedge(c)
    with pytest.raises(ValueError):
        a.scale(PolyRing(1, 2).one())


@given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
@settings(max_examples=80, deadline=None)
def test_wedge_associative_and_graded_commutative(i, j, k):
    monos = [m for p in range(4) for q in range(4) for m in form_basis(ALG3, p, q)]
    a, b, c = (Form(ALG3, {monos[x]: ALG3.ring.one()}) for x in (i, j, k))
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))
    da = sum(len(s) for s in monos[i])
    db = sum(len(s) for s in monos[j])
    sign = -1 if (da * db) % 2 else 1
    ba = b.wedge(a)
    assert a.wedge(b) == (ba if sign > 0 else -ba)


def test_conj_involution_and_bidegree():
    a = ALG3.monomial((1, 2), (3,), QI(1, 2))
    assert a.conj().bidegree() == (1, 2)
    assert a.conj().conj() == a


# -- d, del, delbar vs the independent word oracle ------------------------


def _iwasawa_se():
    return StructureEquations("iwasawa3", ALG3, {3: ALG3.monomial((1, 2), (), -1)})


def test_d_matches_word_oracle_everywhere():
    se = _iwasawa_se()
    d_syms = {2: [(GaussianRational(-1), (0, 1))]}
    # oracle's conjugate entry
    d_syms[5] = [(GaussianRational(-1), (3, 4))]
    for p in range(4):
        for q in range(4):
            for m in form_basis(ALG3, p, q):
                engine = se.apply_d(Form(ALG3, {m: ALG3.ring.one()}))
                word = word_of_mono(m[0], m[1], 3)
                oracle = oracle_d(d_syms, WordForm({word: GaussianRational(1)}))
                got = WordForm()
                for (I, J), c in engine.coeffs.items():
                    got.add(word_of_mono(I, J, 3), c.constant_term())
                assert got == oracle, (m, engine)


def test_del_plus_delbar_is_d():
    se = _iwasawa_se()
    rng = DetRng(5)
    for _ in range(10):
        a = _random_form(ALG3, rng)
        assert se.apply_del(a) + se.apply_delbar(a) == se.apply_d(a)


def test_paper_anchor_del_eta31():
    se = _iwasawa_se()
    f = ALG3.monomial((3,), (1,))
    assert se.apply_del(f) == ALG3.monomial((1, 2), (1,), -1)
    assert not se.apply_delbar(f)


def test_conj_intertwines_del_delbar():
    se = _iwasawa_se()
    for p in range(4):
        for q in range(4):
            for m in form_basis(ALG3, p, q):
                a = Form(ALG3, {m: ALG3.ring.one()})
                assert se.apply_del(a).conj() == se.apply_delbar(a.conj())


# -- build_complex -------------------------------------------------------


def test_build_complex_validates_iwasawa():
    cx = build_complex(_iwasawa_se())
    assert cx.algebra.dim(1, 1) == 9
    # del on (1,0) has rank 1, delbar is zero there
    cols = symbolic_columns(cx.se, "del", 1, 0)
    assert sum(1 for c in cols if c) == 1
    assert all(not c for c in symbolic_columns(cx.se, "delbar", 1, 0))
    ec = EvaluatedComplex(cx, ())
    assert len(linalg.columns(ec.rows("del", 1, 0))) == 1
    assert all(not r for r in ec.rows("delbar", 1, 0))


def test_build_complex_abelian_all_zero():
    alg = FormAlgebra(3, PolyRing(0, 0))
    cx = build_complex(StructureEquations("t", alg, {}))
    ec = EvaluatedComplex(cx, ())
    for p in range(3):
        for q in range(3):
            assert all(not r for r in ec.rows("del", p, q))
            assert all(not r for r in ec.rows("delbar", p, q))


def test_build_complex_bcvary_dims_and_column():
    """Equations over bcvary10's ring: their t = 0 fiber's complex, labelled
    by the point, has bcvary10's dimensions and the column of the
    equations' own delbar."""
    ring = PolyRing(4, 4)
    alg = FormAlgebra(5, ring)
    se = StructureEquations("bc", alg, {4: alg.monomial((1,), (3,)), 5: alg.monomial((3,), (4,))})
    cx = build_complex(evaluate_se(se, zero_point(4)))
    assert cx.algebra.dim(4, 4) == comb(5, 4) ** 2 == 25
    # delbar gamma^4 = gamma^{1 bar3}: column of gamma^4 in (1,0) hits that row
    col = symbolic_columns(se, "delbar", 1, 0)[monomial_index(se, 1, 0)[((4,), ())]]
    target_row = monomial_index(se, 1, 1)[((1,), (3,))]
    assert list(col) == [target_row]
    ec = EvaluatedComplex(cx, zero_point(4))
    assert ec.point == zero_point(4)
    assert list(linalg.columns(ec.rows("delbar", 1, 0))[monomial_index(cx, 1, 0)[((4,), ())]]) == [target_row]
    # d gamma^5 is pure (1,1): the delbar part carries it all, del kills it
    assert se.apply_delbar(alg.gamma(5)) == alg.monomial((3,), (4,))
    assert not se.apply_del(alg.gamma(5))


def test_integrability_error_on_02_part():
    """A (0,2)-part of d gamma^2, beside a (1,1)-part, is refused with
    require_flat's IntegrabilityError by build_complex, by the complex
    itself, so no EvaluatedComplex is built on it, and by every route
    that reads the del or delbar part of d (apply_d, apply_del,
    apply_delbar), which used to drop it without a word; nothing is
    kept, so each call raises again."""
    alg = FormAlgebra(2, PolyRing(0, 0))
    d2 = alg.monomial((), (1, 2)) + alg.monomial((1,), (1,))
    se = StructureEquations("bad", alg, {2: d2})
    with pytest.raises(IntegrabilityError) as flat:
        build_complex(se)
    assert str(flat.value).startswith("bad: d gamma^2 has parts outside (2,0) + (1,1): ")
    calls = [
        lambda: se.apply_d(alg.gamma(1)),
        lambda: se.apply_del(alg.gammabar(2)),
        lambda: se.apply_delbar(alg.gamma(2)),
        lambda: InvariantComplex(se),
        lambda: EvaluatedComplex(InvariantComplex(se), ()),
    ]
    for _ in range(2):
        for call in calls:
            with pytest.raises(IntegrabilityError) as err:
                call()
            assert str(err.value) == str(flat.value)
    assert se.terms is None and se.tables == {} and not se.flat


def _seeded_form(alg, rng, nterms=4):
    """A sum of nterms monomials of random bidegrees; where the ring has
    parameters, each coefficient is a polynomial in t and tbar."""
    ring = alg.ring
    total = alg.zero()
    for _ in range(nterms):
        p, q = rng.next_int(alg.n + 1), rng.next_int(alg.n + 1)
        basis = form_basis(alg, p, q)
        c = ring.const(nonzero_gaussian(rng, 3))
        if ring.m:
            nu, mu = 1 + rng.next_int(ring.m), 1 + rng.next_int(ring.m)
            c = c + ring.t(nu) * nonzero_gaussian(rng, 3) + ring.t(nu) * ring.tbar(mu) * nonzero_gaussian(rng, 3)
        total = total + Form(alg, {basis[rng.next_int(len(basis))]: c})
    return total


def _typed(form):
    return {m: (type(c), c) for m, c in form.coeffs.items()}


def _equations(reference_complexes):
    """(label, structure equations) of the reference complexes, then
    bcvary10's and its deformed family's over the parameter ring, which
    build no complex until a fiber is evaluated."""
    from nilforms.catalog import catalog_load
    from nilforms.deformation import deform_complex

    bc = catalog_load("bcvary10")
    out = [(label, cx.se) for label, cx, _ in reference_complexes]
    return out + [("bcvary10 over t", bc.se), ("bcvary10 family", deform_complex(bc.se, bc.beltrami))]


def test_column_tables_equal_the_walker(reference_complexes):
    """apply_del, apply_delbar and apply_d, through the equations' column
    tables, equal the monomial walker they replaced
    (``oracles.walker_derivation``), entries and their types, on every
    basis monomial of every bidegree of the equations of the reference
    complexes and of the parametric bcvary10 equations and family
    (``_equations``), and on seeded forms of mixed bidegree with
    t-dependent coefficients."""
    rng = DetRng(41)
    for label, given in _equations(reference_complexes):
        alg = given.algebra
        se = StructureEquations(given.name, alg, given.d_coframe)  # the fixture's tables stay as they are
        one = alg.ring.one()
        forms = [Form(alg, {m: one}) for p in range(se.n + 1) for q in range(se.n + 1) for m in form_basis(alg, p, q)]
        forms += [_seeded_form(alg, rng) for _ in range(6)]
        for a in forms:
            walked = {op: walker_derivation(se, a, op) for op in ("del", "delbar")}
            assert _typed(se.apply_del(a)) == _typed(walked["del"]), (label, a)
            assert _typed(se.apply_delbar(a)) == _typed(walked["delbar"]), (label, a)
            assert _typed(se.apply_d(a)) == _typed(walker_derivation(se, a, "d")), (label, a)
        assert any(a.coeffs and not all(c.is_constant() for c in a.coeffs.values()) for a in forms) == bool(alg.ring.m)


def test_flatness_check_assembles_the_tables_of_degree_two_only(monkeypatch, reference_complexes):
    """require_flat's d^2 check applies d once to each structure form, so
    it assembles each column table it reads once, all of degree 2; a
    later d of the generators assembles del and delbar from each
    bidegree of degree 1 once, and d of them again assembles nothing."""
    assembled = []
    real = StructureEquations._assemble_table
    monkeypatch.setattr(
        StructureEquations, "_assemble_table", lambda se, *key: assembled.append(key) or real(se, *key)
    )
    degree_one = {(op, p, 1 - p) for op in ("del", "delbar") for p in (0, 1)}
    for label, given in _equations(reference_complexes):
        se = StructureEquations(given.name, given.algebra, given.d_coframe)
        assembled.clear()
        se.require_flat()
        assert se.flat and len(assembled) == len(set(assembled)), label
        assert {p + q for _, p, q in assembled} == ({2} if any(se.d_coframe.values()) else set()), label
        assembled.clear()
        for _ in range(2):
            for s in range(2 * se.n):
                se.apply_d(symbol_form(se.algebra, s))
        assert sorted(assembled) == sorted(degree_one), label


def test_flatness_error():
    alg = FormAlgebra(3, PolyRing(0, 0))
    se = StructureEquations(
        "notflat", alg, {3: alg.monomial((1,), (2,)), 2: alg.monomial((1,), (3,))}
    )
    with pytest.raises(FlatnessError):
        build_complex(se)


def test_d_squared_matrix_identities_iwasawa():
    cx = build_complex(_iwasawa_se())
    ec = EvaluatedComplex(cx, ())
    for p in range(4):
        for q in range(4):
            dd = linalg.mat_mul(ec.rows("del", p + 1, q), ec.rows("del", p, q)) if p + 2 <= 3 else []
            assert all(not r for r in dd)
            bb = linalg.mat_mul(ec.rows("delbar", p, q + 1), ec.rows("delbar", p, q)) if q + 2 <= 3 else []
            assert all(not r for r in bb)
            if p + 1 <= 3 and q + 1 <= 3:
                anti = mat_add(
                    linalg.mat_mul(ec.rows("del", p, q + 1), ec.rows("delbar", p, q)),
                    linalg.mat_mul(ec.rows("delbar", p + 1, q), ec.rows("del", p, q)),
                )
                assert all(not r for r in anti)


def _catalog_se(name):
    from nilforms.catalog import catalog_load
    from nilforms.deformation import deform_complex

    if name == "bcvary10_deformed":
        # the deformed family: ParamScalar columns in t, tbar
        bc = catalog_load("bcvary10")
        return deform_complex(bc.se, bc.beltrami)
    return catalog_load(name).se


def test_matrix_action_equals_derivation_action():
    """On every catalog entry, every column of del/delbar, assembled from
    the structure constants, is apply_del/apply_delbar of its basis
    monomial, and both equal the Form-layer derivation."""
    for name in ("iwasawa3", "torus3", "abelian_4", "bcvary10", "bcvary10_deformed"):
        _check_matrix_action(name)


def _check_matrix_action(name):
    se = _catalog_se(name)
    se.require_flat()
    alg = se.algebra
    one = alg.ring.one()
    for p in range(se.n + 1):
        for q in range(se.n + 1):
            for op, apply, (tp, tq) in (
                ("del", se.apply_del, (p + 1, q)),
                ("delbar", se.apply_delbar, (p, q + 1)),
            ):
                cols = symbolic_columns(se, op, p, q)
                target = form_basis(alg, tp, tq) if alg.dim(tp, tq) else []
                assert len(cols) == alg.dim(p, q)
                for m, col in zip(form_basis(alg, p, q), cols):
                    form = Form(alg, {m: one})
                    image = Form(alg, {target[i]: c for i, c in col.items()})
                    assert image == apply(form) == form_layer_derivation(se, form, op), (name, op, m)
    rng = DetRng(31)
    for _ in range(5):
        a = _random_form(alg, rng)
        for op in ("del", "delbar", "d"):
            engine = {"del": se.apply_del, "delbar": se.apply_delbar, "d": se.apply_d}[op](a)
            assert engine == form_layer_derivation(se, a, op)


# -- contraction ---------------------------------------------------------


def test_contract_spec_examples():
    ring = PolyRing(4, 4)
    alg = FormAlgebra(5, ring)
    phi = VectorValuedForm(alg, T10, {2: alg.gammabar(4).scale(ring.t(1))})
    out = contract(phi, alg.gamma(2))
    assert out == alg.gammabar(4).scale(ring.t(1))

    phi2 = VectorValuedForm(ALG3, T10, {1: ALG3.gammabar(3)})
    got = contract(phi2, ALG3.monomial((1,), (2,)))
    assert got == ALG3.monomial((), (2, 3), -1)  # gammabar3 ^ gammabar2


def test_contract_is_even_derivation_all_basis_pairs():
    rng = DetRng(7)
    phi = VectorValuedForm(
        ALG3,
        T10,
        {i: ALG3.gammabar(rng.next_int(3) + 1).scale(nonzero_gaussian(rng, 3)) for i in (1, 2, 3)},
    )
    monos = [m for p in range(4) for q in range(4) for m in form_basis(ALG3, p, q)]
    for ma in monos:
        a = Form(ALG3, {ma: ALG3.ring.one()})
        ia = contract(phi, a)
        for mb in monos:
            b = Form(ALG3, {mb: ALG3.ring.one()})
            lhs = contract(phi, a.wedge(b))
            rhs = ia.wedge(b) + a.wedge(contract(phi, b))
            assert lhs == rhs, (ma, mb)


def test_exp_contract_identity_and_coframe():
    zero = VectorValuedForm(ALG3, T10, {})
    a = ALG3.monomial((1, 2), (3,))
    assert exp_contract(zero, a) == a
    ring = PolyRing(4, 4)
    alg = FormAlgebra(5, ring)
    phi = VectorValuedForm(
        alg,
        T10,
        {
            2: alg.gammabar(4).scale(ring.t(1)) + alg.gammabar(5).scale(ring.t(2)),
            5: alg.gammabar(4).scale(ring.t(3)) + alg.gammabar(5).scale(ring.t(4)),
        },
    )
    for i in range(1, 6):
        expect = alg.gamma(i) + phi.component(i)
        assert exp_contract(phi, alg.gamma(i)) == expect


def test_exp_contract_is_factorwise_substitution_degree2():
    rng = DetRng(19)
    phi = VectorValuedForm(
        ALG3,
        T10,
        {i: ALG3.gammabar(rng.next_int(3) + 1).scale(nonzero_gaussian(rng, 3)) for i in (1, 2)},
    )

    def sub(i):
        return ALG3.gamma(i) + phi.component(i)

    for p, q in ((2, 0), (1, 1), (0, 2)):
        for I, J in form_basis(ALG3, p, q):
            factors = [sub(i) for i in I] + [
                ALG3.gammabar(j) for j in J
            ]  # phi kills gammabars
            expect = ALG3.scalar_form(1)
            for f in factors:
                expect = expect.wedge(f)
            got = exp_contract(phi, ALG3.monomial(I, J))
            assert got == expect, (I, J)


# -- simultaneous contraction and Neumann inversion -----------------------


def test_simultaneous_contract_identity_and_homomorphism():
    rng = DetRng(23)
    ident = CoframeEndo.identity(ALG3)
    a = _random_form(ALG3, rng)
    assert simultaneous_contract(ident, a) == a
    b_endo = CoframeEndo(
        ALG3,
        {
            0: {0: ALG3.ring.one(), 1: ALG3.ring.const(QI(2))},
            1: {1: ALG3.ring.one()},
            3: {3: ALG3.ring.one(), 4: ALG3.ring.const(QI(0, 1))},
            4: {4: ALG3.ring.one()},
            2: {2: ALG3.ring.one()},
            5: {5: ALG3.ring.one()},
        },
    )
    x = ALG3.monomial((1, 2), ())
    y = ALG3.monomial((), (1, 2))
    lhs = simultaneous_contract(b_endo, x.wedge(y))
    rhs = simultaneous_contract(b_endo, x).wedge(simultaneous_contract(b_endo, y))
    assert lhs == rhs


def test_simultaneous_contract_triangular_top_form():
    # upper-triangular coframe map on the torus: top form scales by det = 1
    alg = FormAlgebra(2, PolyRing(0, 0))
    b = CoframeEndo(
        alg,
        {
            0: {0: alg.ring.one(), 1: alg.ring.const(QI(5))},
            1: {1: alg.ring.one()},
            2: {2: alg.ring.one(), 3: alg.ring.const(QI(7))},
            3: {3: alg.ring.one()},
        },
    )
    top = alg.monomial((1, 2), (1, 2))
    # brute-force expansion oracle
    factors = [
        alg.gamma(1) + alg.gamma(2).scale(QI(5)),
        alg.gamma(2),
        alg.gammabar(1) + alg.gammabar(2).scale(QI(7)),
        alg.gammabar(2),
    ]
    expect = alg.scalar_form(1)
    for f in factors:
        expect = expect.wedge(f)
    assert simultaneous_contract(b, top) == expect == top


def _random_scalar(ring, rng, terms=3, min_degree=0):
    """A truncated polynomial: a few Q(i) multiples of random monomials
    in t and tbar of total degree at least min_degree."""
    out = ring.zero()
    for _ in range(terms):
        c = ring.const(nonzero_gaussian(rng, 3))
        for _ in range(min_degree + rng.next_int(ring.order + 1)):
            slot = rng.next_int(2 * ring.m)
            c = c * (ring.t(slot + 1) if slot < ring.m else ring.tbar(slot - ring.m + 1))
        out = out + c
    return out


def _random_param_form(alg, rng, nterms):
    total = alg.zero()
    for _ in range(nterms):
        p, q = rng.next_int(alg.n + 1), rng.next_int(alg.n + 1)
        basis = form_basis(alg, p, q)
        total = total + Form(alg, {basis[rng.next_int(len(basis))]: _random_scalar(alg.ring, rng)})
    return total


def _random_small_endo(alg, rng, entries, identity=True):
    """(1 +) a coframe map whose entries are O(t)."""
    cols = {}
    for _ in range(entries):
        a, b = rng.next_int(2 * alg.n), rng.next_int(2 * alg.n)
        cols.setdefault(b, {})[a] = _random_scalar(alg.ring, rng, terms=2, min_degree=1)
    small = CoframeEndo(alg, cols)
    return CoframeEndo.identity(alg) + small if identity else small


def test_simultaneous_contract_equals_scalar_first_oracle(bcvary10_c):
    """The factored contraction (moved-part images wedged with the
    passive rest) equals the scalar-first route in values: on random O(t) coframe maps and t-dependent forms (products
    that truncate to zero and monomials whose images cancel included),
    on the identity and the zero form, and on the gammabar-block factor,
    its inverse and 1 + phi + phibar of the bcvary10 family and of
    bcvary10 x C."""
    from nilforms.catalog import catalog_load
    from nilforms.extension import beltrami_operators

    rng = DetRng(97)
    cases = []
    for n, m, order in ((3, 1, 2), (3, 2, 3), (4, 2, 2)):
        alg = FormAlgebra(n, PolyRing(m, order))
        for identity in (True, False):
            for _ in range(6):
                b = _random_small_endo(alg, rng, entries=2 * n, identity=identity)
                cases.append((b, _random_param_form(alg, rng, 8)))
        cases.append((CoframeEndo.identity(alg), _random_param_form(alg, rng, 8)))
        cases.append((_random_small_endo(alg, rng, entries=4), alg.zero()))
    # degree > 2 products of O(t) entries vanish in a ring of order 2
    alg = FormAlgebra(3, PolyRing(2, 2))
    t1 = alg.ring.t(1)
    pure = CoframeEndo(alg, {s: {s: t1} for s in range(6)})
    top = alg.monomial((1, 2), (1,)).scale(_random_scalar(alg.ring, rng))
    assert not simultaneous_contract(pure, top)
    cases.append((pure, top + alg.monomial((1,), ())))
    # gamma^1 and gamma^2 have the same image, so the two monomials cancel
    one = alg.ring.one()
    same = CoframeEndo(alg, {0: {0: one, 1: t1}, 1: {0: one, 1: t1}, 3: {3: one}})
    cancel = alg.monomial((1,), (1,)) - alg.monomial((2,), (1,))
    assert not simultaneous_contract(same, cancel)
    cases.append((same, cancel + alg.monomial((1, 3), ())))
    for se, phi in ((None, catalog_load("bcvary10").beltrami), bcvary10_c):
        ops = beltrami_operators(phi)
        alg = phi.algebra
        for b in (ops.shrink, ops.unshrink, ops.ext_transform):
            for p, q in ((1, 1), (2, 3), (3, 3), (alg.n - 1, alg.n - 1)):
                basis = form_basis(alg, p, q)
                form = Form(alg, {basis[rng.next_int(len(basis))]: _random_scalar(alg.ring, rng) for _ in range(6)})
                cases.append((b, form))
    nonzero = 0
    for b, a in cases:
        got = simultaneous_contract(b, a)
        assert got == simultaneous_contract_scalar_first(b, a)
        nonzero += bool(got)
    # zero images come from the zero forms and from pure O(t) maps on
    # high-degree monomials; the rest must not be vacuous
    assert nonzero > 3 * len(cases) // 4


def _with_term_order(f):
    return [(m, list(c.terms.items())) for m, c in f.coeffs.items()]


def _moved_symbols(b):
    """The gamma^i and gammabar^j of b whose column is not exactly their
    own symbol with coefficient 1, as (i's, j's)."""
    n, one = b.algebra.n, b.algebra.ring.one()
    moved = [s for s in range(2 * n) if b.cols.get(s) != {s: one}]
    return {s + 1 for s in moved if s < n}, {s - n + 1 for s in moved if s >= n}


def test_coframe_images_are_owned_by_the_endomorphism(bcvary10_c, monkeypatch):
    """A warm endomorphism's stored moved-part images and monomial terms
    give what a fresh copy of it, the prefix route and the scalar-first
    oracle give, in values and in key order: monomial order against all
    three, and the t-monomial order inside each coefficient against the
    fresh copy and the prefix route.  The maps are random ones with
    identity columns (so some symbols are passive, and monomials mix
    moved and passive factors), the three solver maps of bcvary10 and of
    bcvary10 x C, and deform_complex's inverse at a point of bcvary10,
    bcvary10 x C (whose structure forms have no moved factor) and
    iwasawa3, caught with the forms it maps.  Several endomorphisms are warmed in turn on the
    same forms, so a table keyed too coarsely or shared between
    endomorphisms shows.  Each map moves exactly its non-identity
    columns and keeps at most 2^{#moved} images, each of a moved part,
    and more than the empty part's exactly when a monomial it mapped has
    a moved factor.
    Endomorphisms built from warm ones start with no tables."""
    from nilforms import deformation
    from nilforms.catalog import catalog_load
    from nilforms.cohomology import generic_points
    from nilforms.extension import beltrami_operators

    rng = DetRng(31)
    groups = []
    for n, m, order in ((3, 1, 2), (3, 2, 3), (4, 2, 2)):
        alg = FormAlgebra(n, PolyRing(m, order))
        endos = [_random_small_endo(alg, rng, entries=2 * n, identity=identity) for identity in (True, False)]
        endos += [endos[0].conj(), _random_small_endo(alg, rng, entries=2), _random_small_endo(alg, rng, entries=3)]
        groups.append((endos, [_random_param_form(alg, rng, 8) for _ in range(4)]))
    bcvary10 = catalog_load("bcvary10")
    for phi in (bcvary10.beltrami, bcvary10_c[1]):
        ops = beltrami_operators(phi)
        alg = phi.algebra
        forms = []
        for p, q in ((2, 3), (3, 3), (alg.n - 1, alg.n - 1)):
            basis = form_basis(alg, p, q)
            coeffs = {basis[rng.next_int(len(basis))]: _random_scalar(alg.ring, rng) for _ in range(6)}
            forms.append(Form(alg, coeffs))
        groups.append(([ops.shrink, ops.unshrink, ops.ext_transform], forms))
    caught = []
    real = deformation.simultaneous_contract
    monkeypatch.setattr(deformation, "simultaneous_contract", lambda b, a: caught.append((b, a)) or real(b, a))
    iwasawa3 = catalog_load("iwasawa3")
    for se, phi in ((bcvary10.se, bcvary10.beltrami), bcvary10_c, (iwasawa3.se, iwasawa3.beltrami)):
        deformation.deform_complex(se, phi, point=generic_points(phi.algebra.ring.m)[0])
    assert len(caught) == 5 + 6 + 3 and caught[0][0].algebra.ring.m == 0
    for b in {id(b): b for b, _ in caught}.values():
        groups.append(([b], [a for c, a in caught if c is b]))
    mixed = 0
    for endos, forms in groups:
        for _ in range(2):  # the second sweep runs on warm tables only
            for a in forms:
                for b in endos:
                    got = simultaneous_contract(b, a)
                    fresh = simultaneous_contract(CoframeEndo(b.algebra, b.cols), a)
                    prefixes = simultaneous_contract_by_prefixes(b, a)
                    oracle = simultaneous_contract_scalar_first(b, a)
                    assert got == fresh == prefixes == oracle
                    assert _with_term_order(got) == _with_term_order(fresh) == _with_term_order(prefixes)
                    assert list(got.coeffs) == list(oracle.coeffs)
        for b in endos:
            mi, mj = b.moved
            assert (mi, mj) == _moved_symbols(b)
            assert len(b.images) <= 2 ** (len(mi) + len(mj))
            # more than the empty part's image exactly when some monomial has a moved factor
            assert (len(b.images) > 1) == any(set(I) & mi or set(J) & mj for I, J in b.terms)
            assert all(set(I) <= mi and set(J) <= mj for I, J in b.images)
            assert set(b.terms) >= {m for a in forms for m in a.coeffs}
            mixed += any(
                (set(I) - mi or set(J) - mj) and (set(I) & mi or set(J) & mj) for I, J in b.terms
            )
    assert mixed > 10

    endos, _ = groups[1]
    e, f = endos[0], endos[1]
    alg = e.algebra
    built = [e + f, e - f, -e, e.compose(f), e.conj(), CoframeEndo.identity(alg), neumann_invert(f)]
    assert all(b.moved is None and b.images is None and b.terms is None for b in built)


def test_neumann_invert():
    ring = PolyRing(1, 3)
    alg = FormAlgebra(2, ring)
    assert neumann_invert(zero_endo(alg)).cols == CoframeEndo.identity(alg).cols
    e = CoframeEndo(alg, {0: {1: ring.t(1) * ring.tbar(1)}})
    inv = neumann_invert(e)
    # (1 - e) inv = identity in the truncated ring
    one_minus = CoframeEndo.identity(alg) - e
    assert one_minus.compose(inv).cols == CoframeEndo.identity(alg).cols
    with pytest.raises(NotPerturbative):
        neumann_invert(CoframeEndo.identity(alg))


def test_neumann_vs_exact_inverse_tail_identity():
    """At a point, the truncated series differs from the exact inverse by
    exactly (1-E)^{-1} E^{K+1} where K is the last kept power.

    E = phi phibar-block has t-order 2, so ring order 4 keeps E^0..E^2.
    """
    from nilforms.catalog import catalog_load

    entry = catalog_load("bcvary10", order=4)
    phi = entry.beltrami
    p_endo = endo_of_vvf(phi)
    pq = p_endo.compose(p_endo.conj())
    series = neumann_invert(pq)
    pt = tuple(QI(Fraction(1, d)) for d in (3, 5, 7, 11))
    dense_pq = coframe_endo_dense(pq, pt)
    n2 = len(dense_pq)
    eye = [[QI(1) if i == j else QI(0) for j in range(n2)] for i in range(n2)]
    one_minus = [[eye[i][j] - dense_pq[i][j] for j in range(n2)] for i in range(n2)]
    exact_inv = dense_inverse(one_minus)
    series_pt = coframe_endo_dense(series, pt)

    def mul(a, b):
        return [
            [sum((a[i][k] * b[k][j] for k in range(n2)), QI(0)) for j in range(n2)]
            for i in range(n2)
        ]

    power = eye
    for _ in range(3):  # E^{K+1} with K = 2
        power = mul(power, dense_pq)
    tail = mul(exact_inv, power)
    diff = [[exact_inv[i][j] - series_pt[i][j] for j in range(n2)] for i in range(n2)]
    assert diff == tail


def test_vvf_endo_roundtrip():
    ring = PolyRing(4, 4)
    alg = FormAlgebra(5, ring)
    phi = VectorValuedForm(
        alg,
        T10,
        {2: alg.gammabar(4).scale(ring.t(1)), 5: alg.gammabar(5).scale(ring.t(4))},
    )
    assert vvf_of_endo(endo_of_vvf(phi), T10) == phi


def test_no_caller_hands_form_a_zero_coefficient(monkeypatch):
    """Form keeps the dict it is handed, as is, so no constructor site
    may store a zero coefficient: a zero would make a zero form true and
    two equal forms unequal.  Over one solve_extension on a fresh
    bcvary10 entry (phi's operators, the symbolic deformation and the
    order loop included), one fiber_complex at a generic point of
    bcvary10, and full_report plus lemma_report on iwasawa3, every
    coefficient Form is handed is nonzero.  The sites that can make a
    zero leave it out: a zero coefficient given to ``monomial`` or
    ``scalar_form``, and ``scale`` by 0 or by a product the truncation
    drops, give the zero form."""
    from nilforms.catalog import catalog_load
    from nilforms.cohomology import full_report, generic_points
    from nilforms.deformation import fiber_complex
    from nilforms.extension import solve_extension
    from nilforms.lemmata import lemma_report

    real = Form.__init__
    handed, zeros = [], []

    def checking(self, algebra, coeffs):
        handed.append(len(coeffs))
        zeros.extend((m, c) for m, c in coeffs.items() if not c)
        real(self, algebra, coeffs)

    monkeypatch.setattr(Form, "__init__", checking)
    bcvary10 = catalog_load("bcvary10")
    se, phi = bcvary10.se, bcvary10.beltrami
    ec0 = fiber_complex(se, None, zero_point(4))
    for gv in ec0.kernel("stacked", 3, 3)[:2]:
        solve_extension(se, phi, ec0.vec_to_form(gv, 3, 3, se.algebra), ec0=ec0, check_lemmata=False)
    fiber_complex(se, phi, generic_points(4)[0])
    ec = EvaluatedComplex(build_complex(catalog_load("iwasawa3").se), ())
    full_report(ec)
    lemma_report(ec)
    assert zeros == [] and sum(handed) > 100  # many coefficients were handed in
    alg = FormAlgebra(2, PolyRing(1, 1))
    t1 = alg.ring.t(1)
    made = [alg.monomial((1,), (2,), 0), alg.scalar_form(0), alg.gamma(1).scale(0), alg.gamma(1).scale(t1).scale(t1)]
    assert zeros == [] and not any(made) and all(f.coeffs == {} for f in made)
