from collections import Counter
from fractions import Fraction

import pytest

from nilforms import io as nio
from nilforms import lemmata, linalg
from nilforms.algebra import FormAlgebra, InvariantComplex, StructureEquations, build_complex
from nilforms.catalog import catalog_load
from nilforms.cohomology import EvaluatedComplex, full_report, generic_points, zero_point
from nilforms.deformation import deform_complex, evaluate_se
from nilforms.lemmata import (
    _real_basis_vectors,
    dual_mild,
    lemma_report,
    mild,
    standard,
    strong,
    verify_witness,
    weak,
)
from nilforms.scalars import PolyRing

from oracles import (
    echelon_kernel_one_pass,
    exact_closed_basis_full,
    fiber_point,
    mild_by_vectors,
    real_basis_vectors_by_products,
    span_intersection,
    standard_by_blocks,
    strong_by_vectors,
    weak_by_nullspace,
)


def test_iwasawa_taxonomy(ec_iwasawa):
    ok, wit = mild(ec_iwasawa, 2, 3)
    assert not ok and wit is not None
    checks = verify_witness(ec_iwasawa, "mild", 2, 3, wit)
    assert all(checks.values()), checks
    # a misspelled kind is refused, not certified by not_ddbar_exact alone
    with pytest.raises(ValueError, match="unknown witness kind 'mlid': expected one of mild, dual_mild, strong, weak, standard"):
        verify_witness(ec_iwasawa, "mlid", 2, 3, wit)
    assert dual_mild(ec_iwasawa, 2, 3)[0] is True
    assert weak(ec_iwasawa, 2)[0] is True
    assert strong(ec_iwasawa, 2, 3)[0] is False


def test_torus_all_true(ec_torus):
    for p in range(4):
        for q in range(4):
            assert mild(ec_torus, p, q)[0]
            assert dual_mild(ec_torus, p, q)[0]
            assert strong(ec_torus, p, q)[0]
    assert weak(ec_torus, 1)[0] and weak(ec_torus, 2)[0]
    assert standard(ec_torus)[0]


def test_bcvary_mild_but_not_strong(ec_bcvary0):
    assert mild(ec_bcvary0, 4, 5)[0] is True
    ok, wit = strong(ec_bcvary0, 4, 5)
    assert ok is False
    checks = verify_witness(ec_bcvary0, "strong", 4, 5, wit)
    assert all(checks.values()), checks
    # forced by strong = mild and dual_mild
    ok_d, wit_d = dual_mild(ec_bcvary0, 4, 5)
    assert ok_d is False
    checks_d = verify_witness(ec_bcvary0, "dual_mild", 4, 5, wit_d)
    assert all(checks_d.values()), checks_d


def test_standard_flags(ec_iwasawa, ec_bcvary0):
    ok, wit, at = standard(ec_iwasawa)
    assert not ok and wit is not None
    checks = verify_witness(ec_iwasawa, "standard", at[0], at[1], wit)
    assert all(checks.values()), checks
    assert standard(ec_bcvary0)[0] is False


def test_ex20_witness_is_bc_nontrivial_and_del_trivial(ec_iwasawa, iwasawa3):
    """del eta^{3 bar1} = -eta^{12 bar1} is a nonzero Bott-Chern class that
    dies in del-cohomology, so the (2,1)-th comparison is not injective."""
    se = iwasawa3.se
    alg = se.algebra
    w = se.apply_del(alg.monomial((3,), (1,)))
    assert w == alg.monomial((1, 2), (1,), -1)
    # d-closed pure type
    assert se.apply_del(w).is_zero() and se.apply_delbar(w).is_zero()
    v = ec_iwasawa.form_to_vec(w, 2, 1)
    # del-exact hence del-cohomology-trivial; not del delbar-exact
    assert ec_iwasawa.image_echelon("del", 2, 1).contains(v)
    assert not ec_iwasawa.image_echelon("ddbar", 2, 1).contains(v)
    assert mild(ec_iwasawa, 2, 1)[0] is False


def test_hierarchy_all_catalog_entries():
    """standard => strong(p,p+1) => mild(p,p+1) => weak(p), plus the
    strong = mild and dual-mild identity, on every entry (lemma_report
    raises internally if either consistency identity breaks)."""
    for name in ("torus3", "iwasawa3", "abelian_2", "bcvary10"):
        entry = catalog_load(name)
        se = entry.se
        if se.algebra.ring.m:
            se = evaluate_se(se, zero_point(se.algebra.ring.m))
        ec = EvaluatedComplex(build_complex(se), ())
        rep = lemma_report(ec, with_standard=True)
        for p in range(ec.n):
            s, m_, w_ = (
                rep.strong_flags[(p, p + 1)],
                rep.mild_flags[(p, p + 1)],
                rep.weak_flags[p],
            )
            if rep.standard_flag:
                assert s, (name, p)
            if s:
                assert m_, (name, p)
            if m_:
                assert w_, (name, p)


def test_per_point_reporting_bcvary(bcvary10):
    """Lemma flags at t-dependent complexes are reported per evaluation
    point; the (4,5)-th mild flag is checked at 0 and both samples."""
    flags = {}
    se0 = evaluate_se(bcvary10.se, zero_point(4))
    ec0 = EvaluatedComplex(build_complex(se0), ())
    flags["zero"] = mild(ec0, 4, 5)[0]
    for i, pt in enumerate(generic_points(4)):
        se_t = deform_complex(bcvary10.se, bcvary10.beltrami, point=pt)
        ect = EvaluatedComplex(build_complex(se_t), ())
        flags[f"pt{i}"] = mild(ect, 4, 5)[0]
    assert flags["zero"] is True
    assert set(flags.values()) <= {True, False}


def test_report_serialization(ec_iwasawa):
    rep = lemma_report(ec_iwasawa, bidegrees=[(2, 3)], with_standard=False)
    obj = rep.to_json_dict()
    assert obj["mild"]["2,3"] is False
    assert "mild:2,3" in obj["witnesses"]


# -- strong's space is the sum of mild's and dual mild's ----------------------


def _span_intersection_strong(ec, p, q):
    """The basis of (im del + im delbar) cap ker del cap ker delbar and the
    strong verdict, through the intersection of the del and delbar column
    spans with the stacked kernel."""
    meet = span_intersection(
        ec.image_vectors("del", p, q) + ec.image_vectors("delbar", p, q), ec.kernel("stacked", p, q)
    )
    target = ec.image_echelon("ddbar", p, q)
    return meet, all(target.contains(v) for v in meet)


def _typed_entries(v):
    # entries with their types; the intersection route leaves its keys in
    # the order its sums met them, the kernel route in ascending order
    return sorted((k, type(x), x) for k, x in v.items())


def test_strong_basis_equals_span_intersection(reference_complexes):
    """At every bidegree, the two oracle routes to strong's space agree:
    the basis built from del/delbar images of deldelbar-kernel vectors is
    the list span_intersection gives (order, values, types), and its span
    is del(ker deldelbar at (p-1,q)) + delbar(ker deldelbar at (p,q-1)),
    the sum of the spaces mild and dual mild test.  That identity makes
    a mild or dual mild witness a strong one: lemma_report's strong
    verdicts are the intersection route's, and each strong witness lies
    in the space outside im deldelbar."""
    for label, cx, point in reference_complexes:
        ec = EvaluatedComplex(cx, point)
        report = lemma_report(ec, with_standard=False)
        for p in range(cx.n + 1):
            for q in range(cx.n + 1):
                got = exact_closed_basis_full(ec, p, q)
                meet, ok = _span_intersection_strong(ec, p, q)
                assert got == meet, (label, p, q)
                assert [_typed_entries(v) for v in got] == [_typed_entries(v) for v in meet]
                images = [
                    linalg.columns_vec(ec.columns(op, sp, sq), x)
                    for op, sp, sq in (("del", p - 1, q), ("delbar", p, q - 1)) if ec.dim(sp, sq)
                    for x in ec.kernel("ddbar", sp, sq)
                ]
                space = linalg.forward_echelon(got)
                assert space.rank == len(got) == linalg.forward_echelon(images).rank, (label, p, q)
                assert all(space.contains(v) for v in images), (label, p, q)
                assert report.strong_flags[(p, q)] is ok, (label, p, q)
                witness = report.witnesses.get(f"strong:{p},{q}")
                assert (witness is None) is ok, (label, p, q)
                if witness is not None:
                    v = ec.form_to_vec(witness, p, q)
                    assert space.contains(v) and not ec.image_echelon("ddbar", p, q).contains(v), (label, p, q)


def test_real_basis_vectors_equal_product_route(reference_complexes):
    """The conjugation-fixed (p,p) basis built from the constants 1, -1,
    i and -i equals the route through Q(i) products, for p = 0..n: same
    vectors, key order, values and part types."""
    def typed(vectors):
        return [[(k, type(x.re), type(x.im), x) for k, x in v.items()] for v in vectors]

    for label, cx, point in reference_complexes:
        ec = EvaluatedComplex(cx, point)
        for p in range(cx.n + 1):
            expected = real_basis_vectors_by_products(ec, p)
            assert typed(_real_basis_vectors(ec, p)) == typed(expected), (label, p)


def _not_flat_se():
    alg = FormAlgebra(3, PolyRing(0, 0))
    return StructureEquations(
        "notflat", alg, {3: alg.monomial((1,), (2,)), 2: alg.monomial((1,), (3,))}
    )


def test_strong_refuses_a_complex_that_is_not_flat():
    """With d gamma^3 = gamma^1 ^ gammabar^2 and d gamma^2 = gamma^1 ^
    gammabar^3, d^2 != 0, so del(ker deldelbar) leaves ker delbar at
    (1,1): strong raises instead of giving a verdict."""
    alg = FormAlgebra(3, PolyRing(0, 0))
    se = StructureEquations(
        "notflat", alg, {3: alg.monomial((1,), (2,)), 2: alg.monomial((1,), (3,))}
    )
    ec = EvaluatedComplex(InvariantComplex(se), ())
    with pytest.raises(AssertionError, match="not d-closed"):
        strong(ec, 1, 1)
    with pytest.raises(AssertionError, match="not d-closed"):
        lemma_report(ec, bidegrees=[(1, 1)], with_standard=False)


def test_strong_builds_no_stacked_kernel_or_del_span(monkeypatch, iwasawa_c):
    """Through full_report, lemma_report (which reads strong's rank
    identity) and strong at every bidegree on Iwasawa x C at t = 0, no
    kernel of [del; delbar] is built and strong asks for no column span
    of del or delbar."""
    inside = []
    asked = []
    called = []

    def traced(name, f):
        def run(ec, p, q):
            inside.append((p, q))
            called.append(name)
            try:
                return f(ec, p, q)
            finally:
                inside.pop()
        return run

    def traced_image(self, op, p, q):
        if inside:
            asked.append((op, p, q))
        return real_image(self, op, p, q)

    real_image = EvaluatedComplex._image
    for name in ("strong", "_strong_holds"):
        monkeypatch.setattr(lemmata, name, traced(name, getattr(lemmata, name)))
    monkeypatch.setattr(EvaluatedComplex, "_image", traced_image)
    ec = EvaluatedComplex(iwasawa_c, ())
    full_report(ec)
    report = lemma_report(ec)
    for (p, q), flag in report.strong_flags.items():
        assert lemmata.strong(ec, p, q)[0] is flag, (p, q)
    assert not report.strong_flags[(2, 2)]
    assert not [key for key in ec._kernels if key[0] == "stacked"]
    assert set(called) == {"strong", "_strong_holds"}
    assert asked and {op for op, _, _ in asked} == {"ddbar"}


def test_lemma_report_refuses_out_of_range_bidegrees(ec_iwasawa):
    """lemma_report names the valid range instead of reporting mild and
    strong as holding on the zero space; mild itself still answers at
    (p, n+1), where extension._checked_inputs asks it."""
    for bad in ((5, 9), (0, 4), (-1, 2)):
        with pytest.raises(ValueError, match=rf"bidegree \({bad[0]},{bad[1]}\) is outside 0\.\.3"):
            lemma_report(ec_iwasawa, bidegrees=[(1, 1), bad], with_standard=False)
    assert mild(ec_iwasawa, 1, 4) == (True, None)
    assert lemma_report(ec_iwasawa, bidegrees=[(3, 3)], with_standard=False).mild_flags == {(3, 3): True}


def test_standard_spans_each_total_image_once(monkeypatch, iwasawa3):
    """standard decides every bidegree by rank and builds the image
    echelon of d only into the total degree of its failing bidegree, for
    the witness; and verifying the witness reads the same cached echelon:
    the columns of no matrix are taken twice."""
    spans = []
    real = linalg.columns_of
    monkeypatch.setattr(linalg, "columns_of", lambda rows, ncols: spans.append(id(rows)) or real(rows, ncols))
    ec = EvaluatedComplex(build_complex(iwasawa3.se), ())
    ok, wit, at = standard(ec)
    assert not ok
    assert all(verify_witness(ec, "standard", at[0], at[1], wit).values())
    total = {id(ec.total_d_rows(k)) for k in range(2 * ec.n + 1)}
    assert [i for i in spans if i in total] == [id(ec.total_d_rows(at[0] + at[1] - 1))]
    assert len(spans) == len(set(spans))


def _typed_form(w):
    """A witness's monomials in order, each with its coefficient's terms
    and the types of their parts; None for no witness."""
    if w is None:
        return None
    return [
        (m, [(k, type(z.re), type(z.im), z) for k, z in c.terms.items()])
        for m, c in w.coeffs.items()
    ]


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


def test_rank_verdicts_equal_the_vector_route(reference_complexes):
    """On every reference complex and on a complex that is not
    unimodular, lemma_report's flags and witnesses at every bidegree,
    weak's at every p and standard's, and mild and dual mild at (p, n+1),
    where the extension solver asks, are those of the vector-route
    oracles run on a fresh complex: the same forms, monomial order and
    scalar types.  Strong's flags are those of the full-basis oracle, and
    its witness, in the report and from strong called alone, is the mild
    oracle's at (p,q) if mild fails, else the dual mild oracle's."""
    solvable = build_complex(nio.obj_to_se(SOLVABLE))
    ec = EvaluatedComplex(solvable, ())
    assert not ec.unimodular and strong(ec, 2, 2) == (True, None)
    assert ec.image_rank("ddbar", 2, 3) == ec.image_rank("ddbar", 3, 2) == 2
    for label, cx, point in reference_complexes + [("solvable3", solvable, ())]:
        ec, oc = EvaluatedComplex(cx, point), EvaluatedComplex(cx, point)
        report = lemma_report(ec)
        n = cx.n
        got, want = {}, {}
        for p in range(n + 1):
            for q in range(n + 1):
                for kind, flags, oracle in (
                    ("mild", report.mild_flags, lambda: mild_by_vectors(oc, "del", p, q)),
                    ("dual_mild", report.dual_mild_flags, lambda: mild_by_vectors(oc, "delbar", p, q)),
                ):
                    got[kind, p, q] = (flags[(p, q)], _typed_form(report.witnesses.get(f"{kind}:{p},{q}")))
                    ok, wit = oracle()
                    want[kind, p, q] = (ok, _typed_form(wit))
                # strong's witness is mild's if mild fails, else dual mild's
                mild_wit, dual_wit = want["mild", p, q][1], want["dual_mild", p, q][1]
                want["strong", p, q] = (strong_by_vectors(oc, p, q)[0], mild_wit if mild_wit is not None else dual_wit)
                got["strong", p, q] = (report.strong_flags[(p, q)], _typed_form(report.witnesses.get(f"strong:{p},{q}")))
                ok, wit = strong(ec, p, q)
                got["strong alone", p, q] = (ok, _typed_form(wit))
                want["strong alone", p, q] = want["strong", p, q]
            for kind, op in (("mild", "del"), ("dual_mild", "delbar")):
                verdict = mild(ec, p, n + 1) if op == "del" else dual_mild(ec, p, n + 1)
                got[kind, p, n + 1] = verdict
                want[kind, p, n + 1] = mild_by_vectors(oc, op, p, n + 1)
        for p in range(n):
            got["weak", p] = (report.weak_flags[p], _typed_form(report.witnesses.get(f"weak:{p}")))
            ok, wit = weak_by_nullspace(oc, p)
            want["weak", p] = (ok, _typed_form(wit))
        ok, wit, at = standard_by_blocks(oc)
        want["standard"] = (ok, _typed_form(wit), at)
        keys = [k for k in report.witnesses if k.startswith("standard:")]
        got["standard"] = (
            report.standard_flag,
            _typed_form(report.witnesses.get(keys[0])) if keys else None,
            tuple(int(x) for x in keys[0].split(":")[1].split(",")) if keys else None,
        )
        assert got == want, label
        assert list(got) == list(want)


def _typed_items(v):
    """A vector's entries in key order, with the types of the scalars and
    of their parts."""
    return [(k, x, type(x), type(x.re), type(x.im)) for k, x in v.items()]


def test_lazy_kernel_equals_the_one_pass_oracle(reference_complexes):
    """The kernel of del, delbar, deldelbar and stacked at every bidegree,
    built one vector at a time from the RREF (``kernel_vectors``, and the
    list ``kernel`` keeps), is the one-pass oracle's on the same RREF: the
    same vectors in order, keys in order, values and types.  On Iwasawa,
    bcvary10 at t = 0 and at both generic points, the four benchmark
    products and solvable3."""
    labels = ["iwasawa3@0", "bcvary10@0", "bcvary10 deformed#0", "bcvary10 deformed#1",
              "iwasawa2", "iwasawa_c3", "bcvary10_0_c", "iwasawa2_c"]
    chosen = {label: (cx, point) for label, cx, point in reference_complexes if label in labels}
    chosen["solvable3"] = (build_complex(nio.obj_to_se(SOLVABLE)), ())
    assert len(chosen) == len(labels) + 1
    for label, (cx, point) in chosen.items():
        ec = EvaluatedComplex(cx, point)
        for op in ("del", "delbar", "ddbar", "stacked"):
            for p in range(cx.n + 1):
                for q in range(cx.n + 1):
                    lazy = list(ec.kernel_vectors(op, p, q))
                    want = echelon_kernel_one_pass(ec._echelons[(op, p, q)], ec.dim(p, q))
                    assert [_typed_items(x) for x in lazy] == [_typed_items(x) for x in want], (label, op, p, q)
                    assert not ec._kernels and ec.kernel(op, p, q) == lazy
                    ec._kernels.clear()


def test_every_verdict_refuses_a_complex_that_is_not_flat():
    """mild, dual mild, weak and standard refuse the complex that strong
    refuses, with the same error, and the failed verdict is not stored:
    every call checks again."""
    se = _not_flat_se()
    ec = EvaluatedComplex(InvariantComplex(se), ())
    calls = (
        lambda: mild(ec, 1, 1), lambda: dual_mild(ec, 1, 1), lambda: weak(ec, 1),
        lambda: standard(ec), lambda: strong(ec, 1, 1),
    )
    for call in calls + calls:
        with pytest.raises(AssertionError, match="not d-closed"):
            call()
    assert se.flat is False


def test_flatness_is_decided_once_per_structure_equations(monkeypatch, iwasawa3):
    """After build_complex(se) the lemma layer makes no derivation call
    to decide flatness.  Equations wrapped without build_complex are
    checked on the first verdict, six derivations per coframe generator,
    and never again."""
    calls = []
    real = StructureEquations._apply_derivation
    monkeypatch.setattr(
        StructureEquations, "_apply_derivation", lambda self, a, part: calls.append(a) or real(self, a, part)
    )
    se = StructureEquations(iwasawa3.se.name, iwasawa3.se.algebra, iwasawa3.se.d_coframe)
    cx = build_complex(se)
    assert se.flat
    calls.clear()
    lemma_report(EvaluatedComplex(cx, ()))
    assert calls == []
    se = StructureEquations(iwasawa3.se.name, iwasawa3.se.algebra, iwasawa3.se.d_coframe)
    lemma_report(EvaluatedComplex(InvariantComplex(se), ()))
    assert len(calls) == 6 * 2 * se.n and se.flat
    calls.clear()
    lemma_report(EvaluatedComplex(InvariantComplex(se), ()))
    assert calls == []


def test_passing_verdicts_build_no_vectors(monkeypatch, iwasawa_c):
    """On Iwasawa x C, after full_report, lemma_report decides each
    passing verdict by rank: a passing mild, dual mild or standard takes
    no kernel, no image and no product with a vector, and a passing weak
    takes no kernel, applies delbar only to its real basis and reads the
    image echelons of del and deldelbar into (p,p+1), the ones the
    complex caches.  Strong, passing or failing, makes no columns_vec,
    kernel, _image or RREF completion (``Echelon._complete``, where a
    kernel is read) beyond those of mild and dual mild:
    in lemma_report each such call is made inside mild, dual mild, weak
    or standard; strong called alone makes none when it holds, and when
    it fails the calls, in order, of mild at (p,q), then of dual mild if
    mild holds, on a complex in the same state, whose witness it returns.
    No kernel of [del; delbar] is built."""
    verdicts, work, stack = [], [], []

    def traced(name, f):
        def run(*args):
            stack.append(len(verdicts))
            verdicts.append(None)
            try:
                result = f(*args)
            finally:
                index = stack.pop()
            verdicts[index] = (name, args[1:], result[0])
            return result
        return run

    def counted(tag, f):
        def run(*args, **kwargs):
            work.append((stack[-1] if stack else None, tag))
            return f(*args, **kwargs)
        return run

    for name in ("mild", "dual_mild", "weak", "standard"):
        monkeypatch.setattr(lemmata, name, traced(name, getattr(lemmata, name)))
    monkeypatch.setattr(EvaluatedComplex, "_image", counted("image", EvaluatedComplex._image))
    monkeypatch.setattr(linalg, "columns_vec", counted("columns_vec", linalg.columns_vec))
    monkeypatch.setattr(EvaluatedComplex, "kernel", counted("kernel", EvaluatedComplex.kernel))
    monkeypatch.setattr(linalg.Echelon, "_complete", counted("rref", linalg.Echelon._complete))
    ec = EvaluatedComplex(iwasawa_c, ())
    full_report(ec)
    work.clear()
    report = lemma_report(ec)
    assert {name for name, _, ok in verdicts if ok} == {"mild", "dual_mild", "weak"}
    assert set(report.strong_flags.values()) == {True, False} and not report.strong_flags[(2, 2)]
    assert work and all(index is not None for index, _ in work)
    assert "rref" in {tag for _, tag in work}  # a failing mild completes its kernel's echelon
    by_verdict = {}
    for index, tag in work:
        by_verdict.setdefault(index, []).append(tag)
    for index, (name, args, ok) in enumerate(verdicts):
        if not ok:
            continue
        tags = by_verdict.get(index, [])
        if name == "weak":
            p = args[0]
            assert tags == ["columns_vec"] * ec.dim(p, p) + ["image"] * 2, args
            assert ("del", p, p + 1) in ec._images and ("ddbar", p, p + 1) in ec._images
        else:
            assert tags == [], (name, args)
    alone, paired = EvaluatedComplex(iwasawa_c, ()), EvaluatedComplex(iwasawa_c, ())
    full_report(alone)
    full_report(paired)
    failing = Counter()
    for (p, q), flag in report.strong_flags.items():
        work.clear()
        ok, wit = strong(alone, p, q)
        made = [tag for _, tag in work]
        work.clear()
        want = None
        if not ok:
            m_ok, want = lemmata.mild(paired, p, q)
            if m_ok:
                want = lemmata.dual_mild(paired, p, q)[1]
            failing[m_ok] += 1
        assert ok is flag and made == [tag for _, tag in work] and wit == want, (p, q)
        assert wit == report.witnesses.get(f"strong:{p},{q}"), (p, q)
    assert failing[True] and failing[False]
    assert not [key for c in (ec, alone) for key in c._kernels if key[0] == "stacked"]


def test_routes_that_disagree_raise(monkeypatch, ec_torus):
    """When the ranks say a verdict fails but its vector route finds no
    form outside im deldelbar, the verdict raises instead of answering:
    on the torus every verdict holds, so a deldelbar image rank lowered
    by one (and, for weak, residue ranks that differ) must raise."""
    real = EvaluatedComplex.image_rank
    monkeypatch.setattr(EvaluatedComplex, "image_rank", lambda self, op, p, q: real(self, op, p, q) - 1)
    calls = (("mild", lambda: mild(ec_torus, 1, 1)), ("dual_mild", lambda: dual_mild(ec_torus, 1, 1)),
             ("strong", lambda: strong(ec_torus, 1, 1)), ("standard", lambda: standard(ec_torus)))
    for kind, call in calls:
        with pytest.raises(AssertionError, match=f"{kind} at .*finds no form"):
            call()
    monkeypatch.setattr(EvaluatedComplex, "image_rank", real)
    monkeypatch.setattr(lemmata, "_residue_rank", lambda ec, op, sp, sq, vectors: op == "del")
    with pytest.raises(AssertionError, match="weak at .*finds no form"):
        weak(ec_torus, 1)


def test_lemma_report_raises_when_strong_breaks_its_identity(monkeypatch, ec_torus, ec_iwasawa):
    """strong's verdict is its own rank identity, not mild and dual mild:
    a strong rank test that says the opposite makes lemma_report raise,
    both where every verdict holds (the torus) and where mild fails
    (Iwasawa at (2,3))."""
    real = lemmata._strong_holds
    monkeypatch.setattr(lemmata, "_strong_holds", lambda ec, p, q: not real(ec, p, q))
    for ec, at in ((ec_torus, (1, 1)), (ec_iwasawa, (2, 3))):
        with pytest.raises(AssertionError, match=rf"strong/mild/dual-mild identity violated at \({at[0]}, {at[1]}\)"):
            lemma_report(ec, bidegrees=[at], with_standard=False)


def test_weak_witness_equals_the_nullspace_oracle_on_fibers(bcvary10):
    """On six seeded bcvary10 fibers weak fails at p = 1..3, and at each
    failing p its witness from the tracked forward elimination is the
    oracle's, from the RREF nullspace of the realified system on a fresh
    complex: the same values, monomial order and part types.  Each
    witness re-verifies on a third complex."""
    for seed in range(7301, 7307):
        cx = build_complex(deform_complex(bcvary10.se, bcvary10.beltrami, point=fiber_point(seed)))
        ec = EvaluatedComplex(cx, ())
        failing = []
        for p in range(cx.n):
            ok, wit = weak(ec, p)
            want_ok, want = weak_by_nullspace(EvaluatedComplex(cx, ()), p)
            assert (ok, _typed_form(wit)) == (want_ok, _typed_form(want)), (seed, p)
            if not ok:
                failing.append(p)
                verdict = verify_witness(EvaluatedComplex(cx, ()), "weak", p, p + 1, wit)
                assert all(verdict.values()), (seed, p, verdict)
        assert failing == [1, 2, 3], seed


def test_lemma_report_reuses_the_eliminations_it_has(monkeypatch, bcvary10):
    """At bcvary10's first generic point, after full_report, lemma_report
    takes one nullspace (standard's witness route, ``_pure_d_exact``) and
    builds 2,193 Fractions, all in weak's eliminations over Q; weak's
    witness no longer takes a realified nullspace (4 nullspaces and 5,520
    Fractions before).  No row list of d is forward-eliminated in order
    twice over full_report and lemma_report: standard's prefix pass is
    the echelon that rank reads."""
    cx = build_complex(deform_complex(bcvary10.se, bcvary10.beltrami, point=generic_points(4)[0]))
    ec = EvaluatedComplex(cx, ())
    fed = {}
    extend = linalg.Echelon.extend

    def recording(self, vectors):
        fed.setdefault(id(self), (self, []))[1].extend(id(v) for v in vectors)
        return extend(self, vectors)

    monkeypatch.setattr(linalg.Echelon, "extend", recording)
    full_report(ec)
    nullspaces, built = [], []
    nullspace, new = linalg.nullspace, Fraction.__new__
    monkeypatch.setattr(linalg, "nullspace", lambda *a, **k: nullspaces.append(a) or nullspace(*a, **k))
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k: built.append(a) or new(cls, *a, **k))
    report = lemma_report(ec)
    monkeypatch.setattr(Fraction, "__new__", new)
    assert len(nullspaces) == 1 and len(built) == 2193
    assert [p for p, ok in report.weak_flags.items() if not ok] == [1, 2, 3]
    assert report.standard_flag is False
    # degrees -1..n-1 are eliminated for rank, the rest only by standard,
    # which stops at its failing bidegree
    passes = [sum(seq == [id(r) for r in ec.total_d_rows(k)] for _, seq in fed.values())
              for k in range(-1, 2 * cx.n)]
    assert passes[:cx.n + 1] == [1] * (cx.n + 1) and max(passes) == 1, passes


def test_mild_witness_builds_only_the_kernel_vectors_it_tests(monkeypatch, reference_complexes):
    """On Iwasawa^2 x C after full_report, lemma_report keeps no deldelbar
    kernel (the list route kept 15,519 vectors), and builds one deldelbar
    kernel vector per image that a failing mild or dual mild tests, each
    through ``kernel_vectors`` (weak's and standard's witnesses take no
    kernel); its JSON equals that of a complex whose
    deldelbar kernels were all built as lists first."""
    cx = next(cx for label, cx, _ in reference_complexes if label == "iwasawa2_c")
    ec = EvaluatedComplex(cx, ())
    full_report(ec)
    built, tested = Counter(), Counter()
    kernel_vectors, witness = EvaluatedComplex.kernel_vectors, lemmata._witness

    def counting(self, op, p, q):
        for x in kernel_vectors(self, op, p, q):
            built[op] += 1
            yield x

    def testing(ec, kind, p, q, vectors):
        return witness(ec, kind, p, q, (tested.update([kind]) or v for v in vectors))

    monkeypatch.setattr(EvaluatedComplex, "kernel_vectors", counting)
    monkeypatch.setattr(lemmata, "_witness", testing)
    report = lemma_report(ec)
    monkeypatch.undo()
    assert not [key for key in ec._kernels if key[0] == "ddbar"]
    # weak and standard test vectors of their own, built without a kernel
    assert set(built) == {"ddbar"} and built["ddbar"] == tested["mild"] + tested["dual_mild"]
    assert tested["mild"] and tested["dual_mild"]
    first = EvaluatedComplex(cx, ())
    full_report(first)
    for p in range(cx.n + 1):
        for q in range(cx.n + 1):
            first.kernel("ddbar", p, q)
    assert lemma_report(first).to_json_dict() == report.to_json_dict()


def _witness_bidegree(key):
    """(kind, p, q) of a lemma_report witness key: weak:p is at (p,p+1)."""
    kind, at = key.split(":")
    if kind == "weak":
        return kind, int(at), int(at) + 1
    p, q = at.split(",")
    return kind, int(p), int(q)


def test_each_image_is_eliminated_once(monkeypatch, bcvary10):
    """On six bcvary10 fibers, over full_report, lemma_report and
    verify_witness of every witness, the columns of each matrix of del,
    delbar, deldelbar and d are eliminated by at most one structure, and
    each cached image by exactly one; and at each failing weak(p), the
    rank test's residues are taken modulo the image echelons of del and
    deldelbar into (p,p+1) that the complex caches, the ones its witness
    route reads.

    A structure is told by the vectors fed to it from empty; one that
    starts from a copy of a cached echelon's rows (``image_sum``, for a
    sum of images) eliminates its vectors modulo that image, not an image
    of its own.  Matrices whose columns are, as a multiset, another's
    columns (a conjugate pair at a real point) share their count, and one
    whose columns are its rows cannot be told from its row echelon, so
    is skipped."""
    fed, residues, weak_frames = {}, [], []

    def key(v):
        return frozenset(v.items())

    def feeding(method, vectors_of):
        def run(self, *args):
            if id(self) not in fed:  # the object is kept, so its id is not reused
                fed[id(self)] = (self, Counter(), bool(self.pivots))
            fed[id(self)][1].update(key(v) for v in vectors_of(args) if v)
            return method(self, *args)
        return run

    hooks = {
        (linalg.Echelon, "extend"): lambda args: args[0],
        (linalg.Echelon, "insert"): lambda args: args[:1],
        (linalg.Echelon, "track"): lambda args: args[:1],
    }
    for (cls, name), vectors_of in hooks.items():
        if hasattr(cls, name):  # a hook that sees nothing fails the count of cached images
            monkeypatch.setattr(cls, name, feeding(getattr(cls, name), vectors_of))
    real_residues = linalg.Echelon.residues

    def recording_residues(self, vectors):
        if weak_frames:
            residues.append((weak_frames[-1], self))
        return real_residues(self, vectors)

    monkeypatch.setattr(linalg.Echelon, "residues", recording_residues)
    real_weak = lemmata.weak

    def framed_weak(ec, p):
        weak_frames.append((ec, p))
        try:
            return real_weak(ec, p)
        finally:
            weak_frames.pop()

    monkeypatch.setattr(lemmata, "weak", framed_weak)
    shift = {"del": (1, 0), "delbar": (0, 1), "ddbar": (1, 1)}
    failing_weak = 0
    for seed in range(9521, 9527):
        cx = build_complex(deform_complex(bcvary10.se, bcvary10.beltrami, point=fiber_point(seed)))
        ec = EvaluatedComplex(cx, ())
        fed.clear()
        residues.clear()
        full_report(ec)
        report = lemma_report(ec)
        for name, wit in report.witnesses.items():
            kind, p, q = _witness_bidegree(name)
            assert all(verify_witness(ec, kind, p, q, wit).values()), (seed, name)
        # each image by TARGET, as EvaluatedComplex._image keys it
        sources = {(op, p, q): (ec._matrix(op, p - dp, q - dq), ec.dim(p - dp, q - dq))
                   for op, (dp, dq) in shift.items()
                   for p in range(dp, cx.n + 1) for q in range(dq, cx.n + 1)}
        sources.update({("total", k, 0): (ec.total_d_rows(k - 1), ec.total_dim(k - 1))
                        for k in range(1, 2 * cx.n + 1)})
        columns = {}
        for target, (rows, ncols) in sources.items():
            cols = Counter(key(v) for v in linalg.columns_of(rows, ncols) if v)
            if cols and cols != Counter(key(r) for r in rows if r):
                columns[target] = frozenset(cols.items())
        sharing = Counter(columns.values())
        eliminated = Counter(frozenset(counts.items()) for _, counts, seeded in fed.values() if not seeded)
        twice = {t for t, cols in columns.items() if eliminated[cols] > sharing[cols]}
        assert not twice, (seed, sorted(twice))
        cached = [k for k, (basis, _) in ec._images.items() if basis and k in columns]
        assert cached and all(eliminated[columns[k]] >= 1 for k in cached), seed
        # verify_witness reads the cache and leaves it as it was
        assert all(e.rank == len(basis) for basis, e in ec._images.values()), seed
        weak_p = [p for p, ok in report.weak_flags.items() if not ok]
        failing_weak += len(weak_p)
        for p in weak_p:
            read = {id(e) for (at, at_p), e in residues if at is ec and at_p == p}
            assert read == {id(ec.image_echelon("del", p, p + 1)), id(ec.image_echelon("ddbar", p, p + 1))}
    assert failing_weak > 0
