import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from nilforms import io as nio
from nilforms import lemmata, linalg
from nilforms.algebra import Form, FormAlgebra, InvariantComplex, StructureEquations, build_complex
from nilforms.catalog import catalog_load
from nilforms.cohomology import EvaluatedComplex, full_report, generic_points, zero_point
from nilforms.deformation import deform_complex, evaluate_se
from nilforms.errors import FlatnessError
from nilforms.lemmata import lemma_report, standard, verify_witness, weak
from nilforms.scalars import QI_I, QI_ONE, GaussianRational, PolyRing

from conftest import SOLVABLE, _product_se, heisenberg_c, lemma_verdict

from oracles import (
    columns_of_every_row,
    echelon_kernel_one_pass,
    exact_closed_basis_full,
    fiber_point,
    in_real_delbar_span,
    kernel_images_by_columns,
    mat_mul_of_every_row,
    mild_by_vectors,
    mild_scan_by_columns,
    mild_scan_through_images,
    pure_d_exact_by_nullspace,
    real_basis_vectors,
    real_basis_vectors_by_products,
    real_delbar_span,
    realify_span,
    realify_vec,
    span_intersection,
    standard_by_blocks,
    strong_by_vectors,
    total_d_rows_of_every_row,
    weak_by_nullspace,
    weak_by_residue_ranks,
    weak_images_by_columns,
    weak_realified,
)


def test_iwasawa_taxonomy(ec_iwasawa):
    ok, wit = lemma_verdict(ec_iwasawa, "mild", 2, 3)
    assert not ok and wit is not None
    checks = verify_witness(ec_iwasawa, "mild", 2, 3, wit)
    assert all(checks.values()), checks
    # a misspelled kind is refused, not certified by not_ddbar_exact alone
    with pytest.raises(ValueError, match="unknown witness kind 'mlid': expected one of mild, dual_mild, strong, weak, standard"):
        verify_witness(ec_iwasawa, "mlid", 2, 3, wit)
    assert lemma_verdict(ec_iwasawa, "dual_mild", 2, 3)[0] is True
    assert weak(ec_iwasawa, 2)[0] is True
    assert lemma_verdict(ec_iwasawa, "strong", 2, 3)[0] is False


def test_verify_witness_refuses_a_space_that_does_not_exist(bcvary10):
    """verify_witness refuses a bidegree outside 0..n, as every decider
    does (``ec.check_bidegree``), for every kind: on the n = 5 fiber 4601
    the zero form at (7,7) gets no verdict.  A weak witness lies at
    (p,p+1), so weak refuses any other q, and (5,6), which is outside."""
    fiber = build_complex(deform_complex(bcvary10.se, bcvary10.beltrami, point=fiber_point(4601)))
    ec = EvaluatedComplex(fiber, ())
    zero = Form(fiber.algebra, {})
    for kind in ("mild", "dual_mild", "strong", "weak", "standard"):
        with pytest.raises(ValueError, match=r"bidegree \(7,7\) is outside 0..5"):
            verify_witness(ec, kind, 7, 7, zero)
    for p, q in ((2, 2), (2, 4), (3, 2)):
        with pytest.raises(ValueError, match=fr"a weak witness lies at \(p,p\+1\), not at \({p},{q}\)"):
            verify_witness(ec, "weak", p, q, zero)
    with pytest.raises(ValueError, match=r"bidegree \(5,6\) is outside 0..5"):
        verify_witness(ec, "weak", 5, 6, zero)
    assert verify_witness(ec, "weak", 2, 3, zero) == {"not_ddbar_exact": False, "del_exact": True, "delbar_of_real": True}


def test_torus_all_true(ec_torus):
    for p in range(4):
        for q in range(4):
            report = lemma_report(ec_torus, [(p, q)])
            assert report.mild_flags[(p, q)] and report.dual_mild_flags[(p, q)] and report.strong_flags[(p, q)]
    assert weak(ec_torus, 1)[0] and weak(ec_torus, 2)[0]
    assert standard(ec_torus)[0]


def test_bcvary_mild_but_not_strong(ec_bcvary0):
    assert lemma_verdict(ec_bcvary0, "mild", 4, 5)[0] is True
    ok, wit = lemma_verdict(ec_bcvary0, "strong", 4, 5)
    assert ok is False
    checks = verify_witness(ec_bcvary0, "strong", 4, 5, wit)
    assert all(checks.values()), checks
    # forced by strong = mild and dual_mild
    ok_d, wit_d = lemma_verdict(ec_bcvary0, "dual_mild", 4, 5)
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
    assert not se.apply_del(w) and not se.apply_delbar(w)
    v = ec_iwasawa.form_to_vec(w, 2, 1)
    # del-exact hence del-cohomology-trivial; not del delbar-exact
    assert ec_iwasawa.image_echelon("del", 2, 1).contains(v)
    assert not ec_iwasawa.image_echelon("ddbar", 2, 1).contains(v)
    assert lemma_verdict(ec_iwasawa, "mild", 2, 1)[0] is False


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
        rep = lemma_report(ec)
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
    flags["zero"] = lemma_verdict(ec0, "mild", 4, 5)[0]
    for i, pt in enumerate(generic_points(4)):
        se_t = deform_complex(bcvary10.se, bcvary10.beltrami, point=pt)
        ect = EvaluatedComplex(build_complex(se_t), ())
        flags[f"pt{i}"] = lemma_verdict(ect, "mild", 4, 5)[0]
    assert flags["zero"] is True
    assert set(flags.values()) <= {True, False}


def test_report_serialization(ec_iwasawa):
    rep = lemma_report(ec_iwasawa, bidegrees=[(2, 3)])
    obj = rep.to_json_dict()
    assert obj["mild"]["2,3"] is False
    assert "mild:2,3" in obj["witnesses"]
    # standard is decided only when every bidegree is asked for
    assert obj["standard"] is None and lemma_report(ec_iwasawa).standard_flag is False


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
        report = lemma_report(ec)
        for p in range(cx.n + 1):
            for q in range(cx.n + 1):
                got = exact_closed_basis_full(ec, p, q)
                meet, ok = _span_intersection_strong(ec, p, q)
                assert got == meet, (label, p, q)
                assert [_typed_entries(v) for v in got] == [_typed_entries(v) for v in meet]
                images = [
                    linalg.columns_vec(linalg.columns(ec.rows(op, sp, sq)), x)
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
    vectors, key order, values and part types.  Given a set of positions
    (delbar's nonzero columns, as weak passes them, the empty set, or
    every other position), it builds exactly the vectors of that basis
    whose support meets the set, in order."""
    def typed(vectors):
        return [[(k, type(x.re), type(x.im), x) for k, x in v.items()] for v in vectors]

    dropped = 0
    for label, cx, point in reference_complexes:
        ec = EvaluatedComplex(cx, point)
        for p in range(cx.n + 1):
            full = real_basis_vectors(ec, p, range(ec.dim(p, p)))
            expected = real_basis_vectors_by_products(ec, p)
            assert typed(full) == typed(expected), (label, p)
            for meets in (linalg.columns(ec.rows("delbar", p, p)).keys(), set(), set(range(0, ec.dim(p, p), 2))):
                want = [r for r in full if not meets.isdisjoint(r)]
                assert typed(real_basis_vectors(ec, p, meets)) == typed(want), (label, p)
                dropped += len(full) - len(want)
    assert dropped


def _not_flat_se():
    alg = FormAlgebra(3, PolyRing(0, 0))
    return StructureEquations(
        "notflat", alg, {3: alg.monomial((1,), (2,)), 2: alg.monomial((1,), (3,))}
    )


def test_strong_refuses_a_complex_that_is_not_flat():
    """With d gamma^3 = gamma^1 ^ gammabar^2 and d gamma^2 = gamma^1 ^
    gammabar^3, d^2 != 0, so del(ker deldelbar) leaves ker delbar at
    (1,1): the complex that strong and lemma_report would read is
    refused where it is built, naming the generator whose d^2 is
    nonzero, so neither gives a verdict."""
    alg = FormAlgebra(3, PolyRing(0, 0))
    se = StructureEquations(
        "notflat", alg, {3: alg.monomial((1,), (2,)), 2: alg.monomial((1,), (3,))}
    )
    with pytest.raises(FlatnessError, match=r"^notflat is not flat: d\^2 gamma\^2 = .* is nonzero$"):
        EvaluatedComplex(InvariantComplex(se), ())


def test_strong_builds_no_stacked_kernel_or_del_span(monkeypatch, iwasawa_c):
    """Through full_report and lemma_report on Iwasawa x C at t = 0, on
    every bidegree and at each bidegree alone (which reads strong's own
    rank identity, ``_strong_holds``), no kernel of [del; delbar] is
    built and strong asks for no column span of del or delbar: a failing
    strong's witness scan (``_scanned``, through
    ``EvaluatedComplex.mild_scan``) targets its own bidegree and tests no
    candidate through ``in_ddbar_image``."""
    inside, asked, called, scanned, starred = [], [], [], [], []

    def traced(name, f):
        def run(ec, *args):
            inside.append(args[-2:])
            called.append(name)
            try:
                return f(ec, *args)
            finally:
                inside.pop()
        return run

    def traced_image(self, op, p, q):
        if inside:
            asked.append((op, p, q))
        return real_image(self, op, p, q)

    def traced_scan(self, op, p, q):
        if inside:
            scanned.append((inside[-1], (p + 1, q) if op == "del" else (p, q + 1)))
        return real_scan(self, op, p, q)

    def traced_test(self, v, p, q):
        if inside:
            starred.append((p, q))
        return real_test(self, v, p, q)

    real_image, real_scan, real_test = EvaluatedComplex._image, EvaluatedComplex.mild_scan, EvaluatedComplex.in_ddbar_image
    for name in ("_scanned", "_strong_holds"):
        monkeypatch.setattr(lemmata, name, traced(name, getattr(lemmata, name)))
    monkeypatch.setattr(EvaluatedComplex, "_image", traced_image)
    monkeypatch.setattr(EvaluatedComplex, "mild_scan", traced_scan)
    monkeypatch.setattr(EvaluatedComplex, "in_ddbar_image", traced_test)
    ec = EvaluatedComplex(iwasawa_c, ())
    full_report(ec)
    report = lemma_report(ec)
    assert "_strong_holds" not in called  # every bidegree reads the rank tables
    for (p, q), flag in report.strong_flags.items():
        ok, wit = lemma_verdict(ec, "strong", p, q)
        assert ok is flag and wit == report.witnesses.get(f"strong:{p},{q}"), (p, q)
    assert not report.strong_flags[(2, 2)]
    assert not _kernels_read(ec, "stacked")
    assert set(called) == {"_scanned", "_strong_holds"}
    # the complex is unimodular: a failing strong scans the mild images
    # into its own bidegree on the star side, stars no candidate back
    # (``in_ddbar_image``) and reads no column span at all
    failing = {pq for pq, flag in report.strong_flags.items() if not flag}
    assert ec.unimodular and scanned and {at for at, _ in scanned} == {pq for _, pq in scanned} == failing
    assert asked == [] and starred == []
    inside.append((2, 2))
    ec.image_echelon("ddbar", 2, 2)
    inside.pop()
    assert asked == [("ddbar", 2, 2)]  # the hook sees a span that is asked for


def test_lemma_report_refuses_out_of_range_bidegrees(ec_iwasawa):
    """lemma_report names the valid range instead of reporting mild and
    strong as holding on the zero space."""
    for bad in ((5, 9), (0, 4), (-1, 2)):
        with pytest.raises(ValueError, match=rf"bidegree \({bad[0]},{bad[1]}\) is outside 0\.\.3"):
            lemma_report(ec_iwasawa, bidegrees=[(1, 1), bad])
    assert lemma_report(ec_iwasawa, bidegrees=[(3, 3)]).mild_flags == {(3, 3): True}


def test_deciders_refuse_out_of_range_bidegrees(ec_iwasawa):
    """lemma_report, the reader of mild, dual mild and strong, refuses a
    bidegree outside 0..n asked alone, and weak a p outside 0..n-1 (its
    (p,p+1) leaves the range), with check_bidegree's error, instead of
    holding on the zero space; the edges of the range still answer."""
    for p, q in ((9, 9), (1, 4), (-1, 2), (0, -1)):
        with pytest.raises(ValueError, match=rf"^bidegree \({p},{q}\) is outside 0\.\.3$"):
            lemma_report(ec_iwasawa, [(p, q)])
    for p, at in ((-3, "-3,-2"), (-1, "-1,0"), (3, "3,4"), (9, "9,10")):
        with pytest.raises(ValueError, match=rf"^bidegree \({at}\) is outside 0\.\.3$"):
            weak(ec_iwasawa, p)
    for p, q in ((0, 0), (3, 3), (0, 3), (3, 0)):
        for kind in ("mild", "dual_mild", "strong"):
            assert lemma_verdict(ec_iwasawa, kind, p, q)[0] is True, (kind, p, q)
    assert [weak(ec_iwasawa, p)[0] for p in range(3)] == [True, True, True]


def test_standard_spans_each_total_image_once(monkeypatch, iwasawa3):
    """standard decides every bidegree by rank and builds the image
    echelon of d only into the total degree of its failing bidegree, for
    the witness; and verifying the witness reads the same cached echelon:
    every transpose (``linalg.columns``) is of a stored matrix or of a
    build of d on the total complex (``total_d_rows``, never stored), and
    the columns of no matrix are walked twice."""
    spans, totals = [], []
    real, total_d_rows = linalg.columns, EvaluatedComplex.total_d_rows
    monkeypatch.setattr(linalg, "columns", lambda rows: spans.append(rows) or real(rows))

    def building(self, k):
        totals.append((("total", k, 0), total_d_rows(self, k)))
        return totals[-1][1]

    monkeypatch.setattr(EvaluatedComplex, "total_d_rows", building)
    ec = EvaluatedComplex(build_complex(iwasawa3.se), ())
    ok, wit, at = standard(ec)
    assert not ok
    assert all(verify_witness(ec, "standard", at[0], at[1], wit).values())
    built = [key for rows in spans for key, stored in list(ec._rows.items()) + totals if stored is rows]
    assert len(built) == len(spans) == len(set(built))
    assert [key for key in built if key[0] == "total"] == [("total", at[0] + at[1] - 1, 0)]


def _typed_form(w):
    """A witness's monomials in order, each with its coefficient's terms
    and the types of their parts; None for no witness."""
    if w is None:
        return None
    return [
        (m, [(k, type(z.re), type(z.im), z) for k, z in c.terms.items()])
        for m, c in w.coeffs.items()
    ]


def _in_weak_oracle_space(cx, point, p, w):
    """Whether the form w lies in T cap E outside im deldelbar at
    (p,p+1), by the realified oracle on a fresh complex: w's realification
    lies in T (``in_real_delbar_span``), and w in the image echelon of del
    and not in that of deldelbar."""
    oc = EvaluatedComplex(cx, point)
    v = oc.form_to_vec(w, p, p + 1)
    return (in_real_delbar_span(oc, p, v) and oc.image_echelon("del", p, p + 1).contains(v)
            and not oc.image_echelon("ddbar", p, p + 1).contains(v))


def test_rank_verdicts_equal_the_vector_route(reference_complexes):
    """On every reference complex and on a complex that is not
    unimodular, lemma_report's flags and witnesses at every bidegree,
    weak's at every p and standard's are those of the vector-route
    oracles run on a fresh complex: the same forms, monomial order and
    scalar types, but for weak's witness, which lies, by the realified
    oracle, in T cap E outside im deldelbar (``_in_weak_oracle_space``),
    where the nullspace oracle finds its own; a report at (p,q) alone
    gives the same mild, dual mild and strong flags and witnesses, and
    refuses (p, n+1), the empty bidegree that the extension solver
    counts as holding without asking.  Strong's flags are those of the
    full-basis oracle, and its witness is the mild oracle's at (p,q) if
    mild fails, else the dual mild oracle's."""
    solvable = build_complex(nio.obj_to_se(SOLVABLE))
    ec = EvaluatedComplex(solvable, ())
    assert not ec.unimodular and lemma_verdict(ec, "strong", 2, 2) == (True, None)
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
                alone = lemma_report(ec, [(p, q)])
                for kind, flags in (("mild", alone.mild_flags), ("dual_mild", alone.dual_mild_flags),
                                    ("strong", alone.strong_flags)):
                    got[f"{kind} alone", p, q] = (flags[(p, q)], _typed_form(alone.witnesses.get(f"{kind}:{p},{q}")))
                    want[f"{kind} alone", p, q] = want[kind, p, q]
            with pytest.raises(ValueError, match=rf"bidegree \({p},{n + 1}\) is outside 0\.\.{n}$"):
                lemma_report(ec, [(p, n + 1)])
        for p in range(n):
            ok, wit = report.weak_flags[p], report.witnesses.get(f"weak:{p}")
            got["weak", p] = (ok, wit is None if ok else _in_weak_oracle_space(cx, point, p, wit))
            want["weak", p] = (weak_by_nullspace(oc, p)[0], True)
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


def _kernels_read(ec, op):
    """The keys of op's row echelons whose columns a kernel read has
    indexed (``linalg.Echelon.kernel``)."""
    return [key for key, e in ec._echelons.items() if key[0] == op and e._index is not None]


def _typed_items(v):
    """A vector's entries in key order, with the types of the scalars and
    of their parts."""
    return [(k, x, type(x), type(x.re), type(x.im)) for k, x in v.items()]


def test_lazy_kernel_equals_the_one_pass_oracle(reference_complexes):
    """The kernel of del, delbar, deldelbar and stacked at every bidegree,
    built one vector at a time from the RREF (``kernel_vectors``, and the
    list ``kernel`` returns), is the one-pass oracle's on the same RREF: the
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
                    assert ec.kernel(op, p, q) == lazy


def test_every_verdict_refuses_a_complex_that_is_not_flat():
    """Every verdict (mild, dual mild, weak, standard, strong) reads an
    EvaluatedComplex, and none can be built on equations that are not
    flat: InvariantComplex, build_complex by its other name, refuses
    them with FlatnessError, and the failure is not stored, so every
    attempt checks again."""
    se = _not_flat_se()
    calls = (lambda: InvariantComplex(se), lambda: build_complex(se), lambda: EvaluatedComplex(InvariantComplex(se), ()))
    for call in calls + calls:
        with pytest.raises(FlatnessError):
            call()
    assert se.flat is False


def test_flatness_is_decided_once_per_structure_equations(monkeypatch, iwasawa3):
    """After build_complex(se) the lemma layer makes no derivation call
    to decide flatness.  InvariantComplex, the same constructor, decides
    fresh equations when it is built, one derivation per coframe
    generator (d of its structure form), and never again."""
    calls = []
    real = StructureEquations.apply_d
    monkeypatch.setattr(StructureEquations, "apply_d", lambda self, a: calls.append(a) or real(self, a))
    se = StructureEquations(iwasawa3.se.name, iwasawa3.se.algebra, iwasawa3.se.d_coframe)
    cx = build_complex(se)
    assert se.flat
    calls.clear()
    lemma_report(EvaluatedComplex(cx, ()))
    assert calls == []
    se = StructureEquations(iwasawa3.se.name, iwasawa3.se.algebra, iwasawa3.se.d_coframe)
    lemma_report(EvaluatedComplex(InvariantComplex(se), ()))
    assert len(calls) == 2 * se.n and se.flat
    calls.clear()
    lemma_report(EvaluatedComplex(InvariantComplex(se), ()))
    assert calls == []


def test_passing_verdicts_build_no_vectors(monkeypatch, iwasawa_c):
    """On Iwasawa x C, after full_report, lemma_report decides each
    passing verdict by rank: a passing mild, dual mild, weak or standard
    takes no kernel, no image and no product with a vector, by columns
    (``linalg.columns_vec``) or by the star dual's rows
    (``linalg.row_combination``) (weak holds at every p, each by the
    identity im del cap im delbar = im deldelbar).  On every bidegree
    it reads mild and dual mild off its rank tables, calling no rank
    identity of one bidegree (``_mild_holds``): each such call is made
    inside the witness scan (``_scanned``) of a mild or dual mild that
    fails, one per failing flag, or inside weak or standard.
    weak's tracked route (``_weak_tracked``), run on the same complex at
    each p, holds too, takes no kernel, applies no matrix to a vector,
    transposes stacked from (p,p) for U and then, for p > 0, del from
    (p-1,p+1) for the one image basis it reads, del's into (p,p+1), the
    one the complex caches: deldelbar enters by its rank only, and no
    image of it is built or read.  Strong, passing
    or failing, makes no columns_vec, row_combination,
    kernel, _image or column index (``Echelon._column_index``, which the
    first kernel read of an echelon builds) beyond those of mild and dual mild:
    in lemma_report each such call is made inside a failing witness scan,
    weak or standard, and a report at (p,q) alone makes, in order, the
    calls of mild's rank identity and, where it fails, its witness scan,
    then dual mild's, and of weak where q = p+1, on a complex in the same
    state; its strong witness is mild's
    if mild fails, else dual mild's.  No kernel of [del; delbar] is built."""
    verdicts, work, stack, transposed, images = [], [], [], [], []

    def traced(name, f):
        def run(*args):
            stack.append(len(verdicts))
            verdicts.append(None)
            try:
                result = f(*args)
            finally:
                index = stack.pop()
            # a witness scan runs only for a verdict that failed
            verdicts[index] = (name, args[1:], result[0] if isinstance(result, tuple) else False)
            return result
        return run

    def counted(tag, f):
        def run(*args, **kwargs):
            work.append((stack[-1] if stack else None, tag))
            if tag == "columns":
                transposed.append(args[0])
            elif tag == "image":
                images.append(args[1:])
            return f(*args, **kwargs)
        return run

    for name in ("_mild_holds", "_scanned", "weak", "standard"):
        monkeypatch.setattr(lemmata, name, traced(name, getattr(lemmata, name)))
    monkeypatch.setattr(EvaluatedComplex, "_image", counted("image", EvaluatedComplex._image))
    monkeypatch.setattr(linalg, "columns_vec", counted("columns_vec", linalg.columns_vec))
    monkeypatch.setattr(linalg, "row_combination", counted("row_combination", linalg.row_combination))
    monkeypatch.setattr(EvaluatedComplex, "kernel", counted("kernel", EvaluatedComplex.kernel))
    monkeypatch.setattr(linalg.Echelon, "_column_index", counted("index", linalg.Echelon._column_index))
    ec = EvaluatedComplex(iwasawa_c, ())
    full_report(ec)
    work.clear()
    report = lemma_report(ec)
    assert {name for name, _, ok in verdicts if ok} == {"weak"}
    scanned = sorted(args for name, args, _ in verdicts if name == "_scanned")
    assert scanned == sorted((op, p, q) for op, flags in (("del", report.mild_flags), ("delbar", report.dual_mild_flags))
                             for (p, q), ok in flags.items() if not ok)
    assert scanned and not any(name == "_mild_holds" for name, _, _ in verdicts)
    assert set(report.strong_flags.values()) == {True, False} and not report.strong_flags[(2, 2)]
    assert work and all(index is not None for index, _ in work)
    assert "index" in {tag for _, tag in work}  # a failing mild indexes its kernel's echelon
    by_verdict = {}
    for index, tag in work:
        by_verdict.setdefault(index, []).append(tag)
    for index, (name, args, ok) in enumerate(verdicts):
        if ok:
            assert by_verdict.get(index, []) == [], (name, args)
    assert sorted(report.weak_flags) == list(range(ec.n)) and all(report.weak_flags.values())
    monkeypatch.setattr(linalg, "row_combination", counted("row_combination", linalg.row_combination))
    monkeypatch.setattr(linalg, "mat_vec", counted("mat_vec", linalg.mat_vec))
    monkeypatch.setattr(linalg, "columns", counted("columns", linalg.columns))
    for p in report.weak_flags:
        work.clear()
        images.clear()
        transposed.clear()
        assert lemmata._weak_tracked(ec, p) == (True, None), p
        want = [ec.rows("stacked", p, p)] + ([ec.rows("del", p - 1, p + 1)] if p else [])
        assert [tag for _, tag in work] == ["columns", "image"] + ["columns"] * bool(p), p
        assert len(transposed) == len(want) and all(a is b for a, b in zip(transposed, want)), p
        assert images == [("del", p, p + 1)] and ("del", p, p + 1) in ec._images, p
    alone, paired = EvaluatedComplex(iwasawa_c, ()), EvaluatedComplex(iwasawa_c, ())
    full_report(alone)
    full_report(paired)
    failing = Counter()
    for (p, q), flag in report.strong_flags.items():
        work.clear()
        ok, wit = lemma_verdict(alone, "strong", p, q)
        made = [tag for _, tag in work]
        work.clear()
        m_wit, d_wit = (None if lemmata._mild_holds(paired, op, p, q) else lemmata._scanned(paired, op, p, q)
                        for op in ("del", "delbar"))
        m_ok = m_wit is None
        if q == p + 1:
            lemmata.weak(paired, p)
        if not ok:
            failing[m_ok] += 1
        assert ok is flag and made == [tag for _, tag in work], (p, q)
        assert wit == (m_wit if m_wit is not None else d_wit) == report.witnesses.get(f"strong:{p},{q}"), (p, q)
    assert failing[True] and failing[False]
    assert not _kernels_read(ec, "stacked") + _kernels_read(alone, "stacked")


def test_routes_that_disagree_raise(monkeypatch, ec_torus):
    """When the ranks say a verdict fails but its vector route finds no
    form outside im deldelbar, the verdict raises instead of answering:
    on the torus every verdict holds, so a deldelbar image rank lowered
    by one must raise; lemma_report at (1,1), the reader of mild, dual
    mild and strong, raises from mild's witness scan (``_scanned``), and
    dual mild's scan raises too.  For weak, whose rank identity that patch makes
    fail, the lowered rank makes the relations of E and conj(E) modulo U
    outnumber twice the deldelbar rank, and weak must raise both from its
    tracked route and from weak itself."""
    real = EvaluatedComplex.image_rank
    monkeypatch.setattr(EvaluatedComplex, "image_rank", lambda self, op, p, q: real(self, op, p, q) - 1)
    assert not lemmata._images_meet_in_ddbar(ec_torus, 1)
    calls = (("mild", lambda: lemmata._scanned(ec_torus, "del", 1, 1)),
             ("dual_mild", lambda: lemmata._scanned(ec_torus, "delbar", 1, 1)),
             ("mild", lambda: lemma_report(ec_torus, [(1, 1)])), ("standard", lambda: standard(ec_torus)),
             ("weak", lambda: lemmata._weak_tracked(ec_torus, 1)), ("weak", lambda: weak(ec_torus, 1)))
    for kind, call in calls:
        with pytest.raises(AssertionError, match=f"{kind} at .*finds no form"):
            call()


def _weak_cases(reference_complexes, bcvary10):
    """(label, complex, point, the p where weak fails, or None where not
    pinned): the 13 reference complexes (the four benchmark products
    among them, under a coframe permutation), the four products
    unpermuted, H(3,C), H(5,C), H(7,C) and six seeded bcvary10 fibers."""
    iw, c1, c3 = (catalog_load(name).se for name in ("iwasawa3", "abelian_1", "abelian_3"))
    bc0 = evaluate_se(bcvary10.se, zero_point(4))
    products = {"iwasawa2": [iw, iw], "iwasawa_c3": [iw, c3], "bcvary10_0_c": [bc0, c1], "iwasawa2_c": [iw, iw, c1]}
    cases = [(label, cx, point, [] if label in products else None) for label, cx, point in reference_complexes]
    cases += [(f"{name} unpermuted", build_complex(_product_se(name, factors)), (), [])
              for name, factors in products.items()]
    cases += [(f"H({n},C)", build_complex(heisenberg_c(n)), (), []) for n in (3, 5, 7)]
    cases += [(f"fiber {seed}", build_complex(deform_complex(bcvary10.se, bcvary10.beltrami, point=fiber_point(seed))),
               (), [1, 2, 3]) for seed in range(4601, 4607)]
    return cases


def test_weak_rank_identity_agrees_with_the_realified_route(reference_complexes, bcvary10):
    """weak's rank identity, im del cap im delbar = im deldelbar at
    (p,p+1) (``_images_meet_in_ddbar``), decides only where the realified
    route (``oracles.weak_realified``, which
    ``test_tracked_route_equals_the_realified_oracle`` holds equal to the
    tracked route) agrees: at every p of the 13 reference complexes (the four
    benchmark products among them, under a coframe permutation), the four
    products unpermuted, H(3,C), H(5,C), H(7,C) and six seeded bcvary10
    fibers, wherever the identity holds the realified route returns
    (True, None).  It holds at every p of the products and of H(n,C),
    so weak builds no vector there, and fails on each fiber at exactly
    p = 1..3, where weak fails."""
    for label, cx, point, failing in _weak_cases(reference_complexes, bcvary10):
        ec = EvaluatedComplex(cx, point)
        fast, realified = [], []
        for p in range(cx.n):
            fast.append(lemmata._images_meet_in_ddbar(ec, p))
            realified.append(weak_realified(ec, p))
            if fast[-1]:
                assert realified[-1] == (True, None), (label, p)
        if failing is not None:
            assert [p for p, (ok, _) in enumerate(realified) if not ok] == failing, label
            assert [p for p, holds in enumerate(fast) if not holds] == failing, label


def test_realified_route_equals_the_residue_rank_oracle(reference_complexes, bcvary10):
    """weak's realified route, one forward elimination of T read by both
    the verdict and the witness (``oracles.weak_realified``), gives at
    every p the flag and the witness of the residue-rank route it replaced
    (``oracles.weak_by_residue_ranks``, three eliminations of T), the
    witness compared as a form with its coefficients' types: on the cases
    of ``_weak_cases`` and solvable3, which is not unimodular, so the
    route's check of T's rank by the stacked rank holds on each.  Each
    route runs on a complex of its own; the fibers' failures give
    witnesses to compare."""
    cases = _weak_cases(reference_complexes, bcvary10)
    cases.append(("solvable3", build_complex(nio.obj_to_se(SOLVABLE)), (), None))
    witnesses = 0
    for label, cx, point, _ in cases:
        ec, oc = EvaluatedComplex(cx, point), EvaluatedComplex(cx, point)
        for p in range(cx.n):
            (ok, wit), (want_ok, want) = weak_realified(ec, p), weak_by_residue_ranks(oc, p)
            assert (ok, _typed_form(wit)) == (want_ok, _typed_form(want)), (label, p)
            witnesses += wit is not None
    assert witnesses >= 18


def _relation_count(monkeypatch, route, ec, p):
    """The verdict of route at p and the number of relations that its
    ``Echelon.track`` calls return."""
    track, found = linalg.Echelon.track, []

    def counting(self, v, j, width):
        c = track(self, v, j, width)
        found.append(c is not None)
        return c

    with monkeypatch.context() as m:
        m.setattr(linalg.Echelon, "track", counting)
        ok, wit = route(ec, p)
    return ok, wit, sum(found)


def test_tracked_route_equals_the_realified_oracle(monkeypatch, reference_complexes, bcvary10):
    """weak's tracked route over Q(i) (``_weak_tracked``) counts as many
    relations of E and conj(E) modulo U as the realified route over Q it
    replaced (``oracles.weak_realified``) counts of E modulo T, and gives
    its verdict, at every p of the cases of ``_weak_cases``, solvable3
    (not unimodular) and the bcvary10 fibers at seeds 4601-4620; each
    route runs on a complex of its own.  Each relation gives two
    candidates, the (p,p+1) parts of u + sigma(u) and i (u - sigma(u)),
    and every candidate, the scan read to its end, lies in T cap E by
    the realified oracle: in a new elimination of T
    (``oracles.real_delbar_span``) and in the del image.  Some relations
    give two nonzero candidates.  Every witness passes
    ``verify_witness``.  At p = 1 and 3 each witness on the fibers is
    the realified route's; at p = 2 none is, and fiber 4601's is one
    monomial."""
    cases = [case[:3] for case in _weak_cases(reference_complexes, bcvary10)]
    cases.append(("solvable3", build_complex(nio.obj_to_se(SOLVABLE)), ()))
    fibers = {f"fiber {seed}" for seed in range(4601, 4621)}
    cases += [(f"fiber {seed}", build_complex(deform_complex(bcvary10.se, bcvary10.beltrami, point=fiber_point(seed))), ())
              for seed in range(4607, 4621)]
    witness, scans = lemmata._witness, []

    def reading(ec, kind, p, q, vectors):
        scans.append(list(vectors))
        return witness(ec, kind, p, q, iter(scans[-1]))

    monkeypatch.setattr(lemmata, "_witness", reading)
    same, failing, both = Counter(), Counter(), 0
    for label, cx, point in cases:
        ec, oc = EvaluatedComplex(cx, point), EvaluatedComplex(cx, point)
        for p in range(cx.n):
            scans.clear()
            ok, wit, count = _relation_count(monkeypatch, lemmata._weak_tracked, ec, p)
            want_ok, want, want_count = _relation_count(monkeypatch, weak_realified, oc, p)
            assert (ok, count) == (want_ok, want_count), (label, p)
            if ok:
                assert wit is None and not scans, (label, p)
                continue
            failing[label in fibers] += 1
            checker = EvaluatedComplex(cx, point)
            t, e = real_delbar_span(checker, p), checker.image_echelon("del", p, p + 1)
            candidates = scans[0]
            assert all(t.contains(realify_vec(v)) and e.contains(v) for v in candidates), (label, p)
            both += sum(bool(a and b) for a, b in zip(candidates[::2], candidates[1::2]))
            assert all(verify_witness(checker, "weak", p, p + 1, wit).values()), (label, p)
            if label in fibers:
                same[p, wit == want] += 1
                if label == "fiber 4601" and p == 2:
                    assert len(wit.coeffs) == 1 < len(want.coeffs)
    assert failing[True] == 60 and failing[False] and both
    assert same == {(1, True): 20, (2, False): 20, (3, True): 20}


def test_d_image_rank_is_certified_by_the_stacked_rank(monkeypatch, bcvary10):
    """U, the image of d on the (p,p)-forms eliminated from the columns of
    the stacked rows (``_d_image``), must have the stacked rank at (p,p),
    the rank of those rows.  The tracked route checks it at every p of the
    cases of ``test_tracked_route_equals_the_realified_oracle``, and with
    the stacked rank at (p,p) read one too high it raises on a fiber,
    naming p and both ranks."""
    fiber = build_complex(deform_complex(bcvary10.se, bcvary10.beltrami, point=fiber_point(4601)))
    ec = EvaluatedComplex(fiber, ())
    closed = ec.rank("stacked", 2, 2)
    real = EvaluatedComplex.rank
    monkeypatch.setattr(EvaluatedComplex, "rank",
                        lambda self, op, p, q: real(self, op, p, q) + (op == "stacked" and p == q))
    with pytest.raises(AssertionError, match=fr"weak at 2: column rank {closed} of d on the \(2,2\)-forms != stacked rank {closed + 1}$"):
        lemmata._weak_tracked(ec, 2)


def test_lemma_report_raises_when_strong_breaks_its_identity(monkeypatch, ec_torus, ec_iwasawa):
    """strong's verdict is its own rank identity, not mild and dual mild:
    a strong rank test that says the opposite makes lemma_report raise,
    both where every verdict holds (the torus) and where mild fails
    (Iwasawa at (2,3))."""
    real = lemmata._strong_holds
    monkeypatch.setattr(lemmata, "_strong_holds", lambda ec, p, q: not real(ec, p, q))
    for ec, at in ((ec_torus, (1, 1)), (ec_iwasawa, (2, 3))):
        with pytest.raises(AssertionError, match=rf"strong/mild/dual-mild identity violated at \({at[0]}, {at[1]}\)"):
            lemma_report(ec, bidegrees=[at])


def test_weak_relations_are_certified_to_hold_the_ddbar_image(monkeypatch, bcvary10):
    """D, the deldelbar image into (p,p+1), lies in T cap E, so the
    relations of E and conj(E) modulo U, dim T cap E in number, are at
    least 2 r(ddbar).  The tracked route checks it at every p of the cases
    of ``test_tracked_route_equals_the_realified_oracle``, and with the
    deldelbar image rank at (2,3) read as the least rank whose double
    exceeds the count, it raises on a fiber, naming p and both numbers:
    the count is dim U + 2 dim E - dim (U + conj(E) + E), from
    eliminations of its own, with conj read from ``Form.conj``, and it
    is the realified count dim T + dim E - dim (T + E) over Q."""
    fiber = build_complex(deform_complex(bcvary10.se, bcvary10.beltrami, point=fiber_point(4601)))
    ec = EvaluatedComplex(fiber, ())
    half, image = ec.dim(3, 2), ec.image_vectors("del", 2, 3)
    u = list(columns_of_every_row(ec.rows("stacked", 2, 2)).values())
    tracked = [{half + k: x for k, x in e.items()} for e in image]
    tracked += [ec.form_to_vec(ec.vec_to_form(e, 2, 3).conj(), 3, 2) for e in image]
    count = linalg.forward_echelon(u).rank + len(tracked) - linalg.forward_echelon(u + tracked).rank
    t = [realify_vec(v) for v in weak_images_by_columns(ec, 2) if v]
    e = realify_span(image)
    assert count == linalg.forward_echelon(t).rank + len(e) - linalg.forward_echelon(t + e).rank
    assert count > 2 * ec.image_rank("ddbar", 2, 3)  # weak fails at 2
    real = EvaluatedComplex.image_rank
    monkeypatch.setattr(EvaluatedComplex, "image_rank",
                        lambda self, op, p, q: count // 2 + 1 if (op, p, q) == ("ddbar", 2, 3) else real(self, op, p, q))
    with pytest.raises(AssertionError, match=fr"weak at 2: {count} relations of E \+ conj\(E\) modulo U < 2 r\(ddbar\) = {2 * (count // 2 + 1)}$"):
        lemmata._weak_tracked(ec, 2)


def test_weak_witness_check_refuses_a_del_exact_form_outside_t(bcvary10):
    """verify_witness certifies a weak witness w as delbar psi with psi
    real: (conj w, w) must lie in U, the image of d on the (p,p)-forms,
    eliminated afresh (key ``delbar_of_real``).  On fiber 4601 the del
    image basis into (p,p+1) holds 3, 16 and 12 vectors at p = 1, 2 and 3
    that lie outside both im deldelbar and T, the realified delbar images
    of the real (p,p)-forms (the oracle's ``realify_vec``): each is
    del-exact and not deldelbar-exact, and fails that key alone, while
    weak's own witness at each p passes every key.  On the whole del
    image basis, on delbar of seeded real forms psi + conj(psi) (conj
    read from ``Form.conj``) and on i times each, the key is the
    oracle's membership in that T: both answers
    occur, and some delbar psi pass whose (0, w) is not in U, so the key
    reads the conj(w) half."""
    fiber = build_complex(deform_complex(bcvary10.se, bcvary10.beltrami, point=fiber_point(4601)))
    ec, checker = EvaluatedComplex(fiber, ()), EvaluatedComplex(fiber, ())
    outside, rng, seen = [], random.Random(5401), Counter()
    for p in (1, 2, 3):
        q = p + 1
        t = linalg.forward_echelon([realify_vec(v) for v in weak_images_by_columns(ec, p) if v])
        ddbar = ec.image_echelon("ddbar", p, q)
        vs = [v for v in ec.image_vectors("del", p, q) if not (t.contains(realify_vec(v)) or ddbar.contains(v))]
        outside.append(len(vs))
        for v in vs:
            verdict = verify_witness(checker, "weak", p, q, ec.vec_to_form(v, p, q))
            assert verdict == {"not_ddbar_exact": True, "del_exact": True, "delbar_of_real": False}, p
        ok, wit = weak(ec, p)
        assert not ok and verify_witness(checker, "weak", p, q, wit) == dict.fromkeys(verdict, True), p
        vectors = list(ec.image_vectors("del", p, q))
        for _ in range(6):
            psi = ec.vec_to_form({i: GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                                  for i in rng.sample(range(ec.dim(p, p)), 4)}, p, p)
            w = linalg.mat_vec(ec.rows("delbar", p, p), ec.form_to_vec(psi + psi.conj(), p, p))
            vectors += [w, {k: x * QI_I for k, x in w.items()}]
        u = lemmata._d_image(ec, p)
        for v in vectors:
            got = verify_witness(checker, "weak", p, q, ec.vec_to_form(v, p, q))["delbar_of_real"]
            assert got is t.contains(realify_vec(v)), p
            seen[got] += 1
            seen["conj half"] += got and not u.contains({ec.dim(q, p) + k: x for k, x in v.items()})
    assert outside == [3, 16, 12]
    assert seen[True] and seen[False] and seen["conj half"]


def test_pure_d_exact_equals_the_nullspace_oracle(reference_complexes, bcvary10):
    """standard's witness route, one echelon into which the part of each
    total image vector outside the (p,q) block is tracked
    (``_pure_d_exact``), yields the vectors of the RREF nullspace route it
    replaced (``oracles.pure_d_exact_by_nullspace``), in order, with equal
    entries and types, at every bidegree of the cases of ``_weak_cases``;
    each runs on a complex of its own."""
    vectors = 0
    for label, cx, point, _ in _weak_cases(reference_complexes, bcvary10):
        ec, oc = EvaluatedComplex(cx, point), EvaluatedComplex(cx, point)
        for p in range(cx.n + 1):
            for q in range(cx.n + 1):
                got = [sorted(_typed_items(v)) for v in lemmata._pure_d_exact(ec, p, q)]
                want = [sorted(_typed_items(v)) for v in pure_d_exact_by_nullspace(oc, p, q)]
                assert got == want, (label, p, q)
                vectors += len(got)
    assert vectors


def test_weak_verdict_equals_the_nullspace_oracle_on_fibers(bcvary10):
    """On six seeded bcvary10 fibers weak fails at p = 1..3, as the RREF
    nullspace of the realified system on a fresh complex says
    (``oracles.weak_by_nullspace``), and at each failing p its witness
    lies in that nullspace's T cap E outside im deldelbar, by the
    realified oracle (``_in_weak_oracle_space``).  Each witness
    re-verifies on a third complex."""
    for seed in range(7301, 7307):
        cx = build_complex(deform_complex(bcvary10.se, bcvary10.beltrami, point=fiber_point(seed)))
        ec = EvaluatedComplex(cx, ())
        failing = []
        for p in range(cx.n):
            ok, wit = weak(ec, p)
            want_ok, want = weak_by_nullspace(EvaluatedComplex(cx, ()), p)
            assert (ok, wit is None) == (want_ok, want is None), (seed, p)
            if not ok:
                failing.append(p)
                assert _in_weak_oracle_space(cx, (), p, wit), (seed, p)
                verdict = verify_witness(EvaluatedComplex(cx, ()), "weak", p, p + 1, wit)
                assert all(verdict.values()), (seed, p, verdict)
        assert failing == [1, 2, 3], seed


def test_lemma_report_reuses_the_eliminations_it_has(monkeypatch, bcvary10):
    """At bcvary10's first generic point, after full_report, lemma_report
    takes no nullspace: every echelon whose columns it indexes for a
    kernel read (``Echelon._column_index``) is a row echelon the complex
    keeps, for a kernel reader, so
    standard's witness route (``_pure_d_exact``, one nullspace before)
    and weak's take none.  It builds no Fraction: weak eliminates U and
    tracks the del image over Q(i), as Gaussian rationals (1,870
    Fractions over int/Fraction parts when it realified them), and its
    witness takes no nullspace (4 nullspaces and 5,520 Fractions
    before).  No degree of d with a nonzero row is
    forward-eliminated twice over full_report and lemma_report: standard's
    prefix pass is the one whose marks rank reads.  The total rows are
    never stored, and standard builds them again, so the rows fed are
    compared by content, each empty row standing as None."""
    cx = build_complex(deform_complex(bcvary10.se, bcvary10.beltrami, point=generic_points(4)[0]))
    ec = EvaluatedComplex(cx, ())
    fed = {}
    extend = linalg.Echelon.extend

    def recording(self, vectors):
        fed.setdefault(id(self), (self, []))[1].extend(v if v else None for v in vectors)
        return extend(self, vectors)

    monkeypatch.setattr(linalg.Echelon, "extend", recording)
    full_report(ec)
    completed, built = [], []
    index, new = linalg.Echelon._column_index, Fraction.__new__
    monkeypatch.setattr(linalg.Echelon, "_column_index", lambda self: completed.append(self) or index(self))
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k: built.append(a) or new(cls, *a, **k))
    report = lemma_report(ec)
    monkeypatch.setattr(Fraction, "__new__", new)
    assert completed and all(any(e is kept for kept in ec._echelons.values()) for e in completed)
    assert built == []
    assert [p for p, ok in report.weak_flags.items() if not ok] == [1, 2, 3]
    assert report.standard_flag is False
    # degrees -1..n-1 with a nonzero row are eliminated for rank, the rest
    # only by standard, which stops at its failing bidegree
    rows = {k: [r if r else None for r in ec.total_d_rows(k)] for k in range(-1, 2 * cx.n)}
    passes = {k: sum(seq == want for _, seq in fed.values()) for k, want in rows.items() if any(want)}
    assert [passes[k] for k in range(-1, cx.n) if k in passes] == [1] * (cx.n - 1), passes
    assert max(passes.values()) == 1, passes


class _ScanTrace:
    """Records each ``EvaluatedComplex.mild_scan`` call, in order: its op
    and SOURCE bidegree (``at``), the deldelbar kernel vectors yielded to
    it (``xs``), the vectors it tests against im deldelbar
    (``Echelon.contains``, ``tested``), the RREF columns it
    back-substitutes (``reads``), its stars, the combinations of rows it
    forms (``linalg.row_combination``), the images it forms from columns
    (``linalg.columns_vec``), the matrices it transposes
    (``linalg.columns``, ``tables``) and what it returns.  ``answer``, if
    given, replaces every membership answer inside a scan.  ``built``
    counts the kernel vectors yielded anywhere, and ``products`` every
    product with a vector by rows or columns."""

    def __init__(self, monkeypatch, answer=None):
        self.scans, self.open, self.built, self.products = [], [], 0, 0
        scan, kernel_vectors, star = EvaluatedComplex.mild_scan, EvaluatedComplex.kernel_vectors, EvaluatedComplex.star
        contains, rref_column = linalg.Echelon.contains, linalg.Echelon._rref_column
        combination, columns_vec, columns = linalg.row_combination, linalg.columns_vec, linalg.columns

        def scanning(ec, op, p, q):
            record = {"at": (op, p, q), "xs": [], "tested": [], "reads": [], "stars": 0,
                      "combinations": [], "column_images": [], "tables": []}
            self.scans.append(record)
            self.open.append(record)
            try:
                record["result"] = scan(ec, op, p, q)
            finally:
                self.open.pop()
            return record["result"]

        def yielding(ec, op, p, q, **kw):
            for x in kernel_vectors(ec, op, p, q, **kw):
                self.built += 1
                if self.open:
                    self.open[-1]["xs"].append(x)
                yield x

        def testing(e, w):
            if not self.open:
                return contains(e, w)
            self.open[-1]["tested"].append(w)
            return contains(e, w) if answer is None else answer(w)

        def recorded(name, f):
            def run(*args):
                out = f(*args)
                if name in ("combinations", "column_images"):
                    self.products += 1
                if self.open:
                    record = self.open[-1]
                    if name == "stars":
                        record[name] += 1
                    else:
                        record[name].append(args[0] if name == "tables" else out)
                return out
            return run

        monkeypatch.setattr(EvaluatedComplex, "mild_scan", scanning)
        monkeypatch.setattr(EvaluatedComplex, "kernel_vectors", yielding)
        monkeypatch.setattr(EvaluatedComplex, "star", recorded("stars", star))
        monkeypatch.setattr(linalg.Echelon, "contains", testing)
        monkeypatch.setattr(linalg.Echelon, "_rref_column", lambda e, f: self.open and self.open[-1]["reads"].append(f)
                            or rref_column(e, f))
        monkeypatch.setattr(linalg, "row_combination", recorded("combinations", combination))
        monkeypatch.setattr(linalg, "columns_vec", recorded("column_images", columns_vec))
        monkeypatch.setattr(linalg, "columns", recorded("tables", columns))


def _star_side(ec, op, p, q, w):
    """For a vector w that a scan of op from SOURCE (p,q) tests on the star
    side, the typed entries, keys ascending, of star(w) and -star(w) at
    op's target: op x is one of them."""
    sp, sq = ec._dual(op, p, q)[1:3]
    v = ec.star(w, sp, sq)
    return [_typed_items({k: s * v[k] for k in sorted(v)}) for s in (QI_ONE, -QI_ONE)]


def test_mild_witness_builds_only_the_kernel_vectors_it_tests(monkeypatch, reference_complexes):
    """On Iwasawa^2 x C after full_report, lemma_report keeps no deldelbar
    kernel (the list route kept 15,519 vectors).  Each failing mild or
    dual mild scan (``EvaluatedComplex.mild_scan``) reads exactly a prefix
    of the deldelbar kernel, the prefix ending at its witness: it
    back-substitutes (``Echelon._rref_column``) exactly the free columns
    of that prefix that a stored row meets, in order, the others being
    unit vectors, and there are both kinds.  It is yielded exactly the
    vectors of that prefix whose support meets a nonzero column of del or
    delbar: a vector that misses them all is passed over by the support
    test, never yielded or imaged, and there are some.  It tests, in
    order, one vector for each built vector whose image the full-table
    oracle finds nonzero, and on the star side: that vector's star is
    +- the image, and for a unit vector it is a row of the star dual
    itself, not a copy.  It returns the last image, its witness.  Weak's
    and standard's witnesses take no kernel.  Its JSON equals that of a
    complex whose deldelbar kernels were all built as lists first."""
    cx = next(cx for label, cx, _ in reference_complexes if label == "iwasawa2_c")
    ec = EvaluatedComplex(cx, ())
    full_report(ec)
    trace = _ScanTrace(monkeypatch)
    report = lemma_report(ec)
    monkeypatch.undo()
    oracle, kinds, never_built = EvaluatedComplex(cx, ()), Counter(), 0
    for scan in trace.scans:
        op, sp, sq = scan["at"]
        xs, tested, reads = scan["xs"], scan["tested"], scan["reads"]
        kinds[op] += 1
        cols = linalg.columns(oracle.rows(op, sp, sq))
        full = list(oracle.kernel_vectors("ddbar", sp, sq))
        meeting = [x for x in full if not cols.keys().isdisjoint(x)]
        assert xs == meeting[:len(xs)], scan["at"]
        images = [linalg.columns_vec(cols, x) for x in xs]
        nonzero = [(x, v) for x, v in zip(xs, images) if v]
        assert images[-1] and len(tested) == len(nonzero), scan["at"]
        dual_rows = ec._dual(op, sp, sq)[0]
        for (x, v), w in zip(nonzero, tested):
            assert _typed_items(v) in _star_side(oracle, op, sp, sq, w), scan["at"]
            assert len(x) > 1 or any(w is r for r in dual_rows), scan["at"]
        assert _typed_items(scan["result"]) == _typed_items(images[-1]), scan["at"]
        # the prefix of the full kernel that ends at the witness's vector
        prefix = full[:full.index(xs[-1]) + 1]
        e = oracle._row_echelon("ddbar", sp, sq)
        met = {k for lead, row in e.pivots.items() for k in row if k != lead}
        frees = [next(iter(x)) for x in prefix]
        assert reads == [f for f in frees if f in met], scan["at"]
        assert all(x == {f: QI_ONE} for f, x in zip(frees, prefix) if f not in met), scan["at"]
        kinds["read"] += len(reads)
        kinds["unit"] += len(prefix) - len(reads)
        never_built += len(prefix) - len(xs)
    assert trace.built == sum(len(scan["xs"]) for scan in trace.scans)
    assert kinds["del"] and kinds["delbar"] and never_built and kinds["read"] and kinds["unit"]
    assert len(trace.scans) == sum(key.startswith(("mild:", "dual_mild:")) for key in report.witnesses)
    first = EvaluatedComplex(cx, ())
    full_report(first)
    for p in range(cx.n + 1):
        for q in range(cx.n + 1):
            first.kernel("ddbar", p, q)
    assert lemma_report(first).to_json_dict() == report.to_json_dict()


def test_nonzero_images_and_walkers_equal_the_full_table_oracles(monkeypatch, reference_complexes):
    """On the 13 reference complexes: at every bidegree where mild or dual
    mild fails, the scan (``EvaluatedComplex.mild_scan``) tests, in order,
    one vector for each of the first nonzero images of the full-table
    oracle (every deldelbar kernel vector through the column table of
    del or delbar), whose star is +- that image, with the same entries
    and types, and its witness is the oracle's; no column table of del
    or delbar is built for it.  weak's tracked route (``_weak_tracked``), run at
    every p, eliminates forward one list of vectors, U: the nonzero
    columns of the stacked rows at (p,p), by ascending index.
    ``columns``,
    ``total_d_rows`` and the deldelbar product (``linalg.mat_mul``),
    which skip empty rows, equal the walkers over every row."""
    fed = []
    forward_echelon = linalg.forward_echelon

    def recording(vectors):
        fed.append(list(vectors))
        return forward_echelon(fed[-1])

    monkeypatch.setattr(linalg, "forward_echelon", recording)

    def typed(vectors):
        return [_typed_items(v) for v in vectors]

    def typed_columns(cols):
        return [(j, _typed_items(c)) for j, c in cols.items()]

    failing = 0
    trace = _ScanTrace(monkeypatch)
    for label, cx, point in reference_complexes:
        ec, oc = EvaluatedComplex(cx, point), EvaluatedComplex(cx, point)
        n = cx.n
        for p in range(n + 1):
            for q in range(n + 1):
                for op, kind in (("del", "mild"), ("delbar", "dual_mild")):
                    if lemmata._mild_holds(ec, op, p, q):
                        continue
                    failing += 1
                    sp, sq = (p - 1, q) if op == "del" else (p, q - 1)
                    old = list(kernel_images_by_columns(oc, op, p, q))
                    got = ec.vec_to_form(ec.mild_scan(op, sp, sq), p, q)
                    scan = trace.scans[-1]
                    tested, nonzero = scan["tested"], [v for v in old if v]
                    assert tested and len(tested) <= len(nonzero) and not scan["tables"], (label, op, p, q)
                    assert all(_typed_items(v) in _star_side(ec, op, sp, sq, w) for v, w in zip(nonzero, tested)), (label, op, p, q)
                    want = lemmata._witness(oc, kind, p, q, iter(old))
                    assert _typed_form(got) == _typed_form(want), (label, op, p, q)
        for p in range(n):
            fed.clear()
            lemmata._weak_tracked(ec, p)
            want = sorted(columns_of_every_row(oc.rows("stacked", p, p)).items())
            assert [typed(vectors) for vectors in fed] == [typed(c for _, c in want)], (label, p)
        for p in range(n + 1):
            for q in range(n + 1):
                for op in ("del", "delbar", "ddbar", "stacked"):
                    want = columns_of_every_row(ec.rows(op, p, q))
                    assert typed_columns(linalg.columns(ec.rows(op, p, q))) == typed_columns(want), (label, op, p, q)
                product = mat_mul_of_every_row(ec.rows("del", p, q + 1), ec.rows("delbar", p, q))
                assert typed(ec.rows("ddbar", p, q)) == typed(product), (label, p, q)
        for k in range(-1, 2 * n + 1):
            assert typed(ec.total_d_rows(k)) == typed(total_d_rows_of_every_row(ec, k)), (label, k)
            want = columns_of_every_row(ec.total_d_rows(k))
            assert typed_columns(linalg.columns(ec.total_d_rows(k))) == typed_columns(want), (label, k)
    assert failing


def test_kernel_images_skip_only_the_vectors_that_miss_every_nonzero_column(monkeypatch, iwasawa3):
    """On Iwasawa, delbar from (1,1) has nonzero columns 2, 5 and 8 only.
    With a deldelbar echelon at (1,1) whose kernel vectors meet them at
    their free column, at a pivot only, or not at all, the scan
    (``EvaluatedComplex.mild_scan``), every membership answered inside so
    that it reads to the end, back-substitutes (``Echelon._rref_column``)
    exactly the free columns that a stored row meets, 3, 4 and 6 (0, 7
    and 8 give unit vectors), is yielded exactly the kernel vectors that
    meet them, whichever key meets, and tests one vector for each of the
    nonzero images of those, as the full-table oracle forms them, whose
    star is +- that image; the kernel vectors that miss them are passed
    over by the support test, never yielded or imaged."""
    ec = EvaluatedComplex(build_complex(iwasawa3.se), ())
    cols = linalg.columns(ec.rows("delbar", 1, 1))
    assert sorted(cols) == [2, 5, 8] and ec.dim(1, 1) == 9
    one = QI_ONE
    rref = {1: {1: one, 4: one}, 2: {2: one, 3: -one}, 5: {5: one, 6: one}}
    monkeypatch.setitem(ec._echelons, ("ddbar", 1, 1), linalg.Echelon(rref))
    full = list(ec.kernel_vectors("ddbar", 1, 1))
    assert [sorted(x) for x in full] == [[0], [2, 3], [1, 4], [5, 6], [7], [8]]
    trace = _ScanTrace(monkeypatch, answer=lambda w: True)
    assert ec.mild_scan("delbar", 1, 1) is None
    scan, = trace.scans
    assert scan["reads"] == [3, 4, 6]
    assert scan["xs"] == [full[1], full[3], full[5]]
    want = [v for v in (linalg.columns_vec(cols, x) for x in full) if v]
    assert len(want) == len(scan["tested"]) == 3
    assert all(_typed_items(v) in _star_side(ec, "delbar", 1, 1, w) for v, w in zip(want, scan["tested"]))


class _FirstStored(dict):
    """A pivot map that records the first row stored at each lead."""

    def __init__(self, pivots):
        super().__init__(pivots)
        self.first = dict(pivots)

    def __setitem__(self, lead, row):
        self.first.setdefault(lead, row)
        super().__setitem__(lead, row)


def test_kept_echelons_hold_the_rows_forward_elimination_stored(monkeypatch, reference_complexes):
    """On H(5,C) and Iwasawa^2 x C, after full_report and then
    lemma_report, every stored row of every kept echelon (the row
    echelons, the image echelons and the tracked preimage echelons) is
    the very object that forward elimination first stored at its lead
    (identity, not equality): no kernel read copies or rewrites a row
    into an RREF.  Kernels were read: each complex has failing mild
    verdicts, and some kept row echelon has a column index."""
    init = linalg.Echelon.__init__
    monkeypatch.setattr(linalg.Echelon, "__init__", lambda self, pivots: init(self, _FirstStored(pivots)))
    iwasawa2_c = next(cx for label, cx, _ in reference_complexes if label == "iwasawa2_c")
    for label, cx in (("H(5,C)", build_complex(heisenberg_c(5))), ("iwasawa2_c", iwasawa2_c)):
        ec = EvaluatedComplex(cx, ())
        full_report(ec)
        report = lemma_report(ec)
        assert not all(report.mild_flags.values()), label
        assert any(e._index is not None for e in ec._echelons.values()), label
        kept = list(ec._echelons.values()) + [e for _, e in ec._images.values()]
        kept += [e for _, e in ec._preimages.values()]
        for e in kept:
            assert type(e.pivots) is _FirstStored and e.pivots.first.keys() == e.pivots.keys(), label
            assert all(e.pivots.first[p] is row for p, row in e.pivots.items()), label


class _CountedRow(dict):
    """A row that counts each entry read from it, by key or by a walk."""

    reads = 0

    def _walked(self):
        _CountedRow.reads += len(self)

    def __iter__(self):
        self._walked()
        return super().__iter__()

    def items(self):
        self._walked()
        return super().items()

    def keys(self):
        self._walked()
        return super().keys()

    def values(self):
        self._walked()
        return super().values()

    def __contains__(self, k):
        _CountedRow.reads += 1
        return super().__contains__(k)

    def __getitem__(self, k):
        _CountedRow.reads += 1
        return super().__getitem__(k)

    def get(self, k, default=None):
        _CountedRow.reads += 1
        return super().get(k, default)


def test_kernel_images_read_each_entry_of_op_once(monkeypatch):
    """The work gate, by count, on H(7,C): at every bidegree, for del and
    delbar, the witness scan (``EvaluatedComplex.mild_scan``), every
    membership answered inside so that it reads to the end, reads at most
    nnz(op) plus the entries of the kernel vectors it scans from the rows
    of the complex: a unit vector's image is a row of op's star dual,
    read by reference, and any other's one combination of the dual rows
    its star names.  A scan that walks the rows again for each vector,
    or for each column a vector touches, reads far more."""
    ec = EvaluatedComplex(build_complex(heisenberg_c(7)), ())
    for a in range(ec.n + 1):
        for b in range(ec.n + 1):
            ec._row_echelon("ddbar", a, b)  # each echelon a scan tests in, built before rows are counted
    rows = ec.rows
    trace = _ScanTrace(monkeypatch, answer=lambda w: True)
    scans = 0
    for p in range(ec.n + 1):
        for q in range(ec.n + 1):
            for op in ("del", "delbar"):
                sp, sq = (p - 1, q) if op == "del" else (p, q - 1)
                if min(sp, sq) < 0:
                    continue
                kernel = list(ec.kernel_vectors("ddbar", sp, sq))
                nnz = sum(len(r) for r in rows(op, sp, sq))
                ec.rows = lambda o, a, b: [_CountedRow(r) for r in rows(o, a, b)]
                _CountedRow.reads = 0
                assert ec.mild_scan(op, sp, sq) is None
                del ec.rows
                assert _CountedRow.reads <= nnz + sum(len(x) for x in kernel), (op, p, q)
                scans += bool(trace.scans[-1]["tested"])
    assert scans == 80


def test_lemma_report_forms_no_zero_image(monkeypatch, reference_complexes):
    """The work gate on Iwasawa^2 x C after full_report: lemma_report's 80
    mild and dual mild witness scans (``EvaluatedComplex.mild_scan``) are
    yielded 84 deldelbar kernel vectors, each with a key on a nonzero
    column of del or delbar, and form no image from any other.  The
    complex is unimodular, so the scans stay on the star side: no scan
    transposes a matrix (``linalg.columns``), forms an image from columns
    (``linalg.columns_vec``) or stars a candidate back.  The 80 unit
    vectors among the 84 are read as rows of the star dual, by
    reference, with no star or product, and each is tested as it is: it
    is the witness of its scan.  The other 4 are one star and one
    combination of the dual rows each (``linalg.row_combination``), all
    of them 0, each from a vector with two entries on nonzero columns
    whose images cancel, which no support test sees; so no scan tests a
    0.  Each witness takes two more stars, one for the sign of its unit
    vector's row and one back: 4 combinations and 164 stars in all.
    weak holds by rank at every p,
    and its tracked route (``_weak_tracked``), run after the report at
    each p, forms no product with a vector.  The full-table route
    (``oracles.mild_scan_by_columns``) put in place of the scan forms 942
    images from columns, 862 of them 0, and transposes del or delbar once
    per scan, so the gate sees what it counts."""
    cx = next(cx for label, cx, _ in reference_complexes if label == "iwasawa2_c")
    counts = []
    for route in ("star", "full table"):
        if route == "full table":
            monkeypatch.setattr(EvaluatedComplex, "mild_scan", mild_scan_by_columns)
        ec = EvaluatedComplex(cx, ())
        full_report(ec)
        assert ec.unimodular
        trace = _ScanTrace(monkeypatch)
        report = lemma_report(ec)
        assert any(key.startswith(("mild:", "dual_mild:")) for key in report.witnesses)
        assert all(report.weak_flags.values())
        products = trace.products
        assert all(lemmata._weak_tracked(ec, p) == (True, None) for p in report.weak_flags)
        assert trace.products == products, route
        monkeypatch.undo()
        scans, oracle = trace.scans, EvaluatedComplex(cx, ())
        sources = [scan["at"] for scan in scans]
        tables = [key for scan in scans for rows in scan["tables"] for key, stored in ec._rows.items()
                  if stored is rows and key[0] != "ddbar"]
        cols = {at: linalg.columns(oracle.rows(*at)) for at in set(sources)}
        xs = [(scan["at"], x) for scan in scans for x in scan["xs"]]
        if route == "full table":
            images = [v for scan in scans for v in scan["column_images"]]
            counts.append((len(scans), len(xs), len(images), sum(not v for v in images)))
            assert tables == sources
            continue
        assert all(not cols[at].keys().isdisjoint(x) for at, x in xs)
        assert tables == [] and not any(scan["column_images"] for scan in scans)
        units = [x for _, x in xs if len(x) == 1]
        for scan in scans:
            op, sp, sq = scan["at"]
            rows, combined = ec._dual(op, sp, sq)[0], scan["combinations"]
            others = [x for x in scan["xs"] if len(x) > 1]
            # one star and one combination per vector that is not a unit;
            # the unit witness is starred for its sign and starred back
            assert len(combined) == len(others) and scan["stars"] == len(others) + 2, scan["at"]
            assert all(not w for w in combined), scan["at"]
            assert all(len(cols[scan["at"]].keys() & x.keys()) == 2 for x in others), scan["at"]
            tested = [x for x in scan["xs"] if len(x) == 1]
            assert len(scan["tested"]) == len(tested) == 1, scan["at"]
            assert any(scan["tested"][0] is r for r in rows), scan["at"]
        counts.append((len(scans), len(xs), len(units), sum(len(scan["combinations"]) for scan in scans),
                       sum(not w for scan in scans for w in scan["combinations"]), sum(scan["stars"] for scan in scans)))
    assert counts == [(80, 84, 80, 4, 4, 164), (80, 942, 942, 862)]


def test_mild_scan_equals_the_route_it_replaced(monkeypatch, reference_complexes, bcvary10):
    """On the 16 complexes of ``tests/data/report_digests.json`` (the
    reference complexes and H(3,C), H(5,C), H(7,C)), the bcvary10 fibers
    at seeds 4601-4620 and solvable3: at every bidegree where mild or
    dual mild fails by rank, ``EvaluatedComplex.mild_scan`` returns the
    witness of the route it replaced (``oracles.mild_scan_through_images``:
    each image formed through the star and starred back, then starred
    again for its test against im deldelbar), entries, key order and
    types alike, after being yielded the same prefix of the deldelbar
    kernel; each complex runs on an EvaluatedComplex of its own.  On the
    unimodular complexes a scan stars only the candidates that are not
    unit vectors, each with one combination of rows, then its witness
    back, and a unit witness once more for its sign, and transposes
    nothing;
    solvable3 keeps the transpose route: no star, and one transpose of
    del or delbar per scan."""
    cases = list(reference_complexes)
    cases += [(f"H({n},C)", build_complex(heisenberg_c(n)), ()) for n in (3, 5, 7)]
    cases += [(f"fiber {seed}", build_complex(deform_complex(bcvary10.se, bcvary10.beltrami, point=fiber_point(seed))), ())
              for seed in range(4601, 4621)]
    cases.append(("solvable3", build_complex(nio.obj_to_se(SOLVABLE)), ()))
    trace, failing = _ScanTrace(monkeypatch), Counter()
    for label, cx, point in cases:
        ec, oc = EvaluatedComplex(cx, point), EvaluatedComplex(cx, point)
        for p in range(cx.n + 1):
            for q in range(cx.n + 1):
                for op in ("del", "delbar"):
                    if lemmata._mild_holds(ec, op, p, q):
                        continue
                    sp, sq = (p - 1, q) if op == "del" else (p, q - 1)
                    got = ec.mild_scan(op, sp, sq)
                    want, read = mild_scan_through_images(oc, op, sp, sq)
                    scan, at = trace.scans[-1], (label, op, p, q)
                    assert want is not None and _typed_items(got) == _typed_items(want), at
                    assert scan["xs"] == read, at
                    if ec.unimodular:
                        # a star and a combination per candidate that is not a unit
                        # vector, and the witness's star back, with one more
                        # star for the sign of a unit witness's row
                        stars = sum(len(x) > 1 for x in read) + 1 + (len(read[-1]) == 1)
                        assert scan["stars"] == stars and len(scan["combinations"]) == stars - 1 - (len(read[-1]) == 1), at
                        assert not scan["tables"], at
                    else:
                        # the transposes of op and, for its image echelon, of deldelbar into (p,q)
                        tables = [("op" if r is ec.rows(op, sp, sq) else "ddbar" if r is ec.rows("ddbar", p - 1, q - 1)
                                   else "other") for r in scan["tables"]]
                        assert scan["stars"] == 0 and tables.count("op") == 1 and "other" not in tables, at
                    failing[label.split(" ")[0] if label.startswith(("fiber", "solvable3")) else "digests"] += 1
    assert failing["fiber"] and failing["digests"] and failing["solvable3"] == 8, failing


def test_a_complex_that_is_not_unimodular_keeps_the_transpose_route(monkeypatch):
    """solvable3 is not unimodular, so del* = -*delbar* fails and no star
    is read: lemma_report calls no star, each mild or dual mild witness
    scan (``EvaluatedComplex.mild_scan``) transposes its del or delbar
    once (``column_reads``) and tests its images against the image
    echelon of deldelbar, as weak's and standard's witnesses
    (``lemmata._witness``) do, and every witness verifies
    (``verify_witness``).  ``test_rank_verdicts_equal_the_vector_route``
    holds its witnesses equal to the vector-route oracles'."""
    ec = EvaluatedComplex(build_complex(nio.obj_to_se(SOLVABLE)), ())
    witness, image = lemmata._witness, EvaluatedComplex._image
    stars, inside, scans, asked = [], [], [], []

    def framed(ec, kind, p, q, vectors):
        scans.append((p, q))
        inside.append(kind)
        try:
            return witness(ec, kind, p, q, vectors)
        finally:
            inside.pop()

    trace = _ScanTrace(monkeypatch)

    def imaging(self, op, p, q):
        if inside or trace.open:
            asked.append((op, p, q))
        return image(self, op, p, q)

    monkeypatch.setattr(EvaluatedComplex, "star", lambda *a: stars.append(a))
    monkeypatch.setattr(lemmata, "_witness", framed)
    monkeypatch.setattr(EvaluatedComplex, "_image", imaging)
    report = lemma_report(ec)
    monkeypatch.undo()
    assert not ec.unimodular and stars == []
    sources = [scan["at"] for scan in trace.scans]
    tables = [[key for rows in scan["tables"] for key, stored in ec._rows.items() if stored is rows and key[0] != "ddbar"]
              for scan in trace.scans]
    assert len(sources) == 8 and tables == [[at] for at in sources]
    targets = [(p + 1, q) if op == "del" else (p, q + 1) for op, p, q in sources]
    assert scans and {("ddbar", p, q) for p, q in targets + scans} <= set(asked)
    for key, w in report.witnesses.items():
        assert all(verify_witness(ec, *_witness_bidegree(key), w).values()), key


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
    each cached image by exactly one.  Inside weak(p), U, the image of d
    on the (p,p)-forms, is eliminated from empty once where the rank
    identity fails (the tracked p, where weak fails) and never where it
    decides; at each tracked p, no structure starts from a copy of U's
    rows, and the del image basis into (p,p+1) that the complex caches,
    in the (p,p+1) half, and its conjugates (read from ``Form.conj``) are
    tracked into U's echelon itself, each vector once, and nothing else
    is fed to it.

    A structure is told by the vectors fed to it from empty; one that
    starts from a copy of a cached echelon's rows (``image_sum``, for a
    sum of images) eliminates its vectors modulo that image, not an image
    of its own.  Matrices whose columns are, as a multiset, another's
    columns (a conjugate pair at a real point) share their count, and one
    whose columns are its rows cannot be told from its row echelon, so
    is skipped."""
    # id -> (structure, vectors fed, ids of the rows it started from,
    # the weak frame it was made in, the vectors of its first feed)
    fed, weak_frames = {}, []

    def key(v):
        return frozenset(v.items())

    def feeding(method, vectors_of):
        def run(self, *args):
            vectors = Counter(key(v) for v in vectors_of(args) if v)
            if id(self) not in fed:  # the object is kept, so its id is not reused
                frame = weak_frames[-1] if weak_frames else None
                fed[id(self)] = (self, Counter(), [id(r) for r in self.pivots.values()], frame, vectors)
            fed[id(self)][1].update(vectors)
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
    real_weak = lemmata.weak

    def framed_weak(ec, p):
        weak_frames.append((ec, p))
        try:
            return real_weak(ec, p)
        finally:
            weak_frames.pop()

    monkeypatch.setattr(lemmata, "weak", framed_weak)
    shift = {"del": (1, 0), "delbar": (0, 1), "ddbar": (1, 1)}
    failing_weak = decided = 0
    for seed in range(9521, 9527):
        cx = build_complex(deform_complex(bcvary10.se, bcvary10.beltrami, point=fiber_point(seed)))
        ec = EvaluatedComplex(cx, ())
        fed.clear()
        full_report(ec)
        report = lemma_report(ec)
        for name, wit in report.witnesses.items():
            kind, p, q = _witness_bidegree(name)
            assert all(verify_witness(ec, kind, p, q, wit).values()), (seed, name)
        # each image by TARGET, as EvaluatedComplex._image keys it
        sources = {(op, p, q): ec.rows(op, p - dp, q - dq)
                   for op, (dp, dq) in shift.items()
                   for p in range(dp, cx.n + 1) for q in range(dq, cx.n + 1)}
        sources.update({("total", k, 0): ec.total_d_rows(k - 1) for k in range(1, 2 * cx.n + 1)})
        columns = {}
        for target, rows in sources.items():
            cols = Counter(key(v) for v in linalg.columns(rows).values())
            if cols and cols != Counter(key(r) for r in rows if r):
                columns[target] = frozenset(cols.items())
        sharing = Counter(columns.values())
        eliminated = Counter(frozenset(counts.items()) for _, counts, start, _, _ in fed.values() if not start)
        twice = {t for t, cols in columns.items() if eliminated[cols] > sharing[cols]}
        assert not twice, (seed, sorted(twice))
        cached = [k for k, (basis, _) in ec._images.items() if basis and k in columns]
        assert cached and all(eliminated[columns[k]] >= 1 for k in cached), seed
        # verify_witness reads the cache and leaves it as it was
        assert all(e.rank == len(basis) for basis, e in ec._images.values()), seed
        weak_p = [p for p, ok in report.weak_flags.items() if not ok]
        failing_weak += len(weak_p)
        for p in report.weak_flags:
            u_vectors = Counter(key(v) for v in columns_of_every_row(ec.rows("stacked", p, p)).values())
            tracked = not lemmata._images_meet_in_ddbar(ec, p)
            assert u_vectors or not tracked, (seed, p)
            made = [(e, counts, start, first) for e, counts, start, frame, first in fed.values()
                    if frame is not None and frame[0] is ec and frame[1] == p]
            us = [e for e, _, start, first in made if not start and u_vectors and first == u_vectors]
            assert len(us) == tracked, (seed, p)
            decided += not tracked
            if tracked:
                half, image = ec.dim(p + 1, p), ec.image_vectors("del", p, p + 1)
                span = [{half + k: x for k, x in e.items()} for e in image]
                span += [ec.form_to_vec(ec.vec_to_form(e, p, p + 1).conj(), p + 1, p) for e in image]
                rows = {id(r) for r in us[0].pivots.values()}
                assert not [start for _, _, start, _ in made if rows.intersection(start)], (seed, p)
                assert fed[id(us[0])][1] == u_vectors + Counter(key(v) for v in span), (seed, p)
        assert sorted(weak_p) == [p for p in report.weak_flags if not lemmata._images_meet_in_ddbar(ec, p)], seed
    assert failing_weak > 0 and decided > 0


_DIGESTS = Path(__file__).parent / "data" / "report_digests.json"


def report_digests(reference_complexes):
    """{label: {report: sha256}} of the ``full_report`` and
    ``lemma_report`` JSON (as ``--json`` prints it) of the reference
    complexes and of H(3,C), H(5,C) and H(7,C), the two reports run in
    that order on one EvaluatedComplex."""
    cases = list(reference_complexes)
    cases += [(f"H({n},C)", build_complex(heisenberg_c(n)), ()) for n in (3, 5, 7)]
    out = {}
    for label, cx, point in cases:
        ec = EvaluatedComplex(cx, point)
        reports = {"full_report": full_report(ec), "lemma_report": lemma_report(ec)}
        out[label] = {name: hashlib.sha256(json.dumps(r.to_json_dict(), indent=2).encode()).hexdigest()
                      for name, r in reports.items()}
    return out


def test_reports_match_the_recorded_digests(reference_complexes):
    """The exact answers are pinned: both reports on the 13 reference
    complexes and H(3,C), H(5,C), H(7,C) hash to the digests recorded in
    ``tests/data/report_digests.json``, so a refactor that changes a
    table, a verdict, a witness or its serialization fails here.  To
    record the file again, dump ``report_digests`` as JSON (indent 2,
    sorted keys) from a tree whose answers are trusted."""
    want = json.loads(_DIGESTS.read_text())
    assert len(want) == 16
    assert report_digests(reference_complexes) == want


def _own_rank_reads(p, q, weak_tracked):
    """The rank keys that the verdicts at (p,q) alone read: mild's, dual
    mild's and strong's identities, whose ranks weak's identity at
    q = p+1 reads too, and U's stacked rank where weak's tracked route
    runs; a key outside 0..n is never read."""
    reads = {("exact_sum", p, q)}
    if p:
        reads |= {("del", p - 1, q), ("ddbar", p - 1, q)}
    if q:
        reads |= {("delbar", p, q - 1), ("ddbar", p, q - 1)}
    if p and q:
        reads.add(("ddbar", p - 1, q - 1))
    if weak_tracked:
        reads.add(("stacked", p, p))
    return reads


def test_a_local_question_reads_only_its_own_ranks(monkeypatch, iwasawa_c, bcvary10):
    """lemma_report asked about one bidegree, the call that ``lemmata
    --bidegree P,Q`` makes, reads no rank table: on Iwasawa x C, a
    bcvary10 fiber (where weak fails at p = 1..3) and solvable3, which is
    not unimodular, each bidegree on a new complex, the rank keys it
    reads (``EvaluatedComplex.rank``, and through it ``image_rank``) are
    exactly those of its own verdicts (``_own_rank_reads``)."""
    reads = []
    rank = EvaluatedComplex.rank
    monkeypatch.setattr(EvaluatedComplex, "rank", lambda self, *key: reads.append(key) or rank(self, *key))
    fiber = build_complex(deform_complex(bcvary10.se, bcvary10.beltrami, point=fiber_point(4601)))
    cases = [("iwasawa_c", iwasawa_c), ("fiber 4601", fiber), ("solvable3", build_complex(nio.obj_to_se(SOLVABLE)))]
    tracked = 0
    for label, cx in cases:
        n = cx.n
        for p in range(n + 1):
            for q in range(n + 1):
                ec = EvaluatedComplex(cx, ())
                reads.clear()
                report = lemma_report(ec, [(p, q)])
                got = set(reads)
                weak_tracked = q == p + 1 and not lemmata._images_meet_in_ddbar(ec, p)
                tracked += weak_tracked
                assert got == _own_rank_reads(p, q, weak_tracked), (label, p, q)
                assert report.standard_flag is None and list(report.mild_flags) == [(p, q)], (label, p, q)
    assert tracked == 3


def test_a_shared_witness_is_converted_once(monkeypatch, bcvary10):
    """A failing strong's witness is the very form of mild's or dual
    mild's, so on a bcvary10 fiber ``LemmaReport.to_json_dict`` converts
    each distinct witness once (``form_to_obj``), and prints the JSON of
    converting every witness on its own."""
    ec = EvaluatedComplex(build_complex(deform_complex(bcvary10.se, bcvary10.beltrami, point=fiber_point(4601))), ())
    report = lemma_report(ec)
    distinct = {id(w) for w in report.witnesses.values()}
    assert any(k.startswith("strong:") for k in report.witnesses) and len(distinct) < len(report.witnesses)
    convert, converted = lemmata.form_to_obj, []
    monkeypatch.setattr(lemmata, "form_to_obj", lambda w: converted.append(id(w)) or convert(w))
    obj = report.to_json_dict()
    assert sorted(converted) == sorted(distinct)
    alone = {**obj, "witnesses": {k: convert(w) for k, w in report.witnesses.items()}}
    assert json.dumps(obj, indent=2) == json.dumps(alone, indent=2)
