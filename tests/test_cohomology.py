import contextlib
import gc
import importlib
import io
import json
import random
import weakref
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from math import comb

import pytest

from nilforms import cli
from nilforms import io as nio
from nilforms import algebra, leibniz, lemmata, linalg
from nilforms.algebra import Form, FormAlgebra, InvariantComplex, StructureEquations, build_complex
from nilforms.catalog import catalog_load
from nilforms.cohomology import (
    EMPTY_ROW,
    EvaluatedComplex,
    betti,
    cohomology,
    dclosed_dim,
    ddbar_image_dim,
    full_report,
    generic_points,
    zero_point,
)
from nilforms.deformation import deform_complex, evaluate_se, fiber_complex
from nilforms.errors import FlatnessError, IntegrabilityError, PreconditionFailed
from nilforms.extension import pkahler_extend, solve_conjugate_system, solve_extension
from nilforms.lemmata import lemma_report
from nilforms.scalars import DetRng, GaussianRational, ParamScalar, PolyRing, QI, QI_ONE, QI_ZERO

from conftest import SOLVABLE, heisenberg_c
from oracles import (
    FullScanEchelon,
    HodgeContext,
    apply_through_star,
    assemble_negating_each_term,
    bcvary_oracle,
    block_ranks_by_suffix_pass,
    canonical_solver_rows,
    completed_rref,
    ddbar_preimage_by_tracked_rref,
    delbar_rank_by_own_pass,
    evaluated_rows,
    fiber_point,
    form_basis,
    form_to_vec_by_index,
    full_scan_kernel,
    harmonic_green,
    harmonic_green_two_pass,
    iwasawa_oracle,
    mat_add,
    mat_mul_of_every_row,
    monomial_index,
    nonzero_gaussian,
    nullspace,
    norm2_vec,
    report_tables_by_cells,
    representatives,
    residues,
    torus_oracle,
    vec_add,
    vec_scale,
    vec_to_form_by_basis,
)


def test_engine_matches_oracle_iwasawa(ec_iwasawa):
    orc = iwasawa_oracle()
    for p in range(4):
        for q in range(4):
            assert cohomology(ec_iwasawa, "dolbeault", p, q) == orc.h_dolbeault(p, q), (p, q)
            assert cohomology(ec_iwasawa, "del", p, q) == orc.h_del(p, q), (p, q)
            assert cohomology(ec_iwasawa, "bott_chern", p, q) == orc.h_bc(p, q), (p, q)
            assert cohomology(ec_iwasawa, "aeppli", p, q) == orc.h_aeppli(p, q), (p, q)


def test_engine_matches_oracle_torus(ec_torus):
    orc = torus_oracle(3)
    for p in range(4):
        for q in range(4):
            assert cohomology(ec_torus, "bott_chern", p, q) == orc.h_bc(p, q)
            assert cohomology(ec_torus, "dolbeault", p, q) == orc.h_dolbeault(p, q)


def test_engine_matches_oracle_bcvary_corner(ec_bcvary0):
    orc = bcvary_oracle()
    for p, q in ((4, 4), (4, 5), (5, 4), (3, 3), (5, 5)):
        assert cohomology(ec_bcvary0, "bott_chern", p, q) == orc.h_bc(p, q), (p, q)


def test_trivial_and_derived_dimensions(ec_torus, ec_bcvary0):
    assert cohomology(ec_torus, "bott_chern", 0, 0) == 1
    assert cohomology(ec_bcvary0, "bott_chern", 0, 0) == 1
    # torus: all operators vanish, h_bc(1,1) = dim = 9
    assert cohomology(ec_torus, "bott_chern", 1, 1) == 9
    assert dclosed_dim(ec_torus, 1, 1) == 9
    assert ddbar_image_dim(ec_torus, 2, 2) == 0


def test_bcvary_paper_numbers(bcvary10, ec_bcvary0):
    assert cohomology(ec_bcvary0, "bott_chern", 4, 4) == 19
    assert dclosed_dim(ec_bcvary0, 4, 4) == 21
    assert ddbar_image_dim(ec_bcvary0, 4, 4) == 2
    for pt in generic_points(4):
        se_t = deform_complex(bcvary10.se, bcvary10.beltrami, point=pt)
        ect = EvaluatedComplex(build_complex(se_t), ())
        assert cohomology(ect, "bott_chern", 4, 4) == 17
        assert dclosed_dim(ect, 4, 4) == 21
        assert ddbar_image_dim(ect, 4, 4) == 4


def test_iwasawa_dclosed_11_matches_bruteforce(ec_iwasawa):
    # independent count: closed (1,1)-forms are spanned by eta^{i jbar}, i,j <= 2
    assert dclosed_dim(ec_iwasawa, 1, 1) == 4


def test_betti_numbers(ec_torus, ec_iwasawa):
    for k in range(7):
        assert betti(ec_torus, k) == comb(6, k)
    assert [betti(ec_iwasawa, k) for k in range(7)] == [1, 4, 8, 10, 8, 4, 1]


def test_full_report_symmetries(ec_iwasawa, ec_bcvary0):
    full_report(ec_iwasawa)  # raises on any symmetry violation
    rep = full_report(ec_bcvary0)
    assert rep.h_bc[4][4] == 19
    assert rep.to_json_dict()["betti"][0] == 1


def test_cohomology_dispatch_and_representatives(ec_iwasawa):
    """The rank route of ``cohomology`` equals the basis route of the
    representatives oracle at every bidegree of the four cohomologies."""
    reps = representatives(ec_iwasawa, "bott_chern", 1, 1)
    assert cohomology(ec_iwasawa, "bott_chern", 1, 1) == 4 and len(reps) == 4
    assert linalg.forward_echelon(reps).rank == 4
    # every basis route extends a copy of the cached image echelons, so
    # each cached echelon still spans exactly its image basis
    for which in ("dolbeault", "del", "bott_chern", "aeppli"):
        for p in range(4):
            for q in range(4):
                assert len(representatives(ec_iwasawa, which, p, q)) == cohomology(ec_iwasawa, which, p, q)
    assert ec_iwasawa._images and all(e.rank == len(basis) for basis, e in ec_iwasawa._images.values())


def test_generic_points_distinct_and_sized():
    p1, p2 = generic_points(4)
    assert p1 != p2 and len(p1) == len(p2) == 4
    assert [str(z) for z in p1] == ["3/7", "5/11", "2/13", "7/17"]


# -- Hodge machinery -------------------------------------------------------


def test_torus_hodge_trivial(ec_torus):
    hc = HodgeContext(ec_torus)
    dim = ec_torus.dim(1, 1)
    assert all(not r for r in hc.lap_bc_rows(1, 1))
    assert hc.harmonic_bc_rows(1, 1) == linalg.identity_rows(dim)
    assert all(not r for r in hc.green_bc_rows(1, 1))


def test_iwasawa_harmonic_kernel_vs_quotient(ec_iwasawa):
    hc = HodgeContext(ec_iwasawa)
    for (p, q) in ((2, 1), (1, 1), (2, 2)):
        lap = hc.lap_bc_rows(p, q)
        kernel = nullspace(lap, ec_iwasawa.dim(p, q))
        assert len(kernel) == cohomology(ec_iwasawa, "bott_chern", p, q), (p, q)
        lap_a = hc.lap_a_rows(p, q)
        kernel_a = nullspace(lap_a, ec_iwasawa.dim(p, q))
        assert len(kernel_a) == cohomology(ec_iwasawa, "aeppli", p, q), (p, q)


def _check_green_identities(hc, p, q, which):
    ec = hc.ec
    dim = ec.dim(p, q)
    if which == "bc":
        lap, h, g = hc.lap_bc_rows(p, q), hc.harmonic_bc_rows(p, q), hc.green_bc_rows(p, q)
    else:
        lap, h, g = hc.lap_a_rows(p, q), hc.harmonic_a_rows(p, q), hc.green_a_rows(p, q)
    eye = linalg.identity_rows(dim)
    minus_one = GaussianRational(-1)
    # 1 = H + box G,   G box = box G,   H^2 = H,   HG = GH = 0
    assert mat_add(h, linalg.mat_mul(lap, g)) == eye
    assert linalg.mat_mul(g, lap) == linalg.mat_mul(lap, g)
    assert linalg.mat_mul(h, h) == h
    assert all(not r for r in linalg.mat_mul(h, g))
    assert all(not r for r in linalg.mat_mul(g, h))
    # Hermitian and positive semidefinite after evaluation
    assert linalg.conj_transpose(lap, dim) == lap
    rng = DetRng(41)
    for _ in range(5):
        x = {rng.next_int(dim): nonzero_gaussian(rng, 3) for _ in range(3)}
        lx = linalg.mat_vec(lap, x)
        val = GaussianRational(0)
        for i, c in lx.items():
            xi = x.get(i)
            if xi:
                val = val + xi.conj() * c
        assert val.im == 0 and val.re >= 0


def test_green_harmonic_algebra_iwasawa(ec_iwasawa):
    hc = HodgeContext(ec_iwasawa)
    _check_green_identities(hc, 2, 1, "bc")
    _check_green_identities(hc, 1, 1, "bc")
    _check_green_identities(hc, 1, 1, "a")
    _check_green_identities(hc, 2, 2, "a")


def test_green_commutation_with_ddbar(ec_iwasawa):
    # G_BC del delbar = del delbar G_A as exact matrices at (2,2)
    hc = HodgeContext(ec_iwasawa)
    dd = ec_iwasawa.rows("ddbar", 1, 1)  # (1,1) -> (2,2)
    lhs = linalg.mat_mul(hc.green_bc_rows(2, 2), dd)
    rhs = linalg.mat_mul(dd, hc.green_a_rows(1, 1))
    assert lhs == rhs
    # and the adjoint statement (del delbar)* G_BC = G_A (del delbar)*
    ddstar = linalg.conj_transpose(dd, ec_iwasawa.dim(1, 1))
    assert linalg.mat_mul(ddstar, hc.green_bc_rows(2, 2)) == linalg.mat_mul(
        hc.green_a_rows(1, 1), ddstar
    )


def test_canonical_ddbar_solution(ec_iwasawa, iwasawa3):
    """``ddbar_preimage``, read through form_to_vec and vec_to_form,
    solves del delbar x = y with the minimal-norm x."""
    se = iwasawa3.se
    alg = se.algebra
    assert ec_iwasawa.ddbar_preimage(2, 2, {}) == {}
    rng = DetRng(43)
    for trial in range(3):
        basis = form_basis(alg, 1, 1)
        x0 = alg.zero()
        for _ in range(3):
            x0 = x0 + Form(alg, {basis[rng.next_int(9)]: alg.ring.const(nonzero_gaussian(rng, 3))})
        y = se.apply_del(se.apply_delbar(x0))
        if not y:
            continue
        xv = ec_iwasawa.ddbar_preimage(2, 2, ec_iwasawa.form_to_vec(y, 2, 2))
        x = ec_iwasawa.vec_to_form(xv, 1, 1)
        assert se.apply_del(se.apply_delbar(x)) == y
        # (del delbar)(del delbar)* G_BC y = y for y in the image
        # minimality against 20 random kernel perturbations
        base = norm2_vec(xv)
        kernel = ec_iwasawa.kernel("ddbar", 1, 1)
        for _ in range(20):
            k = {}
            for v in kernel:
                k = vec_add(k, vec_scale(v, rng.gaussian(2)))
            if not k:
                continue
            assert base <= norm2_vec(vec_add(xv, k))


def test_canonical_solution_not_solvable(ec_iwasawa, iwasawa3):
    alg = iwasawa3.se.algebra
    # at (2,1) the del delbar image is zero: any nonzero input must refuse
    y = ec_iwasawa.form_to_vec(alg.monomial((1, 2), (1,)), 2, 1)
    assert y and ec_iwasawa.ddbar_preimage(2, 1, y) is None


def test_solve_conjugate_system_torus(ec_torus, torus3):
    alg = torus3.se.algebra
    zeta = alg.monomial((1, 2), ())  # closed (2,0)
    xi = alg.monomial((1, 2), ())
    x = solve_conjugate_system(ec_torus, zeta, xi, 1, 1)
    assert not x


def test_solve_conjugate_system_precondition(ec_iwasawa, iwasawa3):
    # (p,q) = (2,2) needs the (2,3)-th mild lemma, which fails on Iwasawa
    alg = iwasawa3.se.algebra
    zeta = alg.monomial((1, 2, 3), (1,))
    xi = alg.monomial((1, 2, 3), (1,))
    with pytest.raises(PreconditionFailed):
        solve_conjugate_system(ec_iwasawa, zeta, xi, 2, 2)


def test_solve_conjugate_system_solves(ec_torus, torus3):
    # abelian n = 3 with a nonzero right-hand side cannot occur (images
    # vanish), so exercise the solver on the bcvary complex at t = 0
    entry = catalog_load("bcvary10")
    se0 = evaluate_se(entry.se, zero_point(4))
    ec0 = EvaluatedComplex(build_complex(se0), ())
    alg0 = se0.algebra
    # zeta in (5,3), xi in (5,3) for (p,q) = (4,4)
    zeta = alg0.monomial((1, 2, 3, 4, 5), (1, 2, 4))
    xi = alg0.monomial((1, 2, 3, 4, 5), (1, 2, 4))
    assert not se0.apply_del(se0.apply_delbar(zeta))
    x = solve_conjugate_system(ec0, zeta, xi, 4, 4)
    assert se0.apply_del(x) == se0.apply_delbar(zeta)
    assert se0.apply_delbar(x) == se0.apply_del(xi.conj())


def test_full_report_builds_no_kernel_or_image_basis(iwasawa3):
    ec = EvaluatedComplex(build_complex(iwasawa3.se), ())
    full_report(ec)
    assert all(e._index is None for e in ec._echelons.values())
    assert ec._images == {}


def _fresh_rank(ec, key):
    """The rank that the rank cache holds at key, read by a new forward
    echelon of the same rows: the matrix's own, d's from total degree p,
    or for exact_sum the columns of del and delbar into (p,q)."""
    op, p, q = key
    if op == "total":
        return linalg.forward_echelon(ec.total_d_rows(p)).rank
    if op == "exact_sum":
        cols = [c for src in (("del", p - 1, q), ("delbar", p, q - 1)) if min(src[1:]) >= 0
                for c in linalg.columns(ec.rows(*src)).values()]
        return linalg.forward_echelon(cols).rank
    return linalg.forward_echelon(ec.rows(op, p, q)).rank


def test_rank_cache_assembles_once_and_eliminates_each_degree_once(monkeypatch, reference_complexes):
    """Count gate of the rank cache, on the 13 reference complexes (the
    first generic point of bcvary10 among them) and on a complex that is
    not unimodular.  In one full_report each matrix (op, p, q) is
    assembled at most once, and d from each degree is built
    (``total_d_rows`` called) at most once.  In lemma_report d from each
    degree is built at most once for standard's ranks, and once more
    only for the image a failing standard's witness reads.  Over
    full_report then lemma_report, each degree of d whose rank is read
    is forward-eliminated once, block by block, for that rank (its rows
    are never stored, so they are compared by content), and no other
    degree with a nonzero row is.  Every cached rank, and every block
    mark of d, equals the rank of a new forward echelon of the same rows.
    After full_report the complex keeps no row echelon but deldelbar's,
    and after either report no rows of d."""
    se = nio.obj_to_se({"n": 1, "d": {"1": [{"coeff": "1", "factors": ["1", "bar1"]}]}})
    cases = [(label, cx, point) for label, cx, point in reference_complexes]
    cases.append(("not unimodular", build_complex(se), ()))
    assert len(cases) == 14
    rows, total_d_rows, extend = EvaluatedComplex.rows, EvaluatedComplex.total_d_rows, linalg.Echelon.extend
    built, fed = [], {}

    def building(self, *args):
        if args not in self._rows:
            built.append(args)
        return rows(self, *args)

    def recording(self, vectors):
        fed.setdefault(id(self), (self, []))[1].extend(v if v else None for v in vectors)
        return extend(self, vectors)

    monkeypatch.setattr(EvaluatedComplex, "rows", building)
    monkeypatch.setattr(EvaluatedComplex, "total_d_rows", lambda self, k: built.append(("total", k, 0)) or total_d_rows(self, k))
    monkeypatch.setattr(linalg.Echelon, "extend", recording)
    for label, cx, point in cases:
        ec = EvaluatedComplex(cx, point)
        built.clear()
        fed.clear()
        full_report(ec)
        assert built and len(built) == len(set(built)), label
        # an echelon that only a rank read is dropped
        assert {key[0] for key in ec._echelons} <= {"ddbar"}, label
        assert not any(key[0] == "total" for key in ec._rows), label
        built.clear()
        lemma_report(ec)
        assert not any(key[0] == "total" for key in ec._rows), label
        builds = Counter(key for key in built if key[0] == "total")
        for (_, k, _), count in builds.items():
            assert count <= 1 + (("total", k + 1, 0) in ec._images), (label, k, count)
        assert sum(key[0] == "total" for key in ec._images) <= 1, label
        monkeypatch.setattr(linalg.Echelon, "extend", extend)
        for k in range(-1, 2 * cx.n):
            want = [r if r else None for r in ec.total_d_rows(k)]
            if any(want):
                passes = sum(seq == want for _, seq in fed.values())
                assert passes == (k in ec._marks), (label, k, passes)
        assert ec._ranks and ec._marks, label
        for key, r in ec._ranks.items():
            assert r == _fresh_rank(ec, key), (label, key)
        for k, marks in ec._marks.items():
            d, blocks, cut = ec.total_d_rows(k), ec.total_blocks(k + 1), 0
            assert len(marks) == len(blocks), (label, k)
            for (p, q), mark in zip(blocks, marks):
                cut += ec.dim(p, q)
                assert mark == linalg.forward_echelon(d[:cut]).rank, (label, k, p, q)
        monkeypatch.setattr(linalg.Echelon, "extend", recording)


@pytest.mark.parametrize("enabled", [True, False])
def test_reports_pause_the_collector_and_restore_its_state(monkeypatch, tmp_path, iwasawa3, enabled):
    """full_report and lemma_report, and the CLI's commands that rank
    through them, rank with the cyclic collector paused, and leave it on
    or off as they found it, also when they raise: FlatnessError on equations that are not flat
    (the CLI's exit 1), and a bidegree outside 0..n, given to
    lemma_report or as --bidegree.  They leave the count of frozen
    objects as they found it too, none or some (``gc.freeze``)."""
    states = []
    rank = EvaluatedComplex.rank
    monkeypatch.setattr(EvaluatedComplex, "rank", lambda self, *a: states.append(gc.isenabled()) or rank(self, *a))
    alg3 = FormAlgebra(3, PolyRing(0, 0))
    notflat = StructureEquations("notflat", alg3, {3: alg3.monomial((1,), (2,)), 2: alg3.monomial((1,), (3,))})
    path = tmp_path / "notflat.json"
    path.write_text(nio.se_emit(notflat))

    def run(argv, code):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == code, argv

    calls = [
        lambda: full_report(EvaluatedComplex(build_complex(iwasawa3.se), ())),
        lambda: lemma_report(EvaluatedComplex(build_complex(iwasawa3.se), ())),
        lambda: run(["cohomology", "--manifold", "catalog:iwasawa3", "--json"], 0),
        lambda: run(["lemmata", "--manifold", "catalog:iwasawa3", "--bidegree", "2,3", "--json"], 0),
        lambda: run(["lemmata", "--manifold", "catalog:iwasawa3", "--bidegree", "7,0"], 1),
        lambda: run(["cohomology", "--manifold", str(path)], 1),
    ]
    raising = [
        (FlatnessError, lambda: full_report(EvaluatedComplex(InvariantComplex(notflat), ()))),
        (FlatnessError, lambda: lemma_report(EvaluatedComplex(InvariantComplex(notflat), ()))),
        (ValueError, lambda: lemma_report(EvaluatedComplex(build_complex(iwasawa3.se), ()), [(7, 0)])),
    ]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for frozen in (False, True):
            if frozen:
                gc.freeze()
            count = gc.get_freeze_count()
            assert bool(count) is frozen
            for call in calls:
                call()
                assert gc.isenabled() is enabled and gc.get_freeze_count() == count
            for error, call in raising:
                with pytest.raises(error):
                    call()
                assert gc.isenabled() is enabled and gc.get_freeze_count() == count
    finally:
        gc.unfreeze()
        (gc.enable if was else gc.disable)()
    assert states and not any(states)


@contextlib.contextmanager
def _collector_on():
    """The cyclic collector on for the block, then as it was."""
    was = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def test_reports_leave_no_young_collection_behind(iwasawa3, reference_complexes):
    """With the collector on, the reports leave what they keep in its
    oldest generation: from a collection just before full_report until
    the tuple of full_report and then lemma_report is built, no
    collection runs (a ``gc.callbacks`` recorder sees none), on iwasawa3
    and on the relabelled Iwasawa^2 x C."""
    cases = [("iwasawa3", build_complex(iwasawa3.se), ())]
    cases += [case for case in reference_complexes if case[0] == "iwasawa2_c"]
    assert len(cases) == 2
    seen = []

    def recording(phase, info):
        seen.append((phase, info["generation"]))

    with _collector_on():
        for label, cx, point in cases:
            ec = EvaluatedComplex(cx, point)
            gc.collect()
            gc.callbacks.append(recording)
            try:
                reports = (full_report(ec), lemma_report(ec))
            finally:
                gc.callbacks.remove(recording)
            assert len(reports) == 2 and not seen, (label, seen)


def test_a_cycle_made_before_a_report_is_freed_after_it(iwasawa3):
    """The reports move the caller's young objects to the oldest
    generation, where a reference cycle made before them is still found
    and freed by the next full collection."""

    class Node:
        pass

    with _collector_on():
        ec = EvaluatedComplex(build_complex(iwasawa3.se), ())
        node = Node()
        node.cycle = node
        alive = weakref.ref(node)
        del node
        full_report(ec)
        lemma_report(ec)
        gc.collect()
        assert alive() is None


def test_reports_keep_what_the_caller_froze_frozen(iwasawa3):
    """With objects frozen by the caller (``gc.freeze``), the reports
    move nothing in or out of the permanent generation: the freeze count
    is the same after them."""
    with _collector_on():
        ec = EvaluatedComplex(build_complex(iwasawa3.se), ())
        gc.freeze()
        try:
            count = gc.get_freeze_count()
            assert count
            full_report(ec)
            lemma_report(ec)
            assert gc.get_freeze_count() == count
        finally:
            gc.unfreeze()


def test_reports_leave_no_cyclic_garbage(reference_complexes):
    """The reports build only acyclic data, so pausing the collector
    defers no garbage: on each fresh reference complex, full_report, then
    lemma_report, then dropping the evaluated complex leave nothing that
    a collection frees."""
    for label, cx, point in reference_complexes:
        gc.collect()
        ec = EvaluatedComplex(cx, point)
        full_report(ec)
        lemma_report(ec)
        del ec
        assert gc.collect() == 0, label


# -- the minimal-norm del-delbar solve ---------------------------------------


def _typed_vec(v):
    """A vector with its key order and the types of its entries' parts."""
    return [(k, type(x), type(x.re), type(x.im), x) for k, x in v.items()]


def test_ddbar_preimage_equals_green_route(reference_complexes):
    """At every bidegree of the n <= 5 reference complexes the sparse
    preimage x of seeded combinations y of the columns of del delbar
    solves del delbar x = y and is orthogonal to the kernel of del delbar
    (which pins down the minimal-norm solution), and a right-hand side
    outside im del delbar gives None.  x equals (del delbar)* G_BC y in values, key order and
    entry types wherever the Green route is cheap: at every bidegree of
    the complexes at t = 0, and at the bidegrees of dimension <= 25 at
    the generic and deformed points, whose 50- and 100-dimensional dense
    inverses with large coefficients take 0.1-10 s each.  The n >= 6
    entries are left out: the Green route is cubic in the dimension."""
    rng = random.Random(61)
    green_cases = 0
    sizes = []
    for label, cx, point in reference_complexes:
        if cx.n > 5:
            continue
        ec = EvaluatedComplex(cx, point)
        assert ec.ddbar_preimage(0, 1, {0: QI_ONE}) is None
        assert ec.ddbar_preimage(1, 0, {}) == {}
        at_zero = label.endswith("@0")
        for p in range(1, cx.n + 1):
            for q in range(1, cx.n + 1):
                a = ec.rows("ddbar", p - 1, q - 1)
                kernel = ec.kernel("ddbar", p - 1, q - 1)
                image = ec.image_vectors("ddbar", p, q)
                green_route = None
                if at_zero or ec.dim(p, q) <= 25:
                    green_route = canonical_solver_rows(ec, p, q)
                for _ in range(2):
                    y = {}
                    for v in rng.sample(image, min(3, len(image))):
                        linalg.add_scaled_into(y, GaussianRational(rng.randint(-3, 3), rng.randint(1, 3)), v)
                    got = ec.ddbar_preimage(p, q, y)
                    sizes.append(len(got))
                    assert linalg.mat_vec(a, got) == y, (label, p, q)
                    for k in kernel:
                        assert sum((c.conj() * got[i] for i, c in k.items() if i in got), QI_ZERO) == 0
                    if green_route is not None:
                        assert _typed_vec(got) == _typed_vec(linalg.mat_vec(green_route, y)), (label, p, q)
                        green_cases += 1
                image = ec.image_echelon("ddbar", p, q)
                outside = next((k for k in range(ec.dim(p, q)) if not image.contains({k: QI_ONE})), None)
                if outside is not None:
                    assert ec.ddbar_preimage(p, q, vec_add(y, {outside: QI_ONE})) is None, (label, p, q)
    assert green_cases == 2 * (2 * 9 + 16 + 2 * 25 + 4 * 13)
    # most bidegrees of these complexes have del delbar = 0; the rest give
    # preimages with several entries, so the key order is checked
    assert sum(size > 1 for size in sizes) >= 100


def test_ddbar_preimage_equals_tracked_rref_route(reference_complexes):
    """At every bidegree of every reference complex, ddbar_preimage from
    the tracked forward echelon equals the old route, a tracked RREF of
    the columns of A A*, in values, key order and entry types: on seeded
    combinations of the columns of del delbar, on each of them plus a
    vector outside the image (None on both routes), and on seeded sparse
    right-hand sides."""
    rng = random.Random(67)
    solved = refused = 0
    for label, cx, point in reference_complexes:
        ec = EvaluatedComplex(cx, point)
        for p in range(1, cx.n + 1):
            for q in range(1, cx.n + 1):
                dim, image = ec.dim(p, q), ec.image_vectors("ddbar", p, q)
                if not dim:
                    continue
                ys = []
                for _ in range(2):
                    y = {}
                    for v in rng.sample(image, min(3, len(image))):
                        linalg.add_scaled_into(y, GaussianRational(rng.randint(-3, 3), rng.randint(1, 3)), v)
                    ys += [y, vec_add(y, {rng.randrange(dim): QI_ONE})]
                ys.append({rng.randrange(dim): GaussianRational(rng.randint(1, 3)) for _ in range(2)})
                for y in ys:
                    got = ec.ddbar_preimage(p, q, y)
                    want = ddbar_preimage_by_tracked_rref(ec, p, q, y)
                    if want is None:
                        refused += 1
                        assert got is None, (label, p, q)
                    else:
                        solved += 1
                        assert _typed_vec(got) == _typed_vec(want), (label, p, q)
    assert solved > 100 and refused > 100, (solved, refused)


def test_harmonic_green_equals_two_pass_oracle(reference_complexes):
    """harmonic_green's one dense solve (box + H) G = 1 - H gives
    the H and G of the dense inverse followed by a product, in values
    and in the types of the entries' parts, at every bidegree of
    dimension <= 25 of every reference complex, for box_BC and box_A."""

    def typed(rows):
        return [sorted((k, type(x), type(x.re), type(x.im), x) for k, x in r.items()) for r in rows]

    cases = 0
    for label, cx, point in reference_complexes:
        hodge = HodgeContext(EvaluatedComplex(cx, point))
        for p in range(cx.n + 1):
            for q in range(cx.n + 1):
                dim = cx.algebra.dim(p, q)
                if dim > 25:
                    continue
                for lap in (hodge.lap_bc_rows(p, q), hodge.lap_a_rows(p, q)):
                    h, g = harmonic_green(lap, dim)
                    h_oracle, g_oracle = harmonic_green_two_pass(lap, dim)
                    assert typed(h) == typed(h_oracle), (label, p, q)
                    assert typed(g) == typed(g_oracle), (label, p, q)
                    cases += 1
    assert cases == 2 * (2 * 16 + 10 * 24 + 20)


def test_harmonic_green_refuses_a_singular_system():
    """box + H singular (a 'Laplacian' that is not self-adjoint, so H
    does not complete it) raises the AssertionError."""
    nilpotent = [{1: QI_ONE}, {}]
    with pytest.raises(AssertionError, match="box \\+ H must be invertible"):
        harmonic_green(nilpotent, 2)


# -- assembly per structure constant ----------------------------------------


def _typed_rows(rows):
    """Rows with their key order and entry types."""
    return [[(k, type(x), x) for k, x in r.items()] for r in rows]


def test_evaluated_assembly_equals_symbolic_oracle(reference_complexes):
    """Every del and delbar matrix assembled from the structure constants
    equals the symbolic Leibniz-rule columns of the complex's equations
    read entry by entry: same rows, same key order, same entry types
    (the family's columns at a point: ``test_a_second_point_reuses_the_assembly_plans``)."""
    for label, cx, point in reference_complexes:
        ec = EvaluatedComplex(cx, point)
        for p in range(cx.n + 1):
            for q in range(cx.n + 1):
                for op in ("del", "delbar"):
                    got = ec.rows(op, p, q)
                    expected = evaluated_rows(cx.se, op, p, q, ())
                    assert _typed_rows(got) == _typed_rows(expected), (label, op, p, q)


def test_evaluated_assembly_sums_colliding_terms():
    """When d of a symbol contains that symbol, two Leibniz terms meet at
    one entry: del(g1 ^ g2) = -2 g123 is summed, del(g1 ^ g4) = 0
    cancels, and the rows still equal the oracle's.  The row of g134
    from (2,0) meets only that cancelling pair, so it is the shared
    ``EMPTY_ROW``, as is every other empty row, and del(g1 ^ g4) = 0 on
    forms too.  The equations define a complex, with g4 in the
    (1,1)-part of d g4 too: d^2 g4 = -g3 ^ d g4 + i d(g4 ^ gb3) =
    -i g34 ^ gb3 + i g34 ^ gb3 = 0."""
    alg = FormAlgebra(4, PolyRing(0, 0))
    se = StructureEquations(
        "diagonal",
        alg,
        {
            1: alg.monomial((1, 3), ()),
            2: alg.monomial((2, 3), ()),
            4: alg.monomial((3, 4), ()) + alg.monomial((4,), (3,)).scale(QI(0, 1)),
        },
    )
    cx = InvariantComplex(se)
    ec = EvaluatedComplex(cx, ())
    for p in range(5):
        for q in range(5):
            for op in ("del", "delbar"):
                assert _typed_rows(ec.rows(op, p, q)) == _typed_rows(evaluated_rows(se, op, p, q, ())), (op, p, q)
                assert all(r is EMPTY_ROW for r in ec.rows(op, p, q) if not r), (op, p, q)
    cols = linalg.columns(ec.rows("del", 2, 0))
    pos = monomial_index(cx, 2, 0)
    assert cols[pos[((1, 2), ())]] == {monomial_index(cx, 3, 0)[((1, 2, 3), ())]: QI(-2)}
    assert pos[((1, 4), ())] not in cols
    assert ec.rows("del", 2, 0)[monomial_index(cx, 3, 0)[((1, 3, 4), ())]] is EMPTY_ROW
    assert not se.apply_del(alg.monomial((1, 4), ()))


def test_evaluation_once_per_structure_constant(monkeypatch, bcvary10):
    """``evaluate_se`` evaluates each structure form once per fiber: on the
    deformed bcvary10 family at both generic points, each coefficient of
    each structure form is evaluated once, and building the fiber's
    complex, full_report and lemma_report evaluate nothing."""
    family = deform_complex(bcvary10.se, bcvary10.beltrami)
    coefficients = sum(len(f.coeffs) for f in family.d_coframe.values())
    calls = []
    real_eval = ParamScalar.eval

    def counting_eval(self, point):
        calls.append(1)
        return real_eval(self, point)

    monkeypatch.setattr(ParamScalar, "eval", counting_eval)
    for point in generic_points(4):
        calls.clear()
        fiber = evaluate_se(family, point)
        assert 0 < len(calls) == coefficients, point
        calls.clear()
        ec = EvaluatedComplex(build_complex(fiber), point)
        full_report(ec)
        lemma_report(ec)
        assert calls == [], point


def _exact_sum_rank(ec, p, q):
    """dim(im del + im delbar) at (p,q), from the image echelons."""
    return ec.image_sum(("del", "delbar"), p, q).rank


def _direct_rank(ec, op, p, q):
    """The rank of the matrix (op, p, q) from its own row echelon, or for
    total from a new forward echelon of d from degree p."""
    if op == "total":
        return linalg.forward_echelon(ec.total_d_rows(p)).rank
    return ec._row_echelon(op, p, q).rank


def _direct_report(ec):
    """full_report's tables with every rank taken from the matrix's own
    row echelon, or for [del | delbar] from the sum of the images, never
    from a dual."""
    n, rank = ec.n, lambda op, p, q: _direct_rank(ec, op, p, q)
    h_a = [[ec.dim(p, q) - rank("ddbar", p, q) - _exact_sum_rank(ec, p, q) for q in range(n + 1)]
           for p in range(n + 1)]
    betti_numbers = [ec.total_dim(k) - rank("total", k, 0) - rank("total", k - 1, 0)
                     for k in range(2 * n + 1)]
    return h_a, betti_numbers


def test_dual_ranks_equal_direct_ranks(reference_complexes):
    """On every reference complex (nilpotent, so unimodular) rank reads
    exact_sum and the upper half of total from their Hodge-star duals,
    builds no echelon of its own for them, and equals the direct rank at
    every bidegree and every degree k in -1..2n."""
    for label, cx, point in reference_complexes:
        n = cx.n
        ec = EvaluatedComplex(cx, point)
        assert ec.unimodular, label
        keys = [("exact_sum", p, q) for p in range(n + 1) for q in range(n + 1)]
        keys += [("total", k, 0) for k in range(-1, 2 * n + 1)]
        dual = {key: ec.rank(*key) for key in keys}
        assert not any(key[0] == "exact_sum" for key in ec._echelons), label
        assert not any(key[0] == "total" and n <= key[1] < 2 * n - 1 for key in ec._echelons), label
        for key, r in dual.items():
            op, p, q = key
            direct = _exact_sum_rank(ec, p, q) if op == "exact_sum" else _direct_rank(ec, *key)
            assert r == direct, (label, key)
        report = full_report(EvaluatedComplex(cx, point))
        assert (report.h_a, report.betti) == _direct_report(ec), label


def test_non_unimodular_input_keeps_the_direct_route():
    """dgamma^1 = gamma^1 ^ gammabar^1 (n = 1) is not unimodular: d of the
    1-form gamma^1 is the top form.  Duality would read b_2 from b_0 and
    give h_A(1,1) = 1; the direct route gives Betti numbers [1, 1, 0]."""
    se = nio.obj_to_se({"n": 1, "d": {"1": [{"coeff": "1", "factors": ["1", "bar1"]}]}})
    ec = EvaluatedComplex(build_complex(se), ())
    assert ec.unimodular is False
    assert _direct_rank(ec, "total", 1, 0) != _direct_rank(ec, "total", 0, 0)
    report = full_report(ec)
    assert report.betti == [1, 1, 0]
    assert report.h_a == [[1, 1], [1, 0]]
    assert (report.h_a, report.betti) == _direct_report(ec)


def test_star_and_conjugation_ranks_equal_direct_eliminations(reference_complexes):
    """On the reference complexes, H(3,C)..H(7,C) and two complexes that
    are not unimodular (n = 1 and solvable3), after full_report and
    lemma_report every delbar and deldelbar rank that ``rank`` returns
    equals a forward pass over the matrix's own rows, and standard's
    block ranks of every degree equal the prefix and suffix passes.  On
    a unimodular complex full_report eliminates no delbar matrix with
    rows (q < n) but the two at the center of an even n, and no
    deldelbar matrix whose star dual it eliminated; on the others every
    one of them."""
    not_unimodular = {"n": 1, "d": {"1": [{"coeff": "1", "factors": ["1", "bar1"]}]}}
    cases = list(reference_complexes)
    cases += [(f"H({n},C)", build_complex(heisenberg_c(n)), ()) for n in (3, 5, 7)]
    cases += [(label, build_complex(nio.obj_to_se(obj)), ()) for label, obj in
              (("n = 1", not_unimodular), ("solvable3", SOLVABLE))]
    for label, cx, point in cases:
        n = cx.n
        ec = EvaluatedComplex(cx, point)
        full_report(ec)
        cached = set(ec._ranks)
        delbar = {(p, q) for op, p, q in cached if op == "delbar"}
        ddbar = {(p, q) for op, p, q in ec._echelons}
        if ec.unimodular:
            center = {(n // 2, n // 2), (n // 2, n // 2 - 1)} if n % 2 == 0 else set()
            assert delbar == center | {(p, n) for p in range(n + 1)}, label
            assert not any((n - q - 1, n - p - 1) in ddbar for p, q in ddbar if p + q != n - 1), label
        else:
            assert delbar == {(p, q) for p in range(n + 1) for q in range(n + 1)}, label
            assert ddbar == {(p, q) for p in range(n + 1) for q in range(n + 1)}, label
        lemma_report(ec)
        for p in range(n + 1):
            for q in range(n + 1):
                assert ec.rank("delbar", p, q) == delbar_rank_by_own_pass(ec, p, q), (label, p, q)
                want = linalg.forward_echelon(ec.rows("ddbar", p, q)).rank
                assert ec.rank("ddbar", p, q) == want, (label, p, q)
        for k in range(1, 2 * n + 1):
            assert ec.block_ranks(k) == block_ranks_by_suffix_pass(ec, k), (label, k)


def test_star_reads_equal_the_transposes(reference_complexes):
    """On every complex of ``tests/data/report_digests.json`` (all of them
    unimodular): the star is an involution on every bidegree; for del and
    delbar from every (p,q), the image of each unit vector read through
    the star and op's dual rows (``oracles.apply_through_star``, the
    route by which ``mild_scan`` stars its witness back) is that column
    of ``linalg.columns`` of the rows, entries, key order and types
    alike; for every del and delbar image op x of a deldelbar kernel
    vector, membership in im deldelbar through the star
    (``in_ddbar_image``) and membership of star(x) M, M the dual rows
    (``_dual``), in deldelbar's row echelon from M's source (the test
    ``mild_scan`` makes, im deldelbar being 0 where the target has p or
    q = 0) are membership in ``image_echelon("ddbar")``; and so is
    ``in_ddbar_image`` for deldelbar of seeded random vectors (inside),
    and for those plus a seeded random unit vector (mostly outside)."""
    cases = list(reference_complexes)
    cases += [(f"H({n},C)", build_complex(heisenberg_c(n)), ()) for n in (3, 5, 7)]
    rng, inside, dual_side = random.Random(5101), Counter(), Counter()
    for label, cx, point in cases:
        n = cx.n
        ec = EvaluatedComplex(cx, point)
        assert ec.unimodular, label
        for p in range(n + 1):
            for q in range(n + 1):
                dim = ec.dim(p, q)
                v = {i: GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for i in rng.sample(range(dim), min(dim, 4))}
                assert ec.star(ec.star(v, p, q), n - q, n - p) == v, (label, p, q)
                for op in ("del", "delbar"):
                    if not ec.dim(p + (op == "del"), q + (op == "delbar")):
                        continue
                    cols = linalg.columns(ec.rows(op, p, q))
                    for j in range(dim):
                        got = apply_through_star(ec, op, {j: QI_ONE}, p, q)
                        assert _typed(got) == _typed(cols.get(j, {})), (label, op, p, q, j)
                    target = (p + 1, q) if op == "del" else (p, q + 1)
                    rows, sp, sq, _ = ec._dual(op, p, q)
                    dual = ec._row_echelon("ddbar", sp, sq) if min(target) else linalg.Echelon({})
                    for x in ec.kernel_vectors("ddbar", p, q):
                        w = apply_through_star(ec, op, x, p, q)
                        want = ec.image_echelon("ddbar", *target).contains(w)
                        assert ec.in_ddbar_image(w, *target) is want, (label, op, p, q)
                        assert dual.contains(linalg.row_combination(rows, ec.star(x, p, q))) is want, (label, op, p, q)
                        dual_side[want] += bool(w)
                if p and q:
                    rows = ec.rows("ddbar", p - 1, q - 1)
                    src = ec.dim(p - 1, q - 1)
                    for _ in range(3):
                        x = {i: GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)) for i in rng.sample(range(src), min(src, 3))}
                        w = linalg.mat_vec(rows, x)
                        outside = dict(w)
                        linalg.add_scaled_into(outside, QI_ONE, {rng.randrange(dim): QI_ONE})
                        for u in (w, outside):
                            want = ec.image_echelon("ddbar", p, q).contains(u)
                            assert ec.in_ddbar_image(u, p, q) is want, (label, p, q)
                            inside[want] += 1
    assert inside[True] > inside[False] > 0
    assert dual_side[True] > 0 and dual_side[False] > 0


def test_vector_conjugation_is_form_conjugation(reference_complexes):
    """On the reference complexes and solvable3, at every (p,q), the
    conjugation of a seeded random vector (``EvaluatedComplex.conj``), at
    (q,p), is ``Form.conj`` of its form, entries and types alike; it is
    an involution; and, as d is real, it sends del of a vector to delbar
    of its conjugate, the identity by which weak's U is conjugation-stable."""
    rng = random.Random(5301)
    cases = reference_complexes + [("solvable3", build_complex(nio.obj_to_se(SOLVABLE)), ())]
    for label, cx, point in cases:
        ec = EvaluatedComplex(cx, point)
        for p in range(cx.n + 1):
            for q in range(cx.n + 1):
                dim = ec.dim(p, q)
                v = {i: GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for i in rng.sample(range(dim), min(dim, 5))}
                v = {i: x for i, x in sorted(v.items()) if x}
                got = ec.conj(v, p, q)
                want = ec.form_to_vec(ec.vec_to_form(v, p, q).conj(), q, p)
                assert sorted(_typed(got), key=str) == sorted(_typed(want), key=str), (label, p, q)
                assert ec.conj(got, q, p) == v, (label, p, q)
                if p < cx.n:
                    dv = linalg.mat_vec(ec.rows("del", p, q), v)
                    assert ec.conj(dv, p + 1, q) == linalg.mat_vec(ec.rows("delbar", q, p), got), (label, p, q)


def test_scan_column_reads_equal_the_transposes(monkeypatch, reference_complexes):
    """On every complex of ``tests/data/report_digests.json`` and on
    solvable3, which is not unimodular: for del and delbar from every
    (p,q), the support test that ``mild_scan`` hands the deldelbar kernel
    read passes exactly the keys of ``linalg.columns`` of the rows, at
    every column; and, the scan fed every unit vector e_j with every
    membership answered inside, so that it reads them all, the vector it
    tests for e_j is column j itself off a unimodular complex
    (``column_reads``), and on one the row of op's dual (``_dual``) at the
    star position of j, by reference, whose star is +- column j, entries,
    key order and types alike."""
    cases = list(reference_complexes)
    cases += [(f"H({n},C)", build_complex(heisenberg_c(n)), ()) for n in (3, 5, 7)]
    cases.append(("solvable3", build_complex(nio.obj_to_se(SOLVABLE)), ()))
    routes, handed, tested = Counter(), [], []

    def units(self, op, p, q, meets=None):
        handed.append(meets)
        return iter([{j: QI_ONE} for j in range(self.dim(p, q)) if meets(j)])

    monkeypatch.setattr(EvaluatedComplex, "kernel_vectors", units)
    monkeypatch.setattr(linalg.Echelon, "contains", lambda self, w: tested.append(w) or True)
    for label, cx, point in cases:
        ec = EvaluatedComplex(cx, point)
        routes[ec.unimodular] += 1
        for p in range(cx.n + 1):
            for q in range(cx.n + 1):
                for op in ("del", "delbar"):
                    if not ec.dim(p + (op == "del"), q + (op == "delbar")):
                        continue
                    at = (label, op, p, q)
                    cols = linalg.columns(ec.rows(op, p, q))
                    handed.clear()
                    tested.clear()
                    assert ec.mild_scan(op, p, q) is None, at
                    meets, = handed
                    assert [j for j in range(ec.dim(p, q)) if meets(j)] == sorted(cols), at
                    assert len(tested) == len(cols), at
                    if not ec.unimodular:
                        assert [_typed(w) for w in tested] == [_typed(cols[j]) for j in sorted(cols)], at
                        continue
                    rows, sp, sq, _ = ec._dual(op, p, q)
                    for j, w in zip(sorted(cols), tested):
                        assert any(w is r for r in rows), at + (j,)
                        back = ec.star(w, sp, sq)
                        got = _typed({k: back[k] for k in sorted(back)})
                        assert got in (_typed(cols[j]), _typed({k: -x for k, x in cols[j].items()})), at + (j,)
    assert routes == {True: 16, False: 1}


def _typed(v):
    return [(k, x, type(x.re), type(x.im)) for k, x in v.items()]


class _TracedRanks(dict):
    """A rank cache that names the elimination behind each rank it stores
    (by the first key that elimination stored; ``eliminations`` holds
    every echelon extended, the last one last) and, while ``reads`` is a
    set, adds to it the elimination behind each rank read."""

    def __init__(self, eliminations):
        super().__init__()
        self.eliminations, self.names, self.source, self.reads = eliminations, {}, {}, None

    def __setitem__(self, key, value):
        self.source[key] = self.names.setdefault(id(self.eliminations[-1]), key)
        super().__setitem__(key, value)

    def __getitem__(self, key):
        if self.reads is not None:
            self.reads.add(self.source[key])
        return super().__getitem__(key)


@pytest.mark.parametrize("name", ["iwasawa3", "iwasawa_c", "H(5,C)"])
def test_conjugation_check_compares_separate_eliminations(monkeypatch, iwasawa3, iwasawa_c, name):
    """Each comparison of ``check_conjugation_symmetry`` in full_report
    (h_bc and h_a at (p,q) against (q,p), p != q, and h_dolbeault at (p,q)
    against h_del at (q,p)) sets eliminations against each other that
    share none: a rank read through the Hodge star (delbar's from a del
    pass, a deldelbar rank from its star dual's echelon) never makes the
    two sides read one elimination, so the check keeps its teeth.  The
    delbar ranks at the center of an even n are eliminated directly for
    this; without that, h_dolbeault(n/2, n/2) and h_del(n/2, n/2) would
    read the same two del passes."""
    cx = {"iwasawa3": build_complex(iwasawa3.se), "iwasawa_c": iwasawa_c,
          "H(5,C)": build_complex(heisenberg_c(5))}[name]
    eliminations = []
    extend = linalg.Echelon.extend
    monkeypatch.setattr(linalg.Echelon, "extend", lambda self, v: eliminations.append(self) or extend(self, v))
    ec = EvaluatedComplex(cx, ())
    ranks = ec._ranks = _TracedRanks(eliminations)
    full_report(ec)
    assert ec.unimodular and len(set(ranks.source.values())) < len(ranks), name

    def side(which, p, q):
        ranks.reads = set()
        cohomology(ec, which, p, q)
        out, ranks.reads = ranks.reads, None
        return out

    n, compared = cx.n, 0
    for p in range(n + 1):
        for q in range(n + 1):
            pairs = [("dolbeault", "del")] + ([("bott_chern", "bott_chern"), ("aeppli", "aeppli")] if p != q else [])
            for left, right in pairs:
                a, b = side(left, p, q), side(right, q, p)
                assert a and b and a.isdisjoint(b), (name, left, p, q, a & b)
                compared += 1
    assert compared == (n + 1) ** 2 + 2 * n * (n + 1)


def test_kernels_read_the_forward_echelon_as_the_direct_rref(reference_complexes):
    """After full_report has taken every rank from forward echelons, each
    kernel is read from its matrix's kept echelon, the same object, whose
    RREF (``completed_rref``) is the one that the full-scan oracle builds
    directly from the matrix rows, pivot for pivot in the same order,
    and equals the oracle's kernel: the same vectors, entry types and
    key order.  The kernel read leaves every stored row the object it
    was."""
    for label, cx, point in reference_complexes:
        ec = EvaluatedComplex(cx, point)
        full_report(ec)
        for op in ("del", "delbar", "ddbar", "stacked"):
            for p in range(ec.n + 1):
                for q in range(ec.n + 1):
                    e = ec._row_echelon(op, p, q)
                    stored = dict(e.pivots)
                    got = ec.kernel(op, p, q)
                    direct = FullScanEchelon()
                    for row in ec.rows(op, p, q):
                        direct.insert(row)
                    want = full_scan_kernel(direct.pivots, ec.dim(p, q))
                    typed = [[(k, type(x), x) for k, x in v.items()] for v in got]
                    assert typed == [[(k, type(x), x) for k, x in v.items()] for v in want], (label, op, p, q)
                    rref = completed_rref(e)
                    assert ec._row_echelon(op, p, q) is e and rref == direct.pivots, (label, op, p, q)
                    assert list(rref) == list(direct.pivots) == list(e.pivots), (label, op, p, q)
                    assert all(e.pivots[k] is row for k, row in stored.items()), (label, op, p, q)


def test_del_and_stacked_ranks_equal_separate_eliminations(reference_complexes):
    """On every reference complex and bidegree, the del and stacked
    ranks, read from one forward pass in which the del rows lead the
    delbar rows, equal the ranks of new, separate forward echelons of the
    del rows and of the stacked rows, and that pass keeps no echelon.
    kernel("stacked") equals the oracle ``nullspace`` of the del rows above
    the delbar rows and the full-scan oracle's kernel, entry types and
    key order included, both when del's kernel, which indexes the
    columns of del's echelon, was read first and when it was not;
    reading it changes none of the del or delbar rows."""
    for label, cx, point in reference_complexes:
        for del_kernel_first in (False, True):
            ec = EvaluatedComplex(cx, point)
            for p in range(cx.n + 1):
                for q in range(cx.n + 1):
                    at = (label, del_kernel_first, p, q)
                    if del_kernel_first:
                        ec.kernel("del", p, q)
                    stacked = ec.rows("del", p, q) + ec.rows("delbar", p, q)
                    held = [list(row.items()) for row in stacked]
                    kept = set(ec._echelons)
                    assert ec.rank("del", p, q) == linalg.forward_echelon(ec.rows("del", p, q)).rank, at
                    assert ec.rank("stacked", p, q) == linalg.forward_echelon(stacked).rank, at
                    assert set(ec._echelons) == kept, at
                    got = ec.kernel("stacked", p, q)
                    direct = FullScanEchelon()
                    for row in stacked:
                        direct.insert(row)
                    typed = [[(k, type(x), x) for k, x in v.items()] for v in got]
                    for want in (nullspace(stacked, ec.dim(p, q)), full_scan_kernel(direct.pivots, ec.dim(p, q))):
                        assert typed == [[(k, type(x), x) for k, x in v.items()] for v in want], at
                    assert [list(row.items()) for row in stacked] == held, at


def test_a_second_point_reuses_the_assembly_plans(bcvary10):
    """Two fibers share the constant algebra's plans: the fibers of the
    deformed bcvary10 family, over a fresh algebra of the family's ring
    whose layout has planned nothing, are evaluated (``evaluate_se``) into
    equations over its constant algebra, which share its layout, so the
    plans are computed once over the validation and the del and delbar
    matrices of three fibers: the first fiber's validation
    (``build_complex`` on equations that have decided nothing yet)
    computes each plan of its degree-1 and degree-2 tables once; its
    matrices compute each plan once, and only plans that validation did
    not make; the fibers at the other generic point and at t = 0, where
    no structure constant is nonzero that was not at the first, compute
    none in validation or assembly and leave the memo as it was; the rows
    of every fiber equal the family's symbolic columns evaluated at its
    point, entry by entry."""

    class Recorded(dict):
        """A plan memo that records each plan stored, that is computed."""

        def __setitem__(self, key, plan):
            calls.append(key)
            super().__setitem__(key, plan)

    deformed = deform_complex(bcvary10.se, bcvary10.beltrami)
    alg = FormAlgebra(deformed.n, deformed.algebra.ring)
    se = StructureEquations(deformed.name, alg, deformed.d_coframe)
    calls = []
    alg.layout.plans = Recorded()
    bidegrees = [(op, p, q) for op in ("del", "delbar") for p in range(6) for q in range(6)]
    plans = None
    for pt in generic_points(4) + (zero_point(4),):
        fiber = build_complex(evaluate_se(se, pt))
        assert fiber.algebra is alg.constant and fiber.layout is alg.layout
        if plans is None:
            validation = set(calls)
            assert validation and len(calls) == len(validation)
            calls.clear()
        ec = EvaluatedComplex(fiber, pt)
        for op, p, q in bidegrees:
            assert ec.rows(op, p, q) == evaluated_rows(se, op, p, q, pt), (pt, op, p, q)
        if plans is None:
            assert calls and len(calls) == len(set(calls)) and validation.isdisjoint(calls)
            plans = dict(alg.layout.plans)
            assert plans.keys() == validation | set(calls)
            calls.clear()
        assert calls == [], pt
        assert alg.layout.plans.keys() == plans.keys()
        assert all(alg.layout.plans[key] is plan for key, plan in plans.items())


def test_kernel_reads_change_nothing_a_caller_saw(monkeypatch, reference_complexes):
    """On every matrix of the reference complexes, reading the kernel,
    which indexes the columns of the matrix's echelon
    (``Echelon._column_index``), leaves the matrix rows equal, key order
    included, to a snapshot of their entries taken before (the scalars
    are immutable); the stored rows the same objects; the rank, the
    pivot order and ``marks`` as they were; and ``contains`` and
    ``residues`` on seeded probes (members among them) answering as
    before.  A second kernel read indexes nothing again and returns the
    same vectors."""
    indexed = []
    index = linalg.Echelon._column_index
    monkeypatch.setattr(linalg.Echelon, "_column_index", lambda e: indexed.append(e) or index(e))
    rng = DetRng(2323)
    for label, cx, point in reference_complexes:
        ec = EvaluatedComplex(cx, point)
        for op in ("del", "delbar", "ddbar", "stacked"):
            for p in range(ec.n + 1):
                for q in range(ec.n + 1):
                    rows, ncols = ec.rows(op, p, q), ec.dim(p, q)
                    before = [list(r.items()) for r in rows]
                    e = ec._row_echelon(op, p, q)
                    seen = (e.rank, list(e.pivots), list(e.marks))
                    probes = [{rng.next_int(ncols): nonzero_gaussian(rng, 3) for _ in range(3)}
                              for _ in range(4 if ncols else 0)]
                    probes += [vec_add(r, probes[0]) for r in rows[:3] if probes] + rows[:3]
                    answers = ([e.contains(v) for v in probes], residues(e, probes))
                    held = [id(r) for r in e.pivots.values()]
                    kernel = list(ec.kernel_vectors(op, p, q))
                    at = (label, op, p, q)
                    assert [list(r.items()) for r in rows] == before, at
                    assert (e.rank, list(e.pivots), list(e.marks)) == seen, at
                    assert ([e.contains(v) for v in probes], residues(e, probes)) == answers, at
                    assert indexed == [e], at
                    assert [id(r) for r in e.pivots.values()] == held, at
                    indexed.clear()
                    assert list(ec.kernel_vectors(op, p, q)) == kernel and not indexed, at
                    assert [id(r) for r in e.pivots.values()] == held, at


@pytest.mark.parametrize("method", ["rows", "rank", "kernel", "image_rank", "image_echelon"])
def test_unknown_matrix_names_are_refused(iwasawa3, method):
    """A misspelled matrix name raises ValueError naming the valid ones
    and caches nothing, so it is never answered as another matrix; [del |
    delbar] is a rank, not a matrix, so rows refuses it too, and kernel
    refuses it and d on the total complex, whose kernel no caller reads."""
    ec = EvaluatedComplex(build_complex(iwasawa3.se), ())
    full_report(ec)
    lemma_report(ec)
    caches = ("_rows", "_echelons", "_images", "_preimages")
    before = {name: {k: id(v) for k, v in getattr(ec, name).items()} for name in caches}
    call = getattr(ec, method)
    names = ("dlebar", "bogus") + (("total", "exact_sum") if method in ("rows", "kernel") else ())
    for name in names:
        with pytest.raises(ValueError, match=f"unknown matrix '{name}': expected one of del, delbar, ddbar"):
            call(name, 1, 0)
    assert {name: {k: id(v) for k, v in getattr(ec, name).items()} for name in caches} == before
    assert ec.rank("exact_sum", 2, 2) == ec.image_sum(("del", "delbar"), 2, 2).rank > 0


@pytest.mark.parametrize("kwargs, message", [
    ({"which": "dolbeault", "p": 7, "q": 0}, r"bidegree \(7,0\) is outside 0\.\.3"),
    ({"which": "aeppli", "p": 1, "q": -1}, r"bidegree \(1,-1\) is outside 0\.\.3"),
    ({"k": 99}, r"degree 99 is outside 0\.\.6"),
    ({"k": -1}, r"degree -1 is outside 0\.\.6"),
    ({"which": "bott-chern", "p": 1, "q": 1}, r"unknown cohomology 'bott-chern': expected one of dolbeault, del, bott_chern, aeppli$"),
])
def test_cohomology_refuses_out_of_range_degrees(ec_iwasawa, kwargs, message):
    """cohomology names the valid range instead of answering 0 about the
    zero space, and the valid names for an unknown one, de_rham among
    them: a degree k is betti's, which names its range too.  The ends of
    each range are answered."""
    read = betti if "k" in kwargs else cohomology
    with pytest.raises(ValueError, match=message):
        read(ec_iwasawa, **kwargs)
    with pytest.raises(ValueError, match="^unknown cohomology 'de_rham'"):
        cohomology(ec_iwasawa, "de_rham", 1, 1)
    assert cohomology(ec_iwasawa, "dolbeault", p=3, q=0) == 1
    assert [betti(ec_iwasawa, k=k) for k in (0, 6)] == [1, 1]


def test_every_per_cell_reader_refuses_a_degree_out_of_range(ec_iwasawa):
    """The per-cell readers name the valid range, as cohomology does,
    instead of answering 0 about the zero space: the four cohomologies,
    dclosed_dim and ddbar_image_dim at bidegrees outside 0..3 on
    iwasawa3, and betti at degrees outside 0..6; the ends of each range
    are answered."""
    readers = tuple(lambda ec, p, q, which=which: cohomology(ec, which, p, q)
                    for which in ("bott_chern", "dolbeault", "del", "aeppli")) + (dclosed_dim, ddbar_image_dim)
    for reader in readers:
        for p, q in ((7, 7), (-1, 2), (4, 0), (0, -1)):
            with pytest.raises(ValueError, match=rf"bidegree \({p},{q}\) is outside 0\.\.3"):
                reader(ec_iwasawa, p, q)
    assert [reader(ec_iwasawa, 3, 3) for reader in readers] == [1, 1, 1, 1, 1, 0]
    assert [reader(ec_iwasawa, 0, 0) for reader in readers] == [1, 1, 1, 1, 1, 0]
    for k in (-1, 7, 99):
        with pytest.raises(ValueError, match=rf"degree {k} is outside 0\.\.6"):
            betti(ec_iwasawa, k)
    assert [betti(ec_iwasawa, k) for k in (0, 6)] == [1, 1]


def test_vector_readers_refuse_a_bidegree_out_of_range(iwasawa3):
    """The complex's kernel readers and its form/vector codec name the
    valid range, as check_bidegree does, instead of answering about the
    zero space (an empty kernel at (7,7)), reaching a monomial of
    another bidegree through a negative index ((-1,0) read as (3,0)),
    or raising IndexError past n; the ends of the range are answered."""
    ec = EvaluatedComplex(build_complex(iwasawa3.se), ())
    alg, one = iwasawa3.se.algebra, {0: QI_ONE}
    zero = alg.zero()
    readers = (
        lambda p, q: ec.kernel("stacked", p, q),
        lambda p, q: ec.kernel_vectors("ddbar", p, q),
        lambda p, q: ec.vec_to_form(one, p, q),
        lambda p, q: ec.slices_to_form({1: one}, p, q, alg),
        lambda p, q: ec.form_to_vec(zero, p, q),
        lambda p, q: ec.form_to_slices(zero, p, q),
    )
    for p, q in ((7, 7), (-1, 0), (4, 0), (0, 4), (0, -1)):
        for reader in readers:
            with pytest.raises(ValueError, match=rf"^bidegree \({p},{q}\) is outside 0\.\.3$"):
                reader(p, q)
    assert ec.kernel("stacked", 3, 3) == ec.kernel("stacked", 0, 0) == [one]
    assert ec.vec_to_form(one, 3, 0) == alg.monomial((1, 2, 3), ())
    assert ec.form_to_vec(alg.monomial((1, 2, 3), ()), 3, 0) == one
    assert ec.form_to_slices(zero, 0, 3) == {} and ec.slices_to_form({}, 0, 3, alg) == zero


def test_cohomology_refuses_equations_that_define_no_complex():
    """full_report, cohomology and the public dimension readers answer
    only on a complex, and the complex is refused where it is built.
    With d gamma^1 = gammabar^1 ^ gammabar^2 (n = 2) the del and delbar
    parts drop the (0,2)-term, so the tables would read as the torus's;
    on the non-flat n = 3 equations Bott-Chern at (1,1) would read 4.
    InvariantComplex raises the typed error on every attempt, so no
    EvaluatedComplex, and so no number, exists on either, and no pass
    is stored."""
    alg2 = FormAlgebra(2, PolyRing(0, 0))
    alg3 = FormAlgebra(3, PolyRing(0, 0))
    for error, se in (
        (IntegrabilityError, StructureEquations("not_integrable", alg2, {1: alg2.monomial((), (1, 2))})),
        (FlatnessError, StructureEquations("notflat", alg3, {3: alg3.monomial((1,), (2,)), 2: alg3.monomial((1,), (3,))})),
    ):
        for build in (lambda: InvariantComplex(se), lambda: EvaluatedComplex(InvariantComplex(se), ())) * 2:
            with pytest.raises(error):
                build()
            assert not se.flat, se.name


#: d gamma^2 = t1^3 gamma^1 ^ gammabar^3, d gamma^3 = t1^3 gamma^1 ^
#: gammabar^2 (n = 3, m = 1, truncation 4): every term of d^2 has
#: t-degree 6, so d^2 = 0 modulo the truncation, but at t1 = 1/2
#: d^2 gamma^2 = (1/64) gamma^1 ^ gamma^2 ^ gammabar^1
FLAT_ONLY_MODULO_TRUNCATION = {"n": 3, "m": 1, "truncation": 4, "d": {
    "2": [{"coeff": "t1^3", "factors": ["1", "bar3"]}],
    "3": [{"coeff": "t1^3", "factors": ["1", "bar2"]}],
}}


def test_a_family_flat_only_modulo_its_truncation_gives_no_number(tmp_path, capsys):
    """Equations whose d^2 vanishes over the truncated ring but not at a
    point get no number by any public call: ``require_flat`` passes over
    the ring, InvariantComplex refuses equations with parameters before
    it asks, with ValueError naming the route through a fiber, the fiber
    at t1 = 1/2 raises FlatnessError on gamma^2 (``fiber_complex``), and
    the CLI there exits 1 with one ``error:`` line."""
    se = nio.obj_to_se(FLAT_ONLY_MODULO_TRUNCATION)
    fresh = nio.obj_to_se(FLAT_ONLY_MODULO_TRUNCATION)
    with pytest.raises(ValueError, match="a complex has no parameters.*evaluate_se.*fiber_complex"):
        InvariantComplex(fresh)
    assert not fresh.flat
    se.require_flat()
    with pytest.raises(ValueError, match="evaluate_se.*fiber_complex"):
        InvariantComplex(se)
    for _ in range(2):
        with pytest.raises(FlatnessError, match="d\\^2 gamma\\^2 = .*1/64"):
            fiber_complex(se, None, (GaussianRational(Fraction(1, 2)),))
    path = tmp_path / "truncated.json"
    path.write_text(json.dumps(FLAT_ONLY_MODULO_TRUNCATION))
    assert cli.main(["cohomology", "--manifold", str(path), "--t", "1/2"]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "gamma^2" in lines[0], captured.err
    assert captured.out == ""


def test_flatness_check_leaves_the_tables_as_it_found_them():
    """require_flat keeps none of the degree-2 column tables it
    assembles, pass or fail: fresh iwasawa3 and bcvary10 equations, and
    the t = 0 fiber of each that the complex holds (``evaluate_se``, the
    equations themselves for iwasawa3), hold no table after build_complex
    and full_report (the report reads the complex's rows, never the
    tables), a table assembled before the check stays, the very object,
    and equations the check refuses, with d^2 != 0 or with a (0,2)-part,
    hold none either."""
    for name in ("iwasawa3", "bcvary10"):
        given = catalog_load(name).se
        se = StructureEquations(given.name, given.algebra, given.d_coframe)
        point = zero_point(se.algebra.ring.m)
        fiber = evaluate_se(se, point)
        full_report(EvaluatedComplex(build_complex(fiber), point))
        assert fiber.flat and fiber.tables == {} and se.tables == {}, name
    given = catalog_load("iwasawa3").se
    se = StructureEquations(given.name, given.algebra, given.d_coframe)
    se.apply_d(se.algebra.gamma(3))
    before = dict(se.tables)
    assert list(before) == [("del", 1, 0), ("delbar", 1, 0)]
    se.require_flat()
    assert se.tables.keys() == before.keys() and all(se.tables[k] is v for k, v in before.items())
    alg3 = FormAlgebra(3, PolyRing(0, 0))
    notflat = StructureEquations("notflat", alg3, {3: alg3.monomial((1,), (2,)), 2: alg3.monomial((1,), (3,))})
    with pytest.raises(FlatnessError):
        notflat.require_flat()
    with_02 = StructureEquations("with_02", alg3, {3: alg3.monomial((), (1, 2))})
    with pytest.raises(IntegrabilityError):
        with_02.require_flat()
    assert notflat.tables == with_02.tables == {} and not (notflat.flat or with_02.flat)


def test_stored_matrices_share_one_read_only_empty_row(reference_complexes):
    """On Iwasawa^2 x C after full_report, lemma_report and two
    del-delbar solves, every empty row of every stored matrix (del,
    delbar, ddbar, the adjoints the solves keep, and a stacked matrix
    asked for by name, which the reports never build) and of each build
    of d on the total complex, which is never stored, is the one
    ``EMPTY_ROW``, which refuses a write, and each ddbar equals the
    product that walks every row; the complex keeps only the
    layout of its algebra, the per-size subset table, 2^n subsets,
    and the assembly plans, each a list of one entry per subset of one
    block, so no list or dict per monomial; and the equations hold no
    column table: their flatness check drops the degree-2 tables it
    assembles."""
    cx = next(cx for label, cx, _ in reference_complexes if label == "iwasawa2_c")
    ec = EvaluatedComplex(cx, ())
    full_report(ec)
    lemma_report(ec)
    for pq in ((2, 2), (4, 3)):
        assert ec.ddbar_preimage(*pq, {}) == {}
    assert {key[0] for key in ec._rows} == {"del", "delbar", "ddbar"}
    assert ec.rows("stacked", 2, 2) == ec.rows("del", 2, 2) + ec.rows("delbar", 2, 2)
    stored = list(ec._rows.values()) + [adjoint for adjoint, _ in ec._preimages.values()]
    assert ("stacked", 2, 2) in ec._rows
    totals = [ec.total_d_rows(k) for k in range(2 * cx.n)]
    assert not any(key[0] == "total" for key in ec._rows)
    empty = [r for rows in stored + totals for r in rows if not r]
    assert empty and all(r is EMPTY_ROW for r in empty)
    assert all(type(r) is dict for rows in stored + totals for r in rows if r)
    # ddbar is linalg.mat_mul's product as it stands, with no pass after it
    ddbar = [(key, rows) for key, rows in ec._rows.items() if key[0] == "ddbar"]
    assert ddbar and any(r is EMPTY_ROW for _, rows in ddbar for r in rows)
    for (_, p, q), rows in ddbar:
        assert rows == mat_mul_of_every_row(ec.rows("del", p, q + 1), ec.rows("delbar", p, q))
    with pytest.raises(TypeError):
        empty[0][0] = QI_ONE
    assert EMPTY_ROW == {}
    n = cx.n
    assert set(vars(cx)) == {"se", "algebra", "n", "layout"}
    layout = cx.layout
    assert layout is cx.se.algebra.layout is cx.algebra.constant.layout
    assert sum(map(len, layout.subsets)) == sum(map(len, layout.subset_rank)) == 2 ** n
    assert cx.se.tables == {}
    assert layout.plans
    for (fixed, s, k), plan in layout.plans.items():
        assert type(plan) is list and len(plan) == comb(n - len(fixed) - bool(s), k)
        for src, tgt, odd in plan:
            assert 0 <= src < comb(n, k + bool(s)) and 0 <= tgt < comb(n, k + len(fixed))


def test_subset_ranks_equal_the_monomial_index_oracle(reference_complexes):
    """At every bidegree of the reference complexes, form_to_vec and
    vec_to_form through the subset ranks equal the monomial list and
    index route, key order included, and invert each other."""
    for label, cx, point in reference_complexes:
        ec = EvaluatedComplex(cx, point)
        for p in range(cx.n + 1):
            for q in range(cx.n + 1):
                dense = {i: GaussianRational(i + 1, p - q) for i in range(cx.algebra.dim(p, q))}
                for v in (dense, {i: c for i, c in dense.items() if i % 3 == 1}):
                    form = vec_to_form_by_basis(ec, v, p, q)
                    got = ec.vec_to_form(v, p, q)
                    at = (label, p, q)
                    assert got == form and list(got.coeffs) == list(form.coeffs), at
                    assert ec.form_to_vec(form, p, q) == form_to_vec_by_index(ec, form, p, q) == v, at
                    assert list(ec.form_to_vec(form, p, q)) == list(v), at


def _digest_complexes(reference_complexes):
    """The 16 complexes of ``tests/data/report_digests.json``."""
    return list(reference_complexes) + [(f"H({n},C)", build_complex(heisenberg_c(n)), ()) for n in (3, 5, 7)]


def test_assembly_equals_the_route_it_replaced(reference_complexes, bcvary10):
    """On the 16 digest complexes and the bcvary10 fibers at seeds
    4601-4620, ``Layout.assemble``, handed each term with its negation
    computed once, equals the assembly that negated each term on every
    call and visited every symbol (``oracles.assemble_negating_each_term``):
    every del and delbar matrix of an ``EvaluatedComplex``, and the same
    matrices over the parameter ring from the equations' own terms
    (``StructureEquations.symbol_terms``), rows, key order and entry types
    alike, each empty row the shared ``EMPTY_ROW``."""
    cases = _digest_complexes(reference_complexes)
    cases += [(f"fiber {seed}", build_complex(deform_complex(bcvary10.se, bcvary10.beltrami, point=fiber_point(seed))), ())
              for seed in range(4601, 4621)]
    assert len(cases) == 36
    equations = [(label, cx.se) for label, cx, _ in cases]
    equations += [("bcvary10 over t", bcvary10.se), ("bcvary10 family", deform_complex(bcvary10.se, bcvary10.beltrami))]
    for label, cx, point in cases:
        ec, layout, n = EvaluatedComplex(cx, point), cx.algebra.layout, cx.n
        for op in ("del", "delbar"):
            values = [[(I, J, v) for I, J, v in ((I, J, c.eval(())) for I, J, c in sterms) if v]
                      for sterms in cx.se.symbol_terms(op)]
            for p in range(n + 1):
                for q in range(n + 1):
                    tp, tq = (p + 1, q) if op == "del" else (p, q + 1)
                    if not (ec.dim(p, q) and ec.dim(tp, tq)):
                        continue
                    want = [EMPTY_ROW] * ec.dim(tp, tq)
                    assemble_negating_each_term(layout, want, values, p, q, tq)
                    got = ec.rows(op, p, q)
                    assert _typed_rows(got) == _typed_rows(want), (label, op, p, q)
                    assert [r is EMPTY_ROW for r in got] == [not r for r in got], (label, op, p, q)
    for label, se in equations:
        layout, dim = se.algebra.layout, se.algebra.dim
        for op in ("del", "delbar"):
            symbolic = se.symbol_terms(op)
            for p in range(se.n + 1):
                for q in range(se.n + 1):
                    tp, tq = (p + 1, q) if op == "del" else (p, q + 1)
                    if not (dim(p, q) and dim(tp, tq)):
                        continue
                    want = [EMPTY_ROW] * dim(tp, tq)
                    assemble_negating_each_term(layout, want, symbolic, p, q, tq)
                    got = [EMPTY_ROW] * dim(tp, tq)
                    layout.assemble(got, [[(I, J, c, -c) for I, J, c in sterms] for sterms in symbolic], p, q, tq)
                    assert _typed_rows(got) == _typed_rows(want), (label, "symbolic", op, p, q)


def test_report_tables_equal_the_cell_by_cell_reads(reference_complexes):
    """On the 16 digest complexes and solvable3, which is not unimodular,
    full_report's tables and Betti numbers, read off its rank tables
    (``EvaluatedComplex.rank_table``), equal the four numbers of
    ``cohomology`` and betti read cell by cell from ``ec.rank`` on a
    complex of their own (``oracles.report_tables_by_cells``), and
    the two complexes end with the same rank cache and marks of d, and
    the same kept deldelbar echelons: the same member of each star pair
    is eliminated.  Then lemma_report on every bidegree, which reads its
    verdicts off rank tables, equals the verdicts at one bidegree at a
    time (the same report asked about every bidegree, each of them
    through mild, dual mild and ``_strong_holds``), witnesses included,
    both after full_report and on a new complex, and on the new complex
    the two keep the same deldelbar echelons from inside 0..n-1."""
    cases = _digest_complexes(reference_complexes) + [("solvable3", build_complex(nio.obj_to_se(SOLVABLE)), ())]
    for label, cx, point in cases:
        n = cx.n
        ec, cells = EvaluatedComplex(cx, point), EvaluatedComplex(cx, point)
        report = full_report(ec)
        tables, betti_numbers = report_tables_by_cells(cells)
        assert tables == {"dolbeault": report.h_dolbeault, "del": report.h_del,
                          "bott_chern": report.h_bc, "aeppli": report.h_a}, label
        assert betti_numbers == report.betti, label
        assert ec._ranks == cells._ranks and ec._marks == cells._marks, label
        assert set(ec._echelons) == set(cells._echelons), label
        bidegrees = [(p, q) for p in range(n + 1) for q in range(n + 1)]
        fresh = (EvaluatedComplex(cx, point), EvaluatedComplex(cx, point))
        for every, one_by_one in ((ec, cells), fresh):
            got, want = lemma_report(every), lemma_report(one_by_one, bidegrees)
            assert got.standard_flag is not None and want.standard_flag is None, label
            for kind in ("mild_flags", "dual_mild_flags", "strong_flags", "weak_flags"):
                assert getattr(got, kind) == getattr(want, kind), (label, kind)
            standard = {k: w for k, w in got.witnesses.items() if k.startswith("standard:")}
            assert {**want.witnesses, **standard} == got.witnesses, label
            for p, q in bidegrees:
                assert got.mild_flags[p, q] == lemmata._mild_holds(one_by_one, "del", p, q), (label, p, q)
                assert got.strong_flags[p, q] == lemmata._strong_holds(one_by_one, p, q), (label, p, q)
        inside = [{k for k in e._echelons if k[0] == "ddbar" and max(k[1:]) < n} for e in fresh]
        assert inside[0] == inside[1], label


class _UnreadableRow(Mapping):
    """A read-only empty mapping that is falsy and may be compared by
    identity, but not read: its items, keys, values and iteration raise."""

    def __len__(self):
        return 0

    def __getitem__(self, key):
        raise KeyError(key)

    def __iter__(self):
        raise AssertionError("an empty row was iterated")

    def keys(self):
        raise AssertionError("the keys of an empty row were read")

    def items(self):
        raise AssertionError("the items of an empty row were read")

    def values(self):
        raise AssertionError("the values of an empty row were read")


def test_no_kernel_reads_an_empty_row(monkeypatch, reference_complexes, bcvary10):
    """Every walker over rows tests a row for emptiness before it reads
    it: with the shared ``EMPTY_ROW`` swapped, in every module that
    holds it, for a mapping whose items, keys and iteration raise
    (``_UnreadableRow``), before any evaluated complex is built,
    full_report and lemma_report on the 16 digest complexes and a
    bcvary10 fiber, an extension solve of a (4,5) generator at t = 0 and
    the p-Kaehler extension of the catalog's balanced form all run."""
    unreadable = _UnreadableRow()
    for module in (leibniz, linalg, algebra, importlib.import_module("nilforms.cohomology")):
        monkeypatch.setattr(module, "EMPTY_ROW", unreadable)
    cases = _digest_complexes(reference_complexes)
    cases.append(("fiber 4601", build_complex(deform_complex(bcvary10.se, bcvary10.beltrami, point=fiber_point(4601))), ()))
    for label, cx, point in cases:
        ec = EvaluatedComplex(cx, point)
        full_report(ec)
        lemma_report(ec)
        assert any(r is unreadable for r in ec.rows("ddbar", 1, 1)), label
    ec0 = EvaluatedComplex(build_complex(evaluate_se(bcvary10.se, zero_point(4))), ())
    omega0 = ec0.vec_to_form(ec0.kernel("stacked", 4, 5)[0], 4, 5, bcvary10.se.algebra)
    assert solve_extension(bcvary10.se, bcvary10.beltrami, omega0, ec0=ec0).d_closed_through_order
    assert pkahler_extend(bcvary10.se, bcvary10.beltrami, bcvary10.forms["balanced"]).state.d_closed_through_order
