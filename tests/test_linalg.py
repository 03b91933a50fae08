from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilforms import io as nio
from nilforms import linalg
from nilforms.algebra import build_complex
from nilforms.catalog import catalog_load
from nilforms.deformation import deform_complex
from nilforms.cohomology import EvaluatedComplex, full_report, zero_point
from nilforms.leibniz import EMPTY_ROW
from nilforms.lemmata import lemma_report
from nilforms.linalg import Echelon
from nilforms.scalars import QI_MINUS_ONE, QI_ONE, DetRng, GaussianRational, QI

from conftest import heisenberg_c
from oracles import (
    FullScanEchelon,
    column_list,
    completed_rref,
    complex_rank,
    dense_rank,
    dense_to_rows,
    extend_by_set_test,
    fiber_point,
    full_scan_kernel,
    generic_reduce_meeting,
    hermitian_pivots_ldl,
    mat_mul_of_every_row,
    negated,
    negating_span_intersection,
    nonzero_gaussian,
    nullspace,
    realify_dense,
    realify_span,
    realify_span_by_products,
    realify_vec,
    relations_modulo,
    residues,
    rows_from_columns,
    rows_to_dense,
    solve_dense,
    span_intersection,
    vec_add,
    vec_scale,
)


def _random_rows(rng, nrows, ncols, density=3):
    rows = []
    for _ in range(nrows):
        row = {}
        for _ in range(density):
            row[rng.next_int(ncols)] = nonzero_gaussian(rng, 4)
        rows.append(row)
    return rows


def _dense(rows, ncols):
    return rows_to_dense(rows, ncols)


def test_rank_matches_dense_oracle():
    rng = DetRng(3)
    for trial in range(25):
        nrows, ncols = rng.next_int(6) + 1, rng.next_int(6) + 1
        rows = _random_rows(rng, nrows, ncols)
        assert linalg.forward_echelon(rows).rank == complex_rank(_dense(rows, ncols))


def test_nullspace_is_kernel_and_complete():
    rng = DetRng(5)
    for trial in range(20):
        nrows, ncols = rng.next_int(5) + 1, rng.next_int(6) + 1
        rows = _random_rows(rng, nrows, ncols)
        basis = nullspace(rows, ncols)
        for v in basis:
            assert not linalg.mat_vec(rows, v)
        assert len(basis) == ncols - linalg.forward_echelon(rows).rank
        assert linalg.forward_echelon(basis).rank == len(basis)


@pytest.mark.parametrize("field", ["QI", "Q"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relations_modulo_equal_the_nullspace_relations(field, seed):
    """relations_modulo(base, vectors) gives, in order, the vector part of
    each RREF nullspace relation of [base | -vectors] at a free vector
    column, and nothing for those at free base columns, whose vector part
    is empty; each c is 1 at its own vector and puts sum c_t v_t in
    span(base)."""
    rng = DetRng(1100 + 10 * seed + len(field))
    ncols = 6 + rng.next_int(10)
    pool = _sparse_inputs(rng, field, ncols + ncols // 2, ncols)
    base, vectors = pool[:ncols // 2], pool[ncols // 2:]
    cols = base + [negated(v) for v in vectors]
    want = []
    for rel in nullspace(rows_from_columns(cols, ncols), len(cols)):
        if max(rel) >= len(base):  # its free column is that of a vector
            want.append({k - len(base): c for k, c in rel.items() if k >= len(base)})
    got = list(relations_modulo(base, vectors, ncols))
    assert got == want and len(got) > 1
    span = linalg.forward_echelon(base)
    for c in got:
        w = {}
        for t, x in c.items():
            linalg.add_scaled_into(w, x, vectors[t])
        assert c[max(c)] == 1 and not residues(span, [w])[0]


def _combination(vecs, z):
    out = {}
    for k, c in z.items():
        linalg.add_scaled_into(out, c, vecs[k])
    return out


def test_echelon_membership_and_combo():
    """A forward echelon that tracks its rows finds the combination of
    the tracked vectors that gives a member of their span, and None for
    a vector outside it; insert and contains agree with it."""
    rng = DetRng(9)
    vecs = [_random_rows(rng, 1, 5)[0] for _ in range(4)]
    e, plain = Echelon({}), Echelon({})
    for j, v in enumerate(vecs):
        assert (e.track(v, j, 5) is None) == plain.insert(v)
    target = _combination(vecs, {0: QI(2), 2: QI(0, 1)})
    sol = e.solve(target, 5)
    assert sol is not None and _combination(vecs, sol) == target
    assert plain.contains(target)
    outside = next({k: QI(1)} for k in range(5) if not plain.contains({k: QI(1)}))
    assert e.solve(outside, 5) is None


def _sparse_inputs(rng, field, count, ncols):
    """Seeded sparse vectors over Q(i), or over real Q(i) for the field
    "Q" (the values of realified vectors): about a sixth empty, about a
    third combinations of earlier ones (so dependent inserts are
    exercised), and the rest led, at a drawn column with entries only to
    its right, by 1, by -1 or by a drawn scalar, in equal shares."""
    one = QI(1)

    def draw():
        if field == "Q":
            return QI(rng.rational(4) or 1)
        return nonzero_gaussian(rng, 4)

    vecs = []
    for _ in range(count):
        roll = rng.next_int(6)
        if roll == 0:
            v = {}
        elif roll <= 2 and len(vecs) >= 2:
            v = {}
            for _ in range(1 + rng.next_int(3)):
                v = vec_add(v, vec_scale(vecs[rng.next_int(len(vecs))], draw()))
        else:
            lead = rng.next_int(ncols)
            v = {lead: draw() if roll == 3 else one if roll == 4 else -one}
            for _ in range(rng.next_int(4)):
                v[lead + rng.next_int(ncols - lead)] = draw()
        vecs.append(v)
    return vecs


def _typed(v):
    """Entries with their types: an equal value of another type, such as
    an int, a Fraction or a float, is a difference."""
    return [(k, type(x), x) for k, x in v.items()]


def _assert_real_qi(vecs):
    for v in vecs:
        for x in v.values():
            assert type(x) is GaussianRational and not x.im, v


def _real(*values):
    return [{k: QI(x) for k, x in v.items()} for v in values]


def test_int_leads_divide_exactly():
    """Gaussian integers realified by the oracle (``realify_vec``) are
    real Gaussian-integer vectors, a part of 1 the shared ``QI_ONE``.  A lead of 2 or -3 is divided
    exactly where the kernel reads an RREF column, so after each insert
    the RREF of the stored rows (``completed_rref``) and the kernel equal
    the full-scan oracle's, the kernel read leaves each stored row the
    same object, a tracked forward solve gives the vector back, and every
    entry is a real Gaussian rational."""
    vecs = [realify_vec({0: QI(2), 1: QI(1, 3)})] + _real(
        {1: -3, 2: 1, 4: 2},
        {0: 2, 1: -3, 2: 7, 3: 3},
        {2: 4, 3: -1},
        {1: -3, 2: 5, 3: -1, 4: 2},  # the second plus the fourth
    )
    assert vecs[0] == {0: 2, 2: 1, 3: 3} and vecs[0][2] is QI_ONE
    _assert_real_qi(vecs[:1])
    fast, slow = Echelon({}), FullScanEchelon()
    for v in vecs:
        assert fast.insert(v) == slow.insert(v)
        stored = dict(fast.pivots)
        kernel = list(fast.kernel(5))
        assert all(fast.pivots[p] is row for p, row in stored.items()) and len(fast.pivots) == len(stored)
        assert completed_rref(fast) == slow.pivots
        _assert_real_qi(fast.pivots.values())
        if v is vecs[0]:
            assert fast.pivots[0] is vecs[0]
            assert completed_rref(fast)[0] == {0: 1, 2: QI(Fraction(1, 2)), 3: QI(Fraction(3, 2))}
        assert kernel == full_scan_kernel(slow.pivots, 5)
        _assert_real_qi(kernel)
    assert fast.rank == 4
    assert len(kernel) == 1 and len(kernel[0]) > 2
    tracked = Echelon({})
    relations = [tracked.track(v, j, 5) for j, v in enumerate(vecs)]
    assert relations[:4] == [None] * 4 and relations[4] is not None
    _assert_real_qi([relations[4]] + list(tracked.pivots.values()))
    target = _combination(vecs, {0: QI(1), 2: QI(1), 1: QI(Fraction(-1, 2))})
    z = tracked.solve(target, 5)
    _assert_real_qi([z])
    assert _combination(vecs, z) == target
    x = linalg.solve_square(_real({0: 2}, {0: 1, 1: -3}), _real({0: 1, 1: 1}))
    assert x == [{0: QI(Fraction(2, 3)), 1: QI(Fraction(-1, 3))}]
    _assert_real_qi(x)


#: leads of every kind the kernel tells apart: +-1 (no division), +-i,
#: other Gaussian integers, real ones, and non-integral ones
_LEADS = {
    "1": st.just(QI(1)),
    "-1": st.just(QI(-1)),
    "i": st.sampled_from([QI(0, 1), QI(0, -1)]),
    "gaussian integer": st.builds(QI, st.integers(-5, 5), st.integers(1, 5)),
    "real": st.builds(lambda a, d: QI(Fraction(a, d)), st.integers(-9, 9).filter(bool), st.integers(1, 6)),
    "non-integral": st.builds(lambda a, b, d: QI(Fraction(a, d), Fraction(b, d)), st.integers(-5, 5), st.integers(1, 5), st.integers(2, 6)),
}
_ENTRIES = st.one_of(*_LEADS.values())


@st.composite
def _qi_rows(draw):
    """(rows, probes, ncols, split): sparse Q(i) rows, each led at a drawn
    column by a lead of a drawn kind (``_LEADS``) with entries to its
    right, and some combinations of two earlier rows, which cancel to
    nothing; the probes are drawn rows and combinations too."""
    ncols = draw(st.integers(3, 9))
    rows = []

    def row():
        if len(rows) >= 2 and draw(st.integers(0, 3)) == 0:
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            v = vec_scale(rows[i], draw(_ENTRIES))
            linalg.add_scaled_into(v, draw(_ENTRIES), rows[j])
            return v
        lead = draw(st.integers(0, ncols - 1))
        v = {lead: draw(_LEADS[draw(st.sampled_from(sorted(_LEADS)))])}
        if lead + 1 < ncols:
            for k in draw(st.lists(st.integers(lead + 1, ncols - 1), max_size=3)):
                v[k] = draw(_ENTRIES)
        return v

    for _ in range(draw(st.integers(1, 12))):
        rows.append(row())
    probes = [row() for _ in range(draw(st.integers(1, 4)))]
    return rows, probes, ncols, draw(st.integers(0, len(rows)))


def _observe(rows, probes, ncols, split):
    """Everything an Echelon gives for the rows: stored rows (entries in
    order), leads and marks of two extends, residues of the probes,
    tracked relations and solves, the kernel vectors and the rows of
    the RREF of the stored rows (``completed_rref``); each entry with
    its type."""
    def typed(v):
        return None if v is None else _typed(v)

    e = Echelon({}).extend(rows[:split]).extend(rows[split:])
    out = {"stored": [(p, typed(r)) for p, r in e.pivots.items()], "marks": e.marks}
    out["leads"] = [typed({p: r[p]}) for p, r in e.pivots.items()]
    out["residues"] = [typed(r) for r in residues(e, probes)]
    t = Echelon({})
    out["track"] = [typed(t.track(v, j, ncols)) for j, v in enumerate(rows)]
    out["solve"] = [typed(t.solve(v, ncols)) for v in probes + rows]
    out["kernel"] = [typed(x) for x in e.kernel(ncols)]
    out["completed"] = [(p, typed(r)) for p, r in completed_rref(e).items()]
    return out


@given(_qi_rows())
@settings(max_examples=200, deadline=None)
def test_fused_kernel_equals_the_generic_elimination(case):
    """The elimination kernel on the (a, b, d) ints gives, value for value
    and type for type, what the generic step through the scalar methods
    gives (``oracles.generic_reduce_meeting``): the stored rows, leads
    and marks, the residues, the tracked relations and solves, the
    kernel vectors and the rows of the RREF of the stored rows."""
    got = _observe(*case)
    with mock.patch.object(linalg, "_reduce_meeting", generic_reduce_meeting):
        want = _observe(*case)
    assert got == want
    assert all(type(x) is GaussianRational for _, row in got["stored"] for _, _, x in row)


def test_one_entry_reductions_equal_the_general_loop(reference_complexes, bcvary10):
    """``_reduce_meeting`` answers a one-entry vector at a one-entry row
    with {} at once, and starts its loop from any other one-entry vector
    with no filter, copy or heapify.  On the reference complexes and on
    the bcvary10 fibers at seeds 4601-4620, full_report and then
    lemma_report store, in every echelon they build, in order, the rows
    (entries, key order and types) and the marks that the general loop
    (``oracles.generic_reduce_meeting``) stores.  Both kinds of one-entry
    vector occur, each at rows led by +-1 and at rows led by another
    scalar."""
    init, reduce_meeting = Echelon.__init__, linalg._reduce_meeting
    built, seen = [], Counter()

    def recording(self, pivots):
        init(self, pivots)
        built.append(self)

    def counting(pivots, v):
        if len(v) == 1:
            k = next(iter(v))
            lead = pivots[k][k]
            seen["one row" if len(pivots[k]) == 1 else "loop", lead == 1 or lead == -1] += 1
        return reduce_meeting(pivots, v)

    def observed(cx, point):
        built.clear()
        ec = EvaluatedComplex(cx, point)
        full_report(ec)
        lemma_report(ec)
        return [([(p, [(k, x, type(x)) for k, x in row.items()]) for p, row in e.pivots.items()], e.marks) for e in built]

    cases = [(label, cx, point) for label, cx, point in reference_complexes]
    cases += [(f"fiber {seed}", build_complex(deform_complex(bcvary10.se, bcvary10.beltrami, point=fiber_point(seed))), ())
              for seed in range(4601, 4621)]
    with mock.patch.object(Echelon, "__init__", recording):
        for label, cx, point in cases:
            with mock.patch.object(linalg, "_reduce_meeting", counting):
                got = observed(cx, point)
            with mock.patch.object(linalg, "_reduce_meeting", generic_reduce_meeting):
                want = observed(cx, point)
            assert got and got == want, label
    assert all(seen[kind, unit] for kind in ("one row", "loop") for unit in (True, False)), seen


#: the paths of a nonempty row through ``Echelon.extend``
_EXTEND_PATHS = ("new", "one-entry lead", "longer lead", "several")


def _tally_paths(paths, probe, rows):
    """Count in paths the path each nonempty row takes as it is fed to
    probe, one at a time, through the oracle: one entry at a new column,
    at a lead whose row holds one entry or at a lead whose row holds
    more, or several entries."""
    for v in filter(None, rows):
        if len(v) > 1:
            paths["several"] += 1
        else:
            k, = v
            paths["new" if k not in probe.pivots else "one-entry lead" if len(probe.pivots[k]) == 1 else "longer lead"] += 1
        extend_by_set_test(probe, [v])


def _one_entry_blocks(rng, ncols):
    """Seeded blocks, about three rows in four of one entry, the others
    empty (a dict or ``EMPTY_ROW``) or of two to four entries, each
    entry 1, -1, i or a non-integral scalar, the keys drawn from few
    columns, so that keys repeat inside a block."""
    values = [QI(1), QI(-1), QI(0, 1), QI(Fraction(2, 3), Fraction(-1, 5))]
    blocks = []
    for _ in range(1 + rng.next_int(4)):
        block = []
        for _ in range(rng.next_int(2 * ncols)):
            roll = rng.next_int(12)
            if roll < 9:
                block.append({rng.next_int(ncols): values[rng.next_int(4)]})
            elif roll == 9:
                block.append({} if rng.next_int(2) else EMPTY_ROW)
            else:
                keys = sorted({rng.next_int(ncols) for _ in range(2 + rng.next_int(3))})
                block.append({k: values[rng.next_int(4)] for k in keys})
        blocks.append(block)
    return blocks


def _assert_extends_alike(got, want, fed):
    """got and want hold the same leads in the same order, and the same
    marks; a row stored by reference (a vector fed, or a row held before)
    is the very object on both sides, and any other row is a new dict on
    both, equal entry for entry, in key order and with the same types."""
    assert list(got.pivots) == list(want.pivots)
    assert got.marks == want.marks
    ids = {id(v) for v in fed}
    for p, row in want.pivots.items():
        mine = got.pivots[p]
        if id(row) in ids:
            assert mine is row, p
        else:
            assert id(mine) not in ids and _typed(mine) == _typed(row), p


@pytest.mark.parametrize("seed", range(1, 9))
def test_one_entry_rows_extend_as_the_set_test_does(seed):
    """Seeded blocks dominated by one-entry rows (at a new column, at a
    lead whose row holds one entry and at a lead whose row holds more,
    with keys repeated inside a block), fed through ``Echelon.extend``
    and through the loop with no one-entry path
    (``oracles.extend_by_set_test``), store the same rows, by reference
    where the oracle does, in the same order, with the same marks."""
    rng = DetRng(5500 + seed)
    paths, repeats = Counter(), 0
    for _ in range(6):
        ncols = 3 + rng.next_int(10)
        blocks = _one_entry_blocks(rng, ncols)
        got, want, probe = Echelon({}), Echelon({}), Echelon({})
        for block in blocks:
            _tally_paths(paths, probe, block)
            keys = Counter(k for v in block if len(v) == 1 for k in v)
            repeats += any(c > 1 for c in keys.values())
            got.extend(block)
            extend_by_set_test(want, block)
            _assert_extends_alike(got, want, [v for b in blocks for v in b])
    assert all(paths[path] for path in _EXTEND_PATHS), paths
    assert repeats, seed


def test_one_entry_rows_extend_as_the_set_test_does_in_the_reports(reference_complexes, bcvary10):
    """On the 16 complexes of ``tests/data/report_digests.json`` and the
    bcvary10 fibers at seeds 4601-4620, every block that full_report and
    then lemma_report feed ``Echelon.extend`` (each total pass among
    them), and every matrix of ``rows`` and of ``total_d_rows`` fed
    whole to a new echelon, leave the same echelon as the loop with no
    one-entry path (``oracles.extend_by_set_test``) given the same rows
    and marks before: rows by reference where the oracle stores them so,
    in the same order, with the same marks.  Every path of a one-entry
    row occurs."""
    extend, paths = Echelon.extend, Counter()

    def checking(self, vectors):
        vectors = list(vectors)
        before = Echelon(dict(self.pivots))
        before.marks = list(self.marks)
        fed = list(self.pivots.values()) + vectors
        extend(self, vectors)
        _assert_extends_alike(self, extend_by_set_test(before, vectors), fed)
        return self

    cases = list(reference_complexes)
    cases += [(f"H({n},C)", build_complex(heisenberg_c(n)), ()) for n in (3, 5, 7)]
    cases += [(f"fiber {seed}", build_complex(deform_complex(bcvary10.se, bcvary10.beltrami, point=fiber_point(seed))), ())
              for seed in range(4601, 4621)]
    assert len(cases) == 36
    for label, cx, point in cases:
        ec = EvaluatedComplex(cx, point)
        with mock.patch.object(Echelon, "extend", checking):
            full_report(ec)
            lemma_report(ec)
        n = cx.n
        matrices = [ec.rows(op, p, q) for op in ("del", "delbar", "ddbar", "stacked")
                    for p in range(n + 1) for q in range(n + 1) if ec.dim(p, q)]
        matrices += [ec.total_d_rows(k) for k in range(2 * n)]
        for rows in matrices:
            _tally_paths(paths, Echelon({}), rows)
            _assert_extends_alike(Echelon({}).extend(rows), extend_by_set_test(Echelon({}), rows), rows)
    assert all(paths[path] for path in _EXTEND_PATHS), paths


def _insert_kind(slow, v):
    """Which kind of vector an insert meets: empty, dependent, or reduced
    to a lead of 1, of -1 or of another scalar."""
    if not v:
        return "empty"
    w, _ = slow.reduce(v)
    if not w:
        return "dependent"
    lead = w[min(w)]
    return "1" if lead == 1 else "-1" if lead == -1 else "other"


def _assert_completed_equals(fast, slow):
    """The RREF of the stored rows (``completed_rref``) is the oracle's,
    pivot for pivot in the order found, entry for entry with the field's
    types."""
    rref = completed_rref(fast)
    assert list(rref) == list(slow.pivots)
    for p, row in slow.pivots.items():
        assert sorted(_typed(rref[p])) == sorted(_typed(row))


def _read_kernel(e, ncols, meets=None):
    """The kernel of e, read column by column, and checked to leave each
    stored row the very object it was and with the entries it had."""
    stored = {p: (row, list(row.items())) for p, row in e.pivots.items()}
    kernel = list(e.kernel(ncols, meets=meets))
    assert list(e.pivots) == list(stored)
    for p, (row, items) in stored.items():
        assert e.pivots[p] is row and list(row.items()) == items, p
    return kernel


@pytest.mark.parametrize("field", ["QI", "Q"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_echelon_equals_full_scan_oracle(field, seed):
    """Seeded sparse vectors (empty, dependent, and led by 1, -1 and
    other scalars) fed one at a time: each insert enlarges the span when
    the full-scan RREF's does, with the same pivots in the same order,
    and the kernel read after it, column by column from the stored rows
    (again after each insert), equals the oracle's in keys, key order,
    values and types, changes no stored row, and the RREF of the stored
    rows is the oracle's."""
    rng = DetRng(100 * seed + len(field))
    ncols = 6 + rng.next_int(14)
    vecs = _sparse_inputs(rng, field, 3 * ncols, ncols)
    fast, slow = Echelon({}), FullScanEchelon()
    kinds = set()
    for v in vecs:
        kinds.add(_insert_kind(slow, v))
        assert fast.insert(v) == slow.insert(v)
        assert list(fast.pivots) == list(slow.pivots)
        kernel = _read_kernel(fast, ncols)
        _assert_completed_equals(fast, slow)
        expected = full_scan_kernel(slow.pivots, ncols)
        assert [_typed(x) for x in kernel] == [_typed(x) for x in expected]
    assert kinds == {"empty", "dependent", "1", "-1", "other"}


@pytest.mark.parametrize("field", ["QI", "Q"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kernel_meeting_a_set_equals_the_full_kernel_filtered(field, seed):
    """Seeded sparse vectors (empty, dependent, and led by 1, -1 and
    other scalars) fed through ``extend`` in blocks: the leads, their
    order and ``marks`` are the full-scan RREF's, and a vector that meets
    no lead is stored as it is, by reference.  After each block, the
    kernel read column by column from the stored rows, changing none of
    them, is the full-scan oracle's kernel, and the kernel read given a
    support test (membership in an empty set, the pivot columns, the
    free columns, drawn sets, all columns and a dict's key view, and a
    test of the index) yields exactly the oracle's vectors with a key
    that passes it, in order, in keys, key order, values and types,
    having tested the keys of each oracle vector in order up to the
    first that passes."""
    rng = DetRng(2100 + 10 * seed + len(field))
    ncols = 6 + rng.next_int(14)
    vecs = _sparse_inputs(rng, field, 3 * ncols, ncols)
    fast, slow = Echelon({}), FullScanEchelon()
    kinds, by_reference, filtered = set(), 0, 0
    for start in range(0, len(vecs), 5):
        block, misses = vecs[start:start + 5], []
        for v in block:
            kinds.add(_insert_kind(slow, v))
            if v and slow.pivots.keys().isdisjoint(v):
                misses.append(v)
            slow.insert(v)
        fast.extend(block)
        assert list(fast.pivots) == list(slow.pivots) and fast.marks[-1] == len(slow.pivots)
        assert all(fast.pivots[min(v)] is v for v in misses)
        by_reference += len(misses)
        expected = full_scan_kernel(slow.pivots, ncols)
        assert [_typed(x) for x in _read_kernel(fast, ncols)] == [_typed(x) for x in expected]
        pivots = set(fast.pivots)
        sets = [set(), pivots, set(range(ncols)) - pivots, set(range(ncols)), {k: 0 for k in pivots}.keys()]
        sets += [{k for k in range(ncols) if rng.next_int(4) == 0} for _ in range(4)]
        for test in [m.__contains__ for m in sets] + [lambda k: k % 3 == 1]:
            asked = []
            got = _read_kernel(fast, ncols, meets=lambda k: asked.append(k) or test(k))
            want, tested = [], []
            for x in expected:
                for k in x:
                    tested.append(k)
                    if test(k):
                        want.append(x)
                        break
            assert [_typed(x) for x in got] == [_typed(x) for x in want]
            assert asked == tested
            filtered += len(expected) - len(want)
    assert kinds == {"empty", "dependent", "1", "-1", "other"}
    assert by_reference and filtered


@pytest.mark.parametrize("field", ["QI", "Q"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tracked_solve_equals_full_scan_oracle(field, seed):
    """A forward echelon of seeded sparse vectors (empty, dependent, and
    led by 1, -1 and other scalars), each tracked, solves exactly the
    probes that the tracked full-scan RREF solves: its combination gives
    the probe back, entry for entry and in the field's types, and it
    returns None for every other probe.  Its relations are those of
    relations_modulo with no base."""
    rng = DetRng(1300 + 10 * seed + len(field))
    ncols = 6 + rng.next_int(14)
    vecs = _sparse_inputs(rng, field, 2 * ncols, ncols)
    fast, slow = Echelon({}), FullScanEchelon(track=True)
    relations = []
    for j, v in enumerate(vecs):
        c = fast.track(v, j, ncols)
        assert (c is None) == slow.insert(v)
        if c is not None:
            relations.append(c)
    assert list(fast.pivots) == list(slow.pivots)
    assert relations == list(relations_modulo([], vecs, ncols))
    probes = _sparse_inputs(rng, field, 12, ncols) + vecs[:4]
    probes += [_combination(vecs, {j: x for j, x in enumerate(p.values())}) for p in probes[:6]]
    solved = 0
    for v in probes:
        got, want = fast.solve(v, ncols), slow.solve_combo(v)
        assert (got is None) == (want is None)
        if want is not None:
            solved += 1
            assert _combination(vecs, got) == v == _combination(vecs, want)
            assert all(type(x) is GaussianRational for x in got.values())
    assert 0 < solved < len(probes)


@pytest.mark.parametrize("field", ["QI", "Q"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_forward_echelon_equals_echelon(field, seed):
    """The forward echelon of seeded sparse vectors (empty, repeated,
    negated and dependent ones, leads of 1, -1 and other scalars) has the
    rank and the pivots, in order, of the full-scan RREF; each row is
    led by its pivot and is 0 at the pivots found before it; no input
    changes, neither by the elimination nor by the kernel read, which
    leaves each stored row the same object; the RREF of its rows
    (``completed_rref``) is the oracle's, entry for entry, and its kernel
    equals the oracle's kernel; and residues, before and after the
    kernel read, vanish exactly on the span and agree with the oracle's
    reduction."""
    rng = DetRng(300 * seed + len(field))
    ncols = 6 + rng.next_int(14)
    vecs = _sparse_inputs(rng, field, 3 * ncols, ncols)
    for i in range(0, len(vecs), 4):
        vecs.insert(rng.next_int(len(vecs)), vecs[i])
        vecs.insert(rng.next_int(len(vecs)), negated(vecs[i + 1]))
    before = [list(v.items()) for v in vecs]
    slow = FullScanEchelon()
    for v in vecs:
        slow.insert(v)
    fe = linalg.forward_echelon(vecs)
    assert [list(v.items()) for v in vecs] == before
    assert fe.rank == len(slow.pivots) and list(fe.pivots) == list(slow.pivots)
    leads = [row[p] for p, row in fe.pivots.items()]
    assert {1, -1} <= set(leads) and any(lead not in (1, -1) for lead in leads)
    seen = set()
    for p, row in fe.pivots.items():
        assert min(row) == p and not seen & set(row)
        seen.add(p)
    probes = _sparse_inputs(rng, field, 12, ncols) + vecs[:6]
    for completed in (False, True):
        if completed:
            kernel = _read_kernel(fe, ncols)
            assert [list(v.items()) for v in vecs] == before
            _assert_completed_equals(fe, slow)
            expected = full_scan_kernel(slow.pivots, ncols)
            assert [_typed(x) for x in kernel] == [_typed(x) for x in expected]
        for v, residue in zip(probes, residues(fe, probes)):
            want = slow.reduce(v)[0]
            assert residue == want
            assert (not residue) == fe.contains(v) == (not want)


def test_columns_vec_equals_mat_vec():
    rng = DetRng(17)
    for _ in range(30):
        nrows, ncols = rng.next_int(7) + 1, rng.next_int(7) + 1
        rows = _random_rows(rng, nrows, ncols, density=rng.next_int(4))
        cols = {}
        for i, r in enumerate(rows):
            for j, c in r.items():
                cols.setdefault(j, {})[i] = c
        x = {rng.next_int(ncols): nonzero_gaussian(rng, 3) for _ in range(rng.next_int(4))}
        got = linalg.columns_vec(cols, x)
        assert list(got.items()) == list(linalg.mat_vec(rows, x).items())
    # cancellation drops the entry, as mat_vec does
    one = QI(1)
    assert linalg.columns_vec({0: {0: one}, 1: {0: -one}}, {0: one, 1: one}) == {}


def test_span_intersection():
    one = QI(1)
    a = [{0: one}, {1: one}]
    b = [{1: one, 2: one}, {0: one, 1: one}]
    meet = span_intersection(a, b)
    # span(a) = <e0,e1>, span(b) = <e1+e2, e0+e1>; intersection = <e0+e1>
    assert len(meet) == 1
    assert linalg.forward_echelon(a).contains(meet[0])
    assert linalg.forward_echelon(b).contains(meet[0])


@pytest.mark.parametrize("field", ["QI", "Q"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_span_intersection_equals_negating_oracle(field, seed):
    rng = DetRng(700 + 10 * seed + len(field))
    ncols = 5 + rng.next_int(6)
    a = [v for v in _sparse_inputs(rng, field, 2 + rng.next_int(5), ncols) if v]
    b = _sparse_inputs(rng, field, 2 + rng.next_int(4), ncols)
    # one b vector lies in span(a), so the intersection is not zero
    b = [v for v in b + [vec_add(a[0], a[-1])] if v]
    got = span_intersection(a, b)
    expected = negating_span_intersection(a, b)
    assert got and [_typed(v) for v in got] == [_typed(v) for v in expected]


@pytest.mark.parametrize("field", ["QI", "Q"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_add_scaled_into_equals_copying_sum(field, seed):
    """Accumulating c*v in place gives the entries, key order and types of
    u = vec_add(u, vec_scale(v, c)), cancellations and re-added keys too."""
    rng = DetRng(900 + 10 * seed + len(field))
    vecs = [v for v in _sparse_inputs(rng, field, 12, 8) if v]
    zero = QI(0)
    copied, inplace = {}, {}
    for step in range(40):
        v = vecs[rng.next_int(len(vecs))]
        # every fifth step cancels the running sum at the keys of v
        c = nonzero_gaussian(rng, 3) if field == "QI" else QI(rng.rational(3) or 1)
        if step % 5 == 4 and copied:
            v, c = dict(copied), -(c / c)
        if step == 7:
            c = zero
        copied = vec_add(copied, vec_scale(v, c))
        linalg.add_scaled_into(inplace, c, v)
        assert _typed(inplace) == _typed(copied), step


def test_unit_leads_divide_nothing(monkeypatch):
    """On Iwasawa x C at t = 0 every reduced row is led by 1 or -1, so
    no rank takes a Q(i) division; a lead of 2 divides once, where the
    kernel reads the one RREF column that meets its row, and never on
    insert, and the stored row stays the vector inserted, while the
    oracle's RREF of it (``completed_rref``) is divided by the lead.  Each lead is
    found by exactly one ``extend``: the pass that reads the stacked rank
    finds del's leads, which give del's rank, and then the delbar ones;
    delbar's ranks are read through the Hodge star from those passes,
    but for the two at the center of this even n = 4, (2,2) and (2,1),
    which have passes of their own; and a deldelbar rank is read from
    its kept echelon, which gives its star dual's rank too.  full_report
    indexes the columns of no echelon (``Echelon._column_index``, which
    the first kernel read runs), and lemma_report indexes only cached
    matrix echelons, each once: a second call indexes none."""
    obj = nio.se_to_obj(catalog_load("iwasawa3").se)
    obj["n"] += 1  # abelian_1: one more closed coframe element
    se = nio.obj_to_se(obj)
    cx = build_complex(se)
    ec = EvaluatedComplex(cx, zero_point(se.algebra.ring.m))
    divisions, leads = [], []

    def counted(div):
        def wrapper(a, b):
            divisions.append(b)
            return div(a, b)
        return wrapper

    for name in ("__truediv__", "__rtruediv__"):
        monkeypatch.setattr(GaussianRational, name, counted(getattr(GaussianRational, name)))
    extend = Echelon.extend

    def recording_extend(self, vectors):
        known = set(self.pivots)
        extend(self, vectors)
        leads.extend(row[p] for p, row in self.pivots.items() if p not in known)
        return self

    # every forward elimination, whole or block by block, goes through extend
    monkeypatch.setattr(Echelon, "extend", recording_extend)
    # the direct route: rank reads total through its dual
    ranks = [ec.rank(op, p, q)
             for op in ("del", "delbar", "ddbar", "stacked")
             for p in range(se.n + 1) for q in range(se.n + 1)]
    ranks += [linalg.forward_echelon(ec.total_d_rows(k)).rank for k in range(2 * se.n)]
    # del's and stacked's ranks are read from one pass, in which the del
    # rows lead: del's leads are found once, by that pass; delbar's are
    # found by those passes, and deldelbar's once per star pair
    bidegrees = [(p, q) for p in range(se.n + 1) for q in range(se.n + 1)]
    eliminated = sum(ec.rank("stacked", p, q) for p, q in bidegrees) + ec.rank("delbar", 2, 2)
    eliminated += ec.rank("delbar", 2, 1) + sum(e.rank for e in ec._echelons.values())
    eliminated += sum(ranks[-2 * se.n:])
    inherited = sum(ranks) - eliminated
    assert {key[0] for key in ec._echelons} == {"ddbar"}
    assert 0 < inherited < sum(ranks) and len(leads) == eliminated
    assert all(lead in (1, -1) for lead in leads)
    assert divisions == []
    e, row = Echelon({}), {0: QI(2), 3: QI(1)}
    assert e.insert(row)
    assert divisions == []
    assert list(e.kernel(4)) == [{1: QI(1)}, {2: QI(1)}, {3: QI(1), 0: QI(Fraction(-1, 2))}]
    assert len(divisions) == 1
    assert e.pivots[0] is row and _typed(row) == _typed({0: QI(2), 3: QI(1)})
    assert _typed(completed_rref(e)[0]) == _typed({0: QI(1), 3: QI(Fraction(1, 2))})

    indexed = []
    index = Echelon._column_index
    monkeypatch.setattr(Echelon, "_column_index", lambda self: indexed.append(self) or index(self))
    ec = EvaluatedComplex(cx, zero_point(se.algebra.ring.m))
    full_report(ec)
    assert indexed == []
    lemma_report(ec)
    first = indexed[:]
    lemma_report(ec)
    # indexed holds every echelon, so no two of them share an id
    assert first and indexed == first and len({id(e) for e in first}) == len(first)
    assert all(any(e is c for c in ec._echelons.values()) for e in first)


def test_matmul_and_adjoint():
    rng = DetRng(13)
    a = _random_rows(rng, 3, 4)
    b = _random_rows(rng, 4, 3)
    ab = linalg.mat_mul(a, b)
    da, db = _dense(a, 4), _dense(b, 3)
    expect = [
        [sum((da[i][k] * db[k][j] for k in range(4)), GaussianRational(0)) for j in range(3)]
        for i in range(3)
    ]
    assert _dense(ab, 3) == expect
    at = linalg.conj_transpose(a, 4)
    for i in range(3):
        for j in range(4):
            assert _dense(at, 3)[j][i] == da[i][j].conj()


def test_product_and_adjoint_give_each_empty_row_the_shared_empty_row():
    """mat_mul equals the oracle that walks every row, on factors with
    empty rows (dicts and ``EMPTY_ROW``) and a row whose products cancel;
    each empty row of the product and of an adjoint is ``EMPTY_ROW``, and
    each other row a dict of its own."""
    rng = DetRng(29)
    for _ in range(20):
        a, b = _random_rows(rng, 6, 5), _random_rows(rng, 5, 4)
        a[1], a[3], b[2] = {}, EMPTY_ROW, {}
        b[0] = dict(b[4])
        a.append({0: QI(2, 1), 4: QI(-2, -1)})  # b[0] - b[4] cancels
        for out, want in ((linalg.mat_mul(a, b), mat_mul_of_every_row(a, b)),
                          (linalg.conj_transpose(a, 7), rows_from_columns([{j: c.conj() for j, c in r.items()} for r in a], 7))):
            assert out == want
            assert all(r is EMPTY_ROW for r in out if not r)
            assert all(type(r) is dict for r in out if r) and len({id(r) for r in out if r}) == sum(map(bool, out))
        assert linalg.mat_mul(a, b)[-1] is EMPTY_ROW and linalg.conj_transpose(a, 7)[6] is EMPTY_ROW


def test_dense_inverse():
    """The square solve A X = 1 gives the inverse: A X is the identity."""
    rng = DetRng(17)
    while True:
        rows = _random_rows(rng, 4, 4, density=4)
        cols = linalg.solve_square(column_list(rows, 4), linalg.identity_rows(4))
        if cols is not None:
            break
    a, inv = _dense(rows, 4), _dense(rows_from_columns(cols, 4), 4)
    prod = [
        [sum((a[i][k] * inv[k][j] for k in range(4)), GaussianRational(0)) for j in range(4)]
        for i in range(4)
    ]
    eye = [[QI(1) if i == j else QI(0) for j in range(4)] for i in range(4)]
    assert prod == eye


def test_solve_square_equals_gauss_jordan_oracle():
    """On seeded sparse Q(i) systems, invertible and singular, the square
    solve from one tracked forward echelon of the columns of A gives the
    X of the oracle's dense Gauss-Jordan elimination, column by column
    (GaussianRational entries), and None exactly where the oracle finds
    A singular."""
    rng = DetRng(43)
    kinds = {"invertible": 0, "singular": 0}
    for trial in range(150):
        n, m = rng.next_int(6) + 1, rng.next_int(4) + 1
        a_cols = _random_rows(rng, n, n, density=rng.next_int(3) + 1)
        if trial % 3 == 0 and n > 1:
            # a dependent column makes A singular
            a_cols[rng.next_int(n)] = vec_add(a_cols[0], vec_scale(a_cols[-1], QI(2, -1)))
        b_cols = _random_rows(rng, m, n, density=2)
        got = linalg.solve_square(a_cols, b_cols)
        a, b = (_dense(rows_from_columns(cols, n), len(cols)) for cols in (a_cols, b_cols))
        want = solve_dense(a, b)
        if want is None:
            assert got is None, trial
            kinds["singular"] += 1
            continue
        assert got == column_list(dense_to_rows(want), m), trial
        for col in got:
            assert all(type(x) is GaussianRational for x in col.values())
        kinds["invertible"] += 1
    assert min(kinds.values()) >= 30, kinds


def _hermitian(rng, n, r, shift):
    """B* B - shift for a random r x n matrix B: definite for shift < 0,
    singular for r < n and shift = 0, and indefinite for a large enough
    shift > 0."""
    b = _dense(_random_rows(rng, r, n, density=n), n)
    return [
        [
            sum((b[k][i].conj() * b[k][j] for k in range(r)), GaussianRational(0)) - (QI(shift) if i == j else QI(0))
            for j in range(n)
        ]
        for i in range(n)
    ]


def test_hermitian_pivots_equal_ldl_oracle():
    """On seeded Hermitian matrices, definite, indefinite and singular,
    the tracked forward elimination of the rows gives the LDL* loop's
    pivots (values and types), witness and failing index; and each
    witness w has w* A w equal to the failing pivot."""
    rng = DetRng(47)
    failed = {"definite": 0, "indefinite": 0, "singular": 0}
    for trial in range(120):
        n = rng.next_int(5) + 1
        kind = ("definite", "indefinite", "singular")[trial % 3]
        if kind == "definite":
            a = _hermitian(rng, n, n, -1)
        elif kind == "indefinite":
            a = _hermitian(rng, n, n, rng.next_int(40) + 1)
        else:
            a = _hermitian(rng, n, rng.next_int(n), 0)
        got, want = linalg.hermitian_pivots(a), hermitian_pivots_ldl(a)
        assert got == want, trial
        assert [type(x) for x in got[0]] == [type(x) for x in want[0]]
        pivots, witness, fail = got
        if witness is not None:
            assert all(type(x) is GaussianRational for x in witness.values())
            value = sum(
                (wi.conj() * a[i][j] * wj for i, wi in witness.items() for j, wj in witness.items()),
                GaussianRational(0),
            )
            assert value == pivots[-1] == pivots[fail] and pivots[fail] <= 0
        failed[kind] += fail is not None
    # a singular PSD matrix fails at a zero pivot; B* B + 1 never fails
    assert failed["definite"] == 0 and failed["singular"] == 40 and failed["indefinite"] >= 20, failed


def test_hermitian_pivots_are_leading_minors():
    rng = DetRng(21)
    b = _dense(_random_rows(rng, 4, 4, density=5), 4)
    # A = B* B + 1 is Hermitian positive definite
    a = [
        [
            sum((b[k][i].conj() * b[k][j] for k in range(4)), GaussianRational(0))
            + (QI(1) if i == j else QI(0))
            for j in range(4)
        ]
        for i in range(4)
    ]
    pivots, witness, fail = linalg.hermitian_pivots(a)
    assert fail is None and witness is None
    # product of the first k pivots equals the k-th leading principal minor,
    # computed independently through realified dense elimination-free expansion
    minor = Fraction(1)
    for k in range(1, 5):
        sub = [row[:k] for row in a[:k]]
        det = _det_complex(sub)
        assert det.im == 0
        prod = Fraction(1)
        for p in pivots[:k]:
            prod *= p
        assert det.re == prod


def _det_complex(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = GaussianRational(0)
    for j in range(n):
        sub = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * _det_complex(sub)
        total = total + (term if j % 2 == 0 else -term)
    return total


def test_indefinite_witness():
    a = [[QI(1), QI(0)], [QI(0), QI(-1)]]
    _, witness, fail = linalg.hermitian_pivots(a)
    assert fail == 1
    # w* A w equals the failing pivot, which is <= 0
    val = GaussianRational(0)
    for i, wi in witness.items():
        for j, wj in witness.items():
            val = val + wi.conj() * a[i][j] * wj
    assert val.im == 0 and val.re <= 0


def test_realify_consistency():
    """The realifiers of weak's realified oracle: realify_span doubles
    the rank, and reads i*v's realification from
    v's: it equals realify_vec of v and of i*v formed by products in Q(i),
    entry for entry, key order and type included, and the parts of
    units are the shared +-1; realify_vec shares them too."""
    rng = DetRng(29)
    vecs = [_random_rows(rng, 1, 4)[0] for _ in range(3)]
    real = realify_span(vecs)
    assert linalg.forward_echelon(real).rank == 2 * linalg.forward_echelon(vecs).rank
    vecs += [{0: QI(1), 1: QI(-1), 2: QI(0, 1), 3: QI(0, -1)}]
    vecs += [{3: QI(Fraction(-1, 2), 1), 0: QI(4, Fraction(6, 4)), 4: QI(Fraction(2, 6), Fraction(-3, 9))}, {}]
    got, want = realify_span(vecs), realify_span_by_products(vecs)
    assert [_typed(v) for v in got] == [_typed(v) for v in want]
    assert all(x is QI_ONE or x is QI_MINUS_ONE for v in got[6:8] for x in v.values())  # the units' parts
    # parts of +-1 are shared, not built
    units = realify_vec({0: QI(-1, 1), 1: QI(0, -1)})
    assert units == {0: QI(-1), 1: QI(1), 3: QI(-1)}
    assert units[1] is QI_ONE and units[0] is units[3]
