from fractions import Fraction

import pytest

from nilforms import io as nio
from nilforms import linalg
from nilforms.algebra import build_complex
from nilforms.catalog import catalog_load
from nilforms.cohomology import EvaluatedComplex, full_report, zero_point
from nilforms.lemmata import lemma_report
from nilforms.linalg import Echelon
from nilforms.scalars import DetRng, GaussianRational, QI

from oracles import (
    FullScanEchelon,
    complex_rank,
    dense_rank,
    dense_to_rows,
    full_scan_kernel,
    hermitian_pivots_ldl,
    negating_span_intersection,
    realify_dense,
    rows_to_dense,
    solve_dense,
    span_intersection,
)


def _random_rows(rng, nrows, ncols, density=3):
    rows = []
    for _ in range(nrows):
        row = {}
        for _ in range(density):
            row[rng.next_int(ncols)] = rng.nonzero_gaussian(4)
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
        basis = linalg.nullspace(rows, ncols)
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
    one = Fraction(1) if field == "Q" else QI(1)
    pool = _sparse_inputs(rng, field, ncols + ncols // 2, ncols)
    base, vectors = pool[:ncols // 2], pool[ncols // 2:]
    cols = base + [linalg._negated(v) for v in vectors]
    want = []
    for rel in linalg.nullspace(linalg.rows_from_columns(cols, ncols), len(cols), one=one):
        if max(rel) >= len(base):  # its free column is that of a vector
            want.append({k - len(base): c for k, c in rel.items() if k >= len(base)})
    got = list(linalg.relations_modulo(base, vectors, ncols))
    assert got == want and len(got) > 1
    span = linalg.forward_echelon(base)
    for c in got:
        w = {}
        for t, x in c.items():
            linalg.add_scaled_into(w, x, vectors[t])
        assert c[max(c)] == 1 and not span.residues([w])[0]


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
    """Seeded sparse vectors over Q(i) or Q: about a sixth empty, about a
    third combinations of earlier ones (so dependent inserts are
    exercised), and the rest led, at a drawn column with entries only to
    its right, by 1, by -1 or by a drawn scalar, in equal shares.  Over Q
    an integral draw is an int, as realified Gaussian integers are."""
    one = Fraction(1) if field == "Q" else QI(1)

    def draw():
        if field == "Q":
            x = rng.rational(4) or one
            return x.numerator if x.denominator == 1 else x
        return rng.nonzero_gaussian(4)

    vecs = []
    for _ in range(count):
        roll = rng.next_int(6)
        if roll == 0:
            v = {}
        elif roll <= 2 and len(vecs) >= 2:
            v = {}
            for _ in range(1 + rng.next_int(3)):
                v = linalg.vec_add(v, linalg.vec_scale(vecs[rng.next_int(len(vecs))], draw()))
        else:
            lead = rng.next_int(ncols)
            v = {lead: draw() if roll == 3 else one if roll == 4 else -one}
            for _ in range(rng.next_int(4)):
                v[lead + rng.next_int(ncols - lead)] = draw()
        vecs.append(v)
    return vecs


def _typed(v):
    """Entries with their types, where int and Fraction count as one type
    (Q): Q and Q(i) entries are emitted differently, so an equal value of
    the other field, or a float, is a difference."""
    return [(k, Fraction if type(x) is int else type(x), x) for k, x in v.items()]


def _assert_no_float(vecs):
    for v in vecs:
        for x in v.values():
            assert type(x) in (int, Fraction), v


def test_int_leads_divide_exactly():
    """Realified Gaussian integers are int vectors.  A lead of 2 or -3 is
    inverted exactly where the kernel completes the echelon, so after
    each insert the completed rows and the kernel equal the Fraction
    oracle's, a tracked forward solve gives the vector back, and no entry
    is a float."""
    vecs = [
        linalg.realify_vec({0: QI(2), 1: QI(1, 3)}),
        {1: -3, 2: 1, 4: 2},
        {0: 2, 1: -3, 2: 7, 3: 3},
        {2: 4, 3: -1},
        {1: -3, 2: 5, 3: -1, 4: 2},  # the second plus the fourth
    ]
    assert vecs[0] == {0: 2, 2: 1, 3: 3} and all(type(x) is int for x in vecs[0].values())
    fast, slow = Echelon({}), FullScanEchelon(one=Fraction(1))
    for v in vecs:
        assert fast.insert(v) == slow.insert(v)
        kernel = list(fast.kernel(5, Fraction(1)))
        assert fast.pivots == slow.pivots
        _assert_no_float(fast.pivots.values())
        if v is vecs[0]:
            assert fast.pivots[0] == {0: 1, 2: Fraction(1, 2), 3: Fraction(3, 2)}
        assert kernel == full_scan_kernel(slow.pivots, 5, Fraction(1))
        _assert_no_float(kernel)
    assert fast.rank == 4
    assert len(kernel) == 1 and len(kernel[0]) > 2
    tracked = Echelon({})
    relations = [tracked.track(v, j, 5) for j, v in enumerate(vecs)]
    assert relations[:4] == [None] * 4 and relations[4] is not None
    _assert_no_float([relations[4]] + list(tracked.pivots.values()))
    target = _combination(vecs, {0: 1, 2: 1, 1: Fraction(-1, 2)})
    z = tracked.solve(target, 5)
    _assert_no_float([z])
    assert _combination(vecs, z) == target
    x = linalg.solve_square([{0: 2}, {0: 1, 1: -3}], [{0: 1, 1: 1}])
    assert x == [{0: Fraction(2, 3), 1: Fraction(-1, 3)}]
    _assert_no_float(x)


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
    """The completed rows are the oracle's RREF rows, pivot for pivot in
    the order found, entry for entry with the field's types."""
    assert list(fast.pivots) == list(slow.pivots)
    for p, row in slow.pivots.items():
        assert sorted(_typed(fast.pivots[p])) == sorted(_typed(row))


@pytest.mark.parametrize("field", ["QI", "Q"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_echelon_equals_full_scan_oracle(field, seed):
    """Seeded sparse vectors (empty, dependent, and led by 1, -1 and
    other scalars) fed one at a time: each insert enlarges the span when
    the full-scan RREF's does, with the same pivots in the same order,
    and the kernel read after it, which completes the rows fed so far
    (again after each insert), equals the oracle's in keys, key order,
    values and types, with the oracle's RREF as its completed rows."""
    rng = DetRng(100 * seed + len(field))
    ncols = 6 + rng.next_int(14)
    vecs = _sparse_inputs(rng, field, 3 * ncols, ncols)
    one = Fraction(1) if field == "Q" else QI(1)
    fast, slow = Echelon({}), FullScanEchelon(one=one)
    kinds = set()
    for v in vecs:
        kinds.add(_insert_kind(slow, v))
        assert fast.insert(v) == slow.insert(v)
        assert list(fast.pivots) == list(slow.pivots)
        kernel = list(fast.kernel(ncols, one))
        _assert_completed_equals(fast, slow)
        expected = full_scan_kernel(slow.pivots, ncols, one)
        assert [_typed(x) for x in kernel] == [_typed(x) for x in expected]
    assert kinds == {"empty", "dependent", "1", "-1", "other"}


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
    one = Fraction(1) if field == "Q" else QI(1)
    fast, slow = Echelon({}), FullScanEchelon(track=True, one=one)
    relations = []
    for j, v in enumerate(vecs):
        c = fast.track(v, j, ncols)
        assert (c is None) == slow.insert(v)
        if c is not None:
            relations.append(c)
    assert list(fast.pivots) == list(slow.pivots)
    assert relations == list(linalg.relations_modulo([], vecs, ncols))
    probes = _sparse_inputs(rng, field, 12, ncols) + vecs[:4]
    probes += [_combination(vecs, {j: x for j, x in enumerate(p.values())}) for p in probes[:6]]
    solved = 0
    for v in probes:
        got, want = fast.solve(v, ncols), slow.solve_combo(v)
        assert (got is None) == (want is None)
        if want is not None:
            solved += 1
            assert _combination(vecs, got) == v == _combination(vecs, want)
            assert {Fraction if type(x) is int else type(x) for x in got.values()} <= {type(one)}
    assert 0 < solved < len(probes)


@pytest.mark.parametrize("field", ["QI", "Q"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_forward_echelon_equals_echelon(field, seed):
    """The forward echelon of seeded sparse vectors (empty, repeated,
    negated and dependent ones, leads of 1, -1 and other scalars) has the
    rank and the pivots, in order, of the full-scan RREF; each row is
    led by its pivot and is 0 at the pivots found before it; no input
    changes, neither by the elimination nor by the completion; its
    kernel completes it into the RREF, entry for entry, and equals the
    oracle's kernel; and residues, before and after the completion,
    vanish exactly on the span and agree with the oracle's reduction."""
    rng = DetRng(300 * seed + len(field))
    ncols = 6 + rng.next_int(14)
    vecs = _sparse_inputs(rng, field, 3 * ncols, ncols)
    for i in range(0, len(vecs), 4):
        vecs.insert(rng.next_int(len(vecs)), vecs[i])
        vecs.insert(rng.next_int(len(vecs)), linalg._negated(vecs[i + 1]))
    before = [list(v.items()) for v in vecs]
    one = Fraction(1) if field == "Q" else QI(1)
    slow = FullScanEchelon(one=one)
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
            kernel = list(fe.kernel(ncols, one))
            assert [list(v.items()) for v in vecs] == before
            _assert_completed_equals(fe, slow)
            expected = full_scan_kernel(slow.pivots, ncols, one)
            assert [_typed(x) for x in kernel] == [_typed(x) for x in expected]
        for v, residue in zip(probes, fe.residues(probes)):
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
        x = {rng.next_int(ncols): rng.nonzero_gaussian(3) for _ in range(rng.next_int(4))}
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
    b = [v for v in b + [linalg.vec_add(a[0], a[-1])] if v]
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
    zero = Fraction(0) if field == "Q" else QI(0)
    copied, inplace = {}, {}
    for step in range(40):
        v = vecs[rng.next_int(len(vecs))]
        # every fifth step cancels the running sum at the keys of v
        c = rng.nonzero_gaussian(3) if field == "QI" else (rng.rational(3) or Fraction(1))
        if step % 5 == 4 and copied:
            v, c = dict(copied), -(c / c)
        if step == 7:
            c = zero
        copied = linalg.vec_add(copied, linalg.vec_scale(v, c))
        linalg.add_scaled_into(inplace, c, v)
        assert _typed(inplace) == _typed(copied), step


def test_unit_leads_divide_nothing(monkeypatch):
    """On Iwasawa x C at t = 0 every reduced row is led by 1 or -1, so
    no rank takes a Q(i) division; a lead of 2 divides once, where the
    kernel completes the echelon, and never on insert.  full_report
    completes no echelon into an RREF, and lemma_report completes each
    cached matrix echelon at most once, however often it is called
    (``nullspace`` completes a fresh echelon on every call)."""
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
    ranks = [ec._row_echelon(op, p, q).rank
             for op in ("del", "delbar", "ddbar", "stacked")
             for p in range(se.n + 1) for q in range(se.n + 1)]
    ranks += [ec._row_echelon("total", k, 0).rank for k in range(2 * se.n)]
    assert sum(ranks) > 0 and len(leads) == sum(ranks)
    assert all(lead in (1, -1) for lead in leads)
    assert divisions == []
    e = Echelon({})
    assert e.insert({0: QI(2), 3: QI(1)})
    assert divisions == []
    assert list(e.kernel(4)) == [{1: QI(1)}, {2: QI(1)}, {3: QI(1), 0: QI(Fraction(-1, 2))}]
    assert len(divisions) == 1
    assert _typed(e.pivots[0]) == _typed({0: QI(1), 3: QI(Fraction(1, 2))})

    completed = []
    complete = Echelon._complete
    monkeypatch.setattr(Echelon, "_complete", lambda self: completed.append(self) or complete(self))
    ec = EvaluatedComplex(cx, zero_point(se.algebra.ring.m))
    full_report(ec)
    assert completed == []
    lemma_report(ec)
    first = completed[:]
    lemma_report(ec)
    # completed holds every echelon, so no two of them share an id
    assert len({id(e) for e in completed}) == len(completed)
    cached = [e for e in completed if any(e is c for c in ec._echelons.values())]
    # the second report completes only the fresh echelons of nullspace
    assert cached and all(any(e is f for f in first) for e in cached)


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


def test_dense_inverse():
    """The square solve A X = 1 gives the inverse: A X is the identity."""
    rng = DetRng(17)
    while True:
        rows = _random_rows(rng, 4, 4, density=4)
        cols = linalg.solve_square(linalg.columns_of(rows, 4), linalg.identity_rows(4))
        if cols is not None:
            break
    a, inv = _dense(rows, 4), _dense(linalg.rows_from_columns(cols, 4), 4)
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
            a_cols[rng.next_int(n)] = linalg.vec_add(a_cols[0], linalg.vec_scale(a_cols[-1], QI(2, -1)))
        b_cols = _random_rows(rng, m, n, density=2)
        got = linalg.solve_square(a_cols, b_cols)
        a, b = (_dense(linalg.rows_from_columns(cols, n), len(cols)) for cols in (a_cols, b_cols))
        want = solve_dense(a, b)
        if want is None:
            assert got is None, trial
            kinds["singular"] += 1
            continue
        assert got == linalg.columns_of(dense_to_rows(want), m), trial
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
    rng = DetRng(29)
    vecs = [_random_rows(rng, 1, 4)[0] for _ in range(3)]
    real = linalg.realify_span(vecs)
    assert linalg.forward_echelon(real).rank == 2 * linalg.forward_echelon(vecs).rank
