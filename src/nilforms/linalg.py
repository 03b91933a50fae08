"""Exact sparse linear algebra over Q(i).

Vectors are dicts {index: GaussianRational}; matrices are lists of row
dicts.  Every elimination is over Q(i), weak's included, and besides
``scalars`` only the elimination kernel ``_reduce_meeting`` reads the
(a, b, d) ints of a scalar.  No floating point anywhere.

One elimination.  ``Echelon``, whose rows are never normalised or
back-substituted as they are found, answers every question about a span
and every exact solve: its rank and pivot columns (``forward_echelon``,
read by every rank and lemma verdict), membership (``insert``,
``contains``), and by which combination a vector lies in it: ``track``
carries the combination of each row in columns of its own, so a vector
tracked into a span's echelon that adds nothing gives its relation
modulo the span (weak's verdict and witness, and standard's d-exact
forms of pure type), and ``solve`` the combination that gives a vector.
``tracked_echelon`` tracks a list of columns; ``ddbar_preimage``
solves with it, and ``solve_square`` reads X with A X = B from it, for
the coframe inverse of ``deform_complex`` at a point (and the Green
operators of the tests' Hodge and Kuranishi oracles).
``hermitian_pivots``, the exact positivity certificate, eliminates the
rows of a Hermitian matrix forward, each tracked.  A kernel
(``Echelon.kernel``) is read from the forward rows one vector at a
time, each a column of the reduced row echelon form (RREF) found by
back-substitution, so no row is rewritten or copied.

The cost follows the nonzeros, not the rows: ``Echelon.extend`` passes
over an empty row, stores a row that meets no leading column without
reducing it, and tells a one-entry row apart by one membership test;
``_forward_reduce`` returns such a row after one set test and a
one-entry vector at a one-entry row with no setup; and the kernel vector
of a free column walks only the rows that its RREF column reaches.
``mat_mul`` and ``conj_transpose`` give each empty row of their result
the shared read-only ``leibniz.EMPTY_ROW``, and every walker over rows
tests a row for emptiness before it reads one: ``mat_mul`` at each row
of either factor, ``conj_transpose``, ``columns`` (the one transpose),
``mat_vec``, and ``add_scaled_into``, through which ``row_combination``
walks only the rows it combines (a Hodge-star scan's images).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .leibniz import EMPTY_ROW
from .scalars import GaussianRational, QI_ONE, QI_ZERO, _new, _reduced

Vec = Dict[int, object]
Rows = List[Vec]


def add_scaled_into(u: Vec, c, v: Vec) -> None:
    """u += c*v in place, with no copy of u: the entry of each key of v
    is added to u's, or inserted after u's keys, and a sum of 0 is
    removed.  An empty v is passed over unread."""
    if not (c and v):
        return
    for k, x in v.items():
        y = c * x
        s = u.get(k)
        s = y if s is None else s + y
        if s:
            u[k] = s
        elif k in u:
            del u[k]


class Echelon:
    """Row echelon form by forward elimination, from which a kernel read
    finds the columns of the reduced row echelon form (RREF).

    ``pivots`` maps each leading column, in the order found, to its row:
    the vector reduced against the rows found before it, so it is 0 at
    their leading columns, but not at later ones, and its lead is neither
    scaled nor inverted.  That reduced vector is the one element of v
    plus the span of the earlier rows that vanishes at their leading
    columns, so the leading columns and their order depend only on the
    vectors fed, in their order.  No row is rewritten once stored.
    ``marks`` holds the rank after each ``extend``, so that of each
    leading run of the blocks fed.
    ``insert`` and ``contains`` test membership, ``track``
    and ``solve`` find the combination that gives a vector, and
    ``kernel`` reads the kernel of the matrix whose rows were fed.
    ``perfbench/tracing.py`` hooks ``Echelon.insert`` by name.
    """

    __slots__ = ("pivots", "marks", "_index")

    def __init__(self, pivots: Dict[int, Vec]):
        self.pivots = pivots
        self.marks: List[int] = []
        self._index: Optional[Tuple[Dict[int, List[int]], Dict[int, int]]] = None

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def extend(self, vectors: Sequence[Vec]) -> "Echelon":
        """Eliminate the vectors in order into the form; returns self.

        The cost follows the nonzeros: an empty vector is passed over, one
        that meets no leading column is stored as it is, by reference, at
        its smallest key, and one that meets one is reduced without a
        second disjointness test (``_reduce_meeting``); for a one-entry
        vector one membership test of its key decides, with no ``min``."""
        pivots = self.pivots
        leads = pivots.keys()
        for v in filter(None, vectors):
            if len(v) == 1:
                k, = v
                if k not in pivots:
                    pivots[k] = v
                    continue
            elif leads.isdisjoint(v):
                pivots[min(v)] = v
                continue
            w = _reduce_meeting(pivots, v)
            if w:
                pivots[min(w)] = w
        self._index = None
        self.marks.append(len(pivots))
        return self

    def insert(self, v: Vec) -> bool:
        """Eliminate one vector into the form; True if it enlarged the span."""
        w = _forward_reduce(self.pivots, v)
        if w:
            self.pivots[min(w)] = w
            self._index = None
        return bool(w)

    def contains(self, v: Vec) -> bool:
        return not _forward_reduce(self.pivots, v)

    def track(self, v: Vec, j: int, width: int) -> Optional[Vec]:
        """Eliminate v, the j-th tracked vector, carrying 1 at column
        width + j: right of every key of the vectors, so no carried column
        leads a row, and the carried columns of a row record its
        combination of tracked vectors.  None when v enlarged the span;
        else the c with c[j] = 1 and sum c_t v_t in the span of the rows
        that carry nothing (those the form began with)."""
        w = _forward_reduce(self.pivots, {**v, width + j: QI_ONE})
        if min(w) < width:
            self.pivots[min(w)] = w
            self._index = None
            return None
        return {k - width: c for k, c in w.items()}

    def solve(self, y: Vec, width: int) -> Optional[Vec]:
        """For a form whose rows were all tracked: the z with sum z_j v_j
        = y, or None when y is outside the span.  y reduces to -z in the
        carried columns, or keeps a key below width."""
        w = _forward_reduce(self.pivots, y)
        if w and min(w) < width:
            return None
        return {k - width: -c for k, c in w.items()}

    def kernel(self, ncols: int, meets=None) -> Iterator[Vec]:
        """Basis of {x : M x = 0}, for the M whose rows were fed: one
        vector per free column f, ascending, each built when it is asked
        for from column f of the RREF alone (``_rref_column``): e_f minus,
        at each pivot p, the entry of RREF row p at f, the pivots in the
        order found, and so e_f where no stored row meets f.  No stored
        row is rewritten or copied.

        Given a test of a column ``meets``, only the vectors with a key
        that passes it are yielded, in the same order; the keys of each
        are tested in order, f first, up to the first that passes."""
        if self._index is None:
            self._index = self._column_index()
        pivots, cols = self.pivots, self._index[0]
        for f in range(ncols):
            if f in pivots:
                continue
            if f not in cols:
                if meets is None or meets(f):
                    yield {f: QI_ONE}
                continue
            x = self._rref_column(f)
            if meets is None or any(map(meets, x)):
                yield x

    def _column_index(self):
        """Per column k, the leads of the rows with an entry at k other
        than their lead, in the order found; and the position of each
        lead in that order."""
        cols: Dict[int, List[int]] = {}
        for p, row in self.pivots.items():
            for k in row:
                if k != p:
                    cols.setdefault(k, []).append(p)
        return cols, {p: i for i, p in enumerate(self.pivots)}

    def _rref_column(self, f: int) -> Vec:
        """The kernel vector x of free column f, read from the forward
        rows by back-substitution: x_f = 1, x is 0 at every other free
        column, and row p, whose entries lie at its lead p and right of
        it, gives lead x_p = -(row[f] + sum row[k] x_k over the leads
        k > p).  So x_p is found largest lead first, from a max-heap of
        the leads whose rows meet f or a lead k with x_k != 0 (the
        column index, ``_column_index``), and the work follows the rows
        the column reaches, not the rank.  The RREF is unique, so x_p is
        minus the entry of RREF row p at f; a lead of 1 or -1 divides
        nothing."""
        pivots = self.pivots
        cols, order = self._index
        sums = {p: pivots[p][f] for p in cols.get(f, ())}
        heap = [-p for p in sums]
        heapify(heap)
        found: Vec = {}
        while heap:
            p = -heappop(heap)
            s = sums[p]
            if not s:
                continue
            lead = pivots[p][p]
            y = found[p] = -s if lead == 1 else s if lead == -1 else -s / lead
            for r in cols.get(p, ()):
                t = sums.get(r)
                if t is None:
                    sums[r] = pivots[r][p] * y
                    heappush(heap, -r)
                else:
                    sums[r] = t + pivots[r][p] * y
        x = {f: QI_ONE}
        for p in sorted(found, key=order.__getitem__):
            x[p] = found[p]
        return x


def _forward_reduce(pivots: Dict[int, Vec], v: Vec) -> Vec:
    """v reduced by the stored row of each leading column it meets, the
    smallest column first (a heap of the columns met): a row has no
    entry left of its lead, so each reduction adds entries only to the
    right of the column it clears, and each column is cleared at most
    once.  A row that holds only its lead just clears the column.  A
    vector that meets no leading column is returned as it is, by
    reference, after one disjointness test of its keys; otherwise the
    work follows the entries of v and of the rows met, not the number of
    rows stored."""
    if pivots.keys().isdisjoint(v):
        return v
    return _reduce_meeting(pivots, v)


def _reduce_meeting(pivots: Dict[int, Vec], v: Vec) -> Vec:
    """``_forward_reduce`` of a v known to meet a leading column, for a
    caller that has tested that itself (``Echelon.extend``).

    The one elimination kernel, on the (a, b, d) ints of the entries.  A
    lead of +-1 gives the multiplier -+c, any other lead one quotient
    with one gcd.  Each s + f*x is summed on ints: a sum that cancels is
    deleted, one with d = 1 takes no gcd, any other one ``_reduced``.  A
    one-entry v is {} at a one-entry row, with no filter, copy or heap."""
    if len(v) == 1:
        for k, c in v.items():
            if len(pivots[k]) == 1:
                return {}
        hits, w = [k], {k: c}
    else:
        hits, w = list(filter(pivots.__contains__, v)), dict(v)
        heapify(hits)
    while hits:
        k = heappop(hits)
        c = w.pop(k, None)
        if c is None:
            continue
        row = pivots[k]
        if len(row) == 1:
            continue
        lead = row[k]
        fa, fb, fd = c._a, c._b, c._d
        la, lb, ld = lead._a, lead._b, lead._d
        if lb or ld != 1 or (la != 1 and la != -1):
            # f = -c/lead = -ld (fa + fb i)(la - lb i) / (fd (la^2 + lb^2))
            if lb:
                fa, fb, fd = -ld * (fa * la + fb * lb), ld * (fa * lb - fb * la), fd * (la * la + lb * lb)
            else:
                if la < 0:
                    la, ld = -la, -ld
                fa, fb, fd = -ld * fa, -ld * fb, fd * la
            g = gcd(fa, fb, fd)
            if g != 1:
                fa, fb, fd = fa // g, fb // g, fd // g
        elif la == 1:
            fa, fb = -fa, -fb
        for j, x in row.items():
            if j == k:
                continue
            xa, xb = x._a, x._b
            if fb:
                pa, pb = fa * xa - fb * xb, fa * xb + fb * xa
            else:
                pa, pb = fa * xa, fa * xb
            pd = fd * x._d
            s = w.get(j)
            if s is None:
                if j in pivots:
                    heappush(hits, j)
                a, b, d = pa, pb, pd
            else:
                d = s._d
                if d == pd:
                    a, b = s._a + pa, s._b + pb
                else:
                    a, b, d = s._a * pd + pa * d, s._b * pd + pb * d, d * pd
                if not (a or b):
                    del w[j]
                    continue
            if d == 1:
                z = _new(GaussianRational)
                z._a = a
                z._b = b
                z._d = 1
                w[j] = z
            else:
                w[j] = _reduced(a, b, d)
    return w


def forward_echelon(vectors: Sequence[Vec]) -> Echelon:
    """Forward elimination of the vectors in order (the rows of a matrix,
    so its rank is the rank of the matrix), through ``_forward_reduce``.
    A vector that meets no leading column is stored as it is, by
    reference; no stored row is ever changed in place."""
    return Echelon({}).extend(vectors)


def tracked_echelon(vectors: Sequence[Vec], width: int) -> Echelon:
    """Forward elimination of the vectors in order, each v_j tracked at
    column width + j (``Echelon.track``), so that ``solve`` reads
    the combination of them that gives a vector of their span."""
    e = Echelon({})
    for j, v in enumerate(vectors):
        e.track(v, j, width)
    return e


def solve_square(a_cols: Sequence[Vec], b_cols: Sequence[Vec]) -> Optional[List[Vec]]:
    """The columns of X with A X = B, for the n columns of a square A and
    the columns of B; None when A has rank below n.  Column k of X is the
    combination of the columns of A that gives column k of B, read from
    one tracked forward echelon of the columns of A."""
    n = len(a_cols)
    e = tracked_echelon(a_cols, n)
    if e.rank < n:
        return None
    return [e.solve(b, n) for b in b_cols]


def mat_vec(rows: Rows, x: Vec) -> Vec:
    """M x.  Each product is taken vector entry first, so x may also hold
    truncated polynomials over a constant Q(i) matrix (the tests'
    Kuranishi recursion)."""
    out: Vec = {}
    for i, r in enumerate(rows):
        if r:
            s = None
            for k, c in r.items():
                xk = x.get(k)
                if xk:
                    s = xk * c if s is None else s + xk * c
            if s:
                out[i] = s
    return out


def columns_vec(cols: Dict[int, Vec], x: Vec) -> Vec:
    """M x from the nonzero columns of M, keyed by column index: walks
    only the support of x, and equals mat_vec of the rows of M (same
    entries, in row order)."""
    acc: Vec = {}
    for k, xk in x.items():
        col = cols.get(k)
        if col:
            for i, c in col.items():
                s = acc.get(i)
                acc[i] = c * xk if s is None else s + c * xk
    return {i: acc[i] for i in sorted(acc) if acc[i]}


def row_combination(rows: Rows, c: Vec) -> Vec:
    """c M = sum c_i rows[i] over the keys of c, with no zero entry."""
    w: Vec = {}
    for i, x in c.items():
        add_scaled_into(w, x, rows[i])
    return w


def mat_mul(a: Rows, b: Rows) -> Rows:
    """(a @ b) where a is p x q rows and b is q x r rows.  The product
    starts as a list of ``EMPTY_ROW``, and a row keeps a dict of its own
    only when an entry of it survives, so an empty row of a, or one whose
    entries all cancel, costs no dict; an empty row of either factor is
    passed over unread.  A column of a past the rows of b raises
    IndexError."""
    out: Rows = [EMPTY_ROW] * len(a)
    acc: Vec = {}
    for i, ra in enumerate(a):
        if not ra:
            continue
        for k, c in ra.items():
            rb = b[k]
            if not rb:
                continue
            for j, d in rb.items():
                s = acc.get(j)
                s = c * d if s is None else s + c * d
                if s:
                    acc[j] = s
                elif j in acc:
                    del acc[j]
        if acc:
            out[i] = acc
            acc = {}
    return out


def conj_transpose(rows: Rows, ncols: int) -> Rows:
    """The adjoint, ncols rows: a list of ``EMPTY_ROW`` in which a row
    gets a dict when an entry first meets it; an empty row of rows is
    passed over unread."""
    out: Rows = [EMPTY_ROW] * ncols
    for i, r in enumerate(rows):
        if not r:
            continue
        for j, c in r.items():
            row = out[j]
            if row is EMPTY_ROW:
                row = out[j] = {}
            row[i] = c.conj() if isinstance(c, GaussianRational) else c
    return out


def identity_rows(n: int) -> Rows:
    return [{i: QI_ONE} for i in range(n)]


def columns(rows: Rows) -> Dict[int, Vec]:
    """The nonzero columns of a matrix, keyed by index, each with its
    entries in row order; an empty row costs one truth test."""
    cols: Dict[int, Vec] = {}
    for i, r in enumerate(rows):
        if r:
            for j, c in r.items():
                col = cols.get(j)
                if col is None:
                    cols[j] = {i: c}
                else:
                    col[i] = c
    return cols


# -- Hermitian positivity ------------------------------------------------


def hermitian_pivots(a: List[List[GaussianRational]]):
    """LDL* pivots of a Hermitian matrix, stopping at the first pivot <= 0.

    Returns (pivots, witness, fail_index): pivots is the list of real
    diagonal entries produced so far; on failure, witness is an exact
    vector w with w* A w = pivots[-1] <= 0, else witness is None.  The
    leading principal k-minor equals the product of the first k pivots.

    The rows of A are eliminated forward in order, row k tracked at
    column n + k.  While every pivot is positive, row k reduces to row k
    of L^-1 A, for the unit lower-triangular L of A = L D L*: it vanishes
    left of column k, its entry at column k is the pivot d_k, and its
    carried columns are c, row k of L^-1.  So c A c* = (L^-1 A L^-*)_kk
    = d_k, and the witness is w = conj(c).
    """
    n = len(a)
    rows: Dict[int, Vec] = {}
    pivots = []
    for k in range(n):
        row = {j: x for j, x in enumerate(a[k]) if x}
        row[n + k] = QI_ONE
        w = _forward_reduce(rows, row)
        d = w.get(k, QI_ZERO)
        if d.im != 0:
            raise ValueError("matrix is not Hermitian (complex diagonal)")
        pivots.append(d.re)
        if d.re <= 0:
            return pivots, {j - n: c.conj() for j, c in w.items() if j >= n}, k
        rows[k] = w
    return pivots, None, None

