"""Exact sparse linear algebra over Q(i) (and plain Q after realification).

Vectors are dicts {index: scalar}; matrices are lists of row dicts.  All
routines work for any scalar type supporting +, -, *, /, truthiness and
equality with the ints 1 and -1, so the same elimination drives
Gaussian-rational and realified-rational computations.  A rational entry
is an int when it is integral and a Fraction otherwise (the parts of a
GaussianRational follow the same rule), and every division goes through
``scalars._div``, which is exact on two ints where a bare ``/`` would
give a float.  No floating point anywhere.

One elimination.  ``Echelon``, whose rows are never normalised or
back-substituted as they are found, answers every question about a span
and every exact solve: its rank and pivot columns (``forward_echelon``,
read by every rank and lemma verdict), membership (``insert``,
``contains``, ``residues``), and by which combination a vector lies in
it: ``track`` carries the combination of each row in columns of its
own, ``relations_modulo`` reads the relations of vectors modulo a span
from it (weak's witness), and ``solve`` the combination that gives a
vector.  ``tracked_echelon`` tracks a list of columns; ``ddbar_preimage``
solves with it, and ``solve_square`` reads X with A X = B from it, for
the coframe inverse of ``deform_complex`` at a point and the Green
operators of ``harmonic_green`` (Kuranishi, and the tests' Hodge
oracle).  ``hermitian_pivots``, the exact positivity certificate,
eliminates the rows of a Hermitian matrix forward, each tracked.  Where
a kernel is read (``Echelon.kernel``, and ``nullspace`` through it), the
echelon completes itself in place into the reduced row echelon form
(RREF), once, and builds each kernel vector from it as a caller asks.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .scalars import GaussianRational, QI_ONE, QI_ZERO, _div

Vec = Dict[int, object]
Rows = List[Vec]


def vec_add(u: Vec, v: Vec) -> Vec:
    out = dict(u)
    for k, x in v.items():
        s = out.get(k)
        s = x if s is None else s + x
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out


def vec_scale(v: Vec, c) -> Vec:
    if not c:
        return {}
    return {k: c * x for k, x in v.items()}


def add_scaled_into(u: Vec, c, v: Vec) -> None:
    """u += c*v in place: the entries, key order and types of
    vec_add(u, vec_scale(v, c)), with no copy of u."""
    if not c:
        return
    for k, x in v.items():
        y = c * x
        s = u.get(k)
        s = y if s is None else s + y
        if s:
            u[k] = s
        elif k in u:
            del u[k]


def _negated(v: Vec) -> Vec:
    """-v entry by entry: the same values as vec_scale(v, -1), with no
    product and no coercion of the -1."""
    return {k: -x for k, x in v.items()}


class Echelon:
    """Row echelon form by forward elimination, completed into the
    reduced row echelon form (RREF) where a kernel is read.

    ``pivots`` maps each leading column, in the order found, to its row:
    the vector reduced against the rows found before it, so it is 0 at
    their leading columns, but not at later ones, and its lead is neither
    scaled nor inverted.  That reduced vector is the one element of v
    plus the span of the earlier rows that vanishes at their leading
    columns, so the leading columns and their order depend only on the
    vectors fed, in their order.  ``kernel`` replaces the rows by those
    of the RREF, at the same leading columns in the same order, and
    every other question reads either form alike.
    ``marks`` holds the rank after each ``extend``, so that of each
    leading run of the blocks fed.
    ``insert``, ``contains`` and ``residues`` test membership, ``track``
    and ``solve`` find the combination that gives a vector, and
    ``kernel`` reads the kernel of the matrix whose rows were fed.
    ``perfbench/tracing.py`` hooks ``Echelon.insert`` by name.
    """

    __slots__ = ("pivots", "marks", "_free")

    def __init__(self, pivots: Dict[int, Vec]):
        self.pivots = pivots
        self.marks: List[int] = []
        self._free: Optional[Dict[int, List[int]]] = None

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def extend(self, vectors: Sequence[Vec]) -> "Echelon":
        """Eliminate the vectors in order into the form; returns self."""
        pivots = self.pivots
        for v in vectors:
            if v:
                w = _forward_reduce(pivots, v)
                if w:
                    pivots[min(w)] = w
        self._free = None
        self.marks.append(len(pivots))
        return self

    def insert(self, v: Vec) -> bool:
        """Eliminate one vector into the form; True if it enlarged the span."""
        w = _forward_reduce(self.pivots, v)
        if w:
            self.pivots[min(w)] = w
            self._free = None
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
        w = _forward_reduce(self.pivots, {**v, width + j: 1})
        if min(w) < width:
            self.pivots[min(w)] = w
            self._free = None
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

    def residues(self, vectors: Sequence[Vec]) -> List[Vec]:
        """Each vector reduced against the form: the one element of v plus
        the span that vanishes at every leading column, so v lies in the
        span exactly when its residue is empty, and v -> residue is linear
        with the span as its kernel."""
        return [_forward_reduce(self.pivots, v) for v in vectors]

    def kernel(self, ncols: int, one=QI_ONE) -> Iterator[Vec]:
        """Basis of {x : M x = 0}, for the M whose rows were fed: one
        vector per free column f, ascending, each built when it is asked
        for.  The first call, and the first after a row is added,
        completes the rows in place into the RREF (``_complete``); the
        vector of f is then e_f minus, at each pivot p, the entry of row
        p at f, the pivots in the order found."""
        if self._free is None:
            self._free = self._complete()
        pivots, free = self.pivots, self._free
        for f in range(ncols):
            if f not in pivots:
                x = {f: one}
                for p in free.get(f, ()):
                    x[p] = -pivots[p][f]
                yield x

    def _complete(self) -> Dict[int, List[int]]:
        """Replace each row by the row of the RREF at its lead, largest
        lead first, and return the free-column index: each column with
        an entry in a row other than its lead, with the leads of those
        rows in the order found.

        A row has no entry left of its lead, so the row at the largest
        lead has no entry at any other lead: divided by its lead, it is
        reduced.  Each later row meets other leads only at larger
        columns, whose rows are already reduced and vanish at every
        other lead, so one subtraction per lead met reduces it.  A row
        that changes is copied first, since a stored row may be a
        caller's vector held by reference; the leads, their order, the
        rank and ``marks`` stay as they were.  An int lead of 2 is
        inverted exactly (``_div``), and a lead of -1 only negates.
        """
        pivots = self.pivots
        for lead in sorted(pivots, reverse=True):
            row = w = pivots[lead]
            for k in [k for k in row if k != lead and k in pivots]:
                if w is row:
                    w = dict(row)
                add_scaled_into(w, -row[k], pivots[k])
            c = w[lead]
            if c == -1:
                w = _negated(w)
            elif c != 1:
                w = vec_scale(w, _div(1, c))
            pivots[lead] = w
        free: Dict[int, List[int]] = {}
        for p, row in pivots.items():
            for k in row:
                if k != p:
                    free.setdefault(k, []).append(p)
        return free


def _forward_reduce(pivots: Dict[int, Vec], v: Vec) -> Vec:
    """v reduced by the stored row of each leading column it meets, the
    smallest column first (a heap of the columns met): a row has no
    entry left of its lead, so each reduction adds entries only to the
    right of the column it clears, and each column is cleared at most
    once.  The multiplier is -c for a lead of 1 and c for a lead of -1;
    only another lead is divided by (``_div``, exactly).  A vector that
    meets no leading column is returned as it is, by reference."""
    hits = [k for k in v if k in pivots]
    if not hits:
        return v
    w = dict(v)
    heapify(hits)
    while hits:
        k = heappop(hits)
        c = w.pop(k, None)
        if c is None:
            continue
        row = pivots[k]
        lead = row[k]
        f = -c if lead == 1 else c if lead == -1 else -_div(c, lead)
        for j, x in row.items():
            if j == k:
                continue
            s = w.get(j)
            if s is None:
                w[j] = f * x
                if j in pivots:
                    heappush(hits, j)
            else:
                s = s + f * x
                if s:
                    w[j] = s
                else:
                    del w[j]
    return w


def forward_echelon(vectors: Sequence[Vec]) -> Echelon:
    """Forward elimination of the vectors in order (the rows of a matrix,
    so its rank is the rank of the matrix), through ``_forward_reduce``.
    A vector that meets no leading column is stored as it is, by
    reference; no stored row is ever changed in place."""
    return Echelon({}).extend(vectors)


def relations_modulo(base: Sequence[Vec], vectors: Sequence[Vec], width: int) -> Iterator[Vec]:
    """For each v_j, in order, in span(base) + span(v_0..v_{j-1}): the c
    with c[j] = 1 and sum c_t v_t in span(base), supported on j and the
    earlier vectors that enlarged the span (unique when the v are
    independent).  One forward elimination, each v_j carrying e_j at
    column width + j (``Echelon.track``)."""
    e = forward_echelon(base)
    for j, v in enumerate(vectors):
        c = e.track(v, j, width)
        if c is not None:
            yield c


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


def nullspace(rows: Rows, ncols: int, one=QI_ONE) -> List[Vec]:
    """Basis of {x : M x = 0}, from the completed echelon of the rows of M."""
    return list(forward_echelon(rows).kernel(ncols, one))


def mat_vec(rows: Rows, x: Vec) -> Vec:
    out: Vec = {}
    for i, r in enumerate(rows):
        s = None
        for k, c in r.items():
            xk = x.get(k)
            if xk:
                s = c * xk if s is None else s + c * xk
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


def mat_mul(a: Rows, b: Rows) -> Rows:
    """(a @ b) where a is p x q rows and b is q x r rows."""
    out: Rows = []
    for ra in a:
        acc: Vec = {}
        for k, c in ra.items():
            if k >= len(b):
                continue
            for j, d in b[k].items():
                s = acc.get(j)
                s = c * d if s is None else s + c * d
                if s:
                    acc[j] = s
                elif j in acc:
                    del acc[j]
        out.append(acc)
    return out


def mat_add(a: Rows, b: Rows) -> Rows:
    return [vec_add(ra, rb) for ra, rb in zip(a, b)]


def mat_scale(a: Rows, c) -> Rows:
    return [vec_scale(r, c) for r in a]


def conj_transpose(rows: Rows, ncols: int) -> Rows:
    out: Rows = [{} for _ in range(ncols)]
    for i, r in enumerate(rows):
        for j, c in r.items():
            out[j][i] = c.conj() if isinstance(c, GaussianRational) else c
    return out


def identity_rows(n: int, one=QI_ONE) -> Rows:
    return [{i: one} for i in range(n)]


def zero_rows(n: int) -> Rows:
    return [{} for _ in range(n)]


def columns_of(rows: Rows, ncols: int) -> List[Vec]:
    cols: List[Vec] = [{} for _ in range(ncols)]
    for i, r in enumerate(rows):
        for j, c in r.items():
            cols[j][i] = c
    return cols


def rows_from_columns(cols: Sequence[Vec], nrows: int) -> Rows:
    out: Rows = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, c in col.items():
            out[i][j] = c
    return out


def harmonic_green(lap: Rows, dim: int) -> Tuple[Rows, Rows]:
    """(H, G) for a self-adjoint Laplacian box on a dim-dimensional space
    with the standard inner product: H the orthogonal projector onto
    ker box, and G the one square solve of (box + H) G = 1 - H, the unique
    operator with box G = 1 - H and G H = H G = 0."""
    kernel = nullspace(lap, dim)
    if kernel:
        r = len(kernel)
        kmat = rows_from_columns(kernel, dim)  # dim x r
        kstar = conj_transpose(kmat, r)
        gram_inv = solve_square(columns_of(mat_mul(kstar, kmat), r), identity_rows(r))
        h = mat_mul(kmat, mat_mul(rows_from_columns(gram_inv, r), kstar))
    else:
        h = zero_rows(dim)
    one_minus_h = mat_add(identity_rows(dim), mat_scale(h, GaussianRational(-1)))
    g = solve_square(columns_of(mat_add(lap, h), dim), columns_of(one_minus_h, dim))
    if g is None:
        raise AssertionError("box + H must be invertible")
    return h, rows_from_columns(g, dim)


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
    pivots: List[Fraction] = []
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


# -- realification (for conditions quantified over real forms) ----------


def realify_vec(v: Vec) -> Vec:
    """Complex vector over Q(i) -> rational vector on a doubled index set.

    Index 2k holds the real part of coordinate k, index 2k+1 the
    imaginary part.
    """
    out: Vec = {}
    for k, z in v.items():
        re, im = z.re, z.im
        if re:
            out[2 * k] = re
        if im:
            out[2 * k + 1] = im
    return out


def realify_span(vectors: Sequence[Vec]) -> List[Vec]:
    """Real span of a complex span: each vector contributes v and i*v."""
    i = GaussianRational(0, 1)
    return [realify_vec(u) for v in vectors for u in (v, {k: z * i for k, z in v.items()})]


def norm2_vec(v: Vec) -> Fraction:
    total = Fraction(0)
    for z in v.values():
        total += z.norm2() if isinstance(z, GaussianRational) else z * z
    return total
