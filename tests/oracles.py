"""Independent oracles for the test suite.

These deliberately avoid the engine's internals: the exterior derivative
is recomputed on words of coframe symbols with bubble-sort parity, and
ranks come from a dense textbook Gaussian elimination over plain
Fractions on realified matrices.  Expected values frozen in the tests
were produced by these routines.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from nilforms import linalg
from nilforms.cohomology import EvaluatedComplex
from nilforms.linalg import Rows
from nilforms.scalars import QI_ONE, GaussianRational, _div, format_gaussian

Word = Tuple[int, ...]  # coframe symbols 0..2n-1, gammas then gammabars


def sort_word(word: Sequence[int]) -> Optional[Tuple[int, Word]]:
    """Bubble sort with parity; None if a symbol repeats."""
    w = list(word)
    sign = 1
    for i in range(len(w)):
        for j in range(len(w) - 1 - i):
            if w[j] == w[j + 1]:
                return None
            if w[j] > w[j + 1]:
                w[j], w[j + 1] = w[j + 1], w[j]
                sign = -sign
    if len(set(w)) != len(w):
        return None
    return sign, tuple(w)


class WordForm:
    """Sparse map from sorted symbol words to Gaussian rationals."""

    def __init__(self, terms: Optional[Dict[Word, GaussianRational]] = None):
        self.terms: Dict[Word, GaussianRational] = {}
        for word, c in (terms or {}).items():
            self.add(word, c)

    def add(self, word: Sequence[int], coeff: GaussianRational) -> None:
        if not coeff:
            return
        res = sort_word(word)
        if res is None:
            return
        sign, key = res
        val = -coeff if sign < 0 else coeff
        cur = self.terms.get(key)
        cur = val if cur is None else cur + val
        if cur:
            self.terms[key] = cur
        elif key in self.terms:
            del self.terms[key]

    def __eq__(self, other):
        return self.terms == other.terms

    def is_zero(self):
        return not self.terms


def oracle_d(
    d_symbols: Dict[int, List[Tuple[GaussianRational, Word]]], form: WordForm
) -> WordForm:
    """d as an odd derivation on words, built independently of the engine."""
    out = WordForm()
    for word, coeff in form.terms.items():
        for pos, sym in enumerate(word):
            sign = -1 if pos % 2 else 1
            for dcoeff, pair in d_symbols.get(sym, []):
                new_word = pair + word[:pos] + word[pos + 1:]
                val = coeff * dcoeff
                out.add(new_word, -val if sign < 0 else val)
    return out


def word_of_mono(I: Sequence[int], J: Sequence[int], n: int) -> Word:
    return tuple(i - 1 for i in I) + tuple(n + j - 1 for j in J)


def oracle_bidegree(word: Word, n: int) -> Tuple[int, int]:
    p = sum(1 for s in word if s < n)
    return p, len(word) - p


def dense_rank(rows: List[List[Fraction]]) -> int:
    """Plain dense row elimination over Fraction, no pivot heuristics."""
    if not rows:
        return 0
    mat = [list(r) for r in rows]
    ncols = len(mat[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, len(mat)):
            if mat[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = Fraction(1) / mat[row][col]
        mat[row] = [x * inv for x in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[row])]
        rank += 1
        row += 1
        if row == len(mat):
            break
    return rank


def realify_dense(rows: List[List[GaussianRational]]) -> List[List[Fraction]]:
    """[ [Re -Im], [Im Re] ] block realification of a complex matrix."""
    out = []
    for r in rows:
        out.append([x.re for x in r] + [-x.im for x in r])
    for r in rows:
        out.append([x.im for x in r] + [x.re for x in r])
    return out


def complex_rank(rows: List[List[GaussianRational]]) -> int:
    if not rows or not rows[0]:
        return 0
    return dense_rank(realify_dense(rows)) // 2


class OracleComplex:
    """Brute-force bigraded complex from d of the coframe symbols."""

    def __init__(self, n: int, d_gamma: Dict[int, List[Tuple[GaussianRational, Tuple[int, int]]]]):
        # d_gamma: 1-based index -> list of (coeff, (sym1, sym2)) already in symbols
        self.n = n
        self.d_symbols: Dict[int, List[Tuple[GaussianRational, Word]]] = {}
        for i, terms in d_gamma.items():
            self.d_symbols[i - 1] = [(c, w) for c, w in terms]
            conj_terms = []
            for c, (s1, s2) in terms:
                cs1 = s1 + n if s1 < n else s1 - n
                cs2 = s2 + n if s2 < n else s2 - n
                res = sort_word((cs1, cs2))
                if res:
                    sign, word = res
                    cc = c.conj()
                    conj_terms.append((-cc if sign < 0 else cc, word))
            self.d_symbols[i - 1 + n] = conj_terms

    def basis(self, p: int, q: int) -> List[Word]:
        gammas = list(combinations(range(self.n), p))
        bars = list(combinations(range(self.n, 2 * self.n), q))
        return [g + b for g in gammas for b in bars]

    def _matrix(self, p: int, q: int, select) -> List[List[GaussianRational]]:
        src = self.basis(p, q)
        images = []
        target_index: Dict[Word, int] = {}
        cols = []
        for word in src:
            d = oracle_d(self.d_symbols, WordForm({word: GaussianRational(1)}))
            col = {}
            for w, c in d.terms.items():
                if oracle_bidegree(w, self.n) == select:
                    if w not in target_index:
                        target_index[w] = len(target_index)
                    col[target_index[w]] = c
            cols.append(col)
        nrows = len(target_index)
        dense = [[GaussianRational(0)] * len(src) for _ in range(nrows)]
        for j, col in enumerate(cols):
            for i, c in col.items():
                dense[i][j] = c
        return dense

    def rank_del(self, p: int, q: int) -> int:
        return complex_rank(self._matrix(p, q, (p + 1, q)))

    def rank_delbar(self, p: int, q: int) -> int:
        return complex_rank(self._matrix(p, q, (p, q + 1)))

    def dim(self, p: int, q: int) -> int:
        from math import comb

        return comb(self.n, p) * comb(self.n, q)

    def rank_d(self, p: int, q: int) -> int:
        """Rank of full d restricted to (p,q) (into both targets)."""
        stacked = self._matrix(p, q, (p + 1, q)) + self._matrix(p, q, (p, q + 1))
        if not stacked:
            return 0
        return complex_rank(stacked)

    def rank_ddbar(self, p: int, q: int) -> int:
        """Rank of del(delbar(.)) from (p,q), by direct double application."""
        src = self.basis(p, q)
        target_index: Dict[Word, int] = {}
        cols = []
        for word in src:
            step = oracle_d(self.d_symbols, WordForm({word: GaussianRational(1)}))
            keep = WordForm()
            for w, c in step.terms.items():
                if oracle_bidegree(w, self.n) == (p, q + 1):
                    keep.add(w, c)
            dd = oracle_d(self.d_symbols, keep)
            col = {}
            for w, c in dd.terms.items():
                if oracle_bidegree(w, self.n) == (p + 1, q + 1):
                    if w not in target_index:
                        target_index[w] = len(target_index)
                    col[target_index[w]] = c
            cols.append(col)
        dense = [[GaussianRational(0)] * len(src) for _ in range(len(target_index))]
        for j, col in enumerate(cols):
            for i, c in col.items():
                dense[i][j] = c
        return complex_rank(dense)

    def h_dolbeault(self, p: int, q: int) -> int:
        ker = self.dim(p, q) - self.rank_delbar(p, q)
        im = self.rank_delbar(p, q - 1) if q >= 1 else 0
        return ker - im

    def h_del(self, p: int, q: int) -> int:
        ker = self.dim(p, q) - self.rank_del(p, q)
        im = self.rank_del(p - 1, q) if p >= 1 else 0
        return ker - im

    def h_bc(self, p: int, q: int) -> int:
        ker = self.dim(p, q) - self.rank_d(p, q)
        im = self.rank_ddbar(p - 1, q - 1) if p >= 1 and q >= 1 else 0
        return ker - im

    def h_aeppli(self, p: int, q: int) -> int:
        ker = self.dim(p, q) - self.rank_ddbar(p, q)
        # im del + im delbar needs a joint dense rank
        up = self._matrix(p - 1, q, (p, q)) if p >= 1 else []
        low = self._matrix(p, q - 1, (p, q)) if q >= 1 else []
        # stack columns: rebuild against a common row index (the full basis)
        basis = {w: i for i, w in enumerate(self.basis(p, q))}
        cols: List[Dict[int, GaussianRational]] = []
        for (srcp, srcq), which in (((p - 1, q), (p, q)), ((p, q - 1), (p, q))):
            if srcp < 0 or srcq < 0:
                continue
            for word in self.basis(srcp, srcq):
                d = oracle_d(self.d_symbols, WordForm({word: GaussianRational(1)}))
                col = {}
                for w, c in d.terms.items():
                    if oracle_bidegree(w, self.n) == (p, q):
                        col[basis[w]] = c
                cols.append(col)
        dense = [[GaussianRational(0)] * len(cols) for _ in range(len(basis))]
        for j, col in enumerate(cols):
            for i, c in col.items():
                dense[i][j] = c
        return ker - complex_rank(dense)


def iwasawa_oracle() -> OracleComplex:
    return OracleComplex(3, {3: [(GaussianRational(-1), (0, 1))]})


def torus_oracle(n: int = 3) -> OracleComplex:
    return OracleComplex(n, {})


def bcvary_oracle() -> OracleComplex:
    # d gamma^4 = gamma^1 ^ gammabar^3, d gamma^5 = gamma^3 ^ gammabar^4
    return OracleComplex(
        5,
        {
            4: [(GaussianRational(1), (0, 5 + 2))],
            5: [(GaussianRational(1), (2, 5 + 3))],
        },
    )


# -- the general paths that the engine's fast paths must reproduce --------


class FractionPartGaussian:
    """The Q(i) scalar that ``scalars.GaussianRational`` replaced: a + b*i
    with each part an int or a Fraction, kept as two attributes.

    An int part (not a bool) is kept as it is, anything else becomes a
    Fraction.  +, -, * and an exact / of two int parts give an int; a
    quotient that is not integral is a Fraction, and an int part meeting
    a Fraction part gives a Fraction.  The engine's class must give the
    same values, strings and verdicts.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is int or isinstance(re, Fraction) else Fraction(re)
        self.im = im if type(im) is int or isinstance(im, Fraction) else Fraction(im)

    def __add__(self, other):
        other = _fraction_part(other)
        return FractionPartGaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return FractionPartGaussian(-self.re, -self.im)

    def __sub__(self, other):
        other = _fraction_part(other)
        return FractionPartGaussian(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _fraction_part(other) - self

    def __mul__(self, other):
        other = _fraction_part(other)
        return FractionPartGaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _fraction_part(other)
        if not other.im:
            if not other.re:
                raise ZeroDivisionError("division by zero in Q(i)")
            return FractionPartGaussian(_div(self.re, other.re), _div(self.im, other.re))
        n = other.re * other.re + other.im * other.im
        return FractionPartGaussian(
            _div(self.re * other.re + self.im * other.im, n),
            _div(self.im * other.re - self.re * other.im, n),
        )

    def __rtruediv__(self, other):
        return _fraction_part(other) / self

    def conj(self):
        return FractionPartGaussian(self.re, -self.im)

    def norm2(self):
        return self.re * self.re + self.im * self.im

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.re == other and self.im == 0
        if isinstance(other, FractionPartGaussian):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __str__(self):
        return format_gaussian(self)


def _fraction_part(x) -> FractionPartGaussian:
    if isinstance(x, FractionPartGaussian):
        return x
    if isinstance(x, (int, Fraction)):
        return FractionPartGaussian(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to FractionPartGaussian")


def _vec_sub_scaled(u, c, v):
    out = dict(u)
    for k, x in v.items():
        s = out.get(k)
        d = -c * x if s is None else s - c * x
        if d:
            out[k] = d
        elif k in out:
            del out[k]
    return out


class FullScanEchelon:
    """The incremental RREF with no column index: reduction copies the
    vector at every step, back-substitution after a useful insert probes
    every stored pivot row, and every new row, a unit-led one too, is
    multiplied by one / its leading entry, a quotient of two field
    elements."""

    def __init__(self, track: bool = False, one=GaussianRational(1)):
        self.pivots: Dict[int, Dict[int, object]] = {}
        self.track = track
        self.one = one
        self.combos: Dict[int, Dict[int, object]] = {}
        self._count = 0

    def reduce(self, v, combo=None):
        w = dict(v)
        c = dict(combo) if combo is not None else None
        for p in [k for k in w if k in self.pivots]:
            coeff = w.get(p)
            if not coeff:
                continue
            w = _vec_sub_scaled(w, coeff, self.pivots[p])
            if c is not None:
                c = _vec_sub_scaled(c, coeff, self.combos[p])
        return w, c

    def insert(self, v) -> bool:
        combo = {self._count: self.one} if self.track else None
        self._count += 1
        w, c = self.reduce(v, combo)
        if not w:
            return False
        piv = min(w)
        inv = self.one / w[piv]
        w = {k: inv * x for k, x in w.items()}
        if c is not None:
            c = {k: inv * x for k, x in c.items()}
        for p in list(self.pivots):
            row = self.pivots[p]
            coeff = row.get(piv)
            if coeff:
                self.pivots[p] = _vec_sub_scaled(row, coeff, w)
                if self.track:
                    self.combos[p] = _vec_sub_scaled(self.combos[p], coeff, c)
        self.pivots[piv] = w
        if self.track:
            self.combos[piv] = c
        return True

    def solve_combo(self, v):
        w, c = self.reduce(v, {})
        if w:
            return None
        return {k: -x for k, x in c.items()}


def span_intersection(a_vecs, b_vecs, negate=None):
    """Basis of span(a) cap span(b), from the relations among the columns
    [a | -b]: the route ``lemmata.strong`` took before it built its basis
    from the few del/delbar images of deldelbar-kernel vectors.  Each b
    vector is negated by ``negate`` (default ``linalg._negated``)."""
    from nilforms.linalg import Echelon, _negated, nullspace, rows_from_columns, vec_add, vec_scale

    if not a_vecs or not b_vecs:
        return []
    cols = list(a_vecs) + [(negate or _negated)(v) for v in b_vecs]
    idx = set()
    for v in cols:
        idx.update(v)
    rows = rows_from_columns(cols, (max(idx) + 1) if idx else 0)
    na = len(a_vecs)
    out = []
    e = Echelon({})
    for rel in nullspace(rows, len(cols)):
        v = {}
        for k, c in rel.items():
            if k < na:
                v = vec_add(v, vec_scale(a_vecs[k], c))
        if v and e.insert(v):
            out.append(v)
    return out


def negating_span_intersection(a_vecs, b_vecs):
    """span(a) cap span(b) with each b vector negated through
    vec_scale(v, -1), a product per entry by the coerced -1."""
    from nilforms.linalg import vec_scale

    return span_intersection(a_vecs, b_vecs, negate=lambda v: vec_scale(v, -1))


def full_scan_kernel(pivots, ncols: int, one=GaussianRational(1)):
    """Kernel basis of an RREF, probing every pivot row for each free column."""
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = {f: one}
        for p, row in pivots.items():
            c = row.get(f)
            if c:
                x[p] = -c * one
        basis.append(x)
    return basis


def echelon_kernel_one_pass(e, ncols: int, one=GaussianRational(1)):
    """Kernel basis of an RREF, every vector filled in one pass over the
    stored rows: the vector of free column f is e_f minus, at each pivot
    p, the entry of row p at f."""
    free = {f: {f: one} for f in range(ncols) if f not in e.pivots}
    for p, row in e.pivots.items():
        for f, c in row.items():
            if f != p:
                free[f][p] = -c
    return list(free.values())


def form_layer_derivation(se, a, op: str):
    """del, delbar or d of a form through the Form layer: every Leibniz
    term is a Form wedge added to a running Form sum."""
    from nilforms.algebra import Form

    alg = se.algebra
    n = se.n
    out = alg.zero()
    for (I, J), c in a.coeffs.items():
        symbols = [i - 1 for i in I] + [n + j - 1 for j in J]
        for pos, s in enumerate(symbols):
            ds = se.d_symbol(s)
            if op == "del":
                ds = ds.component(2, 0) if s < n else ds.component(1, 1)
            elif op == "delbar":
                ds = ds.component(1, 1) if s < n else ds.component(0, 2)
            if not ds:
                continue
            if pos < len(I):
                rest = (I[:pos] + I[pos + 1:], J)
            else:
                pj = pos - len(I)
                rest = (I, J[:pj] + J[pj + 1:])
            v = -c if pos % 2 else c
            out = out + ds.wedge(Form(alg, {rest: v}))
    return out


# -- the symbolic assembly that EvaluatedComplex.rows replaced -------------


def symbolic_columns(cx, op: str, p: int, q: int):
    """Columns of del or delbar with source (p,q) over the parameter ring:
    the Leibniz rule on every basis monomial of (p,q), each column a dict
    {target row: ParamScalar}."""
    from nilforms.algebra import _accumulate, _SymbolImages

    se = cx.se
    images = _SymbolImages(se._del_part if op == "del" else se._delbar_part)
    tp, tq = (p + 1, q) if op == "del" else (p, q + 1)
    tgt_index = cx.index(tp, tq) if cx.dim(tp, tq) else {}
    cols = []
    for m in cx.basis(p, q):
        col = {}
        for negate, mm, dc in se._leibniz_terms(m, images):
            _accumulate(col, tgt_index[mm], -dc if negate else dc)
        cols.append(col)
    return cols


def evaluated_rows(cx, op: str, p: int, q: int, point):
    """The rows of del or delbar at a point: the symbolic columns, each
    entry through ParamScalar.eval, zeros dropped."""
    tp, tq = (p + 1, q) if op == "del" else (p, q + 1)
    out = [{} for _ in range(cx.dim(tp, tq))]
    if cx.dim(p, q) and out:
        for j, col in enumerate(symbolic_columns(cx, op, p, q)):
            for i, c in col.items():
                v = c.eval(point)
                if v:
                    out[i][j] = v
    return out


# -- the Green route that EvaluatedComplex.ddbar_preimage replaced ---------


def canonical_solver_rows(ec, p: int, q: int):
    """(del delbar)* G_BC at target (p,q): the minimal-norm preimage map
    of del delbar, through the Green operator of the Bott-Chern
    Laplacian (a dense solve)."""
    adjoint = linalg.conj_transpose(ec.rows("ddbar", p - 1, q - 1), ec.dim(p - 1, q - 1))
    return linalg.mat_mul(adjoint, HodgeContext(ec).green_bc_rows(p, q))


# -- the tracked RREF that EvaluatedComplex.ddbar_preimage replaced --------


def ddbar_preimage_by_tracked_rref(ec, p: int, q: int, y):
    """The minimal-norm x in (p-1,q-1) with del delbar x = y, or None:
    z from an incremental RREF of the columns of A A* (A = del delbar
    from (p-1,q-1)) that tracks each row's combination of the columns,
    and x = A* z."""
    a = ec.rows("ddbar", p - 1, q - 1)
    adjoint = linalg.conj_transpose(a, ec.dim(p - 1, q - 1))
    e = FullScanEchelon(track=True)
    for col in linalg.columns_of(linalg.mat_mul(a, adjoint), ec.dim(p, q)):
        e.insert(col)
    z = e.solve_combo(y)
    return None if z is None else linalg.mat_vec(adjoint, z)


def real_basis_vectors_by_products(ec, p: int):
    """The conjugation-fixed basis of ``lemmata._real_basis_vectors``
    with i^(p*p) formed by p*p products in Q(i) and the second vector of
    each conjugate pair scaled by a product i * (-sign)."""
    basis = ec.cx.basis(p, p)
    index = ec.cx.index(p, p)
    sign = -1 if (p * p) % 2 else 1
    i_unit = GaussianRational(0, 1)
    unit = GaussianRational(1)
    ipp = unit
    for _ in range(p * p):
        ipp = ipp * i_unit
    out = []
    seen = set()
    for m in basis:
        I, J = m
        if m in seen:
            continue
        flip = (J, I)
        if I == J:
            out.append({index[m]: ipp})
            seen.add(m)
        else:
            seen.add(m)
            seen.add(flip)
            out.append({index[m]: unit, index[flip]: GaussianRational(sign)})
            out.append({index[m]: i_unit, index[flip]: i_unit * GaussianRational(-sign)})
    return out


# -- the dense Gauss-Jordan and LDL* loop that the tracked forward echelon
# -- replaced (linalg.solve_square and linalg.hermitian_pivots) -------------


def solve_dense(a: List[List[object]], b: List[List[object]]):
    """Solve A X = B for dense square A; returns X or None if singular."""
    n = len(a)
    m = len(b[0]) if b else 0
    aug = [list(a[i]) + list(b[i]) for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if aug[r][col]:
                piv = r
                break
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = _div(1, aug[col][col])
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:n + m] for row in aug]


def dense_inverse(a: List[List[object]]):
    n = len(a)
    zero = GaussianRational(0)
    one = QI_ONE
    if n and not isinstance(a[0][0], GaussianRational):
        zero, one = Fraction(0), Fraction(1)
    eye = [[one if i == j else zero for j in range(n)] for i in range(n)]
    return solve_dense(a, eye)


def rows_to_dense(rows: Rows, ncols: int, zero=None) -> List[List[object]]:
    zero = zero if zero is not None else GaussianRational(0)
    return [[r.get(j, zero) for j in range(ncols)] for r in rows]


def dense_to_rows(dense: List[List[object]]) -> Rows:
    return [{j: x for j, x in enumerate(row) if x} for row in dense]


def hermitian_pivots_ldl(a: List[List[GaussianRational]]):
    """LDL* pivots of a Hermitian matrix, stopping at the first pivot <= 0.

    Returns (pivots, witness, fail_index): pivots is the list of real
    diagonal entries produced so far; on failure, witness is an exact
    vector w with w* A w = pivots[-1] <= 0, else witness is None.  The
    leading principal k-minor equals the product of the first k pivots.
    """
    n = len(a)
    work = [[a[i][j] for j in range(n)] for i in range(n)]
    l_cols: List[Dict[int, GaussianRational]] = []
    pivots: List[Fraction] = []
    for k in range(n):
        d = work[k][k]
        if d.im != 0:
            raise ValueError("matrix is not Hermitian (complex diagonal)")
        pivots.append(d.re)
        if d.re <= 0:
            w = _ldl_witness(l_cols, k)
            return pivots, w, k
        col = {}
        for i in range(k + 1, n):
            if work[i][k]:
                col[i] = work[i][k] / d
        l_cols.append(col)
        for i in range(k + 1, n):
            lik = col.get(i)
            if not lik:
                continue
            for j in range(k + 1, n):
                ljk = col.get(j)
                if ljk:
                    work[i][j] = work[i][j] - lik * d * ljk.conj()
    return pivots, None, None


def _ldl_witness(l_cols, k):
    """Solve L* w = e_k for the partial unit lower-triangular L."""
    w = {k: QI_ONE}
    for j in range(k - 1, -1, -1):
        s = GaussianRational(0)
        for i, lij in l_cols[j].items():
            wi = w.get(i)
            if wi:
                s = s + lij.conj() * wi
        if s:
            w[j] = -s
    return w


def coframe_endo_dense(endo, point):
    """A CoframeEndo evaluated at a parameter point, as the dense 2n x 2n
    Gaussian matrix whose column b is the image of coframe symbol b."""
    n2 = 2 * endo.algebra.n
    zero = GaussianRational(0)
    out = [[zero for _ in range(n2)] for _ in range(n2)]
    for b, col in endo.cols.items():
        for a, c in col.items():
            out[a][b] = c.eval(point)
    return out


def deform_complex_dense(se, phi, point):
    """``deform_complex`` at a point with 1 + phi + conj(phi) inverted by
    dense Gauss-Jordan, as before the square solve; phi must be
    integrable (not checked here)."""
    from nilforms import deformation
    from nilforms.algebra import CoframeEndo
    from nilforms.errors import NonInvertibleCoframe

    phi0 = phi.eval(point)
    se0 = deformation.evaluate_se(se.with_algebra(phi.algebra), point)
    alg0 = phi0.algebra
    inv = dense_inverse(coframe_endo_dense(deformation.coframe_transform(phi0), ()))
    if inv is None:
        raise NonInvertibleCoframe("1 + phi + conj(phi) is singular at the evaluation point")
    d_endo = CoframeEndo(
        alg0,
        {
            b: {a: alg0.ring.const(inv[a][b]) for a in range(2 * alg0.n) if inv[a][b]}
            for b in range(2 * alg0.n)
        },
    )
    return deformation._deformed_equations(se0, phi0, d_endo)


def fiber_point(seed: int):
    """A point of bcvary10's parameter space drawn as the fiber_sweep
    benchmark draws one: four nonzero rationals of absolute value at most
    1/3, with denominators 5..31."""
    rng = random.Random(seed)

    def small():
        den = rng.randint(5, 31)
        num = rng.randint(1, den // 3)
        return Fraction(num if rng.random() < 0.5 else -num, den)

    return tuple(GaussianRational(small()) for _ in range(4))


# -- the two-pass Green operator that linalg.harmonic_green replaced -------


def harmonic_green_two_pass(lap, dim: int):
    """(H, G) with G = (box + H)^{-1} (1 - H) formed as a dense inverse
    followed by a matrix product."""
    kernel = linalg.nullspace(lap, dim)
    if kernel:
        kmat = linalg.rows_from_columns(kernel, dim)
        kstar = linalg.conj_transpose(kmat, len(kernel))
        gram_inv = dense_inverse(rows_to_dense(linalg.mat_mul(kstar, kmat), len(kernel)))
        h = linalg.mat_mul(kmat, linalg.mat_mul(dense_to_rows(gram_inv), kstar))
    else:
        h = linalg.zero_rows(dim)
    inv = dense_inverse(rows_to_dense(linalg.mat_add(lap, h), dim))
    if inv is None:
        raise AssertionError("box + H must be invertible")
    one_minus_h = linalg.mat_add(linalg.identity_rows(dim), linalg.mat_scale(h, GaussianRational(-1)))
    return h, linalg.mat_mul(dense_to_rows(inv), one_minus_h)


# -- the scalar-first route that algebra.simultaneous_contract replaced ----


def simultaneous_contract_scalar_first(b, a):
    """The image of a under the coframe map b, each monomial started
    from its coefficient as a scalar form and wedged with the image of
    one factor at a time."""
    alg = a.algebra
    n = alg.n
    total = alg.zero()
    for (I, J), c in a.coeffs.items():
        piece = alg.scalar_form(c)
        for s in [i - 1 for i in I] + [n + j - 1 for j in J]:
            piece = piece.wedge(b.column_form(s))
            if not piece:
                break
        total = total + piece
    return total


# -- the whole-series order loop that extension.solve_extension replaced ---


def solve_extension_whole_series(se, phi, omega0, order=None, check_lemmata=True, ec0=None):
    """``extension.solve_extension`` with the k-sums recomputed over the
    whole series W at every order l, of which only the degree-l part is
    read."""
    from nilforms import extension

    se_r, omega0, order, ec0 = extension._checked_inputs(se, phi, omega0, order, check_lemmata, ec0)
    p, q = omega0.bidegree()
    omega_tilde = omega0
    for l in range(1, order + 1):
        sums = extension.ladder_sums(phi, omega_tilde)
        omega_tilde = omega_tilde + extension._order_correction(se_r, ec0, sums, p, q, l)
    return extension._extension_state(se_r, phi, omega0, omega_tilde, order)


# -- the vector-route lemma verdicts that the rank identities replaced ------


def mild_by_vectors(ec, op: str, p: int, q: int):
    """op(ker deldelbar) inside im deldelbar at (p,q), op del (mild) or
    delbar (dual mild), by testing the image of each kernel vector; the
    witness is the first image outside."""
    sp, sq = (p - 1, q) if op == "del" else (p, q - 1)
    if not (ec.dim(sp, sq) and ec.dim(p, q)):
        return True, None
    target = ec.image_echelon("ddbar", p, q)
    cols = ec.columns(op, sp, sq)
    for x in ec.kernel("ddbar", sp, sq):
        v = linalg.columns_vec(cols, x)
        if v and not target.contains(v):
            return False, ec.vec_to_form(v, p, q)
    return True, None


def exact_closed_basis_full(ec, p: int, q: int):
    """Basis of (im del + im delbar) cap ker del cap ker delbar at (p,q),
    strong's space, on a flat complex.

    The space is del(ker deldelbar at (p-1,q)) + delbar(ker deldelbar at
    (p,q-1)), spanned by the images of the deldelbar kernel vectors whose
    free column is a pivot of del (resp. delbar), each checked to be
    d-closed (AssertionError otherwise).  The basis is the full RREF of
    their span read in the free coordinates of the stacked [del; delbar]
    echelon, largest free column leading, listed by leading column
    ascending, each vector's keys ascending."""
    spanning = []
    n_del = 0
    for op, sp, sq in (("del", p - 1, q), ("delbar", p, q - 1)):
        if not ec.dim(sp, sq):
            continue
        pivots = ec._row_echelon(op, sp, sq).pivots
        ddbar_pivots = ec._row_echelon("ddbar", sp, sq).pivots
        free = [f for f in range(ec.dim(sp, sq)) if f not in ddbar_pivots]
        cols = ec.columns(op, sp, sq)
        for f, x in zip(free, ec.kernel("ddbar", sp, sq)):
            if f in pivots:
                spanning.append(linalg.columns_vec(cols, x))
        if op == "del":
            n_del = len(spanning)
    if not spanning:
        return []
    del_cols, delbar_cols = ec.columns("del", p, q), ec.columns("delbar", p, q)
    for i, v in enumerate(spanning):
        if (i < n_del and linalg.columns_vec(del_cols, v)) or linalg.columns_vec(delbar_cols, v):
            raise AssertionError(
                f"strong at {(p, q)}: a vector of del/delbar(ker deldelbar) is not d-closed"
            )
    closed_pivots = ec._row_echelon("stacked", p, q).pivots
    free = [f for f in range(ec.dim(p, q)) if f not in closed_pivots]
    key = {f: len(free) - 1 - i for i, f in enumerate(free)}
    key.update((col, len(free) + col) for col in closed_pivots)
    back = {k: i for i, k in key.items()}
    e = FullScanEchelon()
    for v in spanning:
        e.insert({key[i]: c for i, c in v.items()})
    return [
        dict(sorted((back[k], c) for k, c in e.pivots[lead].items()))
        for lead in sorted(e.pivots, reverse=True)
    ]


def strong_by_vectors(ec, p: int, q: int):
    """Strong at (p,q) by testing each vector of the full basis."""
    if not ec.dim(p, q):
        return True, None
    target = ec.image_echelon("ddbar", p, q)
    for v in exact_closed_basis_full(ec, p, q):
        if not target.contains(v):
            return False, ec.vec_to_form(v, p, q)
    return True, None


def weak_by_nullspace(ec, p: int):
    """weak(p) by solving over Q for every real psi with delbar psi
    del-exact (a nullspace of the realified system) and testing each
    solution's delbar psi against the realified deldelbar image."""
    from nilforms.lemmata import _real_basis_vectors

    q = p + 1
    if q > ec.n or not ec.dim(p, p):
        return True, None
    reals = _real_basis_vectors(ec, p)
    delbar_cols = ec.columns("delbar", p, p)
    delbar_images = [linalg.columns_vec(delbar_cols, r) for r in reals]
    del_span = linalg.realify_span(ec.image_vectors("del", p, q))
    cols = [linalg.realify_vec(v) for v in delbar_images]
    ncols_psi = len(cols)
    cols = cols + [linalg._negated(v) for v in del_span]
    rows = linalg.rows_from_columns(cols, 2 * ec.dim(p, q))
    relations = linalg.nullspace(rows, len(cols), one=Fraction(1))
    target = FullScanEchelon(one=Fraction(1))
    for v in linalg.realify_span(ec.image_vectors("ddbar", p, q)):
        target.insert(v)
    for rel in relations:
        combo = {k: c for k, c in rel.items() if k < ncols_psi}
        if not combo:
            continue
        w_real = {}
        for k, c in combo.items():
            linalg.add_scaled_into(w_real, c, cols[k])
        if w_real and target.reduce(w_real)[0]:
            witness = {}
            for k, c in combo.items():
                linalg.add_scaled_into(witness, GaussianRational(c), delbar_images[k])
            return False, ec.vec_to_form(witness, p, q)
    return True, None


def standard_by_blocks(ec):
    """standard by building, at each (p,q) in turn, a basis of the
    d-exact forms of pure type (p,q) and testing each vector; returns
    (flag, witness, bidegree)."""
    from nilforms.lemmata import _pure_d_exact

    for p in range(ec.n + 1):
        for q in range(ec.n + 1):
            if not ec.dim(p, q):
                continue
            exact = _pure_d_exact(ec, p, q)
            if not exact:
                continue
            target = ec.image_echelon("ddbar", p, q)
            for v in exact:
                if not target.contains(v):
                    return False, ec.vec_to_form(v, p, q), (p, q)
    return True, None, None


# -- Hodge theory, which canonical_solver_rows reads -----------------------


class HodgeContext:
    """Adjoints, the two fourth-order Laplacians, harmonic projectors and
    Green operators in the inner product declaring the monomial basis
    orthonormal (the invariant metric sum gamma^i (x) gammabar^i).

    Green operators come from exact solves (``linalg.harmonic_green``).
    This is the Hodge-theory API only: no solver reads it, since the
    minimal-norm del-delbar solve is ``EvaluatedComplex.ddbar_preimage``.
    """

    def __init__(self, ec: EvaluatedComplex):
        self.ec = ec
        self._cache: Dict[Tuple[str, int, int], Rows] = {}

    # adjoints with the stated SOURCE bidegree
    def delstar_rows(self, p: int, q: int) -> Rows:
        """del*: (p,q) -> (p-1,q)."""
        key = ("delstar", p, q)
        if key not in self._cache:
            if p < 1:
                self._cache[key] = linalg.zero_rows(0)
            else:
                self._cache[key] = linalg.conj_transpose(
                    self.ec.rows("del", p - 1, q), self.ec.dim(p - 1, q)
                )
        return self._cache[key]

    def delbarstar_rows(self, p: int, q: int) -> Rows:
        """delbar*: (p,q) -> (p,q-1)."""
        key = ("delbarstar", p, q)
        if key not in self._cache:
            if q < 1:
                self._cache[key] = linalg.zero_rows(0)
            else:
                self._cache[key] = linalg.conj_transpose(
                    self.ec.rows("delbar", p, q - 1), self.ec.dim(p, q - 1)
                )
        return self._cache[key]

    def _compose(self, chain) -> Rows:
        """Compose a chain [(op, p, q), ...] applied right-to-left."""
        ec = self.ec
        rows = None
        for op, p, q in reversed(chain):
            if p < 0 or q < 0 or p > ec.n or q > ec.n:
                return None
            if op == "del":
                step = ec.rows("del", p, q) if ec.dim(p + 1, q) else None
            elif op == "delbar":
                step = ec.rows("delbar", p, q) if ec.dim(p, q + 1) else None
            elif op == "delstar":
                step = self.delstar_rows(p, q) if p >= 1 else None
            else:
                step = self.delbarstar_rows(p, q) if q >= 1 else None
            if step is None:
                return None
            rows = step if rows is None else linalg.mat_mul(step, rows)
        return rows

    def _zero_square(self, p, q) -> Rows:
        return linalg.zero_rows(self.ec.dim(p, q))

    def lap_bc_rows(self, p: int, q: int) -> Rows:
        """The six-term fourth-order operator with vanishing kernel on
        exact classes: dd~ (dd~)* + (dd~)* dd~ + crossed terms + lower."""
        key = ("lapbc", p, q)
        if key in self._cache:
            return self._cache[key]
        terms = [
            [("del", p - 1, q), ("delbar", p - 1, q - 1), ("delbarstar", p - 1, q), ("delstar", p, q)],
            [("delbarstar", p, q + 1), ("delstar", p + 1, q + 1), ("del", p, q + 1), ("delbar", p, q)],
            [("delbarstar", p, q + 1), ("del", p - 1, q + 1), ("delstar", p, q + 1), ("delbar", p, q)],
            [("delstar", p + 1, q), ("delbar", p + 1, q - 1), ("delbarstar", p + 1, q), ("del", p, q)],
            [("delbarstar", p, q + 1), ("delbar", p, q)],
            [("delstar", p + 1, q), ("del", p, q)],
        ]
        total = self._zero_square(p, q)
        for chain in terms:
            rows = self._compose(chain)
            if rows is not None:
                total = linalg.mat_add(total, rows)
        self._cache[key] = total
        return total

    def lap_a_rows(self, p: int, q: int) -> Rows:
        key = ("lapa", p, q)
        if key in self._cache:
            return self._cache[key]
        terms = [
            [("delstar", p + 1, q), ("delbarstar", p + 1, q + 1), ("delbar", p + 1, q), ("del", p, q)],
            [("delbar", p, q - 1), ("del", p - 1, q - 1), ("delstar", p, q - 1), ("delbarstar", p, q)],
            [("delbar", p, q - 1), ("delstar", p + 1, q - 1), ("del", p, q - 1), ("delbarstar", p, q)],
            [("del", p - 1, q), ("delbarstar", p - 1, q + 1), ("delbar", p - 1, q), ("delstar", p, q)],
            [("delbar", p, q - 1), ("delbarstar", p, q)],
            [("del", p - 1, q), ("delstar", p, q)],
        ]
        total = self._zero_square(p, q)
        for chain in terms:
            rows = self._compose(chain)
            if rows is not None:
                total = linalg.mat_add(total, rows)
        self._cache[key] = total
        return total

    # -- harmonic projector and Green operator --------------------------

    def _harmonic_green(self, which: str, p: int, q: int) -> Tuple[Rows, Rows]:
        """(H, G) for box_BC or box_A at (p,q)."""
        key = (f"hg-{which}", p, q)
        if key not in self._cache:
            lap = self.lap_bc_rows(p, q) if which == "bc" else self.lap_a_rows(p, q)
            self._cache[key] = linalg.harmonic_green(lap, self.ec.dim(p, q))
        return self._cache[key]

    def harmonic_bc_rows(self, p, q):
        return self._harmonic_green("bc", p, q)[0]

    def green_bc_rows(self, p, q):
        return self._harmonic_green("bc", p, q)[1]

    def harmonic_a_rows(self, p, q):
        return self._harmonic_green("a", p, q)[0]

    def green_a_rows(self, p, q):
        return self._harmonic_green("a", p, q)[1]
