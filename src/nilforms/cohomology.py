"""Per-bidegree linear algebra: the four cohomologies and the canonical
del-delbar solve.

An EvaluatedComplex owns every cache at its evaluation point: the
evaluated structure constants, the four named matrices of ``rows`` (del,
delbar, ddbar, stacked) and d on the total complex, one row echelon per
matrix, one forward column echelon per image, and the tracked forward
echelons that every minimal-norm del-delbar solve at that point reuses
(``ddbar_preimage``).  [del | delbar] is a rank, not a matrix.

Every dimension is rank arithmetic (dim - rank of the outgoing map -
rank of the incoming map), and every rank is read from a forward
echelon, which completes itself in place into the reduced echelon only
where a kernel is read.  On a unimodular complex the Aeppli and the
upper de Rham ranks are read through Hodge-star duality from echelons
that other dimensions already hold.  Kernel and image bases are built
only for callers that need vectors (representatives, lemma witnesses,
solvers).
``cohomology(..., with_basis=True)`` checks the rank route against the
basis route.  Quotient-space computations are the normative route; the
Laplacians, harmonic projectors and Green operators of Hodge theory are
a test oracle (``HodgeContext`` in ``tests/oracles.py``).
Generic-t answers are taken at two fixed rational sample points (ranks
are lower-semicontinuous in specialization), never by symbolic rank
over a function field.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .algebra import Form, FormAlgebra, InvariantComplex, merge_indices
from .errors import NotSolvable, PreconditionFailed
from .linalg import Echelon, Rows, Vec
from .scalars import GaussianRational

#: numerators/denominators for the fixed generic sample points
_GENERIC_NUMS = (3, 5, 2, 7)
_GENERIC_DENS = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def generic_points(m: int) -> Tuple[Tuple[GaussianRational, ...], Tuple[GaussianRational, ...]]:
    """Two fixed distinct rational sample points, scaled to m parameters."""
    first, second = [], []
    for k in range(m):
        num = _GENERIC_NUMS[k % 4]
        den = _GENERIC_DENS[k % len(_GENERIC_DENS)] * (1 + k // len(_GENERIC_DENS))
        first.append(GaussianRational(Fraction(num, den)))
        second.append(GaussianRational(Fraction(num, 2 * den)))
    return tuple(first), tuple(second)


def zero_point(m: int) -> Tuple[GaussianRational, ...]:
    return tuple(GaussianRational(0) for _ in range(m))


#: the matrices that ``EvaluatedComplex.rows`` builds, by name
_MATRICES = ("del", "delbar", "ddbar", "stacked")
#: (dp, dq) from the source to the target bidegree of each map
_SHIFT = {"del": (1, 0), "delbar": (0, 1), "ddbar": (1, 1)}


def _known(op: str, names) -> str:
    """op, if it is one of names; else ValueError naming them."""
    if op not in names:
        raise ValueError(f"unknown matrix {op!r}: expected one of {', '.join(names)}")
    return op


def _subset_index(n: int) -> Tuple[Dict[Tuple[int, ...], int], ...]:
    """Per size k, the position of each k-subset of 1..n in lexicographic
    order: the basis of (p,q) is I-major, so the index of (I, J) is
    index[p][I] * C(n, q) + index[q][J]."""
    ids = range(1, n + 1)
    return tuple({c: i for i, c in enumerate(combinations(ids, k))} for k in range(n + 1))


def _block_terms(index, fixed: Tuple[int, ...], s: Optional[int], k: int):
    """One block (the gamma or the gammabar indices) of the monomials that
    a term meets.

    fixed is this block of the term, s the index of the symbol if it lies
    in this block (else None), k the size of rest's block.  Per k-subset
    R of 1..n avoiding fixed and s, yields the position of R with s
    inserted (source) and of fixed + R (target) among the subsets of
    their size, and whether the Koszul sign of merging fixed with R and
    of moving s out of R + s is odd.
    """
    avoid = set(fixed)
    if s:
        avoid.add(s)
    src_index, tgt_index = index[k + bool(s)], index[k + len(fixed)]
    for r in combinations([i for i in range(1, len(index)) if i not in avoid], k):
        sign, merged = merge_indices(fixed, r)
        odd = sign < 0
        col = r
        if s:
            pos = bisect(r, s)
            col = r[:pos] + (s,) + r[pos:]
            odd ^= pos % 2 == 1
        yield src_index[col], tgt_index[merged], odd


def _assemble(out: Rows, terms, index, p: int, q: int, tq: int) -> None:
    """Rows of del or delbar from (p,q) (target gammabar-degree tq), one
    structure constant at a time.

    For each symbol s, each term (I_d, J_d, c) of its image and each
    monomial rest of the remaining bidegree that shares no index with s
    or the term, the Leibniz rule puts +-c at row index((I_d, J_d) ^ rest)
    and column index(rest + s), with the Koszul sign of
    ``StructureEquations._leibniz_terms``.  Two triples meet at one entry
    only when d of a symbol contains that symbol; such entries are summed
    and dropped when they cancel.  Each row's keys end ascending.
    """
    n = len(index) - 1
    cq, ctq = comb(n, q), comb(n, tq)
    for s, sterms in enumerate(terms):
        a, b = (s + 1, None) if s < n else (None, s - n + 1)
        rp, rq = (p - 1, q) if s < n else (p, q - 1)
        if rp < 0 or rq < 0:
            continue
        for I_d, J_d, c in sterms:
            # rest's (1,0)-block jumps the (0,1)-block of the term, and a
            # gammabar symbol sits behind all of rest's (1,0)-factors
            odd = (len(J_d) * rp + (rp if b else 0)) % 2 == 1
            neg = -c
            jparts = list(_block_terms(index, J_d, b, rq))
            for ci, ri, oi in _block_terms(index, I_d, a, rp):
                ci, ri, oi = ci * cq, ri * ctq, oi ^ odd
                for cj, rj, oj in jparts:
                    row = out[ri + rj]
                    col = ci + cj
                    v = neg if oi ^ oj else c
                    prev = row.get(col)
                    if prev is None:
                        row[col] = v
                    else:
                        v = prev + v
                        if v:
                            row[col] = v
                        else:
                            del row[col]
    for i, row in enumerate(out):
        if len(row) > 1:
            out[i] = dict(sorted(row.items()))


class EvaluatedComplex:
    """An invariant complex with parameters fixed at an exact point, and
    the one owner of every cache for that point.

    Matrices are Gaussian-rational rows-of-dicts named (op, p, q): op is
    del, delbar, ddbar or stacked ([del; delbar]) with SOURCE (p,q), the
    one table of ``rows``, which refuses any other name; or total (d on
    the total complex, ``total_d_rows``) with degree p and q = 0.  Each
    matrix gets one row echelon.  It starts as the forward echelon
    (``linalg.forward_echelon``), which gives the rank and the pivot
    columns that ``rank`` and ``unimodular`` read.  The first kernel read
    of the matrix completes that echelon in place into the RREF
    (``linalg.Echelon.kernel``): each row that changes is replaced by a
    reduced copy, so the matrix rows are left as they were, and the
    pivots stay the same, in the same order.  ``kernel`` keeps the list
    of the kernel vectors for the callers that read it whole
    (representatives, extension generators); ``kernel_vectors`` builds
    them one at a time and keeps none, for mild's witness, which stops
    at the first image outside im deldelbar.

    On a unimodular complex (``unimodular``: d of every (2n-1)-form is 0,
    as on every nilpotent Lie algebra) del* = -*delbar* on invariant
    forms, and the Hodge star turns a matrix into the adjoint of
    another: [del | delbar] into (p,q) has the rank of [del; delbar] from
    (n-q, n-p), and d from degree k that of d from degree 2n-1-k.  So
    ``rank`` reads exact_sum (the dimension of im del + im delbar) from
    the stacked echelon that h_BC already holds, and total from degree
    k >= n from the lower half.  The echelon of total is built block by
    block (``total_echelon``) by the first of ``rank`` and standard's
    prefix pass to ask, and kept only where ``rank`` reads it.  Any other
    complex, such as dgamma^1 = gamma^1 ^ gammabar^1 from a
    structure-equation file, takes the direct route for total and reads
    exact_sum as the rank of the sum of the cached del and delbar image
    echelons (``image_sum``).

    Each image, of del, delbar or ddbar into TARGET (p,q) or of total
    into TARGET degree p, is one forward echelon of the matrix's columns
    (``_image``): it answers membership (``image_echelon``), serves as
    the base of weak's residues and of cohomology representatives, and
    the columns that enlarged it, in order, are the image basis
    (``image_vectors``).  The minimal-norm del-delbar solve into (p,q)
    reads one tracked forward echelon, built once per target bidegree
    (``ddbar_preimage``).

    del and delbar are assembled per structure constant: the del or
    delbar part of d of each coframe symbol is evaluated at the point
    once, and each of its nonzero terms is spread over the monomials it
    can meet (``_assemble``), so the cost follows the nonzero count, not
    the basis.  Each entry is a signed sum of structure constants and
    evaluation is additive, so the rows equal the evaluation of the
    symbolic Leibniz-rule matrices entry by entry.
    """

    def __init__(self, cx: InvariantComplex, point: Sequence[GaussianRational] = ()):
        self.cx = cx
        self.n = cx.n
        self.point = tuple(point)
        if len(self.point) != cx.algebra.ring.m:
            raise ValueError("evaluation point has wrong arity for the ring")
        self._subsets = _subset_index(self.n)
        self._terms: Dict[str, list] = {}
        self._rows: Dict[Tuple[str, int, int], Rows] = {}
        self._cols: Dict[Tuple[str, int, int], Dict[int, Vec]] = {}
        self._echelons: Dict[Tuple[str, int, int], Echelon] = {}
        self._images: Dict[Tuple[str, int, int], Tuple[List[Vec], Echelon]] = {}
        self._kernels: Dict[Tuple[str, int, int], List[Vec]] = {}
        self._preimages: Dict[Tuple[int, int], Tuple[Rows, Echelon]] = {}
        self._unimodular: Optional[bool] = None

    # -- matrices ---------------------------------------------------------

    def dim(self, p: int, q: int) -> int:
        return self.cx.dim(p, q)

    def check_bidegree(self, p: int, q: int) -> None:
        """Refuse a bidegree outside 0..n, where a public entry point
        would otherwise answer about the zero space."""
        if not (0 <= p <= self.n and 0 <= q <= self.n):
            raise ValueError(f"bidegree ({p},{q}) is outside 0..{self.n}")

    def rows(self, op: str, p: int, q: int) -> Rows:
        """The matrix (op, p, q) with SOURCE (p,q), QI rows: del, delbar,
        ddbar (del delbar, into (p+1,q+1)) or stacked ([del; delbar], the
        rows of del above those of delbar); any other name is refused."""
        key = (_known(op, _MATRICES), p, q)
        if key not in self._rows:
            if op == "ddbar":
                out = linalg.mat_mul(self.rows("del", p, q + 1), self.rows("delbar", p, q))
            elif op == "stacked":
                out = self.rows("del", p, q) + self.rows("delbar", p, q)
            else:
                tp, tq = (p + 1, q) if op == "del" else (p, q + 1)
                out = [{} for _ in range(self.dim(tp, tq))]
                if self.dim(p, q) and out:
                    _assemble(out, self._symbol_terms(op), self._subsets, p, q, tq)
            self._rows[key] = out
        return self._rows[key]

    def _symbol_terms(self, op: str) -> List[list]:
        """The del or delbar part of d of each coframe symbol, evaluated
        once at this point: per symbol, its nonzero terms (I, J, value)."""
        if op not in self._terms:
            se = self.cx.se
            part = se._del_part if op == "del" else se._delbar_part
            terms = []
            for s in range(2 * self.n):
                values = ((I, J, c.eval(self.point)) for (I, J), c in part(s).coeffs.items())
                terms.append([t for t in values if t[2]])
            self._terms[op] = terms
        return self._terms[op]

    def columns(self, op: str, p: int, q: int) -> Dict[int, Vec]:
        """Nonzero columns of the matrix (op, p, q), keyed by index, for
        products that walk the support of a vector (``linalg.columns_vec``)
        and for column echelons."""
        key = (op, p, q)
        if key not in self._cols:
            cols: Dict[int, Vec] = {}
            for i, r in enumerate(self._matrix(op, p, q)):
                for j, c in r.items():
                    cols.setdefault(j, {})[i] = c
            self._cols[key] = cols
        return self._cols[key]

    def _matrix(self, op: str, p: int, q: int) -> Rows:
        """``rows``, or ``total_d_rows`` for total."""
        return self.total_d_rows(p) if op == "total" else self.rows(op, p, q)

    # -- ranks, kernels and images -----------------------------------------

    def _row_echelon(self, op: str, p: int, q: int) -> Echelon:
        """The row echelon of the matrix (op, p, q): its forward echelon,
        completed in place into the RREF once a kernel is read, with the
        same rank and the same pivots, in the same order."""
        key = (op, p, q)
        if op == "total":
            return self.total_echelon(p)
        if key not in self._echelons:
            self._echelons[key] = linalg.forward_echelon(self._matrix(op, p, q))
        return self._echelons[key]

    def total_echelon(self, k: int) -> Echelon:
        """The forward echelon of d from total degree k, extended by the
        rows of one target block of ``total_blocks(k+1)`` at a time, so its
        ``marks`` are standard's prefix ranks (``lemmata._block_ranks``).
        Kept where ``rank`` reads it: not from k >= n if unimodular."""
        key = ("total", k, 0)
        e = self._echelons.get(key)
        if e is None:
            rows, e = self.total_d_rows(k), Echelon({})
            for pq in self.total_blocks(k + 1):
                e.extend(rows[:self.dim(*pq)])
                rows = rows[self.dim(*pq):]
            if k < self.n or not self.unimodular:
                self._echelons[key] = e
        return e

    @property
    def unimodular(self) -> bool:
        """Whether d of every (2n-1)-form is 0, the gate of the duality
        in ``rank``: whether the one row of d into the top degree, which
        holds no zero entry, is empty."""
        if self._unimodular is None:
            self._unimodular = not any(self.total_d_rows(2 * self.n - 1))
        return self._unimodular

    def rank(self, op: str, p: int, q: int) -> int:
        """Rank of the matrix (op, p, q), or for exact_sum the dimension
        of im del + im delbar at TARGET (p,q).  On a unimodular complex,
        exact_sum and total from degree k >= n are read from the echelon
        of their Hodge-star dual (see the class docstring)."""
        n = self.n
        if op == "exact_sum":
            if 0 <= p <= n and 0 <= q <= n and self.unimodular:
                return self._row_echelon("stacked", n - q, n - p).rank
            return self.image_sum(("del", "delbar"), p, q).rank
        if op == "total" and p >= n and self.unimodular:
            p = 2 * n - 1 - p
        return self._row_echelon(op, p, q).rank

    def image_rank(self, op: str, p: int, q: int) -> int:
        """Dimension of the image of del, delbar or ddbar with TARGET (p,q)."""
        dp, dq = _SHIFT[_known(op, _SHIFT)]
        if not self.dim(p - dp, q - dq) or not self.dim(p, q):
            return 0
        return self.rank(op, p - dp, q - dq)

    def kernel(self, op: str, p: int, q: int) -> List[Vec]:
        """Kernel basis at source (p,q) of del/delbar/ddbar/stacked, kept
        as a list for the callers that read it whole."""
        key = (op, p, q)
        if key not in self._kernels:
            self._kernels[key] = list(self.kernel_vectors(op, p, q))
        return self._kernels[key]

    def kernel_vectors(self, op: str, p: int, q: int) -> Iterator[Vec]:
        """The vectors of ``kernel(op, p, q)``, in its order, each built
        from the RREF when it is asked for; none of them is kept."""
        return self._row_echelon(op, p, q).kernel(self.dim(p, q))

    def _image(self, op: str, p: int, q: int) -> Tuple[List[Vec], Echelon]:
        """The independent columns of op into TARGET (p,q), in order, and
        the forward echelon of their span that selected them; op total is
        d on the total complex into TARGET degree p (q = 0)."""
        key = (op, p, q)
        if key not in self._images:
            if op == "total":
                sp, sq = p - 1, 0
                ncols, nrows = self.total_dim(sp), self.total_dim(p)
            else:
                dp, dq = _SHIFT[_known(op, _SHIFT)]
                sp, sq = p - dp, q - dq
                ncols, nrows = self.dim(sp, sq), self.dim(p, q)
            e = Echelon({})
            cols = linalg.columns_of(self._matrix(op, sp, sq), ncols) if ncols and nrows else []
            self._images[key] = ([v for v in cols if v and e.insert(v)], e)
        return self._images[key]

    def image_vectors(self, op: str, p: int, q: int) -> List[Vec]:
        """Basis of the image of op with TARGET bidegree (p,q) (TARGET
        degree p for total)."""
        return self._image(op, p, q)[0]

    def image_echelon(self, op: str, p: int, q: int) -> Echelon:
        """Forward echelon of the image of op with TARGET bidegree (p,q)
        (TARGET degree p for total), for membership and residues."""
        return self._image(op, p, q)[1]

    def image_sum(self, ops: Sequence[str], p: int, q: int) -> Echelon:
        """A new forward echelon of the sum of the images of ops into
        TARGET (p,q): a copy of the first one's cached echelon, whose rows
        are never changed and so are shared, extended by the others'
        image bases.  Inserting into it leaves the cache as it was."""
        e = Echelon(dict(self.image_echelon(ops[0], p, q).pivots))
        for op in ops[1:]:
            e.extend(self.image_vectors(op, p, q))
        return e

    def ddbar_preimage(self, p: int, q: int, y: Vec) -> Optional[Vec]:
        """The minimal-norm x in (p-1,q-1) with del delbar x = y, for y in
        (p,q), or None when y is not in the image of del delbar.

        With A = del delbar from (p-1,q-1), x = A* z for any z with
        A A* z = y: two such z differ by an element of ker A A* = ker A*,
        so x is unique, and A* z lies in im A* = (ker A)^perp.  z comes
        from a forward echelon of the columns of A A* that tracks the
        combination of each row (``linalg.tracked_echelon``), built once
        per (p,q), so the membership test and the solve are one reduction.
        """
        key, dim = (p, q), self.dim(p, q)
        if key not in self._preimages:
            a = self.rows("ddbar", p - 1, q - 1)
            adjoint = linalg.conj_transpose(a, self.dim(p - 1, q - 1))
            e = linalg.tracked_echelon(linalg.columns_of(linalg.mat_mul(a, adjoint), dim), dim)
            self._preimages[key] = (adjoint, e)
        adjoint, e = self._preimages[key]
        z = e.solve(y, dim)
        return None if z is None else linalg.mat_vec(adjoint, z)

    # -- total (de Rham) complex ------------------------------------------

    def total_blocks(self, k: int) -> List[Tuple[int, int]]:
        return [(p, k - p) for p in range(max(0, k - self.n), min(self.n, k) + 1)]

    def total_dim(self, k: int) -> int:
        return sum(self.dim(p, q) for p, q in self.total_blocks(k))

    def total_d_rows(self, k: int) -> Rows:
        """d: total degree k -> k+1 with block offsets."""
        key = ("total", k, 0)
        if key not in self._rows:
            tgt_offset, off = {}, 0
            for pq in self.total_blocks(k + 1):
                tgt_offset[pq] = off
                off += self.dim(*pq)
            rows: Rows = [{} for _ in range(off)]
            col_off = 0
            for p, q in self.total_blocks(k):
                for op, target in (("del", (p + 1, q)), ("delbar", (p, q + 1))):
                    if self.dim(p, q) and target in tgt_offset:
                        ro = tgt_offset[target]
                        for i, r in enumerate(self.rows(op, p, q)):
                            row = rows[ro + i]
                            for j, c in r.items():
                                row[col_off + j] = c
                col_off += self.dim(p, q)
            self._rows[key] = rows
        return self._rows[key]

    def embed_block(self, v: Vec, p: int, q: int, k: int) -> Vec:
        off = 0
        for bp, bq in self.total_blocks(k):
            if (bp, bq) == (p, q):
                return {off + i: c for i, c in v.items()}
            off += self.dim(bp, bq)
        raise ValueError("bidegree not in total degree")

    # -- forms <-> vectors ---------------------------------------------------

    def form_to_vec(self, a: Form, p: int, q: int) -> Vec:
        idx = self.cx.index(p, q)
        out: Vec = {}
        m_params = a.algebra.ring.m
        for m, c in a.coeffs.items():
            if len(m[0]) != p or len(m[1]) != q:
                raise ValueError("form does not live in the requested bidegree")
            if m_params == len(self.point):
                v = c.eval(self.point)
            else:
                if not c.is_constant():
                    raise ValueError(
                        "parameter-dependent form in a complex with a different arity"
                    )
                v = c.constant_term()
            if v:
                out[idx[m]] = v
        return out

    def vec_to_form(self, v: Vec, p: int, q: int, algebra: Optional[FormAlgebra] = None) -> Form:
        alg = algebra or self.cx.algebra
        basis = self.cx.basis(p, q)
        return Form(alg, {basis[i]: alg.ring.const(v[i]) for i in sorted(v)})


# -- dimensions ------------------------------------------------------------


def h_dolbeault(ec: EvaluatedComplex, p: int, q: int) -> int:
    return ec.dim(p, q) - ec.rank("delbar", p, q) - ec.image_rank("delbar", p, q)


def h_del(ec: EvaluatedComplex, p: int, q: int) -> int:
    return ec.dim(p, q) - ec.rank("del", p, q) - ec.image_rank("del", p, q)


def h_bott_chern(ec: EvaluatedComplex, p: int, q: int) -> int:
    return dclosed_dim(ec, p, q) - ddbar_image_dim(ec, p, q)


def h_aeppli(ec: EvaluatedComplex, p: int, q: int) -> int:
    return ec.dim(p, q) - ec.rank("ddbar", p, q) - ec.rank("exact_sum", p, q)


def betti(ec: EvaluatedComplex, k: int) -> int:
    return ec.total_dim(k) - ec.rank("total", k, 0) - ec.rank("total", k - 1, 0)


def dclosed_dim(ec: EvaluatedComplex, p: int, q: int) -> int:
    """dim ker(del + delbar) on pure type (p,q)."""
    return ec.dim(p, q) - ec.rank("stacked", p, q)


def ddbar_image_dim(ec: EvaluatedComplex, p: int, q: int) -> int:
    """dim del(delbar(Lambda^{p-1,q-1})) inside (p,q)."""
    return ec.image_rank("ddbar", p, q)


_WHICH = {
    "dolbeault": h_dolbeault,
    "del": h_del,
    "bott_chern": h_bott_chern,
    "aeppli": h_aeppli,
}


def cohomology(
    ec: EvaluatedComplex,
    which: str,
    p: Optional[int] = None,
    q: Optional[int] = None,
    k: Optional[int] = None,
    with_basis: bool = False,
):
    """Dimension (and optionally representative forms) of a cohomology.

    which is one of dolbeault, del, bott_chern, aeppli, de_rham; the
    first four take (p, q) in 0..n, de_rham takes k in 0..2n; anything
    else raises ValueError.
    """
    if which == "de_rham":
        if k is None:
            raise ValueError("de_rham cohomology needs k")
        if not 0 <= k <= 2 * ec.n:
            raise ValueError(f"degree {k} is outside 0..{2 * ec.n}")
        return (betti(ec, k), None) if with_basis else betti(ec, k)
    fn = _WHICH.get(which)
    if fn is None:
        raise ValueError(f"unknown cohomology {which!r}: expected de_rham, {', '.join(_WHICH)}")
    if p is None or q is None:
        raise ValueError(f"{which} cohomology needs (p, q)")
    ec.check_bidegree(p, q)
    dimension = fn(ec, p, q)
    if not with_basis:
        return dimension
    reps = _representatives(ec, which, p, q)
    if len(reps) != dimension:
        raise AssertionError(
            f"{which} at {(p, q)}: rank route gives {dimension}, basis route {len(reps)}"
        )
    return dimension, [ec.vec_to_form(v, p, q) for v in reps]


#: per cohomology, the matrix whose kernel holds its cycles and the maps
#: whose images into (p,q) sum to its boundaries
_CYCLES_MOD = {
    "dolbeault": ("delbar", ("delbar",)),
    "del": ("del", ("del",)),
    "bott_chern": ("stacked", ("ddbar",)),
    "aeppli": ("ddbar", ("del", "delbar")),
}


def _representatives(ec: EvaluatedComplex, which: str, p: int, q: int) -> List[Vec]:
    """The cycles, in order, that enlarge the span of the boundaries and
    of the cycles kept before them."""
    op, images = _CYCLES_MOD[which]
    e = ec.image_sum(images, p, q)
    return [v for v in ec.kernel(op, p, q) if e.insert(v)]


@dataclass
class CohomologyReport:
    """Full (p,q)-table of the four cohomologies plus Betti numbers.

    Computed on invariant forms only; for the nilmanifold classes in the
    catalog this is the full cohomology by the cited background results,
    and the output is labelled as invariant either way.
    """

    n: int
    point: Tuple[GaussianRational, ...]
    h_dolbeault: List[List[int]]
    h_del: List[List[int]]
    h_bc: List[List[int]]
    h_a: List[List[int]]
    betti: List[int]

    def check_conjugation_symmetry(self) -> None:
        for p in range(self.n + 1):
            for q in range(self.n + 1):
                if self.h_bc[p][q] != self.h_bc[q][p]:
                    raise AssertionError(f"h_bc symmetry broken at {(p, q)}")
                if self.h_a[p][q] != self.h_a[q][p]:
                    raise AssertionError(f"h_a symmetry broken at {(p, q)}")
                if self.h_dolbeault[p][q] != self.h_del[q][p]:
                    raise AssertionError(f"Dolbeault/del symmetry broken at {(p, q)}")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "t": [str(z) for z in self.point],
            "h_bc": self.h_bc,
            "h_a": self.h_a,
            "h_dolbeault": self.h_dolbeault,
            "betti": self.betti,
        }


def full_report(ec: EvaluatedComplex) -> CohomologyReport:
    n = ec.n
    size = n + 1
    tables = {name: [[0] * size for _ in range(size)] for name in _WHICH}
    for p in range(size):
        for q in range(size):
            for name, fn in _WHICH.items():
                tables[name][p][q] = fn(ec, p, q)
    report = CohomologyReport(
        n=n,
        point=ec.point,
        h_dolbeault=tables["dolbeault"],
        h_del=tables["del"],
        h_bc=tables["bott_chern"],
        h_a=tables["aeppli"],
        betti=[betti(ec, k) for k in range(2 * n + 1)],
    )
    report.check_conjugation_symmetry()
    return report


def canonical_ddbar_solution(ec: EvaluatedComplex, y: Form) -> Form:
    """The minimal-norm x with del delbar x = y (``ddbar_preimage``).

    Raises NotSolvable when y is not in the image of del delbar.
    """
    if not y:
        return ec.cx.algebra.zero()
    p, q = y.bidegree()
    xv = ec.ddbar_preimage(p, q, ec.form_to_vec(y, p, q))
    if xv is None:
        raise NotSolvable(f"right-hand side is not del-delbar-exact at {(p, q)}")
    return ec.vec_to_form(xv, p - 1, q - 1)


def solve_conjugate_system(ec: EvaluatedComplex, zeta: Form, xi: Form, p: int, q: int) -> Form:
    """Canonical x in (p,q) with del x = delbar zeta and delbar x = del conj(xi).

    zeta is a (p+1,q-1)-form, xi a (q+1,p-1)-form; requires
    del delbar zeta = 0, delbar del conj(xi) = 0 and the (p,q+1)- and
    (q,p+1)-th mild lemmata on the complex (checked, PreconditionFailed
    names whichever hypothesis broke).
    """
    from .lemmata import mild  # local import to avoid an import cycle

    se = ec.cx.se
    alg = se.algebra
    zeta = zeta if zeta else alg.zero()
    xi = xi if xi else alg.zero()
    if zeta and not zeta.is_homogeneous(p + 1, q - 1):
        raise ValueError("zeta must be a (p+1,q-1)-form")
    if xi and not xi.is_homogeneous(q + 1, p - 1):
        raise ValueError("xi must be a (q+1,p-1)-form")
    xibar = xi.conj()
    if se.apply_del(se.apply_delbar(zeta)):
        raise PreconditionFailed("del delbar zeta != 0")
    if se.apply_delbar(se.apply_del(xibar)):
        raise PreconditionFailed("delbar del conj(xi) != 0")
    for (mp, mq) in ((p, q + 1), (q, p + 1)):
        ok, _ = mild(ec, mp, mq)
        if not ok:
            raise PreconditionFailed(f"the ({mp},{mq})-th mild lemma fails on this complex")
    x = se.apply_delbar(canonical_ddbar_solution(ec, se.apply_delbar(zeta)))
    return x - se.apply_del(canonical_ddbar_solution(ec, se.apply_del(xibar)))
