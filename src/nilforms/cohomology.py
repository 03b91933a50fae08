"""Per-bidegree linear algebra: the four cohomologies and the canonical
del-delbar preimage.

A complex has no parameters: a fiber is evaluated before its
``InvariantComplex`` is built (``deformation.evaluate_se``), so nothing
here evaluates.  An EvaluatedComplex owns every cache of one complex,
and keeps by one rule: a rank read keeps only an int, and an echelon is
kept only for a kernel reader.  So it keeps the structure constants as
Gaussian rationals, the four named matrices of ``rows`` (del, delbar,
ddbar, stacked), each empty row of them the one read-only
``EMPTY_ROW``, one int cache of every rank read (with the block ranks
of d), the row echelons that a kernel reads, one forward column echelon
per image, and the tracked forward echelons that every minimal-norm
del-delbar solve reuses (``ddbar_preimage``); not d on the total
complex, which is built for each pass that reads it, nor columns, a
kernel list or an echelon that only a rank read.
[del | delbar] is a rank, not a matrix.  What its caches do not need
belongs to the ``InvariantComplex``, whose construction decided that its
structure equations define a complex: the equations' terms, and their
algebra's subset table and assembly plans (``FormAlgebra.layout``),
which the equations' column tables and every fiber of one n share
across terms and bidegrees.

Every dimension is rank arithmetic (dim - rank of the outgoing map -
rank of the incoming map, ``_cohomology_dim``, by the maps of ``_MAPS``):
``cohomology`` feeds it one bigraded number from its own rank reads,
``betti`` one Betti number, and ``full_report`` every table from int
tables that read each rank once (``EvaluatedComplex.rank_table``).
Every rank is read once per duality pair from a forward echelon, whose
rows no kernel read rewrites: on a unimodular complex the Hodge star
reads the delbar, Aeppli and upper de Rham ranks from others and gives
a deldelbar rank to its dual, and conjugation reads standard's suffix
ranks from its prefix ranks; a mild witness scan stays on the star
side (``EvaluatedComplex.mild_scan``).
``full_report`` and ``lemmata.lemma_report`` run with the cyclic garbage
collector paused, and leave what they keep in its oldest generation
(``collector_paused``).  Kernel and image bases are
built only for callers that need vectors (lemma witnesses, extension
generators, solvers).  Quotient-space computations are the normative
route; the Laplacians, harmonic projectors and Green operators of Hodge
theory are a test oracle (``HodgeContext`` in ``tests/oracles.py``).
Generic-t answers are taken at the fibers over two fixed rational sample
points (ranks are lower-semicontinuous in specialization), never by
symbolic rank over a function field.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .algebra import Form, FormAlgebra, InvariantComplex
from .leibniz import EMPTY_ROW
from .linalg import Echelon, Rows, Vec
from .scalars import GaussianRational, ParamScalar

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


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the block, and restore its
    state on exit, exceptions included.  The reports build only acyclic
    data, so the pause defers no garbage, and a full collection in a
    report would walk every cached row and echelon and free nothing.
    Where it was on, all that is alive moves to the oldest generation
    first (``gc.freeze``, ``gc.unfreeze``: two O(1) list splices), so no
    young collection after the block walks what it kept; not while the
    caller holds frozen objects, which stay frozen.  The caller's young
    objects move too: a cycle among them waits for a full collection."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()


#: the matrices that ``EvaluatedComplex.rows`` builds, by name
_MATRICES = ("del", "delbar", "ddbar", "stacked")
#: (dp, dq) from the source to the target bidegree of each map
_SHIFT = {"del": (1, 0), "delbar": (0, 1), "ddbar": (1, 1)}


def _known(op: str, names) -> str:
    """op, if it is one of names; else ValueError naming them."""
    if op not in names:
        raise ValueError(f"unknown matrix {op!r}: expected one of {', '.join(names)}")
    return op


class EvaluatedComplex:
    """The linear algebra of an invariant complex, which has no
    parameters, and the one owner of every cache for it.  ``point``
    labels the fiber whose equations ``cx`` holds, at its evaluation
    point: the reports print it as t, and no computation reads it.

    Matrices are Gaussian-rational rows-of-dicts named (op, p, q): op is
    del, delbar, ddbar or stacked ([del; delbar]) with SOURCE (p,q), the
    one table of ``rows``, which refuses any other name; or total (d on
    the total complex, ``total_d_rows``) with degree p and q = 0.  Every
    empty row of a matrix, and of the adjoints ``ddbar_preimage`` keeps,
    is the one shared ``EMPTY_ROW``, a read-only mapping, so most rows of
    a large matrix cost one list slot, and every walker over rows skips
    it.  Every matrix starts as a list of ``EMPTY_ROW`` and gets a dict
    only at a row that holds an entry: del, delbar and total in their
    assembly, ddbar in ``linalg.mat_mul`` and the adjoints in
    ``linalg.conj_transpose``, so each allocates per nonzero row.  No
    column table is kept: the image echelons, weak's image of d on the
    (p,p)-forms and, off a unimodular complex, mild's witness scan each
    read the transpose ``linalg.columns`` once (``column_reads``).

    One rule decides what is kept: a rank read keeps only an int, in the
    one rank cache (``_ranks``), and a row echelon is kept only for a
    kernel reader (``_row_echelon``, the forward echelon of ``rows``).
    del's and stacked's ranks are the ``marks`` of one forward pass over
    the del rows and then the delbar rows, since the del rows lead the
    stacked rows, and delbar's is read from a pass of its own only where
    the star (below) is not used; none of those echelons is kept.
    deldelbar's rank is the one exception: it is read from its kept
    echelon, whose kernel a failing mild's witness reads.  d on the total
    complex is never stored: ``total_d_rows`` builds it for each reader.
    d from each total degree is eliminated once, block by block, for its
    rank, and only the rank after each block is kept (``total_marks``,
    the rank cache of d, which ``block_ranks`` reads for standard), and
    the image of d transposes a build of its own (``_image``).  A
    kernel read builds each vector from one RREF column of its echelon
    (``linalg.Echelon.kernel``), so no stored row is rewritten or copied,
    and keeps none: ``kernel`` lists them, and ``kernel_vectors`` builds
    them one at a time, for ``mild_scan``.  The RREF is unique, so
    ``kernel("stacked")`` is the same whichever pass found its pivots.

    On a unimodular complex (``unimodular``: d of every (2n-1)-form is 0,
    as on every nilpotent Lie algebra) del* = -*delbar* on invariant
    forms, and the Hodge star turns a matrix into the adjoint of another
    of the same rank: [del | delbar] into (p,q) into [del; delbar] from
    (n-q, n-p), delbar from (p,q), q < n, into del from (n-q-1, n-p),
    deldelbar from (p,q) into deldelbar from (n-q-1, n-p-1), and d from
    degree k into d from degree 2n-1-k.  So ``rank`` reads exact_sum
    (dim im del + im delbar) as the stacked rank that h_BC holds, delbar
    from a del pass and total from degree k >= n from the lower half, and
    stores a deldelbar rank for its dual too.  For even n the delbar
    ranks at (n/2, n/2) and (n/2, n/2-1) are eliminated directly, so that
    no comparison of ``check_conjugation_symmetry`` reads one elimination
    on both sides: through the star they are the del ranks that
    h_del(n/2, n/2) reads.  Any other complex, such as
    dgamma^1 = gamma^1 ^ gammabar^1 from a structure-equation file, takes
    the direct route for total, delbar and deldelbar, and reads
    exact_sum as the rank of the sum of the cached del and delbar image
    echelons (``image_sum``).

    ``conj`` sends a vector at (p,q) to its conjugate at (q,p), for weak.
    On a unimodular complex the conjugate-linear ``star`` from (p,q) to
    (n-q, n-p) reads columns as rows: ``mild_scan`` reads del's columns
    as delbar's rows at the dual bidegree, and the other way round, and
    tests their combinations, as ``in_ddbar_image`` tests a starred
    vector, in deldelbar's kept row echelon there: no column echelon.

    Each image, of del, delbar or ddbar into TARGET (p,q) or of total
    into TARGET degree p, is one forward echelon of the matrix's nonzero
    columns, by ascending index (``_image``): it answers
    membership (``image_echelon``), and the columns that enlarged it, in
    order, are the image basis (``image_vectors``).  The minimal-norm
    del-delbar solve into (p,q) reads one tracked forward echelon, built
    once per target bidegree (``ddbar_preimage``).

    del and delbar are assembled per structure constant: the del or
    delbar part of d of each coframe symbol is read once, with its
    negation, and each of its nonzero terms is spread over the monomials
    it can meet (``leibniz.Layout.assemble``, the rule of the equations'
    column tables), along positions and signs planned once per n, so the
    cost follows the nonzero count, not the basis, and the rows equal
    those tables entry by entry.  Rows, columns and
    ``form_to_vec``/``vec_to_form`` position the monomial (I, J) of (p,q)
    at subset_rank[p][I] * C(n, q) + subset_rank[q][J] (``Layout``).
    """

    def __init__(self, cx: InvariantComplex, point: Sequence[GaussianRational] = ()):
        self.cx = cx
        self.n = cx.n
        self.point = tuple(point)
        self._terms: Dict[str, list] = {}
        self._rows: Dict[Tuple[str, int, int], Rows] = {}
        self._ranks: Dict[Tuple[str, int, int], int] = {}
        self._marks: Dict[int, List[int]] = {}
        self._echelons: Dict[Tuple[str, int, int], Echelon] = {}
        self._images: Dict[Tuple[str, int, int], Tuple[List[Vec], Echelon]] = {}
        self._preimages: Dict[Tuple[int, int], Tuple[Rows, Echelon]] = {}
        self._unimodular: Optional[bool] = None
        self._dims = {(p, q): comb(self.n, p) * comb(self.n, q) for p in range(self.n + 1) for q in range(self.n + 1)}

    # -- matrices ---------------------------------------------------------

    def dim(self, p: int, q: int) -> int:
        """dim of (p,q), 0 outside 0..n, from the table built in __init__."""
        return self._dims.get((p, q), 0)

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
                out = [EMPTY_ROW] * self.dim(tp, tq)
                if self.dim(p, q) and out:
                    self.cx.layout.assemble(out, self._symbol_terms(op), p, q, tq)
            self._rows[key] = out
        return self._rows[key]

    def _symbol_terms(self, op: str) -> List[list]:
        """``StructureEquations.symbol_terms`` as Gaussian rationals, read
        once: per symbol, its nonzero terms (I, J, value, -value), each
        negated once for every assembly of op (``Layout.assemble``)."""
        if op not in self._terms:
            terms = []
            for sterms in self.cx.se.symbol_terms(op):
                values = ((I, J, c.constant_term()) for I, J, c in sterms)
                terms.append([(I, J, v, -v) for I, J, v in values if v])
            self._terms[op] = terms
        return self._terms[op]

    # -- ranks, kernels and images -----------------------------------------

    def _row_echelon(self, op: str, p: int, q: int) -> Echelon:
        """The kept forward echelon of ``rows(op, p, q)``, for the kernel
        readers and deldelbar's rank; no kernel read rewrites its rows."""
        key = (op, p, q)
        e = self._echelons.get(key)
        if e is None:
            e = self._echelons[key] = linalg.forward_echelon(self.rows(op, p, q))
        return e

    def total_marks(self, k: int) -> List[int]:
        """The rank of d from total degree k after the rows of each target
        block of ``total_blocks(k+1)``, in order, the last its rank: one
        forward pass, block by block, whose marks are kept."""
        if k not in self._marks:
            rows, cut, e = self.total_d_rows(k), 0, Echelon({})
            for pq in self.total_blocks(k + 1):
                e.extend(rows[cut:cut + self.dim(*pq)])
                cut += self.dim(*pq)
            self._marks[k] = e.marks
        return self._marks[k]

    def block_ranks(self, k: int) -> Tuple[List[int], List[int]]:
        """(before, after) for d from total degree k-1, whose rows come in
        the blocks of ``total_blocks(k)``: before[i] and after[i] are the
        ranks of the rows of the blocks before block i and of those after
        it, standard's prefix and suffix ranks.  A block's rows meet only
        the source blocks next to it, so the two share no column.  before
        is read from ``total_marks``, and after is before reversed: d is
        real, and conjugation, which keeps ranks, sends block (p, k-p) to
        (k-p, p), so the blocks after block i are the conjugates of the
        blocks before block m-1-i, of m blocks."""
        before = [0] + self.total_marks(k - 1)[:-1]
        return before, before[::-1]

    @property
    def unimodular(self) -> bool:
        """Whether d of every (2n-1)-form is 0, the gate of the duality
        in ``rank``: whether the one row of d into the top degree, which
        holds no zero entry, has rank 0."""
        if self._unimodular is None:
            self._unimodular = not self.total_marks(2 * self.n - 1)[-1]
        return self._unimodular

    def rank(self, op: str, p: int, q: int) -> int:
        """Rank of the matrix (op, p, q), or for exact_sum the dimension
        of im del + im delbar at TARGET (p,q), read through the rank
        cache, or for total through the last of ``total_marks``.  On a
        unimodular complex, exact_sum, delbar and total from degree
        k >= n are read as the rank of their Hodge-star dual, and a
        deldelbar rank is stored for its dual as well.  The class
        docstring says which dual, and what a first read keeps."""
        n = self.n
        if op == "total":
            marks = self.total_marks(2 * n - 1 - p if p >= n and self.unimodular else p)
            return marks[-1] if marks else 0  # d into a degree past 2n has no rows
        if op in ("exact_sum", "delbar") and 0 <= p <= n and 0 <= q <= n and self.unimodular:
            if op == "exact_sum":
                op, p, q = "stacked", n - q, n - p
            elif q < n and not (2 * p == n and q in (p, p - 1)):
                op, p, q = "del", n - q - 1, n - p
        key = (op, p, q)
        if key not in self._ranks:
            if op == "exact_sum":
                self._ranks[key] = self.image_sum(("del", "delbar"), p, q).rank
            elif op == "ddbar":
                r = self._ranks[key] = self._row_echelon(op, p, q).rank
                if 0 <= p < n and 0 <= q < n and self.unimodular:
                    self._ranks[(op, n - q - 1, n - p - 1)] = r
            elif op in ("del", "stacked"):
                # the del rows lead the stacked rows: one pass reads both
                marks = Echelon({}).extend(self.rows("del", p, q)).extend(self.rows("delbar", p, q)).marks
                self._ranks[("del", p, q)], self._ranks[("stacked", p, q)] = marks
            else:
                self._ranks[key] = linalg.forward_echelon(self.rows(op, p, q)).rank
        return self._ranks[key]

    def image_rank(self, op: str, p: int, q: int) -> int:
        """Dimension of the image of del, delbar or ddbar with TARGET (p,q)."""
        dp, dq = _SHIFT[_known(op, _SHIFT)]
        if not self.dim(p - dp, q - dq) or not self.dim(p, q):
            return 0
        return self.rank(op, p - dp, q - dq)

    def rank_table(self, op: str) -> List[List[int]]:
        """``rank(op, p, q)`` at every (p,q) in 0..n as one int table, as
        ``full_report`` and ``lemmata.lemma_report`` read them: each rank
        once, in lexicographic (p,q) order, the order in which a cell by
        cell walk first reads them, so that the same member of each
        Hodge-star pair of deldelbar ranks is eliminated."""
        size = self.n + 1
        return [[self.rank(op, p, q) for q in range(size)] for p in range(size)]

    def kernel(self, op: str, p: int, q: int) -> List[Vec]:
        """``kernel_vectors`` as a list, for the callers that read it whole."""
        return list(self.kernel_vectors(op, p, q))

    def kernel_vectors(self, op: str, p: int, q: int, meets=None) -> Iterator[Vec]:
        """The vectors of ``kernel(op, p, q)``, in its order, each built
        from its RREF column when it is asked for; none of them is kept.
        Given a test of a column ``meets``, only those with a key that
        passes it are yielded (``linalg.Echelon.kernel``).  Any name but
        those of ``rows``, and a bidegree outside 0..n, is refused."""
        self.check_bidegree(p, q)
        return self._row_echelon(_known(op, _MATRICES), p, q).kernel(self.dim(p, q), meets=meets)

    # -- the Hodge star: columns as rows ------------------------------------

    def star(self, v: Vec, p: int, q: int) -> Vec:
        """The conjugate-linear Hodge star of a vector at (p,q), at
        (n-q, n-p): the monomial (I, J) at subset ranks (a, b) goes to
        (J^c, I^c), at C(n,p) C(n,q) - 1 - (b C(n,p) + a), since the
        complement reverses the lexicographic order, and its coefficient
        x to conj(x) (-1)^(sum I + sum J) (``Layout.parity``).  The star
        is an involution."""
        parity = self.cx.layout.parity
        odd_p, odd_q = parity[p], parity[q]
        cp, cq = len(odd_p), len(odd_q)
        top, out = cp * cq - 1, {}
        for i, x in v.items():
            a, b = divmod(i, cq)
            y = x.conj()
            out[top - b * cp - a] = -y if odd_p[a] ^ odd_q[b] else y
        return out

    def conj(self, v: Vec, p: int, q: int) -> Vec:
        """The conjugate of a vector at (p,q), at (q,p): conj(gamma^I ^
        gammabar^J) = (-1)^(pq) gamma^J ^ gammabar^I, so the monomial at
        subset ranks (a, b) goes to b C(n,p) + a, and its coefficient x to
        (-1)^(pq) conj(x)."""
        cp, cq, odd = comb(self.n, p), comb(self.n, q), p * q % 2
        out = {}
        for i, x in v.items():
            a, b = divmod(i, cq)
            y = x.conj()
            out[b * cp + a] = -y if odd else y
        return out

    def _dual(self, op: str, p: int, q: int) -> Tuple[Rows, int, int, bool]:
        """The rows whose stars are the columns of op (del or delbar) from
        SOURCE (p,q) on a unimodular complex, their source bidegree, and
        whether the star reads -op: del x = (-1)^(n+q) star(star(x) delbar)
        with delbar from (n-q, n-p-1), and delbar x = (-1)^p star(star(x)
        del) with del from (n-q-1, n-p).  Both have rows at (n-q, n-p),
        where star(x) lies."""
        n = self.n
        if _known(op, ("del", "delbar")) == "del":
            sp, sq, odd = n - q, n - p - 1, (n + q) % 2 == 1
        else:
            sp, sq, odd = n - q - 1, n - p, p % 2 == 1
        return self.rows("delbar" if op == "del" else "del", sp, sq), sp, sq, odd

    def column_reads(self, op: str, p: int, q: int) -> Tuple[Callable[[int], bool], Callable[[Vec], Vec]]:
        """The support test (is column j of op nonzero) and op x of a scan
        over vectors at SOURCE (p,q), op del or delbar, on a complex that is
        not unimodular: from one transpose (``linalg.columns``)."""
        cols = linalg.columns(self.rows(op, p, q))
        return cols.__contains__, lambda x: linalg.columns_vec(cols, x)

    def mild_scan(self, op: str, p: int, q: int) -> Optional[Vec]:
        """The first nonzero op x outside im deldelbar, keys ascending, over
        the deldelbar kernel vectors x at SOURCE (p,q), op del or delbar, or
        None: a failing mild's witness, or dual mild's.  Each x is built when
        reached, none kept, and one with no key on a nonzero column of op
        is passed over.  On a unimodular complex star(op x) = +-star(x) M,
        M the rows of ``_dual`` (for x = e_f, M's row at the star position
        of f, by reference), is tested in deldelbar's row echelon from M's
        source, whose row space is the star of im deldelbar (0 where op's
        target has p or q = 0), and only the witness is starred back.  Any
        other complex reads ``column_reads`` and ``image_echelon``."""
        tp, tq = (p + 1, q) if _known(op, ("del", "delbar")) == "del" else (p, q + 1)
        if self.unimodular:
            rows, sp, sq, odd = self._dual(op, p, q)
            cp, cq = comb(self.n, p), comb(self.n, q)
            top = cp * cq - 1

            def meets(j: int) -> Vec:  # M's row at the star position of j: empty iff column j of op is 0
                return rows[top - j % cq * cp - j // cq]

            def image(x: Vec) -> Vec:  # for x = e_f, the row meets(f) itself
                return meets(next(iter(x))) if len(x) == 1 else linalg.row_combination(rows, self.star(x, p, q))

            inside = (self._row_echelon("ddbar", sp, sq) if min(tp, tq) else Echelon({})).contains
        else:
            meets, image = self.column_reads(op, p, q)
            inside = self.image_echelon("ddbar", tp, tq).contains
        for x in self.kernel_vectors("ddbar", p, q, meets=meets):
            w = image(x)
            if w and not inside(w):
                if not self.unimodular:
                    return w
                if len(x) == 1:  # star(e_f) is +-1 at the row w
                    odd ^= -1 in self.star(x, p, q).values()
                v = self.star(w, sp, sq)
                return {k: -v[k] if odd else v[k] for k in sorted(v)}
        return None

    def in_ddbar_image(self, v: Vec, p: int, q: int) -> bool:
        """Whether v at (p,q) lies in im deldelbar (weak's and standard's
        witnesses): on a unimodular complex whether star(v) lies in the kept
        row echelon of deldelbar from (n-q, n-p) (``_row_echelon``), else
        whether v lies in ``image_echelon``."""
        if not self.unimodular:
            return self.image_echelon("ddbar", p, q).contains(v)
        e = self._row_echelon("ddbar", self.n - q, self.n - p) if min(p, q) else Echelon({})  # im deldelbar is 0
        return e.contains(self.star(v, p, q))

    def _image(self, op: str, p: int, q: int) -> Tuple[List[Vec], Echelon]:
        """The independent columns of op into TARGET (p,q), in order, and
        the forward echelon of their span that selected them, fed the
        nonzero columns of the matrix (``linalg.columns``) by ascending
        index; op total is d on the total complex into TARGET degree p
        (q = 0)."""
        key = (op, p, q)
        if key not in self._images:
            if op == "total":
                sp, sq = p - 1, 0
                ncols, nrows = self.total_dim(sp), self.total_dim(p)
            else:
                dp, dq = _SHIFT[_known(op, _SHIFT)]
                sp, sq = p - dp, q - dq
                ncols, nrows = self.dim(sp, sq), self.dim(p, q)
            e, cols = Echelon({}), {}
            if ncols and nrows:
                cols = linalg.columns(self.total_d_rows(sp) if op == "total" else self.rows(op, sp, sq))
            self._images[key] = ([cols[j] for j in sorted(cols) if e.insert(cols[j])], e)
        return self._images[key]

    def image_vectors(self, op: str, p: int, q: int) -> List[Vec]:
        """Basis of the image of op with TARGET bidegree (p,q) (TARGET
        degree p for total)."""
        return self._image(op, p, q)[0]

    def image_echelon(self, op: str, p: int, q: int) -> Echelon:
        """Forward echelon of the image of op with TARGET bidegree (p,q)
        (TARGET degree p for total), for membership."""
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
        The extension solver's order step and
        ``extension.solve_conjugate_system`` call it once per t-slice of
        their right-hand sides, through one core
        (``extension._conjugate_solution``).
        """
        key, dim = (p, q), self.dim(p, q)
        if key not in self._preimages:
            a = self.rows("ddbar", p - 1, q - 1)
            adjoint = linalg.conj_transpose(a, self.dim(p - 1, q - 1))
            # A A* is Hermitian, so its columns are its rows conjugated
            cols = [{j: c.conj() for j, c in r.items()} if r else EMPTY_ROW for r in linalg.mat_mul(a, adjoint)]
            e = linalg.tracked_echelon(cols, dim)
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
        """d: total degree k -> k+1 with block offsets, built anew on each
        call and never stored."""
        tgt_offset, off = {}, 0
        for pq in self.total_blocks(k + 1):
            tgt_offset[pq] = off
            off += self.dim(*pq)
        rows: Rows = [EMPTY_ROW] * off
        col_off = 0
        for p, q in self.total_blocks(k):
            for op, target in (("del", (p + 1, q)), ("delbar", (p, q + 1))):
                if self.dim(p, q) and target in tgt_offset:
                    ro = tgt_offset[target]
                    for i, r in enumerate(self.rows(op, p, q)):
                        if r:
                            row = rows[ro + i]
                            if row is EMPTY_ROW:
                                row = rows[ro + i] = {}
                            for j, c in r.items():
                                row[col_off + j] = c
            col_off += self.dim(p, q)
        return rows

    def embed_block(self, v: Vec, p: int, q: int, k: int) -> Vec:
        off = 0
        for bp, bq in self.total_blocks(k):
            if (bp, bq) == (p, q):
                return {off + i: c for i, c in v.items()}
            off += self.dim(bp, bq)
        raise ValueError("bidegree not in total degree")

    # -- forms <-> vectors ---------------------------------------------------

    def form_to_vec(self, a: Form, p: int, q: int) -> Vec:
        """The coefficients of a (p,q)-form, keyed by the position of each
        monomial (I, J): rank(I) * C(n, q) + rank(J), its one constant
        t-slice (``form_to_slices``); ValueError on a form of another
        bidegree, on a bidegree outside 0..n, and on a t-dependent
        coefficient, which has no value here."""
        if any(len(I) != p or len(J) != q for I, J in a.coeffs):
            raise ValueError("form does not live in the requested bidegree")
        slices = self.form_to_slices(a, p, q)
        if slices.keys() - {0}:
            raise ValueError("a t-dependent form has no value on a complex without parameters")
        return slices.get(0, {})

    def vec_to_form(self, v: Vec, p: int, q: int, algebra: Optional[FormAlgebra] = None) -> Form:
        """The (p,q)-form of a vector: position i holds the monomial
        (I, J) with I at rank i // C(n, q) and J at rank i % C(n, q): its
        one constant t-slice (``slices_to_form``)."""
        return self.slices_to_form({0: v}, p, q, algebra or self.cx.algebra)

    def form_to_slices(self, a: Form, p: int, q: int) -> Dict[int, Vec]:
        """The t-slices of a (p,q)-form whose coefficients are polynomials
        in t: per monomial of t, by its key (an opaque label here), the
        vector of that coefficient of every monomial, positioned as in
        ``form_to_vec``, which reads the constant slice, key 0; ValueError
        on a bidegree outside 0..n."""
        self.check_bidegree(p, q)
        rank, cq = self.cx.layout.subset_rank, comb(self.n, q)
        slices: Dict[int, Vec] = {}
        for (I, J), c in a.coeffs.items():
            i = rank[p][I] * cq + rank[q][J]
            for expo, val in c.terms.items():
                slices.setdefault(expo, {})[i] = val
        return slices

    def slices_to_form(self, slices: Dict[int, Vec], p: int, q: int, algebra: FormAlgebra) -> Form:
        """The (p,q)-form over algebra whose t-slices are slices, the
        inverse of ``form_to_slices``, and like it refuses p or q outside 0..n."""
        self.check_bidegree(p, q)
        coeffs: Dict[int, Dict[int, GaussianRational]] = {}
        for expo, v in slices.items():
            for i, c in v.items():
                coeffs.setdefault(i, {})[expo] = c
        subsets, cq, ring = self.cx.layout.subsets, comb(self.n, q), algebra.ring
        return Form(algebra, {(subsets[p][i // cq], subsets[q][i % cq]): ParamScalar(ring, coeffs[i]) for i in sorted(coeffs)})


# -- dimensions ------------------------------------------------------------


def _cohomology_dim(dim: int, out: int, into: int) -> int:
    """The one identity behind every cohomology number: the dimension of
    the space, less the rank of the map out of it, whose kernel holds the
    cycles, less the rank of the map into it, whose image is the
    boundaries."""
    return dim - out - into


#: per cohomology of (p,q): the matrix from (p,q) whose kernel holds its
#: cycles, and the map whose image into (p,q) is its boundaries
#: (exact_sum, im del + im delbar, is ranked at its target)
_MAPS = {
    "dolbeault": ("delbar", "delbar"),
    "del": ("del", "del"),
    "bott_chern": ("stacked", "ddbar"),
    "aeppli": ("ddbar", "exact_sum"),
}


def betti(ec: EvaluatedComplex, k: int) -> int:
    """The k-th Betti number, k in 0..2n; any other k raises ValueError."""
    if not 0 <= k <= 2 * ec.n:
        raise ValueError(f"degree {k} is outside 0..{2 * ec.n}")
    return _cohomology_dim(ec.total_dim(k), ec.rank("total", k, 0), ec.rank("total", k - 1, 0))


def dclosed_dim(ec: EvaluatedComplex, p: int, q: int) -> int:
    """dim ker(del + delbar) on pure type (p,q), p and q in 0..n."""
    ec.check_bidegree(p, q)
    return ec.dim(p, q) - ec.rank("stacked", p, q)


def ddbar_image_dim(ec: EvaluatedComplex, p: int, q: int) -> int:
    """dim del(delbar(Lambda^{p-1,q-1})) inside (p,q), p and q in 0..n."""
    ec.check_bidegree(p, q)
    return ec.image_rank("ddbar", p, q)


def image_table(ranks: List[List[int]], op: str) -> List[List[int]]:
    """The rank of op (del, delbar or ddbar) into each (p,q), from its
    ``EvaluatedComplex.rank_table`` by source: ``image_rank(op, p, q)``,
    0 where the source lies outside 0..n."""
    dp, dq = _SHIFT[_known(op, _SHIFT)]
    size = len(ranks)
    return [[0] * size if p < dp else [0] * dq + ranks[p - dp][:size - dq] for p in range(size)]


def cohomology(ec: EvaluatedComplex, which: str, p: int, q: int) -> int:
    """The dimension of one cohomology of (p,q), from its own rank reads:
    which is dolbeault, del, bott_chern or aeppli (``_MAPS``), and the de
    Rham numbers are ``betti``'s.  Any other name, and a bidegree outside
    0..n (``check_bidegree``), raise ValueError.  The complex's equations
    define a complex: ``InvariantComplex`` decided that when it was built."""
    if which not in _MAPS:
        raise ValueError(f"unknown cohomology {which!r}: expected one of {', '.join(_MAPS)}")
    ec.check_bidegree(p, q)
    out, into = _MAPS[which]
    incoming = ec.rank(into, p, q) if into == "exact_sum" else ec.image_rank(into, p, q)
    return _cohomology_dim(ec.dim(p, q), ec.rank(out, p, q), incoming)


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


@collector_paused()
def full_report(ec: EvaluatedComplex) -> CohomologyReport:
    """Every cohomology table and Betti number of a complex, with the
    cyclic collector paused (``collector_paused``); d^2 = 0 was decided
    when the ``InvariantComplex`` was built.  Every number is
    ``_cohomology_dim`` of ranks read once, into the tables of
    ``EvaluatedComplex.rank_table`` and one list of d's ranks."""
    n = ec.n
    size = n + 1
    dims = [[ec.dim(p, q) for q in range(size)] for p in range(size)]
    ranks = {op: ec.rank_table(op) for op in ("delbar", "del", "stacked", "ddbar", "exact_sum")}
    tables = {}
    for name, (out, into) in _MAPS.items():
        incoming = ranks[into] if into == "exact_sum" else image_table(ranks[into], into)
        tables[name] = [[_cohomology_dim(*cell) for cell in zip(*row)] for row in zip(dims, ranks[out], incoming)]
    total = [ec.rank("total", k, 0) for k in range(-1, 2 * n + 1)]
    report = CohomologyReport(
        n=n,
        point=ec.point,
        h_dolbeault=tables["dolbeault"],
        h_del=tables["del"],
        h_bc=tables["bott_chern"],
        h_a=tables["aeppli"],
        betti=[_cohomology_dim(ec.total_dim(k), total[k + 1], total[k]) for k in range(2 * n + 1)],
    )
    report.check_conjugation_symmetry()
    return report
