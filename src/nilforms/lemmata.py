"""Deciders for the del-delbar lemma variants at fixed bidegrees.

Each variant asks whether a space of pure-type forms lies inside im
deldelbar.  The space always contains im deldelbar, so the question is
one of dimension, and every verdict is an identity between ranks that
the EvaluatedComplex already holds (Angella-Tomassini state the
del-delbar lemma itself as an identity between dimensions).  Write
r(op, p, q) for the rank of the matrix op from SOURCE (p,q) and w for
dim im deldelbar at (p,q).  Every verdict rests on the complex being
flat, which ``InvariantComplex`` decided when it was built
(``StructureEquations.require_flat``): with no (0,2)-part d = del +
delbar, and del^2, delbar^2 and del delbar + delbar del are the three
bidegree parts of d^2, so d^2 = 0 makes the complex flat.  Equations
that fail raise IntegrabilityError or FlatnessError there, typed errors
that the CLI reports as one ``error:`` line.  On a flat complex:

  mild(p,q):       del(ker deldelbar at (p-1,q)) = im deldelbar, i.e.
                   r(del,p-1,q) - r(ddbar,p-1,q) = w: ker del lies in
                   ker deldelbar, and im deldelbar is del of delbar's
                   image, which lies in ker deldelbar.
  dual mild(p,q):  r(delbar,p,q-1) - r(ddbar,p,q-1) = w, the mirror.
  strong(p,q):     (im del + im delbar) cap ker del cap ker delbar is the
                   sum of im del cap ker delbar (del of ker deldelbar)
                   and im delbar cap ker del, which meet in im del cap
                   im delbar, so r(exact_sum,p,q) - r(ddbar,p-1,q) -
                   r(ddbar,p,q-1) = w.
  standard at (p,q), k = p+q: the d-exact forms of pure type (p,q) are
                   d of the kernel of the rows of d from degree k-1
                   outside the (p,q) block, which contains ker d, so
                   r(total,k-1) - (rank of those rows) = w.  Those rows
                   are the blocks before (p,q) and the blocks after it,
                   which share no column: a prefix rank plus a suffix
                   rank, read from the one pass per degree that gives
                   r(total,k-1) (``ec.block_ranks``), the suffix ranks
                   by conjugation, which reverses the blocks.
  weak(p):         quantified over real (p,p)-forms psi: with T the real
                   span of delbar psi, E = im del and D = im deldelbar at
                   (p,p+1), is T cap E inside D?  D lies in im del cap
                   im delbar, as del delbar = -delbar del, and T in im
                   delbar, so where the two are equal,
                   r(del,p-1,p+1) + r(delbar,p,p) - r(exact_sum,p,p+1)
                   = w, weak holds: the ranks that mild, dual mild and
                   strong at (p,p+1) read.  Elsewhere one count over Q(i)
                   decides.  U = im d on (p,p) lies in (p+1,p) + (p,p+1),
                   and the swap sigma(a, b) = (conj b, conj a) keeps U
                   (sigma(d psi) = d conj(psi)) and conj(E) + E.  Its
                   fixed points in U are the d psi with psi real, which
                   map one to one onto their (p,p+1) parts delbar psi, so
                   dim_R(T cap E) = dim_C(U cap (conj(E) + E)): the
                   relations of the del image basis e_s, in the (p,p+1)
                   half, and then of the conj(e_s), in the (p+1,p) half,
                   tracked into one forward echelon of U, whose rank is
                   certified by the stacked rank at (p,p).  T cap E holds
                   D (delbar del phi is delbar of the real del phi +
                   conj(del phi)), so weak holds iff the relations are
                   2 w, and fewer raise AssertionError.

Each identity is stated once, as a function of ints (``_mild_identity``,
``_strong_identity``).  A verdict at one bidegree feeds it from its own
``ec.rank`` reads (``_mild_holds``, ``_strong_holds``), so a question
about given bidegrees reads only their ranks; ``lemma_report`` on every
bidegree reads each rank once, into the int tables of
``EvaluatedComplex.rank_table``, and feeds every (p,q) from them
(``_verdict_tables``).

So a passing verdict builds no kernel, and only weak, where im del cap
im delbar is larger than im deldelbar, reads vectors: the columns of d
on (p,p) and del's image basis, which each EvaluatedComplex builds once
per image.  A failing verdict runs the vector route only to build its
witness: the first vector of the tested space outside im deldelbar.
For mild that space is del of ker deldelbar, scanned by ``ec.mild_scan``,
which builds each kernel vector only when it reaches it and, on a
unimodular complex, tests each image on the Hodge-star side and stars
back only the witness.  Strong's space is the sum of the spaces that
mild and dual mild test, so strong fails exactly when one of them
fails, and its witness is theirs: mild's at (p,q) if mild fails, else
dual mild's (``lemma_report`` reuses the two it holds, and checks
strong = mild and dual mild).  Weak's witness is the first candidate
outside D, two per relation: a relation with a on the e_s and b on the
conj(e_s) is a u in U, and u + sigma(u) and i (u - sigma(u)) are d of
real forms, with (p,p+1) parts sum (a_s + conj b_s) e_s and
i sum (a_s - conj b_s) e_s, which over all relations span T cap E.
Standard's space is spanned by the relations among the parts outside
the (p,q) block of the total image basis, tracked into one echelon.
Every relation is read by ``linalg.Echelon.track``.  That the route
finds a witness is checked; if not, the two routes disagree, and
AssertionError is raised.  Every witness re-verifies by fresh rank
computations (``verify_witness``).
Every decider refuses a bidegree outside 0..n (``ec.check_bidegree``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from . import linalg
from .algebra import Form
from .cohomology import EvaluatedComplex, collector_paused, image_table
from .io import form_to_obj
from .linalg import Vec
from .scalars import QI_I, QI_ZERO


def _witness(ec: EvaluatedComplex, kind: str, p: int, q: int, vectors: Iterable[Vec]) -> Form:
    """The first of vectors outside im deldelbar at (p,q) by
    ``ec.in_ddbar_image``, as a form: weak's and standard's witness.  The
    ranks said that the verdict kind fails, so if the vectors hold none,
    the two routes disagree and AssertionError is raised."""
    for v in vectors:
        if v and not ec.in_ddbar_image(v, p, q):
            return ec.vec_to_form(v, p, q)
    raise AssertionError(
        f"{kind} at {(p, q)}: the ranks say it fails, but the vector route "
        "finds no form outside im deldelbar"
    )


def mild(ec: EvaluatedComplex, p: int, q: int) -> Tuple[bool, Optional[Form]]:
    """True iff every delbar-closed del-exact (p,q)-form is deldelbar-exact."""
    return _mild(ec, "del", p, q)


def dual_mild(ec: EvaluatedComplex, p: int, q: int) -> Tuple[bool, Optional[Form]]:
    """Mirror of mild with del and delbar exchanged."""
    return _mild(ec, "delbar", p, q)


def _mild(ec: EvaluatedComplex, op: str, p: int, q: int) -> Tuple[bool, Optional[Form]]:
    """op(ker deldelbar) inside im deldelbar at (p,q), op del or delbar,
    by rank; the witness is the first image outside (``_scanned``)."""
    ec.check_bidegree(p, q)
    if _mild_holds(ec, op, p, q):
        return True, None
    return False, _scanned(ec, "mild" if op == "del" else "dual_mild", [op], p, q)


def _mild_holds(ec: EvaluatedComplex, op: str, p: int, q: int) -> bool:
    """mild's rank identity at (p,q), or dual mild's, from its own rank
    reads (``_mild_identity``)."""
    sp, sq = (p - 1, q) if op == "del" else (p, q - 1)
    if not (ec.dim(sp, sq) and ec.dim(p, q)):
        return True
    return _mild_identity(ec.rank(op, sp, sq), ec.rank("ddbar", sp, sq), ec.image_rank("ddbar", p, q))


def _mild_identity(source: int, ddbar: int, w: int) -> bool:
    """mild's identity, or dual mild's, on ints (module docstring): the
    rank of op and of deldelbar from op's source, and w = dim im
    deldelbar at the target."""
    return source - ddbar == w


def _scanned(ec: EvaluatedComplex, kind: str, ops: Iterable[str], p: int, q: int) -> Form:
    """The first witness that the ops' scans into (p,q) find, as a form
    (``ec.mild_scan``); if none, the routes disagree (``_witness`` raises)."""
    for op in ops:
        v = ec.mild_scan(op, *((p - 1, q) if op == "del" else (p, q - 1)))
        if v is not None:
            return ec.vec_to_form(v, p, q)
    return _witness(ec, kind, p, q, ())


def strong(ec: EvaluatedComplex, p: int, q: int) -> Tuple[bool, Optional[Form]]:
    """Injectivity of the Bott-Chern to Aeppli comparison at (p,q); the
    witness is mild's at (p,q) if mild fails, else dual mild's."""
    ec.check_bidegree(p, q)
    if _strong_holds(ec, p, q):
        return True, None
    # where mild's rank identity holds, every del image lies in im deldelbar
    return False, _scanned(ec, "strong", (op for op in ("del", "delbar") if not _mild_holds(ec, op, p, q)), p, q)


def _strong_holds(ec: EvaluatedComplex, p: int, q: int) -> bool:
    """strong's rank identity at (p,q), from its own rank reads
    (``_strong_identity``)."""
    if not ec.dim(p, q):
        return True
    return _strong_identity(ec.rank("exact_sum", p, q), ec.image_rank("ddbar", p, q + 1),
                            ec.image_rank("ddbar", p + 1, q), ec.image_rank("ddbar", p, q))


def _strong_identity(exact_sum: int, up: int, right: int, w: int) -> bool:
    """strong's identity on ints (module docstring): r(exact_sum) at
    (p,q), the deldelbar images into (p,q+1) and (p+1,q), which are
    r(ddbar,p-1,q) and r(ddbar,p,q-1), and w at (p,q)."""
    return exact_sum - up - right == w


def _verdict_tables(ec: EvaluatedComplex) -> List[List[Tuple[bool, bool, bool]]]:
    """(mild, dual mild, strong) at every (p,q) in 0..n, by the identities
    of ``_mild_holds`` and ``_strong_holds`` fed from the rank tables
    (``EvaluatedComplex.rank_table``); the deldelbar image into a
    bidegree past n is 0."""
    size = ec.n + 1
    into = {op: image_table(ec.rank_table(op), op) for op in ("del", "delbar", "ddbar")}
    exact = ec.rank_table("exact_sum")
    w = [row + [0] for row in into["ddbar"]] + [[0] * (size + 1)]
    return [[(_mild_identity(into["del"][p][q], w[p][q + 1], w[p][q]),
              _mild_identity(into["delbar"][p][q], w[p + 1][q], w[p][q]),
              _strong_identity(exact[p][q], w[p][q + 1], w[p + 1][q], w[p][q]))
             for q in range(size)] for p in range(size)]


def weak(ec: EvaluatedComplex, p: int) -> Tuple[bool, Optional[Form]]:
    """The (p,p+1)-th condition quantified over real (p,p)-forms psi:
    delbar psi del-exact implies delbar psi deldelbar-exact, 0 <= p < n.
    It holds by rank where im del cap im delbar = im deldelbar at
    (p,p+1) (``_images_meet_in_ddbar``); elsewhere by the count of the
    relations of E and conj(E) modulo U, which give the witness
    (``_weak_tracked``)."""
    ec.check_bidegree(p, p + 1)
    if _images_meet_in_ddbar(ec, p):
        return True, None
    return _weak_tracked(ec, p)


def _images_meet_in_ddbar(ec: EvaluatedComplex, p: int) -> bool:
    """Whether dim(im del cap im delbar) = dim im deldelbar at (p,p+1),
    from ranks: the dimension of the meet is r(del) + r(delbar) -
    r(exact_sum) there.  On a flat complex the meet contains im
    deldelbar, so the identity says they are equal."""
    q = p + 1
    meet = ec.image_rank("del", p, q) + ec.image_rank("delbar", p, q) - ec.rank("exact_sum", p, q)
    return meet == ec.image_rank("ddbar", p, q)


def _d_image(ec: EvaluatedComplex, p: int) -> linalg.Echelon:
    """U = im d on the (p,p)-forms, inside (p+1,p) + (p,p+1) in the order
    of the stacked rows: one forward echelon of the nonzero columns of
    ``rows("stacked", p, p)``, by ascending index."""
    cols = linalg.columns(ec.rows("stacked", p, p))
    return linalg.forward_echelon([cols[j] for j in sorted(cols)])


def _weak_tracked(ec: EvaluatedComplex, p: int) -> Tuple[bool, Optional[Form]]:
    """weak at p on a flat complex: the del image basis e_s into (p,p+1),
    then the conj(e_s) in (p+1,p), tracked into U (``_d_image``), the
    relations read by the verdict and the witness (module docstring).
    U's rank must be the stacked rank at (p,p), and the relations number
    at least 2 r(ddbar), as D lies in T cap E; else AssertionError."""
    q = p + 1
    u = _d_image(ec, p)
    closed = ec.rank("stacked", p, p)
    if u.rank != closed:
        raise AssertionError(f"weak at {p}: column rank {u.rank} of d on the ({p},{p})-forms != stacked rank {closed}")
    image, half = ec.image_vectors("del", p, q), ec.dim(q, p)
    tracked = [{half + k: x for k, x in e.items()} for e in image] + [ec.conj(e, p, q) for e in image]
    relations = [c for c in (u.track(v, j, 2 * half) for j, v in enumerate(tracked)) if c is not None]
    inside = 2 * ec.image_rank("ddbar", p, q)
    if len(relations) < inside:
        raise AssertionError(f"weak at {p}: {len(relations)} relations of E + conj(E) modulo U < 2 r(ddbar) = {inside}")
    if len(relations) == inside:
        return True, None

    def witnesses():
        # a relation c is a on the e_s and b on the conj(e_s); its two
        # candidates are the (p,p+1) parts of u + sigma(u) and i (u - sigma(u))
        r = len(image)
        for c in relations:
            plus, minus = {}, {}
            for s in sorted({t % r for t in c}):
                a, b = c.get(s, QI_ZERO), c.get(r + s, QI_ZERO).conj()
                linalg.add_scaled_into(plus, a + b, image[s])
                linalg.add_scaled_into(minus, (a - b) * QI_I, image[s])
            yield plus
            yield minus

    return False, _witness(ec, "weak", p, q, witnesses())


def _pure_d_exact(ec: EvaluatedComplex, p: int, q: int) -> Iterator[Vec]:
    """A basis of the d-exact (p,q)-forms, built lazily: the part of each
    total image vector outside the (p,q) block is tracked into one
    echelon, and each relation c gives sum c_j image_j, 0 outside it."""
    k = p + q
    image = ec.image_vectors("total", k, 0)
    blocks = ec.total_blocks(k)
    lo = sum(ec.dim(*pq) for pq in blocks[:blocks.index((p, q))])
    hi, width = lo + ec.dim(p, q), ec.total_dim(k)
    outside = linalg.Echelon({})
    for j, v in enumerate(image):
        c = outside.track({i: x for i, x in v.items() if not lo <= i < hi}, j, width)
        if c is not None:
            w: Vec = {}
            for t, x in c.items():
                linalg.add_scaled_into(w, x, image[t])
            yield {i - lo: x for i, x in w.items()}


def standard(ec: EvaluatedComplex) -> Tuple[bool, Optional[Form], Optional[Tuple[int, int]]]:
    """Injectivity of all Bott-Chern to de Rham comparisons.

    Returns (flag, witness, bidegree); the witness is a pure-type
    d-exact form (automatically del- and delbar-closed) outside the
    deldelbar image, at the first failing bidegree, p-major: the first
    of ``_pure_d_exact``'s lazy forms there, so the scan stops at it.
    """
    split: Dict[int, Tuple[List[int], List[int]]] = {}
    for p in range(ec.n + 1):
        for q in range(ec.n + 1):
            k = p + q
            if not (k and ec.dim(p, q)):
                continue
            if k not in split:
                split[k] = ec.block_ranks(k)
            before, after = split[k]
            i = ec.total_blocks(k).index((p, q))
            if ec.rank("total", k - 1, 0) - before[i] - after[i] == ec.image_rank("ddbar", p, q):
                continue
            return False, _witness(ec, "standard", p, q, _pure_d_exact(ec, p, q)), (p, q)
    return True, None, None


# -- witness re-verification ----------------------------------------------

_KINDS = ("mild", "dual_mild", "strong", "weak", "standard")


def verify_witness(ec: EvaluatedComplex, kind: str, p: int, q: int, w: Form) -> Dict[str, bool]:
    """Fresh rank computations certifying a failure witness.

    For mild: w is del-exact, delbar-closed, not deldelbar-exact; for
    dual_mild the mirror; for strong: w is d-closed pure type, in
    im del + im delbar, not deldelbar-exact; for weak: w = delbar psi
    with psi real ((conj w, w) = d psi lies in a new elimination of U,
    ``_d_image``), w del-exact, not deldelbar-exact; for standard: w is
    d-exact (on the total complex), pure type, not deldelbar-exact.
    Any other kind, a bidegree outside 0..n (``ec.check_bidegree``) and
    a weak witness at a bidegree other than (p,p+1) raise ValueError.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown witness kind {kind!r}: expected one of {', '.join(_KINDS)}")
    ec.check_bidegree(p, q)
    if kind == "weak" and q != p + 1:
        raise ValueError(f"a weak witness lies at (p,p+1), not at ({p},{q})")
    v = ec.form_to_vec(w, p, q)
    out = {"not_ddbar_exact": not ec.image_echelon("ddbar", p, q).contains(v)}
    if kind == "mild":
        out["del_exact"] = ec.image_echelon("del", p, q).contains(v)
        out["delbar_closed"] = not linalg.mat_vec(ec.rows("delbar", p, q), v)
    elif kind == "dual_mild":
        out["delbar_exact"] = ec.image_echelon("delbar", p, q).contains(v)
        out["del_closed"] = not linalg.mat_vec(ec.rows("del", p, q), v)
    elif kind == "strong":
        out["in_exact_sum"] = ec.image_sum(("del", "delbar"), p, q).contains(v)
        out["del_closed"] = not linalg.mat_vec(ec.rows("del", p, q), v)
        out["delbar_closed"] = not linalg.mat_vec(ec.rows("delbar", p, q), v)
    elif kind == "weak":
        out["del_exact"] = ec.image_echelon("del", p, q).contains(v)
        shifted = {ec.dim(q, p) + k: x for k, x in v.items()}
        out["delbar_of_real"] = _d_image(ec, p).contains({**ec.conj(v, p, q), **shifted})
    elif kind == "standard":
        k = p + q
        out["d_exact"] = ec.image_echelon("total", k, 0).contains(ec.embed_block(v, p, q, k))
    return out


@dataclass
class LemmaReport:
    """Flags per queried bidegree plus witnesses for each failure."""

    point: tuple
    mild_flags: Dict[Tuple[int, int], bool] = field(default_factory=dict)
    dual_mild_flags: Dict[Tuple[int, int], bool] = field(default_factory=dict)
    strong_flags: Dict[Tuple[int, int], bool] = field(default_factory=dict)
    weak_flags: Dict[int, bool] = field(default_factory=dict)
    standard_flag: Optional[bool] = None
    witnesses: Dict[str, Form] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """The report as the CLI prints it; a witness that several verdicts
        share (strong's is mild's or dual mild's) is converted once."""
        converted: Dict[int, dict] = {}
        for w in self.witnesses.values():
            if id(w) not in converted:
                converted[id(w)] = form_to_obj(w)
        return {
            "t": [str(z) for z in self.point],
            "mild": {f"{p},{q}": v for (p, q), v in sorted(self.mild_flags.items())},
            "dual_mild": {f"{p},{q}": v for (p, q), v in sorted(self.dual_mild_flags.items())},
            "strong": {f"{p},{q}": v for (p, q), v in sorted(self.strong_flags.items())},
            "weak": {str(p): v for p, v in sorted(self.weak_flags.items())},
            "standard": self.standard_flag,
            "witnesses": {k: converted[id(w)] for k, w in self.witnesses.items()},
        }


@collector_paused()
def lemma_report(
    ec: EvaluatedComplex,
    bidegrees: Optional[List[Tuple[int, int]]] = None,
) -> LemmaReport:
    """Evaluate the lemma family at the given bidegrees (default: all,
    and then standard too; a bidegree outside 0..n raises ValueError).
    mild, dual mild and strong come from rank tables on every bidegree
    (``_verdict_tables``), from their own ranks at given bidegrees, and
    one witness step (``_scanned``) serves both; t is ``ec.point``.

    Consistency checks baked in, each an AssertionError when it breaks
    (flatness was decided when the complex was built): strong = mild and
    dual_mild at every queried bidegree, which compares the rank of
    [del | delbar] (read through Hodge-star duality on a unimodular
    complex) with the del, delbar and deldelbar ranks; mild at (p,p+1)
    implies weak at p; and the vector route finds a witness for every
    failing verdict.  The cyclic collector is paused throughout
    (``collector_paused``).
    """
    every = bidegrees is None
    if every:
        bidegrees = [(p, q) for p in range(ec.n + 1) for q in range(ec.n + 1) if ec.dim(p, q)]
    for p, q in bidegrees:
        ec.check_bidegree(p, q)
    report = LemmaReport(point=ec.point)
    table = _verdict_tables(ec) if every else None
    for (p, q) in bidegrees:
        if table is None:
            m_ok, d_ok, s_ok = _mild_holds(ec, "del", p, q), _mild_holds(ec, "delbar", p, q), _strong_holds(ec, p, q)
        else:
            m_ok, d_ok, s_ok = table[p][q]
        m_wit = None if m_ok else _scanned(ec, "mild", ["del"], p, q)
        d_wit = None if d_ok else _scanned(ec, "dual_mild", ["delbar"], p, q)
        report.mild_flags[(p, q)] = m_ok
        report.dual_mild_flags[(p, q)] = d_ok
        report.strong_flags[(p, q)] = s_ok
        s_wit = m_wit if m_wit is not None else d_wit
        for kind, wit in (("mild", m_wit), ("dual_mild", d_wit), ("strong", s_wit)):
            if wit is not None:
                report.witnesses[f"{kind}:{p},{q}"] = wit
        if s_ok != (m_ok and d_ok):
            raise AssertionError(
                f"strong/mild/dual-mild identity violated at {(p, q)} "
                f"(strong={s_ok}, mild={m_ok}, dual={d_ok})"
            )
        if q == p + 1:
            w_ok, w_wit = weak(ec, p)
            report.weak_flags[p] = w_ok
            if w_wit is not None:
                report.witnesses[f"weak:{p}"] = w_wit
            if m_ok and not w_ok:
                raise AssertionError(f"mild({p},{p+1}) holds but weak({p}) fails")
    if every:
        s_all, wit, at = standard(ec)
        report.standard_flag = s_all
        if wit is not None:
            report.witnesses[f"standard:{at[0]},{at[1]}"] = wit
    return report
