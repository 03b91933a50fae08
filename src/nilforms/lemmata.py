"""Deciders for the del-delbar lemma variants at fixed bidegrees.

All five variants reduce to exact containment tests between images and
kernels of the structure matrices:

  mild(p,q):       del(ker deldelbar at (p-1,q))      inside im deldelbar
  dual mild(p,q):  delbar(ker deldelbar at (p,q-1))   inside im deldelbar
  strong(p,q):     (im del + im delbar) cap ker both  inside im deldelbar
  weak(p):         delbar(real psi with delbar psi del-exact) inside im
                   deldelbar, quantified over real (p,p)-forms only
  standard:        d-exact pure-type forms inside im deldelbar, all (p,q)

On an integrable complex (del^2 = delbar^2 = 0, del delbar = -delbar
del; ``build_complex`` checks d^2 = 0 and integrability) the space that
strong tests is

  (im del + im delbar) cap ker del cap ker delbar
      = del(ker deldelbar at (p-1,q)) + delbar(ker deldelbar at (p,q-1)),

so strong builds it from the same deldelbar kernels that mild and dual
mild read, keeping only the rank del - rank deldelbar (resp. rank delbar
- rank deldelbar) kernel vectors whose images span each summand, and
never forms the kernel of [del; delbar] or the column spans of del and
delbar.  A spanning vector that is not del- and delbar-closed means the
identity failed (the complex is not flat); that raises AssertionError
instead of giving a verdict.

Every negative answer carries a witness form that re-verifies by fresh
rank computations.  The realness constraint of the weak variant is
handled by splitting coefficients into conjugation-fixed and anti-fixed
parts and working over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import linalg
from .algebra import Form
from .cohomology import EvaluatedComplex
from .linalg import Echelon, Vec
from .scalars import QI_I, QI_ONE, GaussianRational

_MINUS_ONE, _MINUS_I = GaussianRational(-1), GaussianRational(0, -1)


def mild(ec: EvaluatedComplex, p: int, q: int) -> Tuple[bool, Optional[Form]]:
    """True iff every delbar-closed del-exact (p,q)-form is deldelbar-exact."""
    return _mild(ec, "del", p, q)


def dual_mild(ec: EvaluatedComplex, p: int, q: int) -> Tuple[bool, Optional[Form]]:
    """Mirror of mild with del and delbar exchanged."""
    return _mild(ec, "delbar", p, q)


def _mild(ec: EvaluatedComplex, op: str, p: int, q: int) -> Tuple[bool, Optional[Form]]:
    """op(ker deldelbar) inside im deldelbar at (p,q), op del or delbar;
    the witness is the first image outside."""
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


def strong(ec: EvaluatedComplex, p: int, q: int) -> Tuple[bool, Optional[Form]]:
    """Injectivity of the Bott-Chern to Aeppli comparison at (p,q)."""
    if not ec.dim(p, q):
        return True, None
    target = ec.image_echelon("ddbar", p, q)
    for v in exact_closed_basis(ec, p, q):
        if not target.contains(v):
            return False, ec.vec_to_form(v, p, q)
    return True, None


def exact_closed_basis(ec: EvaluatedComplex, p: int, q: int) -> List[Vec]:
    """Basis of (im del + im delbar) cap ker del cap ker delbar at (p,q).

    The space is del(ker deldelbar at (p-1,q)) + delbar(ker deldelbar at
    (p,q-1)); each of the two is spanned by the images of the kernel
    vectors whose free column is a pivot of del (resp. delbar), rank del
    - rank deldelbar of them; the pivot columns come from the forward
    echelons, and only the deldelbar kernel needs an RREF.  The basis is
    the reduced echelon form of their span read in the free coordinates
    of the stacked [del; delbar] echelon, largest free column leading:
    each vector holds 1 at its leading free column and 0 at the leading
    columns of the others, listed by leading column ascending, its keys
    ascending.  Raises AssertionError when a spanning vector is not
    d-closed, i.e. when the complex is not flat; the check is explicit,
    so it holds under ``python -O``.
    """
    spanning: List[Vec] = []
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
    # del of a delbar-side vector is deldelbar of a kernel vector, zero
    # by construction of the deldelbar rows, so it is not checked
    for i, v in enumerate(spanning):
        if (i < n_del and linalg.columns_vec(del_cols, v)) or linalg.columns_vec(delbar_cols, v):
            raise AssertionError(
                f"strong at {(p, q)}: a vector of del/delbar(ker deldelbar) is not d-closed"
            )
    # an Echelon leads with its smallest key: the free columns of the
    # stacked echelon in reverse, then its pivot columns
    closed_pivots = ec._row_echelon("stacked", p, q).pivots
    free = [f for f in range(ec.dim(p, q)) if f not in closed_pivots]
    key = {f: len(free) - 1 - i for i, f in enumerate(free)}
    key.update((col, len(free) + col) for col in closed_pivots)
    back = {k: i for i, k in key.items()}
    e = Echelon()
    for v in spanning:
        e.insert({key[i]: c for i, c in v.items()})
    return [
        dict(sorted((back[k], c) for k, c in e.pivots[lead].items()))
        for lead in sorted(e.pivots, reverse=True)
    ]


def _real_basis_vectors(ec: EvaluatedComplex, p: int) -> List[Vec]:
    """Rational basis of the conjugation-fixed (p,p)-forms as QI vectors.

    Conjugation sends the monomial (I, J) to (-1)^(p*p) (J, I), so
    i^(p*p) (I, I) is fixed, and so are m + (-1)^(p*p) flip and
    i m - i (-1)^(p*p) flip for each pair m = (I, J), flip = (J, I) with
    I != J.  For odd p, i^(p*p) = i and (-1)^(p*p) = -1; for even p both
    are 1.
    """
    basis = ec.cx.basis(p, p)
    index = ec.cx.index(p, p)
    diag, flip_re, flip_im = (QI_I, _MINUS_ONE, QI_I) if p % 2 else (QI_ONE, QI_ONE, _MINUS_I)
    out: List[Vec] = []
    flips = set()
    for m in basis:
        I, J = m
        if I == J:
            out.append({index[m]: diag})
        elif m not in flips:
            flip = (J, I)
            flips.add(flip)
            out.append({index[m]: QI_ONE, index[flip]: flip_re})
            out.append({index[m]: QI_I, index[flip]: flip_im})
    return out


def weak(ec: EvaluatedComplex, p: int) -> Tuple[bool, Optional[Form]]:
    """The (p,p+1)-th condition quantified over real (p,p)-forms psi:
    delbar psi del-exact implies delbar psi deldelbar-exact."""
    q = p + 1
    if q > ec.n or not ec.dim(p, p):
        return True, None
    reals = _real_basis_vectors(ec, p)
    delbar_cols = ec.columns("delbar", p, p)
    delbar_images = [linalg.columns_vec(delbar_cols, r) for r in reals]
    # solve over Q: x (real psi coefficients) with delbar psi in im del
    del_span = linalg.realify_span(ec.image_vectors("del", p, q))
    cols = [linalg.realify_vec(v) for v in delbar_images]
    ncols_psi = len(cols)
    cols = cols + [linalg._negated(v) for v in del_span]
    nrows = 2 * ec.dim(p, q)
    rows = linalg.rows_from_columns(cols, nrows)
    relations = linalg.nullspace(rows, len(cols), one=Fraction(1))
    target = Echelon()
    for v in linalg.realify_span(ec.image_vectors("ddbar", p, q)):
        target.insert(v)
    for rel in relations:
        combo = {k: c for k, c in rel.items() if k < ncols_psi}
        if not combo:
            continue
        w_real: Vec = {}
        for k, c in combo.items():
            linalg.add_scaled_into(w_real, c, cols[k])
        if w_real and not target.contains(w_real):
            witness: Vec = {}
            for k, c in combo.items():
                linalg.add_scaled_into(witness, GaussianRational(c), delbar_images[k])
            return False, ec.vec_to_form(witness, p, q)
    return True, None


def _pure_d_exact(ec: EvaluatedComplex, p: int, q: int) -> List[Vec]:
    """Basis of (image of d on the total complex) cap Lambda^{p,q}."""
    k = p + q
    if k == 0:
        return []
    image = ec.image_vectors("total", k, 0)
    if not image:
        return []
    # combinations of image vectors supported on the (p,q) block only
    blocks = ec.total_blocks(k)
    off = 0
    block_range = None
    for bp, bq in blocks:
        d = ec.dim(bp, bq)
        if (bp, bq) == (p, q):
            block_range = (off, off + d)
        off += d
    lo, hi = block_range
    outside_rows: Dict[int, Vec] = {}
    for j, v in enumerate(image):
        for i, c in v.items():
            if not lo <= i < hi:
                outside_rows.setdefault(i, {})[j] = c
    rel = linalg.nullspace(list(outside_rows.values()), len(image))
    out: List[Vec] = []
    e = Echelon()
    for r in rel:
        v: Vec = {}
        for j, c in r.items():
            linalg.add_scaled_into(v, c, image[j])
        v = {i - lo: c for i, c in v.items()}
        if v and e.insert(v):
            out.append(v)
    return out


def standard(ec: EvaluatedComplex) -> Tuple[bool, Optional[Form], Optional[Tuple[int, int]]]:
    """Injectivity of all Bott-Chern to de Rham comparisons.

    Returns (flag, witness, bidegree); the witness is a pure-type
    d-exact form (automatically del- and delbar-closed) outside the
    deldelbar image.
    """
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


# -- witness re-verification ----------------------------------------------


def verify_witness(ec: EvaluatedComplex, kind: str, p: int, q: int, w: Form) -> Dict[str, bool]:
    """Fresh rank computations certifying a failure witness.

    For mild: w is del-exact, delbar-closed, not deldelbar-exact; for
    dual_mild the mirror; for strong: w is d-closed pure type, in
    im del + im delbar, not deldelbar-exact; for weak: w = delbar psi
    with psi real, w del-exact, not deldelbar-exact; for standard: w is
    d-exact (on the total complex), pure type, not deldelbar-exact.
    """
    v = ec.form_to_vec(w, p, q)
    not_ddbar = not ec.image_echelon("ddbar", p, q).contains(v)
    out = {"not_ddbar_exact": not_ddbar}
    if kind == "mild":
        out["del_exact"] = ec.image_echelon("del", p, q).contains(v)
        out["delbar_closed"] = not linalg.mat_vec(ec.delbar_rows(p, q), v)
    elif kind == "dual_mild":
        out["delbar_exact"] = ec.image_echelon("delbar", p, q).contains(v)
        out["del_closed"] = not linalg.mat_vec(ec.del_rows(p, q), v)
    elif kind == "strong":
        e = Echelon()
        for u in ec.image_vectors("del", p, q) + ec.image_vectors("delbar", p, q):
            e.insert(u)
        out["in_exact_sum"] = e.contains(v)
        out["del_closed"] = not linalg.mat_vec(ec.del_rows(p, q), v)
        out["delbar_closed"] = not linalg.mat_vec(ec.delbar_rows(p, q), v)
    elif kind == "weak":
        out["del_exact"] = ec.image_echelon("del", p, q).contains(v)
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
        from .io import form_to_obj

        return {
            "t": [str(z) for z in self.point],
            "mild": {f"{p},{q}": v for (p, q), v in sorted(self.mild_flags.items())},
            "dual_mild": {f"{p},{q}": v for (p, q), v in sorted(self.dual_mild_flags.items())},
            "strong": {f"{p},{q}": v for (p, q), v in sorted(self.strong_flags.items())},
            "weak": {str(p): v for p, v in sorted(self.weak_flags.items())},
            "standard": self.standard_flag,
            "witnesses": {k: form_to_obj(w) for k, w in self.witnesses.items()},
        }


def lemma_report(
    ec: EvaluatedComplex,
    bidegrees: Optional[List[Tuple[int, int]]] = None,
    with_standard: bool = True,
) -> LemmaReport:
    """Evaluate the lemma family at the given bidegrees (default: all;
    a bidegree outside 0..n raises ValueError).

    Consistency checks baked in: strong = mild and dual_mild at every
    queried bidegree, and mild at (p,p+1) implies weak at p.
    """
    if bidegrees is None:
        bidegrees = [
            (p, q) for p in range(ec.n + 1) for q in range(ec.n + 1) if ec.dim(p, q)
        ]
    for p, q in bidegrees:
        ec.check_bidegree(p, q)
    report = LemmaReport(point=ec.point)
    for (p, q) in bidegrees:
        m_ok, m_wit = mild(ec, p, q)
        d_ok, d_wit = dual_mild(ec, p, q)
        s_ok, s_wit = strong(ec, p, q)
        report.mild_flags[(p, q)] = m_ok
        report.dual_mild_flags[(p, q)] = d_ok
        report.strong_flags[(p, q)] = s_ok
        if m_wit is not None:
            report.witnesses[f"mild:{p},{q}"] = m_wit
        if d_wit is not None:
            report.witnesses[f"dual_mild:{p},{q}"] = d_wit
        if s_wit is not None:
            report.witnesses[f"strong:{p},{q}"] = s_wit
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
    if with_standard:
        s_all, wit, at = standard(ec)
        report.standard_flag = s_all
        if wit is not None:
            report.witnesses[f"standard:{at[0]},{at[1]}"] = wit
    return report
