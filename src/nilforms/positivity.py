"""Positivity taxonomy on exterior powers: strict positivity of (q,q)-
forms, transversality of real (p,p)-forms against decomposable (q,0)-
directions, and the Kaehler/balanced specializations.

Each verdict reads one Hermitian matrix on the (q,0)-forms gamma^I, I
ascending in 1..n with |I| = q (``_subset_index``): the coefficient
matrix of a (q,q)-form, or the pairing matrix of a (p,p)-form, read off
its coefficients at complementary monomials with no wedge
(``_pairing_matrix``).  Where every (q,0)-form is decomposable (q in
{0, 1, n-1, n}, covering p in {0, 1, n-1, n}) the verdict is exact: the
LDL* pivots of that matrix, from one tracked forward elimination of its
rows (``linalg.hermitian_pivots``), are all positive, or the first pivot
<= 0 comes with an exact vector w whose value w* A w is that pivot.  For
intermediate p the pairing matrix is evaluated at seeded deterministic
decomposable directions, each read as the q x q minors of its drawn
vectors (``decomposable_coefficients``), with no wedge, and a verdict
without falsifier is labelled sampled.  Only a falsifier becomes a
form, and it is re-verified by a wedge (``pairing_volume``).

A p-Kaehler question takes p from its form (``pkahler_degree``): a
nonzero (p,p)-form with 1 <= p <= n-1, constant in t (``pkahler_check``).
Transversality on nearby fibers is answered by
``extension.pkahler_extend``, on the extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .algebra import Form, FormAlgebra, StructureEquations, wedge_mono
from .errors import PreconditionFailed
from .io import form_to_obj
from .leibniz import merge_indices
from .scalars import DetRng, GaussianRational, QI_I, QI_ONE, QI_ZERO, _div


def sigma_q(q: int) -> GaussianRational:
    """The normalization 2^{-q} i^{q^2} making tau ^ conj(tau) pairings real."""
    if q < 0:
        raise ValueError("q must be non-negative")
    out = GaussianRational(Fraction(1, 2**q))
    for _ in range(q * q % 4):
        out = out * QI_I
    return out


def unit_volume_scalar(n: int) -> GaussianRational:
    """u with u * gamma^{1..n} ^ gammabar^{1..n} the positive unit volume.

    From the standard form sum (i/2) gamma^k ^ gammabar^k raised to the
    n-th power and divided by n!: u = (i/2)^n (-1)^{n(n-1)/2}.
    """
    u = QI_ONE
    half_i = GaussianRational(0, Fraction(1, 2))
    for _ in range(n):
        u = u * half_i
    if (n * (n - 1) // 2) % 2:
        u = -u
    return u


def volume_coefficient(f: Form) -> GaussianRational:
    """Coefficient of an (n,n)-form against the positive unit volume."""
    n = f.algebra.n
    full = tuple(range(1, n + 1))
    if any(m != (full, full) for m in f.coeffs):
        raise ValueError("not a top-degree form")
    c = f.coeffs.get((full, full))
    if c is None:
        return GaussianRational(0)
    if not c.is_constant():
        raise ValueError("volume coefficient of a parameter-dependent form")
    return c.constant_term() / unit_volume_scalar(n)


def _subset_index(alg: FormAlgebra, q: int) -> Dict[Tuple[int, ...], int]:
    """The ascending q-subsets I of 1..n in order, each with its position:
    the basis gamma^I of the (q,0)-forms, the algebra's subset ranks
    (``FormAlgebra.layout``), read only.  ValueError unless 0 <= q <= n."""
    if not 0 <= q <= alg.n:
        raise ValueError(f"a (q,0)-form needs q in the range 0..{alg.n}, not q = {q}")
    return alg.layout.subset_rank[q]


@dataclass
class HermitianExtraction:
    """Coefficient matrix of a (q,q)-form in the decomposable basis.

    matrix[i][j] is the sigma_q-normalized coefficient against
    beta_i ^ conj(beta_j) where beta enumerates the ascending gamma^I
    with |I| = q; hermitian records whether the input was conj-fixed.
    """

    q: int
    basis: List[Tuple[int, ...]]
    matrix: List[List[GaussianRational]]
    hermitian: bool


def hermitian_matrix_of(theta: Form, q: Optional[int] = None) -> HermitianExtraction:
    """Extract the N x N coefficient matrix of a (q,q)-form, N = C(n,q)."""
    alg = theta.algebra
    if q is None:
        q = theta.bidegree()[0] if theta else 0
    if theta and not theta.is_homogeneous(q, q):
        raise ValueError("hermitian extraction needs a (q,q)-form")
    index = _subset_index(alg, q)
    sq = sigma_q(q)
    size = len(index)
    matrix = [[GaussianRational(0)] * size for _ in range(size)]
    for (I, J), c in theta.coeffs.items():
        if not c.is_constant():
            raise ValueError("extraction of a parameter-dependent form")
        matrix[index[I]][index[J]] = c.constant_term() / sq
    hermitian = all(
        matrix[i][j] == matrix[j][i].conj() for i in range(size) for j in range(size)
    )
    return HermitianExtraction(q=q, basis=list(index), matrix=matrix, hermitian=hermitian)


def reconstruct_from_matrix(
    alg: FormAlgebra, q: int, matrix: Sequence[Sequence[GaussianRational]]
) -> Form:
    """Inverse of hermitian_matrix_of: sigma_q sum M_ij beta_i ^ conj(beta_j)."""
    basis = list(_subset_index(alg, q))
    sq = sigma_q(q)
    total = alg.zero()
    for i, I in enumerate(basis):
        for j, J in enumerate(basis):
            c = matrix[i][j]
            if c:
                total = total + alg.monomial(I, J, sq * c)
    return total


@dataclass
class PositivityVerdict:
    """Outcome of a positivity query.

    kind names the queried property; holds is the decision; exact
    marks proven answers, a certificate or a falsifier, as opposed to
    sampled ones, where no falsifier was found.  A falsifier is a
    decomposable (q,0)-form whose exact pairing volume is non-positive,
    and always re-verifies by direct wedge computation.
    """

    kind: str
    holds: bool
    exact: bool
    certificate: object = None
    falsifier: Optional[Form] = None
    samples_used: int = 0
    min_margin: Optional[Fraction] = None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "holds": self.holds,
            "exact": self.exact,
            "samples_used": self.samples_used,
            "min_margin": str(self.min_margin) if self.min_margin is not None else None,
            "falsifier": form_to_obj(self.falsifier) if self.falsifier else None,
        }


def is_strictly_positive(theta: Form, q: Optional[int] = None) -> PositivityVerdict:
    """Exact positive-definiteness of the coefficient matrix via its LDL*
    pivots (``_pivot_verdict``; the first k multiply to the k-th leading
    principal minor).  On failure the certificate names the failing
    pivot and the vector w with w* A w equal to it."""
    ext = hermitian_matrix_of(theta, q)
    if not ext.hermitian:
        raise PreconditionFailed("coefficient matrix is not Hermitian")
    verdict = _pivot_verdict("strictly_positive", theta.algebra, ext.basis, ext.matrix)
    if ext.q != 1:
        # w is a (q,0)-form; as a falsifier it is reported only when q == 1
        verdict.falsifier = None
    return verdict


def _pivot_verdict(kind: str, alg: FormAlgebra, basis: Sequence, mat: List[list]) -> PositivityVerdict:
    """The exact verdict of mat's LDL* pivots (``linalg.hermitian_pivots``):
    holds with mat as certificate, or fails at the first pivot <= 0, with
    the failing minor and the witness w (w* A w is that pivot) as
    certificate and w as the (q,0)-form sum w_i gamma^{basis_i}."""
    _, witness, fail = linalg.hermitian_pivots(mat)
    if fail is None:
        return PositivityVerdict(kind=kind, holds=True, exact=True, certificate=mat)
    tau = alg.zero()
    for pos, c in sorted(witness.items()):
        tau = tau + alg.monomial(basis[pos], (), c)
    return PositivityVerdict(
        kind=kind,
        holds=False,
        exact=True,
        certificate={"failing_minor_index": fail, "vector": witness},
        falsifier=tau,
    )


def _pairing_matrix(gamma: Form, q: int) -> List[List[GaussianRational]]:
    """A with conj(c)^T A c = volume of gamma ^ sigma_q tau ^ conj(tau)
    for tau = sum c_i beta_i, gamma a constant (n-q,n-q)-form.

    gamma ^ beta_a ^ sigma_q conj(beta_b) keeps only gamma's term at the
    complement of the monomial (A, B), so each entry is that coefficient
    times sigma_q and the sign of the wedge (``wedge_mono``), over the
    unit volume.  A t-dependent gamma raises ValueError.
    """
    n = gamma.algebra.n
    index = _subset_index(gamma.algebra, q)
    full = frozenset(range(1, n + 1))
    scale = sigma_q(q) / unit_volume_scalar(n)
    mat = [[GaussianRational(0)] * len(index) for _ in index]
    for (I, J), c in gamma.coeffs.items():
        if not c.is_constant():
            raise ValueError("volume coefficient of a parameter-dependent form")
        A, B = tuple(sorted(full.difference(I))), tuple(sorted(full.difference(J)))
        sign = wedge_mono((I, J), (A, B))[0]
        mat[index[B]][index[A]] = c.constant_term() * scale * sign
    return mat


def decomposable_coefficients(n: int, q: int, rng: DetRng) -> Dict[Tuple[int, ...], GaussianRational]:
    """The nonzero coefficients c_I of tau = v_1 ^ ... ^ v_q on gamma^I,
    I ascending, for q seeded vectors v_k = sum_i x_ki gamma^i, each
    x_ki drawn as ``rng.gaussian(3)``, vector by vector and i ascending;
    drawn again while every c_I is 0.  c_I is the q x q minor of the
    vectors at the columns I, read by Laplace expansion along the last
    vector from the minors of the vectors before it: gamma^S ^ gamma^i
    is gamma^(S+i) times -1 per element of S above i
    (``leibniz.merge_indices``)."""
    while True:
        minors: Dict[Tuple[int, ...], GaussianRational] = {(): QI_ONE}
        for _ in range(q):
            v = [rng.gaussian(3) for _ in range(n)]
            wider: Dict[Tuple[int, ...], GaussianRational] = {}
            for S, m in minors.items():
                for i, x in enumerate(v, 1):
                    merged = merge_indices(S, (i,)) if x else None
                    if merged is not None:
                        sign, T = merged
                        y = m * x if sign > 0 else -m * x
                        wider[T] = wider[T] + y if T in wider else y
            minors = {T: c for T, c in wider.items() if c}
        if minors:
            return minors


def pairing_volume(gamma: Form, tau: Form) -> GaussianRational:
    """Volume coefficient of gamma ^ sigma_q tau ^ conj(tau)."""
    q = tau.bidegree()[0]
    return volume_coefficient(gamma.wedge(tau.wedge(tau.conj()).scale(sigma_q(q))))


def is_transverse(
    gamma: Form,
    p: int,
    samples: int = 200,
    seed: int = 7,
    force_sampled: bool = False,
) -> PositivityVerdict:
    """Strict positivity of gamma ^ sigma_q tau ^ conj(tau) over nonzero
    decomposable (q,0)-forms tau, q = n - p, read off gamma's pairing
    matrix A (``_pairing_matrix``).  Where every (q,0)-form is
    decomposable (p in {0, 1, n-1, n}) the verdict is A's LDL* pivots,
    exact either way (``_pivot_verdict``).  Elsewhere, or with
    force_sampled, each seeded decomposable tau = sum c_I gamma^I, its
    c read as minors (``decomposable_coefficients``), pairs to c* A c,
    summed over A's nonzero entries: one <= 0 is an exact falsifier, the
    only tau built as a form; else the verdict is sampled, with the
    smallest margin drawn.  Every falsifier is re-verified by its wedge
    (``pairing_volume``).  samples below 1 raise ValueError, whatever p
    is: a sampled verdict would hold on no evidence."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, not {samples}")
    alg = gamma.algebra
    n = alg.n
    if gamma and not gamma.is_homogeneous(p, p):
        raise ValueError("transversality needs a (p,p)-form")
    if gamma.conj() != gamma:
        raise PreconditionFailed("transversality is defined for real forms")
    q = n - p
    mat = _pairing_matrix(gamma, q)
    index = _subset_index(alg, q)
    if not force_sampled and p in (0, 1, n - 1, n):
        verdict = _pivot_verdict("transverse", alg, list(index), mat)
        if verdict.holds:
            return verdict
        del verdict.certificate["vector"]
    else:
        rng = DetRng(seed)
        margins: List[Fraction] = []
        # c* A c = sum_i conj(c_i) (A c)_i over A's nonzero entries, taken
        # once per verdict, row by row
        rows = [(i, [(j, a) for j, a in enumerate(row) if a]) for i, row in enumerate(mat)]
        rows = [(i, nonzero) for i, nonzero in rows if nonzero]
        for drawn in range(1, samples + 1):
            coeffs = decomposable_coefficients(n, q, rng)
            c = {index[I]: x for I, x in coeffs.items()}
            vol = QI_ZERO
            for i, nonzero in rows:
                if i in c:
                    vol += c[i].conj() * sum((a * c[j] for j, a in nonzero if j in c), QI_ZERO)
            margin = _div(vol.re, sum(z.norm2() for z in c.values()))
            margins.append(margin)
            if margin <= 0:
                # the pairing of this tau is exact, so it proves failure
                verdict = PositivityVerdict(
                    kind="transverse",
                    holds=False,
                    exact=True,
                    falsifier=Form(alg, {(I, ()): alg.ring.const(x) for I, x in sorted(coeffs.items())}),
                    samples_used=drawn,
                    min_margin=margin,
                )
                break
        else:
            return PositivityVerdict(
                kind="transverse",
                holds=True,
                exact=False,
                samples_used=samples,
                min_margin=min(margins, default=None),
            )
    vol = pairing_volume(gamma, verdict.falsifier)
    if vol.im != 0 or vol.re > 0:
        raise AssertionError("falsifier failed to re-verify")
    return verdict


def pkahler_degree(gamma: Form, n: int) -> int:
    """The p of gamma as a p-Kaehler form, read off its bidegree (p,p);
    PreconditionFailed if gamma is zero, of mixed bidegree, not a
    (p,p)-form, or has p outside 1..n-1 (top degree is trivial)."""
    try:
        p, q = gamma.bidegree()
    except ValueError as exc:
        raise PreconditionFailed(f"not a p-Kaehler form: {exc}") from None
    if p != q:
        raise PreconditionFailed(f"not a p-Kaehler form: a ({p},{q})-form is not a (p,p)-form")
    if not 1 <= p <= n - 1:
        raise PreconditionFailed(f"the form's p = {p} is outside 1..n-1 = 1..{n - 1}")
    return p


def pkahler_check(
    se: StructureEquations,
    gamma: Form,
    samples: int = 200,
    seed: int = 7,
) -> Tuple[bool, bool, PositivityVerdict]:
    """(p-Kaehler, d-closed, transversality verdict) of gamma at its own
    p (``pkahler_degree``): p-Kaehler is d-closed (exact) and
    transverse; p = 1 is the Kaehler case and p = n-1 the balanced case.
    Transversality is decided at a point, so a gamma that depends on t
    raises PreconditionFailed, as an omega0 does in ``pkahler_extend``."""
    p = pkahler_degree(gamma, se.n)
    if not all(c.is_constant() for c in gamma.coeffs.values()):
        raise PreconditionFailed("the form depends on t; positivity is decided at a point")
    closed = not se.with_algebra(gamma.algebra).apply_d(gamma)
    verdict = is_transverse(gamma, p, samples=samples, seed=seed)
    return closed and verdict.holds, closed, verdict
