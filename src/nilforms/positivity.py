"""Positivity taxonomy on exterior powers: strict positivity of (q,q)-
forms, transversality of real (p,p)-forms against decomposable (q,0)-
directions, and the Kaehler/balanced specializations.

Exact Hermitian certificates exist whenever every relevant (q,0)-form
is decomposable (q in {0, 1, n-1, n}, covering p in {0, 1, n-1, n}):
the LDL* pivots of the coefficient or pairing matrix, from one tracked
forward elimination of its rows (``linalg.hermitian_pivots``), are all
positive, or the first pivot <= 0 comes with an exact vector w whose
value w* A w is that pivot.  For intermediate p the verdict is
produced by seeded deterministic sampling of decomposable directions
and is labelled as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .algebra import Form, FormAlgebra, StructureEquations
from .errors import PreconditionFailed
from .scalars import DetRng, GaussianRational, QI_ONE, _div

QI_I = GaussianRational(0, 1)


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
    alg = f.algebra
    n = alg.n
    if not f:
        return GaussianRational(0)
    full = tuple(range(1, n + 1))
    for m in f.coeffs:
        if m != (full, full):
            raise ValueError("not a top-degree form")
    c = f.coeffs.get((full, full))
    val = c.constant_term() if c is not None else GaussianRational(0)
    if c is not None and not c.is_constant():
        raise ValueError("volume coefficient of a parameter-dependent form")
    return val / unit_volume_scalar(n)


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
    basis = list(combinations(range(1, alg.n + 1), q))
    index = {I: i for i, I in enumerate(basis)}
    sq = sigma_q(q)
    size = len(basis)
    zero = GaussianRational(0)
    matrix = [[zero for _ in range(size)] for _ in range(size)]
    for (I, J), c in theta.coeffs.items():
        val = c.constant_term()
        if not c.is_constant():
            raise ValueError("extraction of a parameter-dependent form")
        matrix[index[I]][index[J]] = val / sq
    hermitian = all(
        matrix[i][j] == matrix[j][i].conj() for i in range(size) for j in range(size)
    )
    return HermitianExtraction(q=q, basis=basis, matrix=matrix, hermitian=hermitian)


def reconstruct_from_matrix(
    alg: FormAlgebra, q: int, matrix: Sequence[Sequence[GaussianRational]]
) -> Form:
    """Inverse of hermitian_matrix_of: sigma_q sum M_ij beta_i ^ conj(beta_j)."""
    basis = list(combinations(range(1, alg.n + 1), q))
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

    kind names the queried property; holds is the decision (None only
    for an exhausted sampling budget with sub-floor margins); exact
    marks proven answers, a certificate or a falsifier, as opposed to
    sampled ones, where no falsifier was found.  A falsifier is a
    decomposable (q,0)-form whose exact pairing volume is non-positive,
    and always re-verifies by direct wedge computation.
    """

    kind: str
    holds: Optional[bool]
    exact: bool
    certificate: object = None
    falsifier: Optional[Form] = None
    samples_used: int = 0
    min_margin: Optional[Fraction] = None

    def to_json_dict(self) -> dict:
        from .io import form_to_obj

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
    pivots (``linalg.hermitian_pivots``; the first k multiply to the k-th
    leading principal minor).  On failure the certificate names the
    failing pivot and the vector w with w* A w equal to it."""
    ext = hermitian_matrix_of(theta, q)
    if not ext.hermitian:
        raise PreconditionFailed("coefficient matrix is not Hermitian")
    _, witness, fail = linalg.hermitian_pivots(ext.matrix)
    if fail is None:
        return PositivityVerdict(
            kind="strictly_positive", holds=True, exact=True, certificate=ext.matrix
        )
    # witness vector -> decomposable falsifier only when q == 1; otherwise
    # report the failing minor index and the vector itself
    falsifier = None
    alg = theta.algebra
    if witness is not None and ext.q == 1:
        falsifier = alg.zero()
        for pos, c in sorted(witness.items()):
            falsifier = falsifier + alg.monomial(ext.basis[pos], (), c)
    return PositivityVerdict(
        kind="strictly_positive",
        holds=False,
        exact=True,
        certificate={"failing_minor_index": fail, "vector": witness},
        falsifier=falsifier,
    )


def _pairing_matrix(gamma: Form, q: int) -> List[List[GaussianRational]]:
    """A with conj(c)^T A c = volume of gamma ^ sigma_q tau ^ conj(tau)
    for tau = sum c_i beta_i."""
    alg = gamma.algebra
    basis = list(combinations(range(1, alg.n + 1), q))
    sq = sigma_q(q)
    size = len(basis)
    zero = GaussianRational(0)
    mat = [[zero for _ in range(size)] for _ in range(size)]
    for a, A in enumerate(basis):
        beta_a = alg.monomial(A, ())
        for b, B in enumerate(basis):
            pair = gamma.wedge(beta_a.wedge(alg.monomial((), B, sq)))
            if pair:
                mat[b][a] = volume_coefficient(pair)
    return mat


def decomposable_sample(alg: FormAlgebra, q: int, rng: DetRng) -> Form:
    """tau = v_1 ^ ... ^ v_q from seeded Gaussian-rational vectors."""
    while True:
        tau = alg.scalar_form(1)
        for _ in range(q):
            v = alg.zero()
            for i in range(1, alg.n + 1):
                c = rng.gaussian(3)
                if c:
                    v = v + alg.gamma(i).scale(c)
            tau = tau.wedge(v)
        if tau:
            return tau


def pairing_volume(gamma: Form, tau: Form) -> GaussianRational:
    """Volume coefficient of gamma ^ sigma_q tau ^ conj(tau)."""
    q = tau.bidegree()[0]
    return volume_coefficient(gamma.wedge(tau.wedge(tau.conj()).scale(sigma_q(q))))


def is_transverse(
    gamma: Form,
    p: Optional[int] = None,
    samples: int = 200,
    seed: int = 7,
    margin_floor: Fraction = Fraction(0),
    force_sampled: bool = False,
) -> PositivityVerdict:
    """Strict positivity of gamma ^ sigma_q tau ^ conj(tau) over nonzero
    decomposable (q,0)-forms tau, q = n - p.

    Exact Hermitian certificate when every (q,0)-form is decomposable
    (p in {0, 1, n-1, n}); seeded sampling otherwise, returning a
    falsifier (exact: its pairing volume proves failure), a
    sampled-positive verdict, or indeterminate when the budget is
    exhausted with all margins below the floor.  force_sampled
    runs the sampling path even where a certificate exists.
    """
    alg = gamma.algebra
    n = alg.n
    if p is None:
        p = gamma.bidegree()[0]
    if gamma and not gamma.is_homogeneous(p, p):
        raise ValueError("transversality needs a (p,p)-form")
    if gamma.conj() != gamma:
        raise PreconditionFailed("transversality is defined for real forms")
    q = n - p
    if not force_sampled and p in (0, 1, n - 1, n):
        mat = _pairing_matrix(gamma, q)
        _, witness, fail = linalg.hermitian_pivots(mat)
        if fail is None:
            return PositivityVerdict(kind="transverse", holds=True, exact=True, certificate=mat)
        basis = list(combinations(range(1, n + 1), q))
        tau = alg.zero()
        for pos, c in sorted((witness or {}).items()):
            tau = tau + alg.monomial(basis[pos], (), c)
        vol = pairing_volume(gamma, tau) if tau else GaussianRational(0)
        if vol.im != 0 or vol.re > 0:
            raise AssertionError("falsifier failed to re-verify")
        return PositivityVerdict(
            kind="transverse",
            holds=False,
            exact=True,
            certificate={"failing_minor_index": fail},
            falsifier=tau,
        )
    rng = DetRng(seed)
    min_margin: Optional[Fraction] = None
    for drawn in range(1, samples + 1):
        tau = decomposable_sample(alg, q, rng)
        vol = pairing_volume(gamma, tau)
        if vol.im != 0:
            raise AssertionError("pairing volume of a real form must be real")
        scale = Fraction(0)
        for c in tau.coeffs.values():
            scale += c.constant_term().norm2()
        margin = _div(vol.re, scale)
        if margin <= 0:
            # the pairing volume of this tau is exact, so it proves failure
            return PositivityVerdict(
                kind="transverse",
                holds=False,
                exact=True,
                falsifier=tau,
                samples_used=drawn,
                min_margin=margin,
            )
        if min_margin is None or margin < min_margin:
            min_margin = margin
    if margin_floor and (min_margin is None or min_margin < margin_floor):
        return PositivityVerdict(
            kind="transverse",
            holds=None,
            exact=False,
            samples_used=samples,
            min_margin=min_margin,
        )
    return PositivityVerdict(
        kind="transverse",
        holds=True,
        exact=False,
        samples_used=samples,
        min_margin=min_margin,
    )


def check_pkahler_degree(gamma: Form, p: int, n: int) -> None:
    """PreconditionFailed unless 1 <= p <= n-1 and gamma is a (p,p)-form:
    the bidegrees a p-Kaehler form can have (top degree is trivial)."""
    if not 1 <= p <= n - 1:
        raise PreconditionFailed(f"p must satisfy 1 <= p <= n-1 = {n - 1}, got {p}")
    if not gamma.is_homogeneous(p, p):
        raise PreconditionFailed(f"the form is not a ({p},{p})-form")


def pkahler_check(
    se: StructureEquations,
    gamma: Form,
    p: int,
    samples: int = 200,
    seed: int = 7,
) -> Tuple[bool, PositivityVerdict]:
    """d-closed (exact) and transverse; p = 1 is the Kaehler case and
    p = n-1 the balanced case."""
    check_pkahler_degree(gamma, p, se.n)
    closed = not se.with_algebra(gamma.algebra).apply_d(gamma)
    verdict = is_transverse(gamma, p, samples=samples, seed=seed)
    return closed and bool(verdict.holds), verdict


def transversality_along_deformation(
    se: StructureEquations,
    phi,
    gamma: Form,
    t_points: Sequence,
    samples: int = 200,
    seed: int = 7,
) -> List[PositivityVerdict]:
    """Evaluate a parameter-dependent (p,p)-form at each point, reread it
    against the deformed coframe, and re-run the transversality check.

    In the deformed basis the extension map acts as the identity on
    coefficients, so evaluation plus reinterpretation is exactly the
    extension on the fiber; failures at large t are reported as
    verdicts, not errors.
    """
    from .deformation import deform_complex

    p = gamma.bidegree()[0]
    out = []
    for pt in t_points:
        deform_complex(se, phi, point=pt)  # raises if the fiber degenerates
        ev = gamma.eval(pt)
        out.append(is_transverse(ev, p, samples=samples, seed=seed))
    return out
