"""Beltrami-differential calculus on invariant complexes.

delbar on T^{1,0}-valued forms reads its structure constants from the
(1,1)-parts of d gamma^s that ``StructureEquations.symbol_terms``
splits off, deformed equations read theirs off d of the coframe; the
Schouten bracket of two Beltrami differentials is extracted by
contracting the Tian-Todorov identity against the coframe, which
reduces to the familiar wedge-of-components formula on abelian complex
structures and adds the del gamma correction on non-abelian ones.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from . import linalg
from .algebra import (
    CoframeEndo,
    Form,
    StructureEquations,
    T10,
    VectorValuedForm,
    build_complex,
    contract,
    endo_of_vvf,
    neumann_invert,
    simultaneous_contract,
)
from .cohomology import EvaluatedComplex
from .errors import IntegrabilityError, NonInvertibleCoframe
from .scalars import GaussianRational

HALF = GaussianRational(Fraction(1, 2))


def as_beltrami(v: VectorValuedForm) -> VectorValuedForm:
    """Validate that v is a (1,0)-vector-valued (0,1)-form."""
    if v.valence != T10:
        raise ValueError("a Beltrami differential takes values in T^{1,0}")
    deg = v.form_bidegree()
    if deg not in (None, (0, 1)):
        raise ValueError(f"Beltrami components must be (0,1)-forms, got {deg}")
    return v


def evaluate_se(se: StructureEquations, point) -> StructureEquations:
    """Structure equations with parameters fixed (constant scalar ring):
    the fiber of equations with parameters and no Beltrami differential
    (``fiber_complex``); the test oracles and perfbench read it too.

    The copy starts unchecked even when se passed ``require_flat``:
    evaluation at a point is not a ring map of the truncated ring, so
    d^2 = 0 modulo the truncation does not give d^2 = 0 at the point.
    """
    return StructureEquations(
        se.name, se.algebra.constant, {i: f.eval(point) for i, f in se.d_coframe.items()}
    )


# -- differentials on vector-valued forms ---------------------------------


def delbar_on_vectors(se: StructureEquations, v: VectorValuedForm) -> VectorValuedForm:
    """delbar on a T^{1,0}-valued form: delbar(omega (x) theta_i) =
    delbar omega (x) theta_i + (-1)^|omega| sum c omega ^ gammabar^k (x)
    theta_s, over the (1,1)-terms c gamma^i ^ gammabar^k of d gamma^s
    (``symbol_terms``).  Asks ``require_flat`` first, so equations that
    define no complex are refused on every call."""
    se.require_flat()
    if v.valence != T10:
        raise ValueError("delbar_on_vectors takes T^{1,0}-valued forms")
    alg = v.algebra
    mixed = se.symbol_terms("delbar")[: se.n]
    out: Dict[int, Form] = {}

    def add(i: int, f: Form):
        if f:
            out[i] = out.get(i, alg.zero()) + f

    for i, comp in v.components.items():
        add(i, se.apply_delbar(comp))
        odd = _total_degree(comp) % 2
        for s, terms in enumerate(mixed):
            for I, J, c in terms:
                if I == (i,):
                    wedge = comp.wedge(alg.gammabar(J[0])).scale(c)
                    add(s + 1, -wedge if odd else wedge)
    return VectorValuedForm(alg, T10, out)


def _total_degree(f: Form) -> int:
    degs = {len(m[0]) + len(m[1]) for m in f.coeffs}
    if len(degs) > 1:
        raise ValueError("component of mixed total degree")
    return degs.pop() if degs else 0


# -- Schouten bracket -------------------------------------------------------


def schouten(
    se: StructureEquations, phi: VectorValuedForm, psi: VectorValuedForm
) -> VectorValuedForm:
    """Schouten-Nijenhuis bracket of two Beltrami differentials.

    Extracted from the Tian-Todorov identity against the coframe:
    [phi,psi]^j = -iota_psi iota_phi del gamma^j + iota_phi del psi^j
    + iota_psi del phi^j.  Symmetric and bilinear; the full identity on
    arbitrary forms is exercised by the test suite.
    """
    as_beltrami(phi)
    as_beltrami(psi)
    alg = phi.algebra
    comps: Dict[int, Form] = {}
    for j in range(1, alg.n + 1):
        val = alg.zero()
        dgj = se.apply_del(alg.gamma(j))
        if dgj:
            val = val - contract(psi, contract(phi, dgj))
        psi_j = psi.component(j)
        if psi_j:
            val = val + contract(phi, se.apply_del(psi_j))
        phi_j = phi.component(j)
        if phi_j:
            val = val + contract(psi, se.apply_del(phi_j))
        if val:
            comps[j] = val
    return VectorValuedForm(alg, T10, comps)


def check_integrability(se: StructureEquations, phi: VectorValuedForm) -> Tuple[bool, VectorValuedForm]:
    """Residual delbar phi - (1/2)[phi, phi], exactly; zero iff integrable.

    Stores nothing; ``require_integrable`` keeps phi's passing verdict.
    """
    as_beltrami(phi)
    se_lifted = se.with_algebra(phi.algebra)
    residual = delbar_on_vectors(se_lifted, phi) - schouten(se_lifted, phi, phi).scale(HALF)
    return not residual, residual


def require_integrable(se: StructureEquations, phi: VectorValuedForm) -> None:
    """IntegrabilityError, with the residual, unless phi is integrable on se.

    phi owns the verdict: the first passing ``check_integrability``
    against se is kept in ``phi.integrable_on``, so later calls with the
    same se object check nothing.  Any other se object is checked again,
    and a failure is never stored, so a non-integrable phi is checked
    and refused on every call.
    """
    if phi.integrable_on is se:
        return
    ok, residual = check_integrability(se, phi)
    if not ok:
        raise IntegrabilityError(
            f"phi is not integrable; delbar phi - (1/2)[phi,phi] = {residual!r}"
        )
    phi.integrable_on = se


# -- the extension map and deformed complexes -------------------------------


def coframe_transform(phi: VectorValuedForm) -> CoframeEndo:
    """1 + phi + conj(phi) acting on the coframe span."""
    alg = phi.algebra
    p_endo = endo_of_vvf(phi)
    return CoframeEndo.identity(alg) + p_endo + p_endo.conj()


def main1_residual(se: StructureEquations, phi: VectorValuedForm, alpha: Form) -> Form:
    """Residual of the extended Leibniz identity
    d(e^{iota_phi} a) = e^{iota_phi}((d + del iota_phi - iota_phi del
    + iota_{delbar phi - (1/2)[phi,phi]}) a), for arbitrary phi.

    The orientation of the correction term is forced by the two pinned
    conventions: iota_phi gamma^i = phi^i (the deformed-coframe fixture)
    and the bracket extracted from the contraction identity
    iota_[phi,psi] = [iota_phi, [del, iota_psi]].  With those,
    [delbar, iota_phi] = +iota_{delbar phi} on generators, hence the
    plus sign; a global flip of the vector-valued sign conventions flips
    it back.  For integrable phi the correction vanishes either way.
    """
    as_beltrami(phi)
    se = se.with_algebra(phi.algebra)
    alpha = alpha.lift(phi.algebra)
    theta = delbar_on_vectors(se, phi) - schouten(se, phi, phi).scale(HALF)
    # e^{iota_phi}: the coframe substitution 1 + phi, phi being a Beltrami
    # differential (exponentials of even derivations are algebra maps)
    exp_iota = CoframeEndo.identity(phi.algebra) + endo_of_vvf(phi)
    lhs = se.apply_d(simultaneous_contract(exp_iota, alpha))
    inner = (
        se.apply_d(alpha)
        + se.apply_del(contract(phi, alpha))
        - contract(phi, se.apply_del(alpha))
        + contract(theta, alpha)
    )
    return lhs - simultaneous_contract(exp_iota, inner)


def deform_complex(
    se: StructureEquations,
    phi: VectorValuedForm,
    point: Optional[Sequence[GaussianRational]] = None,
) -> StructureEquations:
    """Structure equations in the deformed coframe gamma^i(t) = (1+phi)
    gamma^i, the image of the coframe under T = 1 + phi + conj(phi)
    (``coframe_transform``), read off the structure forms of se
    (``_deformed_equations``).  point=None keeps coefficients in the
    truncated ring and inverts T by its Neumann series; otherwise the
    forms and T are evaluated exactly at the point, where the square
    solve inverts T or raises NonInvertibleCoframe.  phi must be
    integrable (``require_integrable``, which reads the verdict phi owns
    for se and checks only when none is stored): no non-complex
    almost-complex object is produced.  The equations returned have
    passed ``require_flat``, so ``build_complex`` checks nothing again.
    """
    as_beltrami(phi)
    require_integrable(se, phi)
    se_r = se.with_algebra(phi.algebra)
    forms = [se_r.d_symbol(a) for a in range(2 * se.n)]
    if point is None:
        transform = coframe_transform(phi)
        inverse = neumann_invert(CoframeEndo.identity(phi.algebra) - transform)
        return _deformed_equations(se.name, forms, transform, inverse)
    transform = coframe_transform(phi.eval(point))
    alg0, n2 = transform.algebra, 2 * se.n
    cols = [{a: x.eval(()) for a, x in transform.cols.get(b, {}).items()} for b in range(n2)]
    inv = linalg.solve_square(cols, linalg.identity_rows(n2))
    if inv is None:
        raise NonInvertibleCoframe("1 + phi + conj(phi) is singular at the evaluation point")
    inverse = CoframeEndo(alg0, {b: {a: alg0.ring.const(x) for a, x in col.items()} for b, col in enumerate(inv)})
    return _deformed_equations(se.name, [f.eval(point) for f in forms], transform, inverse)


def fiber_complex(
    se: StructureEquations, phi: Optional[VectorValuedForm], point: Sequence[GaussianRational]
) -> EvaluatedComplex:
    """The evaluated complex of the fiber at point, a point of phi's ring
    when phi is given: se deformed along phi (``deform_complex``) when
    phi is given and the point is not t = 0; else se's own when its ring
    has no parameters, so se's ``require_flat`` pass is reused, even
    where phi's ring has some; else se evaluated at the point."""
    if phi is not None and any(point):
        fiber = deform_complex(se, phi, point=point)
    elif se.algebra.ring.m == 0:
        fiber = se
    else:
        fiber = evaluate_se(se, point)
    return EvaluatedComplex(build_complex(fiber), ())


def _deformed_equations(
    name: str, forms: Sequence[Form], transform: CoframeEndo, inverse: CoframeEndo
) -> StructureEquations:
    """Structure equations of the coframe gamma^i(t), column i-1 of
    transform, validated (``require_flat``): that column is constant, so
    d gamma^i(t) = sum_a transform[a, i-1] forms[a], forms[a] being d of
    coframe symbol a, which inverse re-expresses in the new coframe."""
    alg = transform.algebra
    out: Dict[int, Form] = {}
    for i in range(1, alg.n + 1):
        d_new = sum((forms[a].scale(c) for a, c in transform.cols.get(i - 1, {}).items()), alg.zero())
        out[i] = simultaneous_contract(inverse, d_new)
    deformed = StructureEquations(f"{name}:deformed", alg, out)
    deformed.require_flat()
    return deformed
