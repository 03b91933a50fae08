"""Beltrami differentials and the structure equations they deform.

A Beltrami differential phi moves the (1,0)-coframe to gamma^i(t) =
(1+phi) gamma^i, and d of the new coframe is read off the structure
forms of se (``deform_complex``).  phi is integrable, delbar phi =
(1/2)[phi,phi], exactly when no d gamma^i(t) has a (0,2)-part, so the
deformed equations' ``StructureEquations.require_flat`` is the one
integrability decider: over the truncated ring it decides for the whole
family, and phi keeps a pass (``require_integrable``); at a point it
decides for the fiber there.  The Maurer-Cartan residual and the
Schouten bracket it is written with are test oracles.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from . import linalg
from .algebra import (
    CoframeEndo,
    Form,
    StructureEquations,
    T10,
    VectorValuedForm,
    build_complex,
    endo_of_vvf,
    neumann_invert,
    simultaneous_contract,
)
from .cohomology import EvaluatedComplex
from .errors import IntegrabilityError, NonInvertibleCoframe
from .scalars import GaussianRational


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


# -- the deformed complexes ----------------------------------------------------


def require_integrable(se: StructureEquations, phi: VectorValuedForm) -> None:
    """IntegrabilityError unless phi is integrable on se, decided by
    deforming se along phi symbolically (``deform_complex``) unless phi
    keeps a pass for this se object (``phi.integrable_on``).  A failure
    is never stored, so a non-integrable phi is refused on every call."""
    if phi.integrable_on is not se:
        deform_complex(se, phi)


def coframe_transform(phi: VectorValuedForm) -> CoframeEndo:
    """1 + phi + conj(phi) acting on the coframe span."""
    alg = phi.algebra
    p_endo = endo_of_vvf(phi)
    return CoframeEndo.identity(alg) + p_endo + p_endo.conj()


def deform_complex(
    se: StructureEquations,
    phi: VectorValuedForm,
    point: Optional[Sequence[GaussianRational]] = None,
) -> StructureEquations:
    """Structure equations in the deformed coframe gamma^i(t) = (1+phi)
    gamma^i, the image of the coframe under T = 1 + phi + conj(phi)
    (``coframe_transform``), read off the structure forms of se
    (``_deformed_equations``), which must define a complex.

    point=None keeps coefficients in the truncated ring and inverts T by
    its Neumann series (NotPerturbative when phi has a constant term).
    The equations' ``require_flat`` is then the verdict on phi: a
    (0,2)-part raises IntegrabilityError, and a pass is kept in
    ``phi.integrable_on``.  Otherwise the forms and T are evaluated
    exactly at the point, where the square solve inverts T or raises
    NonInvertibleCoframe, and the verdict is on the fiber there: J_t is
    a complex structure exactly when its equations have no (0,2)-part.
    Either way no non-complex almost-complex object is produced, and the
    equations returned have passed ``require_flat``, so ``build_complex``
    checks nothing again.
    """
    as_beltrami(phi)
    se.require_flat()
    se_r = se.with_algebra(phi.algebra)
    forms = [se_r.d_symbol(a) for a in range(2 * se.n)]
    if point is None:
        transform = coframe_transform(phi)
        inverse = neumann_invert(CoframeEndo.identity(phi.algebra) - transform)
        deformed = _deformed_equations(se.name, forms, transform, inverse)
        phi.integrable_on = se
        return deformed
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
    coframe symbol a, which inverse re-expresses in the new coframe.  A
    (0,2)-part is phi's non-integrability: IntegrabilityError."""
    alg = transform.algebra
    out: Dict[int, Form] = {}
    for i in range(1, alg.n + 1):
        d_new = sum((forms[a].scale(c) for a, c in transform.cols.get(i - 1, {}).items()), alg.zero())
        out[i] = simultaneous_contract(inverse, d_new)
    deformed = StructureEquations(f"{name}:deformed", alg, out)
    try:
        deformed.require_flat()
    except IntegrabilityError as exc:
        raise IntegrabilityError(f"phi is not integrable; {exc}") from None
    return deformed
