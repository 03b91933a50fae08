"""Beltrami differentials, their coframe maps and the structure
equations they deform.

phi moves the (1,0)-coframe to gamma^i(t) = (1+phi) gamma^i, the image
under T = 1 + phi + conj(phi), one of the coframe maps phi owns
(``BeltramiOperators``), and d of the new coframe is read off the
structure forms of se (``deform_complex``).  phi is integrable exactly
when no d gamma^i(t) has a (0,2)-part, so the deformed equations' split
of d (``StructureEquations.symbol_terms``) is the one integrability
decider, for the family over the truncated ring (phi keeps a pass,
``require_integrable``) and for a fiber at a point.  The Maurer-Cartan
residual and d^2 of deformed equations are test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from . import linalg
from .algebra import (
    CoframeEndo,
    Form,
    Mono,
    StructureEquations,
    T01,
    T10,
    VectorValuedForm,
    build_complex,
    endo_of_vvf,
    neumann_invert,
    simultaneous_contract,
    vvf_of_endo,
)
from .cohomology import EvaluatedComplex
from .errors import IntegrabilityError, NonInvertibleCoframe, NotPerturbative
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
    """se with its parameters fixed at point, over the constant ring: the
    one evaluation of structure forms, since a complex has no parameters.
    se's lift, kept in ``se.lifts`` with se's ``require_flat`` pass, where
    its forms are constant; else a copy that starts unchecked, since
    evaluation is not a ring map of the truncated ring, so d^2 = 0 modulo
    the truncation does not give it at a point."""
    if all(c.is_constant() for f in se.d_coframe.values() for c in f.coeffs.values()):
        return se.with_algebra(se.algebra.constant)
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


@dataclass
class BeltramiOperators:
    """Every coframe map phi induces, and the extension solver's data.
    phi^2 = phibar^2 = 0, so T^{-1} = (unshrink + conj(unshrink) - 1)(1 -
    phi - phibar), with ``unshrink`` the one Neumann series.  iota_phi
    hooks only gamma^i, i in ``phi_hooks``, iota_B only gammabar^j, j in
    ``b_hooks``; ``k_sums`` keeps the k-sums of each monomial of hooked
    factors, ``terms`` those of each monomial of W (``extension.ladder_sums``)."""

    b_field: VectorValuedForm  # phibar corrected by the Neumann factor
    ext_transform: CoframeEndo  # T = 1 + phi + phibar on the coframe
    ext_inverse: CoframeEndo  # T^{-1}: the deformed coframe -> the coframe
    shrink: CoframeEndo  # gammabar-block factor (1 - phi phibar): omega -> W
    unshrink: CoframeEndo  # its Neumann inverse: W -> omega
    phi_hooks: FrozenSet[int]
    b_hooks: FrozenSet[int]
    k_sums: Dict[Mono, Tuple[Dict[int, Tuple[Form, Form]], ...]] = field(default_factory=dict)
    terms: Dict[Mono, Tuple[list, ...]] = field(default_factory=dict)


def beltrami_operators(phi: VectorValuedForm) -> BeltramiOperators:
    """phi's coframe maps, built once into ``phi.operators``; the one test
    that phi = O(t), as they need: NotPerturbative otherwise."""
    if phi.operators is None:
        as_beltrami(phi)
        p_endo = endo_of_vvf(phi)
        if not p_endo.is_zero() and p_endo.min_order() == 0:
            raise NotPerturbative("phi has a constant term; its coframe maps need phi = O(t)")
        q_endo = p_endo.conj()
        one = CoframeEndo.identity(phi.algebra)
        pq = p_endo.compose(q_endo)
        unshrink = neumann_invert(pq)
        b_field = vvf_of_endo(q_endo.compose(unshrink), T01)
        phi.operators = BeltramiOperators(
            b_field=b_field,
            ext_transform=coframe_transform(phi),
            ext_inverse=(unshrink + unshrink.conj() - one).compose(one - p_endo - q_endo),
            shrink=one - pq,
            unshrink=unshrink,
            phi_hooks=frozenset(phi.components),
            b_hooks=frozenset(b_field.components),
        )
    return phi.operators


def deform_complex(
    se: StructureEquations,
    phi: VectorValuedForm,
    point: Optional[Sequence[GaussianRational]] = None,
) -> StructureEquations:
    """Structure equations in the deformed coframe gamma^i(t) = (1+phi)
    gamma^i, read off the structure forms of se, which must define a
    complex (``_deformed_equations``).  point=None keeps the truncated
    ring, with T and T^{-1} from phi's operators (``beltrami_operators``):
    a (0,2)-part is the verdict on phi, IntegrabilityError, and a pass is
    kept in ``phi.integrable_on``.  At a point the forms and T are
    evaluated, the square solve inverts T or raises NonInvertibleCoframe,
    and the verdict is on that fiber, deformed from se evaluated there
    (``evaluate_se``), whose ``require_flat`` pass, if any, it keeps.
    """
    as_beltrami(phi)
    se.require_flat()
    se_r = se.with_algebra(phi.algebra)
    if point is None:
        ops = beltrami_operators(phi)
        deformed = _deformed_equations(se_r, ops.ext_transform, ops.ext_inverse)
        phi.integrable_on = se
        return deformed
    transform = coframe_transform(phi.eval(point))
    alg0, n2 = transform.algebra, 2 * se.n
    cols = [{a: x.eval(()) for a, x in transform.cols.get(b, {}).items()} for b in range(n2)]
    inv = linalg.solve_square(cols, linalg.identity_rows(n2))
    if inv is None:
        raise NonInvertibleCoframe("1 + phi + conj(phi) is singular at the evaluation point")
    inverse = CoframeEndo(alg0, {b: {a: alg0.ring.const(x) for a, x in col.items()} for b, col in enumerate(inv)})
    return _deformed_equations(evaluate_se(se_r, point), transform, inverse)


def fiber_complex(
    se: StructureEquations, phi: Optional[VectorValuedForm], point: Sequence[GaussianRational]
) -> EvaluatedComplex:
    """The complex of the fiber at point, labelled by it, a point of phi's
    ring when phi is given: se deformed along phi (``deform_complex``)
    when phi is given and the point is not t = 0, else se evaluated there
    (``evaluate_se``), so d^2 = 0 is decided on the fiber's equations."""
    if phi is not None and any(point):
        fiber = deform_complex(se, phi, point=point)
    else:
        fiber = evaluate_se(se, point)
    return EvaluatedComplex(build_complex(fiber), point)


def _deformed_equations(
    se: StructureEquations, transform: CoframeEndo, inverse: CoframeEndo
) -> StructureEquations:
    """Structure equations of the coframe gamma^i(t), column i-1 of
    transform, over se's ring: that column is constant, so d gamma^i(t) =
    sum_a transform[a, i-1] forms[a], forms[a] being d of coframe symbol
    a, which inverse re-expresses in the new coframe.  A (0,2)-part raises
    IntegrabilityError.  The new d is se's d in another coframe, so it
    keeps se's pass of ``require_flat``; without one d^2 is decided."""
    forms = [se.d_symbol(a) for a in range(2 * se.n)]
    alg = transform.algebra
    out: Dict[int, Form] = {}
    for i in range(1, alg.n + 1):
        d_new = sum((forms[a].scale(c) for a, c in transform.cols.get(i - 1, {}).items()), alg.zero())
        out[i] = simultaneous_contract(inverse, d_new)
    deformed = StructureEquations(f"{se.name}:deformed", alg, out)
    try:
        deformed.symbol_terms("del")
    except IntegrabilityError as exc:
        raise IntegrabilityError(f"phi is not integrable; {exc}") from None
    deformed.flat = se.flat
    deformed.require_flat()
    return deformed
